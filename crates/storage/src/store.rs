//! The [`BlockStore`] trait: the contract of one storage medium.

use octopus_common::{Block, BlockData, BlockId, FsError, Result};

/// Summary of one stored block, as carried by block reports (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBlockInfo {
    /// The block's identity (id, generation stamp, length).
    pub block: Block,
    /// CRC-32 recorded at write time.
    pub checksum: u32,
}

/// One storage medium's block interface.
///
/// Implementations must be thread-safe: a worker serves concurrent reads and
/// writes against the same medium. Capacity accounting is the store's
/// responsibility — `put` must fail with [`octopus_common::FsError::OutOfCapacity`]
/// rather than over-commit.
pub trait BlockStore: Send + Sync {
    /// Stores a block. Fails if the block already exists or capacity would
    /// be exceeded.
    fn put(&self, block: Block, data: &BlockData) -> Result<()>;

    /// Retrieves a block's payload and the CRC-32 recorded when it was
    /// written, **without** a pass over the payload: for callers whose
    /// receiver verifies end to end (the `ReadBlock` server path).
    fn read(&self, id: BlockId) -> Result<(BlockData, u32)>;

    /// Retrieves a block's payload, verifying its checksum.
    fn get(&self, id: BlockId) -> Result<BlockData> {
        verified(self.read(id)?).map(|(data, _)| data)
    }

    /// Deletes a block, releasing its capacity. Deleting an absent block is
    /// an error (the caller tracks what lives where).
    fn delete(&self, id: BlockId) -> Result<()>;

    /// Whether the block is present.
    fn contains(&self, id: BlockId) -> bool;

    /// All stored blocks (for block reports). Order is unspecified.
    fn blocks(&self) -> Vec<StoredBlockInfo>;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Configured capacity in bytes.
    fn capacity(&self) -> u64;

    /// Bytes still available.
    fn remaining(&self) -> u64 {
        self.capacity().saturating_sub(self.used())
    }

    /// The CRC-32 recorded when the block was written: an index lookup
    /// that never touches the payload (`get` and `verify` do the checking).
    fn checksum(&self, id: BlockId) -> Result<u32>;

    /// Re-reads a block and verifies its checksum, returning the stored
    /// checksum on success. Used by the periodic scrubber.
    fn verify(&self, id: BlockId) -> Result<u32> {
        verified(self.read(id)?).map(|(_, checksum)| checksum)
    }

    /// Reflection hook for tests and tools that need the concrete store
    /// type (e.g. to inject corruption into a [`crate::MemoryStore`]).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The one verifying pass over what [`BlockStore::read`] returned.
fn verified((data, expected): (BlockData, u32)) -> Result<(BlockData, u32)> {
    let actual = data.checksum();
    if actual != expected {
        return Err(FsError::ChecksumMismatch { expected, actual });
    }
    Ok((data, expected))
}
