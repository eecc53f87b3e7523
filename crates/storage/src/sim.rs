//! Metadata-only block store for simulation-scale experiments.
//!
//! Stores block identity and checksum but no payload, so a simulated 40 GB
//! benchmark costs a few kilobytes of heap. `get` reconstructs a
//! [`BlockData::Synthetic`] descriptor. The capacity accounting is real,
//! which is what the placement policies (and Figure 4's remaining-capacity
//! curves) observe.

use parking_lot::RwLock;
use std::collections::HashMap;

use octopus_common::{Block, BlockData, BlockId, FsError, Result};

use crate::store::{BlockStore, StoredBlockInfo};

struct Entry {
    info: StoredBlockInfo,
    seed: u64,
}

struct Inner {
    entries: HashMap<BlockId, Entry>,
    used: u64,
}

/// A block store that keeps only metadata.
pub struct SimStore {
    capacity: u64,
    inner: RwLock<Inner>,
}

impl SimStore {
    /// Creates a store with the given logical capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, inner: RwLock::new(Inner { entries: HashMap::new(), used: 0 }) }
    }
}

impl BlockStore for SimStore {
    fn put(&self, block: Block, data: &BlockData) -> Result<()> {
        if data.len() != block.len {
            return Err(FsError::InvalidArgument(format!(
                "block {} declares {} bytes but payload has {}",
                block.id,
                block.len,
                data.len()
            )));
        }
        let seed = match data {
            BlockData::Synthetic { seed, .. } => *seed,
            // Real payloads are accepted but only their identity survives.
            BlockData::Real(_) => 0,
        };
        let mut g = self.inner.write();
        if g.entries.contains_key(&block.id) {
            return Err(FsError::AlreadyExists(block.id.to_string()));
        }
        if g.used + block.len > self.capacity {
            return Err(FsError::OutOfCapacity(format!(
                "sim store: {} + {} > {}",
                g.used, block.len, self.capacity
            )));
        }
        let checksum = BlockData::Synthetic { len: block.len, seed }.checksum();
        g.used += block.len;
        g.entries.insert(block.id, Entry { info: StoredBlockInfo { block, checksum }, seed });
        Ok(())
    }

    fn read(&self, id: BlockId) -> Result<(BlockData, u32)> {
        let g = self.inner.read();
        let e = g.entries.get(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        Ok((BlockData::Synthetic { len: e.info.block.len, seed: e.seed }, e.info.checksum))
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let mut g = self.inner.write();
        let e = g.entries.remove(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        g.used -= e.info.block.len;
        Ok(())
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.read().entries.contains_key(&id)
    }

    fn blocks(&self) -> Vec<StoredBlockInfo> {
        self.inner.read().entries.values().map(|e| e.info).collect()
    }

    fn used(&self) -> u64 {
        self.inner.read().used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn checksum(&self, id: BlockId) -> Result<u32> {
        let g = self.inner.read();
        let e = g.entries.get(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        Ok(e.info.checksum)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::GenStamp;

    fn blk(id: u64, len: u64) -> Block {
        Block { id: BlockId(id), gen: GenStamp(0), len }
    }

    #[test]
    fn stores_descriptor_not_bytes() {
        let s = SimStore::new(100 << 30);
        let d = BlockData::Synthetic { len: 10 << 30, seed: 42 };
        s.put(blk(1, 10 << 30), &d).unwrap();
        assert_eq!(s.get(BlockId(1)).unwrap(), d);
        assert_eq!(s.used(), 10 << 30);
        assert_eq!(s.remaining(), 90 << 30);
    }

    #[test]
    fn capacity_and_duplicates_enforced() {
        let s = SimStore::new(100);
        s.put(blk(1, 60), &BlockData::Synthetic { len: 60, seed: 0 }).unwrap();
        assert!(matches!(
            s.put(blk(1, 10), &BlockData::Synthetic { len: 10, seed: 0 }),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            s.put(blk(2, 60), &BlockData::Synthetic { len: 60, seed: 0 }),
            Err(FsError::OutOfCapacity(_))
        ));
        s.delete(BlockId(1)).unwrap();
        s.put(blk(2, 60), &BlockData::Synthetic { len: 60, seed: 0 }).unwrap();
    }

    #[test]
    fn accepts_real_payload_identity() {
        let s = SimStore::new(1000);
        let d = BlockData::generate_real(100, 5);
        s.put(blk(3, 100), &d).unwrap();
        // Round-trips as a synthetic descriptor of the same length.
        assert_eq!(s.get(BlockId(3)).unwrap().len(), 100);
        s.verify(BlockId(3)).unwrap();
    }

    #[test]
    fn block_report() {
        let s = SimStore::new(1000);
        for i in 0..3u64 {
            s.put(blk(i, 10), &BlockData::Synthetic { len: 10, seed: i }).unwrap();
        }
        assert_eq!(s.blocks().len(), 3);
    }
}
