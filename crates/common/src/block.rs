//! Block metadata and payloads.
//!
//! File content is split into large blocks (128 MB by default), each
//! independently replicated across workers and tiers (paper §2.1). A block's
//! payload is either *real bytes* (functional data path, examples, tests) or
//! a *synthetic descriptor* (length + seed) used by the large simulated
//! experiments so that writing "40 GB" does not allocate 40 GB.

use bytes::Bytes;

use crate::checksum::{crc32, Crc32};
use crate::ids::{BlockId, GenStamp, MediaId, WorkerId};
use crate::tier::TierId;

/// Immutable identity + length of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// Block identifier.
    pub id: BlockId,
    /// Generation stamp (bumped on re-replication/recovery).
    pub gen: GenStamp,
    /// Payload length in bytes.
    pub len: u64,
}

/// One replica location: the medium, its worker, and its tier — exactly the
/// triple the client sees via `getFileBlockLocations` (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Hosting worker.
    pub worker: WorkerId,
    /// Hosting storage medium.
    pub media: MediaId,
    /// Storage tier of the medium.
    pub tier: TierId,
}

/// A block plus its byte offset within the file and its replica locations,
/// ordered by the data-retrieval policy (§4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedBlock {
    /// The block.
    pub block: Block,
    /// Byte offset of the block within its file.
    pub offset: u64,
    /// Replica locations, best-to-read-first.
    pub locations: Vec<Location>,
}

impl LocatedBlock {
    /// End offset (exclusive) of this block within the file.
    pub fn end(&self) -> u64 {
        self.offset + self.block.len
    }

    /// Whether the byte range `[start, start+len)` overlaps this block.
    pub fn overlaps(&self, start: u64, len: u64) -> bool {
        let range_end = start.saturating_add(len);
        self.offset < range_end && start < self.end()
    }
}

/// Block payload: real bytes or a synthetic descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockData {
    /// Actual bytes, checksummed with CRC-32.
    Real(Bytes),
    /// Synthetic payload of `len` bytes, reproducible from `seed`. Used by
    /// simulation-scale experiments; its checksum is derived from
    /// `(len, seed)` so end-to-end verification still exercises the
    /// checksum plumbing.
    Synthetic {
        /// Payload length in bytes.
        len: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl BlockData {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            BlockData::Real(b) => b.len() as u64,
            BlockData::Synthetic { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// CRC-32 of the payload. For synthetic payloads the checksum covers the
    /// descriptor, which is what a synthetic store persists.
    pub fn checksum(&self) -> u32 {
        match self {
            BlockData::Real(b) => crc32(b),
            BlockData::Synthetic { len, seed } => {
                let mut c = Crc32::new();
                c.update(&len.to_le_bytes());
                c.update(&seed.to_le_bytes());
                c.finish()
            }
        }
    }

    /// Builds a real payload of `len` pseudo-random bytes from `seed`
    /// (xorshift64*; deterministic, dependency-free).
    pub fn generate_real(len: usize, seed: u64) -> BlockData {
        let mut out = Vec::with_capacity(len);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        while out.len() < len {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let word = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let bytes = word.to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&bytes[..take]);
        }
        BlockData::Real(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn located_block_ranges() {
        let lb = LocatedBlock {
            block: Block { id: BlockId(1), gen: GenStamp(0), len: 100 },
            offset: 200,
            locations: vec![],
        };
        assert_eq!(lb.end(), 300);
        assert!(lb.overlaps(250, 10));
        assert!(lb.overlaps(150, 60)); // touches the first byte
        assert!(!lb.overlaps(300, 10)); // starts exactly at end
        assert!(!lb.overlaps(100, 100)); // ends exactly at offset
        assert!(lb.overlaps(0, u64::MAX)); // saturating range
    }

    #[test]
    fn synthetic_checksum_depends_on_len_and_seed() {
        let a = BlockData::Synthetic { len: 10, seed: 1 };
        let b = BlockData::Synthetic { len: 10, seed: 2 };
        let c = BlockData::Synthetic { len: 11, seed: 1 };
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
        assert_eq!(a.checksum(), BlockData::Synthetic { len: 10, seed: 1 }.checksum());
    }

    #[test]
    fn generate_real_is_deterministic() {
        let a = BlockData::generate_real(1000, 42);
        let b = BlockData::generate_real(1000, 42);
        let c = BlockData::generate_real(1000, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn generate_real_handles_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63] {
            let d = BlockData::generate_real(len, 7);
            assert_eq!(d.len(), len as u64);
        }
        assert!(BlockData::generate_real(0, 7).is_empty());
    }
}
