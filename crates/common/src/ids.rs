//! Strongly-typed identifiers used across the system.
//!
//! Every entity that crosses a component boundary (blocks, inodes, workers,
//! storage media) gets a newtype so the compiler catches identifier mix-ups.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a file block. Unique for the lifetime of a namespace.
    BlockId,
    u64,
    "blk_"
);
id_type!(
    /// Identifier of an inode (file or directory) in the directory namespace:
    /// the inode's slot in the master's inode table (low 32 bits) and that
    /// slot's generation (high 32 bits). Deleting an inode frees its slot for
    /// the next create and bumps the generation, so an id held past a delete
    /// — in a `FileStatus`, a heat entry, an audit event, a block's owner —
    /// never names whatever moved in afterwards. A slot on its first inode has
    /// generation 0, so until something is deleted ids read 1, 2, 3, … in
    /// creation order (1 is `/`). Slot 0 is never an inode, so those ids,
    /// the namespace transcripts and the golden files stay unchanged.
    INodeId,
    u64,
    "inode_"
);

impl INodeId {
    /// The id of generation `generation` of slot `slot`.
    pub fn new(slot: u32, generation: u32) -> Self {
        Self((generation as u64) << 32 | slot as u64)
    }

    /// The inode-table slot (truncation to the low half is the point).
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// How many inodes lived in the slot before this one.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}
id_type!(
    /// Identifier of a worker node in the cluster.
    WorkerId,
    u32,
    "worker_"
);
id_type!(
    /// Cluster-wide identifier of one storage medium (e.g. one HDD on one
    /// worker). A worker with three HDDs and one SSD owns four media ids.
    MediaId,
    u32,
    "media_"
);

/// Generation stamp attached to blocks; bumped on re-replication and append
/// so that stale replicas can be detected, as in HDFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GenStamp(pub u64);

impl fmt::Display for GenStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gs_{}", self.0)
    }
}

/// A monotonically increasing id generator (used by the master for blocks
/// and inodes).
#[derive(Debug)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Creates a generator whose first issued value is `start`.
    pub fn new(start: u64) -> Self {
        Self { next: AtomicU64::new(start) }
    }

    /// Issues the next id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Current high-water mark (the value the next call will return).
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Fast-forwards the generator so it never reissues `floor` or below.
    /// Used when restoring from a checkpoint.
    pub fn ensure_above(&self, floor: u64) {
        self.next.fetch_max(floor + 1, Ordering::Relaxed);
    }
}

impl Default for IdGenerator {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(BlockId(7).to_string(), "blk_7");
        assert_eq!(WorkerId(2).to_string(), "worker_2");
        assert_eq!(MediaId(9).to_string(), "media_9");
        assert_eq!(INodeId(1).to_string(), "inode_1");
        assert_eq!(GenStamp(3).to_string(), "gs_3");
    }

    #[test]
    fn inode_id_packs_slot_and_generation() {
        assert_eq!(INodeId::new(7, 0), INodeId(7), "first generation: the plain slot number");
        let id = INodeId::new(u32::MAX, u32::MAX);
        assert_eq!((id.slot(), id.generation()), (u32::MAX, u32::MAX));
        assert!(INodeId::new(1, 1) > INodeId::new(u32::MAX, 0), "generation is the major key");
    }

    #[test]
    fn generator_is_monotonic() {
        let g = IdGenerator::new(5);
        assert_eq!(g.next(), 5);
        assert_eq!(g.next(), 6);
        assert_eq!(g.peek(), 7);
    }

    #[test]
    fn generator_ensure_above() {
        let g = IdGenerator::new(1);
        g.ensure_above(100);
        assert_eq!(g.next(), 101);
        // ensure_above never moves backwards
        g.ensure_above(50);
        assert_eq!(g.next(), 102);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(BlockId(1));
        s.insert(BlockId(1));
        s.insert(BlockId(2));
        assert_eq!(s.len(), 2);
        assert!(BlockId(1) < BlockId(2));
    }
}
