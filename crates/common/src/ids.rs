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
    /// Identifier of an inode (file or directory) in the directory namespace.
    INodeId,
    u64,
    "inode_"
);
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
