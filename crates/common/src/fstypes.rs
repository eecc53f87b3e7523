//! Client-facing file metadata types (shared between the master and the
//! wire protocol).

use crate::{INodeId, ReplicationVector};

/// Status of a path, as returned to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    /// Inode id.
    pub id: INodeId,
    /// Absolute path.
    pub path: String,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// File length (0 for directories).
    pub len: u64,
    /// Replication vector (empty for directories).
    pub rv: ReplicationVector,
    /// Block size (0 for directories).
    pub block_size: u64,
    /// Whether the file is complete (true for directories).
    pub complete: bool,
}

/// One listing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (not the full path).
    pub name: String,
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// File length (0 for directories).
    pub len: u64,
    /// Replication vector (empty for directories).
    pub rv: ReplicationVector,
}
