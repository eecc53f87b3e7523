//! Error types shared across the OctopusFS crates.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, FsError>;

/// The error type for all OctopusFS operations.
///
/// The variants mirror the failure classes of a distributed file system:
/// namespace errors (missing paths, conflicts), capacity/quota violations,
/// placement failures (no media satisfies the constraints), data-path errors
/// (corruption, unavailable replicas), and configuration problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The requested path does not exist.
    NotFound(String),
    /// The path (or a file with that name) already exists.
    AlreadyExists(String),
    /// A path component that must be a directory is not one.
    NotADirectory(String),
    /// The operation requires a file but the path names a directory.
    IsADirectory(String),
    /// A directory that must be empty is not (e.g. non-recursive delete).
    DirectoryNotEmpty(String),
    /// The supplied path is syntactically invalid.
    InvalidPath(String),
    /// The replication vector is invalid for this operation.
    InvalidReplicationVector(String),
    /// The placement policy could not find enough storage media.
    PlacementFailed(String),
    /// No replica of the block could be read.
    BlockUnavailable(String),
    /// Stored data failed its checksum.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// A storage medium has no room for the block.
    OutOfCapacity(String),
    /// A per-tier quota would be exceeded.
    QuotaExceeded(String),
    /// The referenced worker is not registered or is dead.
    UnknownWorker(String),
    /// The referenced storage medium is not registered.
    UnknownMedia(String),
    /// The referenced storage tier is not configured.
    UnknownTier(String),
    /// The file is open for writing by another client.
    LeaseConflict(String),
    /// Generic invalid-argument error.
    InvalidArgument(String),
    /// The master is not in a state to serve the request (e.g. safe mode).
    NotReady(String),
    /// An underlying OS-level I/O error (message only, to stay `Clone + Eq`).
    Io(String),
    /// Configuration is inconsistent or incomplete.
    Config(String),
    /// Internal invariant violation; indicates a bug.
    Internal(String),
    /// A networked operation did not complete within its deadline.
    Timeout(String),
    /// The remote endpoint could not be reached (refused, reset, or the
    /// connection closed before a response arrived).
    Unreachable(String),
}

impl FsError {
    /// Whether retrying the *same* request against the *same* or another
    /// endpoint can plausibly succeed. Only transport-level failures
    /// qualify: timeouts, unreachable peers, and raw I/O errors. Every
    /// application-level error (namespace, lease, quota, placement, …) is
    /// deterministic for a given cluster state and must surface to the
    /// caller instead of burning the retry budget.
    pub fn is_retryable(&self) -> bool {
        matches!(self, FsError::Timeout(_) | FsError::Unreachable(_) | FsError::Io(_))
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "path not found: {p}"),
            FsError::AlreadyExists(p) => write!(f, "path already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::InvalidReplicationVector(m) => {
                write!(f, "invalid replication vector: {m}")
            }
            FsError::PlacementFailed(m) => write!(f, "placement failed: {m}"),
            FsError::BlockUnavailable(m) => write!(f, "block unavailable: {m}"),
            FsError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:#010x}, got {actual:#010x}")
            }
            FsError::OutOfCapacity(m) => write!(f, "out of capacity: {m}"),
            FsError::QuotaExceeded(m) => write!(f, "quota exceeded: {m}"),
            FsError::UnknownWorker(m) => write!(f, "unknown worker: {m}"),
            FsError::UnknownMedia(m) => write!(f, "unknown media: {m}"),
            FsError::UnknownTier(m) => write!(f, "unknown tier: {m}"),
            FsError::LeaseConflict(m) => write!(f, "lease conflict: {m}"),
            FsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FsError::NotReady(m) => write!(f, "not ready: {m}"),
            FsError::Io(m) => write!(f, "I/O error: {m}"),
            FsError::Config(m) => write!(f, "configuration error: {m}"),
            FsError::Internal(m) => write!(f, "internal error: {m}"),
            FsError::Timeout(m) => write!(f, "timed out: {m}"),
            FsError::Unreachable(m) => write!(f, "unreachable: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<std::io::Error> for FsError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind as K;
        match e.kind() {
            // `WouldBlock` is what a socket read returns when its
            // SO_RCVTIMEO expires on some platforms; both mean "deadline".
            K::TimedOut | K::WouldBlock => FsError::Timeout(e.to_string()),
            K::ConnectionRefused
            | K::ConnectionReset
            | K::ConnectionAborted
            | K::BrokenPipe
            | K::NotConnected => FsError::Unreachable(e.to_string()),
            // A file that ends too soon is cut, not a peer gone away: the
            // socket readers name their own short reads `Unreachable`.
            _ => FsError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path() {
        let e = FsError::NotFound("/a/b".into());
        assert_eq!(e.to_string(), "path not found: /a/b");
    }

    #[test]
    fn checksum_mismatch_is_hex() {
        let e = FsError::ChecksumMismatch { expected: 0xdeadbeef, actual: 0x1 };
        assert!(e.to_string().contains("0xdeadbeef"));
        assert!(e.to_string().contains("0x00000001"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: FsError = io.into();
        assert!(matches!(e, FsError::Io(m) if m.contains("boom")));
    }

    #[test]
    fn io_error_kinds_classify() {
        let timeout: FsError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(timeout, FsError::Timeout(_)));
        let refused: FsError =
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "down").into();
        assert!(matches!(refused, FsError::Unreachable(_)));
        let eof: FsError = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "cut").into();
        assert!(matches!(eof, FsError::Io(_)));
    }

    #[test]
    fn retryability_separates_transport_from_application() {
        assert!(FsError::Timeout("t".into()).is_retryable());
        assert!(FsError::Unreachable("u".into()).is_retryable());
        assert!(FsError::Io("i".into()).is_retryable());
        assert!(!FsError::NotFound("/x".into()).is_retryable());
        assert!(!FsError::LeaseConflict("held".into()).is_retryable());
        assert!(!FsError::PlacementFailed("full".into()).is_retryable());
        assert!(!FsError::ChecksumMismatch { expected: 1, actual: 2 }.is_retryable());
    }
}
