//! Shared foundation types for OctopusFS.
//!
//! This crate defines the vocabulary every other OctopusFS crate speaks:
//! storage tiers, the 64-bit [`ReplicationVector`] from the paper's API
//! extensions (§2.3), where workers and clients sit (racks), the
//! statistics that workers report to the master via heartbeats, block
//! metadata, checksums, configuration, and errors.
//!
//! Nothing in this crate performs I/O; it is pure data and arithmetic, which
//! keeps it trivially testable and lets the policy crate stay free of any
//! dependency on the running system.
//!
//! The workspace's only `unsafe` is here, in one private module of
//! [`checksum`] (a call into a function compiled for CPU features detected
//! at run time); every other crate is `#![forbid(unsafe_code)]`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod audit;
pub mod block;
pub mod checksum;
pub mod config;
pub mod error;
pub mod fstypes;
pub mod heat;
pub mod ids;
pub mod lockstat;
pub mod log;
pub mod metrics;
pub mod repvector;
pub mod stats;
pub mod status;
pub mod tier;
pub mod topology;
pub mod trace;
pub mod units;
pub mod wire;

pub use audit::{AuditRing, CandidateScore, DecisionEvent, DecisionKind, DecisionRound, EventRef};
pub use block::{Block, BlockData, LocatedBlock, Location};
pub use config::{
    ClusterConfig, MediaConfig, RpcConfig, ServerConfig, WorkerConfig, DEFAULT_IO_WINDOW,
};
pub use error::{FsError, Result};
pub use fstypes::{DirEntry, FileStatus};
pub use heat::{BlockTouches, HeatInfo, HeatRecorder, HeatTracker};
pub use ids::{BlockId, GenStamp, INodeId, IdGenerator, MediaId, WorkerId};
pub use lockstat::{LockStats, StatMutex, StatRwLock};
pub use log::Level;
pub use metrics::{
    BucketLayout, Counter, Gauge, GaugeGuard, Histogram, Labels, MetricsRegistry, MetricsSnapshot,
    OwnedLabels,
};
pub use repvector::{ReplicationVector, VectorDiff};
pub use stats::{MediaStats, StorageTierReport, TierStats, WorkerStats};
pub use status::{ClusterStatusReport, HotFile, WorkerStatusLine};
pub use tier::{StorageTier, TierId, TierRegistry, MAX_REPLICATION, MAX_TIERS, UNSPECIFIED_SLOT};
pub use topology::{ClientLocation, RackId};
pub use trace::{
    CriticalPath, SpanGuard, SpanId, SpanRecord, Trace, TraceCollector, TraceContext, TraceId,
    TraceSnapshot,
};
pub use units::{DEFAULT_BLOCK_SIZE, GB, KB, MB, TB};
