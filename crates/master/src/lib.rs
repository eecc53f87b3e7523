//! The OctopusFS master (paper §2.1).
//!
//! The master maintains the two metadata collections of the paper — the
//! *directory namespace* and the *block locations* — plus the cluster
//! statistics that feed the data-management policies:
//!
//! - [`autotier`]: configuration and decision records for the automated
//!   tiering planner ([`Master::autotier_scan`](master::Master::autotier_scan));
//! - [`namespace`]: the inode tree with files, directories, per-file
//!   replication vectors, and per-tier directory quotas;
//! - [`editlog`]: a durable, self-describing binary log of namespace
//!   mutations, with checkpointing for the backup master;
//! - [`blockmap`]: block → replica-location mapping with per-tier
//!   replication accounting; a pending location is its medium's write
//!   reservation;
//! - [`cluster`]: registered workers, heartbeat statistics, and liveness
//!   tracking;
//! - [`master`]: the [`Master`] facade tying everything together behind the
//!   client-facing API (Table 1), including the replication monitor (§5);
//! - [`backup`]: the backup master that tails the edit log, keeps an
//!   up-to-date namespace image, and produces checkpoints.

#![forbid(unsafe_code)]

pub mod autotier;
pub mod backup;
pub mod blockmap;
pub mod cluster;
pub mod editlog;
pub mod lease;
pub mod master;
pub mod namespace;

pub use autotier::{AutoTierConfig, MigrationDecision, MigrationDirection};
pub use backup::BackupMaster;
pub use blockmap::{BlockInfo, BlockMap};
pub use cluster::{ClusterState, WorkerInfo};
pub use editlog::{EditLog, EditOp, GroupCommitLog};
pub use lease::{ClientId, LeaseManager};
pub use master::{Master, ReplicationTask};
pub use namespace::{Cursor, DirEntry, FileStatus, Namespace, TierQuota};
