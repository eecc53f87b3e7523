//! # OctopusFS
//!
//! A distributed file system with tiered storage management — a
//! from-scratch Rust reproduction of the SIGMOD 2017 paper by Kakoulli and
//! Herodotou.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`Cluster`] / [`RemoteFs`]: a real in-process cluster storing actual
//!   bytes, and the one client (the same over TCP) with the paper's
//!   Table 1 API extensions (replication vectors, tier-aware block
//!   locations, storage tier reports);
//! - [`SimCluster`]: the same control plane driven by a flow-level
//!   discrete-event simulator for performance experiments;
//! - [`policies`]: the MOOP placement policy (paper §3), retrieval
//!   ordering (§4), and replica removal (§5), plus every baseline the
//!   evaluation compares against;
//! - [`compute`]: task-level Hadoop/Spark/Pegasus execution simulation for
//!   the end-to-end experiments (§7.5–7.6).
//!
//! [`args`] is the four binaries' one argument parser and [`shell`] the
//! one command table `octofs` and `octofs-remote` both run.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the system inventory and the paper-reproduction
//! index.

#![forbid(unsafe_code)]

pub mod args;
pub mod shell;

pub use octopus_common as common;
pub use octopus_compute as compute;
pub use octopus_core as core;
pub use octopus_master as master;
pub use octopus_policies as policies;
pub use octopus_simnet as simnet;
pub use octopus_storage as storage;

pub use octopus_common::{
    ClientLocation, ClusterConfig, FsError, ReplicationVector, Result, StorageTier,
    StorageTierReport, TierId, WorkerId,
};
pub use octopus_core::{Cluster, FileWriter, RemoteFs, SimCluster, StorageMode};
pub use octopus_master::{Master, TierQuota};
