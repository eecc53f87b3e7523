//! Task-level execution simulation of Hadoop MapReduce, Spark, and the
//! Pegasus graph-mining system over OctopusFS.
//!
//! The paper's end-to-end experiments (§7.5, §7.6) run *unmodified*
//! analytics platforms over HDFS and OctopusFS and measure workload
//! execution time. The mechanism behind the speedups is entirely in the
//! file system: input blocks land on (and are read from) faster tiers, and
//! chained-job intermediate data benefits the most. This crate reproduces
//! that mechanism with a task-level model:
//!
//! - a **job** is map tasks (one per input block, scheduled with replica
//!   locality onto per-node task slots), a shuffle (all-to-all network
//!   transfers), and reduce tasks (CPU + DFS output write);
//! - **Hadoop** chains jobs through the DFS (job *i*'s output is job
//!   *i+1*'s input) — every hop through OctopusFS benefits;
//! - **Spark** keeps chained intermediate data in executor memory, so only
//!   the initial read and final write touch the DFS — exactly why the
//!   paper observes smaller (but still real) gains for Spark;
//! - **Pegasus** is an iterative Hadoop workload re-reading its graph
//!   input every iteration, with the two §7.6 optimizations (prefetch the
//!   reused dataset into the Memory tier; pin one copy of short-lived
//!   intermediate data in memory) expressed through the real
//!   `setReplication`/creation-time replication-vector APIs.
//!
//! All I/O flows through [`octopus_core::SimCluster`] — the same master,
//! policies, and flow-level contention model as the microbenchmarks.

#![forbid(unsafe_code)]

pub mod engine;
pub mod runner;
pub mod workloads;

pub use engine::{EngineConfig, JobSpec, JobStats, Platform};
pub use runner::{run_hibench, run_pegasus, FsMode, PegasusMode};
pub use workloads::{hibench_workloads, pegasus_workloads, HiBenchWorkload, PegasusWorkload};
