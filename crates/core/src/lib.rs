//! OctopusFS — a distributed file system with tiered storage management.
//!
//! This crate is the system facade: it assembles the master
//! ([`octopus_master`]), workers ([`octopus_storage`]), and the management
//! policies ([`octopus_policies`]) into a running file system and exposes
//! the client API of the paper's Table 1.
//!
//! One client ([`RemoteFs`]), one worker dispatch and one §5 monitor run
//! over a two-implementation transport seam ([`net::Transport`]):
//!
//! - [`NetCluster`] and the daemons: master and workers behind TCP
//!   servers, real heartbeat threads. On a file log and on-disk stores,
//!   `NetCluster` is the persistent one-process deployment (`octofs`).
//! - [`Cluster`]: the same code in one process over function calls, with a
//!   logical clock — workers store actual bytes (in memory), the client
//!   pipelines real data through them, checksums are verified end to end.
//!   Used by applications, examples, and tests.
//!
//! A third shape keeps only the clock for itself:
//!
//! - [`SimCluster`]: the same code once more, over the same in-process
//!   transport, with time owned by the [`octopus_simnet`] flow simulator —
//!   every transfer becomes a max-min fair flow over calibrated device/NIC
//!   resources, and each state change (commit, heartbeat, §5 copy) is a
//!   request through the seam at the virtual instant its flow completes.
//!   Used by the benchmark harness to reproduce the paper's experiments at
//!   40 GB scale in milliseconds.
//!
//! Reads go through one engine, in the §4 retrieval order with §4.1
//! failover: [`RemoteFs::read_file`] returns a whole file, and
//! [`RemoteFs::read_at`] fills a slice the caller owns from any offset
//! (HDFS's positional read), each with one master RPC.
//!
//! Tier management (§6) is the master's one loop: its auto-tierer promotes
//! hot files into the Memory tier and, when it is full, evicts the least
//! recently touched memory replica ([`Cluster::run_autotier_round`]).
//!
//! # Quickstart
//!
//! ```
//! use octopus_core::Cluster;
//! use octopus_common::{ClusterConfig, ReplicationVector, ClientLocation};
//!
//! let config = ClusterConfig::test_cluster(4, 64 << 20, 1 << 20);
//! let cluster = Cluster::start(config).unwrap();
//! let client = cluster.client(ClientLocation::OffCluster);
//!
//! client.mkdir("/demo").unwrap();
//! // One replica in memory, two on HDDs: the paper's ⟨1,0,2⟩.
//! let rv = ReplicationVector::msh(1, 0, 2);
//! client.write_file("/demo/hello", b"tiered storage!", rv).unwrap();
//! assert_eq!(client.read_file("/demo/hello").unwrap(), b"tiered storage!");
//! // Any range, into a buffer the caller keeps.
//! let mut buf = [0u8; 8];
//! assert_eq!(client.read_at("/demo/hello", 7, &mut buf).unwrap(), 8);
//! assert_eq!(&buf, b"storage!");
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod net;
pub mod sim;
pub mod worker;

pub use cluster::{build_single_worker, Cluster, StorageMode};
pub use net::client::FileWriter;
pub use net::{NetCluster, RemoteFs};
pub use sim::{JobId, JobReport, SimCluster, SimEvent};
pub use worker::Worker;
