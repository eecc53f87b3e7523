//! The request protocol and everything written against it: the shape the
//! paper's system actually runs in (§2: clients talk to the master for
//! metadata and stream block data through worker-to-worker pipelines),
//! over TCP with a hand-rolled RPC protocol — or, for the in-process
//! [`crate::Cluster`], over function calls behind the same [`transport`]
//! seam.
//!
//! - [`transport`]: the [`Transport`] trait — deliver a request to the
//!   master, deliver a request to worker *W* — with its TCP and local
//!   implementations;
//! - [`proto`]: request/response message types over the
//!   [`octopus_common::wire`] codec, each encoded as a
//!   [`frame::FramePayload`] whose body, if any, is its bulk field;
//! - [`frame`]: length-prefixed message framing over a TCP stream — the
//!   multiplexed `[len][request id][payload]` form every RPC uses, or
//!   `[len][request id][body len][head][body]` for a message with a bulk
//!   field — with a body received into a buffer of exactly its length
//!   from the process-wide buffer pool (`bufpool`: one free list per size
//!   class, `pooled ≤ lent`);
//! - [`server`]: [`server::ServerCore`], the shared multiplexed server
//!   runtime — a blocking bounded accept thread and per-connection demux
//!   readers (which also enforce the in-flight cap and the idle horizon)
//!   feeding a dispatch pool (threads started as jobs need them, one
//!   parked thread woken per job) with admission by pipeline depth;
//! - [`master_server`] / [`worker_server`]: the master and worker request
//!   dispatchers mounted on that core, around the existing
//!   [`octopus_master::Master`] and [`crate::Worker`];
//! - [`client`]: [`RemoteFs`], the one client — the Table 1 API, the
//!   windowed write pipeline with recovery (§3.1) and read failover
//!   (§4.1);
//! - [`monitor`]: the one §5 executor (replication, scrub, balance and
//!   paced migration rounds, and [`monitor::run_round`], the round a
//!   `RunRound` request asks the master node for);
//! - [`node`]: the one node lifecycle — [`WorkerNode`] (data server,
//!   join, periodic beat) and [`MasterNode`] (RPC server, its transport,
//!   its one background §5 loop once started) — that `octofs-worker`,
//!   `octofs-master` and [`NetCluster`] all run;
//! - [`cluster`]: [`NetCluster`], a master node and N worker nodes on
//!   loopback ports;
//! - [`rpc`]: [`RpcClient`], the multiplexing, deadline-bounded transport
//!   every networked call goes through — few connections per peer, an
//!   in-flight map keyed by request id, and absolute per-call deadlines;
//! - `retry`: the one retry loop, which both transports run;
//! - [`faults`]: deterministic fault injection at the servers' response
//!   boundary, driving the failover test suite.

pub mod backup;
mod bufpool;
pub mod client;
pub mod cluster;
pub mod faults;
pub mod frame;
pub mod master_server;
pub mod monitor;
pub mod node;
pub mod proto;
mod retry;
pub mod rpc;
pub mod server;
pub mod transport;
pub mod worker_server;

pub use backup::NetBackup;
pub use client::RemoteFs;
pub use cluster::NetCluster;
pub use faults::FaultAction;
pub use master_server::MasterServer;
pub use monitor::{MigrationRound, ReplicationOutcome, Round, ScrubRound, ScrubStatus};
pub use node::{MasterNode, WorkerNode};
pub use rpc::RpcClient;
pub use transport::{LocalTransport, TcpTransport, Transport};
pub use worker_server::WorkerServer;
