//! `octofs-worker` — an OctopusFS worker daemon: one per node, serving
//! block data and heartbeating to the master (paper §2.2).
//!
//! ```text
//! octofs-worker --master 127.0.0.1:7000 --id 0 [--listen 127.0.0.1:0] \
//!               [--dir PATH] [--capacity BYTES]
//! ```
//!
//! Worker `i` (below 65,536) holds one medium per tier of `--capacity`
//! bytes (default 256 MiB), media ids `3i..3i+2` whatever the cluster's
//! size, and beats at the interval the master answers its join with.
//! With `--dir`, persistent tiers store blocks under that directory and a
//! restarted worker re-reports them.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::common::units::DEFAULT_BLOCK_SIZE;
use octopusfs::core::net::transport::resolve;
use octopusfs::core::net::{node, WorkerNode};
use octopusfs::core::{build_single_worker, StorageMode};
use octopusfs::{ClusterConfig, Result, WorkerId};

const USAGE: &str =
    "octofs-worker --master ADDR --id N [--listen ADDR] [--dir PATH] [--capacity B]";

fn run(args: &[String]) -> Result<()> {
    let mut args = Args::new(USAGE, args);
    let master: String = args.value("--master")?.ok_or_else(|| args.bad("--master is required"))?;
    let master = resolve(&master).ok_or_else(|| args.bad("unresolvable master address"))?;
    // A u16, as the recipe below lists every worker up to this one.
    let id: u16 = args.value("--id")?.ok_or_else(|| args.bad("--id is required"))?;
    let listen = args.value("--listen")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mode = args.value("--dir")?.map_or(StorageMode::InMemory, StorageMode::OnDisk);
    let capacity = args.value("--capacity")?.unwrap_or(256 << 20);
    args.exactly::<0>()?;

    let config = ClusterConfig::test_cluster(u32::from(id) + 1, capacity, DEFAULT_BLOCK_SIZE);
    let id = WorkerId(id.into());
    let worker = build_single_worker(&config, id, &mode)?;
    // Serve, join the master, beat; the peer map is re-fetched from the
    // master with every beat.
    let node = WorkerNode::start(worker, master, listen.as_str(), None)?;
    // The line below is machine-readable: tests and scripts parse it.
    println!("octofs-worker {id} serving on {}", node.addr());
    node::serve(node)
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs-worker", run)
}
