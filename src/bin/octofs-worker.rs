//! `octofs-worker` — an OctopusFS worker daemon: one per node, serving
//! block data and heartbeating to the master (paper §2.2).
//!
//! ```text
//! octofs-worker --master 127.0.0.1:7000 --id 0 --workers 3 \
//!               [--listen 127.0.0.1:0] [--dir PATH] \
//!               [--block-size BYTES] [--capacity BYTES] [--heartbeat-ms MS]
//! ```
//!
//! `--workers/--block-size/--capacity` must match the master's flags.
//! With `--dir`, persistent tiers store blocks under that directory and a
//! restarted worker re-reports them.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::core::net::transport::resolve;
use octopusfs::core::net::{node, WorkerNode};
use octopusfs::core::{build_single_worker, StorageMode};
use octopusfs::{ClusterConfig, Result, WorkerId};

const USAGE: &str = "octofs-worker --master ADDR --id N --workers N [--listen ADDR] [--dir PATH] \
                     [--block-size B] [--capacity B] [--heartbeat-ms MS]";

fn run(args: &[String]) -> Result<()> {
    let mut args = Args::new(USAGE, args);
    let master: String = args.value("--master")?.ok_or_else(|| args.bad("--master is required"))?;
    let master = resolve(&master).ok_or_else(|| args.bad("unresolvable master address"))?;
    let id = args.value("--id")?.map(WorkerId).ok_or_else(|| args.bad("--id is required"))?;
    let (workers, block_size, capacity) = args.shape()?;
    let listen = args.value("--listen")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mode = args.value("--dir")?.map_or(StorageMode::InMemory, StorageMode::OnDisk);
    let heartbeat_ms = args.value("--heartbeat-ms")?.unwrap_or(1000u64);
    args.exactly::<0>()?;

    let config = ClusterConfig::test_cluster(workers, capacity, block_size);
    let worker = build_single_worker(&config, id, &mode)?;
    // Serve, join the master, beat; the peer map is re-fetched from the
    // master with every beat.
    let node = WorkerNode::start(worker, master, listen.as_str(), None, heartbeat_ms)?;
    // The line below is machine-readable: tests and scripts parse it.
    println!("octofs-worker {id} serving on {}", node.addr());
    node::serve(node)
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs-worker", run)
}
