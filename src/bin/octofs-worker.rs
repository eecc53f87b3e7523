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

use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use octopusfs::core::net::worker_server::{self, AddressMap, WorkerServer};
use octopusfs::core::net::{rpc, TcpTransport};
use octopusfs::core::{build_single_worker, StorageMode};
use octopusfs::{ClusterConfig, FsError, Result, WorkerId};

fn run(args: &[String]) -> Result<()> {
    let mut master = None;
    let mut id = None;
    let mut workers = 3u32;
    let mut listen = "127.0.0.1:0".to_string();
    let mut dir = None;
    let mut block_size = 1u64 << 20;
    let mut capacity = 256u64 << 20;
    let mut heartbeat_ms = 1000u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--master" => {
                master = Some(args[i + 1].clone());
                i += 2;
            }
            "--id" => {
                id = Some(args[i + 1].parse::<u32>().map_err(|_| bad("--id"))?);
                i += 2;
            }
            "--workers" => {
                workers = args[i + 1].parse().map_err(|_| bad("--workers"))?;
                i += 2;
            }
            "--listen" => {
                listen = args[i + 1].clone();
                i += 2;
            }
            "--dir" => {
                dir = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--block-size" => {
                block_size = args[i + 1].parse().map_err(|_| bad("--block-size"))?;
                i += 2;
            }
            "--capacity" => {
                capacity = args[i + 1].parse().map_err(|_| bad("--capacity"))?;
                i += 2;
            }
            "--heartbeat-ms" => {
                heartbeat_ms = args[i + 1].parse().map_err(|_| bad("--heartbeat-ms"))?;
                i += 2;
            }
            a => return Err(bad(a)),
        }
    }
    let master_addr = master
        .ok_or_else(|| bad("--master is required"))?
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| FsError::InvalidArgument("unresolvable master address".into()))?;
    let id = WorkerId(id.ok_or_else(|| bad("--id is required"))?);

    let config = ClusterConfig::test_cluster(workers, capacity, block_size);
    let mode = match dir {
        Some(d) => StorageMode::OnDisk(d),
        None => StorageMode::InMemory,
    };
    let worker = build_single_worker(&config, id, &mode)?;

    // Peer map, refreshed from the master on every heartbeat.
    let peers = AddressMap::default();
    let server =
        WorkerServer::spawn_on(Arc::clone(&worker), master_addr, Arc::clone(&peers), &*listen)?;
    println!("octofs-worker {} serving on {}", id, server.addr());

    // Register, heartbeat and report blocks, then heartbeat forever.
    let net = TcpTransport::new(master_addr, peers, Arc::clone(rpc::shared()));
    worker_server::join(&worker, &net, unix_ms(), server.addr().to_string())?;

    let mut beats = 0u64;
    loop {
        let _ = net.refresh_workers();
        std::thread::sleep(std::time::Duration::from_millis(heartbeat_ms));
        beats += 1;
        worker_server::beat(&worker, &net, unix_ms(), beats);
    }
}

/// Heartbeat stamp: UNIX-epoch milliseconds. The master's failure detector
/// compares stamps from different worker processes, so they must share a
/// time base — a per-process epoch makes every later-started worker look
/// long dead to the earlier ones' heartbeats.
fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

fn bad(flag: &str) -> FsError {
    FsError::InvalidArgument(format!(
        "bad or unknown flag {flag}; usage: octofs-worker --master ADDR --id N --workers N \
         [--listen ADDR] [--dir PATH] [--block-size B] [--capacity B] [--heartbeat-ms MS]"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            octopus_common::log_error!(target: "octofs-worker", "msg=\"startup failed\" err=\"{e}\"");
            ExitCode::FAILURE
        }
    }
}
