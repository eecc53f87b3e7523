//! `octofs-master` — the OctopusFS master daemon.
//!
//! Serves the RPC protocol on a TCP address; workers started with
//! `octofs-worker` register against it, and clients use `octofs-remote`
//! (or [`octopusfs::core::net::RemoteFs`]).
//!
//! ```text
//! octofs-master --listen 127.0.0.1:7000 --workers 3 \
//!               [--block-size BYTES] [--capacity BYTES] [--heartbeat-ms MS] \
//!               [--autotier-ms MS] [--autotier-bps B]
//! ```
//!
//! The `--workers/--block-size/--capacity` trio defines the expected
//! cluster shape (three tiers per worker, as `ClusterConfig::test_cluster`
//! lays out); every `octofs-worker` must be started with the same values
//! so that media identities agree. `--autotier-ms` enables the
//! auto-tiering daemon (DESIGN.md §10): every MS milliseconds a paced
//! migration round classifies files by access heat (EWMA thresholds)
//! and promotes/demotes them across tiers, with background copies
//! capped at `--autotier-bps` bytes/sec (default 64 MB/s; 0 = unpaced).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use octopusfs::core::net::{monitor, rpc, MasterServer, TcpTransport};
use octopusfs::master::Master;
use octopusfs::{ClusterConfig, Result};

fn run(args: &[String]) -> Result<()> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut workers = 3u32;
    let mut block_size = 1u64 << 20;
    let mut capacity = 256u64 << 20;
    let mut heartbeat_ms = 1000u64;
    let mut autotier_ms = 0u64;
    let mut autotier_bps: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                listen = args[i + 1].clone();
                i += 2;
            }
            "--workers" => {
                workers = args[i + 1].parse().map_err(|_| bad("--workers"))?;
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
            "--autotier-ms" => {
                autotier_ms = args[i + 1].parse().map_err(|_| bad("--autotier-ms"))?;
                i += 2;
            }
            "--autotier-bps" => {
                autotier_bps = Some(args[i + 1].parse().map_err(|_| bad("--autotier-bps"))?);
                i += 2;
            }
            a => return Err(bad(a)),
        }
    }
    let mut config = ClusterConfig::test_cluster(workers, capacity, block_size);
    config.heartbeat_ms = heartbeat_ms;
    let master = Arc::new(Master::new(config)?);
    let server = MasterServer::spawn_on(Arc::clone(&master), listen.as_str())?;
    // The line below is machine-readable: tests and scripts parse it.
    println!("octofs-master listening on {}", server.addr());
    // How this process's §5 rounds reach the workers that registered.
    let net = TcpTransport::new(
        server.addr(),
        Arc::clone(&server.state().peers),
        Arc::clone(rpc::shared()),
    );

    // Auto-tiering daemon (DESIGN.md §10): opt-in paced migration rounds
    // (EWMA classification → vector edits → bandwidth-capped copies).
    if autotier_ms > 0 {
        let master = Arc::clone(&master);
        let net = net.clone();
        let cfg = octopusfs::master::AutoTierConfig {
            max_copy_bps: autotier_bps
                .unwrap_or(octopusfs::master::AutoTierConfig::default().max_copy_bps),
            ..octopusfs::master::AutoTierConfig::default()
        };
        std::thread::Builder::new()
            .name("octofs-autotier".into())
            .spawn(move || {
                let classifier = octopusfs::policies::EwmaThresholdClassifier::default();
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(autotier_ms));
                    if let Err(e) = monitor::run_migration_round(&master, &net, &classifier, &cfg) {
                        octopus_common::log_warn!(
                            target: "octofs-master",
                            "msg=\"migration round failed\" err=\"{e}\""
                        );
                    }
                }
            })
            .expect("spawn autotier thread");
    }

    // Replication monitor (§5): periodically heal under/over-replication
    // by RPC-ing the workers.
    let interval = std::time::Duration::from_millis(heartbeat_ms * 4);
    loop {
        std::thread::sleep(interval);
        let _ = monitor::run_replication_round(&master, &net);
    }
}

fn bad(flag: &str) -> octopusfs::FsError {
    octopusfs::FsError::InvalidArgument(format!(
        "bad or unknown flag {flag}; usage: octofs-master --listen ADDR --workers N \
         [--block-size B] [--capacity B] [--heartbeat-ms MS] [--autotier-ms MS] \
         [--autotier-bps B]"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            octopus_common::log_error!(target: "octofs-master", "msg=\"startup failed\" err=\"{e}\"");
            ExitCode::FAILURE
        }
    }
}
