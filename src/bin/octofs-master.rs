//! `octofs-master` — the OctopusFS master daemon.
//!
//! Serves the RPC protocol on a TCP address; workers started with
//! `octofs-worker` register against it, and clients use `octofs-remote`
//! (or [`octopusfs::core::net::RemoteFs`]).
//!
//! ```text
//! octofs-master --listen 127.0.0.1:7000 [--dir PATH] [--block-size BYTES] \
//!               [--heartbeat-ms MS] [--autotier-bps B]
//! ```
//!
//! With `--dir`, a restarted master replays its edit log `PATH/edits.log`
//! (without it, a restart forgets the namespace) and the workers rejoin on
//! their next heartbeat. `PATH` may be a root `octofs --root PATH init`
//! made, served with `octofs-worker --dir PATH`.
//!
//! The master takes only cluster-wide settings and learns each worker
//! (rack, NIC, media) from its join and heartbeats. It answers every join
//! with `--heartbeat-ms` (default 1000), so the workers beat at the
//! interval its failure detector expects. Every four intervals its one
//! background §5 round heals under- and over-replication. `--autotier-bps`
//! makes that round an auto-tiering round (DESIGN.md §10): it classifies
//! files by access heat (EWMA thresholds), promotes/demotes them across
//! tiers, and caps every background copy, repairs included, at B
//! bytes/sec (0 = unpaced).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use octopusfs::args::Args;
use octopusfs::core::net::{node, MasterNode};
use octopusfs::master::{AutoTierConfig, EditLog, Master};
use octopusfs::policies::{EwmaThresholdClassifier, TierClassifier};
use octopusfs::{ClusterConfig, Result};

const USAGE: &str = "octofs-master --listen ADDR [--dir PATH] [--block-size B] \
                     [--heartbeat-ms MS] [--autotier-bps B]";

fn run(args: &[String]) -> Result<()> {
    let mut args = Args::new(USAGE, args);
    let listen = args.value("--listen")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let dir: Option<PathBuf> = args.value("--dir")?;
    let block_size = args.value("--block-size")?.unwrap_or(1 << 20);
    let heartbeat_ms = args.value("--heartbeat-ms")?.unwrap_or(1000u64);
    let autotier_bps = args.value::<u64>("--autotier-bps")?;
    args.exactly::<0>()?;

    let config = ClusterConfig { heartbeat_ms, ..ClusterConfig::test_cluster(0, 0, block_size) };
    let log = match dir {
        Some(dir) => {
            std::fs::create_dir_all(&dir)?;
            EditLog::open(dir.join("edits.log"))?
        }
        None => EditLog::in_memory(),
    };
    let mut node = MasterNode::start(Arc::new(Master::with_log(config, log)?), listen.as_str())?;
    // The line below is machine-readable: tests and scripts parse it.
    println!("octofs-master listening on {}", node.addr());

    let tiering = autotier_bps.map(|max_copy_bps| {
        let classifier: Arc<dyn TierClassifier> = Arc::new(EwmaThresholdClassifier::default());
        (classifier, AutoTierConfig { max_copy_bps, ..AutoTierConfig::default() })
    });
    node.start_rounds(tiering)?;
    node::serve(node)
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs-master", run)
}
