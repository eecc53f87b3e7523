//! `octofs` — a command-line shell over a persistent single-process
//! OctopusFS deployment.
//!
//! The deployment lives under a root directory: the master's edit log at
//! `<root>/edits.log`, a small config at `<root>/octofs.conf`, and the
//! persistent-tier block stores under `<root>/worker_<w>/media_<m>/`. Each
//! invocation boots the daemons' own nodes in one process over loopback
//! TCP ([`NetCluster`]: a `MasterNode` replaying the log, one `WorkerNode`
//! per worker on on-disk stores), runs one command and exits. The layout
//! is the daemons' own, so `octofs-master --dir <root>` and one
//! `octofs-worker --dir <root> --id <w>` per worker of the root serve the
//! same root. The Memory tier is volatile by design: memory-resident
//! replicas do not survive between invocations and are re-created from
//! persistent copies by the replication monitor on boot.
//!
//! ```text
//! octofs --root DIR <init|balance|fsck|mkdir|put|get|cat|ls|rm|mv|append|setrep|quota|report|
//!                    status|heat|explain-placement|migrations|metrics|perf|trace> [args]
//! ```
//!
//! `init [--workers N] [--block-size BYTES] [--capacity BYTES]`, `balance`
//! and `fsck` are this binary's own; `balance` and `fsck` run [`monitor`]'s
//! rounds (the functions the master daemon's timers call) over the master
//! node's TCP transport. The rest are [`octopusfs::shell::COMMANDS`], the
//! table `octofs-remote` runs against a daemon deployment (README lists
//! each one's arguments); after `setrep` this binary also runs replication
//! rounds, because the process is the monitor's only chance to.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::common::units::fmt_bytes;
use octopusfs::core::net::{monitor, NetCluster};
use octopusfs::master::EditLog;
use octopusfs::shell::{self, Command};
use octopusfs::{ClientLocation, ClusterConfig, FsError, Result, StorageMode};

fn conf_path(root: &Path) -> PathBuf {
    root.join("octofs.conf")
}

/// Takes out `--workers N --block-size BYTES --capacity BYTES`: the shape
/// `init` records and every boot rebuilds (`ClusterConfig::test_cluster`).
fn shape(args: &mut Args) -> Result<(u32, u64, u64)> {
    Ok((
        args.value("--workers")?.unwrap_or(3),
        args.value("--block-size")?.unwrap_or(1 << 20),
        args.value("--capacity")?.unwrap_or(256 << 20),
    ))
}

/// The configuration of the deployment under `root`. `<root>/octofs.conf`
/// holds the shape flags `init` was given, one `key=value` line each
/// (`block_size=65536` for `--block-size 65536`), and parses as them.
fn load_config(root: &Path) -> Result<ClusterConfig> {
    let body = std::fs::read_to_string(conf_path(root)).map_err(|_| {
        let root = root.display();
        FsError::Config(format!(
            "{root} is not an octofs root (run `octofs --root {root} init` first)"
        ))
    })?;
    let flags: Vec<String> = body
        .lines()
        .filter_map(|line| line.split_once('='))
        .flat_map(|(k, v)| [format!("--{}", k.trim().replace('_', "-")), v.trim().to_string()])
        .collect();
    let (workers, block_size, capacity) = shape(&mut Args::new("octofs.conf", &flags))?;
    Ok(ClusterConfig::test_cluster(workers, capacity, block_size))
}

/// Boots the persistent deployment: replay the edit log, reopen the
/// on-disk stores, join every worker (register, heartbeat, block report)
/// and leave safe mode.
fn boot(root: &Path) -> Result<NetCluster> {
    let config = load_config(root)?;
    let log = EditLog::open(root.join("edits.log"))?;
    let mode = StorageMode::OnDisk(root.to_path_buf());
    let cluster = NetCluster::start_with_mode(config, mode, log)?;
    cluster.master().leave_safe_mode();
    Ok(cluster)
}

/// One §5 replication round, then a heartbeat from every worker.
fn repair(cluster: &NetCluster) -> Result<usize> {
    let attempted = cluster.run_replication_round()?.attempted;
    cluster.beat();
    Ok(attempted)
}

/// Runs `round` until one finds nothing to do, `max` times at most; the
/// sum of what they did.
fn settle(max: usize, round: impl Fn() -> Result<usize>) -> Result<usize> {
    let mut total = 0;
    for _ in 0..max {
        match round()? {
            0 => break,
            n => total += n,
        }
    }
    Ok(total)
}

fn run(args: &[String]) -> Result<()> {
    let usage = format!("octofs --root DIR <init|balance|fsck|{}> [args]", shell::names());
    let mut args = Args::new(usage.as_str(), args);
    let root: Option<PathBuf> = args.value("--root")?;
    let rest = args.rest();
    let (cmd, rest) = rest.split_first().ok_or_else(|| args.bad("no command given"))?;
    if cmd == "help" {
        println!("usage: {usage}");
        return Ok(());
    }
    let root = root.ok_or_else(|| args.bad("--root DIR is required"))?;

    match cmd.as_str() {
        "init" => {
            let mut flags =
                Args::new("init [--workers N] [--block-size BYTES] [--capacity BYTES]", rest);
            let (workers, block_size, capacity) = shape(&mut flags)?;
            flags.exactly::<0>()?;
            std::fs::create_dir_all(&root)?;
            if conf_path(&root).exists() {
                let root = root.display();
                return Err(FsError::AlreadyExists(format!("{root} is already initialized")));
            }
            let body = format!("workers={workers}\nblock_size={block_size}\ncapacity={capacity}\n");
            std::fs::write(conf_path(&root), body)?;
            boot(&root)?; // creates the edit log and store directories
            let (root, block_size) = (root.display(), fmt_bytes(block_size));
            println!("initialized octofs at {root} ({workers} workers, {block_size} blocks)");
        }
        "balance" => {
            let cluster = boot(&root)?;
            let moves = settle(16, || {
                let (master, net) = (cluster.master(), cluster.transport());
                monitor::run_balancer_round(master, net, 0.05, 8, || cluster.beat())
            })?;
            println!("balance: {moves} replica move(s)");
        }
        "fsck" => {
            let cluster = boot(&root)?;
            let corrupt = cluster.run_scrub_round()?.corrupt_total();
            let repaired = settle(8, || repair(&cluster))?;
            println!("fsck: {corrupt} corrupt replicas dropped, {repaired} repair tasks run");
        }
        _ => {
            let command = Command::find(cmd)
                .ok_or_else(|| args.bad(format_args!("unknown command {cmd:?}")))?;
            let cluster = boot(&root)?;
            command.run(&cluster.client(ClientLocation::OffCluster), rest)?;
            if cmd == "setrep" {
                // Realize the change before exiting (the process is the
                // replication monitor's only chance to run).
                settle(4, || repair(&cluster))?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs", run)
}
