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
//! replicas do not survive between invocations; `fsck` re-creates them
//! from the persistent copies.
//!
//! ```text
//! octofs --root DIR <init|mkdir|put|get|cat|ls|rm|mv|append|setrep|quota|report|balance|fsck|
//!                    status|heat|explain-placement|migrations|metrics|perf|trace> [args]
//! ```
//!
//! `init [--workers N] [--block-size BYTES] [--capacity BYTES]` is this
//! binary's own. The rest are [`octopusfs::shell::COMMANDS`], the table
//! `octofs-remote` runs against a daemon deployment (README lists each
//! one's arguments); `balance`, `fsck` and `setrep`'s wait are rounds the
//! master node runs on request, here as there.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::common::units::fmt_bytes;
use octopusfs::core::net::NetCluster;
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

/// The cluster of a shape, refused as boot would refuse it or if it stores nothing.
fn cluster_of((workers, block_size, capacity): (u32, u64, u64)) -> Result<ClusterConfig> {
    if workers == 0 {
        return Err(FsError::Config("cluster has no workers".into()));
    }
    if capacity == 0 {
        return Err(FsError::Config("--capacity 0 leaves every medium without space".into()));
    }
    let config = ClusterConfig::test_cluster(workers, capacity, block_size);
    config.validate()?;
    Ok(config)
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
    cluster_of(shape(&mut Args::new("octofs.conf", &flags))?)
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

fn run(args: &[String]) -> Result<()> {
    let usage = format!("octofs --root DIR <init|{}> [args]", shell::names());
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
            cluster_of((workers, block_size, capacity))?;
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
        _ => {
            let command = Command::find(cmd)
                .ok_or_else(|| args.bad(format_args!("unknown command {cmd:?}")))?;
            let cluster = boot(&root)?;
            command.run(&cluster.client(ClientLocation::OffCluster), rest)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs", run)
}
