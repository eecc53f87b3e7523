//! `octofs` — a command-line shell over a persistent single-process
//! OctopusFS instance.
//!
//! The instance lives under a root directory: the master's edit log at
//! `<root>/edits.log`, a small config at `<root>/octofs.conf`, and the
//! persistent-tier block stores under `<root>/worker_*/media_*/`. The
//! Memory tier is volatile by design: memory-resident replicas do not
//! survive between invocations and are re-created from persistent copies
//! by the replication monitor on boot.
//!
//! ```text
//! octofs --root DIR <init|balance|fsck|mkdir|put|get|cat|ls|rm|mv|append|setrep|quota|report|
//!                    status|heat|explain-placement|migrations|metrics|perf|trace> [args]
//! ```
//!
//! `init [--workers N] [--block-size BYTES] [--capacity BYTES]`, `balance`
//! and `fsck` need the in-process cluster and are this binary's own. The
//! rest are [`octopusfs::shell::COMMANDS`], the table `octofs-remote` runs
//! against a daemon deployment (README lists each one's arguments); after
//! `setrep` this binary also runs replication rounds, because the process
//! is the monitor's only chance to.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::common::units::fmt_bytes;
use octopusfs::master::EditLog;
use octopusfs::shell::{self, Command};
use octopusfs::{ClientLocation, Cluster, ClusterConfig, FsError, Result, StorageMode};

struct Conf {
    workers: u32,
    block_size: u64,
    capacity: u64,
}

impl Conf {
    fn path(root: &Path) -> PathBuf {
        root.join("octofs.conf")
    }

    fn save(&self, root: &Path) -> Result<()> {
        let body = format!(
            "workers={}\nblock_size={}\ncapacity={}\n",
            self.workers, self.block_size, self.capacity
        );
        std::fs::write(Self::path(root), body)?;
        Ok(())
    }

    fn load(root: &Path) -> Result<Conf> {
        let body = std::fs::read_to_string(Self::path(root)).map_err(|_| {
            FsError::Config(format!(
                "{} is not an octofs root (run `octofs --root {} init` first)",
                root.display(),
                root.display()
            ))
        })?;
        let mut c = Conf { workers: 3, block_size: 1 << 20, capacity: 256 << 20 };
        for line in body.lines() {
            let Some((k, v)) = line.split_once('=') else { continue };
            let v: u64 = v
                .trim()
                .parse()
                .map_err(|e| FsError::Config(format!("bad config line {line:?}: {e}")))?;
            match k.trim() {
                "workers" => c.workers = v as u32,
                "block_size" => c.block_size = v,
                "capacity" => c.capacity = v,
                _ => {}
            }
        }
        Ok(c)
    }

    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::test_cluster(self.workers, self.capacity, self.block_size)
    }
}

/// Boots the persistent instance: replay the edit log, reopen the on-disk
/// stores, block-report to leave safe mode, and heal volatile replicas.
fn boot(root: &Path) -> Result<Cluster> {
    let conf = Conf::load(root)?;
    let log = EditLog::open(root.join("edits.log"))?;
    let cluster = Cluster::start_with_log(
        conf.cluster_config(),
        StorageMode::OnDisk(root.to_path_buf()),
        log,
    )?;
    cluster.master().leave_safe_mode();
    Ok(cluster)
}

/// Runs `round` until one finds nothing to do, `max` times at most; the
/// sum of what they did.
fn settle(max: usize, round: impl Fn() -> Result<usize>) -> Result<usize> {
    let mut total = 0;
    for _ in 0..max {
        let n = round()?;
        total += n;
        if n == 0 {
            break;
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
            let (workers, block_size, capacity) = flags.shape()?;
            let conf = Conf { workers, block_size, capacity };
            flags.exactly::<0>()?;
            std::fs::create_dir_all(&root)?;
            if Conf::path(&root).exists() {
                return Err(FsError::AlreadyExists(format!(
                    "{} is already initialized",
                    root.display()
                )));
            }
            conf.save(&root)?;
            boot(&root)?; // creates the edit log and store directories
            println!(
                "initialized octofs at {} ({} workers, {} blocks)",
                root.display(),
                conf.workers,
                fmt_bytes(conf.block_size)
            );
        }
        "balance" => {
            let cluster = boot(&root)?;
            let moves = settle(16, || cluster.run_balancer_round(0.05, 8))?;
            println!("balance: {moves} replica move(s)");
        }
        "fsck" => {
            let cluster = boot(&root)?;
            let corrupt = cluster.run_scrub_round()?;
            let repaired = settle(8, || cluster.run_replication_round())?;
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
                settle(4, || cluster.run_replication_round())?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs", run)
}
