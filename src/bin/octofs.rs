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
//! octofs --root DIR init [--workers N] [--block-size BYTES] [--capacity BYTES]
//! octofs --root DIR mkdir /path
//! octofs --root DIR put LOCAL /path [--rv "<1,0,2>"]
//! octofs --root DIR get /path LOCAL
//! octofs --root DIR cat /path
//! octofs --root DIR ls /path
//! octofs --root DIR rm /path [-r]
//! octofs --root DIR mv /src /dst
//! octofs --root DIR setrep /path "<0,1,2>"
//! octofs --root DIR report
//! octofs --root DIR fsck
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use octopusfs::common::units::fmt_bytes;
use octopusfs::master::EditLog;
use octopusfs::{
    ClientLocation, Cluster, ClusterConfig, FsError, ReplicationVector, Result, StorageMode,
};

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

fn parse_rv(s: &str) -> Result<ReplicationVector> {
    if let Ok(v) = s.parse::<ReplicationVector>() {
        return Ok(v);
    }
    // Also accept a bare replication factor for HDFS compatibility.
    s.parse::<u8>()
        .map(ReplicationVector::from_replication_factor)
        .map_err(|_| FsError::InvalidArgument(format!("bad replication vector {s:?}")))
}

fn usage() -> &'static str {
    "usage: octofs --root DIR <init|mkdir|put|get|cat|ls|rm|mv|append|setrep|report|balance|fsck> [args]\n\
     run `octofs help` for details"
}

fn run(args: &[String]) -> Result<()> {
    let mut it = args.iter().peekable();
    let mut root: Option<PathBuf> = None;
    let mut rest: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                root =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        FsError::InvalidArgument("--root needs a directory".into())
                    })?));
            }
            _ => rest.push(a.clone()),
        }
    }
    let Some(cmd) = rest.first().cloned() else {
        return Err(FsError::InvalidArgument(usage().into()));
    };
    if cmd == "help" {
        println!("{}", usage());
        return Ok(());
    }
    let root = root.ok_or_else(|| FsError::InvalidArgument("--root DIR is required".into()))?;
    let args = &rest[1..];

    match cmd.as_str() {
        "init" => {
            std::fs::create_dir_all(&root)?;
            if Conf::path(&root).exists() {
                return Err(FsError::AlreadyExists(format!(
                    "{} is already initialized",
                    root.display()
                )));
            }
            let mut conf = Conf { workers: 3, block_size: 1 << 20, capacity: 256 << 20 };
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--workers" => {
                        conf.workers = args[i + 1]
                            .parse()
                            .map_err(|_| FsError::InvalidArgument("bad --workers".into()))?;
                        i += 2;
                    }
                    "--block-size" => {
                        conf.block_size = args[i + 1]
                            .parse()
                            .map_err(|_| FsError::InvalidArgument("bad --block-size".into()))?;
                        i += 2;
                    }
                    "--capacity" => {
                        conf.capacity = args[i + 1]
                            .parse()
                            .map_err(|_| FsError::InvalidArgument("bad --capacity".into()))?;
                        i += 2;
                    }
                    a => return Err(FsError::InvalidArgument(format!("unknown flag {a}"))),
                }
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
        "mkdir" => {
            let [path] = args else {
                return Err(FsError::InvalidArgument("mkdir PATH".into()));
            };
            boot(&root)?.client(ClientLocation::OffCluster).mkdir(path)?;
        }
        "put" => {
            if args.len() < 2 {
                return Err(FsError::InvalidArgument("put LOCAL PATH [--rv V]".into()));
            }
            let data = std::fs::read(&args[0])?;
            let mut rv = ReplicationVector::from_replication_factor(2);
            if args.len() >= 4 && args[2] == "--rv" {
                rv = parse_rv(&args[3])?;
            }
            let cluster = boot(&root)?;
            cluster.client(ClientLocation::OffCluster).write_file(&args[1], &data, rv)?;
            println!("wrote {} ({}) with vector {rv}", args[1], fmt_bytes(data.len() as u64));
        }
        "get" => {
            let [path, local] = args else {
                return Err(FsError::InvalidArgument("get PATH LOCAL".into()));
            };
            let data = boot(&root)?.client(ClientLocation::OffCluster).read_file(path)?;
            std::fs::write(local, &data)?;
            println!("copied {path} -> {local} ({})", fmt_bytes(data.len() as u64));
        }
        "cat" => {
            let [path] = args else {
                return Err(FsError::InvalidArgument("cat PATH".into()));
            };
            let data = boot(&root)?.client(ClientLocation::OffCluster).read_file(path)?;
            std::io::stdout().write_all(&data)?;
        }
        "ls" => {
            let path = args.first().map(String::as_str).unwrap_or("/");
            let cluster = boot(&root)?;
            let client = cluster.client(ClientLocation::OffCluster);
            for e in client.list(path)? {
                if e.is_dir {
                    println!("d {:>10}  {}", "-", e.name);
                } else {
                    println!("- {:>10}  {}  {}", fmt_bytes(e.len), e.name, e.rv);
                }
            }
        }
        "rm" => {
            let recursive = args.iter().any(|a| a == "-r");
            let Some(path) = args.iter().find(|a| *a != "-r") else {
                return Err(FsError::InvalidArgument("rm [-r] PATH".into()));
            };
            boot(&root)?.client(ClientLocation::OffCluster).delete(path, recursive)?;
        }
        "mv" => {
            let [src, dst] = args else {
                return Err(FsError::InvalidArgument("mv SRC DST".into()));
            };
            boot(&root)?.client(ClientLocation::OffCluster).rename(src, dst)?;
        }
        "setrep" => {
            let [path, rv] = args else {
                return Err(FsError::InvalidArgument("setrep PATH VECTOR".into()));
            };
            let rv = parse_rv(rv)?;
            let cluster = boot(&root)?;
            let old = cluster.client(ClientLocation::OffCluster).set_replication(path, rv)?;
            // Realize the change before exiting (the process is the
            // replication monitor's only chance to run).
            for _ in 0..4 {
                cluster.run_replication_round()?;
            }
            println!("replication of {path}: {old} -> {rv}");
        }
        "report" => {
            let cluster = boot(&root)?;
            let client = cluster.client(ClientLocation::OffCluster);
            let (files, dirs) = cluster.master().counts();
            println!("{files} files, {dirs} directories");
            for r in client.get_storage_tier_reports()? {
                println!(
                    "{:<8} media={:<3} capacity={:>10} remaining={:>10} ({:.1}%)",
                    r.name,
                    r.stats.num_media,
                    fmt_bytes(r.stats.capacity),
                    fmt_bytes(r.stats.remaining),
                    r.stats.remaining_fraction() * 100.0
                );
            }
        }
        "append" => {
            let [local, path] = args else {
                return Err(FsError::InvalidArgument("append LOCAL PATH".into()));
            };
            let data = std::fs::read(local)?;
            let cluster = boot(&root)?;
            let client = cluster.client(ClientLocation::OffCluster);
            let mut w = client.append(path)?;
            w.write(&data)?;
            w.close()?;
            println!("appended {} to {path}", fmt_bytes(data.len() as u64));
        }
        "balance" => {
            let cluster = boot(&root)?;
            let mut moves = 0;
            for _ in 0..16 {
                let n = cluster.run_balancer_round(0.05, 8)?;
                moves += n;
                if n == 0 {
                    break;
                }
            }
            println!("balance: {moves} replica move(s)");
        }
        "fsck" => {
            let cluster = boot(&root)?;
            let corrupt = cluster.run_scrub_round()?;
            let mut repaired = 0;
            for _ in 0..8 {
                let n = cluster.run_replication_round()?;
                repaired += n;
                if n == 0 {
                    break;
                }
            }
            println!("fsck: {corrupt} corrupt replicas dropped, {repaired} repair tasks run");
        }
        other => {
            return Err(FsError::InvalidArgument(format!("unknown command {other:?}\n{}", usage())))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            octopus_common::log_error!(target: "octofs", "msg=\"command failed\" err=\"{e}\"");
            ExitCode::FAILURE
        }
    }
}
