//! `octofs-remote` — a file-system shell against a running
//! `octofs-master`/`octofs-worker` deployment.
//!
//! ```text
//! octofs-remote --master ADDR <mkdir|put|get|cat|ls|rm|mv|setrep|quota|report|
//!                              status|heat|explain-placement|migrations|metrics|perf|trace> [args]
//! ```
//!
//! `quota PATH` prints a directory's per-tier quota and usage; `quota PATH
//! --tier T --bytes N` limits tier slot `T` (0 = memory, 1 = SSD, 2 = HDD)
//! to `N` bytes of pinned replicas, leaving the other tiers as they are;
//! `quota PATH --clear` lifts every limit.
//!
//! `trace read PATH` / `trace write PATH [BYTES]` runs the operation with
//! distributed tracing, prints the assembled critical path, and dumps the
//! full span tree to `results/traces/trace-<id>.jsonl`.
//!
//! `status` prints the live cluster summary (per-tier capacity, per-worker
//! lines, hottest files, per-op metadata latency); `perf [N]` ranks the
//! top-N metadata operations by p99 latency and tabulates master lock
//! wait/hold statistics; `heat PATH` prints one file's access-heat EWMA;
//! `explain-placement BLOCK_ID` replays the audited MOOP decisions for a
//! block, candidate scores included; `migrations [N]` lists the most
//! recent auto-tiering promote/demote decisions.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::net::ToSocketAddrs;
use std::process::ExitCode;

use octopusfs::common::metrics::{HistogramSample, MetricsSnapshot};
use octopusfs::common::units::fmt_bytes;
use octopusfs::core::net::RemoteFs;
use octopusfs::{ClientLocation, FsError, ReplicationVector, Result, TierQuota};

/// The histogram sample carrying `name{op="<op>"}`, if recorded.
fn hist<'s>(snap: &'s MetricsSnapshot, name: &str, op: &str) -> Option<&'s HistogramSample> {
    snap.histograms.iter().find(|h| h.name == name && h.labels.op.as_deref() == Some(op))
}

/// One per-op metadata latency row, joined across the `master_meta_*`
/// series by `op` label.
struct MetaRow {
    count: u64,
    errors: u64,
    p50: u64,
    p99: u64,
    mean: f64,
    wait_p99: u64,
    log_p99: u64,
}

/// Builds the [`MetaRow`] for one op label; `None` for ops never invoked.
fn meta_op_row(snap: &MetricsSnapshot, op: &str) -> Option<MetaRow> {
    let total = hist(snap, "master_meta_op_us", op)?;
    if total.count == 0 {
        return None;
    }
    let errors = snap.counter_where("master_meta_op_errors_total", |l| l.op.as_deref() == Some(op));
    let wait_p99 = hist(snap, "master_meta_op_lock_wait_us", op).map_or(0, |h| h.quantile_us(0.99));
    let log_p99 = hist(snap, "master_meta_op_log_us", op).map_or(0, |h| h.quantile_us(0.99));
    Some(MetaRow {
        count: total.count,
        errors,
        p50: total.quantile_us(0.50),
        p99: total.quantile_us(0.99),
        mean: total.mean_us(),
        wait_p99,
        log_p99,
    })
}

/// Every op name that has a recorded `master_meta_op_us` histogram.
fn meta_op_names(snap: &MetricsSnapshot) -> Vec<String> {
    snap.histograms
        .iter()
        .filter(|h| h.name == "master_meta_op_us" && h.count > 0)
        .filter_map(|h| h.labels.op.clone())
        .collect()
}

fn run(args: &[String]) -> Result<()> {
    let mut master = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--master" {
            master = Some(args[i + 1].clone());
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    let addr = master
        .ok_or_else(|| FsError::InvalidArgument("--master ADDR is required".into()))?
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| FsError::InvalidArgument("unresolvable master address".into()))?;
    let fs = RemoteFs::connect(addr, ClientLocation::OffCluster)?;

    let Some(cmd) = rest.first().cloned() else {
        return Err(FsError::InvalidArgument(
            "usage: octofs-remote --master ADDR \
             <mkdir|put|get|cat|ls|rm|mv|setrep|quota|report|status|heat|\
             explain-placement|migrations|metrics|perf|trace>"
                .into(),
        ));
    };
    let args = &rest[1..];
    match cmd.as_str() {
        "mkdir" => fs.mkdir(args.first().ok_or_else(|| usage("mkdir PATH"))?)?,
        "put" => {
            if args.len() < 2 {
                return Err(usage("put LOCAL PATH [--rv V]"));
            }
            let data = std::fs::read(&args[0])?;
            let rv = if args.len() >= 4 && args[2] == "--rv" {
                args[3]
                    .parse::<ReplicationVector>()
                    .or_else(|_| {
                        args[3].parse::<u8>().map(ReplicationVector::from_replication_factor)
                    })
                    .map_err(|_| usage("bad --rv"))?
            } else {
                ReplicationVector::from_replication_factor(2)
            };
            fs.write_file(&args[1], &data, rv)?;
            println!("wrote {} ({})", args[1], fmt_bytes(data.len() as u64));
        }
        "get" => {
            if args.len() != 2 {
                return Err(usage("get PATH LOCAL"));
            }
            std::fs::write(&args[1], fs.read_file(&args[0])?)?;
        }
        "cat" => {
            let data = fs.read_file(args.first().ok_or_else(|| usage("cat PATH"))?)?;
            std::io::stdout().write_all(&data)?;
        }
        "ls" => {
            for e in fs.list(args.first().map(String::as_str).unwrap_or("/"))? {
                if e.is_dir {
                    println!("d {:>10}  {}", "-", e.name);
                } else {
                    println!("- {:>10}  {}  {}", fmt_bytes(e.len), e.name, e.rv);
                }
            }
        }
        "rm" => {
            let recursive = args.iter().any(|a| a == "-r");
            let path = args.iter().find(|a| *a != "-r").ok_or_else(|| usage("rm [-r] PATH"))?;
            fs.delete(path, recursive)?;
        }
        "mv" => {
            if args.len() != 2 {
                return Err(usage("mv SRC DST"));
            }
            fs.rename(&args[0], &args[1])?;
        }
        "setrep" => {
            if args.len() != 2 {
                return Err(usage("setrep PATH VECTOR"));
            }
            let rv = args[1]
                .parse::<ReplicationVector>()
                .or_else(|_| args[1].parse::<u8>().map(ReplicationVector::from_replication_factor))
                .map_err(|_| usage("bad vector"))?;
            let old = fs.set_replication(&args[0], rv)?;
            println!("replication of {}: {old} -> {rv}", args[0]);
        }
        "metrics" => {
            print!("{}", fs.cluster_metrics_snapshot()?.render_text());
        }
        "perf" => {
            let n: usize = match args.first() {
                Some(s) => s.parse().map_err(|_| usage("perf [N]"))?,
                None => 10,
            };
            let snap = fs.master_metrics_snapshot()?;
            let mut rows: Vec<(String, MetaRow)> = meta_op_names(&snap)
                .into_iter()
                .filter_map(|op| meta_op_row(&snap, &op).map(|r| (op, r)))
                .collect();
            if rows.is_empty() {
                println!("no metadata operations recorded yet");
                return Ok(());
            }
            // Slowest tail first: the contention view, not the volume view.
            rows.sort_by(|a, b| b.1.p99.cmp(&a.1.p99).then_with(|| a.0.cmp(&b.0)));
            println!(
                "{:<22} {:>9} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8}",
                "op", "count", "errors", "p50_us", "p99_us", "mean_us", "wait_p99", "log_p99"
            );
            for (op, r) in rows.iter().take(n) {
                println!(
                    "{op:<22} {:>9} {:>7} {:>8} {:>8} {:>9.1} {:>9} {:>8}",
                    r.count, r.errors, r.p50, r.p99, r.mean, r.wait_p99, r.log_p99
                );
            }
            let mut locks: Vec<(String, String)> = snap
                .counters
                .iter()
                .filter(|c| c.name == "lock_acquire_total")
                .filter_map(|c| Some((c.labels.op.clone()?, c.labels.mode.clone()?)))
                .collect();
            locks.sort();
            if !locks.is_empty() {
                println!();
                println!(
                    "{:<16} {:>4} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11}",
                    "lock",
                    "mode",
                    "acquires",
                    "contended",
                    "wait_p99",
                    "wait_us",
                    "hold_p99",
                    "hold_us"
                );
            }
            for (lock, mode) in locks {
                let by = |name: &str| {
                    snap.counter_where(name, |l| {
                        l.op.as_deref() == Some(&lock) && l.mode.as_deref() == Some(&mode)
                    })
                };
                let sample = |name: &str| {
                    snap.histograms.iter().find(|h| {
                        h.name == name
                            && h.labels.op.as_deref() == Some(&lock)
                            && h.labels.mode.as_deref() == Some(&mode)
                    })
                };
                let wait = sample("lock_wait_us");
                let hold = sample("lock_hold_us");
                println!(
                    "{lock:<16} {mode:>4} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11}",
                    by("lock_acquire_total"),
                    by("lock_contended_total"),
                    wait.map_or(0, |h| h.quantile_us(0.99)),
                    wait.map_or(0, |h| h.sum),
                    hold.map_or(0, |h| h.quantile_us(0.99)),
                    hold.map_or(0, |h| h.sum),
                );
            }
        }
        "trace" => {
            if args.len() < 2 {
                return Err(usage("trace <read PATH | write PATH [BYTES]>"));
            }
            let op = args[0].as_str();
            match op {
                "read" => {
                    let data = fs.read_file(&args[1])?;
                    println!("read {} ({})", args[1], fmt_bytes(data.len() as u64));
                }
                "write" => {
                    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1 << 20);
                    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                    fs.write_file(&args[1], &data, ReplicationVector::from_replication_factor(2))?;
                    println!("wrote {} ({})", args[1], fmt_bytes(n as u64));
                }
                other => return Err(usage(&format!("trace: unknown op {other}"))),
            }
            let snap = fs.cluster_trace_snapshot()?;
            let want = format!("client.{op}_file");
            let trace = snap
                .traces()
                .into_iter()
                .find(|t| t.spans.iter().any(|s| s.name == want))
                .ok_or_else(|| FsError::NotFound("no assembled trace for operation".into()))?;
            print!("{}", trace.critical_path().render());
            std::fs::create_dir_all("results/traces")?;
            let out = format!("results/traces/trace-{}.jsonl", trace.trace_id);
            let dump = octopusfs::common::TraceSnapshot { spans: trace.spans.clone() };
            std::fs::write(&out, dump.to_jsonl())?;
            println!("{} spans ({} nodes) -> {out}", trace.spans.len(), trace.nodes().len());
        }
        "report" => {
            for r in fs.get_storage_tier_reports()? {
                println!(
                    "{:<8} media={:<3} remaining={} ({:.1}%)",
                    r.name,
                    r.stats.num_media,
                    fmt_bytes(r.stats.remaining),
                    r.stats.remaining_fraction() * 100.0
                );
            }
        }
        "status" => {
            let s = fs.cluster_status()?;
            println!(
                "cluster: {} files, {} blocks ({} in flight), scheduled={}{}",
                s.files,
                s.blocks,
                s.in_flight_blocks,
                fmt_bytes(s.scheduled_bytes),
                if s.safe_mode { ", SAFE MODE" } else { "" }
            );
            println!(
                "decisions: {} recorded, {} retained in audit ring",
                s.decisions_recorded, s.decisions_retained
            );
            for t in &s.tiers {
                let used = t.stats.capacity.saturating_sub(t.stats.remaining);
                let pct = if t.stats.capacity > 0 {
                    used as f64 / t.stats.capacity as f64 * 100.0
                } else {
                    0.0
                };
                println!(
                    "tier {:<8} media={:<3} capacity={} used={} ({pct:.1}%)",
                    t.name,
                    t.stats.num_media,
                    fmt_bytes(t.stats.capacity),
                    fmt_bytes(used),
                );
            }
            for w in &s.workers {
                let used: u64 =
                    w.media.iter().map(|m| m.capacity.saturating_sub(m.remaining)).sum();
                let cap: u64 = w.media.iter().map(|m| m.capacity).sum();
                println!(
                    "worker {:<4} rack={} {} conn={} used={}/{} hb={}ms",
                    w.worker.0,
                    w.rack.0,
                    if w.live { "live" } else { "DEAD" },
                    w.nr_conn,
                    fmt_bytes(used),
                    fmt_bytes(cap),
                    s.now_ms.saturating_sub(w.last_heartbeat_ms),
                );
            }
            for h in &s.hot {
                println!(
                    "hot {:<30} score={:.3} reads_ewma={:.2} writes_ewma={:.2}",
                    h.path, h.heat.score, h.heat.reads_ewma, h.heat.writes_ewma
                );
            }
            let snap = fs.master_metrics_snapshot()?;
            let mut ops = meta_op_names(&snap);
            ops.sort();
            for op in ops {
                if let Some(r) = meta_op_row(&snap, &op) {
                    println!(
                        "meta {:<22} count={} errors={} p50={}us p99={}us",
                        op, r.count, r.errors, r.p50, r.p99
                    );
                }
            }
        }
        "quota" => {
            let help = || usage("quota PATH [--tier T --bytes N | --clear]");
            let path = args.first().ok_or_else(help)?;
            match &args[1..] {
                [] => {}
                [clear] if clear == "--clear" => fs.set_quota(path, TierQuota::unlimited())?,
                [tier, t, bytes, n] if tier == "--tier" && bytes == "--bytes" => {
                    let (mut quota, _) = fs.quota_usage(path)?;
                    let limit = quota.per_tier.get_mut(t.parse::<usize>().map_err(|_| help())?);
                    *limit.ok_or_else(help)? = Some(n.parse().map_err(|_| help())?);
                    fs.set_quota(path, quota)?;
                }
                _ => return Err(help()),
            }
            let (quota, usage) = fs.quota_usage(path)?;
            for (t, (limit, used)) in quota.per_tier.iter().zip(usage).enumerate() {
                match limit {
                    Some(limit) => println!("{path} tier {t}: {used} of {limit} bytes"),
                    None if used > 0 => println!("{path} tier {t}: {used} bytes, unlimited"),
                    None => {}
                }
            }
        }
        "heat" => {
            let path = args.first().ok_or_else(|| usage("heat PATH"))?;
            let h = fs.heat(path)?;
            println!(
                "{path}: score={:.3} reads_ewma={:.2} writes_ewma={:.2} \
                 cur_reads={} cur_writes={}",
                h.score, h.reads_ewma, h.writes_ewma, h.cur_reads, h.cur_writes
            );
        }
        "explain-placement" => {
            let id: u64 = args
                .first()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| usage("explain-placement BLOCK_ID"))?;
            let events = fs.explain_placement(octopusfs::common::BlockId(id))?;
            if events.is_empty() {
                println!("no retained decisions for block {id}");
            }
            for e in events {
                let chosen: Vec<String> = e
                    .chosen
                    .iter()
                    .map(|l| format!("w{}:m{}:t{}", l.worker.0, l.media.0, l.tier.0))
                    .collect();
                println!(
                    "#{} t={}ms {} policy={} chosen=[{}]",
                    e.seq,
                    e.when_ms,
                    e.kind.label(),
                    e.policy,
                    chosen.join(", ")
                );
                for r in &e.rounds {
                    let pin = match r.tier_pin {
                        Some(t) => format!("tier {}", t.0),
                        None => "unpinned".to_string(),
                    };
                    println!("  replica {} ({pin}):", r.replica_index);
                    for c in &r.candidates {
                        println!(
                            "    {}w{}:m{}:t{} total={:.6} db={:.4} lb={:.4} ft={:.4} tm={:.4}",
                            if c.chosen { "* " } else { "  " },
                            c.worker.0,
                            c.media.0,
                            c.tier.0,
                            c.total,
                            c.db,
                            c.lb,
                            c.ft,
                            c.tm,
                        );
                    }
                }
            }
        }
        "migrations" => {
            let n: u32 = match args.first() {
                Some(s) => s.parse().map_err(|_| usage("migrations [N]"))?,
                None => 20,
            };
            let events = fs.migrations(n)?;
            if events.is_empty() {
                println!("no retained migration decisions");
            }
            for e in events {
                println!(
                    "#{} t={}ms file={} block={} {}",
                    e.seq, e.when_ms, e.file, e.block, e.policy
                );
            }
        }
        other => return Err(usage(&format!("unknown command {other}"))),
    }
    Ok(())
}

fn usage(msg: &str) -> FsError {
    FsError::InvalidArgument(msg.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            octopus_common::log_error!(target: "octofs-remote", "msg=\"command failed\" err=\"{e}\"");
            ExitCode::FAILURE
        }
    }
}
