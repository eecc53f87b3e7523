//! The file-system shell, written once: every command `octofs` and
//! `octofs-remote` share, as one table over [`RemoteFs`]. Both run it over
//! TCP, `octofs` against the one-process deployment it boots and
//! `octofs-remote` against the daemons, so they differ only in how they
//! come by a client and in `octofs`'s own `init`. `balance`, `fsck` and
//! the wait after `setrep` are §5 rounds the master node runs, one per
//! request ([`RemoteFs::run_round`]).

use std::io::{self, Write};

use crate::args::Args;
use crate::common::metrics::{HistogramSample, MetricsSnapshot};
use crate::common::units::fmt_bytes;
use crate::common::{BlockId, TraceSnapshot};
use crate::core::net::Round;
use crate::{FsError, RemoteFs, ReplicationVector, Result, TierQuota};

/// One shell command.
pub struct Command {
    /// What the user types.
    pub name: &'static str,
    /// Its arguments, as the usage line shows them.
    pub args: &'static str,
    run: fn(&RemoteFs, Args, &mut Vec<u8>) -> Result<()>,
}

/// Every command of the shared shell, in the order usage lists them.
pub const COMMANDS: &[Command] = &[
    Command { name: "mkdir", args: "PATH", run: mkdir },
    Command { name: "put", args: "LOCAL PATH [--rv V]", run: put },
    Command { name: "get", args: "PATH LOCAL", run: get },
    Command { name: "cat", args: "PATH", run: cat },
    Command { name: "ls", args: "[PATH]", run: ls },
    Command { name: "rm", args: "[-r] PATH", run: rm },
    Command { name: "mv", args: "SRC DST", run: mv },
    Command { name: "append", args: "LOCAL PATH", run: append },
    Command { name: "setrep", args: "PATH VECTOR", run: setrep },
    Command { name: "quota", args: "PATH [--tier T --bytes N | --clear]", run: quota },
    Command { name: "report", args: "", run: report },
    Command { name: "balance", args: "", run: balance },
    Command { name: "fsck", args: "", run: fsck },
    Command { name: "status", args: "", run: status },
    Command { name: "heat", args: "PATH", run: heat },
    Command { name: "explain-placement", args: "BLOCK_ID", run: explain_placement },
    Command { name: "migrations", args: "[N]", run: migrations },
    Command { name: "metrics", args: "", run: metrics },
    Command { name: "perf", args: "[N]", run: perf },
    Command { name: "trace", args: "read PATH | write PATH [BYTES]", run: trace },
];

impl Command {
    /// The command called `name`.
    pub fn find(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    /// `name ARGS`, as the binaries' headers and README list it.
    pub fn usage(&self) -> String {
        format!("{} {}", self.name, self.args).trim_end().to_string()
    }

    /// Runs the command against `fs`, then prints what it wrote, even if
    /// it failed part way; `args` are parsed against [`Command::usage`]. A
    /// reader that has closed the pipe (`octofs-remote ls | head -1`) has
    /// had all it asked for: that ends the output, not the command.
    pub fn run(&self, fs: &RemoteFs, args: &[String]) -> Result<()> {
        let mut out = Vec::new();
        let result = (self.run)(fs, Args::new(self.usage(), args), &mut out);
        let mut stdout = io::stdout().lock();
        match stdout.write_all(&out).and_then(|()| stdout.flush()) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.into()),
            _ => result,
        }
    }
}

/// `mkdir|put|…`: the shared command names for a top-level usage line.
pub fn names() -> String {
    COMMANDS.iter().map(|c| c.name).collect::<Vec<_>>().join("|")
}

/// A replication vector `<m,s,h>`, or a bare replication factor for HDFS
/// compatibility.
fn parse_rv(s: &str, args: &Args) -> Result<ReplicationVector> {
    s.parse::<ReplicationVector>()
        .or_else(|_| s.parse::<u8>().map(ReplicationVector::from_replication_factor))
        .map_err(|_| args.bad(format_args!("bad replication vector {s:?}")))
}

/// The optional count of `perf [N]` / `migrations [N]`.
fn count<T: std::str::FromStr>(mut args: Args, default: T) -> Result<T> {
    match args.positionals(0, 1)?.first() {
        Some(n) => n.parse().map_err(|_| args.bad(format_args!("bad count {n:?}"))),
        None => Ok(default),
    }
}

fn mkdir(fs: &RemoteFs, mut args: Args, _: &mut Vec<u8>) -> Result<()> {
    let [path] = args.exactly()?;
    fs.mkdir(&path)
}

fn put(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let rv = match args.value::<String>("--rv")? {
        Some(v) => parse_rv(&v, &args)?,
        None => ReplicationVector::from_replication_factor(2),
    };
    let [local, path] = args.exactly()?;
    let data = std::fs::read(local)?;
    fs.write_file(&path, &data, rv)?;
    Ok(writeln!(out, "wrote {path} ({}) with vector {rv}", fmt_bytes(data.len() as u64))?)
}

/// Streams the file to `LOCAL` through one buffer of `io_window × block
/// size` bytes: one `status`, then a `read_at` per piece, each written out
/// before the next, so `get` never holds the whole file. A failed read
/// leaves no partial copy behind.
fn get(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [path, local] = args.exactly()?;
    let status = fs.status(&path)?;
    if status.is_dir {
        return Err(FsError::IsADirectory(path));
    }
    let piece = u64::from(fs.io_window()) * status.block_size;
    let mut buf = vec![0u8; piece.min(status.len) as usize];
    let mut file = std::fs::File::create(&local)?;
    let mut copy = || -> Result<u64> {
        let mut copied = 0;
        while copied < status.len {
            let want = buf.len().min((status.len - copied) as usize);
            let n = fs.read_at(&path, copied, &mut buf[..want])?;
            if n == 0 {
                break;
            }
            file.write_all(&buf[..n])?;
            copied += n as u64;
        }
        Ok(copied)
    };
    let copied = copy().inspect_err(|_| drop(std::fs::remove_file(&local)))?;
    Ok(writeln!(out, "copied {path} -> {local} ({})", fmt_bytes(copied))?)
}

fn cat(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [path] = args.exactly()?;
    *out = fs.read_file(&path)?;
    Ok(())
}

fn ls(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let path = args.positionals(0, 1)?;
    for e in fs.list(path.first().map_or("/", String::as_str))? {
        if e.is_dir {
            writeln!(out, "d {:>10}  {}", "-", e.name)?;
        } else {
            writeln!(out, "- {:>10}  {}  {}", fmt_bytes(e.len), e.name, e.rv)?;
        }
    }
    Ok(())
}

fn rm(fs: &RemoteFs, mut args: Args, _: &mut Vec<u8>) -> Result<()> {
    let recursive = args.flag("-r");
    let [path] = args.exactly()?;
    fs.delete(&path, recursive)
}

fn mv(fs: &RemoteFs, mut args: Args, _: &mut Vec<u8>) -> Result<()> {
    let [src, dst] = args.exactly()?;
    fs.rename(&src, &dst)
}

fn append(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [local, path] = args.exactly()?;
    let data = std::fs::read(local)?;
    let mut w = fs.append(&path)?;
    w.write(&data)?;
    w.close()?;
    Ok(writeln!(out, "appended {} to {path}", fmt_bytes(data.len() as u64))?)
}

/// Runs `round` on the master until one finds nothing to do, `max` rounds
/// at most; the sum of their counts.
fn settle(fs: &RemoteFs, round: Round, max: usize) -> Result<u64> {
    let mut total = 0;
    for _ in 0..max {
        match fs.run_round(round)? {
            0 => break,
            n => total += n,
        }
    }
    Ok(total)
}

/// Returns once the new vector is realized, or after 4 repair rounds, as
/// HDFS's `setrep -w` waits.
fn setrep(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [path, rv] = args.exactly()?;
    let rv = parse_rv(&rv, &args)?;
    let old = fs.set_replication(&path, rv)?;
    settle(fs, Round::Repair, 4)?;
    Ok(writeln!(out, "replication of {path}: {old} -> {rv}")?)
}

fn quota(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let clear = args.flag("--clear");
    let tier = args.value::<usize>("--tier")?;
    let bytes = args.value::<u64>("--bytes")?;
    let [path] = args.exactly()?;
    let bad = || args.bad("--tier T and --bytes N go together, without --clear");
    match (clear, tier, bytes) {
        (false, None, None) => {}
        (true, None, None) => fs.set_quota(&path, TierQuota::unlimited())?,
        (false, Some(t), Some(n)) => {
            let (mut quota, _) = fs.quota_usage(&path)?;
            *quota.per_tier.get_mut(t).ok_or_else(bad)? = Some(n);
            fs.set_quota(&path, quota)?;
        }
        _ => return Err(bad()),
    }
    let (quota, usage) = fs.quota_usage(&path)?;
    for (t, (limit, used)) in quota.per_tier.iter().zip(usage).enumerate() {
        match limit {
            Some(limit) => writeln!(out, "{path} tier {t}: {used} of {limit} bytes")?,
            None if used > 0 => writeln!(out, "{path} tier {t}: {used} bytes, unlimited")?,
            None => {}
        }
    }
    Ok(())
}

fn report(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    args.exactly::<0>()?;
    let s = fs.cluster_status()?;
    writeln!(out, "{} files, {} blocks", s.files, s.blocks)?;
    for r in &s.tiers {
        writeln!(
            out,
            "{:<8} media={:<3} capacity={:>10} remaining={:>10} ({:.1}%)",
            r.name,
            r.stats.num_media,
            fmt_bytes(r.stats.capacity),
            fmt_bytes(r.stats.remaining),
            r.stats.remaining_fraction() * 100.0
        )?;
    }
    Ok(())
}

fn balance(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    args.exactly::<0>()?;
    let moves = settle(fs, Round::Balance, 16)?;
    Ok(writeln!(out, "balance: {moves} replica move(s)")?)
}

fn fsck(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    args.exactly::<0>()?;
    let corrupt = fs.run_round(Round::Scrub)?;
    let repaired = settle(fs, Round::Repair, 8)?;
    Ok(writeln!(out, "fsck: {corrupt} corrupt replicas dropped, {repaired} repair tasks run")?)
}

/// One per-op metadata latency row, joined across the `master_meta_*`
/// series by `op` label.
struct MetaRow {
    op: String,
    count: u64,
    errors: u64,
    p50: u64,
    p99: u64,
    mean: f64,
    wait_p99: u64,
    log_p99: u64,
}

/// A [`MetaRow`] for every op invoked at least once.
fn meta_rows(snap: &MetricsSnapshot) -> Vec<MetaRow> {
    let of = |name: &str, op: &str| -> Option<&HistogramSample> {
        snap.histograms.iter().find(|h| h.name == name && h.labels.op.as_deref() == Some(op))
    };
    let mut rows = Vec::new();
    for total in snap.histograms.iter().filter(|h| h.name == "master_meta_op_us" && h.count > 0) {
        let Some(op) = total.labels.op.as_deref() else { continue };
        rows.push(MetaRow {
            op: op.to_string(),
            count: total.count,
            errors: snap
                .counter_where("master_meta_op_errors_total", |l| l.op.as_deref() == Some(op)),
            p50: total.quantile_us(0.50),
            p99: total.quantile_us(0.99),
            mean: total.mean_us(),
            wait_p99: of("master_meta_op_lock_wait_us", op).map_or(0, |h| h.quantile_us(0.99)),
            log_p99: of("master_meta_op_log_us", op).map_or(0, |h| h.quantile_us(0.99)),
        });
    }
    rows
}

fn status(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    args.exactly::<0>()?;
    let s = fs.cluster_status()?;
    writeln!(
        out,
        "cluster: {} files, {} blocks ({} in flight), scheduled={}{}",
        s.files,
        s.blocks,
        s.in_flight_blocks,
        fmt_bytes(s.scheduled_bytes),
        if s.safe_mode { ", SAFE MODE" } else { "" }
    )?;
    let (recorded, retained) = (s.decisions_recorded, s.decisions_retained);
    writeln!(out, "decisions: {recorded} recorded, {retained} retained in audit ring")?;
    for t in &s.tiers {
        let used = t.stats.capacity.saturating_sub(t.stats.remaining);
        let pct =
            if t.stats.capacity > 0 { used as f64 / t.stats.capacity as f64 * 100.0 } else { 0.0 };
        writeln!(
            out,
            "tier {:<8} media={:<3} capacity={} used={} ({pct:.1}%)",
            t.name,
            t.stats.num_media,
            fmt_bytes(t.stats.capacity),
            fmt_bytes(used),
        )?;
    }
    for w in &s.workers {
        let used: u64 = w.media.iter().map(|m| m.capacity.saturating_sub(m.remaining)).sum();
        let cap: u64 = w.media.iter().map(|m| m.capacity).sum();
        writeln!(
            out,
            "worker {:<4} rack={} {} conn={} used={}/{} hb={}ms",
            w.worker.0,
            w.rack.0,
            if w.live { "live" } else { "DEAD" },
            w.nr_conn,
            fmt_bytes(used),
            fmt_bytes(cap),
            s.now_ms.saturating_sub(w.last_heartbeat_ms),
        )?;
    }
    for h in &s.hot {
        writeln!(
            out,
            "hot {:<30} score={:.3} reads_ewma={:.2} writes_ewma={:.2}",
            h.path, h.heat.score, h.heat.reads_ewma, h.heat.writes_ewma
        )?;
    }
    let mut rows = meta_rows(&fs.master_metrics_snapshot()?);
    rows.sort_by(|a, b| a.op.cmp(&b.op));
    for r in rows {
        writeln!(
            out,
            "meta {:<22} count={} errors={} p50={}us p99={}us",
            r.op, r.count, r.errors, r.p50, r.p99
        )?;
    }
    Ok(())
}

fn heat(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [path] = args.exactly()?;
    let h = fs.heat(&path)?;
    Ok(writeln!(
        out,
        "{path}: score={:.3} reads_ewma={:.2} writes_ewma={:.2} \
         cur_reads={} cur_writes={} last_touch={}ms",
        h.score, h.reads_ewma, h.writes_ewma, h.cur_reads, h.cur_writes, h.last_touch_ms
    )?)
}

fn explain_placement(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let [id] = args.exactly()?;
    let id: u64 = id.parse().map_err(|_| args.bad("bad block id"))?;
    let events = fs.explain_placement(BlockId(id))?;
    if events.is_empty() {
        writeln!(out, "no retained decisions for block {id}")?;
    }
    for e in events {
        let chosen: Vec<String> = e
            .chosen
            .iter()
            .map(|l| format!("w{}:m{}:t{}", l.worker.0, l.media.0, l.tier.0))
            .collect();
        writeln!(
            out,
            "#{} t={}ms {} policy={} chosen=[{}]",
            e.seq,
            e.when_ms,
            e.kind.label(),
            e.policy,
            chosen.join(", ")
        )?;
        for r in &e.rounds {
            let pin = match r.tier_pin {
                Some(t) => format!("tier {}", t.0),
                None => "unpinned".to_string(),
            };
            writeln!(out, "  replica {} ({pin}):", r.replica_index)?;
            for c in &r.candidates {
                writeln!(
                    out,
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
                )?;
            }
        }
    }
    Ok(())
}

fn migrations(fs: &RemoteFs, args: Args, out: &mut Vec<u8>) -> Result<()> {
    let events = fs.migrations(count(args, 20u32)?)?;
    if events.is_empty() {
        writeln!(out, "no retained migration decisions")?;
    }
    for e in events {
        writeln!(
            out,
            "#{} t={}ms file={} block={} {}",
            e.seq, e.when_ms, e.file, e.block, e.policy
        )?;
    }
    Ok(())
}

fn metrics(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    args.exactly::<0>()?;
    Ok(write!(out, "{}", fs.cluster_metrics_snapshot()?.render_text())?)
}

fn perf(fs: &RemoteFs, args: Args, out: &mut Vec<u8>) -> Result<()> {
    let n = count(args, 10usize)?;
    let snap = fs.master_metrics_snapshot()?;
    let mut rows = meta_rows(&snap);
    if rows.is_empty() {
        return Ok(writeln!(out, "no metadata operations recorded yet")?);
    }
    // Slowest tail first: the contention view, not the volume view.
    rows.sort_by(|a, b| b.p99.cmp(&a.p99).then_with(|| a.op.cmp(&b.op)));
    writeln!(
        out,
        "{:<22} {:>9} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "op", "count", "errors", "p50_us", "p99_us", "mean_us", "wait_p99", "log_p99"
    )?;
    for r in rows.iter().take(n) {
        writeln!(
            out,
            "{:<22} {:>9} {:>7} {:>8} {:>8} {:>9.1} {:>9} {:>8}",
            r.op, r.count, r.errors, r.p50, r.p99, r.mean, r.wait_p99, r.log_p99
        )?;
    }
    let mut locks: Vec<(String, String)> = snap
        .counters
        .iter()
        .filter(|c| c.name == "lock_acquire_total")
        .filter_map(|c| Some((c.labels.op.clone()?, c.labels.mode.clone()?)))
        .collect();
    locks.sort();
    if !locks.is_empty() {
        writeln!(out)?;
        writeln!(
            out,
            "{:<16} {:>4} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11}",
            "lock", "mode", "acquires", "contended", "wait_p99", "wait_us", "hold_p99", "hold_us"
        )?;
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
        writeln!(
            out,
            "{lock:<16} {mode:>4} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11}",
            by("lock_acquire_total"),
            by("lock_contended_total"),
            wait.map_or(0, |h| h.quantile_us(0.99)),
            wait.map_or(0, |h| h.sum),
            hold.map_or(0, |h| h.quantile_us(0.99)),
            hold.map_or(0, |h| h.sum),
        )?;
    }
    Ok(())
}

fn trace(fs: &RemoteFs, mut args: Args, out: &mut Vec<u8>) -> Result<()> {
    let p = args.positionals(2, 3)?;
    let (op, path) = (p[0].as_str(), &p[1]);
    // `None` reads; `Some(n)` writes n bytes.
    let write: Option<usize> = match (op, p.get(2)) {
        ("read", None) => None,
        ("write", None) => Some(1 << 20),
        ("write", Some(n)) => {
            Some(n.parse().map_err(|_| args.bad(format_args!("bad byte count {n:?}")))?)
        }
        _ => return Err(args.bad(format_args!("trace reads or writes, not {op:?}"))),
    };
    // The client records spans only inside a trace its caller opened: this
    // root is what traces the operation, and its id is what picks the
    // operation's tree out of every node's ring.
    let mut root = fs.trace().root("shell.trace");
    root.annotate("op", op);
    root.annotate("path", path);
    match write {
        None => {
            let data = fs.read_file(path)?;
            writeln!(out, "read {path} ({})", fmt_bytes(data.len() as u64))?;
        }
        Some(n) => {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            fs.write_file(path, &data, ReplicationVector::from_replication_factor(2))?;
            writeln!(out, "wrote {path} ({})", fmt_bytes(n as u64))?;
        }
    }
    let id = root.trace_id();
    drop(root);
    let trace = fs
        .cluster_trace_snapshot()?
        .trace(id)
        .ok_or_else(|| FsError::NotFound("no assembled trace for operation".into()))?;
    write!(out, "{}", trace.critical_path().render())?;
    std::fs::create_dir_all("results/traces")?;
    let file = format!("results/traces/trace-{}.jsonl", trace.trace_id);
    let dump = TraceSnapshot { spans: trace.spans.clone() };
    std::fs::write(&file, dump.to_jsonl())?;
    Ok(writeln!(out, "{} spans ({} nodes) -> {file}", trace.spans.len(), trace.nodes().len())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What keeps the lists of commands outside this file the table's: both
    /// binaries' headers name every command, in order, and README's CLI
    /// section spells each with its arguments.
    #[test]
    fn headers_and_readme_list_the_table() {
        for header in [include_str!("bin/octofs.rs"), include_str!("bin/octofs-remote.rs")] {
            let squeezed: String = header.replace("//!", "").split_whitespace().collect();
            assert!(squeezed.contains(&format!("{}>[args]", names())), "{squeezed}");
        }
        let readme: Vec<&str> = include_str!("../README.md").lines().collect();
        for c in COMMANDS {
            assert!(readme.contains(&c.usage().as_str()), "README lacks `{}`", c.usage());
        }
    }
}
