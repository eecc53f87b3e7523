//! Metadata microbenchmark: the master contention yardstick (DESIGN.md
//! §7, §11). An in-process [`Master`] is preloaded with a large namespace
//! (1M files in the full run), then 1/4/16 concurrent client threads
//! sweep a fixed create/stat/list/delete mix against it. Per-op
//! throughput and latency quantiles come from the master's own
//! `master_meta_op_us` histograms (bucket deltas per sweep, the same
//! series `octofs-remote perf` reads), so the bench exercises the
//! observability path it reports through. The gate requires a minimum
//! aggregate ops/sec; the share of op time attributed to the named
//! segments (lock wait, work under lock, edit-log append) is reported
//! beside it. Mirrors `results/metadata.{txt,json}`.

use std::time::Instant;

use octopus_common::metrics::{HistogramSample, MetricsSnapshot};
use octopus_common::{
    ClusterConfig, MediaId, MediaStats, RackId, ReplicationVector, TierId, WorkerId, MB,
};
use octopus_master::Master;

use crate::table::{emit, f1, f2, render};

/// Concurrency levels swept (client threads issuing metadata ops).
const CLIENTS: [usize; 3] = [1, 4, 16];

/// Files per preloaded directory.
const FILES_PER_DIR: usize = 1_000;

/// Gate floor on the best sweep's aggregate metadata ops/sec: under half
/// of what the master sustains on a 2-core container (EXPERIMENTS.md), so
/// only a real regression (or a lock pathology) trips it, not machine
/// variance.
const MIN_OPS_PER_SEC: f64 = 80_000.0;

/// The operation labels the mixed workload drives, in table order.
const OPS: [&str; 5] = ["create", "complete", "stat", "list", "delete"];

/// Full run (the `run_all` entry): 1M preloaded files.
pub fn run() -> String {
    run_mode(false)
}

/// CI smoke: 100k preloaded files, shorter sweeps, same pipeline and gate.
pub fn run_quick() -> String {
    run_mode(true)
}

fn boot_master() -> Master {
    let master = Master::new(ClusterConfig::test_cluster(4, 64 * MB, MB)).unwrap();
    for w in 0..4u32 {
        let rack = RackId((w % 2) as u16);
        master.register_worker(WorkerId(w), rack, 1e9, 0);
        let media: Vec<MediaStats> = (0..3u8)
            .map(|t| MediaStats {
                media: MediaId(w * 3 + t as u32),
                worker: WorkerId(w),
                rack,
                tier: TierId(t),
                capacity: 64 * MB,
                remaining: 64 * MB,
                nr_conn: 0,
                write_thru: [1900.0, 340.0, 126.0][t as usize] * 1048576.0,
                read_thru: [3200.0, 420.0, 177.0][t as usize] * 1048576.0,
            })
            .collect();
        master.heartbeat(WorkerId(w), media, 0, 0).unwrap();
    }
    master
}

/// The delta of one `(name, op)` histogram between two snapshots, as a
/// standalone sample so the usual quantile/mean helpers apply to just the
/// observations recorded in between.
fn hist_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    op: &str,
) -> Option<HistogramSample> {
    let find = |s: &MetricsSnapshot| {
        s.histograms.iter().find(|h| h.name == name && h.labels.op.as_deref() == Some(op)).cloned()
    };
    let a = find(after)?;
    let Some(b) = find(before) else { return Some(a) };
    let buckets = a.buckets.iter().zip(&b.buckets).map(|(x, y)| x.saturating_sub(*y)).collect();
    Some(HistogramSample {
        name: a.name,
        labels: a.labels,
        buckets,
        sum: a.sum.saturating_sub(b.sum),
        count: a.count.saturating_sub(b.count),
    })
}

/// Sum of one segment histogram's `sum` across the workload ops.
fn segment_sum(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    OPS.iter().filter_map(|op| hist_delta(before, after, name, op)).map(|h| h.sum).sum()
}

struct SweepResult {
    clients: usize,
    wall_s: f64,
    agg_ops_per_sec: f64,
    attribution: f64,
    /// `(op, count, ops/sec, p50 µs, p99 µs, mean µs)` per workload op.
    ops: Vec<(String, u64, f64, u64, u64, f64)>,
}

/// One concurrency sweep: `clients` threads each running `iters` mixed
/// iterations against disjoint `/bench/c{clients}/t{thread}` directories,
/// with stat/list traffic also hitting the shared preloaded namespace.
fn sweep(master: &Master, clients: usize, iters: usize, preload_files: usize) -> SweepResult {
    let rv = ReplicationVector::from_replication_factor(1);
    for t in 0..clients {
        master.mkdir(&format!("/bench/c{clients}/t{t}")).unwrap();
    }
    let before = master.metrics().snapshot();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..clients {
            s.spawn(move || {
                let dir = format!("/bench/c{clients}/t{t}");
                // Thread-local LCG: cheap deterministic preload indices.
                let mut state = (clients as u64) << 32 | (t as u64 + 1);
                let mut next = || {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for i in 0..iters {
                    let own = format!("{dir}/f{i}");
                    master.create_file(&own, rv, None).unwrap();
                    master.complete_file(&own).unwrap();
                    master.status(&own).unwrap();
                    let p = next() % preload_files;
                    master
                        .status(&format!("/p/d{}/f{}", p / FILES_PER_DIR, p % FILES_PER_DIR))
                        .unwrap();
                    if i % 16 == 0 {
                        master.list(&format!("/p/d{}", p / FILES_PER_DIR)).unwrap();
                    } else {
                        master.list(&dir).unwrap();
                    }
                    master.delete(&own, false).unwrap();
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = master.metrics().snapshot();

    let mut ops = Vec::new();
    let mut total_count = 0u64;
    for op in OPS {
        let h = hist_delta(&before, &after, "master_meta_op_us", op)
            .unwrap_or_else(|| panic!("no master_meta_op_us sample for op={op}"));
        total_count += h.count;
        ops.push((
            op.to_string(),
            h.count,
            h.count as f64 / wall_s,
            h.quantile_us(0.50),
            h.quantile_us(0.99),
            h.mean_us(),
        ));
    }
    let total_us = segment_sum(&before, &after, "master_meta_op_us");
    let explained = segment_sum(&before, &after, "master_meta_op_lock_wait_us")
        + segment_sum(&before, &after, "master_meta_op_work_us")
        + segment_sum(&before, &after, "master_meta_op_log_us");
    SweepResult {
        clients,
        wall_s,
        agg_ops_per_sec: total_count as f64 / wall_s,
        attribution: if total_us == 0 { 0.0 } else { explained as f64 / total_us as f64 },
        ops,
    }
}

fn preload(master: &Master, preload_files: usize) -> f64 {
    let rv = ReplicationVector::from_replication_factor(1);
    let t0 = Instant::now();
    for d in 0..preload_files.div_ceil(FILES_PER_DIR) {
        master.mkdir(&format!("/p/d{d}")).unwrap();
    }
    for i in 0..preload_files {
        let path = format!("/p/d{}/f{}", i / FILES_PER_DIR, i % FILES_PER_DIR);
        master.create_file(&path, rv, None).unwrap();
        master.complete_file(&path).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

fn run_mode(quick: bool) -> String {
    let preload_files: usize = if quick { 100_000 } else { 1_000_000 };
    let iters = if quick { 2_000 } else { 10_000 };
    let master = boot_master();
    let preload_s = preload(&master, preload_files);

    let sweeps: Vec<SweepResult> =
        CLIENTS.iter().map(|&c| sweep(&master, c, iters, preload_files)).collect();

    let mut rows = Vec::new();
    for s in &sweeps {
        for (op, count, rate, p50, p99, mean) in &s.ops {
            rows.push(vec![
                s.clients.to_string(),
                op.clone(),
                count.to_string(),
                format!("{rate:.0}"),
                p50.to_string(),
                p99.to_string(),
                f1(*mean),
            ]);
        }
        rows.push(vec![
            s.clients.to_string(),
            "ALL".into(),
            String::new(),
            format!("{:.0}", s.agg_ops_per_sec),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    let mut out = format!(
        "Master metadata microbenchmark: {preload_files} preloaded files \
         ({FILES_PER_DIR}/dir),\nthen {iters} mixed \
         create/complete/stat/stat/list/delete iterations per client\nthread at \
         concurrency {CLIENTS:?}. Latencies from the master's own\n\
         master_meta_op_us histograms (sub-ms buckets), per-sweep deltas.\n\n\
         preload: {preload_files} files in {preload_s:.1}s \
         ({:.0} files/s, create+complete)\n\n",
        preload_files as f64 / preload_s
    );
    out.push_str(&render(
        &["clients", "op", "count", "ops/sec", "p50_us", "p99_us", "mean_us"],
        &rows,
    ));

    // Lock table: every instrumented master lock as the sweeps saw it
    // (cumulative over the whole run), busiest waits first.
    let snap = master.metrics().snapshot();
    let mut locks: Vec<(String, String)> = snap
        .counters
        .iter()
        .filter(|c| c.name == "lock_acquire_total" && c.value > 0)
        .filter_map(|c| Some((c.labels.op.clone()?, c.labels.mode.clone()?)))
        .collect();
    locks.sort();
    locks.dedup();
    let mut lock_rows = Vec::new();
    for (lock, mode) in &locks {
        let by = |name: &str| {
            snap.counter_where(name, |l| {
                l.op.as_deref() == Some(lock) && l.mode.as_deref() == Some(mode)
            })
        };
        let h = |name: &str| {
            snap.histograms
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels.op.as_deref() == Some(lock)
                        && s.labels.mode.as_deref() == Some(mode)
                })
                .cloned()
        };
        let wait = h("lock_wait_us");
        let hold = h("lock_hold_us");
        let wait_us = wait.as_ref().map_or(0, |s| s.sum);
        lock_rows.push((
            wait_us,
            vec![
                lock.clone(),
                mode.to_string(),
                by("lock_acquire_total").to_string(),
                by("lock_contended_total").to_string(),
                wait.as_ref().map_or(0, |s| s.quantile_us(0.99)).to_string(),
                wait_us.to_string(),
                hold.as_ref().map_or(0, |s| s.quantile_us(0.99)).to_string(),
                hold.as_ref().map_or(0, |s| s.sum).to_string(),
            ],
        ));
    }
    lock_rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let lock_rows: Vec<Vec<String>> = lock_rows.into_iter().map(|(_, r)| r).collect();
    out.push_str("\nmaster locks (cumulative, busiest wait first):\n");
    out.push_str(&render(
        &["lock", "mode", "acquires", "contended", "wait_p99", "wait_us", "hold_p99", "hold_us"],
        &lock_rows,
    ));

    let best = sweeps.iter().map(|s| s.agg_ops_per_sec).fold(0.0, f64::max);
    let min_attr = sweeps.iter().map(|s| s.attribution).fold(1.0, f64::min);
    // `attribution` is reported, not gated: the master defines
    // work = total − wait − log, so the segments sum to the total by
    // construction and the ratio cannot fail.
    let pass = best >= MIN_OPS_PER_SEC;
    out.push_str(&format!(
        "\nGATE metadata best_ops_per_sec={best:.0} floor={MIN_OPS_PER_SEC:.0} \
         attribution={} pass={pass}\n",
        f2(min_attr)
    ));

    emit("metadata", &out);
    emit_json(&sweeps, preload_files, preload_s, best, min_attr, pass, quick);
    out
}

/// Writes `results/metadata.json` (CI uploads and diffs it across runs).
fn emit_json(
    sweeps: &[SweepResult],
    preload_files: usize,
    preload_s: f64,
    best: f64,
    attribution: f64,
    pass: bool,
    quick: bool,
) {
    let mut entries = Vec::new();
    for s in sweeps {
        let ops: Vec<String> = s
            .ops
            .iter()
            .map(|(op, count, rate, p50, p99, mean)| {
                format!(
                    "        {{\"op\": \"{op}\", \"count\": {count}, \"ops_per_sec\": {rate:.0}, \
                     \"p50_us\": {p50}, \"p99_us\": {p99}, \"mean_us\": {mean:.1}}}"
                )
            })
            .collect();
        entries.push(format!(
            "    {{\"clients\": {}, \"wall_s\": {:.3}, \"agg_ops_per_sec\": {:.0}, \
             \"attribution\": {:.4}, \"ops\": [\n{}\n      ]}}",
            s.clients,
            s.wall_s,
            s.agg_ops_per_sec,
            s.attribution,
            ops.join(",\n")
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"metadata\",\n  \"quick\": {quick},\n  \
         \"preload_files\": {preload_files},\n  \"preload_s\": {preload_s:.1},\n  \
         \"best_ops_per_sec\": {best:.0},\n  \"min_ops_per_sec\": {MIN_OPS_PER_SEC:.0},\n  \
         \"attribution\": {attribution:.4},\n  \"pass\": {pass},\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("metadata.json"), json);
    }
}
