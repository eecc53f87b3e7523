//! Metric definitions (name, unit, direction, bound) and the arithmetic
//! that turns a run's samples into them.

use octopus_common::FsError;

use crate::json::Json;
use crate::util::{peak_rss_mb, percentile, reportable, sort};
use crate::workload::{Class, E2e, Kind, Recorder};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric of `octobench run`.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

/// Every end-to-end metric `octobench run` can print, with the bound the
/// issue that defined the benchmark fixed: 10 %, and 15 % on the 90th
/// percentiles, on `setup_s` (which the driver wants widest) and on
/// `peak_rss_mb` (`stream`'s peak spreads by 6–7 % over ten runs, too close
/// to 10 % for a rule that rejects a spread above the bound). A workload
/// prints the ones it has calls for (see README.md). No bound is wider
/// than 15 %: a metric that cannot hold its bound on a workload is listed
/// in [`DEMOTED`] instead.
pub const E2E: [Def; 15] = [
    def("setup_s", "s", Better::Lower, 0.15),
    def("ops_per_s", "1/s", Better::Higher, 0.10),
    def("write_mb_s", "MB/s", Better::Higher, 0.10),
    def("read_mb_s", "MB/s", Better::Higher, 0.10),
    def("write_p50_ms", "ms", Better::Lower, 0.10),
    def("write_p90_ms", "ms", Better::Lower, 0.15),
    def("read_p50_ms", "ms", Better::Lower, 0.10),
    def("read_p90_ms", "ms", Better::Lower, 0.15),
    def("meta_mut_p50_us", "us", Better::Lower, 0.10),
    def("meta_mut_p90_us", "us", Better::Lower, 0.15),
    def("meta_ro_p50_us", "us", Better::Lower, 0.10),
    def("meta_ro_p90_us", "us", Better::Lower, 0.15),
    def("failed_share", "share", Better::Lower, 0.0),
    def("stored_per_user_byte", "ratio", Better::Lower, 0.01),
    def("peak_rss_mb", "MB", Better::Lower, 0.15),
];

#[cfg(test)]
pub fn e2e_def(name: &str) -> Option<&'static Def> {
    E2E.iter().find(|d| d.name == name)
}

/// What could not hold its bound across sets of ten runs of the same code
/// on the sandbox this benchmark was defined on: every wall-clock time and
/// rate ([`DEMOTED`]) of the three workloads bound by the box's CPU and
/// `fdatasync` ([`DEMOTED_ON`]; `tiered` is bound by emulated device
/// sleeps, and holds). `run` still measures and prints them, the ledger
/// reports them as `e2e.*`, and `compare` does not judge them: a verdict
/// inside the noise would be a coin. README.md has the spreads.
pub const DEMOTED_ON: [&str; 3] = ["smallfile", "stream", "meta"];
pub const DEMOTED: [&str; 12] = [
    "setup_s",
    "ops_per_s",
    "write_mb_s",
    "read_mb_s",
    "write_p50_ms",
    "write_p90_ms",
    "read_p50_ms",
    "read_p90_ms",
    "meta_mut_p50_us",
    "meta_mut_p90_us",
    "meta_ro_p50_us",
    "meta_ro_p90_us",
];

/// Whether `compare` judges `metric` on `workload`.
pub fn judged(workload: &str, metric: &str) -> bool {
    !(DEMOTED_ON.contains(&workload) && DEMOTED.contains(&metric))
}

/// One measured value. `samples` is the number of observations behind a
/// percentile or a rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit, samples: None }
    }

    pub fn with_samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

pub fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Median and, when at least ten samples lie beyond it, the 90th
/// percentile of one latency class, in `unit` (`us` or `ms`).
fn latency(out: &mut Vec<Metric>, all: &Recorder, class: Class, stem: &str, unit: &'static str) {
    let mut v = all.lat_us[class as usize].clone();
    if v.is_empty() {
        return;
    }
    sort(&mut v);
    let scale = if unit == "ms" { 1e-3 } else { 1.0 };
    for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
        if reportable(v.len(), q) {
            let name = format!("{stem}_{tag}_{unit}");
            out.push(Metric::new(name, percentile(&v, q) * scale, unit).with_samples(v.len()));
        }
    }
}

/// `stream` and `tiered` make metadata calls too (a `delete` per file), but
/// a few dozen of them, each as long as the file has replicas to
/// invalidate: counted in `ops_per_s`, not a metadata latency.
pub fn has_meta_latencies(kind: Kind) -> bool {
    matches!(kind, Kind::Smallfile | Kind::Meta)
}

/// The end-to-end metrics of one run, by the names in [`E2E`], but for
/// `setup_s`, which the caller times. `peak_rss_mb` is read now.
pub fn e2e_metrics(kind: Kind, run: &E2e) -> Vec<Metric> {
    let all = run.checks();
    let ops_per_s: f64 = run.clients.iter().map(|(rec, elapsed)| rec.calls as f64 / elapsed).sum();
    let n = run.clients.len() as f64;
    let mean_secs = |class| run.clients.iter().map(|(r, _)| r.seconds_in(class)).sum::<f64>() / n;
    let mb = 1024.0 * 1024.0;

    let mut out = vec![Metric::new("ops_per_s", ops_per_s, "1/s").with_samples(all.calls as usize)];
    if all.write_bytes > 0 {
        out.push(Metric::new(
            "write_mb_s",
            all.write_bytes as f64 / mb / mean_secs(Class::Write),
            "MB/s",
        ));
    }
    if all.read_bytes > 0 {
        out.push(Metric::new(
            "read_mb_s",
            all.read_bytes as f64 / mb / mean_secs(Class::Read),
            "MB/s",
        ));
    }
    latency(&mut out, &all, Class::Write, "write", "ms");
    latency(&mut out, &all, Class::Read, "read", "ms");
    if has_meta_latencies(kind) {
        latency(&mut out, &all, Class::MetaMut, "meta_mut", "us");
        latency(&mut out, &all, Class::MetaRo, "meta_ro", "us");
    }
    out.push(
        Metric::new("failed_share", all.failed as f64 / all.attempted.max(1) as f64, "share")
            .with_samples(all.attempted as usize),
    );
    if let Some(r) = run.audit.stored_per_user_byte() {
        out.push(Metric::new("stored_per_user_byte", r, "ratio"));
    }
    out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    out
}

/// The end-to-end metrics `BENCHMARK.json` lists: the ones every workload
/// has, that are never 0, and that hold their bound on all four.
pub const PROTOCOL_E2E: [&str; 2] = ["peak_rss_mb", "setup_s"];

/// The [`PROTOCOL_E2E`] metrics of one run. A run that did not measure one
/// of them has no result: a made-up value would read as a measurement.
pub fn protocol_metrics(native: &[Metric]) -> Result<Vec<Metric>, FsError> {
    PROTOCOL_E2E
        .iter()
        .map(|&name| {
            native
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .ok_or_else(|| FsError::Io(format!("the run did not measure {name}")))
        })
        .collect()
}

/// Every per-layer metric, as `BENCHMARK.json` lists them: name, unit and
/// which way is better. README.md says what each one should move.
pub const PER_LAYER: [(&str, &str, Better); 60] = {
    use Better::{Higher as H, Lower as L};
    [
        ("client.rpcs_per_write", "count", L),
        ("client.rpcs_per_read", "count", L),
        ("client.self_us", "us", L),
        ("client.retries", "count", L),
        ("client.pipeline_recoveries", "count", L),
        ("rpc.roundtrip_us", "us", L),
        ("rpc.wire_and_queue_us", "us", L),
        ("rpc.encode_us_per_mb", "us/MB", L),
        ("rpc.decode_us_per_mb", "us/MB", L),
        ("rpc.payload_mb_s", "MB/s", H),
        ("rpc.requests_per_call", "count", L),
        ("rpc.timeouts", "count", L),
        ("server.master_dispatch_us", "us", L),
        ("master.create_us", "us", L),
        ("master.add_block_us", "us", L),
        ("master.commit_replica_us", "us", L),
        ("master.complete_us", "us", L),
        ("master.locate_us", "us", L),
        ("master.stat_us", "us", L),
        ("master.list_us", "us", L),
        ("master.rename_us", "us", L),
        ("master.delete_us", "us", L),
        ("master.lock_wait_share", "share", L),
        ("master.log_share", "share", L),
        ("master.op_errors", "count", L),
        ("master.replay_files_per_s", "1/s", H),
        ("editlog.fsync_us", "us", L),
        ("editlog.group_ops_per_s", "1/s", H),
        ("editlog.bytes_per_op", "B", L),
        ("worker_server.write_rf1_us", "us", L),
        ("worker_server.write_rf3_us", "us", L),
        ("worker_server.pipeline_stretch", "ratio", L),
        ("worker_server.read_us", "us", L),
        ("worker_server.forward_us", "us", L),
        ("worker_server.commit_rpcs_per_block", "count", L),
        ("worker_server.forward_failures", "count", L),
        ("worker.write_us_per_mb", "us/MB", L),
        ("worker.read_us_per_mb", "us/MB", L),
        ("worker.device_busy_share", "share", H),
        ("storage.mem_put_us_per_mb", "us/MB", L),
        ("storage.mem_get_us_per_mb", "us/MB", L),
        ("storage.file_put_us_per_mb", "us/MB", L),
        ("storage.file_get_us_per_mb", "us/MB", L),
        ("storage.stored_per_user_byte", "ratio", L),
        ("checksum.crc32_us_per_mb", "us/MB", L),
        ("policies.place_us", "us", L),
        ("policies.order_us", "us", L),
        ("policies.memory_replica_share", "share", H),
        ("policies.fast_read_share", "share", H),
        ("monitor.replication_tasks", "count", L),
        ("ledger.unattributed_share", "share", L),
        ("ledger.overhead_share", "share", L),
        ("ledger.ops_per_s", "1/s", H),
        ("e2e.ops_per_s", "1/s", H),
        ("e2e.write_mb_s", "MB/s", H),
        ("e2e.read_mb_s", "MB/s", H),
        ("e2e.write_p50_ms", "ms", L),
        ("e2e.read_p50_ms", "ms", L),
        ("e2e.meta_mut_p50_us", "us", L),
        ("e2e.meta_ro_p50_us", "us", L),
    ]
};

/// The per-layer metrics in the order of [`PER_LAYER`], each taken from
/// `measured`; one the ledger did not produce would be a bug, so it
/// panics rather than print a made-up number.
pub fn per_layer_metrics(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value =
                find(measured, name).unwrap_or_else(|| panic!("ledger did not measure {name}"));
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The last line the benchmark contract asks for.
pub fn protocol_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .compact()
}

/// The conditions a result was measured under; `compare` refuses two
/// results that differ in any of them but the commit.
#[derive(Debug, Clone)]
pub struct Header {
    pub git_sha: String,
    pub nproc: usize,
    pub seed: u64,
    pub warmup_s: u64,
    pub window_s: u64,
    pub smoke: bool,
    /// The full `ClusterConfig` of each workload, as `{:?}` prints it.
    pub config: Vec<(String, String)>,
}

/// The result file of `octobench run`: the header, then per workload and
/// metric the value of every run (and the sample count behind each).
pub fn result_file(header: &Header, workloads: &[(&str, Vec<Vec<Metric>>)]) -> Json {
    let series = |runs: &[Vec<Metric>]| {
        let mut by_name: Vec<(String, &'static str, Vec<Json>, Vec<Json>)> = Vec::new();
        for m in runs.iter().flatten() {
            if !by_name.iter().any(|(n, ..)| *n == m.name) {
                by_name.push((m.name.clone(), m.unit, Vec::new(), Vec::new()));
            }
            let entry = by_name.iter_mut().find(|(n, ..)| *n == m.name).expect("just inserted");
            entry.2.push(Json::Num(m.value));
            entry.3.extend(m.samples.map(|n| Json::Num(n as f64)));
        }
        Json::obj(by_name.into_iter().map(|(name, unit, values, samples)| {
            (
                name,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("values", Json::Arr(values)),
                    ("samples", Json::Arr(samples)),
                ]),
            )
        }))
    };
    Json::obj([
        ("benchmark", Json::str("octobench")),
        ("git_sha", Json::str(&header.git_sha)),
        ("nproc", Json::Num(header.nproc as f64)),
        ("clients", Json::Num(crate::workload::CLIENTS as f64)),
        ("seed", Json::Num(header.seed as f64)),
        ("warmup_s", Json::Num(header.warmup_s as f64)),
        ("window_s", Json::Num(header.window_s as f64)),
        ("smoke", Json::Bool(header.smoke)),
        ("config", Json::obj(header.config.iter().map(|(k, v)| (k.clone(), Json::str(v))))),
        ("runs", Json::Num(workloads.first().map_or(0, |(_, r)| r.len()) as f64)),
        ("workloads", Json::obj(workloads.iter().map(|(name, runs)| (*name, series(runs))))),
    ])
}

/// The line an end-to-end run prints before its result: every metric the
/// workload has, with the sample count behind it. `octobench run` reads
/// it; the benchmark's driver reads only the last line.
pub fn detail_line(metrics: &[Metric]) -> String {
    let metric = |m: &Metric| {
        let samples = m.samples.map_or(Json::Null, |n| Json::Num(n as f64));
        Json::obj([("value", Json::Num(m.value)), ("samples", samples)])
    };
    Json::obj(metrics.iter().map(|m| (m.name.clone(), metric(m)))).compact()
}

/// Reads a [`detail_line`] back, in the order of [`E2E`].
pub fn parse_detail(line: &str) -> Result<Vec<Metric>, String> {
    let json = Json::parse(line)?;
    let mut metrics = Vec::new();
    for def in &E2E {
        let Some(m) = json.get(def.name) else { continue };
        let value =
            m.get("value").and_then(Json::as_f64).ok_or(format!("{}: no value", def.name))?;
        let samples = m.get("samples").and_then(Json::as_f64).map(|n| n as usize);
        metrics.push(Metric { name: def.name.into(), value, unit: def.unit, samples });
    }
    if metrics.is_empty() {
        return Err(format!("no metric in `{line}`"));
    }
    Ok(metrics)
}

/// Prints metrics by name with their units (and sample counts), one per line.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!("  {:<34} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .unwrap();
        let json = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let word = |b: Better| if b == Better::Higher { "higher" } else { "lower" }.to_string();
        let mut e2e: Vec<_> = PROTOCOL_E2E
            .iter()
            .map(|n| e2e_def(n).unwrap())
            .map(|d| (d.name.to_string(), d.unit.to_string(), word(d.better)))
            .collect();
        let mut got = listed("end_to_end");
        e2e.sort();
        got.sort();
        assert_eq!(got, e2e);
        for m in json.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(e2e_def(name).unwrap().bound),
                "{name}"
            );
        }
        let layers: Vec<_> =
            PER_LAYER.iter().map(|&(n, u, b)| (n.to_string(), u.to_string(), word(b))).collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<_> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::Kind::ALL.map(crate::workload::Kind::name));
    }

    #[test]
    fn a_detail_line_reads_back() {
        let metrics = vec![
            Metric::new("setup_s", 0.5, "s"),
            Metric::new("ops_per_s", 1234.5, "1/s").with_samples(9000),
            Metric::new("failed_share", 0.0, "share"),
        ];
        assert_eq!(parse_detail(&detail_line(&metrics)), Ok(metrics));
        assert!(parse_detail("{}").is_err());
        assert!(parse_detail("").is_err());
    }

    #[test]
    fn a_result_without_a_listed_metric_is_an_error_not_a_zero() {
        let mut native =
            vec![Metric::new("ops_per_s", 10.0, "1/s"), Metric::new("peak_rss_mb", 64.0, "MB")];
        assert!(protocol_metrics(&native).is_err());
        native.push(Metric::new("setup_s", 1.5, "s"));
        let m = protocol_metrics(&native).unwrap();
        assert_eq!(m.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), PROTOCOL_E2E);
        let line = protocol_line(true, 7, 0, &m);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(7.0));
        assert_eq!(parsed.get("metrics").and_then(Json::as_obj).unwrap().len(), PROTOCOL_E2E.len());
    }

    #[test]
    fn demoted_metrics_are_defined_ones() {
        assert!(DEMOTED.iter().all(|m| e2e_def(m).is_some()));
        assert!(DEMOTED_ON.iter().all(|w| Kind::parse(w).is_some()));
        assert!(!judged("smallfile", "ops_per_s"));
        assert!(judged("smallfile", "peak_rss_mb"));
        assert!(judged("tiered", "ops_per_s"));
    }
}
