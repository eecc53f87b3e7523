//! `octobench compare A.json B.json`: is B worse than A, metric by metric,
//! by the bounds this benchmark fixed?

use crate::json::Json;
use crate::report::{judged, Better, Def, E2E};
use crate::util::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the two medians
    /// say nothing either way.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// Interquartile distance as a share of the median, the wider of the
    /// two sides (of both pooled when a side has a single run).
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// The header fields two results must share to be comparable.
const MUST_MATCH: [&str; 7] =
    ["nproc", "clients", "seed", "warmup_s", "window_s", "smoke", "config"];

fn values(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let series = file.get("workloads")?.get(workload)?.get(metric)?.get("values")?.as_arr()?;
    series.iter().map(Json::as_f64).collect()
}

/// By how much of `a` the value `b` is worse (negative when better).
fn worsening(def: &Def, a: f64, b: f64) -> f64 {
    let delta = if def.better == Better::Lower { b - a } else { a - b };
    if a == 0.0 {
        // Only `failed_share` is ever 0; any rise from 0 is unbounded.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / a.abs()
}

pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> (f64, f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let wider = |x: Option<f64>, y: Option<f64>| x.into_iter().chain(y).reduce(f64::max);
    let spread = if a.len() >= 2 && b.len() >= 2 {
        wider(spread(a), spread(b))
    } else {
        let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
        spread(&pooled)
    };
    let verdict = if def.bound > 0.0 && spread.is_some_and(|s| s > def.bound) {
        Verdict::Unresolved
    } else if worsening(def, ma, mb) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, verdict)
}

/// One row per (workload, metric) that A has and this benchmark judges
/// (see [`crate::report::DEMOTED`]). A metric A has and B lacks is worse:
/// it stopped being measured. `Err` when the two were not measured under
/// the same conditions.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in MUST_MATCH {
        if a.get(key) != b.get(key) {
            let show = |j: Option<&Json>| j.map_or("(absent)".to_string(), Json::compact);
            return Err(format!(
                "not comparable: `{key}` differs: {} vs {}",
                show(a.get(key)),
                show(b.get(key))
            ));
        }
    }
    let workloads = a.get("workloads").and_then(Json::as_obj).ok_or("A has no `workloads`")?;
    let mut rows = Vec::new();
    for workload in workloads.keys() {
        for def in E2E.iter().filter(|d| judged(workload, d.name)) {
            let Some(va) = values(a, workload, def.name).filter(|v| !v.is_empty()) else {
                continue;
            };
            let (ma, mb, spread, verdict) =
                match values(b, workload, def.name).filter(|v| !v.is_empty()) {
                    Some(vb) => judge(def, &va, &vb),
                    None => (median(&va), f64::NAN, None, Verdict::Worse),
                };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                unit: def.unit,
                a: ma,
                b: mb,
                bound: def.bound,
                spread,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two results share no workload and metric".into());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<22} {:>14} {:>14} {:<6} {:>7} {:>8}  {}\n",
        "workload", "metric", "A median", "B median", "unit", "bound", "spread", "verdict"
    );
    for r in rows {
        let spread = r.spread.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        out.push_str(&format!(
            "{:<10} {:<22} {:>14.4} {:>14.4} {:<6} {:>6.0}% {:>8}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            100.0 * r.bound,
            spread,
            verdict
        ));
    }
    out
}

/// 0 when every row is ok, 1 when any is worse, 2 when none is worse but
/// some are unresolved.
pub fn exit_code(rows: &[Row]) -> i32 {
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        1
    } else if rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{e2e_def, result_file, Header, Metric};

    fn file(seed: u64, ops: &[f64], p50: &[f64]) -> Json {
        file_of("tiered", seed, ops, p50)
    }

    fn file_of(workload: &'static str, seed: u64, ops: &[f64], p50: &[f64]) -> Json {
        let header = Header {
            git_sha: "abc".into(),
            nproc: 2,
            seed,
            warmup_s: 5,
            window_s: 30,
            smoke: false,
            config: vec![("tiered".to_string(), "cfg".to_string())],
        };
        let runs: Vec<Vec<Metric>> = ops
            .iter()
            .zip(p50)
            .map(|(&o, &p)| {
                vec![
                    Metric::new("ops_per_s", o, "1/s").with_samples(1000),
                    Metric::new("read_p50_ms", p, "ms").with_samples(500),
                    Metric::new("failed_share", 0.0, "share"),
                ]
            })
            .collect();
        result_file(&header, &[(workload, runs)])
    }

    #[test]
    fn a_result_round_trips_through_text_into_compare() {
        let a = file(1, &[1000.0, 1010.0], &[500.0, 505.0]);
        let b = Json::parse(&file(1, &[990.0, 1005.0], &[498.0, 510.0]).pretty()).unwrap();
        let rows = compare(&a, &b).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.metric).collect::<Vec<_>>(),
            ["ops_per_s", "read_p50_ms", "failed_share"]
        );
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{}", render(&rows));
        assert_eq!(rows[0].a, 1005.0);
        assert_eq!(exit_code(&rows), 0);
    }

    #[test]
    fn worse_and_unresolved_are_told_apart() {
        let a = file(1, &[1000.0, 1010.0], &[500.0, 505.0]);
        // Throughput fell 40 % with tight runs: worse. Latency runs are 40 % apart: unresolved.
        let b = file(1, &[600.0, 605.0], &[400.0, 600.0]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].verdict, Verdict::Unresolved);
        assert_eq!(exit_code(&rows), 1);
        // A gain is never "worse".
        let faster = file(1, &[2000.0, 2010.0], &[250.0, 252.0]);
        assert!(compare(&a, &faster).unwrap().iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn any_rise_of_failed_share_is_worse() {
        let def = e2e_def("failed_share").unwrap();
        assert_eq!(judge(def, &[0.0, 0.0], &[0.0, 0.0]).3, Verdict::Ok);
        assert_eq!(judge(def, &[0.0, 0.0], &[0.001, 0.0]).3, Verdict::Worse);
    }

    #[test]
    fn single_runs_pool_their_spread() {
        let def = e2e_def("ops_per_s").unwrap();
        // Two single runs 2 % apart: pooled spread 3 %, inside the bound.
        let (_, _, spread, verdict) = judge(def, &[100.0], &[98.0]);
        assert!((spread.unwrap() - 0.0303).abs() < 1e-3);
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(judge(def, &[100.0], &[80.0]).3, Verdict::Unresolved);
    }

    #[test]
    fn a_metric_that_vanished_is_worse_and_a_demoted_one_is_not_judged() {
        let a = file(1, &[1000.0, 1010.0], &[500.0, 505.0]);
        let mut b = a.clone();
        let Json::Obj(top) = &mut b else { unreachable!() };
        let Some(Json::Obj(workloads)) = top.get_mut("workloads") else { unreachable!() };
        let Some(Json::Obj(tiered)) = workloads.get_mut("tiered") else { unreachable!() };
        tiered.remove("read_p50_ms");
        let rows = compare(&a, &b).unwrap();
        let gone = rows.iter().find(|r| r.metric == "read_p50_ms").unwrap();
        assert_eq!(gone.verdict, Verdict::Worse);
        assert!(gone.b.is_nan());
        assert_eq!(exit_code(&rows), 1);
        // `smallfile`'s timed metrics are in the ledger: only the rest is judged.
        let noisy = file_of("smallfile", 1, &[1000.0, 1010.0], &[500.0, 505.0]);
        let slower = file_of("smallfile", 1, &[600.0, 605.0], &[400.0, 600.0]);
        let rows = compare(&noisy, &slower).unwrap();
        assert_eq!(rows.iter().map(|r| r.metric).collect::<Vec<_>>(), ["failed_share"]);
    }

    #[test]
    fn refuses_results_measured_under_other_conditions() {
        let a = file(1, &[1000.0], &[500.0]);
        let err = compare(&a, &file(2, &[1000.0], &[500.0])).unwrap_err();
        assert!(err.contains("`seed`"), "{err}");
    }
}
