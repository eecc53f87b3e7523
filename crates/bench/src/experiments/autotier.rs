//! Auto-tiering experiment: a shifting working set over HDD-pinned files
//! on a real TCP deployment under device-throughput emulation. Each phase
//! hammers a different pair of files; the *auto* run lets the migration
//! round (EWMA classifier → vector edit → paced §5 monitor copies) promote
//! the hot pair into the memory tier between the warm-up and the measured
//! reads, while the *static* run leaves every file where the initial
//! ⟨0,0,1⟩ placement put it. The gate requires auto-tiering to beat static
//! placement ≥1.3× on total end-to-end phase time (warm-up, telemetry
//! drain, and migration cost all included — the speedup must survive the
//! copies it pays for). Mirrors a text table to `results/autotier.txt` and
//! a machine-readable summary to `results/autotier.json`.

use std::time::{Duration, Instant};

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, MB};
use octopus_core::NetCluster;
use octopus_master::AutoTierConfig;
use octopus_policies::EwmaThresholdClassifier;

use super::payload;
use crate::table::{emit, f2, render};

/// Files per phase working set.
const WS: usize = 2;
/// Warm-up reads per working-set file per phase: enough touches to push
/// the file's EWMA preview (α·reads = 0.4·4 = 1.6) past the hot
/// threshold (1.0) before the migration round looks at it.
const WARM_READS: usize = 4;
/// Measured reads per working-set file per phase.
const TIMED_READS: usize = 12;

/// Full run (the `run_all` entry): 3 phases over 6 files.
pub fn run() -> String {
    run_mode(false)
}

/// CI smoke: 2 phases over 4 files, same pipeline and gate line.
pub fn run_quick() -> String {
    run_mode(true)
}

fn run_mode(quick: bool) -> String {
    let phases = if quick { 2 } else { 3 };
    let (static_times, _) = run_workload(phases, false);
    let (auto_times, promoted) = run_workload(phases, true);

    let mut rows = Vec::new();
    for p in 0..phases {
        rows.push(vec![
            p.to_string(),
            format!("/f{}../f{}", p * WS, p * WS + WS - 1),
            f2(static_times[p]),
            f2(auto_times[p]),
            f2(static_times[p] / auto_times[p]),
        ]);
    }
    let static_total: f64 = static_times.iter().sum();
    let auto_total: f64 = auto_times.iter().sum();
    let speedup = static_total / auto_total;
    rows.push(vec!["total".into(), String::new(), f2(static_total), f2(auto_total), f2(speedup)]);

    let mut out = format!(
        "Auto-tiering vs static placement: shifting working set ({WS} files per\n\
         phase, {WARM_READS} warm-up + {TIMED_READS} measured reads each) over {phases} phases on a\n\
         4-worker TCP cluster with emulated device throughput. All files start\n\
         HDD-pinned <0,0,1>; the auto run inserts one paced migration round per\n\
         phase, the static run never migrates:\n\n"
    );
    out.push_str(&render(&["phase", "working set", "static s", "auto s", "speedup"], &rows));

    let pass = speedup >= 1.3 && promoted >= phases * WS;
    out.push_str(&format!(
        "\nGATE autotier speedup={} promoted={promoted} phases={phases} pass={pass}\n",
        f2(speedup)
    ));

    println!("{out}");
    emit("autotier", &out);
    emit_json(&static_times, &auto_times, speedup, promoted, quick);
    out
}

/// One full workload pass on a fresh cluster. Returns per-phase wall
/// times and (auto runs only) the number of promotions executed.
fn run_workload(phases: usize, auto: bool) -> (Vec<f64>, usize) {
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB / 2);
    config.heartbeat_ms = 25;
    // Pace transfers at each tier's device throughput, scaled down 8x: on
    // loopback every medium is RAM, so without pacing both runs measure
    // memcpy and the tier move would be invisible. Under emulation the
    // memory:HDD read-rate gap (~18x) is what promotion buys.
    config.emulate_media_bps = true;
    for w in &mut config.workers {
        for m in &mut w.media {
            m.write_bps /= 8.0;
            m.read_bps /= 8.0;
        }
    }
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    for f in 0..phases * WS {
        client.write_file(&format!("/f{f}"), &data, ReplicationVector::msh(0, 0, 1)).unwrap();
    }

    let classifier = EwmaThresholdClassifier::default();
    let cfg = AutoTierConfig::default();
    let mut times = Vec::new();
    let mut promoted = 0;
    for p in 0..phases {
        let ws: Vec<String> = (0..WS).map(|i| format!("/f{}", p * WS + i)).collect();
        let t = Instant::now();
        for _ in 0..WARM_READS {
            for f in &ws {
                assert_eq!(client.read_file(f).unwrap(), data);
            }
        }
        // Let the warm-up touches ride a heartbeat into the master's EWMA
        // tracker; the same drain happens in both runs so the comparison
        // stays apples-to-apples.
        let deadline = Instant::now() + Duration::from_secs(10);
        while ws.iter().any(|f| client.heat(f).unwrap().score < 1.0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if auto {
            let round = cluster.run_migration_round(&classifier, &cfg).unwrap();
            promoted += round.promoted;
        }
        for _ in 0..TIMED_READS {
            for f in &ws {
                assert_eq!(client.read_file(f).unwrap(), data);
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    (times, promoted)
}

/// Writes `results/autotier.json` (CI uploads and diffs it across runs).
fn emit_json(static_times: &[f64], auto_times: &[f64], speedup: f64, promoted: usize, quick: bool) {
    let mut points = Vec::new();
    for (p, (s, a)) in static_times.iter().zip(auto_times).enumerate() {
        points.push(format!(
            "    {{\"phase\": {p}, \"static_s\": {s:.4}, \"auto_s\": {a:.4}, \
             \"speedup\": {:.3}}}",
            s / a
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"autotier\",\n  \"quick\": {quick},\n  \"workers\": 4,\n  \
         \"ws_files\": {WS},\n  \"warm_reads\": {WARM_READS},\n  \
         \"timed_reads\": {TIMED_READS},\n  \"phases\": {},\n  \
         \"promoted\": {promoted},\n  \"speedup\": {speedup:.3},\n  \"points\": [\n{}\n  ]\n}}\n",
        static_times.len(),
        points.join(",\n")
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("autotier.json"), json);
    }
}
