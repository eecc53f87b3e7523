//! Heat-telemetry experiment: a hot/cold file pair on a real TCP
//! deployment. Each epoch re-reads the hot file, waits for the touch
//! counts to ride worker heartbeats into the master's EWMA tracker, and
//! samples both files' heat scores. The gate requires the hot file to
//! score strictly above the cold one in ≥95% of epochs — i.e. the
//! worker-ring → heartbeat → EWMA path keeps the two reliably separated,
//! not just on average. Mirrors a text table to `results/heat.txt` and a
//! machine-readable summary to `results/heat.json`.

use std::time::{Duration, Instant};

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, MB};
use octopus_core::NetCluster;

use super::payload;
use crate::table::{emit, f2, render};

/// Reads of the hot file per epoch.
const READS_PER_EPOCH: usize = 4;

/// Full run (the `run_all` entry): 20 epochs.
pub fn run() -> String {
    run_mode(false)
}

/// CI smoke: fewer epochs, same pipeline and gate line.
pub fn run_quick() -> String {
    run_mode(true)
}

fn run_mode(quick: bool) -> String {
    let epochs = if quick { 10 } else { 20 };
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB / 2);
    config.heartbeat_ms = 25;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 77);
    let rv = ReplicationVector::from_replication_factor(2);
    client.write_file("/hot", &data, rv).unwrap();
    client.write_file("/cold", &data, rv).unwrap();

    // Warm-up: wait until the first read touches have crossed a heartbeat,
    // so epoch 0 measures steady-state telemetry, not boot latency.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert_eq!(client.read_file("/hot").unwrap(), data);
        let hot = client.heat("/hot").unwrap();
        let cold = client.heat("/cold").unwrap();
        if hot.score > cold.score || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut rows = Vec::new();
    let mut measured: Vec<(f64, f64, bool)> = Vec::new(); // (hot, cold, hot > cold)
    for e in 0..epochs {
        for _ in 0..READS_PER_EPOCH {
            assert_eq!(client.read_file("/hot").unwrap(), data);
        }
        // Two heartbeat intervals: the drained epoch reaches the master.
        std::thread::sleep(Duration::from_millis(60));
        let hot = client.heat("/hot").unwrap();
        let cold = client.heat("/cold").unwrap();
        let hotter = hot.score > cold.score;
        rows.push(vec![
            e.to_string(),
            f2(hot.score),
            f2(cold.score),
            if hotter { "yes".into() } else { "NO".into() },
        ]);
        measured.push((hot.score, cold.score, hotter));
    }

    let hotter_epochs = measured.iter().filter(|m| m.2).count();
    let fraction = hotter_epochs as f64 / epochs as f64;
    let mut out = format!(
        "Access-heat separation: {READS_PER_EPOCH} hot reads per epoch over {epochs} epochs\n\
         on a 4-worker TCP cluster (rf=2); scores are the master-side EWMA\n\
         fed by heartbeat-piggybacked worker touch counts:\n\n"
    );
    out.push_str(&render(&["epoch", "hot score", "cold score", "hot > cold"], &rows));

    let pass = fraction >= 0.95;
    out.push_str(&format!(
        "\nGATE heat hot_fraction={} epochs={epochs} pass={pass}\n",
        f2(fraction)
    ));

    println!("{out}");
    emit("heat", &out);
    emit_json(&measured, epochs, fraction, quick);
    out
}

/// Writes `results/heat.json` (CI uploads and diffs it across runs).
fn emit_json(measured: &[(f64, f64, bool)], epochs: usize, fraction: f64, quick: bool) {
    let mut points = Vec::new();
    for (e, &(hot, cold, hotter)) in measured.iter().enumerate() {
        points.push(format!(
            "    {{\"epoch\": {e}, \"hot_score\": {hot:.4}, \"cold_score\": {cold:.4}, \
             \"hot_above_cold\": {hotter}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"heat\",\n  \"quick\": {quick},\n  \"workers\": 4,\n  \
         \"reads_per_epoch\": {READS_PER_EPOCH},\n  \"epochs\": {epochs},\n  \
         \"hot_fraction\": {fraction:.4},\n  \"points\": [\n{}\n  ]\n}}\n",
        points.join(",\n")
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("heat.json"), json);
    }
}
