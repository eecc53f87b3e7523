//! Aggregate-throughput sweep over concurrent clients: N independent
//! DFSIO-style clients write and read their own files against one
//! 4-worker TCP cluster under device-throughput emulation. The sweep
//! measures how aggregate bandwidth scales as clients are added — the
//! number the multiplexed transport exists for: with one (or few)
//! connections per peer, an in-flight map instead of a
//! connection-per-request pool, and a bounded dispatch pool on the
//! servers, adding clients must add throughput instead of exhausting
//! sockets and threads. Mirrors a text table to
//! `results/aggregate_io.txt` and a machine-readable summary to
//! `results/aggregate_io.json`.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, RpcConfig, MB};
use octopus_core::NetCluster;

use super::payload;
use crate::table::{emit, f2, render};

/// Blocks per client file.
const BLOCKS: usize = 2;

/// Full run (the `run_all` entry): clients up to 256.
pub fn run() -> String {
    run_mode(false)
}

/// CI smoke: clients up to 64 only, same gate line.
pub fn run_quick() -> String {
    run_mode(true)
}

fn run_mode(quick: bool) -> String {
    let block_size = MB / 4;
    let sweep: &[usize] = if quick { &[1, 8, 64] } else { &[1, 8, 64, 256] };
    let mut config = ClusterConfig::test_cluster(4, 256 * MB, block_size);
    // Leases last 20 heartbeats; under deep request queues (256 clients on
    // 4 workers) a too-short lease expires between a client's own metadata
    // calls and recovery force-completes its file mid-write.
    config.heartbeat_ms = 200;
    // Pace transfers at each tier's device throughput, scaled down 16x:
    // on loopback every medium is RAM, so without pacing the sweep
    // measures memcpy and scheduler noise. Slower emulated devices keep
    // the workload device-bound, where aggregate scaling is limited by
    // media and dispatch capacity rather than loopback CPU cost.
    config.emulate_media_bps = true;
    for w in &mut config.workers {
        for m in &mut w.media {
            m.write_bps /= 16.0;
            m.read_bps /= 16.0;
        }
    }
    let cluster = Arc::new(NetCluster::start(config).unwrap());
    cluster.client(ClientLocation::OffCluster).mkdir("/agg").unwrap();
    let file_bytes = BLOCKS as u64 * block_size;

    let mut rows = Vec::new();
    let mut measured: Vec<(usize, f64)> = Vec::new(); // (clients, aggregate MB/s)
    for &n in sweep {
        let barrier = Arc::new(Barrier::new(n + 1));
        let mut workers_joined = Vec::new();
        for c in 0..n {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            workers_joined.push(std::thread::spawn(move || {
                // Each simulated client is its own process in the modeled
                // deployment: give it a private multiplexed transport (one
                // connection per peer) instead of the in-process shared
                // client, so N clients exercise N connections server-side.
                let client = cluster
                    .client(ClientLocation::OffCluster)
                    .with_rpc_config(RpcConfig { conns_per_peer: 1, ..RpcConfig::default() });
                let data = payload(file_bytes as usize, c as u64 + 1);
                let path = format!("/agg/n{n}-c{c}");
                barrier.wait();
                client
                    .write_file(&path, &data, ReplicationVector::from_replication_factor(2))
                    .unwrap();
                let back = client.read_file(&path).unwrap();
                assert_eq!(back, data, "client {c} of {n} corrupted the round trip");
            }));
        }
        barrier.wait();
        let t = Instant::now();
        for h in workers_joined {
            h.join().unwrap();
        }
        let secs = t.elapsed().as_secs_f64();
        // Bytes moved end-to-end per client: one write + one read.
        let aggregate = (n as u64 * file_bytes * 2) as f64 / MB as f64 / secs;
        measured.push((n, aggregate));

        // Recycle the namespace and capacity before the next point.
        let janitor = cluster.client(ClientLocation::OffCluster);
        for c in 0..n {
            janitor.delete(&format!("/agg/n{n}-c{c}"), false).unwrap();
        }
        cluster.run_block_report_round().unwrap();
    }

    let base = measured[0].1;
    for &(n, aggregate) in &measured {
        rows.push(vec![n.to_string(), f2(aggregate), f2(aggregate / base)]);
    }

    let kb = file_bytes / 1024;
    let mut out = format!(
        "Aggregate I/O: N concurrent clients, each writing+reading a {BLOCKS}-block \
         ({kb} KB) file\non a 4-worker TCP cluster, rf=2, emulated device throughput:\n\n"
    );
    out.push_str(&render(&["clients", "aggregate MB/s", "scaling vs 1"], &rows));

    let c64 = measured.iter().find(|m| m.0 == 64).unwrap();
    let scaling = c64.1 / base;
    let pass = scaling >= 3.0;
    out.push_str(&format!("\nGATE aggregate_io clients64_scaling={} pass={pass}\n", f2(scaling)));

    println!("{out}");
    emit("aggregate_io", &out);
    emit_json(&measured, block_size, quick);
    out
}

/// Writes `results/aggregate_io.json` (CI uploads and shape-diffs it).
fn emit_json(measured: &[(usize, f64)], block_size: u64, quick: bool) {
    let base = measured[0].1;
    let mut sweeps = Vec::new();
    for &(n, aggregate) in measured {
        sweeps.push(format!(
            "    {{\"clients\": {n}, \"aggregate_mb_s\": {aggregate:.2}, \
             \"scaling_vs_1\": {:.3}}}",
            aggregate / base
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"aggregate_io\",\n  \"quick\": {quick},\n  \
         \"workers\": 4,\n  \"blocks_per_file\": {BLOCKS},\n  \"block_bytes\": {block_size},\n  \
         \"replication\": 2,\n  \"clients\": [\n{}\n  ]\n}}\n",
        sweeps.join(",\n")
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("aggregate_io.json"), json);
    }
}
