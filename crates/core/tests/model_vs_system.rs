//! The model checked against the system it models, on what both claim to
//! model: the per-tier device rates of a single stream.
//!
//! The same workload — 8 blocks of 4 MiB written with one replica pinned
//! to each tier in turn, then read back, one block at a time, by a client
//! collocated with worker 0 — runs on a [`NetCluster`] that paces every
//! transfer to its medium's configured rate (`emulate_media_bps`, wall
//! clock) and on a [`SimCluster`] (virtual clock), both on Table 2's rates
//! ÷ 4 so that the device, not this box's loopback path (~1.2 ms per MiB
//! and hop), owns the wall. The two times must agree within 20 % plus a
//! fixed allowance for what the system does per block and the model does
//! not: three RPCs, a loopback transfer, a copy and a CRC pass over 4 MiB.
//! That allowance is as large as the memory tier's whole device time, so
//! memory is checked weakly (a 2× model error would pass); SSD and HDD are
//! checked to ~±35 % and ~±25 %.
//!
//! Then the rf = 3 HDD write, where they must *not* agree, by a known
//! factor — see the comment at the assertion.
//!
//! One `#[test]`, so nothing else in this binary competes for the box's
//! two cores while the wall clock is being read; ignored in unoptimised
//! builds, whose software path costs five times as much per block.

use std::time::Instant;

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, WorkerId, MB};
use octopus_core::{NetCluster, SimCluster};

const BLOCK: u64 = 4 * MB;
const BLOCKS: u64 = 8;
const FILE: u64 = BLOCKS * BLOCK;

/// Relative tolerance on a single-stream, single-replica transfer.
const TOLERANCE: f64 = 0.20;
/// Per-block allowance for the system's RPCs, copy and checksum, seconds.
const PER_BLOCK_ALLOWANCE: f64 = 0.010;

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::test_cluster(4, 256 * MB, BLOCK);
    c.io_window = 1;
    // A 10 s lease: the slowest block here takes ~0.4 s.
    c.heartbeat_ms = 500;
    for m in c.workers.iter_mut().flat_map(|w| w.media.iter_mut()) {
        m.write_bps /= 4.0;
        m.read_bps /= 4.0;
    }
    c
}

const CLIENT: ClientLocation = ClientLocation::OnWorker(WorkerId(0));

/// `(write seconds, read seconds)` of one file on the paced TCP cluster.
fn system_times(
    cluster: &NetCluster,
    path: &str,
    rv: ReplicationVector,
    data: &[u8],
) -> (f64, f64) {
    let client = cluster.client(CLIENT);
    let t = Instant::now();
    client.write_file(path, data, rv).unwrap();
    let write = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let back = client.read_file(path).unwrap();
    let read = t.elapsed().as_secs_f64();
    assert!(back == data, "{path} read back different bytes");
    client.delete(path, false).unwrap();
    (write, read)
}

/// The same file in the model, virtual seconds.
fn model_times(sim: &mut SimCluster, path: &str, rv: ReplicationVector) -> (f64, f64) {
    fn secs(sim: &mut SimCluster, job: octopus_core::JobId) -> f64 {
        let r = &sim.run_to_completion()[job.0];
        assert!(r.failed.is_none(), "{:?}", r.failed);
        r.end.secs_since(r.start)
    }
    let write = sim.submit_write(path, FILE, rv, CLIENT).unwrap();
    let write = secs(sim, write);
    let read = sim.submit_read(path, CLIENT).unwrap();
    (write, secs(sim, read))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "compares wall-clock time: needs an optimised build")]
fn per_tier_single_stream_times_agree_and_the_rf3_gap_is_the_known_one() {
    let mut cfg = config();
    cfg.emulate_media_bps = true;
    let cluster = NetCluster::start(cfg).unwrap();
    let mut sim = SimCluster::new(config()).unwrap();
    let octopus_common::BlockData::Real(data) =
        octopus_common::BlockData::generate_real(FILE as usize, 20)
    else {
        unreachable!()
    };

    // Once unmeasured: connections, threads and pooled block buffers exist
    // from here on, as they do in a running deployment.
    system_times(&cluster, "/warmup", ReplicationVector::msh(1, 0, 0), &data);

    let allowance = BLOCKS as f64 * PER_BLOCK_ALLOWANCE;
    for (tier, rv) in [
        ("memory", ReplicationVector::msh(1, 0, 0)),
        ("ssd", ReplicationVector::msh(0, 1, 0)),
        ("hdd", ReplicationVector::msh(0, 0, 1)),
    ] {
        let path = format!("/{tier}");
        let (sys_w, sys_r) = system_times(&cluster, &path, rv, &data);
        let (mod_w, mod_r) = model_times(&mut sim, &path, rv);
        eprintln!(
            "MODEL-VS-SYSTEM {tier}: write {sys_w:.3}s / {mod_w:.3}s = {:.2}, \
             read {sys_r:.3}s / {mod_r:.3}s = {:.2}",
            sys_w / mod_w,
            sys_r / mod_r
        );
        for (what, sys, model) in [("write", sys_w, mod_w), ("read", sys_r, mod_r)] {
            assert!(
                (sys - model).abs() <= TOLERANCE * model + allowance,
                "{tier} {what}: system {sys:.3}s vs model {model:.3}s \
                 (tolerance {TOLERANCE} x model + {allowance:.3}s)"
            );
        }
    }

    // Three HDD replicas. The model is the paper's §3.1 pipeline: packets
    // stream through the stages, so the block lands on all three nearly
    // together and the write runs at one HDD's rate (ratio 1 would be a
    // perfect match). The system stores and forwards whole blocks — each
    // stage stores, then forwards, and the head commits once
    // (`pipeline_stretch` ≈ 3, ROADMAP item 2) — so it takes up to three
    // device times per block, plus its per-block RPCs. Above 3.5 the
    // system has a cost the model does not know about; at or below 1 the
    // system would be beating the device it emulates. And that is a
    // single stream: `transfer_pacing` sleeps per transfer and does not
    // divide a device between concurrent transfers, so d > 1 is outside
    // what this comparison validates.
    let rv = ReplicationVector::msh(0, 0, 3);
    let (sys_w, _) = system_times(&cluster, "/hdd3", rv, &data);
    let (mod_w, _) = model_times(&mut sim, "/hdd3", rv);
    let ratio = sys_w / mod_w;
    eprintln!("MODEL-VS-SYSTEM hdd rf=3: write {sys_w:.3}s / {mod_w:.3}s = {ratio:.2}");
    assert!(ratio > 1.0 && ratio <= 3.5, "rf=3 system/model ratio {ratio:.2} outside (1, 3.5]");
}
