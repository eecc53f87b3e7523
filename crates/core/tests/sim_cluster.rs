//! Tests of the simulated cluster: analytic throughput checks against the
//! calibrated device model, contention behaviour, and replication flows.

use std::collections::HashMap;

use octopus_common::units::mbps_to_bytes_per_sec;
use octopus_common::{
    BlockData, ClientLocation, ClusterConfig, MediaId, ReplicationVector, StorageTier, WorkerId, MB,
};
use octopus_core::{SimCluster, SimEvent};
use octopus_storage::MemoryStore;

/// Paper cluster with 1 MB blocks for fast tests.
fn sim_config() -> ClusterConfig {
    let mut c = ClusterConfig::paper_cluster_scaled(0.01);
    c.block_size = MB;
    c
}

fn mbps(bps: f64) -> f64 {
    bps / MB as f64
}

#[test]
fn single_hdd_pipeline_write_runs_at_hdd_rate() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    let job = sim
        .submit_write("/w", 10 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    let reports = sim.run_to_completion();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert!(r.failed.is_none());
    assert_eq!(r.job, job);
    assert_eq!(r.bytes, 10 * MB);
    // Pipeline through three HDD writes: bottleneck = one HDD ≈ 126.3 MB/s.
    let t = r.throughput_mbps();
    assert!((t - 126.3).abs() < 5.0, "expected ~126 MB/s, got {t:.1}");
}

#[test]
fn memory_pipeline_write_is_nic_bound() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/m", 10 * MB, ReplicationVector::msh(3, 0, 0), ClientLocation::OffCluster)
        .unwrap();
    let r = &sim.run_to_completion()[0];
    // Memory writes at 1897 MB/s but the 10 Gbps NIC (1250 MB/s) caps the
    // pipeline.
    let t = r.throughput_mbps();
    assert!((t - 1250.0).abs() < 30.0, "expected ~1250 MB/s, got {t:.1}");
}

#[test]
fn mixed_tier_pipeline_bottlenecked_by_hdd() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/x", 10 * MB, ReplicationVector::msh(1, 1, 1), ClientLocation::OffCluster)
        .unwrap();
    let r = &sim.run_to_completion()[0];
    let t = r.throughput_mbps();
    // The paper's §7.1 observation: with one HDD replica in the pipeline,
    // multi-tier placement does not help a single writer.
    assert!((t - 126.3).abs() < 5.0, "expected ~126 MB/s, got {t:.1}");
}

#[test]
fn parallel_writers_contend_for_devices() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    // 18 writers on a 9-node cluster, all-SSD replication: each node's
    // single SSD serves ~6 concurrent block writes on average.
    for i in 0..18 {
        sim.submit_write(
            &format!("/f{i}"),
            10 * MB,
            ReplicationVector::msh(0, 3, 0),
            ClientLocation::OffCluster,
        )
        .unwrap();
    }
    let reports = sim.run_to_completion();
    let mean: f64 = reports.iter().map(|r| r.throughput_mbps()).sum::<f64>() / 18.0;
    // 9 SSDs at 340.6 MB/s serve 18 pipelines × 3 replicas = 54 block
    // streams; rough per-pipeline expectation ≈ 340.6 × 9 / 54 ≈ 57 MB/s.
    assert!(mean < 120.0, "contended mean {mean:.1} should be well below solo 340");
    assert!(mean > 20.0, "mean {mean:.1} suspiciously low");
}

#[test]
fn read_prefers_memory_replica_and_is_faster() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/hot", 10 * MB, ReplicationVector::msh(1, 0, 2), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    let read = sim.submit_read("/hot", ClientLocation::OffCluster).unwrap();
    let reports = sim.run_to_completion();
    let r = reports.iter().find(|r| r.job == read).unwrap();
    // The rate-based policy reads from memory (3224.8 MB/s) through the
    // NIC (1250 MB/s): NIC-bound, far above the 177 MB/s HDD read rate.
    let t = r.throughput_mbps();
    assert!(t > 1000.0, "expected NIC-bound memory read, got {t:.1} MB/s");
}

#[test]
fn hdd_only_read_runs_at_hdd_read_rate() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/cold", 10 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    sim.submit_read("/cold", ClientLocation::OffCluster).unwrap();
    let reports = sim.run_to_completion();
    let t = reports.last().unwrap().throughput_mbps();
    assert!((t - 177.1).abs() < 8.0, "expected ~177 MB/s HDD read, got {t:.1}");
}

#[test]
fn local_read_skips_network() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    // Write from worker 0 so a replica lands locally.
    sim.submit_write(
        "/loc",
        5 * MB,
        ReplicationVector::msh(1, 0, 2),
        ClientLocation::OnWorker(octopus_common::WorkerId(0)),
    )
    .unwrap();
    sim.run_to_completion();
    sim.submit_read("/loc", ClientLocation::OnWorker(octopus_common::WorkerId(0))).unwrap();
    let reports = sim.run_to_completion();
    let t = reports.last().unwrap().throughput_mbps();
    // Local memory read: raw 3224.8 MB/s, no NIC cap.
    assert!(t > 2000.0, "expected >2 GB/s local memory read, got {t:.1}");
}

#[test]
fn replication_settles_set_replication_moves() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/mv", 5 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    // Prefetch one replica into memory (the paper's Pegasus optimization).
    sim.master().set_replication("/mv", ReplicationVector::msh(1, 0, 2)).unwrap();
    sim.settle_replication().unwrap();
    let blocks = sim
        .master()
        .get_file_block_locations("/mv", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    for b in &blocks {
        let mems = b.locations.iter().filter(|l| l.tier == StorageTier::Memory.id()).count();
        let hdds = b.locations.iter().filter(|l| l.tier == StorageTier::Hdd.id()).count();
        assert_eq!(mems, 1, "one memory replica per block after the move");
        assert_eq!(hdds, 2, "trimmed back to two HDD replicas");
    }
}

#[test]
fn timers_interleave_with_jobs() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/t", 10 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.schedule_timer(0.01, 77);
    let mut saw_timer = false;
    let mut saw_job = false;
    while let Some(ev) = sim.next_sim_event() {
        match ev {
            SimEvent::Timer(77) => saw_timer = true,
            SimEvent::JobDone(_) => {
                saw_job = true;
                break;
            }
            _ => {}
        }
    }
    assert!(saw_timer && saw_job);
}

#[test]
fn sampler_runs_periodically() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/s", 50 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    let mut samples = Vec::new();
    sim.run_with_sampler(0.05, |t| samples.push(t));
    // 50 MB at ~126 MB/s ≈ 0.4 s → ~8 samples.
    assert!(samples.len() >= 5, "got {} samples", samples.len());
    assert!(samples.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn write_failure_reported_when_cluster_full() {
    let mut c = ClusterConfig::paper_cluster_scaled(0.0001); // ~13 MB HDDs
    c.block_size = MB;
    let mut sim = SimCluster::new(c).unwrap();
    // Ask for far more than fits.
    sim.submit_write("/big", 600 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    let reports = sim.run_to_completion();
    assert!(reports[0].failed.is_some(), "expected placement failure");
}

#[test]
fn nr_conn_feedback_reaches_policies() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    // Start a long HDD write; while it runs, the snapshot must show
    // non-zero connections on the involved media.
    sim.submit_write(
        "/busy",
        100 * MB,
        ReplicationVector::msh(0, 0, 3),
        ClientLocation::OffCluster,
    )
    .unwrap();
    // Step one event (first block in flight after submit).
    let snap = sim.master().snapshot();
    let busy_media = snap.media.iter().filter(|m| m.nr_conn > 0).count();
    assert!(busy_media >= 3, "expected ≥3 busy media, saw {busy_media}");
    sim.run_to_completion();
    let snap = sim.master().snapshot();
    assert!(snap.media.iter().all(|m| m.nr_conn == 0), "connections drained");
}

#[test]
fn throughput_units_sane() {
    // Guard the units: mbps_to_bytes_per_sec round-trips through reports.
    let rate = mbps_to_bytes_per_sec(126.3);
    assert!((mbps(rate) - 126.3).abs() < 1e-9);
}

#[test]
fn a_job_that_finishes_inside_submit_still_surfaces_job_done() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    // A zero-byte write has no block to move: it closes the file and is
    // final before `submit_write` returns.
    let write = sim
        .submit_write("/empty", 0, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    assert!(sim.all_jobs_done());
    assert_eq!(sim.next_sim_event(), Some(SimEvent::JobDone(write)));
    assert_eq!(sim.next_sim_event(), None);
    assert!(sim.master().status("/empty").unwrap().complete);
    // So has a read of it: no block to fetch.
    let read = sim.submit_read("/empty", ClientLocation::OffCluster).unwrap();
    assert_eq!(sim.next_sim_event(), Some(SimEvent::JobDone(read)));
    assert_eq!(sim.next_sim_event(), None, "exactly one JobDone per job");
    assert!(sim.reports().iter().all(|r| r.failed.is_none()));
}

#[test]
fn a_tier_full_write_surfaces_job_done_with_the_placement_error() {
    let mut c = ClusterConfig::paper_cluster_scaled(0.0001); // ~0.4 MB of memory per node
    c.block_size = MB;
    let mut sim = SimCluster::new(c).unwrap();
    let job = sim
        .submit_write(
            "/pinned",
            64 * MB,
            ReplicationVector::msh(3, 0, 0),
            ClientLocation::OffCluster,
        )
        .unwrap();
    let failed = sim.report(job).unwrap().failed.expect("no memory medium holds a block");
    assert!(failed.contains("placement failed"), "{failed}");
    assert_eq!(sim.next_sim_event(), Some(SimEvent::JobDone(job)));
    assert_eq!(sim.next_sim_event(), None);
    // `run_to_completion` consumes the event too: nothing stale is left
    // for a later driver loop.
    let job = sim
        .submit_write(
            "/again",
            64 * MB,
            ReplicationVector::msh(3, 0, 0),
            ClientLocation::OffCluster,
        )
        .unwrap();
    assert!(sim.run_to_completion()[job.0].failed.is_some());
    assert_eq!(sim.next_sim_event(), None);
}

#[test]
fn a_simulated_write_is_the_systems_traffic_in_the_registries() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/t", 10 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    let blocks = sim
        .master()
        .get_file_block_locations("/t", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(blocks.len(), 10);
    // One `WriteBlock` per block reached a pipeline head (the other two
    // stages were forwarded to by the worker dispatch) ...
    let is = |name: &'static str| {
        move |l: &octopus_common::metrics::OwnedLabels| l.request_type.as_deref() == Some(name)
    };
    let stages: u64 = (0..9)
        .map(|w| sim.worker(octopus_common::WorkerId(w)).metrics().snapshot())
        .map(|s| s.counter_where("worker_requests_total", is("WriteBlock")))
        .sum();
    assert_eq!(stages, 30, "10 blocks x 3 pipeline stages, each a WriteBlock");
    // ... and each head settled its block with one commit through the
    // master's dispatch, under a lease the job's client took with
    // `CreateFile`.
    let master = sim.master().metrics().snapshot();
    assert_eq!(master.counter_where("master_requests_total", is("CommitReplica")), 10);
    assert_eq!(master.counter_where("master_requests_total", is("AddBlock")), 10);
    assert_eq!(master.counter_where("master_requests_total", is("CreateFile")), 1);
    assert_eq!(master.counter_where("master_requests_total", is("CompleteFile")), 1);
}

/// The simulator's replicas live in `MemoryStore`s as synthetic `(len,
/// seed)` descriptors, never as bytes, and each medium charges exactly
/// the lengths of the replicas it holds.
#[test]
fn simulated_replicas_are_synthetic_descriptors_charged_at_full_length() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    let len = 4 * MB + MB / 2;
    sim.submit_write("/d", len, ReplicationVector::msh(1, 0, 2), ClientLocation::OffCluster)
        .unwrap();
    assert!(sim.run_to_completion()[0].failed.is_none());
    let blocks = sim
        .master()
        .get_file_block_locations("/d", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(blocks.len(), 5);
    let mut held: HashMap<MediaId, u64> = HashMap::new();
    for lb in &blocks {
        assert_eq!(lb.locations.len(), 3);
        for l in &lb.locations {
            let store = &sim.worker(l.worker).medium(l.media).unwrap().store;
            assert!(store.as_any().is::<MemoryStore>());
            let descriptor = BlockData::Synthetic { len: lb.block.len, seed: lb.block.id.0 };
            assert_eq!(store.get(lb.block.id).unwrap(), descriptor);
            *held.entry(l.media).or_default() += lb.block.len;
        }
    }
    assert_eq!(held.values().sum::<u64>(), 3 * len);
    for w in 0..9 {
        for m in sim.worker(WorkerId(w)).media() {
            assert_eq!(m.store.used(), held.get(&m.id).copied().unwrap_or(0), "{}", m.id);
        }
    }
}

#[test]
fn write_heat_reaches_the_master_with_the_next_heartbeat() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    sim.submit_write("/warm", 4 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    // Every finished flow is followed by a heartbeat, which carries the
    // workers' drained heat epoch.
    let heat = sim.master().file_heat("/warm").unwrap();
    assert!(heat.cur_writes + (heat.writes_ewma > 0.0) as u64 > 0, "no write heat: {heat:?}");
    assert!(heat.score > 0.0, "{heat:?}");
}

#[test]
fn a_quiet_stretch_longer_than_the_failure_deadline_kills_no_worker() {
    let mut sim = SimCluster::new(sim_config()).unwrap();
    // Nothing happens for 120 virtual seconds — four failure-detector
    // deadlines (3 s x 10). The workers of a deployment keep beating.
    sim.schedule_timer(120.0, 1);
    assert_eq!(sim.next_sim_event(), Some(SimEvent::Timer(1)));
    sim.submit_write("/late", 3 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    let reports = sim.run_to_completion();
    assert!(reports[0].failed.is_none(), "{:?}", reports[0].failed);
    assert_eq!(sim.master().snapshot().workers.len(), 9, "every worker still live");
    let blocks = sim
        .master()
        .get_file_block_locations("/late", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert!(blocks.iter().all(|b| b.locations.len() == 3));
}
