//! Tiering-telemetry integration tests: access heat must flow from worker
//! touch counters over heartbeats into the master's EWMA tracker, every
//! placement must leave a reproducible MOOP audit trail (the chosen medium
//! is the argmin of the recorded Eq. 11 candidate scores), and the cluster
//! status surface must report live capacity.

use std::time::{Duration, Instant};

use octopus_common::{ClientLocation, ClusterConfig, DecisionKind, ReplicationVector, MB};
use octopus_core::NetCluster;

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::test_cluster(4, 64 * MB, MB);
    c.heartbeat_ms = 20;
    c
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

fn rf(n: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(n)
}

/// Polls `check` until it returns true or the deadline passes.
fn eventually(timeout: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn placement_audit_reproduces_moop_argmin() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 42);
    for i in 0..25 {
        client.write_file(&format!("/f{i}"), &data, rf(2)).unwrap();
    }

    // Every block's Placement event must carry the per-replica candidate
    // scores, with the recorded winner being the argmin of the Eq. 11
    // totals (within the policy's tie-break epsilon) — the acceptance
    // check that explain-placement reproduces the policy's ranking.
    let mut rounds_checked = 0usize;
    for i in 0..25 {
        let blocks = client.get_file_block_locations(&format!("/f{i}"), 0, u64::MAX).unwrap();
        for lb in &blocks {
            let events = client.explain_placement(lb.block.id).unwrap();
            let placements: Vec<_> =
                events.iter().filter(|e| e.kind == DecisionKind::Placement).collect();
            assert!(!placements.is_empty(), "block {} has no placement event", lb.block.id);
            for e in &placements {
                assert_eq!(e.chosen.len(), 2, "rf=2 placement: {e:?}");
                for round in &e.rounds {
                    let Some(winner_media) = round.chosen_media else { continue };
                    let chosen: Vec<_> = round.candidates.iter().filter(|c| c.chosen).collect();
                    assert_eq!(chosen.len(), 1, "exactly one chosen candidate: {round:?}");
                    assert_eq!(chosen[0].media, winner_media);
                    let min =
                        round.candidates.iter().map(|c| c.total).fold(f64::INFINITY, f64::min);
                    // The policy breaks ties randomly within this epsilon
                    // of the minimum (see GreedyPolicy::solve_moop); the
                    // winner must sit inside that band.
                    let eps = 1e-9 * (1.0 + min.abs().min(1e12));
                    assert!(
                        chosen[0].total <= min + eps,
                        "chosen total {} above argmin {min} (+{eps}): {round:?}",
                        chosen[0].total
                    );
                    rounds_checked += 1;
                }
                // The audited chosen vector is the placement the master
                // actually recorded for the block.
                let placed: Vec<_> = e.chosen.iter().map(|l| l.media).collect();
                for loc in &lb.locations {
                    assert!(
                        placed.contains(&loc.media),
                        "block map location {loc:?} missing from audited {placed:?}"
                    );
                }
            }
        }
    }
    assert!(rounds_checked >= 20, "only {rounds_checked} audited rounds verified");
}

/// `master_audit_bytes` is stamped at scrape time from the ring's own
/// count of what it holds: after the writes of
/// `placement_audit_reproduces_moop_argmin`, the gauge an operator reads
/// is that count, and it covers every retained event.
#[test]
fn audit_bytes_gauge_is_the_rings_own_count() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 42);
    for i in 0..25 {
        client.write_file(&format!("/f{i}"), &data, rf(2)).unwrap();
    }
    let master = cluster.master();
    let snap = client.master_metrics_snapshot().unwrap();
    assert_eq!(snap.gauge("master_audit_bytes"), master.audit_bytes() as i64);
    // And it counts the 25 placements, not only the empty ring's table.
    assert_eq!(master.cluster_status(0).decisions_retained, 25);
    assert!(master.audit_bytes() > octopus_common::AuditRing::default().bytes());
}

#[test]
fn heat_flows_from_workers_to_master() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 7);
    client.write_file("/hot", &data, rf(2)).unwrap();
    client.write_file("/cold", &data, rf(2)).unwrap();
    for _ in 0..12 {
        assert_eq!(client.read_file("/hot").unwrap(), data);
    }

    // Touch counts ride the next heartbeats; the re-read file must end up
    // strictly hotter than its untouched sibling.
    let hotter = eventually(Duration::from_secs(10), || {
        let hot = client.heat("/hot").unwrap();
        let cold = client.heat("/cold").unwrap();
        hot.score > cold.score && hot.reads_ewma + hot.cur_reads as f64 > 0.0
    });
    assert!(hotter, "re-read file never became hotter than the untouched one");

    // The hot file leads the status report's hottest-files ranking.
    let hot_files = client.cluster_status().unwrap().hot;
    assert!(!hot_files.is_empty());
    assert_eq!(hot_files[0].path, "/hot", "ranking: {hot_files:?}");
}

#[test]
fn cluster_status_reports_capacity_workers_and_decisions() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 9);
    client.write_file("/status-probe", &data, rf(2)).unwrap();
    assert_eq!(client.read_file("/status-probe").unwrap(), data);

    let s = client.cluster_status().unwrap();
    assert!(!s.safe_mode);
    assert!(s.files >= 1, "status: {s:?}");
    assert!(s.blocks >= 1);
    assert_eq!(s.tiers.len(), 3, "test cluster configures 3 tiers");
    for t in &s.tiers {
        assert!(t.stats.capacity > 0, "tier {} reports zero capacity", t.name);
        assert!(t.stats.num_media > 0);
    }
    assert_eq!(s.workers.len(), 4);
    for w in &s.workers {
        assert!(w.live, "worker {:?} not live", w.worker);
        assert!(!w.media.is_empty());
    }
    // The write placed at least one block: decisions were recorded.
    assert!(s.decisions_recorded >= 1);
    assert!(s.decisions_retained >= 1);
}

#[test]
fn scrape_stamps_ring_drop_counters() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/drop-probe", &payload(MB as usize / 4, 5), rf(2)).unwrap();

    // The drop counters are pre-registered at zero and stamped from the
    // rings at scrape time, so they must be visible (not merely absent)
    // even before any ring has wrapped — a dashboard can alert on them
    // without a blind spot between boot and first eviction.
    let snap = client.cluster_metrics_snapshot().unwrap();
    for name in ["master_audit_dropped_total", "trace_spans_dropped_total"] {
        assert!(snap.contains(name), "scraped snapshot lacks {name}");
    }
}

#[test]
fn metadata_op_histograms_populate_through_rpc_scrape() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);

    // The exp_metadata mix in miniature, driven over RPC: every op must
    // land in its own `master_meta_op_us{op=…}` histogram on the master.
    client.mkdir("/meta").unwrap();
    client.write_file("/meta/f", &payload(MB as usize / 4, 11), rf(2)).unwrap();
    client.status("/meta/f").unwrap();
    client.list("/meta").unwrap();
    client.rename("/meta/f", "/meta/g").unwrap();
    client.delete("/meta/g", false).unwrap();

    let snap = client.master_metrics_snapshot().unwrap();
    let hist = |op: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == "master_meta_op_us" && h.labels.op.as_deref() == Some(op))
            .unwrap_or_else(|| panic!("no master_meta_op_us sample for op={op}"))
    };
    for op in ["mkdir", "create", "complete", "stat", "list", "rename", "delete"] {
        let h = hist(op);
        assert!(h.count >= 1, "op={op} recorded no observations");
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "op={op} bucket/count mismatch");
        // Segment histograms ride the same label; their counts match the
        // total's, so per-op attribution is computable from one scrape.
        for seg in
            ["master_meta_op_lock_wait_us", "master_meta_op_work_us", "master_meta_op_log_us"]
        {
            let s = snap
                .histograms
                .iter()
                .find(|h| h.name == seg && h.labels.op.as_deref() == Some(op))
                .unwrap_or_else(|| panic!("no {seg} sample for op={op}"));
            assert_eq!(s.count, h.count, "segment {seg} count diverges for op={op}");
        }
        let counted = snap
            .counters
            .iter()
            .find(|c| c.name == "master_meta_ops_total" && c.labels.op.as_deref() == Some(op))
            .map(|c| c.value)
            .unwrap_or(0);
        assert_eq!(counted, h.count, "ops counter diverges for op={op}");
    }

    // Lockstat series surface through the same scrape: the mkdirs and
    // listings above held the namespace lock in both modes.
    for mode in ["sh", "ex"] {
        let hold = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "lock_hold_us"
                    && h.labels.op.as_deref() == Some("master.namespace")
                    && h.labels.mode.as_deref() == Some(mode)
            })
            .unwrap_or_else(|| panic!("no lock_hold_us sample for master.namespace mode={mode}"));
        assert!(hold.count > 0, "master.namespace {mode} lock recorded no holds");
    }
}
