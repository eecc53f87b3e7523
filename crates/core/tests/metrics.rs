//! Cluster-wide metrics: the merged snapshot exposes master, worker, and
//! RPC-client series; retries/failovers are counted; and the per-medium
//! I/O-connection gauge feeds the heartbeat `NrConn` the placement
//! policies consume (§3.2).

use std::time::Duration;

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, WorkerId, MB};
use octopus_core::net::{faults, FaultAction};
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

#[test]
fn snapshot_exposes_master_worker_and_client_series() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize + 77, 3);
    client.mkdir("/m").unwrap();
    client.write_file("/m/f", &data, rf(2)).unwrap();
    assert_eq!(client.read_file("/m/f").unwrap(), data);

    let snap = cluster.metrics_snapshot().unwrap();
    // Master op counters/latency, per request type.
    assert!(snap.counter("master_requests_total") > 0);
    assert!(
        snap.counter_where("master_requests_total", |l| {
            l.request_type.as_deref() == Some("CreateFile")
        }) >= 1
    );
    assert!(snap.histogram_count("master_request_us") > 0);
    // Heartbeat liveness.
    assert!(snap.counter("master_heartbeats_total") > 0);
    assert_eq!(snap.gauge("master_live_workers"), 4);
    // Worker data-path counters, labeled with tier and worker.
    assert!(snap.counter("worker_requests_total") > 0);
    assert!(snap.counter("worker_write_bytes_total") >= data.len() as u64);
    assert!(snap.counter("worker_read_bytes_total") > 0);
    assert!(snap.histogram_count("worker_write_us") > 0);
    assert!(snap.counter_where("worker_write_bytes_total", |l| l.tier.is_some()) > 0);
    // RPC client instrumentation (the shared pooled client).
    assert!(snap.counter("rpc_client_requests_total") > 0);
    assert!(snap.histogram_count("rpc_client_request_us") > 0);
    // Client-path byte counters ride the servers' shared client registry
    // for default-config clients.
    assert!(snap.counter("client_write_bytes_total") >= data.len() as u64);
    assert!(snap.counter("client_read_bytes_total") >= data.len() as u64);

    // Deterministic text exposition carries the same names with labels.
    let text = snap.render_text();
    assert!(text.contains("master_requests_total{request_type=\"CreateFile\"}"));
    assert!(text.contains("worker_write_bytes_total{"));
    assert!(text.contains("rpc_client_request_us_bucket{"));
    assert!(text.contains("le=\"+Inf\""));
}

#[test]
fn rpc_retries_are_counted_in_the_cluster_snapshot() {
    let cluster = NetCluster::start(config()).unwrap();
    // Default-config client: uses the process-shared RpcClient, so its
    // retries surface in the cluster-wide snapshot.
    let client = cluster.client(ClientLocation::OffCluster);
    let before = cluster.metrics_snapshot().unwrap().counter("rpc_client_retries_total");
    faults::inject(cluster.master_addr(), FaultAction::DropConnection);
    faults::inject(cluster.master_addr(), FaultAction::DropConnection);
    let st = client.status("/").expect("idempotent call retries through dropped connections");
    assert!(st.is_dir);
    let snap = cluster.metrics_snapshot().unwrap();
    // Background heartbeats share the master's fault queue, so the dropped
    // replies may hit either request type — the total is what's guaranteed.
    assert!(
        snap.counter("rpc_client_retries_total") >= before + 2,
        "two dropped replies must surface as at least two retries"
    );
    assert!(
        snap.counter_where("rpc_client_requests_total", |l| {
            l.request_type.as_deref() == Some("Status")
        }) >= 1
    );
}

#[test]
fn checksum_and_replica_failovers_are_counted() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 9);
    client.write_file("/cf", &data, rf(3)).unwrap();

    // The retrieval policy random tie-breaks replica order per request,
    // so no single faulted worker is guaranteed to be read first: corrupt
    // all holders but one and re-read until a failover is counted (each
    // round hits with probability 2/3).
    let blocks = client.get_file_block_locations("/cf", 0, u64::MAX).unwrap();
    let holders: Vec<WorkerId> = blocks[0].locations.iter().map(|l| l.worker).collect();
    let victims = &holders[..holders.len() - 1];
    let mut counted = false;
    for _ in 0..10 {
        for v in victims {
            let addr = cluster.worker_addr(*v).unwrap();
            if faults::pending(addr) == 0 {
                faults::inject(addr, FaultAction::CorruptPayload);
            }
        }
        assert_eq!(client.read_file("/cf").unwrap(), data, "read fails over past the bad replica");
        let snap = cluster.metrics_snapshot().unwrap();
        if snap.counter("client_checksum_failovers_total") >= 1
            && snap.counter("client_replica_failovers_total") >= 1
        {
            counted = true;
            break;
        }
    }
    for v in victims {
        faults::clear(cluster.worker_addr(*v).unwrap());
    }
    assert!(counted, "checksum/replica failovers must surface in the cluster snapshot");
}

#[test]
fn media_io_gauge_feeds_heartbeat_nr_conn_and_policy_snapshot() {
    let cluster = NetCluster::start(config()).unwrap();
    let w = &cluster.workers()[0];
    let medium = w.media()[0].id;

    // Hold a live I/O span on the medium, as an in-flight transfer would.
    let io = w.media_io(medium).unwrap();

    // The gauge is visible immediately in the merged snapshot…
    let snap = cluster.metrics_snapshot().unwrap();
    assert!(
        snap.gauge_where("worker_media_io_conn", |l| l.worker == Some(w.id())) >= 1,
        "live span must show in the worker's I/O-connection gauge"
    );

    // …and the next heartbeat carries it into the master's policy
    // snapshot as the medium's NrConn (§3.2 congestion input).
    let mut seen = false;
    for _ in 0..50 {
        let ps = cluster.master().snapshot();
        if ps.media_nr_conn(medium).unwrap_or(0) >= 1 {
            seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(seen, "heartbeat NrConn must reflect the live I/O span");

    // Releasing the span drains both views.
    drop(io);
    let snap = cluster.metrics_snapshot().unwrap();
    assert_eq!(snap.gauge_where("worker_media_io_conn", |l| l.worker == Some(w.id())), 0);
    let mut drained = false;
    for _ in 0..50 {
        let ps = cluster.master().snapshot();
        if ps.media_nr_conn(medium) == Some(0) {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(drained, "NrConn must fall back to zero after the span ends");
}

#[test]
fn unreachable_worker_scrapes_are_visible_in_cluster_snapshot() {
    let mut cluster = NetCluster::start(config()).unwrap();
    cluster.kill_worker(0);
    let dead = cluster.workers()[0].id();

    // The dead worker no longer silently vanishes from the merge: its
    // failed scrape is counted and its staleness gauge pinned at -1
    // (never successfully scraped).
    let snap = cluster.metrics_snapshot().unwrap();
    assert!(
        snap.counter_where("metrics_scrape_errors_total", |l| l.worker == Some(dead)) >= 1,
        "killed worker's failed scrape must be counted"
    );
    assert_eq!(
        snap.gauge_where("metrics_scrape_age_ms", |l| l.worker == Some(dead)),
        -1,
        "never-scraped worker must report age -1"
    );
    // Live workers were scraped within this snapshot: age present and
    // recent (the gauge reports milliseconds since the last success).
    for w in cluster.workers().iter().skip(1) {
        let age = snap.gauge_where("metrics_scrape_age_ms", |l| l.worker == Some(w.id()));
        assert!((0..10_000).contains(&age), "live worker {} age {age}ms", w.id());
    }

    // The error count grows on every blind snapshot, so a worker that
    // stays unreachable keeps getting louder rather than disappearing.
    let snap2 = cluster.metrics_snapshot().unwrap();
    assert!(snap2.counter_where("metrics_scrape_errors_total", |l| l.worker == Some(dead)) >= 2);
}

#[test]
fn dedicated_client_snapshot_counts_scrape_errors() {
    let mut cluster = NetCluster::start(config()).unwrap();
    let client = cluster
        .client(ClientLocation::OffCluster)
        .with_rpc_config(octopus_common::RpcConfig::fast_test());
    cluster.kill_worker(0);
    let dead = cluster.workers()[0].id();

    let snap = client.cluster_metrics_snapshot().unwrap();
    assert!(
        snap.counter_where("metrics_scrape_errors_total", |l| l.worker == Some(dead)) >= 1,
        "client-side merge must surface the unreachable worker"
    );
    assert_eq!(snap.gauge_where("metrics_scrape_age_ms", |l| l.worker == Some(dead)), -1);

    // The trace scrape skips the same worker, and says so: an assembly
    // missing a node's spans is distinguishable from a complete one.
    client.cluster_trace_snapshot().unwrap();
    let snap = client.metrics_snapshot();
    assert_eq!(snap.counter_where("trace_scrape_errors_total", |l| l.worker == Some(dead)), 1);
    assert_eq!(snap.counter("trace_scrape_errors_total"), 1, "live workers scrape clean");
}

#[test]
fn remote_fs_dedicated_client_keeps_its_own_registry() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster
        .client(ClientLocation::OffCluster)
        .with_rpc_config(octopus_common::RpcConfig::fast_test());
    client.mkdir("/own").unwrap();
    let snap = client.metrics_snapshot();
    assert!(
        snap.counter_where("rpc_client_requests_total", |l| {
            l.request_type.as_deref() == Some("Mkdir")
        }) >= 1
    );
}
