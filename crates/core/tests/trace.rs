//! Distributed-tracing integration tests: trace context must survive the
//! wire (client→master→worker), RPC retries must appear as sibling spans
//! under the original parent, §4.1 checksum failover must keep the
//! replacement replica read inside the original request's trace — and a
//! request outside any trace must record nothing anywhere.
//!
//! The client records spans only inside a trace its caller opened, so each
//! traced operation here runs under a root of the test's own ([`traced`]),
//! and the assembled tree is picked out by that root's id.

use octopus_common::{
    ClientLocation, ClusterConfig, ReplicationVector, RpcConfig, SpanRecord, Trace, TraceId,
    WorkerId, MB,
};
use octopus_core::net::{faults, FaultAction, RemoteFs};
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

/// Runs `op` under a fresh root span on `client`'s collector, returning
/// what it returned and the root's trace id.
fn traced<T>(client: &RemoteFs, op: impl FnOnce() -> T) -> (T, TraceId) {
    let root = client.trace().root("test.op");
    let out = op();
    (out, root.trace_id())
}

/// The assembled trace `id`, from every node this client can scrape. Every
/// default client in this process records into the one shared collector,
/// and the tests of this file run in parallel: the id is what tells this
/// test's request from a sibling test's.
fn assembled(client: &RemoteFs, id: TraceId) -> Trace {
    let snap = client.cluster_trace_snapshot().unwrap();
    snap.trace(id).unwrap_or_else(|| panic!("no assembled trace {id}"))
}

/// The one span called `name` in `trace`.
fn span<'a>(trace: &'a Trace, name: &str) -> &'a SpanRecord {
    let mut named = trace.spans.iter().filter(|s| s.name == name);
    let one = named.next().unwrap_or_else(|| panic!("no {name} span in trace {}", trace.trace_id));
    assert!(named.next().is_none(), "more than one {name} span");
    one
}

/// Faults all-but-one holders of a file's first block with `action` and
/// re-reads until the traced fan-out (≥2 same-named siblings) appears,
/// returning that read's trace. The master's retrieval policy random
/// tie-breaks replica order per request, so the client may start at the
/// one spared replica on any given read — each round re-arms the faults
/// and retries; with two of three holders faulted a round hits with
/// probability 2/3, so ten rounds are overwhelmingly sufficient.
fn read_until_fanout(
    cluster: &NetCluster,
    client: &RemoteFs,
    path: &str,
    data: &[u8],
    action: FaultAction,
    sibling_name: &str,
) -> Trace {
    let blocks = client.get_file_block_locations(path, 0, u64::MAX).unwrap();
    let holders: Vec<WorkerId> = blocks[0].locations.iter().map(|l| l.worker).collect();
    assert!(holders.len() >= 2, "need >=2 replicas to observe fan-out");
    let victims = &holders[..holders.len() - 1];

    let mut found = None;
    for _ in 0..10 {
        for v in victims {
            let addr = cluster.worker_addr(*v).unwrap();
            if faults::pending(addr) == 0 {
                faults::inject(addr, action.clone());
            }
        }
        let (read, id) = traced(client, || client.read_file(path));
        assert_eq!(read.unwrap(), data);
        let trace = assembled(client, id);
        if sibling_groups(&trace, sibling_name).iter().any(|g| g.len() >= 2) {
            found = Some(trace);
            break;
        }
    }
    for v in victims {
        faults::clear(cluster.worker_addr(*v).unwrap());
    }
    found.unwrap_or_else(|| panic!("no read produced sibling {sibling_name} spans"))
}

/// Same-named spans sharing one parent (retry or failover fan-out).
fn sibling_groups<'a>(trace: &'a Trace, name: &str) -> Vec<Vec<&'a SpanRecord>> {
    let mut groups: Vec<Vec<&SpanRecord>> = Vec::new();
    for s in trace.spans.iter().filter(|s| s.name == name) {
        match groups.iter_mut().find(|g| g[0].parent_span == s.parent_span) {
            Some(g) => g.push(s),
            None => groups.push(vec![s]),
        }
    }
    groups
}

#[test]
fn spans_stitch_across_client_master_and_workers() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(2 * MB as usize + 99, 7);
    let started = std::time::Instant::now();
    let (written, write_id) = traced(&client, || client.write_file("/stitch", &data, rf(3)));
    let wall_us = started.elapsed().as_micros() as u64;
    written.unwrap();
    let (read, read_id) = traced(&client, || client.read_file("/stitch"));
    assert_eq!(read.unwrap(), data);

    let write = assembled(&client, write_id);
    // The caller's root, and the write as its one child.
    assert_eq!(write.root().name, "test.op");
    let file = span(&write, "client.write_file");
    assert_eq!(file.parent_span, write.root().span_id);
    assert_eq!(file.annotation("path"), Some("/stitch"));
    assert_eq!(write.children_of(write.root().span_id).len(), 1);
    let nodes = write.nodes();
    assert!(nodes.contains("client"), "write trace missing client spans: {nodes:?}");
    assert!(nodes.contains("master"), "write trace missing master spans: {nodes:?}");
    assert!(
        nodes.iter().filter(|n| n.starts_with("worker-")).count() >= 2,
        "3-replica pipelined write must touch >=2 workers: {nodes:?}"
    );
    // Every span of the assembled tree carries the root's trace id.
    assert!(write.spans.iter().all(|s| s.trace_id == write.trace_id));

    // The critical path partitions the root exactly: attributed segment
    // time sums to the root's duration, with no gaps or double counting.
    let cp = write.critical_path();
    assert_eq!(cp.attributed_us(), write.duration_us());
    // And the root is the request: what is attributed is the wall time a
    // caller measures around the call (5 %, plus scheduling slack for the
    // call's entry and exit).
    assert!(
        wall_us.abs_diff(cp.attributed_us()) <= wall_us / 20 + 5_000,
        "attributed {} µs of a {wall_us} µs write",
        cp.attributed_us()
    );

    let read = assembled(&client, read_id);
    assert_eq!(span(&read, "client.read_file").parent_span, read.root().span_id);
    assert!(read.nodes().iter().any(|n| n.starts_with("worker-")));
    assert_eq!(read.critical_path().attributed_us(), read.duration_us());
}

#[test]
fn retry_spans_are_siblings_under_the_original_trace() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 3);
    client.write_file("/retry", &data, rf(3)).unwrap();

    // A dropped ReadBlock reply: the idempotent call retries the same
    // worker, so the attempts appear as sibling `rpc.ReadBlock` spans
    // under one `client.read_replica` parent.
    let trace = read_until_fanout(
        &cluster,
        &client,
        "/retry",
        &data,
        FaultAction::DropConnection,
        "rpc.ReadBlock",
    );
    let retried = sibling_groups(&trace, "rpc.ReadBlock")
        .into_iter()
        .find(|g| g.len() >= 2)
        .expect("dropped reply must produce sibling rpc.ReadBlock attempt spans");
    // Both attempts belong to the original trace, under one parent, and
    // are distinguishable by their attempt annotation.
    assert!(retried.iter().all(|s| s.trace_id == trace.trace_id));
    assert_eq!(retried[0].parent_span, retried[1].parent_span);
    let attempts: Vec<_> = retried.iter().filter_map(|s| s.annotation("attempt")).collect();
    assert!(attempts.contains(&"0") && attempts.contains(&"1"), "attempts: {attempts:?}");
}

#[test]
fn checksum_failover_spans_share_the_original_trace_and_parent() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 5);
    client.write_file("/crc", &data, rf(3)).unwrap();

    // A corrupted payload: the checksum rejects the replica and the read
    // fails over, appearing as sibling `client.read_replica` spans.
    let trace = read_until_fanout(
        &cluster,
        &client,
        "/crc",
        &data,
        FaultAction::CorruptPayload,
        "client.read_replica",
    );
    let replicas = sibling_groups(&trace, "client.read_replica")
        .into_iter()
        .find(|g| g.len() >= 2)
        .expect("checksum failover must produce sibling read_replica spans");
    assert!(replicas.iter().all(|s| s.trace_id == trace.trace_id));
    let read = span(&trace, "client.read_file");
    assert!(replicas.iter().all(|s| s.parent_span == read.span_id));
    // The failed replica attempt is annotated; the successful one is not.
    assert!(replicas.iter().any(|s| s.annotation("error").is_some()));
    assert!(replicas.iter().any(|s| s.annotation("error").is_none()));
}

#[test]
fn trace_spans_dropped_total_is_stamped_from_the_collector() {
    use octopus_common::trace::TraceCollector;

    // Overflowing a bounded collector counts the evicted spans.
    let tc = TraceCollector::with_capacity("test", 4);
    for i in 0..10 {
        let _s = tc.root(format!("span-{i}"));
    }
    assert!(tc.dropped() > 0, "overflowing the ring must count drops");

    // The metrics scrape stamps the same counter, one series per node, so
    // span loss is visible without pulling a trace snapshot.
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize / 2, 11);
    client.write_file("/drops", &data, rf(2)).unwrap();
    assert_eq!(client.read_file("/drops").unwrap(), data);
    let snap = client.cluster_metrics_snapshot().unwrap();
    let series: Vec<_> =
        snap.counters.iter().filter(|s| s.name == "trace_spans_dropped_total").collect();
    assert_eq!(
        series.len(),
        1 + cluster.workers().len(),
        "one stamped series for the master plus one per scraped worker: {series:?}"
    );
    // Dropped counts only grow; the stamped value cannot exceed what the
    // collectors report right now.
    let stamped: u64 = series.iter().map(|s| s.value).sum();
    let current: u64 = cluster.master().trace().dropped()
        + cluster.workers().iter().map(|w| w.trace().dropped()).sum::<u64>();
    assert!(stamped <= current, "stamped {stamped} > live {current}");
}

#[test]
fn untraced_requests_still_use_the_bare_wire_format() {
    // Old-format compatibility: requests issued with no active span (e.g.
    // heartbeats, background traffic) carry no envelope, and a fresh
    // cluster serves them — decode of both forms coexists on one socket.
    let cluster = NetCluster::start(config()).unwrap();
    // A client with a collector of its own: the process-shared one takes
    // the other tests' traced requests.
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::default());
    // No call opens a root span of its own, so every one goes enveloped
    // only when nested under a trace its caller opened — bare here.
    client.mkdir("/plain").unwrap();
    assert!(client.status("/plain").unwrap().is_dir);

    // The data path too: a single-block file (the caller's lane alone) and
    // a multi-block one (spawned lanes too), written, read and deleted.
    let small = payload(16 * 1024, 13);
    let large = payload(2 * MB as usize + 99, 17);
    for (path, data) in [("/plain/small", &small), ("/plain/large", &large)] {
        client.write_file(path, data, rf(3)).unwrap();
        assert_eq!(&client.read_file(path).unwrap(), data);
        client.delete(path, false).unwrap();
    }

    // Nothing was recorded on any node, so nothing was dropped either.
    assert_eq!(client.trace().len(), 0, "client spans: {:?}", client.trace().snapshot());
    assert_eq!(cluster.master().trace().len(), 0, "{:?}", cluster.master().trace().snapshot());
    for w in cluster.workers() {
        assert_eq!(w.trace().len(), 0, "worker {}: {:?}", w.id(), w.trace().snapshot());
    }
    let metrics = client.cluster_metrics_snapshot().unwrap();
    let dropped: Vec<_> =
        metrics.counters.iter().filter(|s| s.name == "trace_spans_dropped_total").collect();
    assert_eq!(dropped.len(), 1 + cluster.workers().len(), "{dropped:?}");
    assert!(dropped.iter().all(|s| s.value == 0), "{dropped:?}");
}
