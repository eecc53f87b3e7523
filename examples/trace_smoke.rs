//! Tracing smoke test: boots a networked cluster, performs a write and a
//! read inside traces it opens, assembles the read's distributed trace from
//! every node's collector, and dumps the span tree as JSONL. CI runs this
//! and greps the dump for a stitched client→master→worker tree under the
//! `trace_smoke.read` root (see `scripts/ci.sh`).
//!
//! Run with: `cargo run --release --example trace_smoke`

use octopusfs::common::TraceSnapshot;
use octopusfs::core::net::NetCluster;
use octopusfs::{ClientLocation, ClusterConfig, ReplicationVector};

fn main() -> octopusfs::Result<()> {
    let mut config = ClusterConfig::test_cluster(4, 64 << 20, 1 << 20);
    config.heartbeat_ms = 50;
    let cluster = NetCluster::start(config)?;
    let client = cluster.client(ClientLocation::OffCluster);

    // The client records spans only inside a trace its caller opened, so
    // each operation runs under a root of its own.
    let data: Vec<u8> = (0..2_000_000u32).map(|i| (i % 241) as u8).collect();
    {
        let _root = client.trace().root("trace_smoke.write");
        client.write_file("/smoke", &data, ReplicationVector::from_replication_factor(2))?;
    }
    let read_id = {
        let root = client.trace().root("trace_smoke.read");
        assert_eq!(client.read_file("/smoke")?, data);
        root.trace_id()
    };

    // Merge the client's collector with the master's and every worker's
    // (over the Trace RPC), then pick the read's assembled trace by its
    // root's id.
    let snap = client.cluster_trace_snapshot()?;
    let read = snap.trace(read_id).expect("assembled read trace");

    // The tree is stitched across roles: the client root, the master's
    // metadata spans, and worker data-server spans share one trace id.
    assert_eq!(read.root().name, "trace_smoke.read");
    assert!(read.spans.iter().any(|s| s.name == "client.read_file"), "missing client.read_file");
    assert!(read.spans.iter().any(|s| s.node == "master"), "missing master spans");
    assert!(read.spans.iter().any(|s| s.node.starts_with("worker-")), "missing worker spans");
    let cp = read.critical_path();
    assert!(cp.total_us > 0);
    eprintln!("{}", cp.render());

    std::fs::create_dir_all("results/traces")?;
    let out = "results/traces/smoke.jsonl";
    std::fs::write(out, TraceSnapshot { spans: snap.spans.clone() }.to_jsonl())?;
    println!("dumped {} spans ({} traces) to {out}", snap.spans.len(), snap.traces().len());
    Ok(())
}
