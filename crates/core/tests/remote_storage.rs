//! Tests of the two §2.4 remote-storage modes: the integrated "Remote"
//! tier and stand-alone external mounts.

use std::sync::Arc;

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, StorageTier, MB};
use octopus_core::{Cluster, SimCluster};
use octopus_master::InMemoryCatalog;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

fn four_tier_config() -> ClusterConfig {
    let mut c = ClusterConfig::paper_cluster_with_remote_scaled(0.001);
    c.block_size = MB;
    c
}

#[test]
fn integrated_remote_tier_stores_pinned_replicas() {
    let cluster = Cluster::start(four_tier_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 1);
    // Archive: one local HDD replica plus two on the remote tier.
    let rv = ReplicationVector::mshru(0, 0, 1, 2, 0);
    client.write_file("/archive", &data, rv).unwrap();
    let blocks = client.get_file_block_locations("/archive", 0, u64::MAX).unwrap();
    let mut tiers: Vec<u8> = blocks[0].locations.iter().map(|l| l.tier.0).collect();
    tiers.sort_unstable();
    assert_eq!(tiers, vec![2, 3, 3]);
    assert_eq!(client.read_file("/archive").unwrap(), data);

    let reports = client.get_storage_tier_reports().unwrap();
    assert_eq!(reports.len(), 4);
    let remote = reports.iter().find(|r| r.name == "Remote").unwrap();
    assert_eq!(remote.stats.num_media, 9);
    assert!(!remote.volatile);
}

#[test]
fn archival_move_to_remote_tier() {
    // The HDFS-archival use case (§8's storage policies, done with
    // vectors): cold data migrates HDD → Remote via setReplication.
    let cluster = Cluster::start(four_tier_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 2);
    client.write_file("/cold", &data, ReplicationVector::msh(0, 0, 3)).unwrap();
    client.set_replication("/cold", ReplicationVector::mshru(0, 0, 1, 2, 0)).unwrap();
    cluster.run_replication_round().unwrap();
    cluster.run_replication_round().unwrap();
    let blocks = client.get_file_block_locations("/cold", 0, u64::MAX).unwrap();
    let remotes = blocks[0].locations.iter().filter(|l| l.tier == StorageTier::Remote.id()).count();
    assert_eq!(remotes, 2);
    assert_eq!(client.read_file("/cold").unwrap(), data);
}

#[test]
fn simulated_remote_tier_is_slow() {
    // In the flow model a remote-pinned write runs at the remote media
    // rate (85 MB/s), far below HDD pipelines.
    let mut c = ClusterConfig::paper_cluster_with_remote_scaled(0.01);
    c.block_size = MB;
    let mut sim = SimCluster::new(c).unwrap();
    sim.submit_write(
        "/r",
        20 * MB,
        ReplicationVector::mshru(0, 0, 0, 3, 0),
        ClientLocation::OffCluster,
    )
    .unwrap();
    let t = sim.run_to_completion()[0].throughput_mbps();
    assert!((t - 85.0).abs() < 5.0, "remote pipeline ≈ 85 MB/s, got {t:.1}");
}

#[test]
fn standalone_mount_unified_namespace() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(4, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);

    let mut catalog = InMemoryCatalog::new("warehouse");
    catalog.insert("tables/orders.parquet", payload(500_000, 7));
    catalog.insert("tables/lineitem.parquet", payload(800_000, 8));
    catalog.insert("manifest.json", b"{}".to_vec());
    cluster.master().mount_external("/warehouse", Arc::new(catalog)).unwrap();

    // Unified view: listing and status work through the mount.
    let entries = client.list("/warehouse").unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["manifest.json", "tables"]);
    let st = client.status("/warehouse/tables/orders.parquet").unwrap();
    assert!(!st.is_dir);
    assert_eq!(st.len, 500_000);

    // Reads are served by the catalog.
    assert_eq!(client.read_file("/warehouse/manifest.json").unwrap(), b"{}");

    // Import pulls an external file into the cluster tiers.
    client.mkdir("/hot").unwrap();
    client
        .import_external(
            "/warehouse/tables/orders.parquet",
            "/hot/orders",
            ReplicationVector::msh(1, 0, 2),
        )
        .unwrap();
    let blocks = client.get_file_block_locations("/hot/orders", 0, u64::MAX).unwrap();
    assert!(!blocks.is_empty());
    assert_eq!(
        client.read_file("/hot/orders").unwrap(),
        client.read_file("/warehouse/tables/orders.parquet").unwrap()
    );
}

#[test]
fn mount_point_conflicts_and_misses() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(3, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/existing").unwrap();
    // Cannot mount over an existing namespace path.
    let err = cluster.master().mount_external("/existing", Arc::new(InMemoryCatalog::new("x")));
    assert!(matches!(err, Err(FsError::AlreadyExists(_))));

    cluster.master().mount_external("/ext", Arc::new(InMemoryCatalog::new("y"))).unwrap();
    assert_eq!(cluster.master().mount_points(), vec!["/ext".to_string()]);
    assert!(cluster.master().is_external("/ext/file"));
    assert!(!cluster.master().is_external("/elsewhere"));
    assert!(matches!(client.read_file("/ext/missing"), Err(FsError::NotFound(_))));
}

#[test]
fn external_range_reads() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(3, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let mut catalog = InMemoryCatalog::new("c");
    catalog.insert("blob", (0u8..200).collect());
    cluster.master().mount_external("/ext", Arc::new(catalog)).unwrap();
    assert_eq!(client.read_range("/ext/blob", 10, 5).unwrap(), vec![10, 11, 12, 13, 14]);
    assert_eq!(client.read_range("/ext/blob", 195, 100).unwrap().len(), 5);
    assert!(client.read_range("/ext/blob", 500, 10).unwrap().is_empty());
}
