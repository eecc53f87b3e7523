//! Tests of §2.4's integrated remote storage: the "Remote" tier. The
//! stand-alone mode (an external store mounted as a subtree) is not
//! reproduced (DESIGN.md §1).

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, StorageTier, MB};
use octopus_core::{Cluster, SimCluster};

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
