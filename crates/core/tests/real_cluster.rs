//! End-to-end tests of the in-process cluster: real bytes through the
//! write pipeline, checksum-verified reads with failover, replication
//! repair, and the Table 1 API surface.

use octopus_common::{
    ClientLocation, ClusterConfig, FsError, ReplicationVector, StorageTier, WorkerId, GB, MB,
};
use octopus_core::{Cluster, RemoteFs};
use octopus_master::TierQuota;

fn test_config() -> ClusterConfig {
    // 6 workers, 2 racks, 64 MB per medium, 1 MB blocks.
    ClusterConfig::test_cluster(6, 64 * MB, MB)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

#[test]
fn write_read_multi_block_round_trip() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/data").unwrap();
    // 3.5 blocks worth of data.
    let data = payload((3 * MB + MB / 2) as usize, 42);
    client.write_file("/data/f", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    let read = client.read_file("/data/f").unwrap();
    assert_eq!(read, data);

    let st = client.status("/data/f").unwrap();
    assert_eq!(st.len, data.len() as u64);
    assert!(st.complete);

    let blocks = client.get_file_block_locations("/data/f", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 4);
    for b in &blocks {
        assert_eq!(b.locations.len(), 3);
    }
}

/// `read_at` of `n` bytes at `start`, cut to what it read.
fn range_of(client: &RemoteFs, path: &str, start: u64, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    let got = client.read_at(path, start, &mut buf).unwrap();
    buf.truncate(got);
    buf
}

#[test]
fn range_reads() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload((2 * MB + 100) as usize, 1);
    client.write_file("/f", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    // Within one block.
    assert_eq!(range_of(&client, "/f", 10, 100), &data[10..110]);
    // Spanning the block boundary.
    let start = MB as usize - 50;
    assert_eq!(range_of(&client, "/f", start as u64, 100), &data[start..start + 100]);
    // Tail clamped to EOF.
    let tail = range_of(&client, "/f", data.len() as u64 - 10, 1000);
    assert_eq!(tail, &data[data.len() - 10..]);
    // Past EOF → empty.
    assert!(range_of(&client, "/f", data.len() as u64 + 5, 10).is_empty());
}

#[test]
fn pinned_tiers_are_respected_end_to_end() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 7);
    client.write_file("/pinned", &data, ReplicationVector::msh(1, 1, 1)).unwrap();
    let blocks = client.get_file_block_locations("/pinned", 0, u64::MAX).unwrap();
    let mut tiers: Vec<u8> = blocks[0].locations.iter().map(|l| l.tier.0).collect();
    tiers.sort_unstable();
    assert_eq!(tiers, vec![0, 1, 2], "one replica on each of Memory/SSD/HDD");
}

#[test]
fn read_fails_over_when_worker_dies() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 9);
    client.write_file("/ha", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/ha", 0, u64::MAX).unwrap();
    // Kill the best replica's worker; the read must still succeed.
    let first = blocks[0].locations[0];
    cluster.kill_worker(first.worker);
    assert_eq!(client.read_file("/ha").unwrap(), data);
}

#[test]
fn read_fails_when_all_replicas_lost() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(1024, 3);
    client.write_file("/gone", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let blocks = client.get_file_block_locations("/gone", 0, u64::MAX).unwrap();
    for l in &blocks[0].locations {
        cluster.kill_worker(l.worker);
    }
    assert!(matches!(
        client.read_file("/gone"),
        Err(FsError::BlockUnavailable(_)) | Err(FsError::UnknownWorker(_))
    ));
}

#[test]
fn replication_monitor_heals_lost_replicas() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    client.write_file("/heal", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0].worker;
    cluster.kill_worker(victim);

    let executed = cluster.run_replication_round().unwrap();
    assert!(executed >= 1);
    let blocks = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    assert_eq!(blocks[0].locations.len(), 3, "replica count restored");
    for l in &blocks[0].locations {
        assert_ne!(l.worker, victim);
    }
    assert_eq!(client.read_file("/heal").unwrap(), data);
}

#[test]
fn set_replication_moves_between_tiers() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 13);
    client.write_file("/move", &data, ReplicationVector::msh(0, 0, 3)).unwrap();

    // Move one replica HDD → Memory (the paper's prefetch-to-memory).
    client.set_replication("/move", ReplicationVector::msh(1, 0, 2)).unwrap();
    // One round creates the memory copy; the next trims the extra HDD one.
    cluster.run_replication_round().unwrap();
    cluster.run_replication_round().unwrap();

    let blocks = client.get_file_block_locations("/move", 0, u64::MAX).unwrap();
    let tiers: Vec<u8> = blocks[0].locations.iter().map(|l| l.tier.0).collect();
    assert_eq!(tiers.iter().filter(|&&t| t == 0).count(), 1, "one memory replica");
    assert_eq!(tiers.iter().filter(|&&t| t == 2).count(), 2, "two HDD replicas");
    assert_eq!(client.read_file("/move").unwrap(), data);
}

#[test]
fn delete_frees_worker_storage() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload((2 * MB) as usize, 17);
    client.write_file("/tmp", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let used: u64 = cluster.workers().iter().map(|w| w.used()).sum();
    assert_eq!(used, 4 * MB); // 2 blocks × 2 replicas
    client.delete("/tmp", false).unwrap();
    let used: u64 = cluster.workers().iter().map(|w| w.used()).sum();
    assert_eq!(used, 0);
}

#[test]
fn rename_preserves_data() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(4096, 19);
    client.mkdir("/a").unwrap();
    client.write_file("/a/x", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    client.rename("/a/x", "/a/y").unwrap();
    assert!(client.status("/a/x").is_err());
    assert_eq!(client.read_file("/a/y").unwrap(), data);
}

#[test]
fn tier_reports_reflect_usage() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let before = client.get_storage_tier_reports().unwrap();
    let mem_before = before.iter().find(|r| r.name == "Memory").unwrap().stats.remaining;

    let data = payload(MB as usize, 23);
    client.write_file("/m", &data, ReplicationVector::msh(1, 0, 1)).unwrap();
    cluster.pump_heartbeats();

    let after = client.get_storage_tier_reports().unwrap();
    let mem_after = after.iter().find(|r| r.name == "Memory").unwrap().stats.remaining;
    assert_eq!(mem_before - mem_after, MB);
    assert!(after.iter().any(|r| r.name == "SSD"));
    assert!(after.iter().any(|r| r.name == "HDD"));
}

#[test]
fn client_local_write_places_first_replica_locally() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(2)));
    let data = payload(MB as usize, 29);
    client.write_file("/local", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/local", 0, u64::MAX).unwrap();
    assert!(
        blocks[0].locations.iter().any(|l| l.worker == WorkerId(2)),
        "writer-local replica expected"
    );
}

#[test]
fn quota_propagates_to_client_writes() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/tenant").unwrap();
    client.set_quota("/tenant", TierQuota::limit_tier(0, MB)).unwrap();
    let data = payload((2 * MB) as usize, 31);
    // 2 MB pinned to memory exceeds the 1 MB quota on the second block.
    let err = client.write_file("/tenant/big", &data, ReplicationVector::msh(1, 0, 1));
    assert!(matches!(err, Err(FsError::QuotaExceeded(_))));
}

#[test]
fn revive_worker_restores_replicas_via_block_report() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 37);
    client.write_file("/rv", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let blocks = client.get_file_block_locations("/rv", 0, u64::MAX).unwrap();
    let w = blocks[0].locations[0].worker;
    cluster.kill_worker(w);
    let after = client.get_file_block_locations("/rv", 0, u64::MAX).unwrap();
    assert_eq!(after[0].locations.len(), 1);
    cluster.revive_worker(w).unwrap();
    let revived = client.get_file_block_locations("/rv", 0, u64::MAX).unwrap();
    assert_eq!(revived[0].locations.len(), 2, "block report restored the replica");
}

#[test]
fn paper_cluster_config_boots() {
    // Scaled-down paper cluster (capacities only) boots and serves I/O.
    let mut config = ClusterConfig::paper_cluster_scaled(0.001);
    config.block_size = MB;
    let cluster = Cluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 43);
    client.write_file("/p", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    assert_eq!(client.read_file("/p").unwrap(), data);
    let reports = client.get_storage_tier_reports().unwrap();
    assert_eq!(reports.len(), 3);
    let hdd = reports.iter().find(|r| r.name == "HDD").unwrap();
    assert_eq!(hdd.stats.num_media, 27);
    assert!(hdd.stats.capacity < GB * 27);
}

#[test]
fn writer_buffers_partial_blocks() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let mut w =
        client.create("/stream", ReplicationVector::from_replication_factor(2), None).unwrap();
    let chunk = payload(300_000, 47);
    for _ in 0..8 {
        w.write(&chunk).unwrap(); // 2.4 MB total in odd-sized chunks
    }
    w.close().unwrap();
    let expected: Vec<u8> = (0..8).flat_map(|_| chunk.clone()).collect();
    assert_eq!(client.read_file("/stream").unwrap(), expected);
    let blocks = client.get_file_block_locations("/stream", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 3); // 1 MB + 1 MB + 0.4 MB
    assert_eq!(blocks[2].block.len, expected.len() as u64 - 2 * MB);
}

#[test]
fn memory_tier_pinning_observable_in_stores() {
    let cluster = Cluster::start(test_config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(1024, 53);
    client.write_file("/memfile", &data, ReplicationVector::msh(2, 0, 0)).unwrap();
    // Count replicas actually resident on memory media across workers.
    let mem_tier = StorageTier::Memory.id();
    let mut resident = 0;
    for w in cluster.workers() {
        for m in w.media() {
            if m.tier == mem_tier {
                resident += m.store.blocks().len();
            }
        }
    }
    assert_eq!(resident, 2);
}
