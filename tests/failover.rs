//! Master fault tolerance end to end (paper §2.1): edit-log replay, backup
//! master mirroring, checkpoint + takeover, and block-report repopulation
//! after a failover.

use octopusfs::master::{BackupMaster, ClientId, EditLog, Master};
use octopusfs::{ClientLocation, Cluster, ClusterConfig, ReplicationVector};

fn config() -> ClusterConfig {
    ClusterConfig::test_cluster(4, 64 << 20, 1 << 20)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopusfs::common::BlockData::Real(b) =
        octopusfs::common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

#[test]
fn backup_takeover_preserves_namespace_and_data() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(3 << 20, 5);
    client.mkdir("/prod").unwrap();
    client.write_file("/prod/db", &data, ReplicationVector::msh(0, 1, 2)).unwrap();

    // The backup tails the primary's edit log.
    let mut backup = BackupMaster::new();
    backup.sync_from(cluster.master()).unwrap();
    let image = backup.create_checkpoint();

    // "Fail" the primary: build a new master from the backup's checkpoint.
    let log = EditLog::from_bytes(image).unwrap();
    let recovered = Master::with_log(cluster.master().config().clone(), log).unwrap();
    let st = recovered.status("/prod/db").unwrap();
    assert_eq!(st.len, data.len() as u64);
    assert_eq!(st.rv, ReplicationVector::msh(0, 1, 2));

    // Locations come back via block reports from the (still running)
    // workers.
    for w in cluster.workers() {
        recovered.register_worker(w.id(), w.rack(), w.net_bps());
        let (stats, conns) = w.heartbeat_stats();
        recovered.heartbeat(w.id(), stats, conns, &[]).unwrap();
        recovered.block_report(w.id(), &w.block_report()).unwrap();
    }
    let blocks = recovered
        .get_file_block_locations("/prod/db", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(blocks.len(), 3);
    for b in &blocks {
        assert_eq!(b.locations.len(), 3, "all replicas re-registered");
    }
}

#[test]
fn file_backed_edit_log_survives_restart() {
    let dir = std::env::temp_dir().join(format!(
        "octopus_failover_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("edits.log");

    {
        let master = Master::with_log(config(), EditLog::open(&log_path).unwrap()).unwrap();
        master.mkdir("/a/b").unwrap();
        master
            .create_file_as(
                "/a/b/f",
                ReplicationVector::from_replication_factor(2),
                None,
                ClientId(1),
            )
            .unwrap();
        master.complete_file_as("/a/b/f", ClientId(1)).unwrap();
        master.rename("/a/b/f", "/a/g").unwrap();
    }
    // Restart: the log is replayed from disk.
    let master2 = Master::with_log(config(), EditLog::open(&log_path).unwrap()).unwrap();
    assert!(master2.status("/a/g").unwrap().complete);
    assert!(master2.status("/a/b/f").is_err());
    // The recovery is on the registry: four ops, of which the create walked
    // from `/` and the close found the file the create had just made.
    let recovery = master2.metrics().snapshot();
    assert_eq!(recovery.counter("master_replay_ops_total"), 4);
    assert_eq!(recovery.counter("master_replay_walks_total"), 1);
    assert_eq!(recovery.counter("master_replay_path_hits_total"), 1);
    assert_eq!(recovery.counter("master_replay_parent_hits_total"), 0);
    std::fs::remove_dir_all(dir).ok();
}

/// A boot from a file with records also reports how many creates linked at
/// the cursor's finger.
#[test]
fn a_file_log_boot_reports_finger_hits() {
    let dir = std::env::temp_dir().join(format!("octopus_finger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("edits.log");
    {
        let master = Master::with_log(config(), EditLog::open(&log_path).unwrap()).unwrap();
        master.mkdir("/d").unwrap();
        for name in ["/d/a", "/d/b", "/d/c"] {
            master
                .create_file_as(
                    name,
                    ReplicationVector::from_replication_factor(1),
                    None,
                    ClientId(1),
                )
                .unwrap();
            master.complete_file_as(name, ClientId(1)).unwrap();
        }
    }
    let recovery = Master::with_log(config(), EditLog::open(&log_path).unwrap()).unwrap();
    let recovery = recovery.metrics().snapshot();
    assert_eq!(recovery.counter("master_replay_ops_total"), 7);
    // `a` went into an empty directory; `b` and `c` each linked after the
    // create before them.
    assert_eq!(recovery.counter("master_replay_finger_hits_total"), 2);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpoint_plus_log_tail_recovery() {
    // The paper's recovery model: start from the latest checkpoint, then
    // replay the edit-log tail.
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/cp").unwrap();

    let mut backup = BackupMaster::new();
    backup.sync_from(cluster.master()).unwrap();
    let checkpoint = backup.create_checkpoint();
    let tail_from = cluster.master().edit_count();

    // More activity after the checkpoint.
    client
        .write_file("/cp/late", &payload(1 << 20, 9), ReplicationVector::from_replication_factor(2))
        .unwrap();

    // Recovery = checkpoint ops + the log tail, replayed together.
    let mut log = EditLog::from_bytes(checkpoint).unwrap();
    for op in cluster.master().edit_ops_since(tail_from).unwrap() {
        log.append(op).unwrap();
    }
    let recovered = Master::with_log(cluster.master().config().clone(), log).unwrap();
    assert_eq!(
        recovered.status("/cp/late").unwrap().len,
        1 << 20,
        "tail replay restored the post-checkpoint file"
    );
    assert!(recovered.status("/cp").unwrap().is_dir);
}
