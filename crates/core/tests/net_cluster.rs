//! End-to-end tests of the networked deployment: real TCP, real pipeline
//! forwarding between worker data servers, real heartbeat threads.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, WorkerId, MB};
use octopus_core::net::proto::MasterRequest;
use octopus_core::net::{faults, FaultAction, Round, Transport};
use octopus_core::{NetCluster, StorageMode};
use octopus_master::EditLog;

fn config() -> ClusterConfig {
    // Fast heartbeats so background threads exercise the path during the
    // test's lifetime.
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

#[test]
fn networked_write_read_lifecycle() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);

    client.mkdir("/data").unwrap();
    let data = payload((2 * MB + 777) as usize, 1);
    let requests = |name: &'static str| {
        cluster
            .master()
            .metrics()
            .snapshot()
            .counter_where("master_requests_total", |l| l.request_type.as_deref() == Some(name))
    };
    let commits = requests("CommitReplica");
    client.write_file("/data/f", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    // The pipeline stored 3 replicas per block, and each head committed
    // its block over RPC once.
    let blocks = client.get_file_block_locations("/data/f", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 3);
    for b in &blocks {
        assert_eq!(b.locations.len(), 3);
    }
    assert_eq!(requests("CommitReplica") - commits, 3, "one commit per block");
    assert_eq!(requests("AbortReplica"), 0);

    // Read back over the network.
    assert_eq!(client.read_file("/data/f").unwrap(), data);

    // Namespace operations.
    let st = client.status("/data/f").unwrap();
    assert_eq!(st.len, data.len() as u64);
    assert!(st.complete);
    let ls = client.list("/data").unwrap();
    assert_eq!(ls.len(), 1);
    assert_eq!(ls[0].name, "f");

    client.rename("/data/f", "/data/g").unwrap();
    assert_eq!(client.read_file("/data/g").unwrap(), data);

    // Tier reports over the wire.
    let reports = client.get_storage_tier_reports().unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().any(|r| r.name == "Memory" && r.volatile));

    // Delete invalidates replicas at the workers.
    client.delete("/data/g", false).unwrap();
    assert!(matches!(client.read_file("/data/g"), Err(FsError::NotFound(_))));
    let stored: u64 = cluster.workers().iter().map(|w| w.used()).sum();
    assert_eq!(stored, 0);
}

/// A whole-file read and a positional one across a block boundary: the
/// blocks over the range give the layout, and no `Status` goes first.
#[test]
fn a_read_is_one_master_rpc() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload((2 * MB + 5) as usize, 9);
    client.write_file("/f", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let requests = |name: &'static str| {
        cluster
            .master()
            .metrics()
            .snapshot()
            .counter_where("master_requests_total", |l| l.request_type.as_deref() == Some(name))
    };
    let (status, located) = (requests("Status"), requests("GetBlockLocations"));
    assert_eq!(client.read_file("/f").unwrap(), data);
    assert_eq!(requests("Status") - status, 0, "the located blocks give the layout");
    assert_eq!(requests("GetBlockLocations") - located, 1);

    let (status, located) = (requests("Status"), requests("GetBlockLocations"));
    let (start, mut buf) = (MB as usize / 2, vec![0u8; MB as usize]);
    assert_eq!(client.read_at("/f", start as u64, &mut buf).unwrap(), buf.len());
    assert_eq!(buf, &data[start..start + MB as usize]);
    assert_eq!(requests("Status") - status, 0, "read_at sends no Status either");
    assert_eq!(requests("GetBlockLocations") - located, 1);
}

#[test]
fn pinned_tiers_respected_over_the_network() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 2);
    client.write_file("/pin", &data, ReplicationVector::msh(1, 1, 1)).unwrap();
    let blocks = client.get_file_block_locations("/pin", 0, u64::MAX).unwrap();
    let mut tiers: Vec<u8> = blocks[0].locations.iter().map(|l| l.tier.0).collect();
    tiers.sort_unstable();
    assert_eq!(tiers, vec![0, 1, 2]);
    assert_eq!(client.read_file("/pin").unwrap(), data);
}

#[test]
fn remote_errors_preserve_variants() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    assert!(matches!(client.read_file("/nope"), Err(FsError::NotFound(_))));
    client
        .write_file("/dup", &payload(1024, 3), ReplicationVector::from_replication_factor(2))
        .unwrap();
    assert!(matches!(
        client.write_file("/dup", &payload(1024, 4), ReplicationVector::from_replication_factor(2)),
        Err(FsError::AlreadyExists(_))
    ));
    // An invalid vector is rejected by the remote master with the right
    // variant too.
    assert!(matches!(
        client.set_replication("/dup", ReplicationVector::EMPTY),
        Err(FsError::InvalidReplicationVector(_))
    ));
}

#[test]
fn read_fails_over_when_a_data_server_loses_the_replica() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 5);
    client.write_file("/ha", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/ha", 0, u64::MAX).unwrap();
    // Remove the best replica behind the system's back.
    let victim = blocks[0].locations[0];
    cluster
        .workers()
        .iter()
        .find(|w| w.id() == victim.worker)
        .unwrap()
        .delete_block(victim.media, blocks[0].block.id)
        .unwrap();
    assert_eq!(client.read_file("/ha").unwrap(), data, "failover to the next replica");
}

#[test]
fn writer_local_client_gets_local_first_replica() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(1)));
    client
        .write_file(
            "/local",
            &payload(MB as usize, 6),
            ReplicationVector::from_replication_factor(3),
        )
        .unwrap();
    let blocks = client.get_file_block_locations("/local", 0, u64::MAX).unwrap();
    assert!(blocks[0].locations.iter().any(|l| l.worker == WorkerId(1)));
}

#[test]
fn heartbeat_threads_keep_master_view_fresh() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/hb", &payload(MB as usize, 7), ReplicationVector::msh(0, 0, 2)).unwrap();
    // Wait a few heartbeat intervals; the master's tier report must show
    // the consumed HDD capacity without any manual pumping.
    std::thread::sleep(std::time::Duration::from_millis(120));
    let reports = client.get_storage_tier_reports().unwrap();
    let hdd = reports.iter().find(|r| r.name == "HDD").unwrap();
    assert_eq!(hdd.stats.capacity - hdd.stats.remaining, 2 * MB);
}

#[test]
fn concurrent_remote_writers_one_winner() {
    let cluster = NetCluster::start(config()).unwrap();
    let winners = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for seed in 0..6u64 {
            let client = cluster.client(ClientLocation::OffCluster);
            let winners = &winners;
            s.spawn(move || {
                let r = client.write_file(
                    "/contended",
                    &payload((MB + seed) as usize, seed),
                    ReplicationVector::from_replication_factor(2),
                );
                match r {
                    Ok(()) => {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(FsError::AlreadyExists(_)) | Err(FsError::LeaseConflict(_)) => {}
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            });
        }
    });
    assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The surviving file is complete and fully readable.
    let client = cluster.client(ClientLocation::OffCluster);
    let st = client.status("/contended").unwrap();
    assert!(st.complete);
    assert_eq!(client.read_file("/contended").unwrap().len() as u64, st.len);
}

#[test]
fn remote_lease_blocks_second_writer_on_open_file() {
    let cluster = NetCluster::start(config()).unwrap();
    // Alice (holder 777) opens a file directly at the master and leaves it
    // open; a remote client can neither recreate nor close it.
    cluster
        .master()
        .create_file_as(
            "/open",
            ReplicationVector::from_replication_factor(2),
            None,
            octopus_master::ClientId(777),
        )
        .unwrap();
    let bob = cluster.client(ClientLocation::OffCluster);
    assert!(matches!(
        bob.write_file("/open", &payload(1024, 1), ReplicationVector::from_replication_factor(2)),
        Err(FsError::AlreadyExists(_)) | Err(FsError::LeaseConflict(_))
    ));
}

#[test]
fn networked_backup_tails_and_takes_over() {
    use octopus_core::net::proto::{MasterRequest, MasterResponse};
    use octopus_core::net::worker_server::call_master;
    use octopus_core::net::NetBackup;

    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    client.mkdir("/prod").unwrap();
    client.write_file("/prod/db", &data, ReplicationVector::from_replication_factor(2)).unwrap();

    // The backup tails the primary over RPC.
    let backup = NetBackup::start(cluster.master_addr(), 10).unwrap();
    backup.sync_now(cluster.master_addr()).unwrap();
    assert!(backup.applied() >= 4, "mkdir + create + block + close");

    // What it tails is the log's own framing: an `Edits` reply decodes as
    // a record stream, into the ops the primary logged.
    let Ok(MasterResponse::Edits(framed)) =
        call_master(cluster.master_addr(), &MasterRequest::EditsSince(0))
    else {
        panic!("EditsSince(0) did not answer Edits");
    };
    let shipped = octopus_master::editlog::decode_stream(&framed).unwrap();
    assert_eq!(shipped, cluster.master().edit_ops_since(0).unwrap());
    assert_eq!(shipped[0], octopus_master::EditOp::Mkdir { path: "/prod".into() });

    // More activity lands via the background tailing thread.
    client
        .write_file("/prod/late", &payload(1024, 12), ReplicationVector::from_replication_factor(2))
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while backup.applied() < 7 {
        assert!(std::time::Instant::now() < deadline, "tail never caught up");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Failover: the backup becomes primary; workers re-report blocks.
    let new_master = backup.take_over(cluster.master().config().clone()).unwrap();
    assert!(new_master.in_safe_mode());
    for w in cluster.workers() {
        new_master.register_worker(w.id(), w.rack(), w.net_bps());
        let (stats, conns) = w.heartbeat_stats();
        new_master.heartbeat(w.id(), stats, conns, &[]).unwrap();
        new_master.block_report(w.id(), &w.block_report()).unwrap();
    }
    assert!(!new_master.in_safe_mode());
    let st = new_master.status("/prod/db").unwrap();
    assert_eq!(st.len, data.len() as u64);
    let blocks = new_master
        .get_file_block_locations("/prod/db", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(blocks[0].locations.len(), 2);
}

#[test]
fn networked_scrub_and_replication_heal_corruption() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 20);
    client.write_file("/heal", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    // Corrupt one replica behind the system's back.
    let blocks = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0];
    let worker = cluster.workers().iter().find(|w| w.id() == victim.worker).unwrap();
    worker
        .medium(victim.media)
        .unwrap()
        .store
        .as_any()
        .downcast_ref::<octopus_storage::MemoryStore>()
        .unwrap()
        .corrupt(blocks[0].block.id)
        .unwrap();

    // Scrub over RPC finds and drops it; the replication round re-creates
    // it by pulling from a healthy peer over TCP.
    let round = cluster.run_scrub_round().unwrap();
    assert_eq!(round.corrupt_total(), 1);
    assert!(round.unreachable().is_empty());
    let after = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    assert_eq!(after[0].locations.len(), 2);
    let outcome = cluster.run_replication_round().unwrap();
    assert!(outcome.attempted >= 1);
    assert!(outcome.all_ok());
    let healed = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    assert_eq!(healed[0].locations.len(), 3);
    assert_eq!(client.read_file("/heal").unwrap(), data);
    // Clean fleet afterwards.
    assert_eq!(cluster.run_scrub_round().unwrap().corrupt_total(), 0);
}

#[test]
fn networked_set_replication_realized_by_monitor() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/mv", &payload(MB as usize, 21), ReplicationVector::msh(0, 0, 3)).unwrap();
    client.set_replication("/mv", ReplicationVector::msh(1, 0, 2)).unwrap();
    cluster.run_replication_round().unwrap();
    cluster.run_replication_round().unwrap();
    let blocks = client.get_file_block_locations("/mv", 0, u64::MAX).unwrap();
    let mems = blocks[0].locations.iter().filter(|l| l.tier.0 == 0).count();
    let hdds = blocks[0].locations.iter().filter(|l| l.tier.0 == 2).count();
    assert_eq!((mems, hdds), (1, 2), "move realized over the network");
}

/// Killing and restarting a worker is dropping and starting its node: three
/// cycles leave one liveness thread for it — it beats once per interval,
/// not once per thread ever started — and every acknowledged write, those
/// made while it was down included, reads back.
#[test]
fn kill_restart_cycles_leave_one_liveness_thread_and_every_file_readable() {
    const HEARTBEAT_MS: u64 = 20;
    let mut cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);
    let mut files = Vec::new();
    let write = |client: &octopus_core::RemoteFs, files: &mut Vec<(String, Vec<u8>)>| {
        let path = format!("/cycle{}", files.len());
        let data = payload(MB as usize + 31 * files.len(), files.len() as u64);
        client.write_file(&path, &data, rf3).unwrap();
        files.push((path, data));
    };
    for _ in 0..3 {
        write(&client, &mut files);
        cluster.kill_worker(1);
        write(&client, &mut files);
        cluster.restart_worker(1).unwrap();
    }

    let beats = || {
        let snap = cluster.master().metrics().snapshot();
        snap.counter_where("master_heartbeats_total", |l| l.worker == Some(WorkerId(1)))
    };
    let (start, before) = (std::time::Instant::now(), beats());
    std::thread::sleep(std::time::Duration::from_millis(20 * HEARTBEAT_MS));
    let (after, window_ms) = (beats(), start.elapsed().as_millis() as u64);
    assert!(after > before, "the restarted worker has no liveness thread");
    assert!(
        after - before <= window_ms / HEARTBEAT_MS + 2,
        "{} beats in {window_ms} ms: more than one liveness thread",
        after - before
    );

    let status = cluster.master().cluster_status(0);
    assert!(status.workers.iter().all(|w| w.live), "a worker looks dead after the last restart");
    for (path, data) in &files {
        assert_eq!(&client.read_file(path).unwrap(), data, "{path}");
    }
}

/// Stopping a node interrupts its threads' wait instead of sitting it out:
/// with a one-minute heartbeat (so a four-minute round interval), a kill,
/// a stop and the shutdown together still take well under a second.
#[test]
fn shutdown_does_not_wait_out_a_heartbeat_interval() {
    let mut c = config();
    c.heartbeat_ms = 60_000;
    let mut cluster = NetCluster::start(c).unwrap();
    let classifier: std::sync::Arc<dyn octopus_policies::TierClassifier> =
        std::sync::Arc::new(octopus_policies::EwmaThresholdClassifier::default());
    cluster.start_rounds(Some((classifier, octopus_master::AutoTierConfig::default()))).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/f", &payload(1000, 3), ReplicationVector::msh(0, 1, 1)).unwrap();

    let start = std::time::Instant::now();
    cluster.kill_worker(0);
    cluster.stop_rounds();
    cluster.shutdown();
    let took = start.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "shutdown took {took:?}");
}

/// The master node's background loop heals on its own: a block that lost
/// a replica with its worker is copied back with no round run by hand.
#[test]
fn the_background_loop_heals_an_under_replicated_block() {
    let mut cluster = NetCluster::start(config()).unwrap();
    cluster.start_rounds(None).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(1000, 5);
    client.write_file("/f", &data, ReplicationVector::msh(0, 1, 1)).unwrap();
    let holders =
        || client.get_file_block_locations("/f", 0, u64::MAX).unwrap()[0].locations.clone();
    let victim = holders()[0].worker;
    cluster.kill_worker(cluster.workers().iter().position(|w| w.id() == victim).unwrap());

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = holders();
        if now.len() == 2 && now.iter().all(|l| l.worker != victim) {
            break;
        }
        assert!(Instant::now() < deadline, "never healed: {now:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client.read_file("/f").unwrap(), data);
}

/// A `RunRound` whose reply is lost is not sent again: the caller gets the
/// transport's retryable error and the master ran the round once. A
/// one-minute heartbeat keeps every beat off the master while the fault
/// is armed.
#[test]
fn a_round_whose_reply_is_lost_runs_once() {
    let mut c = config();
    c.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(c).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let scrubs = || cluster.master().metrics().snapshot().counter("master_scrub_rounds_total");
    let before = scrubs();
    faults::inject(cluster.master_addr(), FaultAction::DropConnection);
    let answer = client.run_round(Round::Scrub);
    faults::clear(cluster.master_addr());
    assert!(answer.as_ref().is_err_and(FsError::is_retryable), "{answer:?}");
    assert_eq!(scrubs() - before, 1, "the round ran again");
}

#[test]
fn on_disk_mode_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "octopus_cluster_disk_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    let config = ClusterConfig::test_cluster(6, 64 * MB, MB);
    let mode = StorageMode::OnDisk(dir.clone());
    let cluster = NetCluster::start_with_mode(config, mode, EditLog::in_memory()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload((MB + 123) as usize, 41);
    client.write_file("/disk", &data, ReplicationVector::msh(1, 1, 1)).unwrap();
    assert_eq!(client.read_file("/disk").unwrap(), data);
    // Persistent tiers wrote real files.
    let mut found = false;
    for entry in walk(&dir) {
        if entry.file_name().map(|n| n.to_string_lossy().starts_with("blk_")) == Some(true) {
            found = true;
        }
    }
    assert!(found, "expected block files under {dir:?}");
    std::fs::remove_dir_all(dir).ok();
}

fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else { continue };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out
}

/// The master keeps its own time: a heartbeat stamped a minute ahead, as
/// from a worker whose clock runs fast, declares no worker dead and
/// expires no lease, so the open file's writer still adds a block and
/// completes the file under it.
#[test]
fn a_heartbeat_stamped_a_minute_ahead_kills_no_worker_and_expires_no_lease() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(2 * MB as usize, 41);
    let mut writer =
        client.create("/open", ReplicationVector::from_replication_factor(2), None).unwrap();
    writer.write(&data[..MB as usize]).unwrap();

    let w = &cluster.workers()[0];
    let (stats, conns) = w.heartbeat_stats();
    let ahead = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_millis() as u64 + 60_000;
    let fast = MasterRequest::Heartbeat(w.id(), stats, conns, ahead, vec![]);
    cluster.transport().call_master(fast).unwrap();
    let all_live = || {
        let status = cluster.master().cluster_status(0);
        assert!(status.workers.iter().all(|w| w.live), "{:?}", status.workers);
    };
    all_live();
    let first = client.get_file_block_locations("/open", 0, u64::MAX).unwrap();
    assert_eq!(first[0].locations.len(), 2, "{first:?}");
    // Five of the master's own ticks later, still nobody is dead.
    std::thread::sleep(Duration::from_millis(5 * config().heartbeat_ms));
    all_live();

    writer.write(&data[MB as usize..]).unwrap();
    writer.close().unwrap();
    assert_eq!(client.read_file("/open").unwrap(), data);
}
