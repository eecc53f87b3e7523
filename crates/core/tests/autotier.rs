//! Auto-tiering migration tests: the heat-driven planner moves files
//! between tiers through ordinary `setReplication` edits, the networked
//! monitor executes them with bounded background bandwidth, and the whole
//! path stays robust to worker deaths mid-migration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_common::{
    BlockTouches, ClientLocation, ClusterConfig, DecisionKind, ReplicationVector, RpcConfig,
    StorageTier, TierId, MB,
};
use octopus_core::net::monitor::MigrationRound;
use octopus_core::net::{faults, FaultAction};
use octopus_core::{Cluster, NetCluster};
use octopus_master::{AutoTierConfig, MigrationDirection, ReplicationTask};
use octopus_policies::EwmaThresholdClassifier;

fn net_config(n: u32) -> ClusterConfig {
    let mut c = ClusterConfig::test_cluster(n, 64 * MB, MB);
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

/// Memory-tier replica count of a file's first block, as the master sees it.
fn memory_replicas(cluster: &Cluster, path: &str) -> usize {
    cluster
        .master()
        .get_file_block_locations(path, 0, 1, ClientLocation::OffCluster)
        .unwrap()
        .first()
        .map(|b| b.locations.iter().filter(|l| l.tier == StorageTier::Memory.id()).count())
        .unwrap_or(0)
}

/// Marks every block of `path` as read `reads` times, as if workers had
/// reported the touches over heartbeats.
fn inject_reads(cluster: &Cluster, path: &str, reads: u32) {
    let touches: Vec<BlockTouches> = cluster
        .master()
        .get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap()
        .iter()
        .map(|lb| BlockTouches { block: lb.block.id, reads, writes: 0 })
        .collect();
    cluster.master().observe_touches(&touches);
}

/// End-to-end on the in-process cluster: hot files gain a memory replica,
/// cold files lose theirs, and the audit ring records each move.
#[test]
fn autotier_round_moves_hot_up_and_cold_down() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(4, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    client.write_file("/hot", &data, ReplicationVector::msh(0, 0, 1)).unwrap();
    client.write_file("/cold", &data, ReplicationVector::msh(1, 0, 1)).unwrap();
    inject_reads(&cluster, "/hot", 8);

    let classifier = EwmaThresholdClassifier::default();
    let decisions = cluster.run_autotier_round(&classifier, &AutoTierConfig::default()).unwrap();
    assert_eq!(decisions.len(), 2, "decisions: {decisions:?}");
    let promote = decisions.iter().find(|d| d.path == "/hot").unwrap();
    assert_eq!(promote.direction, MigrationDirection::Promote);
    let demote = decisions.iter().find(|d| d.path == "/cold").unwrap();
    assert_eq!(demote.direction, MigrationDirection::Demote);

    // The replication round realized both moves.
    assert_eq!(memory_replicas(&cluster, "/hot"), 1);
    assert_eq!(memory_replicas(&cluster, "/cold"), 0);
    // Data is intact on both paths.
    assert_eq!(client.read_file("/hot").unwrap(), data);
    assert_eq!(client.read_file("/cold").unwrap(), data);

    // Both moves are in the audit ring, promote and demote.
    let events = cluster.master().recent_migrations(10);
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| e.kind == DecisionKind::Migration));
    assert!(events.iter().any(|e| e.policy.contains("promote")));
    assert!(events.iter().any(|e| e.policy.contains("demote")));

    // A quiet follow-up round plans nothing new for /hot (it keeps its
    // replica while hot) — but /cold's heat has not changed either, and
    // it already lost its memory replica, so the round is empty.
    inject_reads(&cluster, "/hot", 8);
    let again = cluster.run_autotier_round(&classifier, &AutoTierConfig::default()).unwrap();
    assert!(again.is_empty(), "steady state must plan no migrations: {again:?}");
}

/// Satellite: an explicit `setReplication` downgrade ⟨1,1,1⟩ → ⟨0,1,1⟩
/// converges through the monitor's over-replication removal — the master
/// drops the memory location, a Removal audit event is recorded, and the
/// worker that hosted the memory replica no longer reports it.
#[test]
fn set_replication_downgrade_converges_with_removal_audit() {
    let cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 23);
    client.write_file("/down", &data, ReplicationVector::msh(1, 1, 1)).unwrap();
    let lb = &client.get_file_block_locations("/down", 0, u64::MAX).unwrap()[0];
    let block = lb.block;
    assert_eq!(lb.locations.len(), 3);
    let mem_loc =
        *lb.locations.iter().find(|l| l.tier == StorageTier::Memory.id()).expect("memory replica");

    let old = client.set_replication("/down", ReplicationVector::msh(0, 1, 1)).unwrap();
    assert_eq!(old, ReplicationVector::msh(1, 1, 1));

    let converged = eventually(Duration::from_secs(10), || {
        let _ = cluster.run_replication_round();
        let locs = &client.get_file_block_locations("/down", 0, u64::MAX).unwrap()[0].locations;
        locs.len() == 2 && locs.iter().all(|l| l.tier != StorageTier::Memory.id())
    });
    assert!(converged, "master view must lose the memory replica");

    // Worker-side invalidation: the hosting worker no longer reports the
    // block on its memory medium.
    let host = cluster.workers().iter().find(|w| w.id() == mem_loc.worker).unwrap();
    let still_reported = host
        .block_report()
        .iter()
        .any(|(b, media)| b.id == block.id && host.tier_of(*media).unwrap() == TierId(0));
    assert!(!still_reported, "worker must drop the invalidated memory replica");

    // The removal left an audit trail.
    let events = client.explain_placement(block.id).unwrap();
    let removal = events.iter().find(|e| e.kind == DecisionKind::Removal);
    assert!(removal.is_some(), "no Removal audit event: {events:?}");
    assert_eq!(removal.unwrap().chosen, vec![mem_loc]);

    // The file survives on the remaining tiers.
    assert_eq!(client.read_file("/down").unwrap(), data);
}

/// Drives heat into `paths` through real reads until the master's score
/// classifies them hot, then returns.
fn heat_up(client: &octopus_core::RemoteFs, paths: &[&str], data: &[Vec<u8>]) {
    for (path, d) in paths.iter().zip(data) {
        for _ in 0..8 {
            assert_eq!(&client.read_file(path).unwrap(), d);
        }
    }
    for path in paths {
        let hot = eventually(Duration::from_secs(10), || {
            client.heat(path).map(|h| h.score >= 1.0).unwrap_or(false)
        });
        assert!(hot, "{path} never became hot");
    }
}

/// Tentpole, networked: a migration round promotes hot HDD files into
/// memory with copies paced to the configured bandwidth cap, and the
/// `migrations` RPC lists the decisions.
#[test]
fn migration_round_paces_copies_to_the_bandwidth_cap() {
    let cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let paths = ["/p0", "/p1", "/p2", "/p3"];
    let data: Vec<Vec<u8>> = (0..4).map(|i| payload(MB as usize, 40 + i as u64)).collect();
    for (path, d) in paths.iter().zip(&data) {
        client.write_file(path, d, ReplicationVector::msh(0, 0, 1)).unwrap();
    }
    heat_up(&client, &paths, &data);

    // 4 MB of promotions under an 8 MB/s cap: the round must take at
    // least ~500 ms, entirely as deliberate pacing sleeps.
    let cfg = AutoTierConfig { max_copy_bps: 8 * MB, ..AutoTierConfig::default() };
    let classifier = EwmaThresholdClassifier::default();
    let started = Instant::now();
    let round: MigrationRound = cluster.run_migration_round(&classifier, &cfg).unwrap();
    let elapsed = started.elapsed();

    assert_eq!(round.promoted, 4, "round: {round:?}");
    assert_eq!(round.demoted, 0);
    assert_eq!(round.outcome.copies_ok, 4);
    assert_eq!(round.bytes_copied, 4 * MB);
    assert!(round.paced > Duration::ZERO, "no pacing sleep recorded");

    // The paced rate honours the cap (generous slack for scheduling).
    let rate = round.bytes_copied as f64 / elapsed.as_secs_f64();
    assert!(
        rate <= 1.25 * (8 * MB) as f64,
        "migration rate {:.0} B/s exceeds the {} B/s cap",
        rate,
        8 * MB
    );
    assert!(elapsed >= Duration::from_millis(450), "4 MB at 8 MB/s cannot take {elapsed:?}");

    // The copies really flowed through the workers' memory media
    // (media_io-guarded write path), and the master counted the bytes.
    let snap = cluster.metrics_snapshot().unwrap();
    assert!(
        snap.counter_where("worker_write_bytes_total", |l| l.tier == Some(TierId(0))) >= 4 * MB,
        "memory-tier write bytes missing"
    );
    assert!(snap.counter("master_migration_bytes_total") >= 4 * MB);
    assert!(snap.counter("master_migration_paced_ms_total") >= 1);
    assert!(
        snap.counter_where("master_migrations_total", |l| {
            l.request_type.as_deref() == Some("promote")
        }) >= 4
    );

    // All four promotions are visible over the Migrations RPC.
    let events = client.migrations(10).unwrap();
    assert_eq!(events.len(), 4, "events: {events:?}");
    assert!(events.iter().all(|e| e.kind == DecisionKind::Migration));

    // And the files now serve from memory.
    for (path, d) in paths.iter().zip(&data) {
        let locs = &client.get_file_block_locations(path, 0, u64::MAX).unwrap()[0].locations;
        assert!(
            locs.iter().any(|l| l.tier == StorageTier::Memory.id()),
            "{path} has no memory replica: {locs:?}"
        );
        assert_eq!(&client.read_file(path).unwrap(), d);
    }
}

/// Robustness: the worker hosting the *source* replica dies mid-migration.
/// The copy uses a surviving source (or fails and is re-planned), and the
/// promotion eventually lands without data loss.
#[test]
fn migration_survives_source_worker_death() {
    let mut cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 51);
    client.write_file("/src-death", &data, ReplicationVector::msh(0, 0, 2)).unwrap();
    heat_up(&client, &["/src-death"], std::slice::from_ref(&data));

    // Kill one of the two HDD hosts.
    let victim =
        client.get_file_block_locations("/src-death", 0, u64::MAX).unwrap()[0].locations[0].worker;
    let idx = cluster.workers().iter().position(|w| w.id() == victim).unwrap();
    cluster.kill_worker(idx);

    let cfg = AutoTierConfig::default();
    let classifier = EwmaThresholdClassifier::default();
    let promoted = eventually(Duration::from_secs(15), || {
        let _ = cluster.run_migration_round(&classifier, &cfg);
        client.get_file_block_locations("/src-death", 0, u64::MAX).unwrap()[0]
            .locations
            .iter()
            .any(|l| l.tier == StorageTier::Memory.id())
    });
    assert!(promoted, "promotion must survive a source worker death");
    assert_eq!(client.read_file("/src-death").unwrap(), data);
}

/// Robustness: the worker chosen as the *destination* dies after the copy
/// was planned (pending replica registered) but before it executes. The
/// failure detector drops the dead worker's pending location and a later
/// round re-places the memory replica on a live worker.
#[test]
fn migration_survives_destination_worker_death() {
    let mut cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 57);
    client.write_file("/dst-death", &data, ReplicationVector::msh(0, 0, 2)).unwrap();
    heat_up(&client, &["/dst-death"], std::slice::from_ref(&data));

    // Plan the promotion and peek at the scheduled copy's destination,
    // then kill that worker before any round executes the copy.
    let classifier = EwmaThresholdClassifier::default();
    let decisions = cluster.master().autotier_scan(&classifier, &AutoTierConfig::default());
    assert_eq!(decisions.len(), 1, "decisions: {decisions:?}");
    let tasks = cluster.master().replication_scan();
    let ReplicationTask::Copy { target, .. } =
        tasks.iter().find(|t| matches!(t, ReplicationTask::Copy { .. })).unwrap()
    else {
        unreachable!()
    };
    let dst = target.worker;
    let idx = cluster.workers().iter().position(|w| w.id() == dst).unwrap();
    cluster.kill_worker(idx);

    // Once the master declares the worker dead its pending replica is
    // dropped, and a later round re-routes the copy to a live worker.
    let promoted = eventually(Duration::from_secs(15), || {
        let _ = cluster.run_migration_round(&classifier, &AutoTierConfig::default());
        client.get_file_block_locations("/dst-death", 0, u64::MAX).unwrap()[0]
            .locations
            .iter()
            .any(|l| l.tier == StorageTier::Memory.id() && l.worker != dst)
    });
    assert!(promoted, "promotion must re-route around a dead destination");
    assert_eq!(client.read_file("/dst-death").unwrap(), data);
}

/// Robustness: a migration copy whose response is lost mid-flight is
/// counted as failed and aborted at the master — not leaked as pending —
/// and the next rounds converge anyway.
#[test]
fn failed_migration_copy_is_aborted_and_retried() {
    let cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 63);
    client.write_file("/flaky", &data, ReplicationVector::msh(0, 0, 1)).unwrap();
    heat_up(&client, &["/flaky"], std::slice::from_ref(&data));

    // Whatever destination the monitor picks, its Replicate response is
    // dropped mid-flight (the ambiguous failure: maybe executed, reply
    // lost) on every attempt the RPC layer makes: a reply lost once is
    // resent, and the resend of a copy that landed succeeds.
    for w in cluster.workers() {
        for _ in 0..=RpcConfig::default().max_retries {
            faults::inject(cluster.worker_addr(w.id()).unwrap(), FaultAction::DropConnection);
        }
    }
    let classifier = EwmaThresholdClassifier::default();
    let round = cluster.run_migration_round(&classifier, &AutoTierConfig::default()).unwrap();
    for w in cluster.workers() {
        faults::clear(cluster.worker_addr(w.id()).unwrap());
    }
    assert!(round.outcome.copies_failed >= 1, "round: {round:?}");

    // Dropping the failed copy cleared its pending replica, so later
    // rounds re-plan and the promotion lands.
    let promoted = eventually(Duration::from_secs(15), || {
        let _ = cluster.run_migration_round(&classifier, &AutoTierConfig::default());
        client.get_file_block_locations("/flaky", 0, u64::MAX).unwrap()[0]
            .locations
            .iter()
            .any(|l| l.tier == StorageTier::Memory.id())
    });
    assert!(promoted, "aborted copy must be retried to convergence");
    assert_eq!(client.read_file("/flaky").unwrap(), data);
}

/// Foreground reads stay responsive while the auto-tiering daemon
/// migrates in the background under its bandwidth cap.
#[test]
fn foreground_reads_bounded_under_background_migration() {
    let mut cluster = NetCluster::start(net_config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let fg = payload(MB as usize, 61);
    client.write_file("/fg", &fg, ReplicationVector::msh(0, 1, 1)).unwrap();
    let paths = ["/bg0", "/bg1", "/bg2", "/bg3"];
    let data: Vec<Vec<u8>> = (0..4).map(|i| payload(MB as usize, 70 + i as u64)).collect();
    for (path, d) in paths.iter().zip(&data) {
        client.write_file(path, d, ReplicationVector::msh(0, 0, 1)).unwrap();
    }
    heat_up(&client, &paths, &data);

    // Migrate in the background, capped at 4 MB/s, while timing
    // foreground reads.
    let cfg = AutoTierConfig { max_copy_bps: 4 * MB, ..AutoTierConfig::default() };
    cluster.start_autotier(Arc::new(EwmaThresholdClassifier::default()), cfg, 10);
    let mut lat = Vec::with_capacity(60);
    for _ in 0..60 {
        let t = Instant::now();
        assert_eq!(client.read_file("/fg").unwrap(), fg);
        lat.push(t.elapsed());
    }
    cluster.stop_autotier();

    lat.sort();
    let p99 = lat[lat.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(500),
        "foreground p99 {p99:?} too slow under background migration"
    );

    // The daemon made progress: the hot files were promoted.
    let promoted = eventually(Duration::from_secs(10), || {
        let _ = {
            // One more manual round in case the daemon was stopped
            // between planning and realizing the last copy.
            let cfg = AutoTierConfig::default();
            cluster.run_migration_round(&EwmaThresholdClassifier::default(), &cfg)
        };
        paths.iter().all(|p| {
            client.get_file_block_locations(p, 0, u64::MAX).unwrap()[0]
                .locations
                .iter()
                .any(|l| l.tier == StorageTier::Memory.id())
        })
    });
    assert!(promoted, "background daemon never promoted the hot files");
    assert!(!client.migrations(20).unwrap().is_empty());
}

/// Four workers whose Memory tier holds four 1 MB blocks (1 MB on each),
/// with one heartbeat per heat epoch.
fn small_memory_cluster() -> Cluster {
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    config.heartbeat_ms = octopus_common::heat::DEFAULT_HEAT_EPOCH_MS;
    for w in &mut config.workers {
        w.media[0].capacity = MB;
    }
    Cluster::start(config).unwrap()
}

/// Writes 2 MB files at `paths` with vector `rv`, then ticks the cluster
/// 40 heat epochs on, so the heat the writes left decays to nothing.
fn put_cooled(cluster: &Cluster, paths: &[(&str, ReplicationVector)]) {
    let client = cluster.client(ClientLocation::OffCluster);
    for (i, (path, rv)) in paths.iter().enumerate() {
        client.write_file(path, &payload(2 * MB as usize, i as u64), *rv).unwrap();
    }
    for _ in 0..40 {
        cluster.pump_heartbeats();
    }
}

/// The auto-tierer's LRU eviction: with the Memory tier full, one round
/// promotes the newly hot file and demotes the warm file touched longer
/// ago, though the file touched since has the lower score — and moves both
/// replicas, the promotion's copy into the memory the eviction freed.
#[test]
fn a_full_memory_tier_evicts_the_least_recently_touched_file() {
    let cluster = small_memory_cluster();
    let (pinned, disk) = (ReplicationVector::msh(1, 0, 1), ReplicationVector::msh(0, 0, 1));
    put_cooled(&cluster, &[("/old", pinned), ("/recent", pinned), ("/new", disk)]);
    inject_reads(&cluster, "/old", 3); // score 0.864 at the round: warm
    cluster.pump_heartbeats();
    cluster.pump_heartbeats();
    inject_reads(&cluster, "/recent", 1); // score 0.8: warm, touched last
    inject_reads(&cluster, "/new", 5); // hot

    let classifier = EwmaThresholdClassifier::default();
    // The promotion and its eviction are two files: a one-file round
    // makes neither.
    let one_file = AutoTierConfig { max_files_per_round: 1, ..AutoTierConfig::default() };
    assert!(cluster.master().autotier_scan(&classifier, &one_file).is_empty());
    let decisions = cluster.run_autotier_round(&classifier, &AutoTierConfig::default()).unwrap();
    let moves: Vec<_> =
        decisions.iter().map(|d| (d.path.as_str(), d.direction, d.from, d.to)).collect();
    assert_eq!(
        moves,
        [
            ("/new", MigrationDirection::Promote, disk, pinned),
            ("/old", MigrationDirection::Demote, pinned, disk),
        ]
    );
    let events = cluster.master().recent_migrations(10);
    let eviction = events.iter().find(|e| e.policy.contains("demote")).unwrap();
    assert!(eviction.policy.ends_with("to make room for /new"), "{}", eviction.policy);
    assert_eq!(memory_replicas(&cluster, "/new"), 1, "the promotion waited for a later round");
    assert_eq!(memory_replicas(&cluster, "/old"), 0);
    assert_eq!(memory_replicas(&cluster, "/recent"), 1);
}

/// A hot file larger than the whole Memory tier is not promoted, and
/// evicts nothing trying.
#[test]
fn a_file_larger_than_the_memory_tier_evicts_nothing() {
    let cluster = small_memory_cluster();
    let client = cluster.client(ClientLocation::OffCluster);
    let disk = ReplicationVector::msh(0, 0, 1);
    put_cooled(&cluster, &[("/resident", ReplicationVector::msh(1, 0, 1))]);
    client.write_file("/big", &payload(6 * MB as usize, 9), disk).unwrap();
    inject_reads(&cluster, "/resident", 1); // warm
    inject_reads(&cluster, "/big", 5); // hot

    let classifier = EwmaThresholdClassifier::default();
    let decisions = cluster.run_autotier_round(&classifier, &AutoTierConfig::default()).unwrap();
    assert!(decisions.is_empty(), "{decisions:?}");
    assert_eq!(client.status("/resident").unwrap().rv, ReplicationVector::msh(1, 0, 1));
    assert_eq!(client.status("/big").unwrap().rv, disk);
}

/// A memory-resident file deleted before the round is no victim: the
/// round succeeds and promotes into the memory the delete freed.
#[test]
fn a_deleted_memory_resident_file_is_never_a_victim() {
    let cluster = small_memory_cluster();
    let client = cluster.client(ClientLocation::OffCluster);
    let (pinned, disk) = (ReplicationVector::msh(1, 0, 1), ReplicationVector::msh(0, 0, 1));
    put_cooled(&cluster, &[("/gone", pinned), ("/stay", pinned), ("/hot", disk)]);
    inject_reads(&cluster, "/gone", 1);
    cluster.pump_heartbeats();
    inject_reads(&cluster, "/stay", 1);
    client.delete("/gone", false).unwrap();
    cluster.pump_heartbeats();
    inject_reads(&cluster, "/hot", 5);

    let classifier = EwmaThresholdClassifier::default();
    let decisions = cluster.run_autotier_round(&classifier, &AutoTierConfig::default()).unwrap();
    let moves: Vec<_> = decisions.iter().map(|d| (d.path.as_str(), d.direction)).collect();
    assert_eq!(moves, [("/hot", MigrationDirection::Promote)]);
    assert_eq!(client.status("/stay").unwrap().rv, pinned);
}

/// A single touch does not promote: the file stays warm until a burst of
/// reads makes it hot.
#[test]
fn a_single_touch_does_not_promote() {
    let cluster = small_memory_cluster();
    let disk = ReplicationVector::msh(0, 0, 1);
    put_cooled(&cluster, &[("/once", disk)]);
    let classifier = EwmaThresholdClassifier::default();
    let cfg = AutoTierConfig::default();

    inject_reads(&cluster, "/once", 1);
    assert!(cluster.master().autotier_scan(&classifier, &cfg).is_empty());
    inject_reads(&cluster, "/once", 2);
    let decisions = cluster.master().autotier_scan(&classifier, &cfg);
    assert_eq!(decisions.len(), 1, "{decisions:?}");
    assert_eq!(decisions[0].direction, MigrationDirection::Promote);
}
