use super::*;
use crate::autotier::{AutoTierConfig, MigrationDirection};
use crate::namespace::TierQuota;
use octopus_common::{
    Block, BlockId, BlockTouches, ClientLocation, DecisionKind, GenStamp, MediaId, MediaStats,
    RackId, ReplicationVector, StorageTier, TierId, WorkerId,
};
use octopus_policies::EwmaThresholdClassifier;

/// The holder these tests write as: an ordinary client.
const SYS: ClientId = ClientId(1);
const OFF: ClientLocation = ClientLocation::OffCluster;

/// A master recovered from a checkpoint image.
fn restore(config: ClusterConfig, image: &[u8]) -> Result<Master> {
    Master::with_log(config, EditLog::from_bytes(image.to_vec())?)
}

/// Registers `n` live workers with one medium per tier each, as if
/// heartbeats had arrived.
fn boot_master(n: u32) -> Master {
    boot_master_from(n, EditLog::in_memory())
}

/// [`boot_master`] on the history in `log`.
fn boot_master_from(n: u32, log: EditLog) -> Master {
    let config = ClusterConfig::test_cluster(n, 10 << 20, 1 << 20);
    let master = Master::with_log(config, log).unwrap();
    for w in 0..n {
        master.register_worker(WorkerId(w), RackId((w % 2) as u16), 1e9);
        master.heartbeat(WorkerId(w), media_of(w, 10 << 20), 0, &[]).unwrap();
    }
    master
}

/// Worker `w`'s three media of 10 MiB, as its heartbeat reports them.
fn media_of(w: u32, remaining: u64) -> Vec<MediaStats> {
    (0..3u8)
        .map(|t| MediaStats {
            media: MediaId(w * 3 + t as u32),
            worker: WorkerId(w),
            rack: RackId((w % 2) as u16),
            tier: TierId(t),
            capacity: 10 << 20,
            remaining,
            nr_conn: 0,
            write_thru: [1900.0, 340.0, 126.0][t as usize] * 1048576.0,
            read_thru: [3200.0, 420.0, 177.0][t as usize] * 1048576.0,
        })
        .collect()
}

fn rv_u(r: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(r)
}

/// A stamp the log holds is not issued again by the master that boots
/// from it.
#[test]
fn a_recovered_master_issues_generation_stamps_above_the_replayed_ones() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(1), None, SYS).unwrap();
    let replayed: Vec<GenStamp> = (0..3)
        .map(|_| m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap().0.gen)
        .collect();
    let log = EditLog::from_bytes(m.edits_since(0).unwrap()).unwrap();
    let recovered = boot_master_from(3, log);
    assert_eq!(recovered.block_inventory().len(), 3);
    recovered.leave_safe_mode();
    recovered.create_file_as("/g", rv_u(1), None, SYS).unwrap();
    let (fresh, _) = recovered.add_block_excluding("/g", 1 << 20, OFF, SYS, &[]).unwrap();
    assert!(replayed.iter().all(|gen| fresh.gen > *gen), "{:?} after {replayed:?}", fresh.gen);
}

/// Every append starts a fresh block, so a block before the last may be
/// short; a checkpoint gives each block back at the length it was added
/// with (it wrote "full but the last": 1 MiB and an underflow).
#[test]
fn a_checkpoint_keeps_a_short_block_before_the_last() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(1), None, SYS).unwrap();
    m.add_block_excluding("/f", 100, OFF, SYS, &[]).unwrap();
    m.complete_file_as("/f", SYS).unwrap();
    m.append_file_as("/f", SYS).unwrap();
    m.add_block_excluding("/f", 50, OFF, SYS, &[]).unwrap();
    m.complete_file_as("/f", SYS).unwrap();

    let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
    let restored = restore(config, &m.checkpoint()).unwrap();
    let located = restored.get_file_block_locations("/f", 0, u64::MAX, ClientLocation::OffCluster);
    let lengths: Vec<(u64, u64)> =
        located.unwrap().iter().map(|b| (b.offset, b.block.len)).collect();
    assert_eq!(lengths, [(0, 100), (100, 50)]);
    assert_eq!(restored.status("/f").unwrap().len, 150);
    assert_eq!(restored.checkpoint(), m.checkpoint());
}

#[test]
fn create_write_read_lifecycle() {
    let m = boot_master(6);
    m.mkdir("/data").unwrap();
    m.create_file_as("/data/f", rv_u(3), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/data/f", 1 << 20, OFF, SYS, &[]).unwrap();
    assert_eq!(locs.len(), 3);
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as("/data/f", SYS).unwrap();
    let located =
        m.get_file_block_locations("/data/f", 0, u64::MAX, ClientLocation::OffCluster).unwrap();
    assert_eq!(located.len(), 1);
    assert_eq!(located[0].locations.len(), 3);
    assert_eq!(located[0].block, block);
    let st = m.status("/data/f").unwrap();
    assert_eq!(st.len, 1 << 20);
    assert!(st.complete);
}

#[test]
fn add_block_validations() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(2), None, SYS).unwrap();
    assert!(m.add_block_excluding("/f", 0, OFF, SYS, &[]).is_err());
    assert!(m.add_block_excluding("/f", 2 << 20, OFF, SYS, &[]).is_err());
    m.complete_file_as("/f", SYS).unwrap();
    assert!(m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).is_err());
}

#[test]
fn create_file_validates_vector() {
    let m = boot_master(3);
    // Tier 3 (Remote) is not configured in the test cluster.
    let bad = ReplicationVector::mshru(0, 0, 0, 1, 0);
    assert!(m.create_file_as("/f", bad, None, SYS).is_err());
    assert!(m.create_file_as("/f", ReplicationVector::EMPTY, None, SYS).is_err());
    let over = rv_u(200);
    assert!(m.create_file_as("/f", over, None, SYS).is_err());
}

#[test]
fn scheduled_writes_prevent_oversubscription() {
    // Media have 10 MB; place 10 blocks of 1 MB with r=3 on 6 workers:
    // every placement must see reduced remaining and still succeed.
    let m = boot_master(6);
    m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
    for _ in 0..10 {
        let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
        for l in locs {
            m.commit_replica(block, l).unwrap();
        }
    }
    let snap = m.snapshot();
    // 30 MB written over 18 media of 10 MB: nothing negative.
    for media in &snap.media {
        assert!(media.remaining <= 10 << 20);
    }
}

#[test]
fn an_unreached_stage_releases_its_scheduled_reservation() {
    // Regression: dropping a stage used to release zero of the `len`
    // bytes add_block reserved — every failed pipeline stage leaked its
    // reservation until the medium looked permanently full.
    let m = boot_master(6);
    m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        assert_eq!(m.scheduled_bytes(l.media), 1 << 20);
    }
    // The whole pipeline fails before storing anything.
    m.commit_replicas(block, &[], &locs).unwrap();
    for l in &locs {
        assert_eq!(m.scheduled_bytes(l.media), 0, "an unreached stage must return its reservation");
    }
    assert!(m.pending_locations(block.id).is_empty());
    // A repeated (resent) commit must not underflow or double-release.
    m.commit_replicas(block, &[], &locs[..1]).unwrap();
    assert_eq!(m.scheduled_bytes(locs[0].media), 0);
}

/// A pending stage also ends off the commit path: its worker is killed,
/// the failure detector declares it dead, or the stage is reported
/// corrupt. Each takes the stage's reservation with it; the head's late
/// commit then releases nothing twice, and a worker that comes back is
/// seen with exactly the capacity it heartbeats.
#[test]
fn a_stage_that_ends_off_the_commit_path_takes_its_reservation_with_it() {
    for way in ["kill_worker", "tick", "report_corrupt"] {
        let m = boot_master(2);
        m.create_file_as("/f", ReplicationVector::msh(0, 0, 2), None, SYS).unwrap();
        let (a, pipeline) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
        let (head, tail) = (pipeline[0], pipeline[1]);
        let later = 10 * m.config().heartbeat_ms + 1;
        match way {
            "kill_worker" => m.kill_worker(tail.worker),
            "tick" => {
                m.tick(1);
                m.heartbeat(head.worker, media_of(head.worker.0, 10 << 20), 0, &[]).unwrap();
                assert_eq!(m.tick(later), [tail.worker]);
            }
            _ => m.report_corrupt(a.id, tail),
        }
        assert_eq!(m.scheduled_bytes(tail.media), 0, "{way} kept the tail's reservation");
        assert_eq!(m.scheduled_bytes(head.media), a.len, "{way}");

        // The tail's worker comes back: it is seen as it heartbeats.
        m.register_worker(tail.worker, RackId((tail.worker.0 % 2) as u16), 1e9);
        m.heartbeat(tail.worker, media_of(tail.worker.0, 7 << 20), 0, &[]).unwrap();
        let snap = m.snapshot();
        let seen = snap.media.iter().filter(|s| s.worker == tail.worker);
        assert!(seen.map(|s| s.remaining).eq([7 << 20; 3]), "{way}: {:?}", snap.media);

        // A second write reserves both media; the first block's late
        // commit confirms its head once and drops nothing else.
        let (b, again) = m.add_block_excluding("/f", 300 << 10, OFF, SYS, &[]).unwrap();
        assert_eq!(again.iter().map(|l| l.media).collect::<Vec<_>>(), [head.media, tail.media]);
        m.commit_replicas(a, &[head], &[tail]).unwrap();
        for l in [head, tail] {
            assert_eq!(m.scheduled_bytes(l.media), b.len, "{way}: {l:?}");
        }
        assert_eq!(m.pending_locations(a.id), []);
    }
}

/// A file deleted with its pipeline in flight gives the pipeline's
/// reservations back: the late commit finds no block, and a late drop
/// of an unreached stage nothing pending, so nothing else would.
#[test]
fn delete_refunds_the_reservations_of_a_pipeline_in_flight() {
    let m = boot_master(6);
    let holder = ClientId(7);
    m.create_file_as("/f", rv_u(3), None, holder).unwrap();
    let client = ClientLocation::OffCluster;
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, client, holder, &[]).unwrap();
    assert_eq!(m.pending_locations(block.id).len(), 3);
    m.delete("/f", false).unwrap();
    assert!(m.commit_replica(block, locs[0]).is_err());
    m.commit_replicas(block, &[], &locs[1..]).unwrap();
    for l in &locs {
        assert_eq!(m.scheduled_bytes(l.media), 0, "{l:?} is still reserved");
    }
}

/// An op takes every guard through its context, so a writer held up by
/// the block map's lock shows the wait as lock wait, not as work.
#[test]
fn add_block_counts_its_wait_for_the_block_map_as_lock_wait() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(1), None, SYS).unwrap();
    let lock_wait = || {
        let labels = Labels::op("add_block");
        let h =
            m.metrics.histogram_with("master_meta_op_lock_wait_us", labels, BucketLayout::Micro);
        h.sum_us()
    };
    let before = lock_wait();
    let (held, holding) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let m = &m;
        s.spawn(move || {
            let _blocks = m.blocks.write();
            held.send(()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
        holding.recv().unwrap();
        let client = ClientLocation::OffCluster;
        m.add_block_excluding("/f", 1 << 20, client, SYS, &[]).unwrap();
    });
    let waited = lock_wait() - before;
    assert!(waited >= 20_000, "add_block's lock wait grew by {waited} µs");
}

#[test]
fn a_late_drop_never_demotes_a_committed_location() {
    let m = boot_master(6);
    m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    // Stages 1 and 2 are confirmed (a commit, or a block report); a late
    // commit then names both among the stages it never reached.
    m.commit_replicas(block, &locs[1..], &[]).unwrap();
    m.commit_replicas(block, &locs[..1], &locs[1..]).unwrap();
    let live = m.block_locations(block.id);
    assert_eq!(live, [&locs[1..], &locs[..1]].concat(), "a late drop stripped a replica");
    // Confirmed stages already consumed their reservation; the late drop
    // must not touch it again.
    for l in &locs {
        assert_eq!(m.scheduled_bytes(l.media), 0);
    }
}

/// `CommitReplica` is resent after a lost reply: the second commit of a
/// replica must not release the reservation of another write on its
/// medium, and a block report that confirms a pending replica releases it
/// exactly once, whichever of report and commit comes first.
#[test]
fn a_reservation_is_released_once_by_whichever_confirm_ends_its_pending() {
    let m = boot_master(1);
    let hdd = ReplicationVector::msh(0, 0, 1);
    m.create_file_as("/f", hdd, None, SYS).unwrap();
    let (a, at) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    let (b, bt) = m.add_block_excluding("/f", 300 << 10, OFF, SYS, &[]).unwrap();
    assert_eq!(at, bt, "both blocks reserve the one HDD medium");
    let medium = at[0].media;
    assert_eq!(m.scheduled_bytes(medium), a.len + b.len);
    m.commit_replica(a, at[0]).unwrap();
    m.commit_replica(a, at[0]).unwrap();
    assert_eq!(m.scheduled_bytes(medium), b.len, "a resent commit released B's reservation");

    // B's replica is reported before its commit arrives; C is in flight.
    m.create_file_as("/g", hdd, None, SYS).unwrap();
    let (c, _) = m.add_block_excluding("/g", 200 << 10, OFF, SYS, &[]).unwrap();
    m.block_report(WorkerId(0), &[(a, medium), (b, medium)]).unwrap();
    assert_eq!(m.scheduled_bytes(medium), c.len, "the report takes B out of pending");
    m.commit_replica(b, bt[0]).unwrap();
    assert_eq!(m.scheduled_bytes(medium), c.len, "report + commit release B once");
}

#[test]
fn replication_scan_restores_lost_replicas() {
    let m = boot_master(6);
    m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as("/f", SYS).unwrap();
    assert!(m.replication_scan().is_empty(), "satisfied block needs no tasks");

    // Kill the worker hosting the first replica.
    m.kill_worker(locs[0].worker);
    let tasks = m.replication_scan();
    assert_eq!(tasks.len(), 1);
    let ReplicationTask::Copy { block: b, sources, target } = &tasks[0] else {
        panic!("expected a copy task");
    };
    assert_eq!(b.id, block.id);
    assert!(!sources.is_empty());
    assert_ne!(target.worker, locs[0].worker);
    // Sources must be surviving confirmed replicas.
    for s in sources {
        assert!(locs[1..].contains(s));
    }
    // A second scan must not double-schedule.
    assert!(m.replication_scan().is_empty());
    // Completing the copy confirms the replica.
    m.commit_replica(block, *target).unwrap();
    assert_eq!(m.block_locations(block.id).len(), 3);
}

#[test]
fn set_replication_triggers_move_between_tiers() {
    let m = boot_master(6);
    // Pin: 1 memory + 2 HDD.
    m.create_file_as("/f", ReplicationVector::msh(1, 0, 2), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as("/f", SYS).unwrap();

    // Move one HDD replica to SSD: ⟨1,0,2⟩ → ⟨1,1,1⟩.
    let old = m.set_replication("/f", ReplicationVector::msh(1, 1, 1)).unwrap();
    assert_eq!(old, ReplicationVector::msh(1, 0, 2));
    let tasks = m.replication_scan();
    let copies: Vec<_> =
        tasks.iter().filter(|t| matches!(t, ReplicationTask::Copy { .. })).collect();
    let deletes: Vec<_> =
        tasks.iter().filter(|t| matches!(t, ReplicationTask::Delete { .. })).collect();
    assert_eq!(copies.len(), 1);
    assert_eq!(deletes.len(), 1);
    if let ReplicationTask::Copy { target, .. } = copies[0] {
        assert_eq!(target.tier, StorageTier::Ssd.id());
    }
    if let ReplicationTask::Delete { location, .. } = deletes[0] {
        assert_eq!(location.tier, StorageTier::Hdd.id());
    }
}

#[test]
fn delete_returns_locations_for_invalidation() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(2), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as("/f", SYS).unwrap();
    let dropped = m.delete("/f", false).unwrap();
    assert_eq!(dropped.len(), 2);
    assert!(m.status("/f").is_err());
    assert!(m.block_locations(block.id).is_empty());
}

#[test]
fn block_report_reconciles() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(1), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    let loc = locs[0];
    // Worker reports the block: pending → confirmed.
    let invalid = m.block_report(loc.worker, &[(block, loc.media)]).unwrap();
    assert!(invalid.is_empty());
    assert_eq!(m.block_locations(block.id), vec![loc]);
    // Worker reports an unknown block → invalidation.
    let ghost = Block { id: BlockId(9999), gen: GenStamp(0), len: 1 };
    let invalid = m.block_report(loc.worker, &[(block, loc.media), (ghost, loc.media)]).unwrap();
    assert_eq!(invalid, vec![BlockId(9999)]);
    // Worker stops reporting the block → replica dropped.
    let invalid = m.block_report(loc.worker, &[]).unwrap();
    assert!(invalid.is_empty());
    assert!(m.block_locations(block.id).is_empty());
}

#[test]
fn stale_block_report_keeps_a_replica_committed_after_its_snapshot() {
    for seed in 0..8u32 {
        let m = boot_master(4);
        let block = put_file(&m, "/f", rv_u(3));
        let locs = m.block_locations(block.id);
        let victim = locs[seed as usize % locs.len()];
        // The victim worker snapshotted its report before the commit
        // landed, so the report does not list the new replica.
        m.block_report(victim.worker, &[]).unwrap();
        assert_eq!(m.block_locations(block.id).len(), 3, "fresh commit dropped");
        assert!(m.replication_scan().is_empty(), "healthy block must not be copied");
        // Its next report is newer than the commit: still absent
        // means genuinely lost.
        m.block_report(victim.worker, &[]).unwrap();
        assert!(!m.block_locations(block.id).contains(&victim));
        assert_eq!(m.replication_scan().len(), 1);
    }
}

/// A trim victim whose worker is declared dead before its failed delete
/// is reinstated stays gone: no later scan sends the dead worker a delete.
#[test]
fn a_delete_reinstated_on_a_dead_worker_is_not_recorded() {
    let m = boot_master(4);
    let block = put_file(&m, "/f", rv_u(3));
    m.set_replication("/f", rv_u(2)).unwrap();
    let tasks = m.replication_scan();
    let [ReplicationTask::Delete { location: victim, .. }] = tasks[..] else { panic!("{tasks:?}") };
    m.kill_worker(victim.worker);
    m.reinstate_replica(block, victim);
    let held = m.block_locations(block.id);
    assert!(held.len() == 2 && held.iter().all(|l| l.worker != victim.worker), "{held:?}");
    let tasks = m.replication_scan();
    let on_victim = |t: &_| matches!(t, ReplicationTask::Delete { location, .. } if location.worker == victim.worker);
    assert!(!tasks.iter().any(on_victim), "{tasks:?}");
}

/// The head's commit lands after its tail was declared dead, by
/// `kill_worker` or by the failure detector: the tail is not recorded,
/// and the next scan copies the block to a live worker.
#[test]
fn a_commit_after_its_tail_died_does_not_record_the_tail() {
    for way in ["kill_worker", "tick"] {
        let m = boot_master(4);
        m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
        let (block, pipeline) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
        let tail = pipeline[2].worker;
        if way == "kill_worker" {
            m.kill_worker(tail);
        } else {
            let later = 10 * m.config().heartbeat_ms + 1;
            m.tick(1);
            for w in (0..4).map(WorkerId).filter(|&w| w != tail) {
                m.heartbeat(w, media_of(w.0, 10 << 20), 0, &[]).unwrap();
            }
            assert_eq!(m.tick(later), [tail]);
        }
        m.commit_replicas(block, &pipeline, &[]).unwrap();
        m.complete_file_as("/f", SYS).unwrap();
        assert_eq!(m.block_locations(block.id), pipeline[..2], "{way}");
        let tasks = m.replication_scan();
        let [ReplicationTask::Copy { target, .. }] = tasks[..] else { panic!("{way}: {tasks:?}") };
        assert_ne!(target.worker, tail, "{way}");
    }
}

/// A block report from a worker that is not live confirms nothing; the
/// report it sends once it has rejoined does.
#[test]
fn a_report_from_a_worker_that_is_not_live_confirms_nothing() {
    let m = boot_master(3);
    m.create_file_as("/f", rv_u(1), None, SYS).unwrap();
    let (block, pipeline) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    let at = pipeline[0];
    m.kill_worker(at.worker);
    assert_eq!(m.block_report(at.worker, &[(block, at.media)]).unwrap(), []);
    assert_eq!(m.block_locations(block.id), []);
    m.register_worker(at.worker, RackId(0), 1e9);
    m.heartbeat(at.worker, media_of(at.worker.0, 10 << 20), 0, &[]).unwrap();
    m.block_report(at.worker, &[(block, at.media)]).unwrap();
    assert_eq!(m.block_locations(block.id), [at]);
}

#[test]
fn checkpoint_restore_round_trip() {
    let m = boot_master(3);
    m.mkdir("/a/b").unwrap();
    m.create_file_as("/a/f", rv_u(2), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/a/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as("/a/f", SYS).unwrap();

    let image = m.checkpoint();
    let restored = restore(m.config().clone(), &image).unwrap();
    let st = restored.status("/a/f").unwrap();
    assert_eq!(st.len, 1 << 20);
    assert!(st.complete);
    // Locations are rebuilt from block reports.
    assert!(restored.block_locations(block.id).is_empty());
    let w = locs[0].worker;
    restored.register_worker(w, RackId(0), 1e9);
    restored.heartbeat(w, media_of(w.0, 9 << 20), 0, &[]).unwrap();
    restored.block_report(locs[0].worker, &[(block, locs[0].media)]).unwrap();
    assert_eq!(restored.block_locations(block.id), vec![locs[0]]);
    // New block ids never collide with restored ones.
    restored.create_file_as("/a/g", rv_u(1), None, SYS).unwrap();
    // (worker capacity is tracked; a fresh block id is issued)
    let (b2, _) = restored.add_block_excluding("/a/g", 1 << 20, OFF, SYS, &[]).unwrap();
    assert!(b2.id > block.id);
}

#[test]
fn dead_worker_tick_drops_locations() {
    let m = boot_master(4);
    m.create_file_as("/f", rv_u(3), None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding("/f", 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    // heartbeat_ms=100, dead after 10 missed → all workers dead at t>1000.
    let dead = m.tick(5000);
    assert_eq!(dead.len(), 4);
    assert!(m.block_locations(block.id).is_empty());
}

#[test]
fn tier_reports_present() {
    let m = boot_master(3);
    let reports = m.get_storage_tier_reports();
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].name, "Memory");
    assert!(reports[0].volatile);
    assert_eq!(reports[2].stats.num_media, 3);
}

#[test]
fn quota_flow_through_master() {
    let m = boot_master(3);
    m.mkdir("/tenant").unwrap();
    m.set_quota("/tenant", TierQuota::limit_tier(0, 1 << 20)).unwrap();
    m.create_file_as("/tenant/f", ReplicationVector::msh(1, 0, 1), None, SYS).unwrap();
    m.add_block_excluding("/tenant/f", 1 << 20, OFF, SYS, &[]).unwrap();
    let err = m.add_block_excluding("/tenant/f", 1 << 20, OFF, SYS, &[]);
    assert!(matches!(err, Err(FsError::QuotaExceeded(_))));
    let (q, usage) = m.quota_usage("/tenant").unwrap();
    assert_eq!(q, TierQuota::limit_tier(0, 1 << 20));
    assert_eq!(usage[0], 1 << 20);
}

/// Writes a complete one-block file and returns its block.
fn put_file(m: &Master, path: &str, rv: ReplicationVector) -> Block {
    m.create_file_as(path, rv, None, SYS).unwrap();
    let (block, locs) = m.add_block_excluding(path, 1 << 20, OFF, SYS, &[]).unwrap();
    for l in &locs {
        m.commit_replica(block, *l).unwrap();
    }
    m.complete_file_as(path, SYS).unwrap();
    block
}

fn touch(m: &Master, block: Block, reads: u32) {
    m.observe_touches(&[BlockTouches { block: block.id, reads, writes: 0 }]);
}

#[test]
fn delete_forgets_file_heat_and_recreated_file_starts_cold() {
    // Regression: heat entries used to outlive their inode — delete
    // left the tracker entry in place forever, and a file re-created
    // at the same path could inherit nothing (new inode id) while the
    // dead entry still leaked memory and polluted `hot_files`.
    let m = boot_master(3);
    let block = put_file(&m, "/f", rv_u(1));
    touch(&m, block, 5);
    assert_eq!(m.heat_tracked_files(), 1);
    assert_eq!(m.hot_files(10).len(), 1);

    m.delete("/f", false).unwrap();
    assert_eq!(m.heat_tracked_files(), 0, "delete must forget the file's heat");
    assert!(m.hot_files(10).is_empty());

    // Re-creating the path yields a cold file: no tracked heat and no
    // promotion from the auto-tiering planner.
    put_file(&m, "/f", rv_u(1));
    assert_eq!(m.heat_tracked_files(), 0);
    let decisions =
        m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
    assert!(
        !decisions.iter().any(|d| d.direction == MigrationDirection::Promote),
        "recreated file must start cold"
    );
}

#[test]
fn what_held_a_deleted_files_id_does_not_see_its_slots_next_tenant() {
    let m = boot_master(3);
    let old_block = put_file(&m, "/old", rv_u(1));
    let old = m.status("/old").unwrap().id;
    touch(&m, old_block, 9);
    m.delete("/old", false).unwrap();
    // Create until a file moves into the freed slot.
    let tenant = (0..100)
        .map(|i| format!("/new{i}"))
        .find(|path| {
            put_file(&m, path, rv_u(1));
            m.status(path).unwrap().id.slot() == old.slot()
        })
        .expect("a freed slot is reused");
    let id = m.status(&tenant).unwrap().id;
    assert_eq!((id.slot(), id.generation()), (old.slot(), old.generation() + 1));

    // Heat: a heartbeat that still reports touches of the deleted block
    // warms nothing, and the tenant starts cold.
    touch(&m, old_block, 9);
    assert_eq!(m.heat_tracked_files(), 0);
    assert_eq!(m.file_heat(&tenant).unwrap().score, 0.0);
    assert!(m.hot_files(10).is_empty());
    // Audit: the old block's events still name the old id, which the
    // namespace no longer resolves — not to the tenant, not to anything.
    let events = m.explain(old_block.id);
    assert!(!events.is_empty() && events.iter().all(|e| e.file == old));
    let g = m.namespace.read();
    assert!(matches!(g.ns.path_of(old), Err(FsError::Internal(_))));
    assert!(matches!(g.ns.file_meta(old), Err(FsError::Internal(_))));
    assert_eq!(g.ns.path_of(id).unwrap(), tenant);
}

#[test]
fn delete_recursive_forgets_subtree_heat() {
    let m = boot_master(3);
    m.mkdir("/d").unwrap();
    let a = put_file(&m, "/d/a", rv_u(1));
    let b = put_file(&m, "/d/b", rv_u(1));
    touch(&m, a, 3);
    touch(&m, b, 3);
    assert_eq!(m.heat_tracked_files(), 2);
    m.delete("/d", true).unwrap();
    assert_eq!(m.heat_tracked_files(), 0);
}

#[test]
fn rename_resets_heat() {
    // A common pattern writes to a staging path and renames into
    // place; the published file should not inherit staging heat.
    let m = boot_master(3);
    let block = put_file(&m, "/staging", rv_u(1));
    touch(&m, block, 5);
    assert_eq!(m.heat_tracked_files(), 1);
    m.rename("/staging", "/published").unwrap();
    assert_eq!(m.heat_tracked_files(), 0, "rename must reset the file's heat");
}

#[test]
fn tick_gcs_decayed_heat_entries() {
    let m = boot_master(3);
    let block = put_file(&m, "/f", rv_u(1));
    touch(&m, block, 5);
    assert_eq!(m.heat_tracked_files(), 1);
    // A short tick keeps the entry alive (score still well above zero).
    m.tick(100);
    assert_eq!(m.heat_tracked_files(), 1);
    // After a long idle stretch the EWMA decays to ~0 and the tick-time
    // GC drops the entry (workers also go dead at this clock; the GC
    // must still run).
    m.tick(1_000_000);
    assert_eq!(m.heat_tracked_files(), 0, "tick must GC fully decayed heat entries");
}

#[test]
fn autotier_promotes_hot_and_leaves_warm_alone() {
    let m = boot_master(3);
    let hot = put_file(&m, "/hot", ReplicationVector::msh(0, 0, 1));
    let warm = put_file(&m, "/warm", ReplicationVector::msh(0, 0, 1));
    // 5 touches this epoch → score 0.4·5 = 2.0 (hot); 1 touch → 0.4
    // (inside the warm hysteresis band).
    touch(&m, hot, 5);
    touch(&m, warm, 1);

    let decisions =
        m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
    assert_eq!(decisions.len(), 1);
    let d = &decisions[0];
    assert_eq!(d.path, "/hot");
    assert_eq!(d.direction, MigrationDirection::Promote);
    assert_eq!(d.from, ReplicationVector::msh(0, 0, 1));
    assert_eq!(d.to, ReplicationVector::msh(1, 0, 1));
    assert_eq!(d.copy_bytes, 1 << 20);

    // The vector edit is visible in the namespace and the §5 monitor
    // realizes it as a copy toward the Memory tier.
    assert_eq!(m.status("/hot").unwrap().rv, ReplicationVector::msh(1, 0, 1));
    assert_eq!(m.status("/warm").unwrap().rv, ReplicationVector::msh(0, 0, 1));
    let tasks = m.replication_scan();
    assert_eq!(tasks.len(), 1);
    let ReplicationTask::Copy { target, .. } = &tasks[0] else {
        panic!("expected a copy task");
    };
    assert_eq!(target.tier, StorageTier::Memory.id());

    // The move is recorded in the audit ring.
    let events = m.recent_migrations(10);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, DecisionKind::Migration);
    assert!(events[0].policy.contains("promote"), "policy line: {}", events[0].policy);

    // Idempotent: the file already has its memory replica planned.
    assert!(m
        .autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default())
        .is_empty());
}

#[test]
fn autotier_demotes_cold_files_without_losing_last_replica() {
    let m = boot_master(3);
    put_file(&m, "/cold", ReplicationVector::msh(1, 0, 1));
    // A memory-only file must be demoted *to* somewhere, not to zero
    // replicas.
    put_file(&m, "/pinned", ReplicationVector::msh(1, 0, 0));

    let decisions =
        m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
    assert_eq!(decisions.len(), 2);
    for d in &decisions {
        assert_eq!(d.direction, MigrationDirection::Demote);
    }
    assert_eq!(m.status("/cold").unwrap().rv, ReplicationVector::msh(0, 0, 1));
    assert_eq!(m.status("/pinned").unwrap().rv, ReplicationVector::msh(0, 0, 1));

    // The monitor turns the /cold demotion into a memory-replica
    // delete, and copies /pinned to HDD before trimming memory: the
    // memory replica is /pinned's only copy, so its trim must wait.
    let tasks = m.replication_scan();
    let deletes: Vec<_> = tasks
        .iter()
        .filter_map(|t| match t {
            ReplicationTask::Delete { location, .. } => Some(*location),
            _ => None,
        })
        .collect();
    assert_eq!(deletes.len(), 1, "only the safely-replicated file is trimmed immediately");
    assert_eq!(deletes[0].tier, StorageTier::Memory.id());
    let copies: Vec<_> = tasks
        .iter()
        .filter_map(|t| match t {
            ReplicationTask::Copy { block, target, .. } => Some((*block, *target)),
            _ => None,
        })
        .collect();
    assert_eq!(copies.len(), 1);
    let (pinned_block, target) = copies[0];
    assert_eq!(target.tier, StorageTier::Hdd.id());

    // Once the HDD copy confirms, the next scan completes the demotion
    // by trimming the now-redundant memory replica.
    m.commit_replica(pinned_block, target).unwrap();
    let tasks = m.replication_scan();
    assert_eq!(tasks.len(), 1);
    let ReplicationTask::Delete { location, .. } = &tasks[0] else {
        panic!("expected the deferred memory trim");
    };
    assert_eq!(location.tier, StorageTier::Memory.id());
}

#[test]
fn autotier_respects_round_budgets() {
    let m = boot_master(3);
    let blocks: Vec<Block> =
        (0..4).map(|i| put_file(&m, &format!("/f{i}"), ReplicationVector::msh(0, 0, 1))).collect();
    for (i, b) in blocks.iter().enumerate() {
        // Distinct hotness so the ordering is deterministic: f0 hottest.
        touch(&m, *b, 10 - i as u32);
    }

    let cfg = AutoTierConfig { max_files_per_round: 2, ..AutoTierConfig::default() };
    let decisions = m.autotier_scan(&EwmaThresholdClassifier::default(), &cfg);
    assert_eq!(decisions.len(), 2, "file cap bounds the round");
    assert_eq!(decisions[0].path, "/f0", "hottest files migrate first");
    assert_eq!(decisions[1].path, "/f1");

    // Byte budget: one 1 MB file fits, the rest wait for later rounds.
    let cfg = AutoTierConfig { max_bytes_per_round: 1 << 20, ..AutoTierConfig::default() };
    let decisions = m.autotier_scan(&EwmaThresholdClassifier::default(), &cfg);
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].path, "/f2");
}
