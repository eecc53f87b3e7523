//! Replication-monitor failure handling (§5): failed deletes are
//! compensated (not swallowed), scrub distinguishes unreachable workers
//! from clean ones, and per-worker task batches run concurrently so one
//! dead worker does not stall the rest of the fleet.

use std::time::{Duration, Instant};

use octopus_common::{BlockId, ClientLocation, ClusterConfig, Location, ReplicationVector, MB};
use octopus_core::net::{faults, monitor, FaultAction, ScrubStatus};
use octopus_core::{Cluster, NetCluster};
use octopus_master::{Master, ReplicationTask};

fn config(n: u32) -> ClusterConfig {
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

fn rf(n: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(n)
}

/// The ISSUE's core bug: a `Delete` RPC that fails mid-round must leave
/// the replica in the master's block map (reinstated), so later scans
/// re-issue the delete and the cluster converges with no leaked bytes.
#[test]
fn failed_delete_reinstates_replica_and_reconverges() {
    let mut cluster = NetCluster::start(config(2)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 5);
    client.write_file("/del", &data, rf(2)).unwrap();
    let locs = client.get_file_block_locations("/del", 0, u64::MAX).unwrap();
    assert_eq!(locs[0].locations.len(), 2);

    // Shrink the target replication, then take the whole data plane down
    // before the round runs: the scheduled delete cannot reach its worker.
    client.set_replication("/del", rf(1)).unwrap();
    cluster.kill_worker(0);
    cluster.kill_worker(1);

    let outcome = cluster.run_replication_round().unwrap();
    assert_eq!(outcome.attempted, 1);
    assert_eq!(outcome.deletes_failed, 1, "unreachable delete must be counted as failed");
    assert!(!outcome.all_ok());

    // The replica was reinstated, not silently dropped from the map: the
    // master still advertises both copies (the bytes do still exist).
    let locs = client.get_file_block_locations("/del", 0, u64::MAX).unwrap();
    assert_eq!(locs[0].locations.len(), 2, "failed delete must keep the replica visible");

    let snap = cluster.metrics_snapshot().unwrap();
    assert!(snap.counter("master_replication_delete_failures_total") >= 1);

    // Workers return; subsequent scans re-issue the delete and both the
    // block map and the on-disk bytes converge to rv = 1.
    cluster.restart_worker(0).unwrap();
    cluster.restart_worker(1).unwrap();
    let mut converged = false;
    for _ in 0..40 {
        let _ = cluster.run_replication_round();
        let _ = cluster.run_block_report_round();
        let locs = client.get_file_block_locations("/del", 0, u64::MAX).unwrap();
        let used: u64 = cluster.workers().iter().map(|w| w.used()).sum();
        if locs[0].locations.len() == 1 && used == MB {
            converged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(converged, "blockmap and stored bytes must re-converge with no leaked replica");
    assert_eq!(client.read_file("/del").unwrap(), data);
}

/// `Replicate` is resent blindly when its reply is lost. The copy landed
/// the first time, so the resend must find the same bytes already stored
/// and succeed: the round counts one good copy, the monitor commits it
/// in-process (no `CommitReplica` reaches the master's server), and the
/// target's reservation is released exactly once.
#[test]
fn a_resent_copy_whose_first_reply_was_lost_counts_as_done() {
    let cluster = NetCluster::start(config(3)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 9);
    client.write_file("/resend", &data, rf(2)).unwrap();
    let holders: Vec<_> = client.get_file_block_locations("/resend", 0, u64::MAX).unwrap()[0]
        .locations
        .iter()
        .map(|l| l.worker)
        .collect();
    let target = cluster.workers().iter().map(|w| w.id()).find(|w| !holders.contains(w)).unwrap();
    client.set_replication("/resend", rf(3)).unwrap();

    let commits = || {
        cluster.master().metrics().snapshot().counter_where("master_requests_total", |l| {
            l.request_type.as_deref() == Some("CommitReplica")
        })
    };
    let commits_before = commits();
    let addr = cluster.worker_addr(target).unwrap();
    faults::inject(addr, FaultAction::DropConnection);
    let outcome = cluster.run_replication_round().unwrap();
    assert_eq!(commits() - commits_before, 0, "a copy is committed by its monitor");
    assert_eq!(faults::pending(addr), 0, "the copy's first reply was the one dropped");
    assert_eq!((outcome.copies_ok, outcome.copies_failed), (1, 0), "{outcome:?}");

    let located = client.get_file_block_locations("/resend", 0, u64::MAX).unwrap();
    let copy = located[0].locations.iter().find(|l| l.worker == target).expect("copy committed");
    assert_eq!(cluster.master().scheduled_bytes(copy.media), 0, "reservation left behind");
    assert_eq!(client.read_file("/resend").unwrap(), data);
}

/// An unreachable worker is not "0 corrupt replicas": scrub reports it
/// per worker, and the master's metrics count it.
#[test]
fn scrub_distinguishes_unreachable_from_clean() {
    let mut cluster = NetCluster::start(config(3)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/s", &payload(MB as usize, 7), rf(2)).unwrap();

    let dead = cluster.workers()[2].id();
    cluster.kill_worker(2);

    let round = cluster.run_scrub_round().unwrap();
    assert_eq!(round.workers.len(), 3);
    assert_eq!(round.unreachable(), vec![dead]);
    assert_eq!(round.corrupt_total(), 0);
    for (w, status) in &round.workers {
        if *w == dead {
            assert_eq!(*status, ScrubStatus::Unreachable);
        } else {
            assert_eq!(*status, ScrubStatus::Clean, "live worker {w} must scrub clean");
        }
    }

    let snap = cluster.metrics_snapshot().unwrap();
    assert!(snap.counter("master_scrub_rounds_total") >= 1);
    assert!(
        snap.counter_where("master_scrub_unreachable_total", |l| l.worker == Some(dead)) >= 1,
        "the unreachable worker must be counted, labeled with its id"
    );
}

/// Per-worker batches run concurrently: with every worker's next response
/// delayed, a fleet round costs roughly one delay, not the sum.
#[test]
fn scrub_batches_run_concurrently_across_workers() {
    let cluster = NetCluster::start(config(3)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/c", &payload(MB as usize, 3), rf(2)).unwrap();

    let delay = Duration::from_millis(600);
    for w in cluster.workers() {
        faults::inject(cluster.worker_addr(w.id()).unwrap(), FaultAction::Delay(delay));
    }
    let start = Instant::now();
    let round = cluster.run_scrub_round().unwrap();
    let elapsed = start.elapsed();
    for w in cluster.workers() {
        faults::clear(cluster.worker_addr(w.id()).unwrap());
    }
    assert_eq!(round.corrupt_total(), 0);
    assert!(round.unreachable().is_empty());
    assert!(
        elapsed < delay * 2,
        "3 delayed workers must be scrubbed concurrently (~1 delay), took {elapsed:?}"
    );
}

/// A round with one dead worker is bounded by that worker's own RPC
/// deadline budget — it does not stall the other workers' tasks — and no
/// replica is permanently leaked once the worker returns.
#[test]
fn replication_round_with_dead_worker_stays_bounded_and_heals() {
    let mut cluster = NetCluster::start(config(4)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/b").unwrap();
    for i in 0..3u64 {
        let path = format!("/b/{i}");
        client.write_file(&path, &payload(MB as usize, 30 + i), rf(3)).unwrap();
        client.set_replication(&path, rf(2)).unwrap();
    }
    cluster.kill_worker(0);

    let start = Instant::now();
    let outcome = cluster.run_replication_round().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(outcome.attempted, 3);
    assert_eq!(
        outcome.deletes_ok + outcome.deletes_failed,
        3,
        "every scheduled delete must be accounted for, success or failure"
    );
    // One dead worker's batch costs its own retry budget; the live
    // workers' batches proceed in parallel rather than queueing behind it.
    assert!(
        elapsed < Duration::from_secs(4),
        "round must be bounded by one worker's RPC budget, took {elapsed:?}"
    );

    // After the worker returns, scans finish the trim with nothing leaked.
    cluster.restart_worker(0).unwrap();
    let mut converged = false;
    for _ in 0..40 {
        let _ = cluster.run_replication_round();
        let _ = cluster.run_block_report_round();
        let trimmed = (0..3u64).all(|i| {
            client
                .get_file_block_locations(&format!("/b/{i}"), 0, u64::MAX)
                .unwrap()
                .iter()
                .all(|lb| lb.locations.len() == 2)
        });
        let used: u64 = cluster.workers().iter().map(|w| w.used()).sum();
        if trimmed && used == 3 * 2 * MB {
            converged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(converged, "all files must trim to 2 replicas with no leaked bytes");
}

/// A block's confirmed replicas on workers the master holds live.
fn live_replicas(m: &Master, block: BlockId) -> Vec<Location> {
    let live: Vec<_> =
        m.cluster_status(0).workers.into_iter().filter(|w| w.live).map(|w| w.worker).collect();
    m.block_locations(block).into_iter().filter(|l| live.contains(&l.worker)).collect()
}

/// A trim's victim and one other holder die between the scan that planned
/// the trim and its delete. The failed delete must not put the dead victim
/// back, or the block would count it and stay at one live replica: the
/// next rounds copy it back up to its vector's two.
#[test]
fn a_trim_whose_victim_died_before_its_delete_heals_to_the_vector() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(4, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    client.write_file("/trim", &data, rf(3)).unwrap();
    client.set_replication("/trim", rf(2)).unwrap();
    let master = cluster.master();
    let tasks = master.replication_scan();
    let [ReplicationTask::Delete { block, location: victim }] = tasks[..] else {
        panic!("one trim expected: {tasks:?}")
    };
    let holders = master.block_locations(block.id);
    let other = holders.iter().find(|l| l.worker != victim.worker).unwrap().worker;
    cluster.kill_worker(victim.worker);
    cluster.kill_worker(other);
    let outcome = monitor::run_tasks(master, &**cluster.transport(), tasks, None, None);
    assert_eq!(outcome.deletes_failed, 1);
    for _ in 0..3 {
        cluster.run_replication_round().unwrap();
    }
    let live = live_replicas(master, block.id);
    assert_eq!(live.len(), 2, "{live:?} of {:?}", master.block_locations(block.id));
    assert!(live.iter().all(|l| l.worker != victim.worker && l.worker != other), "{live:?}");
    assert_eq!(client.read_file("/trim").unwrap(), data);
}
