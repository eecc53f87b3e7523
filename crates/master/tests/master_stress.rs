//! Concurrency torture tests for the master (DESIGN.md §11).
//!
//! The master keeps one namespace and one block map behind separate
//! locks and funnels all mutations through a group-commit edit log. These
//! tests hammer that machinery with seeded multi-threaded mixes of
//! create/rename/delete/stat/list/set_replication over colliding paths,
//! then audit the full invariant set after every run:
//!
//! 1. **Replay equivalence** — replaying the durable edit log into a
//!    fresh master reproduces the exact final namespace image: every
//!    path, kind, length, vector, and block list.
//! 2. **Namespace↔blockmap bijection** — the union of all files' block
//!    lists equals the block-map inventory exactly: no orphaned blocks
//!    surviving deletes, no file pointing at a missing block.
//! 3. **Contiguous offsets** — every file's located blocks tile
//!    `[0, len)` without gaps or overlaps.
//! 4. **No unreachable inodes** — the files/dirs reachable by walking
//!    `/` match the master's own counts.
//!
//! Plus two targeted regressions: a lock-order deadlock canary on
//! renames running in opposing directions, and the rename-vs-delete race (`rename /a/x → /b/x` vs `delete /b`) that must
//! neither deadlock nor leave an unreachable inode. And liveness races
//! the block plane: one thread kills, re-registers and heartbeats
//! workers while the others commit, locate and scan; at every quiescent
//! point no confirmed or pending replica sits on a worker the master
//! holds dead, and the reserved bytes are a walk of the pending replicas.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use octopus_common::rng::Rng;
use octopus_common::{
    BlockId, ClientLocation, ClusterConfig, MediaId, MediaStats, RackId, ReplicationVector, TierId,
    WorkerId,
};
use octopus_master::{ClientId, EditLog, Master, ReplicationTask};

const BLOCK_SIZE: u64 = 1 << 20;

/// Boots an in-process master with `n` registered workers (one medium per
/// tier each), heartbeats applied.
fn boot(n: u32) -> Master {
    let master = Master::new(ClusterConfig::test_cluster(n, 10 << 20, BLOCK_SIZE)).unwrap();
    for w in 0..n {
        join(&master, WorkerId(w), 0);
    }
    master
}

/// Registers worker `w` at `now_ms` and delivers its first heartbeat.
fn join(master: &Master, w: WorkerId, now_ms: u64) {
    master.register_worker(w, RackId((w.0 % 2) as u16), 1e9, now_ms);
    beat(master, w, now_ms);
}

/// One heartbeat from worker `w`: its three media, all free.
fn beat(master: &Master, w: WorkerId, now_ms: u64) {
    let media: Vec<MediaStats> = (0..3u8)
        .map(|t| MediaStats {
            media: MediaId(w.0 * 3 + t as u32),
            worker: w,
            rack: RackId((w.0 % 2) as u16),
            tier: TierId(t),
            capacity: 10 << 20,
            remaining: 10 << 20,
            nr_conn: 0,
            write_thru: [1900.0, 340.0, 126.0][t as usize] * 1048576.0,
            read_thru: [3200.0, 420.0, 177.0][t as usize] * 1048576.0,
        })
        .collect();
    master.heartbeat(w, media, 0, now_ms, &[]).unwrap();
}

/// The directories the mix plays in. A small name pool under a handful of
/// directories guarantees cross-directory renames and same-path
/// collisions between threads.
const DIRS: [&str; 4] = ["/a", "/b", "/c/nested", "/d"];

fn rv(r: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(r)
}

/// One seeded multi-threaded torture run. Every op result is allowed to
/// fail with a namespace error (races make all of them fallible) — what
/// must not happen is a panic, a deadlock, or an invariant violation
/// afterwards.
fn torture(seed: u64, threads: usize, iters: usize) -> Master {
    let master = boot(4);
    for d in DIRS {
        master.mkdir(d).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let master = &master;
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(seed * 131 + t as u64);
                for _ in 0..iters {
                    let dir = DIRS[rng.below(DIRS.len() as u64) as usize];
                    let name = rng.below(12);
                    let path = format!("{dir}/f{name}");
                    match rng.below(100) {
                        0..=34 => {
                            // Create; half the time also write a block and
                            // seal, sometimes leave the file open.
                            if master
                                .create_file_as(
                                    &path,
                                    rv(rng.below(3) as u8 + 1),
                                    None,
                                    ClientId::SYSTEM,
                                )
                                .is_ok()
                            {
                                if rng.below(2) == 0 {
                                    let len = (rng.below(4) + 1) * 1024;
                                    if let Ok((block, locs)) = master.add_block_excluding(
                                        &path,
                                        len,
                                        ClientLocation::OffCluster,
                                        ClientId::SYSTEM,
                                        &[],
                                    ) {
                                        for l in locs {
                                            let _ = master.commit_replica(block, l);
                                        }
                                    }
                                    let _ = master.complete_file_as(&path, ClientId::SYSTEM);
                                } else if rng.below(2) == 0 {
                                    let _ = master.complete_file_as(&path, ClientId::SYSTEM);
                                }
                            }
                        }
                        35..=49 => {
                            let _ = master.delete(&path, false);
                        }
                        50..=69 => {
                            let to_dir = DIRS[rng.below(DIRS.len() as u64) as usize];
                            let to = format!("{to_dir}/f{}", rng.below(12));
                            let _ = master.rename(&path, &to);
                        }
                        70..=79 => {
                            let _ = master.status(&path);
                        }
                        80..=89 => {
                            let _ = master.list(dir);
                        }
                        90..=94 => {
                            let _ = master.set_replication(&path, rv(rng.below(3) as u8 + 1));
                        }
                        _ => {
                            let _ = master.mkdir(&format!("{dir}/sub{}", rng.below(3)));
                        }
                    }
                }
            });
        }
    });
    master
}

/// One walked entry: `(path, is_dir, len, rv, complete)`.
type WalkEntry = (String, bool, u64, ReplicationVector, bool);

/// Depth-first walk of the whole namespace through the public API.
fn walk(master: &Master) -> Vec<WalkEntry> {
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        for e in master.list(&dir).unwrap() {
            let path =
                if dir == "/" { format!("/{}", e.name) } else { format!("{}/{}", dir, e.name) };
            if e.is_dir {
                stack.push(path.clone());
                out.push((path, true, 0, ReplicationVector::EMPTY, true));
            } else {
                let st = master.status(&path).unwrap();
                out.push((path, false, st.len, st.rv, st.complete));
            }
        }
    }
    out.sort();
    out
}

/// Audits the invariants described in the module docs against `master`.
fn check_invariants(master: &Master) {
    let image = walk(master);

    // 4. Reachability: the walk found exactly what the namespace holds.
    let (files, dirs) = master.counts();
    let walked_files = image.iter().filter(|e| !e.1).count();
    let walked_dirs = image.iter().filter(|e| e.1).count();
    assert_eq!(walked_files, files, "unreachable or phantom files");
    assert_eq!(walked_dirs + 1, dirs, "unreachable or phantom directories (root is implicit)");

    // 2 + 3. Blockmap bijection and offset contiguity.
    let mut expected_blocks = Vec::new();
    for (path, is_dir, len, ..) in &image {
        if *is_dir {
            continue;
        }
        let id = master.status(path).unwrap().id;
        let located =
            master.get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster).unwrap();
        let mut offset = 0;
        for lb in &located {
            assert_eq!(lb.offset, offset, "{path}: non-contiguous block offsets");
            offset = lb.end();
            expected_blocks.push((lb.block.id, id));
        }
        assert_eq!(offset, *len, "{path}: block lengths do not tile the file length");
    }
    expected_blocks.sort();
    assert_eq!(master.block_inventory(), expected_blocks, "namespace↔blockmap bijection broken");

    // 1. Replay equivalence: the durable log alone rebuilds this image.
    let mut log = EditLog::in_memory();
    for op in master.edit_ops_since(0).unwrap() {
        log.append(op).unwrap();
    }
    let config = ClusterConfig::test_cluster(4, 10 << 20, BLOCK_SIZE);
    let replayed = Master::with_log(config, log).unwrap();
    assert_eq!(walk(&replayed), image, "edit-log replay diverged from the live image");
    let (rf, rd) = replayed.counts();
    assert_eq!((rf, rd), (files, dirs), "replayed counts diverged");
}

/// The headline suite: 20 consecutive seeded runs with the full invariant
/// audit after every run.
#[test]
fn seeded_torture_runs_hold_invariants() {
    for seed in 0..20u64 {
        let master = torture(seed, 8, 60);
        check_invariants(&master);
    }
}

/// Lock-order deadlock canary: pairs of threads renaming between the same
/// two directories in *opposite* directions. If rename ever acquired
/// locks in operand order, these two loops would deadlock; the watchdog
/// turns that hang into a failure.
#[test]
fn rename_opposing_directions_no_deadlock() {
    let (done_tx, done_rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        let master = boot(4);
        master.mkdir("/a").unwrap();
        master.mkdir("/b").unwrap();
        for i in 0..8 {
            master.create_file_as(&format!("/a/x{i}"), rv(1), None, ClientId::SYSTEM).unwrap();
            master.complete_file_as(&format!("/a/x{i}"), ClientId::SYSTEM).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let master = &master;
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(t);
                    for _ in 0..200 {
                        let i = rng.below(8);
                        // Half the threads push a→b, half push b→a.
                        if t % 2 == 0 {
                            let _ = master.rename(&format!("/a/x{i}"), &format!("/b/x{i}"));
                        } else {
                            let _ = master.rename(&format!("/b/x{i}"), &format!("/a/x{i}"));
                        }
                    }
                });
            }
        });
        check_invariants(&master);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("opposing rename loops deadlocked (lock-order inversion)");
    t.join().unwrap();
}

/// Regression: `rename /a/x → /b/x` racing `delete /b` must not deadlock and must not leave an unreachable inode — the file
/// ends up at `/a/x`, at `/b/x`, or deleted with the subtree; nothing
/// in between.
#[test]
fn rename_racing_recursive_delete_of_destination() {
    for seed in 0..20u64 {
        let master = boot(4);
        master.mkdir("/a").unwrap();
        master.mkdir("/b").unwrap();
        master.create_file_as("/a/x", rv(1), None, ClientId::SYSTEM).unwrap();
        master.complete_file_as("/a/x", ClientId::SYSTEM).unwrap();
        std::thread::scope(|s| {
            let m1 = &master;
            let m2 = &master;
            s.spawn(move || {
                // Jitter the interleaving differently per seed.
                for _ in 0..seed % 7 {
                    let _ = m1.status("/a/x");
                }
                let _ = m1.rename("/a/x", "/b/x");
            });
            s.spawn(move || {
                for _ in 0..seed % 5 {
                    let _ = m2.list("/b");
                }
                let _ = m2.delete("/b", true);
            });
        });
        let at_a = master.status("/a/x").is_ok();
        let at_b = master.status("/b/x").is_ok();
        assert!(!(at_a && at_b), "file duplicated by rename/delete race");
        check_invariants(&master);
    }
}

/// Same race against the *source* subtree: `rename /a/x → /b/x` racing
/// `delete /a` must never fabricate a file at the destination while the
/// source subtree reports deleted, unless the rename happened first.
#[test]
fn rename_racing_recursive_delete_of_source() {
    for seed in 0..10u64 {
        let master = boot(4);
        master.mkdir("/a").unwrap();
        master.mkdir("/b").unwrap();
        master.create_file_as("/a/x", rv(1), None, ClientId::SYSTEM).unwrap();
        master.complete_file_as("/a/x", ClientId::SYSTEM).unwrap();
        std::thread::scope(|s| {
            let m1 = &master;
            let m2 = &master;
            s.spawn(move || {
                for _ in 0..seed % 4 {
                    let _ = m1.status("/a/x");
                }
                let _ = m1.rename("/a/x", "/b/x");
            });
            s.spawn(move || {
                let _ = m2.delete("/a", true);
            });
        });
        check_invariants(&master);
    }
}

/// A directory rename carries every file under the moved prefix.
#[test]
fn directory_rename_carries_children() {
    let master = boot(4);
    master.mkdir("/src/deep").unwrap();
    for i in 0..32 {
        let p = format!("/src/deep/f{i}");
        master.create_file_as(&p, rv(1), None, ClientId::SYSTEM).unwrap();
        master.complete_file_as(&p, ClientId::SYSTEM).unwrap();
    }
    master.rename("/src", "/dst").unwrap();
    assert!(master.status("/src").is_err());
    for i in 0..32 {
        assert!(master.status(&format!("/dst/deep/f{i}")).is_ok(), "child f{i} lost in move");
    }
    check_invariants(&master);
}

/// The block plane at a quiescent point: every confirmed and pending
/// replica sits on a worker `cluster_status` reports live, and the reserved
/// bytes are the length of every block once per pending replica.
fn check_block_plane(m: &Master, lens: &HashMap<BlockId, u64>) {
    let status = m.cluster_status(0);
    let live: Vec<WorkerId> = status.workers.iter().filter(|w| w.live).map(|w| w.worker).collect();
    let mut walk = 0;
    for (b, _) in m.block_inventory() {
        let (held, pending) = (m.block_locations(b), m.pending_locations(b));
        let dead: Vec<_> =
            held.iter().chain(&pending).filter(|l| !live.contains(&l.worker)).collect();
        assert!(dead.is_empty(), "{b}: replicas on dead workers {dead:?} (live: {live:?})");
        walk += lens[&b] * pending.len() as u64;
    }
    assert_eq!(status.scheduled_bytes, walk, "reserved bytes vs the pending walk");
}

/// Liveness races the block plane: one thread kills workers, or lets the
/// failure detector declare one dead, and re-registers and heartbeats the
/// one it took down before, while writers commit pipelines placed a
/// while earlier (some stages unreached), locate, and delete, and a
/// monitor scans and settles its tasks late (some copies fail, some
/// deletes are reinstated). A phase ends with its last victim still
/// dead; the block plane is audited between phases.
#[test]
fn liveness_races_commits_locates_and_scans() {
    const WORKERS: u32 = 6;
    for seed in 0..4u64 {
        let master = boot(WORKERS);
        for t in 0..3 {
            master.mkdir(&format!("/w{t}")).unwrap();
        }
        let lens = Mutex::new(HashMap::new());
        let hb = master.config().heartbeat_ms;
        let mut down: Option<WorkerId> = None;
        for phase in 0..10u64 {
            let writing = AtomicUsize::new(3);
            std::thread::scope(|s| {
                let (master, lens, writing, down) = (&master, &lens, &writing, &mut down);
                for t in 0..3 {
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(seed * 1009 + phase * 31 + t);
                        let (off, sys) = (ClientLocation::OffCluster, ClientId::SYSTEM);
                        let mut in_flight = Vec::new();
                        for i in 0..16 {
                            let path = format!("/w{t}/p{phase}f{i}");
                            let rv = rv(rng.below(3) as u8 + 1);
                            if master.create_file_as(&path, rv, None, sys).is_ok() {
                                let len = (rng.below(4) + 1) * 1024;
                                if let Ok((b, ls)) =
                                    master.add_block_excluding(&path, len, off, sys, &[])
                                {
                                    lens.lock().unwrap().insert(b.id, b.len);
                                    in_flight.push((path, b, ls));
                                }
                            }
                            // Each pipeline commits two writes later.
                            if in_flight.len() > 2 || i == 15 {
                                for (path, b, ls) in in_flight.drain(..in_flight.len().min(2)) {
                                    let cut = rng.below(ls.len() as u64 + 1) as usize;
                                    let _ = master.commit_replicas(b, &ls[..cut], &ls[cut..]);
                                    let _ = master.complete_file_as(&path, sys);
                                    let _ =
                                        master.get_file_block_locations(&path, 0, u64::MAX, off);
                                }
                            }
                            if rng.below(4) == 0 {
                                let _ = master.delete(&format!("/w{t}/p{phase}f{}", i / 2), false);
                            }
                        }
                        for (path, b, ls) in in_flight {
                            let _ = master.commit_replicas(b, &ls, &[]);
                            let _ = master.complete_file_as(&path, sys);
                        }
                        writing.fetch_sub(1, Ordering::Release);
                    });
                }
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed * 7 + phase);
                    while writing.load(Ordering::Acquire) > 0 {
                        let tasks = master.replication_scan();
                        std::thread::yield_now();
                        for task in tasks {
                            match task {
                                ReplicationTask::Copy { block, target, .. } => {
                                    if rng.below(3) == 0 {
                                        let _ = master.commit_replicas(block, &[], &[target]);
                                    } else {
                                        let _ = master.commit_replica(block, target);
                                    }
                                }
                                ReplicationTask::Delete { block, location } => {
                                    if rng.below(2) == 0 {
                                        master.reinstate_replica(block, location);
                                    }
                                }
                            }
                        }
                    }
                });
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed * 13 + phase);
                    let mut k = 0;
                    while writing.load(Ordering::Acquire) > 0 && k < 64 {
                        let now = (phase * 64 + k) * 11 * hb;
                        k += 1;
                        if let Some(w) = down.take() {
                            join(master, w, now);
                        }
                        let victim = WorkerId(rng.below(WORKERS as u64) as u32);
                        if k % 2 == 0 {
                            master.kill_worker(victim);
                        } else {
                            // Every worker but the victim beats; the failure
                            // detector then declares the victim dead.
                            for w in (0..WORKERS).map(WorkerId).filter(|&w| w != victim) {
                                beat(master, w, now);
                            }
                            master.tick(now + 10 * hb - 1);
                        }
                        *down = Some(victim);
                        std::thread::yield_now();
                    }
                });
            });
            check_block_plane(&master, &lens.lock().unwrap());
        }
        assert!(master.block_inventory().len() > 100, "the writers wrote too little");
        check_invariants(&master);
    }
}
