//! Differential test of [`Master`] against the sequential reference: a bare
//! [`Namespace`] driven with the same operations, single-threaded.
//!
//! The master adds locking, leases, placement, the block map and the edit
//! log around the namespace; none of that may change what a metadata
//! operation answers. One scripted sequence pins the answers that need the
//! whole tree in view (a file shadowing a path component, mkdir over a
//! file, rename into the own subtree) and every quota refusal, then 60
//! seeded random sequences over a small colliding path universe compare
//! every result — values *and* `FsError` variants — and the final images.
//!
//! Plus the `list` atomicity check: a listing is one snapshot, so a reader
//! racing `a ↔ b` renames inside one directory always sees exactly one of
//! the two names.

use std::collections::BTreeSet;
use std::mem::{discriminant, Discriminant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use octopus_common::{
    BlockId, ClientLocation, ClusterConfig, FsError, MediaId, MediaStats, RackId,
    ReplicationVector, Result, TierId, WorkerId,
};
use octopus_master::{ClientId, Master, Namespace, TierQuota};

mod ops;
use ops::{random_ops, scripted, u, Op};

const BLOCK_SIZE: u64 = 1 << 20;

fn boot() -> Master {
    let master = Master::new(ClusterConfig::test_cluster(4, 1 << 30, BLOCK_SIZE)).unwrap();
    for w in 0..4u32 {
        let rack = RackId((w % 2) as u16);
        master.register_worker(WorkerId(w), rack, 1e9);
        let media: Vec<MediaStats> = (0..3u8)
            .map(|t| MediaStats {
                media: MediaId(w * 3 + t as u32),
                worker: WorkerId(w),
                rack,
                tier: TierId(t),
                capacity: 1 << 30,
                remaining: 1 << 30,
                nr_conn: 0,
                write_thru: 1e9,
                read_thru: 1e9,
            })
            .collect();
        master.heartbeat(WorkerId(w), media, 0, &[]).unwrap();
    }
    master
}

/// What an op answered, reduced to what both sides must agree on.
#[derive(Debug, PartialEq)]
enum Answer {
    Done,
    Status(octopus_master::FileStatus),
    Listing(Vec<(String, bool, u64, ReplicationVector)>),
    Vector(ReplicationVector),
    Quota(TierQuota, Vec<u64>),
    Refused(Discriminant<FsError>),
}

fn answer<T>(r: Result<T>, ok: impl FnOnce(T) -> Answer) -> (Answer, Option<FsError>) {
    match r {
        Ok(v) => (ok(v), None),
        Err(e) => (Answer::Refused(discriminant(&e)), Some(e)),
    }
}

fn listing(entries: Vec<octopus_master::DirEntry>) -> Answer {
    Answer::Listing(entries.into_iter().map(|e| (e.name, e.is_dir, e.len, e.rv)).collect())
}

fn on_master(m: &Master, op: &Op) -> (Answer, Option<FsError>) {
    match op {
        Op::Mkdir(p) => answer(m.mkdir(p), |()| Answer::Done),
        Op::Create(p, rv) => answer(m.create_file_as(p, *rv, None, ClientId(1)), Answer::Status),
        Op::AddBlock(p, len) => answer(
            m.add_block_excluding(p, *len, ClientLocation::OffCluster, ClientId(1), &[]),
            |_| Answer::Done,
        ),
        Op::Complete(p) => answer(m.complete_file_as(p, ClientId(1)), |()| Answer::Done),
        Op::Rename(s, d) => answer(m.rename(s, d), |()| Answer::Done),
        Op::Delete(p, r) => answer(m.delete(p, *r), |_| Answer::Done),
        Op::List(p) => answer(m.list(p), listing),
        Op::Status(p) => answer(m.status(p), Answer::Status),
        Op::SetQuota(p, q) => answer(m.set_quota(p, *q), |()| Answer::Done),
        Op::SetReplication(p, rv) => answer(m.set_replication(p, *rv), Answer::Vector),
        Op::QuotaUsage(p) => answer(m.quota_usage(p), |(q, u)| Answer::Quota(q, u.to_vec())),
    }
}

/// The reference: the same op against a bare namespace. `next_block`
/// stands in for the master's block-id generator.
fn on_reference(ns: &mut Namespace, next_block: &mut u64, op: &Op) -> (Answer, Option<FsError>) {
    match op {
        Op::Mkdir(p) => answer(ns.mkdir(p, true), |_| Answer::Done),
        Op::Create(p, rv) => {
            let created = ns.create_file(p, *rv, BLOCK_SIZE).and_then(|_| ns.status(p));
            answer(created, Answer::Status)
        }
        Op::AddBlock(p, len) => {
            *next_block += 1;
            let added = ns.resolve(p).and_then(|f| ns.add_block(f, BlockId(*next_block), *len));
            answer(added, |()| Answer::Done)
        }
        Op::Complete(p) => {
            answer(ns.resolve(p).and_then(|f| ns.finalize_file(f)), |()| Answer::Done)
        }
        Op::Rename(s, d) => answer(ns.rename(s, d), |()| Answer::Done),
        Op::Delete(p, r) => answer(ns.delete(p, *r), |_| Answer::Done),
        Op::List(p) => answer(ns.list(p), listing),
        Op::Status(p) => answer(ns.status(p), Answer::Status),
        Op::SetQuota(p, q) => answer(ns.set_quota(p, *q), |()| Answer::Done),
        Op::SetReplication(p, rv) => answer(ns.set_replication(p, *rv), Answer::Vector),
        Op::QuotaUsage(p) => answer(ns.quota_usage(p), |(q, u)| Answer::Quota(q, u.to_vec())),
    }
}

/// Every `(path, status, quota+usage)` reachable from `/`, through `list`.
fn image(
    list: &dyn Fn(&str) -> Vec<octopus_master::DirEntry>,
    probe: &dyn Fn(&str) -> (Answer, Answer),
) -> Vec<(String, Answer, Answer)> {
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        for e in list(&dir) {
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            let (status, quota) = probe(&path);
            out.push((path.clone(), status, quota));
            if e.is_dir {
                stack.push(path);
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Runs `ops` through both sides, asserting equal answers step by step
/// and equal images at the end; returns the error variants seen.
fn run(label: &str, ops: &[Op]) -> BTreeSet<String> {
    let master = boot();
    let mut ns = Namespace::new();
    let mut next_block = 0u64;
    let mut seen = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        let (got, err) = on_master(&master, op);
        let (want, ref_err) = on_reference(&mut ns, &mut next_block, op);
        assert_eq!(
            got, want,
            "{label} step {i} {op:?}: master answered {err:?}, reference {ref_err:?}"
        );
        if let Some(e) = err {
            seen.insert(format!("{e:?}").split('(').next().unwrap().to_string());
        }
    }
    let live = image(&|p| master.list(p).unwrap(), &|p| {
        (
            on_master(&master, &Op::Status(p.into())).0,
            on_master(&master, &Op::QuotaUsage(p.into())).0,
        )
    });
    let reference = image(&|p| ns.list(p).unwrap(), &|p| {
        let st = answer(ns.status(p), Answer::Status).0;
        let q = answer(ns.quota_usage(p), |(q, u)| Answer::Quota(q, u.to_vec())).0;
        (st, q)
    });
    assert_eq!(live, reference, "{label}: final images diverge");
    assert_eq!(master.counts(), ns.counts(), "{label}: counts diverge");
    seen
}

#[test]
fn master_agrees_with_the_sequential_reference() {
    let mut seen = run("scripted", &scripted());
    for seed in 0..60u64 {
        seen.extend(run(&format!("seed {seed}"), &random_ops(seed, 150)));
    }
    for variant in [
        "NotFound",
        "AlreadyExists",
        "NotADirectory",
        "IsADirectory",
        "DirectoryNotEmpty",
        "InvalidPath",
        "InvalidArgument",
        "QuotaExceeded",
    ] {
        assert!(seen.contains(variant), "no sequence exercised {variant}; saw {seen:?}");
    }
}

#[test]
fn list_is_an_atomic_snapshot() {
    let master = boot();
    master.mkdir("/d").unwrap();
    master.create_file_as("/d/a", u(1), None, ClientId(1)).unwrap();
    master.complete_file_as("/d/a", ClientId(1)).unwrap();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        for (from, to) in [("/d/a", "/d/b"), ("/d/b", "/d/a")] {
            let (master, stop, start) = (&master, &stop, &start);
            s.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let _ = master.rename(from, to);
                }
            });
        }
        start.wait();
        // Collected, not asserted in place: a panic here would leave the
        // writers spinning and the scope would never join.
        let torn = (0..20_000).find_map(|i| {
            let names: Vec<String> =
                master.list("/d").unwrap().into_iter().map(|e| e.name).collect();
            (names != ["a"] && names != ["b"]).then_some((i, names))
        });
        stop.store(true, Ordering::Relaxed);
        assert_eq!(torn, None, "a listing was not a snapshot of one rename state");
    });
}
