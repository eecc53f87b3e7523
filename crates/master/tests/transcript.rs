//! An oracle that is not the code under test: what the `BTreeMap`-backed
//! [`Namespace`] of the commit before the inode slab answered, op by op,
//! to the 60 seeded sequences and the scripted one of `differential.rs`,
//! a 20,000-op churn and a 1,000-entry-directory script — every value,
//! every `FsError` with its message, `counts()` and the checkpoint image
//! bytes after each sequence — committed as `fixtures/namespace_transcript.txt`.
//! `differential.rs` compares the master with the namespace it wraps, so a
//! layout bug would move both sides; this file does not move.
//!
//! Inode ids are left out of the transcript on purpose: an id is an opaque
//! handle, and a layout that reuses slots hands out different ones.
//!
//! The image lines were rewritten once, when images began to carry each
//! block's own length instead of "all full but the last": only `AddBlock`
//! lengths (and their records' CRCs) moved, never an answer line.
//!
//! Regenerate (only when the *generators* change, never to make a layout
//! pass): `cargo test -p octopus-master --test transcript -- --ignored`.

use std::fmt::Write;
use std::path::{Path, PathBuf};

use octopus_common::{BlockId, FsError};
use octopus_master::editlog::encode_image;
use octopus_master::Namespace;

mod ops;
use ops::{big_directory, churn, random_ops, scripted, Op};

/// Every file's block size. The sequences add blocks of 500–2,000 B, which
/// an image writes as they were added.
const BLOCK_SIZE: u64 = 500;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/namespace_transcript.txt")
}

fn outcome<T>(r: Result<T, FsError>, ok: impl FnOnce(T) -> String) -> String {
    match r {
        Ok(v) => ok(v),
        Err(e) => format!("{e:?}"),
    }
}

fn status(st: octopus_master::FileStatus) -> String {
    if st.is_dir {
        format!("dir {}", st.path)
    } else {
        let open = if st.complete { "" } else { " open" };
        format!("file {} {} {:x} {}{open}", st.path, st.len, st.rv.to_bits(), st.block_size)
    }
}

/// One op against the namespace, answered as one line.
fn apply(ns: &mut Namespace, next_block: &mut u64, op: &Op) -> String {
    let done = |()| "ok".to_string();
    match op {
        Op::Mkdir(p) => outcome(ns.mkdir(p, true), |_| "ok".into()),
        Op::Create(p, rv) => {
            outcome(ns.create_file(p, *rv, BLOCK_SIZE).and_then(|_| ns.status(p)), status)
        }
        Op::AddBlock(p, len) => {
            *next_block += 1;
            let block = BlockId(*next_block);
            outcome(ns.resolve(p).and_then(|f| ns.add_block(f, block, *len)), done)
        }
        Op::Complete(p) => outcome(ns.resolve(p).and_then(|f| ns.finalize_file(f)), done),
        Op::Rename(s, d) => outcome(ns.rename(s, d), done),
        Op::Delete(p, r) => outcome(ns.delete(p, *r), |(files, blocks)| {
            let blocks: Vec<u64> = blocks.into_iter().map(|b| b.0).collect();
            format!("deleted {} {blocks:?}", files.len())
        }),
        Op::List(p) => outcome(ns.list(p), |entries| {
            let mut line = String::from("[");
            for e in entries {
                let kind = if e.is_dir { 'd' } else { 'f' };
                write!(line, "{kind} {} {} {:x};", e.name, e.len, e.rv.to_bits()).unwrap();
            }
            line + "]"
        }),
        Op::Status(p) => outcome(ns.status(p), status),
        Op::SetQuota(p, q) => outcome(ns.set_quota(p, *q), done),
        Op::SetReplication(p, rv) => {
            outcome(ns.set_replication(p, *rv), |old| format!("was {:x}", old.to_bits()))
        }
        Op::QuotaUsage(p) => outcome(ns.quota_usage(p), |(q, u)| format!("{:?} {u:?}", q.per_tier)),
    }
}

fn sequences() -> Vec<(String, Vec<Op>)> {
    let mut all = vec![("scripted".to_string(), scripted())];
    all.extend((0..60u64).map(|seed| (format!("seed {seed}"), random_ops(seed, 150))));
    all.push(("churn".to_string(), churn(2017, 20_000)));
    all.push(("big directory".to_string(), big_directory()));
    all
}

/// The transcript of one sequence: a header, one line per op, then the
/// counts and the image.
fn transcript_of(label: &str, ops: &[Op]) -> Vec<String> {
    let mut ns = Namespace::new();
    let mut next_block = 0;
    let mut lines = vec![format!("== {label}: {} ops", ops.len())];
    lines.extend(ops.iter().map(|op| apply(&mut ns, &mut next_block, op)));
    lines.push(format!("counts {:?}", ns.counts()));
    let image: String = encode_image(&ns).iter().map(|b| format!("{b:02x}")).collect();
    lines.push(format!("image {image}"));
    lines
}

#[test]
fn the_namespace_answers_what_the_previous_layout_answered() {
    let recorded = std::fs::read_to_string(fixture()).expect("fixture is committed");
    let mut recorded = recorded.lines();
    for (label, ops) in sequences() {
        let lines = transcript_of(&label, &ops);
        for (i, got) in lines.iter().enumerate() {
            let want = recorded.next().unwrap_or("<transcript ends>");
            // Line 0 is the header, so line i answers op i - 1.
            let op = i.checked_sub(1).and_then(|i| ops.get(i));
            assert_eq!(got, want, "{label}, line {i} ({op:?})");
        }
    }
    assert_eq!(recorded.next(), None, "the fixture holds more than the sequences produce");
}

/// `(files, directories)` under `dir`, by listing.
fn walk_counts(ns: &Namespace, dir: &str) -> (usize, usize) {
    let mut counts = (0, 1);
    for e in ns.list(dir).unwrap() {
        let (files, dirs) = if e.is_dir {
            walk_counts(ns, &format!("{}/{}", dir.trim_end_matches('/'), e.name))
        } else {
            (1, 0)
        };
        counts = (counts.0 + files, counts.1 + dirs);
    }
    counts
}

/// `counts()` is two counters kept by create, mkdir and delete; a full walk
/// agrees with them after every step of a churn that deletes recursively
/// and renames directories.
#[test]
fn counts_agree_with_a_full_walk_after_every_op() {
    let mut ns = Namespace::new();
    let mut next_block = 0;
    let (mut most, mut recursive_deletes) = (0, 0);
    for (i, op) in churn(5, 5_000).iter().enumerate() {
        let answer = apply(&mut ns, &mut next_block, op);
        assert_eq!(ns.counts(), walk_counts(&ns, "/"), "after op {i} {op:?}");
        most = most.max(ns.counts().0 + ns.counts().1);
        let deleted: Option<usize> = answer
            .strip_prefix("deleted ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok());
        recursive_deletes += usize::from(deleted.is_some_and(|files| files > 1));
    }
    assert!(most > 100 && recursive_deletes > 10, "{most} inodes, {recursive_deletes} subtrees");
}

#[test]
#[ignore = "writes the fixture; see the module docs"]
fn write_the_transcript() {
    let mut out = String::new();
    for (label, ops) in sequences() {
        for line in transcript_of(&label, &ops) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    std::fs::write(fixture(), out).unwrap();
}
