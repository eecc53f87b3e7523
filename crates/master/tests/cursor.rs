//! The replay cursor changes no answer.
//!
//! Every sequence of `ops/` — the scripted one, the 60 seeded ones, the
//! 20,000-op churn, the 1,000-entry directory — becomes a stream of
//! [`EditOp`]s, *including the ones that fail*, and is applied twice: with
//! one [`Cursor`] carried from op to op, as replay does, and with the
//! cursor forgotten before every op, which is a walk from `/` each time.
//! Op by op both give the same `Ok`/`Err` with its message and the same
//! [`BlockChange`], and at the end byte-identical images. The named cases
//! are the ways a remembered path goes stale, and the spellings a
//! remembered path must not answer for.

use octopus_common::{Block, BlockId, FsError, GenStamp};
use octopus_master::editlog::{encode_image, BlockChange};
use octopus_master::{Cursor, EditOp, Namespace};

mod ops;
use ops::{big_directory, churn, random_ops, scripted, u, Op};

/// As in `transcript.rs`.
const BLOCK_SIZE: u64 = 500;

/// The stream a sequence logs. Ops that log nothing stand in for the two
/// record kinds the generators lack: a status reopens the file, a listing
/// abandons the block added last, wherever that was (refused if the add
/// was, or the file has been closed or has gone since).
fn edits(ops: &[Op]) -> Vec<EditOp> {
    let mut last = (String::new(), BlockId(0), 0);
    let edit = |op: &Op| {
        Some(match op.clone() {
            Op::Mkdir(path) => EditOp::Mkdir { path },
            Op::Create(path, rv) => EditOp::CreateFile { path, rv, block_size: BLOCK_SIZE },
            Op::AddBlock(path, len) => {
                last = (path.clone(), BlockId(last.1 .0 + 1), len);
                EditOp::add_block(path, Block { id: last.1, gen: GenStamp(1), len })
            }
            Op::Complete(path) => EditOp::CloseFile { path },
            Op::Rename(src, dst) => EditOp::rename(src, dst),
            Op::Delete(path, _) => EditOp::Delete { path },
            Op::SetQuota(path, quota) => EditOp::set_quota(path, quota),
            Op::SetReplication(path, rv) => EditOp::SetReplication { path, rv },
            Op::Status(path) => EditOp::AppendFile { path },
            Op::List(_) => EditOp::abandon_block(last.0.clone(), last.1, last.2),
            Op::QuotaUsage(_) => return None,
        })
    };
    ops.iter().filter_map(edit).collect()
}

/// Applies `edits` with a carried cursor and with a forgotten one, checks
/// every answer and the final image agree, and returns the answers and the
/// carried cursor.
fn both_ways(label: &str, edits: &[EditOp]) -> (Vec<Result<BlockChange, FsError>>, Cursor) {
    let (mut carried_ns, mut carried) = (Namespace::new(), Cursor::default());
    let (mut walked_ns, mut forgetful) = (Namespace::new(), Cursor::default());
    let mut answers = Vec::with_capacity(edits.len());
    for (i, op) in edits.iter().enumerate() {
        let got = op.apply(&mut carried_ns, &mut carried);
        forgetful.clear();
        let want = op.apply(&mut walked_ns, &mut forgetful);
        assert_eq!(got, want, "{label}, op {i}: {op:?}");
        answers.push(got);
    }
    assert_eq!(carried_ns.counts(), walked_ns.counts(), "{label}");
    assert!(encode_image(&carried_ns) == encode_image(&walked_ns), "{label}: images differ");
    assert_eq!((forgetful.path_hits, forgetful.parent_hits), (0, 0), "{label}");
    (answers, carried)
}

#[test]
fn a_carried_cursor_and_a_walk_per_op_answer_alike() {
    let mut sequences = vec![("scripted".to_string(), scripted())];
    sequences.extend((0..60u64).map(|seed| (format!("seed {seed}"), random_ops(seed, 150))));
    sequences.push(("churn".to_string(), churn(2017, 20_000)));
    sequences.push(("big directory".to_string(), big_directory()));
    let (mut path_hits, mut parent_hits, mut failed, mut abandoned) = (0, 0, 0, 0);
    let mut finger_hits = 0;
    for (label, ops) in &sequences {
        let edits = edits(ops);
        let (answers, cursor) = both_ways(label, &edits);
        path_hits += cursor.path_hits;
        parent_hits += cursor.parent_hits;
        finger_hits += cursor.finger_hits;
        failed += answers.iter().filter(|a| a.is_err()).count();
        abandoned += edits
            .iter()
            .zip(&answers)
            .filter(|(op, a)| matches!(op, EditOp::AbandonBlock { .. }) && a.is_ok())
            .count();
    }
    println!(
        "{path_hits} whole-path hits, {parent_hits} parent hits, {finger_hits} finger hits, \
         {failed} failed ops, {abandoned} blocks abandoned"
    );
    // Not vacuous: the cursor was used, ops failed, blocks were abandoned.
    assert!(path_hits > 1_000 && parent_hits > 1_000 && failed > 1_000 && abandoned > 10);
    assert!(finger_hits > 10, "{finger_hits} finger hits");
}

fn mkdir(path: &str) -> EditOp {
    EditOp::Mkdir { path: path.into() }
}

fn create(path: &str) -> EditOp {
    EditOp::CreateFile { path: path.into(), rv: u(1), block_size: BLOCK_SIZE }
}

fn close(path: &str) -> EditOp {
    EditOp::CloseFile { path: path.into() }
}

fn delete(path: &str) -> EditOp {
    EditOp::Delete { path: path.into() }
}

fn not_found(path: &str) -> Result<BlockChange, FsError> {
    Err(FsError::NotFound(path.into()))
}

/// The finger is where the last create linked; a create takes it only if
/// its name sorts strictly between the finger's neighbours, so a stale
/// finger — a duplicate name, a `mkdir` that shifted the children, another
/// directory — is a miss, and a miss is the search.
#[test]
fn the_finger_is_a_hint_checked_against_names() {
    let edits = [
        mkdir("/a"),
        create("/a/m"),  // an empty directory: searched
        create("/a/n"),  // after `m`: at the finger
        create("/a/m"),  // the finger's left neighbour itself
        mkdir("/a/b"),   // `b m n`: the finger now sits between `m` and `n`
        create("/a/o"),  // not below `n`: past the last child
        create("/a/mm"), // not above `o`: searched
        create("/a/mn"), // between `mm` and `n`: at the finger
        mkdir("/c"),
        create("/c/mo"), // another directory: searched
    ];
    let (answers, cursor) = both_ways("finger", &edits);
    assert_eq!(answers[3], Err(FsError::AlreadyExists("/a/m".into())));
    assert!(answers.iter().enumerate().all(|(i, a)| i == 3 || a.is_ok()), "{answers:?}");
    assert_eq!((cursor.finger_hits, cursor.pushes, cursor.searches), (2, 1, 3));
}

#[test]
fn a_rename_of_the_parent_is_not_closed_through() {
    let renamed = EditOp::rename("/a".into(), "/b".into());
    let edits = [mkdir("/a"), create("/a/f"), renamed, close("/a/f"), close("/b/f")];
    let (answers, _) = both_ways("rename", &edits);
    assert_eq!(answers[3], not_found("/a/f"));
    assert_eq!(answers[4], Ok(BlockChange::None));
}

#[test]
fn a_reused_slot_is_not_closed_under_the_old_name() {
    let edits = [mkdir("/a"), create("/a/f"), delete("/a/f"), create("/a/g"), close("/a/f")];
    let (answers, _) = both_ways("reuse", &edits);
    assert_eq!(answers[4], not_found("/a/f"));

    // The same with nothing clearing the cursor: the namespace changes
    // behind its back, and the remembered id's generation catches it.
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    for op in &edits[..2] {
        op.apply(&mut ns, &mut cursor).unwrap();
    }
    let f = ns.resolve("/a/f").unwrap();
    ns.delete("/a/f", false).unwrap();
    let g = ns.create_file("/a/g", u(1), BLOCK_SIZE).unwrap();
    assert_eq!(g.slot(), f.slot());
    assert_eq!(close("/a/f").apply(&mut ns, &mut cursor), not_found("/a/f"));
    assert!(!ns.file_meta(g).unwrap().complete);
}

#[test]
fn a_directory_deleted_and_made_again_takes_the_new_file() {
    let edits = [
        mkdir("/a"),
        create("/a/f"),
        delete("/a"),
        close("/a/f"),
        create("/a/f"),
        mkdir("/a"),
        create("/a/f"),
        close("/a/f"),
    ];
    let (answers, cursor) = both_ways("delete -r", &edits);
    assert_eq!(answers[3], not_found("/a/f"));
    assert_eq!(answers[4], not_found("/a/f"));
    assert_eq!(answers[6..], [Ok(BlockChange::None), Ok(BlockChange::None)]);
    assert_eq!((cursor.path_hits, cursor.parent_hits), (1, 0));
}

#[test]
fn only_the_remembered_spelling_is_a_hit() {
    let invalid = |text: &str| Err(FsError::InvalidPath(text.into()));
    let edits = [
        mkdir("/a"),
        create("/a/f"),
        // Valid spellings of the remembered path, and of a sibling: walked.
        close("//a//f"),
        close("/a/f/"),
        create("/a/g/"),
        create("//a//h"),
        close("//a//h"),
        close("//a//f"),
        close("/a/f"),
        // Never valid, though all but the last component is the remembered
        // parent's spelling.
        close("/a/."),
        close("/a/.."),
        create("/a/.."),
        close("a/f"),
        close(""),
        close("/a/f/.."),
        // Through a file.
        close("/a/f/x"),
        create("/a/f/x"),
        // The directory itself, spelled as the remembered parent.
        close("/a/"),
        close("/a/f"),
    ];
    let (answers, cursor) = both_ways("spellings", &edits);
    let ok = Ok(BlockChange::None);
    assert!(answers[2..9].iter().all(|a| *a == ok), "{:?}", &answers[2..9]);
    assert_eq!(answers[9], invalid("\"/a/.\" contains relative component \".\""));
    assert_eq!(answers[10], invalid("\"/a/..\" contains relative component \"..\""));
    assert_eq!(answers[11], invalid("\"/a/..\" contains relative component \"..\""));
    assert_eq!(answers[12], invalid("\"a/f\" is not absolute"));
    assert_eq!(answers[13], invalid("\"\" is not absolute"));
    assert_eq!(answers[14], invalid("\"/a/f/..\" contains relative component \"..\""));
    assert_eq!(answers[15], Err(FsError::NotADirectory("/a/f".into())));
    assert_eq!(answers[16], Err(FsError::NotADirectory("/a/f".into())));
    assert_eq!(answers[17], Err(FsError::IsADirectory("/a".into())));
    assert_eq!(answers[18], ok);
    // The second `//a//h`, then its sibling `//a//f`: nothing else hit.
    assert_eq!((cursor.path_hits, cursor.parent_hits), (1, 1));
}
