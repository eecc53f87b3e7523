//! One replay reads, checks and applies a log of several chunks.
//!
//! `EditLog::open` reads nothing; the log's first `EditLog::replay` reads
//! the file once, in order, through one chunk buffer on the caller's
//! thread, and decodes and applies each record. On a log of several chunks
//! — records straddling chunk ends, one record larger than a chunk — it
//! must apply exactly the ops before the place the log goes bad, in order,
//! and stop there with that place's error: a flipped CRC (the first record,
//! the one straddling the first chunk's end, the one larger than a chunk,
//! the one after it, the last), the file cut short while it is read (an I/O
//! error), a tear at every byte of the last record (a clean end, and the
//! file cut back), an op that fails to apply.

use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use octopus_common::{FsError, ReplicationVector};
use octopus_master::editlog::EditRef;
use octopus_master::{Cursor, EditLog, EditOp, Namespace};

/// The reader's chunk (`CHUNK` in `editlog.rs`): where the cases put their
/// flips and cuts.
const CHUNK: usize = 64 << 10;

/// Records in the log; the one at [`BIG`] is larger than a chunk.
const RECORDS: usize = 3_000;
const BIG: usize = 1_500;

/// `mkdir /d`, then creates under names of 1 to 97 bytes (so records
/// straddle every chunk end at a different offset), one `mkdir` of a name
/// longer than a chunk, and `bad` in place of record 1,000 if given.
fn ops(bad: Option<EditOp>) -> Vec<EditOp> {
    let rv = ReplicationVector::from_replication_factor(1);
    let mut ops = vec![EditOp::Mkdir { path: "/d".into() }];
    ops.extend((1..RECORDS).map(|i| match i {
        BIG => EditOp::Mkdir { path: format!("/{}", "b".repeat(CHUNK + 1_000)) },
        _ => EditOp::CreateFile {
            path: format!("/d/{}{i}", "x".repeat(i % 97)),
            rv,
            block_size: 1 << 20,
        },
    }));
    if let Some(bad) = bad {
        ops[1_000] = bad;
    }
    ops
}

fn temp_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octopus_scan_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("edits.log")
}

fn remove(log: &Path) {
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// A log file of `ops`, and where each record starts (plus where the last
/// ends).
fn write_log(tag: &str, ops: &[EditOp]) -> (PathBuf, Vec<usize>) {
    let mut starts = vec![0];
    for op in ops {
        starts.push(starts.last().unwrap() + 8 + op.encode().len());
    }
    let path = temp_log(tag);
    EditLog::open(&path).unwrap().append_batch(ops.to_vec()).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, *starts.last().unwrap());
    (path, starts)
}

/// The ops a replay applied, re-encoded, and how it ended.
type Outcome = (Vec<Vec<u8>>, Result<u64, FsError>);

/// Opens the log at `path` and replays it into a fresh namespace, calling
/// `first` once, before the first op is applied.
fn replay(path: &Path, first: impl FnOnce()) -> Outcome {
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    let (mut applied, mut first) = (Vec::new(), Some(first));
    let end = EditLog::open(path).unwrap().replay(|op: EditRef<'_>| {
        if let Some(first) = first.take() {
            first();
        }
        applied.push(op.encode());
        op.apply(&mut ns, &mut cursor).map(drop)
    });
    (applied, end)
}

/// The first `n` of `ops`, encoded.
fn encoded(ops: &[EditOp], n: usize) -> Vec<Vec<u8>> {
    ops[..n].iter().map(EditOp::encode).collect()
}

/// Flips a bit of one byte of a log file.
fn flip(path: &Path, at: usize) {
    let byte = std::fs::read(path).unwrap()[at] ^ 0x40;
    let mut file = OpenOptions::new().write(true).open(path).unwrap();
    file.seek(SeekFrom::Start(at as u64)).unwrap();
    file.write_all(&[byte]).unwrap();
}

/// The record `at` falls in.
fn record_at(starts: &[usize], at: usize) -> usize {
    starts.partition_point(|&start| start <= at) - 1
}

/// The reads a replay of the log makes, as (the first record a read's
/// buffer holds, where the read ends): each fills the buffer from the first
/// record not yet handed over, one chunk long, or as long as the largest
/// record met if that is larger.
fn reads(starts: &[usize]) -> Vec<(usize, usize)> {
    let len = *starts.last().unwrap();
    let (mut reads, mut first, mut buf) = (Vec::new(), 0, CHUNK);
    while starts[first] < len {
        let end = (starts[first] + buf).min(len);
        reads.push((first, end));
        first = record_at(starts, end);
        // A record the buffer cannot hold grows it once its header is in.
        if first < starts.len() - 1 && end >= starts[first] + 8 && end < starts[first + 1] {
            buf = buf.max(starts[first + 1] - starts[first]);
        }
    }
    reads
}

#[test]
fn a_whole_log_replays_once_over_several_chunks() {
    let ops = ops(None);
    let (path, starts) = write_log("whole", &ops);
    let len = *starts.last().unwrap();
    assert!(len > 4 * CHUNK, "{len} B is not several chunks");
    // Records straddle the first chunk's end, and the big one is larger.
    assert!(starts.iter().all(|&s| s != CHUNK));
    assert!(starts[BIG + 1] - starts[BIG] > CHUNK);
    let (applied, end) = replay(&path, || ());
    assert!(applied == encoded(&ops, RECORDS), "{} ops applied", applied.len());
    assert_eq!(end, Ok(RECORDS as u64));
    remove(&path);
}

#[test]
fn a_crc_flip_stops_the_replay_after_the_records_before_it() {
    let ops = ops(None);
    let (path, starts) = write_log("crc", &ops);
    let cases = [
        ("the first record", 0),
        ("the one straddling the first chunk's end, first of the next", record_at(&starts, CHUNK)),
        ("the one larger than a chunk", BIG),
        ("the one after it, first of its chunk", BIG + 1),
        ("the last", RECORDS - 1),
    ];
    for (label, record) in cases {
        let at = starts[record + 1] - 1; // its body's last byte
        flip(&path, at);
        let before = std::fs::read(&path).unwrap();
        let (applied, end) = replay(&path, || ());
        assert!(applied == encoded(&ops, record), "{label}: {} ops applied", applied.len());
        assert_eq!(end, Err(FsError::Io("edit record CRC mismatch".into())), "{label}");
        assert!(std::fs::read(&path).unwrap() == before, "{label}: the file was modified");
        flip(&path, at);
    }
    remove(&path);
}

#[test]
fn a_file_cut_during_the_replay_is_an_io_error() {
    let ops = ops(None);
    let (path, starts) = write_log("cut_src", &ops);
    let bytes = std::fs::read(&path).unwrap();
    let len = bytes.len();
    let reads = reads(&starts);
    assert!(reads.len() > 4, "{reads:?}");
    for cut in [len - 1, starts[BIG] + 100, CHUNK + 1, CHUNK, CHUNK - 1, 5, 0] {
        std::fs::write(&path, &bytes).unwrap();
        // The first read is in; the file loses its end before the next.
        let (applied, end) = replay(&path, || {
            OpenOptions::new().write(true).open(&path).unwrap().set_len(cut as u64).unwrap();
        });
        // The first read past the cut comes up short: every record before
        // that read's buffer was applied, and none after.
        let &(first, _) = reads[1..].iter().find(|&&(_, end)| end > cut).unwrap();
        assert!(applied == encoded(&ops, first), "cut at {cut}: {} ops applied", applied.len());
        // A short read, as `FsError::from(io::Error)` spells an
        // `UnexpectedEof`: a cut file, not a network fault.
        let short = FsError::Io("failed to fill whole buffer".into());
        assert_eq!(end, Err(short), "cut at {cut}");
    }
    remove(&path);
}

#[test]
fn every_tear_of_the_last_record_is_cut_by_the_replay() {
    let ops = ops(None);
    let (path, starts) = write_log("tear_src", &ops);
    let bytes = std::fs::read(&path).unwrap();
    remove(&path);
    let path = temp_log("tear");
    for cut in starts[RECORDS - 1]..starts[RECORDS] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (applied, end) = replay(&path, || ());
        assert!(applied == encoded(&ops, RECORDS - 1), "tear at {cut}: {} ops", applied.len());
        assert_eq!(end, Ok(RECORDS as u64 - 1), "tear at {cut}");
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(len, starts[RECORDS - 1], "tear at {cut}: not cut back");
    }
    remove(&path);
}

#[test]
fn an_op_that_fails_to_apply_stops_the_replay_after_it() {
    let missing = EditOp::CloseFile { path: "/d/missing".into() };
    let ops = ops(Some(missing));
    let (path, _) = write_log("apply", &ops);
    let (applied, end) = replay(&path, || ());
    assert!(applied == encoded(&ops, 1_001), "record 1,000 was handed over and refused");
    assert_eq!(end, Err(FsError::NotFound("/d/missing".into())));
    remove(&path);
}
