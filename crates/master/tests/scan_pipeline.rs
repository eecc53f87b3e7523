//! The pipelined replay fails exactly like the sequential one.
//!
//! From a file, `EditLog::replay` reads, CRC-checks and frames the log on a
//! helper thread ([`SCAN_THREAD`]) a chunk or more ahead of the caller's
//! thread, which decodes and applies; `EditLog::replay_sequential` is the
//! same scan on the caller's thread alone. On a log of several chunks —
//! records straddling chunk ends, one record larger than a chunk — both
//! must apply the same ops and stop with the same error wherever the log
//! goes bad: a CRC flipped after `open` (the first record of a chunk, a
//! straddling one, the one after the big one, the last), the file cut short
//! after `open` (an I/O error), a tear at every byte of the last record
//! (which `open` cuts off), an op that fails to apply. And the helper has
//! ended when `replay` returns, every time.

use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use octopus_common::{FsError, ReplicationVector};
use octopus_master::editlog::{EditRef, SCAN_THREAD};
use octopus_master::{Cursor, EditLog, EditOp, Namespace};

/// The scan's chunk (`SCAN_CHUNK` in `editlog.rs`): where the cases put
/// their flips and cuts. Were it to change, they would still pass — they
/// would only test other bytes.
const CHUNK: usize = 64 << 10;

/// Records in the log; the one at [`BIG`] is larger than a chunk.
const RECORDS: usize = 3_000;
const BIG: usize = 1_500;

/// Only this binary's tests start helpers; counting them needs one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

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
fn write_log(tag: &str, ops: Vec<EditOp>) -> (PathBuf, Vec<usize>) {
    let mut starts = vec![0];
    for op in &ops {
        starts.push(starts.last().unwrap() + 8 + op.encode().len());
    }
    let path = temp_log(tag);
    EditLog::open(&path).unwrap().append_batch(ops).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, *starts.last().unwrap());
    (path, starts)
}

/// Threads of this process named [`SCAN_THREAD`].
fn helpers() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    tasks.filter_map(|task| comm(task.ok()?)).filter(|c| c.trim_end() == SCAN_THREAD).count()
}

/// [`helpers`], once a thread that has been joined is also gone from
/// `/proc` (the kernel drops it a moment after the join returns).
fn helpers_left() -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = helpers();
        if n == 0 || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The ops a replay applied, re-encoded, and how it ended.
type Outcome = (Vec<Vec<u8>>, Result<(), FsError>);

/// Replays `log` into a fresh namespace, the pipelined way or the
/// sequential one. For the pipelined one, also the helpers alive when the
/// first op arrived.
fn replay(log: &EditLog, pipelined: bool) -> (Outcome, Option<usize>) {
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    let (mut applied, mut alive) = (Vec::new(), None);
    let mut apply = |op: EditRef<'_>| {
        alive = alive.or_else(|| Some(helpers()));
        applied.push(op.encode());
        op.apply(&mut ns, &mut cursor).map(drop)
    };
    let end = if pipelined {
        log.replay(&mut apply).map(drop)
    } else {
        log.replay_sequential(&mut apply)
    };
    ((applied, end), alive.filter(|_| pipelined))
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Both replays of `log`: the same ops, the same end, error text included;
/// the pipelined one ran at most one helper (one that met an early error
/// may be gone before the first op is applied) and left none behind.
fn alike(label: &str, log: &EditLog) -> Outcome {
    let _serial = serial();
    let (piped, alive) = replay(log, true);
    assert!(alive.is_none_or(|n| n <= 1), "{label}: {alive:?} helpers during the replay");
    assert_eq!(helpers_left(), 0, "{label}: the helper outlived the replay");
    let (sequential, _) = replay(log, false);
    let text = |o: &Outcome| o.1.as_ref().err().map(ToString::to_string);
    assert_eq!(text(&piped), text(&sequential), "{label}");
    assert!(piped == sequential, "{label}: {} ops against {}", piped.0.len(), sequential.0.len());
    piped
}

/// Flips a bit of one byte of the file behind an open log.
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

#[test]
fn a_whole_log_replays_alike_over_several_chunks() {
    let (path, starts) = write_log("whole", ops(None));
    let len = *starts.last().unwrap();
    assert!(len > 4 * CHUNK, "{len} B is not several chunks");
    // Records straddle the first chunk's end, and the big one is larger.
    assert!(starts.iter().all(|&s| s != CHUNK));
    assert!(starts[BIG + 1] - starts[BIG] > CHUNK);
    let log = EditLog::open(&path).unwrap();
    let (applied, end) = alike("whole", &log);
    assert_eq!((applied.len(), end), (RECORDS, Ok(())));
    // The scan cannot have finished while the first chunk is applied: the
    // log is longer than the ring, and no buffer has come back yet.
    let _serial = serial();
    assert_eq!(replay(&log, true).1, Some(1), "the first op arrived from a running helper");
    remove(&path);
}

#[test]
fn a_crc_flipped_after_open_stops_both_at_the_same_record() {
    let (path, starts) = write_log("crc", ops(None));
    let log = EditLog::open(&path).unwrap();
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
        let (applied, end) = alike(label, &log);
        assert_eq!(applied.len(), record, "{label}: the ops before it, and no more");
        assert_eq!(end, Err(FsError::Io("edit record CRC mismatch".into())), "{label}");
        flip(&path, at);
    }
    remove(&path);
}

#[test]
fn a_file_cut_after_open_is_the_same_io_error_for_both() {
    let (path, starts) = write_log("cut", ops(None));
    let log = EditLog::open(&path).unwrap();
    let len = *starts.last().unwrap();
    // Shortest last: each cut shortens what the one before left.
    for cut in [len - 1, starts[BIG] + 100, CHUNK + 1, CHUNK, CHUNK - 1, 5, 0] {
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut as u64).unwrap();
        let label = format!("cut at {cut}");
        let (applied, end) = alike(&label, &log);
        // A short read, as `FsError::from(io::Error)` spells it.
        assert!(end.is_err(), "{label}: {end:?}");
        assert!(applied.len() <= record_at(&starts, cut), "{label}: a record past the cut");
    }
    remove(&path);
}

#[test]
fn every_tear_of_the_last_record_replays_alike() {
    let (path, starts) = write_log("tear_src", ops(None));
    let bytes = std::fs::read(&path).unwrap();
    remove(&path);
    let path = temp_log("tear");
    for cut in starts[RECORDS - 1]..starts[RECORDS] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let log = EditLog::open(&path).unwrap();
        let (applied, end) = alike(&format!("tear at {cut}"), &log);
        assert_eq!((applied.len(), end), (RECORDS - 1, Ok(())), "tear at {cut}");
    }
    remove(&path);
}

#[test]
fn an_op_that_fails_to_apply_stops_both_after_it() {
    let missing = EditOp::CloseFile { path: "/d/missing".into() };
    let (path, _) = write_log("apply", ops(Some(missing)));
    let log = EditLog::open(&path).unwrap();
    let (applied, end) = alike("close of a missing path", &log);
    assert_eq!(applied.len(), 1_001, "record 1,000 was handed over and refused");
    assert_eq!(end, Err(FsError::NotFound("/d/missing".into())));
    remove(&path);
}
