//! The second restart after a torn append.
//!
//! A crash mid-append leaves a partial record at the end of the log file.
//! Recovery — the log's first replay, or its first append, whichever comes
//! first — must cut it off before the next append, or that append lands
//! *behind* the torn bytes: the restart after it then either stops short of
//! an fsynced, acknowledged op or finds garbage where a record should be
//! and never boots again. A *complete* record whose CRC does not match is
//! corruption, not a tear: the boot fails and the file is left as it was.

use std::path::PathBuf;

use octopus_common::ClusterConfig;
use octopus_master::{EditLog, EditOp, Master};

fn temp_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octopus_torn_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("edits.log")
}

fn mkdir(path: &str) -> EditOp {
    EditOp::Mkdir { path: path.into() }
}

/// The bytes of a log holding `ops`, and where each record ends.
fn log_bytes(tag: &str, ops: &[EditOp]) -> (Vec<u8>, Vec<usize>) {
    let path = temp_log(tag);
    let mut ends = Vec::new();
    let mut log = EditLog::open(&path).unwrap();
    for op in ops {
        log.append_batch(vec![op.clone()]).unwrap();
        ends.push(std::fs::metadata(&path).unwrap().len() as usize);
    }
    let bytes = std::fs::read(&path).unwrap();
    remove(&path);
    (bytes, ends)
}

fn remove(log: &std::path::Path) {
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

#[test]
fn every_tear_of_the_last_record_survives_two_restarts() {
    let (bytes, ends) =
        log_bytes("tear_src", &[mkdir("/d0"), mkdir("/d1"), mkdir("/torn/by/the/crash")]);
    let path = temp_log("tear");
    // From "nothing of the third record" to "all but its last byte", with
    // the first restart's append after its replay or straight after `open`.
    let cuts = (ends[1]..ends[2]).flat_map(|cut| [(cut, true), (cut, false)]);
    for (cut, replay_first) in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // First restart: its replay — or, unread, its first append — finds
        // the two whole records and cuts the file back to them.
        let mut log = EditLog::open(&path).unwrap();
        if replay_first {
            assert_eq!(log.replay(|_| Ok(())), Ok(2), "cut {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, ends[1], "cut {cut}");
        }
        // One more op is logged, fsynced and acknowledged.
        log.append_batch(vec![mkdir("/acked")]).unwrap();
        drop(log);

        // Second restart: it boots, and every acknowledged op is there.
        let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
        let master = Master::with_log(config, EditLog::open(&path).unwrap())
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(master.edit_count(), 3, "cut {cut}: an acknowledged op is gone");
        for dir in ["/d0", "/d1", "/acked"] {
            assert!(master.status(dir).is_ok(), "cut {cut}: {dir} missing");
        }
        assert!(master.status("/torn").is_err(), "cut {cut}: the torn op was never acknowledged");
    }
    remove(&path);
}

#[test]
fn a_complete_record_with_a_bad_crc_is_fatal_and_nothing_is_cut() {
    let (bytes, ends) = log_bytes("crc_src", &[mkdir("/d0"), mkdir("/d1"), mkdir("/d2")]);
    let path = temp_log("crc");
    // A flipped body byte in the middle record and in the last one.
    for at in [ends[1] - 1, ends[2] - 1] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let log = EditLog::open(&path).unwrap();
        let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
        assert!(Master::with_log(config, log).is_err(), "flip at {at}");
        assert_eq!(std::fs::read(&path).unwrap(), bad, "flip at {at}: the file was modified");
    }
    remove(&path);
}
