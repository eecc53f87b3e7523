//! The on-disk formats, pinned by bytes written before this test existed.
//!
//! `fixtures/golden_edits.log` is `EditLog::open(..).append_batch(golden_ops())`
//! and `fixtures/golden_image.bin` is `encode_image` of its replay, both
//! written by the build of the commit before the log stopped mirroring its
//! records in memory (PR 17). Every build since must read them to the same
//! namespace and write the same bytes back.

use std::path::{Path, PathBuf};

use octopus_common::{Block, BlockId, ClusterConfig, GenStamp, ReplicationVector};
use octopus_master::editlog::{decode_image, decode_stream, encode_image};
use octopus_master::{EditLog, EditOp, Master, Namespace, TierQuota};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn block(id: u64, gen: u64, len: u64) -> Block {
    Block { id: BlockId(id), gen: GenStamp(gen), len }
}

/// Every `EditOp` variant, in an order that replays.
fn golden_ops() -> Vec<EditOp> {
    let f = || "/a/b/f".to_string();
    vec![
        EditOp::Mkdir { path: "/a/b".into() },
        EditOp::Mkdir { path: "/q/ü".into() },
        EditOp::set_quota("/q".into(), TierQuota::limit_tier(1, 1 << 30)),
        EditOp::CreateFile { path: f(), rv: ReplicationVector::msh(1, 0, 2), block_size: 128 },
        EditOp::add_block(f(), block(5, 3, 128)),
        EditOp::add_block(f(), block(9, 3, 32)),
        EditOp::abandon_block(f(), BlockId(9), 32),
        EditOp::add_block(f(), block(6, 4, 64)),
        EditOp::CloseFile { path: f() },
        EditOp::AppendFile { path: f() },
        EditOp::CloseFile { path: f() },
        EditOp::SetReplication { path: f(), rv: ReplicationVector::msh(0, 1, 2) },
        EditOp::rename(f(), "/q/g".into()),
        EditOp::CreateFile {
            path: "/a/open".into(),
            rv: ReplicationVector::from_replication_factor(2),
            block_size: 256,
        },
        EditOp::add_block("/a/open".into(), block(7, 5, 256)),
        EditOp::CreateFile {
            path: "/a/b/tmp".into(),
            rv: ReplicationVector::from_replication_factor(1),
            block_size: 128,
        },
        EditOp::CloseFile { path: "/a/b/tmp".into() },
        EditOp::Delete { path: "/a/b".into() },
    ]
}

fn assert_golden_namespace(ns: &Namespace) {
    assert_eq!(ns.counts(), (2, 4), "files /q/g and /a/open; dirs /, /a, /q, /q/ü");
    let g = ns.status("/q/g").unwrap();
    assert_eq!((g.len, g.complete, g.rv), (192, true, ReplicationVector::msh(0, 1, 2)));
    let blocks = &ns.file_meta(ns.resolve("/q/g").unwrap()).unwrap().blocks;
    assert_eq!(blocks, &[(BlockId(5), 128), (BlockId(6), 64)], "the abandoned block stays gone");
    let open = ns.status("/a/open").unwrap();
    assert_eq!((open.len, open.complete), (256, false));
    assert!(ns.status("/q/ü").unwrap().is_dir);
    assert!(ns.resolve("/a/b").is_err());
    let (quota, usage) = ns.quota_usage("/q").unwrap();
    assert_eq!(quota, TierQuota::limit_tier(1, 1 << 30));
    assert_eq!((usage[1], usage[2]), (192, 384));
}

#[test]
fn golden_log_replays_and_reencodes_byte_identically() {
    let golden = std::fs::read(fixture("golden_edits.log")).unwrap();
    assert_eq!(decode_stream(&golden).unwrap(), golden_ops());

    let dir = std::env::temp_dir().join(format!("octopus_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Recovery from (a copy of) the file reaches the expected namespace…
    std::fs::write(dir.join("golden.log"), &golden).unwrap();
    let log = EditLog::open(dir.join("golden.log")).unwrap();
    let master = Master::with_log(ClusterConfig::test_cluster(3, 10 << 20, 128), log).unwrap();
    let replayed = master.metrics().snapshot().counter("master_replay_ops_total");
    assert_eq!(replayed, golden_ops().len() as u64);
    assert_eq!(master.edit_count(), golden_ops().len());
    assert_golden_namespace(&decode_image(&master.checkpoint()).unwrap());
    assert_eq!(master.checkpoint(), std::fs::read(fixture("golden_image.bin")).unwrap());

    // …and today's writer produces the same file, batched or op by op.
    EditLog::open(dir.join("batch.log")).unwrap().append_batch(golden_ops()).unwrap();
    assert_eq!(std::fs::read(dir.join("batch.log")).unwrap(), golden);
    let mut one_by_one = EditLog::open(dir.join("single.log")).unwrap();
    for op in golden_ops() {
        one_by_one.append(op).unwrap();
    }
    assert_eq!(std::fs::read(dir.join("single.log")).unwrap(), golden);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_image_restores_and_reencodes_byte_identically() {
    let golden = std::fs::read(fixture("golden_image.bin")).unwrap();
    let ns = decode_image(&golden).unwrap();
    assert_golden_namespace(&ns);
    assert_eq!(encode_image(&ns), golden);
    let config = ClusterConfig::test_cluster(3, 10 << 20, 128);
    let restored = Master::with_log(config, EditLog::from_bytes(golden.clone()).unwrap()).unwrap();
    assert_eq!(restored.checkpoint(), golden);
}
