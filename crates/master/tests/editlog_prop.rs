//! Property-based tests of the edit-log codec: every op round-trips, the
//! framed stream decoder survives truncation at any byte, and corruption
//! of any complete record is detected — the durability contract of the
//! master's write-ahead log.

use std::panic::{catch_unwind, AssertUnwindSafe};

use octopus_common::rng::Rng;
use octopus_common::{Block, BlockId, GenStamp, ReplicationVector};
use octopus_master::editlog::decode_stream;
use octopus_master::{Cursor, EditLog, EditOp, Namespace, TierQuota};

/// Runs `property` once per seed in `0..cases`, each time on a generator
/// seeded with it; a failing case names its seed.
fn for_each_seed(cases: u64, property: impl Fn(&mut Rng)) {
    for seed in 0..cases {
        if catch_unwind(AssertUnwindSafe(|| property(&mut Rng::seed_from_u64(seed)))).is_err() {
            panic!("the case with seed {seed} failed");
        }
    }
}

/// A path of one to three components drawn from `[a-z0-9_.-]{1,12}` (the
/// namespace validates real paths; the codec must handle any string).
fn arb_path(rng: &mut Rng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.-";
    let components: Vec<String> = (0..1 + rng.below(3))
        .map(|_| {
            let len = 1 + rng.below(12);
            (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char).collect()
        })
        .collect();
    format!("/{}", components.join("/"))
}

fn arb_op(rng: &mut Rng) -> EditOp {
    match rng.below(10) {
        0 => EditOp::Mkdir { path: arb_path(rng) },
        1 => EditOp::CreateFile {
            path: arb_path(rng),
            rv: ReplicationVector::from_bits(rng.next_u64()),
            block_size: 1 + rng.below((1 << 40) - 1),
        },
        2 => EditOp::add_block(
            arb_path(rng),
            Block {
                id: BlockId(rng.next_u64()),
                gen: GenStamp(rng.next_u64()),
                len: rng.next_u64(),
            },
        ),
        3 => EditOp::CloseFile { path: arb_path(rng) },
        4 => EditOp::AppendFile { path: arb_path(rng) },
        5 => EditOp::rename(arb_path(rng), arb_path(rng)),
        6 => EditOp::Delete { path: arb_path(rng) },
        7 => EditOp::SetReplication {
            path: arb_path(rng),
            rv: ReplicationVector::from_bits(rng.next_u64()),
        },
        8 => EditOp::abandon_block(arb_path(rng), BlockId(rng.next_u64()), rng.next_u64()),
        _ => {
            let path = arb_path(rng);
            let mut quota = TierQuota::unlimited();
            // Unlimited one time in four.
            quota.per_tier[rng.below(7) as usize] = (rng.below(4) != 0).then(|| rng.next_u64());
            EditOp::set_quota(path, quota)
        }
    }
}

/// `lo..hi` ops (hi exclusive).
fn arb_ops(rng: &mut Rng, lo: u64, hi: u64) -> Vec<EditOp> {
    (0..lo + rng.below(hi - lo)).map(|_| arb_op(rng)).collect()
}

/// The framed stream the log writes: `[len][crc][body]` per op.
fn framed(ops: &[EditOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        let body = op.encode();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&octopus_common::checksum::crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
    }
    buf
}

/// Encode/decode round-trips every op exactly.
#[test]
fn op_codec_round_trips() {
    for_each_seed(64, |rng| {
        let op = arb_op(rng);
        assert_eq!(EditOp::decode(&op.encode()).unwrap(), op);
    });
}

/// A framed stream decodes fully; truncating it at any byte yields a
/// clean prefix (never a panic, never garbage ops).
#[test]
fn stream_truncation_is_safe() {
    for_each_seed(64, |rng| {
        let ops = arb_ops(rng, 1, 10);
        let mut log = EditLog::in_memory();
        for op in &ops {
            log.append(op.clone()).unwrap();
        }
        let buf = framed(&ops);
        assert_eq!(decode_stream(&buf).unwrap(), ops);

        let cut = rng.below(buf.len() as u64 + 1) as usize;
        let prefix = decode_stream(&buf[..cut]).unwrap();
        assert!(prefix.len() <= ops.len());
        assert_eq!(&prefix[..], &ops[..prefix.len()]);
    });
}

/// Flipping any single bit of a complete record either fails the CRC or
/// (if it hits a length header) truncates — it never yields a different
/// op silently... except the bit may land in a later record, in which
/// case the earlier prefix still decodes intact.
#[test]
fn corruption_never_silently_alters_ops() {
    for_each_seed(64, |rng| {
        let ops = arb_ops(rng, 1, 6);
        let mut bad = framed(&ops);
        let pos = rng.below(bad.len() as u64) as usize;
        bad[pos] ^= 1 << rng.below(8);
        // A CRC mismatch is detected; otherwise every decoded op must be
        // one of the originals, in order (a flipped length/CRC header can
        // only truncate).
        if let Ok(decoded) = decode_stream(&bad) {
            assert!(decoded.len() <= ops.len());
            assert_eq!(&decoded[..], &ops[..decoded.len()]);
        }
    });
}

/// Replaying a syntactically valid op sequence into a namespace never
/// panics (errors are fine — e.g. closing a non-existent file).
#[test]
fn replay_never_panics() {
    for_each_seed(64, |rng| {
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        for op in arb_ops(rng, 0, 20) {
            let _ = op.apply(&mut ns, &mut cursor);
        }
        let _ = ns.counts();
    });
}
