//! Property-based tests of the edit-log codec: every op round-trips, the
//! framed stream decoder survives truncation at any byte, and corruption
//! of any complete record is detected — the durability contract of the
//! master's write-ahead log.

use proptest::prelude::*;

use octopus_common::{BlockId, ReplicationVector};
use octopus_master::editlog::decode_stream;
use octopus_master::{Cursor, EditLog, EditOp, Namespace, TierQuota};

/// A path made of safe components (the namespace validates real paths;
/// the codec itself must handle arbitrary strings).
fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9_.-]{1,12}", 1..4).prop_map(|c| format!("/{}", c.join("/")))
}

fn arb_op() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        arb_path().prop_map(|path| EditOp::Mkdir { path }),
        (arb_path(), any::<u64>(), 1u64..1 << 40).prop_map(|(path, bits, block_size)| {
            EditOp::CreateFile { path, rv: ReplicationVector::from_bits(bits), block_size }
        }),
        (arb_path(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(path, b, gen, len)| EditOp::AddBlock { path, block: BlockId(b), gen, len }),
        arb_path().prop_map(|path| EditOp::CloseFile { path }),
        arb_path().prop_map(|path| EditOp::AppendFile { path }),
        (arb_path(), arb_path()).prop_map(|(src, dst)| EditOp::Rename { src, dst }),
        arb_path().prop_map(|path| EditOp::Delete { path }),
        (arb_path(), any::<u64>()).prop_map(|(path, bits)| EditOp::SetReplication {
            path,
            rv: ReplicationVector::from_bits(bits),
        }),
        (arb_path(), 0u8..7, proptest::option::of(any::<u64>())).prop_map(|(path, tier, limit)| {
            let mut quota = TierQuota::unlimited();
            quota.per_tier[tier as usize] = limit;
            EditOp::SetQuota { path, quota: Box::new(quota) }
        }),
    ]
}

proptest! {
    /// Encode/decode round-trips every op exactly.
    #[test]
    fn op_codec_round_trips(op in arb_op()) {
        let enc = op.encode();
        prop_assert_eq!(EditOp::decode(&enc).unwrap(), op);
    }

    /// A framed stream decodes fully; truncating it at any byte yields a
    /// clean prefix (never a panic, never garbage ops).
    #[test]
    fn stream_truncation_is_safe(
        ops in proptest::collection::vec(arb_op(), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut log = EditLog::in_memory();
        for op in &ops {
            log.append(op.clone()).unwrap();
        }
        // Re-frame by encoding through a file-less path: use the image
        // trick — encode each op with framing via a namespace round trip
        // is unnecessary; frame manually through EditLog::open semantics.
        // Instead rebuild the byte stream from the ops:
        let mut buf = Vec::new();
        for op in &ops {
            let body = op.encode();
            buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            buf.extend_from_slice(&octopus_common::checksum::crc32(&body).to_le_bytes());
            buf.extend_from_slice(&body);
        }
        let full = decode_stream(&buf).unwrap();
        prop_assert_eq!(&full, &ops);

        let cut = (buf.len() as f64 * cut_frac) as usize;
        let prefix = decode_stream(&buf[..cut]).unwrap();
        prop_assert!(prefix.len() <= ops.len());
        prop_assert_eq!(&prefix[..], &ops[..prefix.len()]);
    }

    /// Flipping any single byte of a complete record either fails the CRC
    /// or (if it hits a length header) truncates — it never yields a
    /// different op silently... except the byte may land in a later
    /// record, in which case the earlier prefix still decodes intact.
    #[test]
    fn corruption_never_silently_alters_ops(
        ops in proptest::collection::vec(arb_op(), 1..6),
        flip_at_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        for op in &ops {
            let body = op.encode();
            buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            buf.extend_from_slice(&octopus_common::checksum::crc32(&body).to_le_bytes());
            buf.extend_from_slice(&body);
        }
        let pos = ((buf.len() - 1) as f64 * flip_at_frac) as usize;
        let mut bad = buf.clone();
        bad[pos] ^= 1 << flip_bit;
        match decode_stream(&bad) {
            Err(_) => {} // CRC mismatch: detected.
            Ok(decoded) => {
                // Every decoded op must be one of the originals, in order
                // (a flipped length/CRC header can only truncate).
                prop_assert!(decoded.len() <= ops.len());
                for (d, o) in decoded.iter().zip(ops.iter()) {
                    prop_assert_eq!(d, o);
                }
            }
        }
    }

    /// Replaying a syntactically valid op sequence into a namespace never
    /// panics (errors are fine — e.g. closing a non-existent file).
    #[test]
    fn replay_never_panics(ops in proptest::collection::vec(arb_op(), 0..20)) {
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        for op in ops {
            let _ = op.apply(&mut ns, &mut cursor);
        }
        let _ = ns.counts();
    }
}
