//! Seeded metadata-op sequences, shared by `differential.rs` (master vs.
//! bare namespace) and `transcript.rs` (namespace vs. the answers the
//! previous layout gave, committed as a fixture). The generators are part
//! of that fixture: changing what a seed produces invalidates it.

#![allow(dead_code)] // each test binary uses its own subset

use octopus_common::ReplicationVector;
use octopus_master::TierQuota;

#[derive(Debug, Clone)]
pub enum Op {
    Mkdir(String),
    Create(String, ReplicationVector),
    AddBlock(String, u64),
    Complete(String),
    Rename(String, String),
    Delete(String, bool),
    List(String),
    Status(String),
    SetQuota(String, TierQuota),
    SetReplication(String, ReplicationVector),
    QuotaUsage(String),
}

pub fn u(r: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(r)
}

/// One HDD-pinned replica: charged against tier-2 quotas.
pub fn hdd() -> ReplicationVector {
    ReplicationVector::msh(0, 0, 1)
}

/// The answers that need the whole tree in view, and every quota refusal
/// path, in a fixed order.
pub fn scripted() -> Vec<Op> {
    let s = String::from;
    vec![
        Op::Mkdir(s("/a/d")),
        Op::Mkdir(s("/b")),
        Op::Mkdir(s("/q")),
        Op::Create(s("/a/f0"), u(2)),
        // A file shadowing a path component: NotADirectory, whatever the
        // names are.
        Op::Create(s("/a/f0/x"), u(1)),
        Op::Mkdir(s("/a/f0/x/y")),
        Op::Status(s("/a/f0/x")),
        Op::List(s("/a/f0/x")),
        Op::Rename(s("/b"), s("/a/f0/x")),
        Op::Delete(s("/a/f0/x"), true),
        // mkdir over a file; list of a file.
        Op::Mkdir(s("/a/f0")),
        Op::List(s("/a/f0")),
        // Rename into the own subtree, onto an existing name, of `/`.
        Op::Rename(s("/a"), s("/a/d/z")),
        Op::Rename(s("/a"), s("/b")),
        Op::Rename(s("/"), s("/r")),
        Op::Delete(s("/"), true),
        Op::Delete(s("/a"), false),
        Op::Status(s("relative")),
        Op::Mkdir(s("/a/../b")),
        // Quota refusals: append, rename into, set_replication, set_quota.
        Op::SetQuota(s("/q"), TierQuota::limit_tier(2, 3000)),
        Op::Create(s("/q/f"), hdd()),
        Op::AddBlock(s("/q/f"), 2000),
        Op::AddBlock(s("/q/f"), 2000),
        Op::Create(s("/b/g"), hdd()),
        Op::AddBlock(s("/b/g"), 2000),
        Op::Complete(s("/b/g")),
        Op::AddBlock(s("/b/g"), 10),
        Op::Rename(s("/b/g"), s("/q/g")),
        Op::Rename(s("/b"), s("/q/b")),
        Op::SetReplication(s("/q/f"), ReplicationVector::msh(0, 0, 2)),
        Op::SetQuota(s("/q"), TierQuota::limit_tier(2, 1000)),
        Op::SetQuota(s("/q/f"), TierQuota::unlimited()),
        Op::QuotaUsage(s("/q")),
        Op::QuotaUsage(s("/q/f")),
        // A rename inside one quota'd directory is always admissible.
        Op::Rename(s("/q/f"), s("/q/f2")),
        Op::Complete(s("/q")),
        Op::Delete(s("/q"), true),
        Op::QuotaUsage(s("/")),
    ]
}

/// The generator behind [`random_ops`] and [`churn`]. It is not
/// `octopus_common::rng` because `transcript.rs` and `scan_transcript.rs`
/// pin its stream through the checked-in `namespace_transcript.txt` and
/// `scan_transcript.txt`.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn seeded(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    pub fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A seeded sequence over a universe small enough that files and
/// directories keep colliding on the same names.
pub fn random_ops(seed: u64, n: usize) -> Vec<Op> {
    const DIRS: [&str; 5] = ["/a", "/b", "/a/d", "/q", "/"];
    const NAMES: [&str; 4] = ["f0", "f1", "d", "x"];
    let mut rng = Lcg::seeded(seed);
    let path = |rng: &mut Lcg| {
        let base = format!("{}/{}", rng.pick(&DIRS).trim_end_matches('/'), rng.pick(&NAMES));
        match rng.below(8) {
            0 => format!("{base}/{}", rng.pick(&NAMES)), // through a file or a dir
            1 => rng.pick(&DIRS).to_string(),
            _ => base,
        }
    };
    let mut ops = vec![Op::Mkdir("/a/d".into()), Op::Mkdir("/b".into()), Op::Mkdir("/q".into())];
    for _ in 0..n {
        let p = path(&mut rng);
        let rv = [u(1), u(3), hdd(), ReplicationVector::msh(1, 0, 1)][rng.below(4) as usize];
        ops.push(match rng.below(100) {
            0..=9 => Op::Mkdir(p),
            10..=29 => Op::Create(p, rv),
            30..=41 => Op::AddBlock(p, (rng.below(4) + 1) * 500),
            42..=49 => Op::Complete(p),
            50..=61 => Op::Rename(p, path(&mut rng)),
            62..=71 => Op::Delete(p, rng.below(2) == 0),
            72..=79 => Op::List(p),
            80..=87 => Op::Status(p),
            88..=91 => Op::SetQuota(p, TierQuota::limit_tier(2, rng.below(6) * 1000)),
            92..=96 => Op::SetReplication(p, rv),
            _ => Op::QuotaUsage(p),
        });
    }
    ops
}

/// A long churn over paths one to three components deep drawn from six
/// names (258 possible paths): the tree grows to a couple of hundred
/// inodes and keeps turning over, so files and directories are renamed
/// within and across directories, deleted recursively and not, and
/// re-created under names — and, since this PR, in inode slots — that
/// something else held before; quotas are set low enough to be breached.
pub fn churn(seed: u64, n: usize) -> Vec<Op> {
    const NAMES: [&str; 6] = ["a", "b", "d", "f0", "f1", "q"];
    let mut rng = Lcg::seeded(seed);
    let path = |rng: &mut Lcg| {
        let depth = [1, 2, 2, 3, 3, 3][rng.below(6) as usize];
        (0..depth).map(|_| format!("/{}", rng.pick(&NAMES))).collect::<String>()
    };
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let p = path(&mut rng);
        let rv = [u(1), hdd(), ReplicationVector::msh(1, 0, 1), ReplicationVector::msh(0, 1, 2)]
            [rng.below(4) as usize];
        ops.push(match rng.below(100) {
            0..=13 => Op::Mkdir(p),
            14..=35 => Op::Create(p, rv),
            36..=47 => Op::AddBlock(p, (rng.below(4) + 1) * 500),
            48..=52 => Op::Complete(p),
            53..=67 => Op::Rename(p, path(&mut rng)),
            68..=78 => Op::Delete(p, rng.below(2) == 0),
            79..=82 => Op::List(p),
            83..=87 => Op::Status(p),
            88..=91 => {
                let tier = [0, 1, 2][rng.below(3) as usize];
                Op::SetQuota(p, TierQuota::limit_tier(tier, rng.below(8) * 1000))
            }
            92..=96 => Op::SetReplication(p, rv),
            _ => Op::QuotaUsage(p),
        });
    }
    ops
}

/// Renames into and out of a 1,000-entry directory, with quotas on both
/// sides: usage must follow the moved file, and the moved subtree, exactly.
pub fn big_directory() -> Vec<Op> {
    let s = String::from;
    let mut ops = vec![
        Op::Mkdir(s("/big")),
        Op::Mkdir(s("/side/sub")),
        Op::SetQuota(s("/big"), TierQuota::limit_tier(2, 1_000_000)),
        Op::SetQuota(s("/side"), TierQuota::limit_tier(2, 5_000)),
    ];
    // Inserted in an order that is neither ascending nor descending.
    for i in 0..1000u64 {
        let name = format!("/big/e{:03}", (i * 389) % 1000);
        ops.push(Op::Create(name.clone(), hdd()));
        ops.push(Op::AddBlock(name, 100 + i % 7));
    }
    ops.extend([
        Op::QuotaUsage(s("/big")),
        Op::Create(s("/side/in"), hdd()),
        Op::AddBlock(s("/side/in"), 3000),
        Op::Create(s("/side/sub/deep"), hdd()),
        Op::AddBlock(s("/side/sub/deep"), 1500),
        // Into the big directory: first, middle and last position.
        Op::Rename(s("/side/in"), s("/big/a-first")),
        Op::Rename(s("/big/a-first"), s("/big/e500x")),
        Op::Rename(s("/big/e500x"), s("/big/z-last")),
        Op::Rename(s("/side/sub"), s("/big/sub")),
        Op::QuotaUsage(s("/big")),
        Op::QuotaUsage(s("/side")),
        Op::QuotaUsage(s("/")),
        // Out again: /side admits 5,000 bytes of HDD.
        Op::Rename(s("/big/z-last"), s("/side/out")),
        Op::Rename(s("/big/sub"), s("/side/sub")),
        Op::Rename(s("/big/e000"), s("/side/e000")),
        Op::Rename(s("/big/e999"), s("/side/sub/e999")),
        Op::Rename(s("/big/e777"), s("/side/e000")),
        Op::Create(s("/big/huge"), hdd()),
        Op::AddBlock(s("/big/huge"), 2000),
        Op::Rename(s("/big/huge"), s("/side/huge")),
        Op::QuotaUsage(s("/big")),
        Op::QuotaUsage(s("/side")),
        Op::QuotaUsage(s("/side/sub")),
        Op::List(s("/side")),
        Op::List(s("/big")),
        Op::Delete(s("/big"), false),
        Op::Delete(s("/big"), true),
        Op::QuotaUsage(s("/")),
    ]);
    ops
}
