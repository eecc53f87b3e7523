//! Block access heat: worker-side epoch counting and master-side per-file
//! EWMA scoring.
//!
//! The paper's MOOP placement (§3.2) decides where *new* data lands; the
//! authors' follow-up on automated tiered-storage management moves data
//! *continuously*, which requires knowing which blocks are hot, per tier,
//! over time. This module is that substrate's data plane:
//!
//! - [`HeatRecorder`] (one per worker): counts per-block read/write touches
//!   in the current epoch under a single mutex (two map lookups per block
//!   I/O — negligible against a block transfer). The heartbeat thread calls
//!   [`HeatRecorder::drain_epoch`] and piggybacks the counts on the
//!   heartbeat RPC — heat shipping adds no extra round trips.
//! - [`HeatTracker`] (one per master): folds shipped touches into per-file
//!   exponentially-weighted moving averages over fixed wall-clock epochs.
//!   Folding is *lazy and deterministic*: every operation takes an explicit
//!   `now_ms`, so a file untouched for `g` epochs decays by exactly
//!   `(1-α)^g` at its next query and tests can replay sequences with no
//!   wall clock involved.
//!
//! The tracker's score blends the folded EWMA with a preview of the
//! still-open epoch (`α·current + (1-α)·ewma`), so a file touched moments
//! ago already ranks hot instead of waiting out the epoch boundary.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::ids::{BlockId, INodeId};
use crate::wire::{Wire, WireReader};
use crate::Result;

/// Default master-side epoch length.
pub const DEFAULT_HEAT_EPOCH_MS: u64 = 2_000;

/// Default EWMA smoothing factor α (weight of the newest epoch).
pub const DEFAULT_HEAT_ALPHA: f64 = 0.4;

/// Per-block touch counts for one epoch, as shipped on heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTouches {
    /// The touched block.
    pub block: BlockId,
    /// Read touches (one per served `ReadBlock`/replication source read).
    pub reads: u32,
    /// Write touches (one per stored replica).
    pub writes: u32,
}

impl Wire for BlockTouches {
    fn put(&self, buf: &mut Vec<u8>) {
        self.block.put(buf);
        self.reads.put(buf);
        self.writes.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(BlockTouches { block: Wire::get(r)?, reads: Wire::get(r)?, writes: Wire::get(r)? })
    }
}

/// Worker-side per-block touch counter for the open epoch.
#[derive(Default)]
pub struct HeatRecorder {
    current: Mutex<HashMap<BlockId, (u32, u32)>>,
}

impl HeatRecorder {
    /// A recorder with an empty open epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one read touch.
    pub fn touch_read(&self, block: BlockId) {
        self.current.lock().unwrap().entry(block).or_insert((0, 0)).0 += 1;
    }

    /// Counts one write touch.
    pub fn touch_write(&self, block: BlockId) {
        self.current.lock().unwrap().entry(block).or_insert((0, 0)).1 += 1;
    }

    /// Closes the current epoch: returns its touches (sorted by block id,
    /// so the wire payload is deterministic) and starts a fresh epoch.
    pub fn drain_epoch(&self) -> Vec<BlockTouches> {
        let mut out: Vec<BlockTouches> = self
            .current
            .lock()
            .unwrap()
            .drain()
            .map(|(block, (reads, writes))| BlockTouches { block, reads, writes })
            .collect();
        out.sort_unstable_by_key(|t| t.block);
        out
    }
}

/// One file's heat as reported by the master's `Heat` RPC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatInfo {
    /// The file.
    pub file: INodeId,
    /// Folded read-touch EWMA (touches per epoch).
    pub reads_ewma: f64,
    /// Folded write-touch EWMA (touches per epoch).
    pub writes_ewma: f64,
    /// Read touches accumulated in the still-open epoch.
    pub cur_reads: u64,
    /// Write touches accumulated in the still-open epoch.
    pub cur_writes: u64,
    /// The blended heat score (see module docs).
    pub score: f64,
    /// Start of the epoch of the file's latest touch, on the master's
    /// clock (0 for an untracked file): the recency an LRU eviction
    /// orders by.
    pub last_touch_ms: u64,
}

impl Wire for HeatInfo {
    fn put(&self, buf: &mut Vec<u8>) {
        self.file.put(buf);
        self.reads_ewma.put(buf);
        self.writes_ewma.put(buf);
        self.cur_reads.put(buf);
        self.cur_writes.put(buf);
        self.score.put(buf);
        self.last_touch_ms.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(HeatInfo {
            file: Wire::get(r)?,
            reads_ewma: Wire::get(r)?,
            writes_ewma: Wire::get(r)?,
            cur_reads: Wire::get(r)?,
            cur_writes: Wire::get(r)?,
            score: Wire::get(r)?,
            last_touch_ms: Wire::get(r)?,
        })
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FileHeat {
    /// The epoch of the latest touch: only [`HeatTracker::observe`] moves it.
    epoch: u64,
    reads_ewma: f64,
    writes_ewma: f64,
    cur_reads: u64,
    cur_writes: u64,
}

impl FileHeat {
    /// Folds every epoch boundary crossed between `self.epoch` and `e`:
    /// one EWMA step consuming the open epoch's counts, then pure decay
    /// `(1-α)^gap` for the empty epochs in between (computed closed-form,
    /// so a file idle for a week costs one `powi`, not a loop).
    fn roll_to(&mut self, e: u64, alpha: f64) {
        if e <= self.epoch {
            return;
        }
        self.reads_ewma = alpha * self.cur_reads as f64 + (1.0 - alpha) * self.reads_ewma;
        self.writes_ewma = alpha * self.cur_writes as f64 + (1.0 - alpha) * self.writes_ewma;
        self.cur_reads = 0;
        self.cur_writes = 0;
        let gap = (e - self.epoch - 1).min(10_000) as i32;
        if gap > 0 {
            let decay = (1.0 - alpha).powi(gap);
            self.reads_ewma *= decay;
            self.writes_ewma *= decay;
        }
        self.epoch = e;
    }

    fn info(mut self, file: INodeId, e: u64, alpha: f64, epoch_ms: u64) -> HeatInfo {
        let last_touch_ms = self.epoch * epoch_ms;
        self.roll_to(e, alpha);
        let cur = (self.cur_reads + self.cur_writes) as f64;
        let ewma = self.reads_ewma + self.writes_ewma;
        HeatInfo {
            file,
            reads_ewma: self.reads_ewma,
            writes_ewma: self.writes_ewma,
            cur_reads: self.cur_reads,
            cur_writes: self.cur_writes,
            score: alpha * cur + (1.0 - alpha) * ewma,
            last_touch_ms,
        }
    }
}

/// Master-side per-file EWMA heat over fixed epochs. Deterministic: every
/// method takes an explicit `now_ms`; nothing reads a clock.
pub struct HeatTracker {
    epoch_ms: u64,
    alpha: f64,
    files: HashMap<INodeId, FileHeat>,
}

impl Default for HeatTracker {
    fn default() -> Self {
        Self::new(DEFAULT_HEAT_EPOCH_MS, DEFAULT_HEAT_ALPHA)
    }
}

impl HeatTracker {
    /// A tracker with the given epoch length (≥1 ms) and EWMA α ∈ (0, 1].
    pub fn new(epoch_ms: u64, alpha: f64) -> Self {
        HeatTracker {
            epoch_ms: epoch_ms.max(1),
            alpha: alpha.clamp(1e-6, 1.0),
            files: HashMap::new(),
        }
    }

    fn epoch(&self, now_ms: u64) -> u64 {
        now_ms / self.epoch_ms
    }

    /// Folds `reads`/`writes` touches of `file` into the epoch containing
    /// `now_ms`.
    pub fn observe(&mut self, file: INodeId, reads: u64, writes: u64, now_ms: u64) {
        let e = self.epoch(now_ms);
        let alpha = self.alpha;
        let entry = self.files.entry(file).or_insert(FileHeat { epoch: e, ..Default::default() });
        entry.roll_to(e, alpha);
        entry.cur_reads += reads;
        entry.cur_writes += writes;
    }

    /// The heat of one file as of `now_ms`. Untracked files are simply
    /// cold: a zero-score [`HeatInfo`].
    pub fn info(&self, file: INodeId, now_ms: u64) -> HeatInfo {
        let e = self.epoch(now_ms);
        match self.files.get(&file) {
            Some(h) => h.info(file, e, self.alpha, self.epoch_ms),
            None => HeatInfo { file, ..Default::default() },
        }
    }

    /// The `k` hottest tracked files as of `now_ms`, hottest first; ties
    /// break toward the lower inode id so the order is deterministic.
    pub fn hottest(&self, k: usize, now_ms: u64) -> Vec<HeatInfo> {
        let e = self.epoch(now_ms);
        let mut all: Vec<HeatInfo> =
            self.files.iter().map(|(f, h)| h.info(*f, e, self.alpha, self.epoch_ms)).collect();
        all.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.file.cmp(&b.file)));
        all.truncate(k);
        all
    }

    /// Stops tracking a file (deletion).
    pub fn forget(&mut self, file: INodeId) {
        self.files.remove(&file);
    }

    /// Drops files whose heat has decayed to effectively zero, bounding
    /// the map to files with recent activity. Returns how many were
    /// dropped.
    pub fn gc(&mut self, now_ms: u64) -> usize {
        let e = self.epoch(now_ms);
        let (alpha, epoch_ms) = (self.alpha, self.epoch_ms);
        let before = self.files.len();
        self.files.retain(|f, h| h.info(*f, e, alpha, epoch_ms).score > 1e-9);
        before - self.files.len()
    }

    /// Number of tracked files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no files are tracked.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    fn b(n: u64) -> BlockId {
        BlockId(n)
    }

    #[test]
    fn recorder_counts_and_drains_sorted() {
        let r = HeatRecorder::new();
        r.touch_write(b(9));
        r.touch_read(b(3));
        r.touch_read(b(3));
        r.touch_read(b(9));
        let epoch = r.drain_epoch();
        assert_eq!(
            epoch,
            vec![
                BlockTouches { block: b(3), reads: 2, writes: 0 },
                BlockTouches { block: b(9), reads: 1, writes: 1 },
            ]
        );
        assert!(r.drain_epoch().is_empty(), "fresh epoch has no touches");
    }

    #[test]
    fn touches_round_trip_over_wire() {
        let t = BlockTouches { block: b(7), reads: 3, writes: 1 };
        let back: BlockTouches = decode(&encode(&t)).unwrap();
        assert_eq!(back, t);
        let info = HeatInfo {
            file: INodeId(5),
            reads_ewma: 1.25,
            writes_ewma: 0.5,
            cur_reads: 2,
            cur_writes: 0,
            score: 1.85,
            last_touch_ms: 6_000,
        };
        let back: HeatInfo = decode(&encode(&info)).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn untracked_file_is_cold() {
        let t = HeatTracker::new(100, 0.5);
        let i = t.info(INodeId(1), 12345);
        assert_eq!(i.score, 0.0);
        assert_eq!(i.cur_reads, 0);
    }

    #[test]
    fn open_epoch_counts_preview_into_score() {
        let mut t = HeatTracker::new(100, 0.5);
        t.observe(INodeId(1), 4, 2, 50);
        let i = t.info(INodeId(1), 60);
        assert_eq!(i.cur_reads, 4);
        assert_eq!(i.cur_writes, 2);
        // Preview: α·(4+2) + (1-α)·0 = 3.
        assert!((i.score - 3.0).abs() < 1e-12, "{}", i.score);
    }

    #[test]
    fn last_touch_is_the_epoch_of_the_latest_observe() {
        let mut t = HeatTracker::new(100, 0.5);
        t.observe(INodeId(1), 1, 0, 250);
        assert_eq!(t.info(INodeId(1), 260).last_touch_ms, 200);
        // Queries fold and decay a copy: only a touch moves recency.
        assert_eq!(t.info(INodeId(1), 900).last_touch_ms, 200);
        assert_eq!(t.hottest(1, 900)[0].last_touch_ms, 200);
        t.observe(INodeId(1), 0, 1, 720);
        assert_eq!(t.info(INodeId(1), 900).last_touch_ms, 700);
        assert_eq!(t.info(INodeId(2), 900).last_touch_ms, 0, "untracked");
    }

    #[test]
    fn zero_access_decays_to_cold() {
        let mut t = HeatTracker::new(100, 0.5);
        t.observe(INodeId(1), 8, 0, 0);
        // One boundary later the epoch folds: ewma = 0.5·8 = 4.
        let i = t.info(INodeId(1), 100);
        assert!((i.reads_ewma - 4.0).abs() < 1e-12);
        assert!((i.score - 2.0).abs() < 1e-12, "blend halves the idle ewma");
        // Twenty idle epochs: 4·0.5^19 ≈ 7.6e-6 → effectively cold.
        let i = t.info(INodeId(1), 2000);
        assert!(i.score < 1e-4, "{}", i.score);
        // And gc() actually forgets it after enough decay.
        assert!(t.info(INodeId(1), 20_000).score < 1e-9);
        assert_eq!(t.gc(20_000), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn seeded_multi_epoch_sequence_matches_reference_ewma() {
        // Replay a fixed touch sequence and compare against an
        // independently computed EWMA: observations at epochs 0,1,2 then a
        // 3-epoch gap then epoch 6.
        let alpha = 0.25;
        let mut t = HeatTracker::new(10, alpha);
        let seq: &[(u64, u64)] = &[(0, 10), (1, 6), (2, 2), (6, 8)];
        for &(epoch, reads) in seq {
            t.observe(INodeId(9), reads, 0, epoch * 10);
        }
        // Reference fold, one epoch at a time.
        let mut ewma = 0.0f64;
        let mut counts = [0.0f64; 7];
        for &(epoch, reads) in seq {
            counts[epoch as usize] += reads as f64;
        }
        for &c in counts.iter().take(6) {
            ewma = alpha * c + (1.0 - alpha) * ewma;
        }
        let i = t.info(INodeId(9), 70);
        // Epoch 6's count (8) folds at the epoch-7 query boundary; the
        // blended score then previews the empty open epoch.
        let folded = alpha * counts[6] + (1.0 - alpha) * ewma;
        let expect = (1.0 - alpha) * folded;
        assert!((i.reads_ewma - folded).abs() < 1e-12, "{} vs {folded}", i.reads_ewma);
        assert!((i.score - expect).abs() < 1e-12, "{} vs {expect}", i.score);
    }

    #[test]
    fn hottest_ranks_by_score_with_stable_ties() {
        let mut t = HeatTracker::new(100, 0.5);
        t.observe(INodeId(1), 2, 0, 0);
        t.observe(INodeId(2), 10, 0, 0);
        t.observe(INodeId(3), 2, 0, 0);
        let top = t.hottest(10, 0);
        assert_eq!(top[0].file, INodeId(2));
        assert_eq!((top[1].file, top[2].file), (INodeId(1), INodeId(3)), "ties by inode");
        assert_eq!(t.hottest(1, 0).len(), 1);
        t.forget(INodeId(2));
        assert_eq!(t.len(), 2);
    }
}
