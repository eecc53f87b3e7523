//! The worker runtime (paper §2.2): owns the node's storage media, serves
//! block reads/writes, and produces heartbeat statistics and block reports.

use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_common::metrics::{GaugeGuard, Labels, MetricsRegistry};
use octopus_common::trace::TraceCollector;
use octopus_common::{
    Block, BlockData, BlockId, BlockTouches, FsError, HeatRecorder, MediaId, MediaStats, RackId,
    Result, TierId, WorkerId,
};
use octopus_storage::{BlockStore, ConnGuard, Media};

/// One active I/O span against one medium: counted in the medium's
/// `NrConn` (feeding heartbeats and thereby §3.2 placement) and mirrored
/// in the `worker_media_io_conn` gauge. Held for the *full* service span
/// of a request — transfer included — not just the store operation, so
/// heartbeats observe real contention rather than probe-instant noise.
pub struct MediaIo {
    _conn: ConnGuard,
    _gauge: GaugeGuard,
}

/// One worker node.
pub struct Worker {
    id: WorkerId,
    rack: RackId,
    media: Vec<Arc<Media>>,
    net_conns: Arc<AtomicU32>,
    net_bps: f64,
    emulate_bps: AtomicBool,
    metrics: MetricsRegistry,
    trace: TraceCollector,
    heat: HeatRecorder,
}

impl Worker {
    /// Assembles a worker from already-constructed media.
    pub fn new(worker: WorkerId, rack: RackId, media: Vec<Arc<Media>>, net_bps: f64) -> Self {
        Self {
            id: worker,
            rack,
            media,
            net_conns: Arc::new(AtomicU32::new(0)),
            net_bps,
            emulate_bps: AtomicBool::new(false),
            metrics: MetricsRegistry::new(),
            trace: TraceCollector::new(format!("worker-{}", worker.0)),
            heat: HeatRecorder::new(),
        }
    }

    /// The worker's metrics registry (`worker_*` counters/gauges, stamped
    /// with this worker's id so merged cluster snapshots stay
    /// distinguishable).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The worker's trace collector (spans for data-server RPCs serviced
    /// by this worker, node-stamped `worker-<id>`).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    fn labels(&self) -> Labels {
        Labels::worker(self.id())
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// This worker's rack.
    pub fn rack(&self) -> RackId {
        self.rack
    }

    /// NIC bandwidth, bytes/s.
    pub fn net_bps(&self) -> f64 {
        self.net_bps
    }

    /// The worker's media.
    pub fn media(&self) -> &[Arc<Media>] {
        &self.media
    }

    /// Looks up one medium.
    pub fn medium(&self, id: MediaId) -> Result<&Arc<Media>> {
        self.media.iter().find(|m| m.id == id).ok_or_else(|| FsError::UnknownMedia(id.to_string()))
    }

    /// Opens a network connection accounting guard (one per active remote
    /// transfer touching this node).
    pub fn connect_net(&self) -> ConnGuard {
        ConnGuard::acquire(&self.net_conns)
    }

    /// Current active network connections.
    pub fn net_conn_count(&self) -> u32 {
        self.net_conns.load(Ordering::Relaxed)
    }

    /// Opens an I/O-connection span against a medium. The caller holds the
    /// returned guard for the duration of the transfer it serves (an RPC
    /// service span, an in-process block copy); [`Worker::write_block`] /
    /// [`Worker::read_block`] do *not* count connections themselves, so a
    /// span covers the whole transfer exactly once.
    pub fn media_io(&self, media: MediaId) -> Result<MediaIo> {
        let m = self.medium(media)?;
        let gauge = self
            .metrics
            .gauge("worker_media_io_conn", self.labels().with_tier(m.tier))
            .inc_scoped();
        Ok(MediaIo { _conn: m.connect(), _gauge: gauge })
    }

    /// Enables device-throughput emulation (see
    /// `ClusterConfig::emulate_media_bps`): data servers pace each served
    /// transfer to the medium's configured rates via
    /// [`Worker::transfer_pacing`].
    pub fn set_emulate_media_bps(&self, on: bool) {
        self.emulate_bps.store(on, Ordering::Relaxed);
    }

    /// How long serving a `len`-byte transfer against `media` should take
    /// at the medium's nominal device throughput, or `None` when emulation
    /// is off. Data servers sleep this long while holding the transfer's
    /// [`Worker::media_io`] span, so loopback deployments exhibit the
    /// per-tier bandwidths and NrConn contention the paper's evaluation
    /// assumes of real devices.
    pub fn transfer_pacing(&self, media: MediaId, len: u64, write: bool) -> Option<Duration> {
        if !self.emulate_bps.load(Ordering::Relaxed) {
            return None;
        }
        let m = self.medium(media).ok()?;
        let (write_bps, read_bps) = m.throughput();
        let bps = if write { write_bps } else { read_bps };
        if bps <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(len as f64 / bps))
    }

    /// Stores a replica on the given medium. Connection accounting is the
    /// caller's via [`Worker::media_io`].
    pub fn write_block(&self, media: MediaId, block: Block, data: &BlockData) -> Result<()> {
        let m = self.medium(media)?;
        let labels = self.labels().with_tier(m.tier);
        let start = Instant::now();
        let out = m.store.put(block, data);
        self.metrics.observe_since("worker_write_us", labels, start);
        if out.is_ok() {
            self.metrics.add("worker_write_bytes_total", labels, block.len);
            self.heat.touch_write(block.id);
        }
        out
    }

    /// Reads a block from the given medium, verifying its checksum.
    pub fn read_block(&self, media: MediaId, block: BlockId) -> Result<BlockData> {
        self.timed_read(media, block, |store| store.get(block), BlockData::len)
    }

    /// Reads a block and the CRC-32 recorded when it was stored, with no
    /// pass over the payload: what the `ReadBlock` server path sends, for
    /// the receiver to verify end to end. Recorded (latency, bytes, heat)
    /// exactly as [`Worker::read_block`].
    pub fn read_block_unverified(
        &self,
        media: MediaId,
        block: BlockId,
    ) -> Result<(BlockData, u32)> {
        self.timed_read(media, block, |store| store.read(block), |(data, _)| data.len())
    }

    /// One store read under the read path's telemetry: `worker_read_us`,
    /// and on success `worker_read_bytes_total{tier}` and the heat touch.
    fn timed_read<T>(
        &self,
        media: MediaId,
        block: BlockId,
        read: impl FnOnce(&dyn BlockStore) -> Result<T>,
        len: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let m = self.medium(media)?;
        let labels = self.labels().with_tier(m.tier);
        let start = Instant::now();
        let out = read(&*m.store);
        self.metrics.observe_since("worker_read_us", labels, start);
        if let Ok(read) = &out {
            self.metrics.add("worker_read_bytes_total", labels, len(read));
            self.heat.touch_read(block);
        }
        out
    }

    /// Deletes a replica.
    pub fn delete_block(&self, media: MediaId, block: BlockId) -> Result<()> {
        self.medium(media)?.store.delete(block)
    }

    /// The CRC-32 recorded when the replica was stored: an index lookup
    /// that never touches the payload (how a re-sent write is recognised
    /// as the block already held).
    pub fn stored_checksum(&self, media: MediaId, block: BlockId) -> Result<u32> {
        self.medium(media)?.store.checksum(block)
    }

    /// Deletes every local replica of `block` (a master-directed
    /// invalidation from a block-report reply), returning how many were
    /// dropped.
    pub fn invalidate_block(&self, block: BlockId) -> u32 {
        let mut dropped = 0;
        for m in &self.media {
            if m.store.contains(block) && m.store.delete(block).is_ok() {
                dropped += 1;
            }
        }
        dropped
    }

    /// Whether any local medium holds the block.
    pub fn contains(&self, block: BlockId) -> bool {
        self.media.iter().any(|m| m.store.contains(block))
    }

    /// Heartbeat payload: per-media statistics plus the NIC connection
    /// count.
    pub fn heartbeat_stats(&self) -> (Vec<MediaStats>, u32) {
        let stats = self
            .media
            .iter()
            .map(|m| {
                let (write_thru, read_thru) = m.throughput();
                MediaStats {
                    media: m.id,
                    worker: self.id,
                    rack: self.rack,
                    tier: m.tier,
                    capacity: m.store.capacity(),
                    remaining: m.store.remaining(),
                    nr_conn: m.nr_conn(),
                    write_thru,
                    read_thru,
                }
            })
            .collect();
        (stats, self.net_conn_count())
    }

    /// The worker's block access-heat recorder (touched by
    /// [`Worker::read_block`] / [`Worker::write_block`]).
    pub fn heat(&self) -> &HeatRecorder {
        &self.heat
    }

    /// Closes the current heat epoch and returns its per-block touch
    /// counts, sorted by block id — the heartbeat piggyback payload.
    pub fn drain_heat_epoch(&self) -> Vec<BlockTouches> {
        self.heat.drain_epoch()
    }

    /// Block report payload: every block on every medium (paper §5).
    pub fn block_report(&self) -> Vec<(Block, MediaId)> {
        let mut out = Vec::new();
        for m in &self.media {
            for info in m.store.blocks() {
                out.push((info.block, m.id));
            }
        }
        out
    }

    /// Verifies every stored block's checksum, returning the corrupt ones
    /// (the periodic scrubber of §5).
    pub fn scrub(&self) -> Vec<(BlockId, MediaId)> {
        let mut corrupt = Vec::new();
        for m in &self.media {
            for info in m.store.blocks() {
                if m.store.verify(info.block.id).is_err() {
                    corrupt.push((info.block.id, m.id));
                }
            }
        }
        self.metrics.inc("worker_scrub_runs_total", self.labels());
        self.metrics.add("worker_scrub_corrupt_total", self.labels(), corrupt.len() as u64);
        corrupt
    }

    /// Total bytes stored.
    pub fn used(&self) -> u64 {
        self.media.iter().map(|m| m.store.used()).sum()
    }

    /// The tier of one medium.
    pub fn tier_of(&self, media: MediaId) -> Result<TierId> {
        Ok(self.medium(media)?.tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::GenStamp;
    use octopus_storage::MemoryStore;

    fn worker() -> Worker {
        let media = (0..2)
            .map(|i| {
                Arc::new(Media::new(
                    MediaId(i),
                    TierId(i as u8),
                    Arc::new(MemoryStore::new(1 << 20)),
                    1e8,
                    2e8,
                ))
            })
            .collect();
        Worker::new(WorkerId(3), RackId(1), media, 1e9)
    }

    /// Three media of 1,000 B each, with distinct tiers and throughputs.
    fn three_media_worker() -> Worker {
        let media = (0..3)
            .map(|i| {
                Arc::new(Media::new(
                    MediaId(i),
                    TierId(i as u8),
                    Arc::new(MemoryStore::new(1000)),
                    100.0 * (i + 1) as f64,
                    200.0 * (i + 1) as f64,
                ))
            })
            .collect();
        Worker::new(WorkerId(5), RackId(1), media, 1e9)
    }

    fn blk(id: u64, len: u64) -> Block {
        Block { id: BlockId(id), gen: GenStamp(0), len }
    }

    #[test]
    fn write_read_delete() {
        let w = worker();
        let data = BlockData::generate_real(1024, 7);
        w.write_block(MediaId(0), blk(1, 1024), &data).unwrap();
        assert!(w.contains(BlockId(1)));
        assert_eq!(w.read_block(MediaId(0), BlockId(1)).unwrap(), data);
        w.delete_block(MediaId(0), BlockId(1)).unwrap();
        assert!(!w.contains(BlockId(1)));
    }

    #[test]
    fn heartbeat_and_report() {
        let w = worker();
        w.write_block(MediaId(1), blk(2, 100), &BlockData::generate_real(100, 2)).unwrap();
        let (stats, net_conn) = w.heartbeat_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(net_conn, 0);
        assert_eq!(stats[1].remaining, (1 << 20) - 100);
        let report = w.block_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].1, MediaId(1));
        assert_eq!(report[0].0.id, BlockId(2));
    }

    #[test]
    fn net_conn_guard() {
        let w = worker();
        let g1 = w.connect_net();
        let g2 = w.connect_net();
        assert_eq!(w.net_conn_count(), 2);
        drop(g1);
        drop(g2);
        assert_eq!(w.net_conn_count(), 0);
    }

    #[test]
    fn scrub_finds_corruption() {
        let mem = Arc::new(MemoryStore::new(1 << 20));
        let store: Arc<dyn BlockStore> = mem.clone();
        let media: Vec<Arc<Media>> =
            vec![Arc::new(Media::new(MediaId(0), TierId(0), store, 1e8, 1e8))];
        let w = Worker::new(WorkerId(0), RackId(0), media, 1e9);
        w.write_block(MediaId(0), blk(1, 64), &BlockData::generate_real(64, 1)).unwrap();
        assert!(w.scrub().is_empty());
        mem.corrupt(BlockId(1)).unwrap();
        assert_eq!(w.scrub(), vec![(BlockId(1), MediaId(0))]);
    }

    #[test]
    fn stats_reflect_store_state() {
        let w = three_media_worker();
        let m = w.medium(MediaId(1)).unwrap();
        m.store.put(blk(1, 100), &BlockData::generate_real(100, 1)).unwrap();
        let _conn = m.connect();
        let (stats, _) = w.heartbeat_stats();
        assert_eq!(stats.len(), 3);
        let s1 = stats.iter().find(|s| s.media == MediaId(1)).unwrap();
        assert_eq!(s1.worker, WorkerId(5));
        assert_eq!(s1.rack, RackId(1));
        assert_eq!(s1.tier, TierId(1));
        assert_eq!(s1.remaining, 900);
        assert_eq!(s1.nr_conn, 1);
        assert_eq!(s1.write_thru, 200.0);
        assert_eq!(w.used(), 100);
    }

    #[test]
    fn contains_finds_a_block_on_any_medium() {
        let w = three_media_worker();
        w.medium(MediaId(2))
            .unwrap()
            .store
            .put(blk(9, 10), &BlockData::generate_real(10, 9))
            .unwrap();
        assert!(w.contains(BlockId(9)));
        assert_eq!(w.block_report(), vec![(blk(9, 10), MediaId(2))]);
        assert!(!w.contains(BlockId(1)));
    }

    #[test]
    fn unknown_media_errors() {
        let w = three_media_worker();
        assert!(matches!(w.medium(MediaId(9)), Err(FsError::UnknownMedia(_))));
    }
}
