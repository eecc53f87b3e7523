//! Master-side cluster state: registered workers, heartbeat statistics,
//! and liveness tracking (paper §2.1/§3.2). The bytes scheduled into
//! pipelines and copies are the block map's pending locations
//! ([`BlockMap::reserved`]); the placement view subtracts them here. The
//! master keeps this state under one guard with the [`BlockMap`]: a worker
//! declared dead loses its replicas in the same step, and a replica is
//! recorded only on a live one.

use std::collections::BTreeMap;

use octopus_common::{
    ClusterConfig, FsError, MediaId, MediaStats, RackId, Result, StorageTierReport, TierId,
    TierRegistry, TierStats, WorkerId, WorkerStats, MAX_TIERS,
};
use octopus_policies::ClusterSnapshot;

use crate::blockmap::BlockMap;

/// Master-side record of one worker.
#[derive(Debug, Clone)]
pub struct WorkerInfo {
    /// Worker id.
    pub worker: WorkerId,
    /// Rack.
    pub rack: RackId,
    /// Latest per-media statistics from heartbeats.
    pub media: Vec<MediaStats>,
    /// Average network transfer rate (bytes/s).
    pub net_thru: f64,
    /// Active network connections.
    pub nr_conn: u32,
    /// When the last heartbeat arrived, on the master's clock (ms).
    pub last_heartbeat_ms: u64,
    /// Heartbeats received since registration.
    pub beats: u64,
    /// Liveness flag maintained by [`ClusterState::tick`].
    pub live: bool,
}

/// A worker is declared dead after this many missed heartbeat intervals
/// (§5: the master learns of a worker failure from its missing heartbeats).
const DEAD_AFTER_MISSED: u64 = 10;

/// All workers, their media as last heartbeated, and their liveness.
#[derive(Debug)]
pub struct ClusterState {
    workers: BTreeMap<WorkerId, WorkerInfo>,
    decommissioning: std::collections::BTreeSet<WorkerId>,
    heartbeat_ms: u64,
    num_tiers: usize,
    volatile: [bool; MAX_TIERS],
}

impl ClusterState {
    /// Creates cluster state from configuration (no workers registered yet).
    pub fn new(config: &ClusterConfig) -> Self {
        let mut volatile = [false; MAX_TIERS];
        for t in config.tiers.iter() {
            volatile[t.id.0 as usize] = t.volatile;
        }
        Self {
            workers: BTreeMap::new(),
            decommissioning: std::collections::BTreeSet::new(),
            heartbeat_ms: config.heartbeat_ms,
            num_tiers: config.tiers.len(),
            volatile,
        }
    }

    /// Registers a worker (first heartbeat supplies its media).
    pub fn register(&mut self, worker: WorkerId, rack: RackId, net_thru: f64, now_ms: u64) {
        self.workers.insert(
            worker,
            WorkerInfo {
                worker,
                rack,
                media: Vec::new(),
                net_thru,
                nr_conn: 0,
                last_heartbeat_ms: now_ms,
                beats: 0,
                live: true,
            },
        );
    }

    /// Processes a heartbeat: refreshes media stats, connection counts, and
    /// liveness. Writes still in flight stay reserved in the block map.
    pub fn heartbeat(
        &mut self,
        worker: WorkerId,
        media: Vec<MediaStats>,
        nr_conn: u32,
        now_ms: u64,
    ) -> Result<()> {
        let w = self
            .workers
            .get_mut(&worker)
            .ok_or_else(|| FsError::UnknownWorker(worker.to_string()))?;
        w.media = media;
        w.nr_conn = nr_conn;
        w.last_heartbeat_ms = now_ms;
        w.beats += 1;
        w.live = true;
        Ok(())
    }

    /// Charges a confirmed write to its medium's cached `remaining`, so
    /// the view stays accurate until the next heartbeat: called by the
    /// master's one confirm when it ends a pending location, whose
    /// reservation ends with it.
    pub fn complete_write(&mut self, media: MediaId, bytes: u64) {
        for w in self.workers.values_mut() {
            for m in w.media.iter_mut() {
                if m.media == media {
                    m.remaining = m.remaining.saturating_sub(bytes);
                }
            }
        }
    }

    /// Marks workers dead whose heartbeats stopped; returns the newly dead.
    pub fn tick(&mut self, now_ms: u64) -> Vec<WorkerId> {
        let deadline = self.heartbeat_ms * DEAD_AFTER_MISSED;
        let mut newly_dead = Vec::new();
        for w in self.workers.values_mut() {
            if w.live && now_ms.saturating_sub(w.last_heartbeat_ms) > deadline {
                w.live = false;
                newly_dead.push(w.worker);
            }
        }
        newly_dead
    }

    /// Administratively marks a worker dead (used by tests and
    /// decommissioning).
    pub fn mark_dead(&mut self, worker: WorkerId) {
        if let Some(w) = self.workers.get_mut(&worker) {
            w.live = false;
        }
    }

    /// Whether a worker is live.
    pub fn is_live(&self, worker: WorkerId) -> bool {
        self.workers.get(&worker).is_some_and(|w| w.live)
    }

    /// Marks a worker as decommissioning: it keeps serving reads and
    /// heartbeats, but the snapshot advertises zero remaining capacity on
    /// its media so no new replicas are placed there.
    pub fn start_decommission(&mut self, worker: WorkerId) {
        self.decommissioning.insert(worker);
    }

    /// Whether a worker is decommissioning.
    pub fn is_decommissioning(&self, worker: WorkerId) -> bool {
        self.decommissioning.contains(&worker)
    }

    /// Clears the decommissioning mark (worker retired or reinstated).
    pub fn clear_decommission(&mut self, worker: WorkerId) {
        self.decommissioning.remove(&worker);
    }

    /// All registered workers.
    pub fn workers(&self) -> impl Iterator<Item = &WorkerInfo> {
        self.workers.values()
    }

    /// `(worker, tier)` of a medium, searching live workers.
    pub fn locate_media(&self, media: MediaId) -> Option<(WorkerId, TierId)> {
        for w in self.workers.values().filter(|w| w.live) {
            for m in &w.media {
                if m.media == media {
                    return Some((w.worker, m.tier));
                }
            }
        }
        None
    }

    /// Builds the policy-facing snapshot over live workers, with remaining
    /// capacities reduced by the bytes `blocks` has reserved on them.
    pub fn snapshot(&self, blocks: &BlockMap) -> ClusterSnapshot {
        let mut media = Vec::new();
        let mut workers = Vec::new();
        for w in self.workers.values().filter(|w| w.live) {
            workers.push(WorkerStats {
                worker: w.worker,
                rack: w.rack,
                net_thru: w.net_thru,
                nr_conn: w.nr_conn,
                live: true,
            });
            let draining = self.decommissioning.contains(&w.worker);
            for m in &w.media {
                let mut m = *m;
                m.remaining = m.remaining.saturating_sub(blocks.reserved(m.media));
                if draining {
                    m.remaining = 0; // never a placement target
                }
                media.push(m);
            }
        }
        ClusterSnapshot { media, workers, num_tiers: self.num_tiers, volatile: self.volatile }
    }

    /// The `getStorageTierReports` payload (Table 1).
    pub fn tier_reports(
        &self,
        registry: &TierRegistry,
        blocks: &BlockMap,
    ) -> Vec<StorageTierReport> {
        let snap = self.snapshot(blocks);
        registry
            .iter()
            .filter_map(|t| {
                TierStats::aggregate(t.id, &snap.media).map(|stats| StorageTierReport {
                    name: t.name.clone(),
                    stats,
                    volatile: t.volatile,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::{Block, BlockId, ClusterConfig, GenStamp, INodeId, Location};

    fn media_stats(media: u32, worker: u32, tier: u8, rem: u64) -> MediaStats {
        MediaStats {
            media: MediaId(media),
            worker: WorkerId(worker),
            rack: RackId(0),
            tier: TierId(tier),
            capacity: 1000,
            remaining: rem,
            nr_conn: 0,
            write_thru: 100.0,
            read_thru: 100.0,
        }
    }

    fn state() -> ClusterState {
        let cfg = ClusterConfig::test_cluster(2, 1000, 100);
        let mut cs = ClusterState::new(&cfg);
        cs.register(WorkerId(0), RackId(0), 1e9, 0);
        cs.register(WorkerId(1), RackId(1), 1e9, 0);
        cs.heartbeat(WorkerId(0), vec![media_stats(0, 0, 0, 800)], 2, 0).unwrap();
        cs.heartbeat(WorkerId(1), vec![media_stats(1, 1, 2, 900)], 0, 0).unwrap();
        cs
    }

    #[test]
    fn snapshot_reflects_heartbeats() {
        let cs = state();
        let snap = cs.snapshot(&BlockMap::new());
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.media.len(), 2);
        assert_eq!(snap.media_stats(MediaId(0)).unwrap().remaining, 800);
        assert_eq!(snap.worker_stats(WorkerId(0)).unwrap().nr_conn, 2);
        assert_eq!(snap.num_tiers, 3);
        assert!(snap.volatile[0]);
    }

    /// A block pending on medium 0: 300 B reserved there.
    fn pending_300() -> (BlockMap, Location) {
        let mut bm = BlockMap::new();
        let at = Location { worker: WorkerId(0), media: MediaId(0), tier: TierId(0) };
        bm.insert(Block { id: BlockId(1), gen: GenStamp(0), len: 300 }, INodeId(1), vec![at]);
        (bm, at)
    }

    #[test]
    fn reservations_shrink_view_until_completed() {
        let mut cs = state();
        let (mut bm, at) = pending_300();
        assert_eq!(cs.snapshot(&bm).media_stats(MediaId(0)).unwrap().remaining, 500);
        assert!(bm.confirm(BlockId(1), at).unwrap());
        cs.complete_write(MediaId(0), 300);
        // Reservation released but consumption applied to the cached stats.
        assert_eq!(cs.snapshot(&bm).media_stats(MediaId(0)).unwrap().remaining, 500);
        // Next heartbeat refreshes authoritative numbers.
        cs.heartbeat(WorkerId(0), vec![media_stats(0, 0, 0, 500)], 0, 10).unwrap();
        assert_eq!(cs.snapshot(&bm).media_stats(MediaId(0)).unwrap().remaining, 500);
    }

    #[test]
    fn abandoned_writes_release_reservation_without_charging_capacity() {
        let cs = state();
        let (mut bm, at) = pending_300();
        bm.abandon_pending(BlockId(1), &at);
        // Nothing was written: the full capacity is visible again.
        assert_eq!(cs.snapshot(&bm).media_stats(MediaId(0)).unwrap().remaining, 800);
    }

    #[test]
    fn liveness_tracking() {
        let mut cs = state();
        // heartbeat_ms=100 × DEAD_AFTER_MISSED → deadline 1000 ms.
        assert!(cs.tick(900).is_empty());
        let dead = cs.tick(1500);
        assert_eq!(dead, vec![WorkerId(0), WorkerId(1)]);
        assert!(!cs.is_live(WorkerId(0)));
        assert!(cs.snapshot(&BlockMap::new()).workers.is_empty());
        assert_eq!(cs.locate_media(MediaId(0)), None, "a dead worker's media are not placed");
        // A heartbeat revives.
        cs.heartbeat(WorkerId(0), vec![media_stats(0, 0, 0, 800)], 0, 1600).unwrap();
        assert!(cs.is_live(WorkerId(0)));
        assert_eq!(cs.tick(1700), Vec::<WorkerId>::new());
    }

    #[test]
    fn locate_media() {
        let cs = state();
        assert_eq!(cs.locate_media(MediaId(1)), Some((WorkerId(1), TierId(2))));
        assert_eq!(cs.locate_media(MediaId(9)), None);
    }

    #[test]
    fn tier_reports_aggregate() {
        let cs = state();
        let registry = TierRegistry::standard_three();
        let reports = cs.tier_reports(&registry, &BlockMap::new());
        assert_eq!(reports.len(), 2); // Memory (1 medium) + HDD (1 medium)
        let mem = reports.iter().find(|r| r.name == "Memory").unwrap();
        assert!(mem.volatile);
        assert_eq!(mem.stats.num_media, 1);
        assert_eq!(mem.stats.remaining, 800);
    }

    #[test]
    fn heartbeat_from_unknown_worker_errors() {
        let mut cs = state();
        assert!(cs.heartbeat(WorkerId(9), vec![], 0, 0).is_err());
    }
}
