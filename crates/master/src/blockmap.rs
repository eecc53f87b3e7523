//! The block → replica-locations map and per-tier replication accounting.
//!
//! The master tracks, for every block, the confirmed replica locations
//! (reported by workers) and the pending ones (scheduled into a write
//! pipeline or a re-replication task but not yet acknowledged). A pending
//! location is its medium's write reservation: the map keeps each medium's
//! reserved bytes, which change only where a pending location is added or
//! ends, so no caller can end one without its reservation. The master
//! confirms a replica only on a worker its [`crate::ClusterState`], under
//! the same guard, holds live. [`replication_state`] computes per-tier
//! deficits and surpluses against a file's replication vector (§5).

use std::collections::{HashMap, HashSet};

use octopus_common::{
    Block, BlockId, FsError, INodeId, Location, MediaId, ReplicationVector, Result, TierId,
    WorkerId, MAX_TIERS,
};

/// Master-side state of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block identity.
    pub block: Block,
    /// Owning file.
    pub file: INodeId,
    /// Confirmed replicas.
    pub locations: Vec<Location>,
    /// Scheduled-but-unconfirmed replicas.
    pub pending: Vec<Location>,
}

impl BlockInfo {
    /// Confirmed + pending locations (used when deciding whether more
    /// replicas must be scheduled).
    pub fn all_locations(&self) -> Vec<Location> {
        let mut v = self.locations.clone();
        v.extend_from_slice(&self.pending);
        v
    }

    /// Ends every pending location `ends` picks, releasing its
    /// reservation: the one place a pending location ends. Returns
    /// whether any did.
    fn end_pending(&mut self, reserved: &mut Reserved, ends: impl Fn(&Location) -> bool) -> bool {
        let (before, len) = (self.pending.len(), self.block.len);
        self.pending.retain(|l| {
            let ended = ends(l);
            if ended {
                let v = reserved.entry(l.media).or_default();
                debug_assert!(*v >= len, "{} releases {len} B of {v} B reserved", l.media);
                *v = v.saturating_sub(len);
            }
            !ended
        });
        self.pending.len() != before
    }
}

/// Per medium, the bytes its pending locations will take (§3.2: placement
/// sees a medium's heartbeated `remaining` less these).
type Reserved = HashMap<MediaId, u64>;

fn reserve(reserved: &mut Reserved, locs: &[Location], len: u64) {
    for l in locs {
        *reserved.entry(l.media).or_default() += len;
    }
}

/// The map of all blocks.
#[derive(Debug, Default)]
pub struct BlockMap {
    blocks: HashMap<BlockId, BlockInfo>,
    /// Per worker, the replicas confirmed since that worker's last full
    /// block report was applied. A report is a snapshot taken on the
    /// worker: a replica that commits after the snapshot is absent from
    /// it, and [`BlockMap::apply_report`] must not take it for lost.
    fresh: HashMap<WorkerId, HashSet<(BlockId, MediaId)>>,
    reserved: Reserved,
}

impl BlockMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a block with its scheduled pipeline locations, replacing
    /// (as [`BlockMap::remove_block`] does) any earlier placement of it.
    pub fn insert(&mut self, block: Block, file: INodeId, pending: Vec<Location>) {
        self.remove_block(block.id);
        reserve(&mut self.reserved, &pending, block.len);
        self.blocks.insert(block.id, BlockInfo { block, file, locations: Vec::new(), pending });
    }

    /// Looks up a block.
    pub fn get(&self, id: BlockId) -> Option<&BlockInfo> {
        self.blocks.get(&id)
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Bytes reserved on `media`: the length of every block pending there.
    pub fn reserved(&self, media: MediaId) -> u64 {
        self.reserved.get(&media).copied().unwrap_or(0)
    }

    /// Bytes reserved across every medium (the in-flight write volume).
    pub fn total_reserved(&self) -> u64 {
        self.reserved.values().sum()
    }

    /// Marks a replica confirmed (moves it from pending, or records it
    /// outright), and remembers it as newer than its worker's last report.
    /// Returns whether the location was pending — whether this confirm,
    /// and no other, lands the block's bytes on the medium.
    pub fn confirm(&mut self, id: BlockId, loc: Location) -> Result<bool> {
        let Some(info) = self.blocks.get_mut(&id) else {
            return Err(FsError::Internal(format!("confirm of unknown block {id}")));
        };
        let was_pending = info.end_pending(&mut self.reserved, |l| *l == loc);
        if !info.locations.contains(&loc) {
            info.locations.push(loc);
        }
        self.fresh.entry(loc.worker).or_default().insert((id, loc.media));
        Ok(was_pending)
    }

    /// Applies a full block report from `worker`, whose replicas the caller
    /// has just confirmed: drops its locations not confirmed since its
    /// previous report, so a lost replica goes at the latest one report
    /// after its commit. Returns the reported blocks the map does not
    /// know; the worker should delete those.
    pub fn apply_report(
        &mut self,
        worker: WorkerId,
        reported: &[(BlockId, Location)],
    ) -> Vec<BlockId> {
        let fresh = self.fresh.remove(&worker).unwrap_or_default();
        for (id, info) in &mut self.blocks {
            info.locations.retain(|l| l.worker != worker || fresh.contains(&(*id, l.media)));
        }
        reported.iter().map(|&(id, _)| id).filter(|id| !self.blocks.contains_key(id)).collect()
    }

    /// Drops a pending replica that will never be written (an unreached
    /// pipeline stage, a failed copy). A location no longer pending — a
    /// repeated drop, a confirmed replica — is left alone.
    pub fn abandon_pending(&mut self, id: BlockId, loc: &Location) {
        if let Some(info) = self.blocks.get_mut(&id) {
            info.end_pending(&mut self.reserved, |l| l == loc);
        }
    }

    /// Adds pending replicas (re-replication tasks).
    pub fn add_pending(&mut self, id: BlockId, locs: &[Location]) -> Result<()> {
        let info = self
            .blocks
            .get_mut(&id)
            .ok_or_else(|| FsError::Internal(format!("add_pending on unknown block {id}")))?;
        reserve(&mut self.reserved, locs, info.block.len);
        info.pending.extend_from_slice(locs);
        Ok(())
    }

    /// Removes a block's replica on `media`, confirmed or pending
    /// (invalidation, a corrupt replica).
    pub fn remove_replica(&mut self, id: BlockId, media: MediaId) {
        if let Some(info) = self.blocks.get_mut(&id) {
            info.locations.retain(|l| l.media != media);
            info.end_pending(&mut self.reserved, |l| l.media == media);
        }
    }

    /// Forgets a block entirely (file deletion, an abandoned block).
    /// Returns its last state.
    pub fn remove_block(&mut self, id: BlockId) -> Option<BlockInfo> {
        let mut info = self.blocks.remove(&id)?;
        info.end_pending(&mut self.reserved, |_| true);
        // Keeps `fresh` bounded by live replicas even for a worker that
        // never sends a full report (the in-process cluster).
        for l in &info.locations {
            if let Some(f) = self.fresh.get_mut(&l.worker) {
                f.remove(&(id, l.media));
            }
        }
        Some(info)
    }

    /// Drops every replica, confirmed or pending, hosted by a dead worker;
    /// returns the ids of blocks that lost one (re-replication candidates).
    pub fn remove_worker_replicas(&mut self, worker: WorkerId) -> Vec<BlockId> {
        let mut affected = Vec::new();
        for (id, info) in self.blocks.iter_mut() {
            let before = info.locations.len();
            info.locations.retain(|l| l.worker != worker);
            let ended = info.end_pending(&mut self.reserved, |l| l.worker == worker);
            if ended || info.locations.len() != before {
                affected.push(*id);
            }
        }
        affected.sort_unstable();
        affected
    }

    /// Iterates `(id, info)`.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &BlockInfo)> {
        self.blocks.iter()
    }
}

/// Per-tier replication deficit/surplus of one block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepState {
    /// Tiers (with counts) missing *pinned* replicas.
    pub under_pinned: Vec<(TierId, u8)>,
    /// Number of missing *unspecified* replicas.
    pub under_unspecified: u8,
    /// Tiers (with counts) holding more replicas than requested beyond
    /// what the unspecified budget absorbs.
    pub over: Vec<(TierId, u8)>,
}

impl RepState {
    /// Whether the block is exactly replicated.
    pub fn is_satisfied(&self) -> bool {
        self.under_pinned.is_empty() && self.under_unspecified == 0 && self.over.is_empty()
    }

    /// Total missing replicas.
    pub fn total_under(&self) -> u32 {
        self.under_pinned.iter().map(|&(_, c)| c as u32).sum::<u32>()
            + self.under_unspecified as u32
    }
}

/// Compares a block's replica locations against its file's replication
/// vector. Pinned tier counts must be met tier-by-tier; surplus replicas on
/// any tier count toward the unspecified budget; anything beyond that is
/// over-replication charged to the tiers with the largest surplus.
pub fn replication_state(rv: ReplicationVector, locations: &[Location]) -> RepState {
    let mut have = [0u16; MAX_TIERS];
    for l in locations {
        if (l.tier.0 as usize) < MAX_TIERS {
            have[l.tier.0 as usize] += 1;
        }
    }
    let mut under_pinned = Vec::new();
    let mut surplus = [0u16; MAX_TIERS];
    for t in 0..MAX_TIERS {
        let need = rv.tier(TierId(t as u8)) as u16;
        if have[t] < need {
            under_pinned.push((TierId(t as u8), (need - have[t]) as u8));
        } else {
            surplus[t] = have[t] - need;
        }
    }
    let u = rv.unspecified() as u16;
    let surplus_total: u16 = surplus.iter().sum();
    let under_unspecified = u.saturating_sub(surplus_total) as u8;

    let mut over = Vec::new();
    let mut excess = surplus_total.saturating_sub(u);
    if excess > 0 {
        // Charge the excess to the tiers with the largest surplus first.
        let mut order: Vec<usize> = (0..MAX_TIERS).filter(|&t| surplus[t] > 0).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(surplus[t]));
        for t in order {
            if excess == 0 {
                break;
            }
            let take = surplus[t].min(excess);
            over.push((TierId(t as u8), take as u8));
            excess -= take;
        }
    }
    RepState { under_pinned, under_unspecified, over }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::GenStamp;

    fn loc(worker: u32, media: u32, tier: u8) -> Location {
        Location { worker: WorkerId(worker), media: MediaId(media), tier: TierId(tier) }
    }

    fn blk(id: u64) -> Block {
        Block { id: BlockId(id), gen: GenStamp(0), len: 128 }
    }

    #[test]
    fn insert_confirm_lifecycle() {
        let mut bm = BlockMap::new();
        let pipeline = vec![loc(0, 0, 0), loc(1, 5, 2), loc(2, 10, 2)];
        bm.insert(blk(1), INodeId(9), pipeline.clone());
        assert_eq!(bm.get(BlockId(1)).unwrap().pending.len(), 3);
        assert!(bm.confirm(BlockId(1), pipeline[0]).unwrap());
        assert!(bm.confirm(BlockId(1), pipeline[1]).unwrap());
        let info = bm.get(BlockId(1)).unwrap();
        assert_eq!(info.locations.len(), 2);
        assert_eq!(info.pending.len(), 1);
        assert_eq!(info.all_locations().len(), 3);
        // Confirming again is idempotent, and was not pending this time.
        assert!(!bm.confirm(BlockId(1), pipeline[0]).unwrap());
        assert_eq!(bm.get(BlockId(1)).unwrap().locations.len(), 2);
        // Confirming an unknown block errors.
        assert!(bm.confirm(BlockId(2), pipeline[0]).is_err());
    }

    #[test]
    fn abandon_and_remove() {
        let mut bm = BlockMap::new();
        let pipeline = vec![loc(0, 0, 0), loc(1, 5, 2)];
        bm.insert(blk(1), INodeId(1), pipeline.clone());
        bm.abandon_pending(BlockId(1), &pipeline[1]);
        assert_eq!(bm.reserved(MediaId(5)), 0);
        // Idempotent: already removed, so nothing to release twice.
        bm.abandon_pending(BlockId(1), &pipeline[1]);
        bm.abandon_pending(BlockId(9), &pipeline[1]);
        assert_eq!(bm.get(BlockId(1)).unwrap().pending, vec![pipeline[0]]);
        assert_eq!(bm.total_reserved(), 128);
        bm.confirm(BlockId(1), pipeline[0]).unwrap();
        bm.remove_replica(BlockId(1), MediaId(0));
        assert!(bm.get(BlockId(1)).unwrap().locations.is_empty());
        assert!(bm.remove_block(BlockId(1)).is_some());
        assert!(bm.get(BlockId(1)).is_none());
    }

    /// Every way a pending location ends releases exactly its block's
    /// length on its medium, and only once.
    #[test]
    fn a_reservation_ends_with_its_pending_location() {
        let mut bm = BlockMap::new();
        let (a, b, c) = (loc(0, 0, 0), loc(1, 5, 2), loc(2, 10, 2));
        bm.insert(blk(1), INodeId(1), vec![a, b, c]);
        bm.insert(blk(2), INodeId(1), vec![b]);
        bm.add_pending(BlockId(2), &[c]).unwrap();
        let reserved = |bm: &BlockMap| [0, 5, 10].map(|m| bm.reserved(MediaId(m)));
        assert_eq!(reserved(&bm), [128, 256, 256]);
        assert!(bm.confirm(BlockId(1), a).unwrap());
        assert_eq!(reserved(&bm), [0, 256, 256]);
        bm.remove_worker_replicas(WorkerId(1));
        assert_eq!(reserved(&bm), [0, 0, 256]);
        bm.remove_replica(BlockId(1), MediaId(10));
        assert_eq!(reserved(&bm), [0, 0, 128]);
        // A reported replica that was pending ends its pending; one whose
        // pending already ended is recorded and releases nothing.
        assert_eq!(report(&mut bm, WorkerId(2), &[(BlockId(2), c), (BlockId(1), c)]), []);
        assert_eq!(bm.get(BlockId(1)).unwrap().locations, vec![a, c]);
        assert_eq!(bm.total_reserved(), 0);
        // Re-placing a block and forgetting it give its pipeline back.
        bm.insert(blk(2), INodeId(1), vec![a]);
        bm.insert(blk(2), INodeId(1), vec![b]);
        assert_eq!(reserved(&bm), [0, 128, 0]);
        bm.remove_block(BlockId(2));
        assert_eq!(bm.total_reserved(), 0);
    }

    /// A block report as the master applies one: every reported replica
    /// confirmed, then the report swept in.
    fn report(
        bm: &mut BlockMap,
        worker: WorkerId,
        reported: &[(BlockId, Location)],
    ) -> Vec<BlockId> {
        for &(id, at) in reported {
            let _ = bm.confirm(id, at);
        }
        bm.apply_report(worker, reported)
    }

    #[test]
    fn report_keeps_replicas_newer_than_its_snapshot() {
        let mut bm = BlockMap::new();
        let (old, new) = (loc(0, 0, 2), loc(0, 1, 1));
        bm.insert(blk(1), INodeId(1), vec![]);
        bm.insert(blk(2), INodeId(1), vec![]);
        bm.confirm(BlockId(1), old).unwrap();
        assert_eq!(report(&mut bm, WorkerId(0), &[(BlockId(1), old)]), []);
        // Block 2 commits after the worker snapshotted its next report:
        // the stale report must not drop it, nor touch other workers.
        bm.confirm(BlockId(2), new).unwrap();
        bm.confirm(BlockId(2), loc(1, 5, 2)).unwrap();
        let unknown = report(&mut bm, WorkerId(0), &[(BlockId(1), old), (BlockId(9), old)]);
        assert_eq!(unknown, vec![BlockId(9)]);
        assert_eq!(bm.get(BlockId(2)).unwrap().locations, vec![new, loc(1, 5, 2)]);
        // One report later the grace is over: unreported means lost.
        report(&mut bm, WorkerId(0), &[(BlockId(1), old)]);
        assert_eq!(bm.get(BlockId(2)).unwrap().locations, vec![loc(1, 5, 2)]);
        assert_eq!(bm.get(BlockId(1)).unwrap().locations, vec![old]);
    }

    #[test]
    fn dead_worker_sweep() {
        let mut bm = BlockMap::new();
        bm.insert(blk(1), INodeId(1), vec![]);
        bm.confirm(BlockId(1), loc(0, 0, 2)).unwrap();
        bm.confirm(BlockId(1), loc(1, 5, 2)).unwrap();
        bm.insert(blk(2), INodeId(1), vec![]);
        bm.confirm(BlockId(2), loc(2, 9, 2)).unwrap();
        let affected = bm.remove_worker_replicas(WorkerId(1));
        assert_eq!(affected, vec![BlockId(1)]);
        assert_eq!(bm.get(BlockId(1)).unwrap().locations.len(), 1);
        assert_eq!(bm.get(BlockId(2)).unwrap().locations.len(), 1);
    }

    #[test]
    fn replication_state_satisfied() {
        // ⟨1,0,2⟩: one memory + two HDD.
        let rv = ReplicationVector::msh(1, 0, 2);
        let locs = vec![loc(0, 0, 0), loc(1, 5, 2), loc(2, 10, 2)];
        assert!(replication_state(rv, &locs).is_satisfied());
    }

    #[test]
    fn replication_state_under_pinned() {
        let rv = ReplicationVector::msh(1, 0, 2);
        let locs = vec![loc(1, 5, 2), loc(2, 10, 2)]; // memory replica lost
        let st = replication_state(rv, &locs);
        assert_eq!(st.under_pinned, vec![(TierId(0), 1)]);
        assert_eq!(st.under_unspecified, 0);
        assert!(st.over.is_empty());
        assert_eq!(st.total_under(), 1);
    }

    #[test]
    fn replication_state_unspecified_absorbs_any_tier() {
        // U=3 satisfied by replicas on mixed tiers.
        let rv = ReplicationVector::from_replication_factor(3);
        let locs = vec![loc(0, 0, 0), loc(1, 5, 1), loc(2, 10, 2)];
        assert!(replication_state(rv, &locs).is_satisfied());
        // Only two present → one unspecified missing.
        let st = replication_state(rv, &locs[..2]);
        assert_eq!(st.under_unspecified, 1);
        assert!(st.under_pinned.is_empty());
    }

    #[test]
    fn replication_state_over() {
        // ⟨0,0,2⟩ with three HDD replicas → one over on HDD.
        let rv = ReplicationVector::msh(0, 0, 2);
        let locs = vec![loc(0, 2, 2), loc(1, 7, 2), loc(2, 12, 2)];
        let st = replication_state(rv, &locs);
        assert_eq!(st.over, vec![(TierId(2), 1)]);
        assert!(st.under_pinned.is_empty());
    }

    #[test]
    fn replication_state_mixed_move_scenario() {
        // Paper's move: vector changed ⟨1,0,2⟩ → ⟨1,1,1⟩ while replicas are
        // still at ⟨1,0,2⟩: SSD is under by 1, HDD over by 1.
        let rv = ReplicationVector::msh(1, 1, 1);
        let locs = vec![loc(0, 0, 0), loc(1, 7, 2), loc(2, 12, 2)];
        let st = replication_state(rv, &locs);
        assert_eq!(st.under_pinned, vec![(TierId(1), 1)]);
        assert_eq!(st.over, vec![(TierId(2), 1)]);
    }

    #[test]
    fn replication_state_surplus_beyond_unspecified() {
        // ⟨0,0,1⟩ + U=1, but four replicas: 1 pinned HDD + 1 absorbed by U,
        // 2 over (charged to the largest-surplus tiers).
        let rv = ReplicationVector::msh(0, 0, 1).with_unspecified(1);
        let locs = vec![loc(0, 2, 2), loc(1, 7, 2), loc(2, 12, 1), loc(3, 17, 1)];
        let st = replication_state(rv, &locs);
        let total_over: u32 = st.over.iter().map(|&(_, c)| c as u32).sum();
        assert_eq!(total_over, 2);
        assert!(!st.is_satisfied());
    }
}
