//! Block lifecycle (add, reassign, abandon, commit) and the
//! worker-facing calls (registration, heartbeat, block report, the failure
//! detector, decommission), with the placement steps of client ops and
//! scans. A placed location reserves its medium when it enters the block
//! map as pending, and the reservation ends with it there.
//!
//! The block map and the workers its replicas sit on share one guard, and
//! one rule joins them: a replica is recorded only on a worker that guard
//! holds live ([`BlockState::confirm`]), and a worker declared dead loses
//! its replicas in the step that declares it ([`BlockState::mark_dead`]).

use octopus_common::lockstat::StatWriteGuard;
use octopus_common::metrics::Labels;
use octopus_common::{
    Block, BlockId, BlockTouches, ClientLocation, DecisionKind, DecisionRound, FsError, GenStamp,
    INodeId, Location, MediaId, MediaStats, RackId, Result, WorkerId,
};
use octopus_policies::{ClusterSnapshot, PlacementRequest};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

use super::monitor::counted_replicas;
use super::{BlockState, Master, MetaOp, NamespaceState, OpCtx};
use crate::blockmap::replication_state;
use crate::cluster::ClusterState;
use crate::editlog::EditOp;
use crate::lease::ClientId;
use crate::namespace::FileMeta;

impl BlockState {
    /// The policy-facing view: live workers' media, less what is reserved
    /// on them.
    pub(super) fn snapshot(&self) -> ClusterSnapshot {
        self.cluster.snapshot(&self.map)
    }

    /// Confirms a replica — a head's commit, a monitor's copy, a block
    /// report, a reinstated delete — only on a worker this guard holds
    /// live; on any other worker it is not recorded. The confirm that ends
    /// a pending location charges its medium's cached `remaining`, so the
    /// view stays right until the next heartbeat.
    fn confirm(&mut self, id: BlockId, loc: Location) -> Result<()> {
        if self.cluster.is_live(loc.worker) && self.map.confirm(id, loc)? {
            let len = self.map.get(id).map_or(0, |info| info.block.len);
            self.cluster.complete_write(loc.media, len);
        }
        Ok(())
    }

    /// Declares `worker` dead and drops its replicas, confirmed and
    /// pending, in the same step.
    fn mark_dead(&mut self, worker: WorkerId) {
        self.cluster.mark_dead(worker);
        self.map.remove_worker_replicas(worker);
    }

    /// Resolves placed media to their locations, dropping any medium no
    /// live worker holds (its worker died since the view was taken).
    fn locate(&self, media: Vec<MediaId>) -> Vec<Location> {
        let at = |m| {
            self.cluster.locate_media(m).map(|(worker, tier)| Location { worker, media: m, tier })
        };
        media.into_iter().filter_map(at).collect()
    }
}

impl Master {
    /// Registers a worker, as heard from at the master's current time.
    pub fn register_worker(&self, worker: WorkerId, rack: RackId, net_thru: f64) {
        self.blocks.write().cluster.register(worker, rack, net_thru, self.now_ms());
    }

    /// Processes a heartbeat carrying the worker's drained access-heat
    /// epoch, which [`Master::observe_touches`] folds into per-file heat.
    pub fn heartbeat(
        &self,
        worker: WorkerId,
        media: Vec<MediaStats>,
        nr_conn: u32,
        touches: &[BlockTouches],
    ) -> Result<()> {
        let ctx = self.op(MetaOp::Heartbeat);
        ctx.finish_with(|| {
            self.metrics.inc("master_heartbeats_total", Labels::worker(worker));
            let mut bs = ctx.write(&self.blocks);
            let out = bs.cluster.heartbeat(worker, media, nr_conn, self.now_ms());
            self.update_liveness_gauge(&bs.cluster);
            out
        })?;
        self.observe_touches(touches);
        Ok(())
    }

    /// Folds per-block touch counts into the per-file EWMA heat tracker at
    /// the master's current time. Touches for blocks the master no longer
    /// knows (deleted files, stale workers) are silently dropped. Public so
    /// replaying harnesses can inject synthetic access patterns.
    pub fn observe_touches(&self, touches: &[BlockTouches]) {
        if touches.is_empty() {
            return;
        }
        let mut per_file: HashMap<INodeId, (u64, u64)> = HashMap::new();
        let blocks = self.blocks.read();
        for t in touches {
            if let Some(info) = blocks.map.get(t.block) {
                let e = per_file.entry(info.file).or_insert((0, 0));
                e.0 += t.reads as u64;
                e.1 += t.writes as u64;
            }
        }
        drop(blocks);
        let mut heat = self.heat.lock();
        for (file, (reads, writes)) in per_file {
            heat.observe(file, reads, writes, self.now_ms());
        }
    }

    fn update_liveness_gauge(&self, c: &ClusterState) {
        let live = c.workers().filter(|w| w.live).count() as i64;
        self.metrics.gauge("master_live_workers", Labels::NONE).set(live);
    }

    /// Processes a full block report from a worker: confirms reported
    /// replicas ([`BlockState::confirm`]), drops replicas the master
    /// believed were on this worker but were neither reported nor
    /// committed since the worker's previous report (the report is a
    /// snapshot taken before it was sent — see
    /// [`crate::BlockMap::apply_report`]), and returns block ids the worker
    /// should delete (blocks unknown to the namespace).
    pub fn block_report(
        &self,
        worker: WorkerId,
        reported: &[(Block, MediaId)],
    ) -> Result<Vec<BlockId>> {
        let ctx = self.op(MetaOp::BlockReport);
        ctx.finish_with(|| {
            let mut bs = ctx.write(&self.blocks);
            let safe = self.safe_mode.load(Ordering::Acquire);
            let unreplicated = |bs: &BlockState, id| bs.map.get(id).map(|i| i.locations.is_empty());
            // Media the cluster cannot place (a report racing the worker's
            // first heartbeat, a worker not live) are skipped; the next
            // report covers them.
            let mut located = Vec::with_capacity(reported.len());
            for (b, m) in reported {
                let Some((_, tier)) = bs.cluster.locate_media(*m) else { continue };
                let loc = Location { worker, media: *m, tier };
                let first = safe && unreplicated(&bs, b.id) == Some(true);
                let _ = bs.confirm(b.id, loc); // an unknown block is the worker's to delete
                if first && unreplicated(&bs, b.id) == Some(false) {
                    bs.awaited.reported(b.id);
                }
                located.push((b.id, loc));
            }
            let invalidate = bs.map.apply_report(worker, &located);
            // Safe mode exits once enough awaited blocks have a replica.
            if safe && bs.awaited.reached() {
                self.safe_mode.store(false, Ordering::Release);
            }
            Ok(invalidate)
        })
    }

    /// Moves the master's clock to `now_ms` (never back; the only way time
    /// reaches it) and runs the failure detector, lease recovery and heat
    /// hygiene. Newly dead workers lose their replicas in the same step.
    pub fn tick(&self, now_ms: u64) -> Vec<WorkerId> {
        let now = self.clock_ms.fetch_max(now_ms, Ordering::AcqRel).max(now_ms);
        let mut bs = self.blocks.write();
        let dead = bs.cluster.tick(now);
        for &w in &dead {
            bs.mark_dead(w);
        }
        self.update_liveness_gauge(&bs.cluster);
        drop(bs);
        // Lease recovery: finalize files whose writers disappeared, so
        // their blocks become readable and re-replicable. The expired set
        // is re-read under the write guard — a client may have renewed
        // between the shared-mode probe and here.
        if !self.namespace.read().leases.expired(now).is_empty() {
            let mut g = self.namespace.write();
            let mut recovered = false;
            for path in g.leases.expired(now) {
                if let Ok(file) = g.ns.resolve(&path) {
                    if g.ns.file_meta(file).is_ok_and(|m| !m.complete) {
                        let _ = g.ns.finalize_file(file);
                        self.log.stage(EditOp::CloseFile { path: path.clone() });
                        recovered = true;
                    }
                }
                g.leases.release(&path);
            }
            drop(g);
            if recovered {
                let _ = self.log.flush();
            }
        }
        // Heat hygiene: drop files whose EWMA has decayed to nothing, so
        // the tracker is bounded by *recently active* files rather than
        // every file ever touched.
        let gc_dropped = self.heat.lock().gc(now);
        if gc_dropped > 0 {
            self.metrics.add("master_heat_gc_dropped_total", Labels::NONE, gc_dropped as u64);
        }
        dead
    }

    /// Administratively declares a worker dead (tests, and the in-process
    /// cluster's downed workers).
    pub fn kill_worker(&self, worker: WorkerId) {
        self.blocks.write().mark_dead(worker);
    }

    /// A worker's scrubber found a corrupt replica (§5: "block
    /// corruption"): drop the location, confirmed or pending, so the next
    /// replication scan re-replicates from a healthy copy.
    pub fn report_corrupt(&self, block: BlockId, location: Location) {
        self.blocks.write().map.remove_replica(block, location.media);
        self.metrics.inc("master_scrub_corrupt_total", Labels::worker(location.worker));
    }

    /// Begins draining a worker: it stops receiving new replicas and its
    /// existing replicas are re-replicated elsewhere by the replication
    /// monitor, while it keeps serving reads (as an HDFS decommission).
    pub fn start_decommission(&self, worker: WorkerId) {
        self.blocks.write().cluster.start_decommission(worker);
    }

    /// Whether every block with a replica on the draining worker is fully
    /// replicated elsewhere (safe to stop the worker).
    pub fn decommission_complete(&self, worker: WorkerId) -> bool {
        let g = self.namespace.read();
        let bs = self.blocks.read();
        if !bs.cluster.is_decommissioning(worker) {
            return false;
        }
        let counted = counted_replicas(&bs.cluster);
        let mut hosted =
            bs.map.iter().filter(|(_, i)| i.locations.iter().any(|l| l.worker == worker));
        hosted.all(|(_, info)| {
            g.ns.file_meta(info.file).map_or(true, |meta| {
                replication_state(meta.rv, &counted(&info.all_locations())).is_satisfied()
            })
        })
    }

    /// Retires a drained worker: removes it from the cluster entirely.
    pub fn finalize_decommission(&self, worker: WorkerId) {
        let mut bs = self.blocks.write();
        bs.cluster.clear_decommission(worker);
        bs.mark_dead(worker);
    }

    /// The open file at `path` that `holder` writes (see
    /// [`Master::leased`]), with its meta.
    fn open_for_write<'g>(
        &self,
        g: &'g mut NamespaceState,
        path: &str,
        holder: ClientId,
    ) -> Result<(INodeId, &'g FileMeta)> {
        let (file, _) = self.leased(g, path, holder)?;
        let meta = g.ns.file_meta(file)?;
        if meta.complete {
            return Err(FsError::InvalidArgument(format!("{path} is not open for writing")));
        }
        Ok((file, meta))
    }

    /// Allocates the next block of an open file on behalf of `holder`,
    /// which must hold (or be granted) the file's lease, which this renews:
    /// runs the placement policy and returns the block plus the pipeline
    /// locations, first-to-write first (§3.1). `excluded` workers are left
    /// out of placement — the client-side pipeline recovery of §3.1: after
    /// a stage failure the client abandons the block and re-requests
    /// placement without the workers its failed attempts already hit.
    pub fn add_block_excluding(
        &self,
        path: &str,
        len: u64,
        client: ClientLocation,
        holder: ClientId,
        excluded: &[WorkerId],
    ) -> Result<(Block, Vec<Location>)> {
        let ctx = self.op(MetaOp::AddBlock);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let (file, meta) = self.open_for_write(&mut g, path, holder)?;
            if len == 0 || len > meta.block_size {
                return Err(FsError::InvalidArgument(format!(
                    "block length {len} not in (0, {}]",
                    meta.block_size
                )));
            }
            let mut req = PlacementRequest::from_vector(meta.rv, len, client);
            req.excluded_workers = excluded.to_vec();
            let (mut bs, locations, rounds) = self.place_pipeline(&ctx, &req, path)?;
            let block = Block {
                id: BlockId(self.block_ids.next()),
                gen: GenStamp(self.gen_stamps.next()),
                len,
            };
            bs.map.insert(block, file, locations.clone());
            // The namespace append charges the tier quotas; forgetting the
            // block ends its reservations if it trips.
            if let Err(e) = g.ns.add_block(file, block.id, len) {
                bs.map.remove_block(block.id);
                return Err(e);
            }
            drop(bs);
            let seq = self.log.stage(EditOp::add_block(path.to_string(), block));
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            let policy = self.placement.name();
            self.record(DecisionKind::Placement, block.id, file, policy, &locations, &rounds);
            Ok((block, locations))
        })
    }

    /// Settles a written block as its pipeline head reports it: confirms
    /// `stored` in order (on live workers only, [`BlockState::confirm`]),
    /// then drops each `unreached` location still pending. Only the
    /// confirm that ends a location's pending charges its medium, so a
    /// resend charges nothing twice; a confirmed replica is never demoted.
    pub fn commit_replicas(
        &self,
        block: Block,
        stored: &[Location],
        unreached: &[Location],
    ) -> Result<()> {
        let ctx = self.op(MetaOp::CommitReplica);
        ctx.finish_with(|| {
            let mut bs = ctx.write(&self.blocks);
            for loc in stored {
                bs.confirm(block.id, *loc)?;
            }
            for loc in unreached {
                bs.map.abandon_pending(block.id, loc);
            }
            Ok(())
        })
    }

    /// Confirms one replica: [`Master::commit_replicas`] of `loc` alone.
    pub fn commit_replica(&self, block: Block, loc: Location) -> Result<()> {
        self.commit_replicas(block, &[loc], &[])
    }

    /// Re-records a replica the replication monitor failed to delete: the
    /// scan already dropped it from the block map, but the `DeleteBlock`
    /// RPC never executed, so the bytes still exist on the worker. Putting
    /// the location back keeps the block visibly over-replicated and the
    /// next scan re-issues the delete (§5). No capacity adjustment: the
    /// replica never left the medium. A no-op if the block was deleted in
    /// the meantime (the worker's next block report purges the replica),
    /// or if the worker was declared dead (its replicas went with it).
    pub fn reinstate_replica(&self, block: Block, loc: Location) {
        let _ = self.blocks.write().confirm(block.id, loc);
    }

    /// Abandons an allocated block whose pipeline never stored a replica:
    /// reverses the namespace append (refunding quota) and drops the block,
    /// with its pending reservations, from the block map.
    /// Replicas that *did* commit before the failure become unknown blocks
    /// and are invalidated through their owners' next block reports.
    pub fn abandon_block_as(&self, path: &str, block: Block, holder: ClientId) -> Result<()> {
        let ctx = self.op(MetaOp::AbandonBlock);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let (file, _) = self.leased(&mut g, path, holder)?;
            g.ns.remove_last_block(file, block.id, block.len)?;
            ctx.write(&self.blocks).map.remove_block(block.id);
            let seq = self.log.stage(EditOp::abandon_block(path.to_string(), block.id, block.len));
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// Re-places an already-allocated block onto a fresh pipeline, keeping
    /// its file slot.
    ///
    /// # Block-ordering invariant
    ///
    /// A file's byte layout is exactly the order of `AddBlock` calls: the
    /// namespace appends each block to `meta.blocks`, and
    /// [`Master::get_file_block_locations`] derives offsets by walking that
    /// list in order. Parallel clients therefore *serialize* `AddBlock`
    /// (issuing them in offset order) while parallelizing the transfers,
    /// and a failed transfer must not abandon a mid-file block —
    /// `Namespace::remove_last_block` deliberately rejects that, because
    /// re-adding would move the block to the end and scramble the file.
    /// `ReassignBlock` is the recovery path that preserves the slot: the
    /// block keeps its id, generation, length, and position in
    /// `meta.blocks`; only its replica placement is replaced.
    ///
    /// Replicas an earlier attempt already committed stay confirmed, as
    /// surplus the replication monitor trims (§5): their media hold the
    /// block and were charged for it, so a new pipeline through one
    /// neither reserves nor charges it again. Placement failure leaves
    /// the old assignment untouched, so the caller can retry or give up
    /// without losing state.
    pub fn reassign_block_as(
        &self,
        path: &str,
        block: Block,
        client: ClientLocation,
        holder: ClientId,
        excluded: &[WorkerId],
    ) -> Result<Vec<Location>> {
        let ctx = self.op(MetaOp::ReassignBlock);
        ctx.finish_with(|| {
            self.check_writable()?;
            // The namespace write guard pins the file meta (no concurrent
            // abandon or complete) even though the namespace does not change.
            let mut g = ctx.write(&self.namespace);
            let (file, meta) = self.open_for_write(&mut g, path, holder)?;
            if !meta.blocks.iter().any(|&(id, _)| id == block.id) {
                return Err(FsError::InvalidArgument(format!(
                    "block {} is not part of {path}",
                    block.id
                )));
            }
            let mut req = PlacementRequest::from_vector(meta.rv, block.len, client);
            req.excluded_workers = excluded.to_vec();
            // Place first: a placement failure must leave the old assignment
            // intact (no edit-log entry either way — replica locations are
            // never logged, exactly as in `add_block_excluding`).
            let (mut bs, locations, rounds) = self.place_pipeline(&ctx, &req, path)?;
            // The new pipeline replaces the old one and its reservations;
            // the committed replicas stay.
            let held = bs.map.get(block.id).map(|i| i.locations.clone()).unwrap_or_default();
            let fresh = locations.iter().filter(|l| !held.contains(l)).copied().collect();
            bs.map.insert(block, file, fresh);
            for loc in held {
                bs.confirm(block.id, loc)?;
            }
            let policy = self.placement.name();
            self.record(DecisionKind::Reassign, block.id, file, policy, &locations, &rounds);
            Ok(locations)
        })
    }

    /// A client op's placement: the policy runs on a view read under a
    /// shared guard released before the solve, so commits never wait on
    /// it; the chosen media are then located under the write guard
    /// returned with them, which the caller records the pipeline under.
    /// A partial placement is tolerated (the monitor tops it up), an empty
    /// one fails the op.
    fn place_pipeline<'m>(
        &'m self,
        ctx: &OpCtx,
        req: &PlacementRequest,
        path: &str,
    ) -> Result<(StatWriteGuard<'m, BlockState>, Vec<Location>, Vec<DecisionRound>)> {
        let snap = ctx.read(&self.blocks).snapshot();
        let (media, rounds) = self.placement.place_with_audit(&snap, req)?;
        let bs = ctx.write(&self.blocks);
        let located = bs.locate(media);
        if located.is_empty() {
            let msg = format!("no media available for block of {path}");
            return Err(FsError::PlacementFailed(msg));
        }
        Ok((bs, located, rounds))
    }

    /// A scan's placement, under the guard the scan already holds: runs
    /// the placement policy for `req` on `snap`, lets `accept` turn it
    /// down, and locates the chosen media, which reserve themselves once
    /// the scan records them as pending (`BlockMap::add_pending`).
    pub(super) fn place_and_locate(
        &self,
        bs: &BlockState,
        snap: &ClusterSnapshot,
        req: &PlacementRequest,
        accept: impl FnOnce(&[MediaId]) -> bool,
    ) -> Result<(Vec<Location>, Vec<DecisionRound>)> {
        let (media, rounds) = self.placement.place_with_audit(snap, req)?;
        if !accept(&media) {
            return Ok((Vec::new(), rounds));
        }
        Ok((bs.locate(media), rounds))
    }
}
