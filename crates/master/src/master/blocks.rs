//! Block lifecycle (add, reassign, abandon, commit) and the
//! worker-facing calls (registration, heartbeat, block report, the failure
//! detector, decommission), with the one placement step every caller
//! shares. A placed location reserves its medium when it enters the block
//! map as pending, and the reservation ends with it there.

use octopus_common::metrics::Labels;
use octopus_common::{
    Block, BlockId, BlockTouches, ClientLocation, DecisionKind, DecisionRound, FsError, GenStamp,
    INodeId, Location, MediaId, MediaStats, RackId, Result, WorkerId,
};
use octopus_policies::{ClusterSnapshot, PlacementRequest};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

use super::monitor::counted_replicas;
use super::{Master, MetaOp, NamespaceState, OpCtx, SAFE_MODE_THRESHOLD};
use crate::blockmap::replication_state;
use crate::cluster::ClusterState;
use crate::editlog::EditOp;
use crate::lease::ClientId;
use crate::namespace::FileMeta;

impl Master {
    /// Registers a worker.
    pub fn register_worker(&self, worker: WorkerId, rack: RackId, net_thru: f64, now_ms: u64) {
        self.cluster.lock().register(worker, rack, net_thru, now_ms);
    }

    /// Processes a heartbeat carrying the worker's drained access-heat
    /// epoch, which [`Master::observe_touches`] folds into per-file heat.
    pub fn heartbeat(
        &self,
        worker: WorkerId,
        media: Vec<MediaStats>,
        nr_conn: u32,
        now_ms: u64,
        touches: &[BlockTouches],
    ) -> Result<()> {
        let ctx = self.op(MetaOp::Heartbeat);
        ctx.finish_with(|| {
            self.advance_clock(now_ms);
            let mut c = ctx.lock(&self.cluster);
            let out = c.heartbeat(worker, media, nr_conn, now_ms);
            self.metrics.inc("master_heartbeats_total", Labels::worker(worker));
            self.update_liveness_gauge(&c);
            out
        })?;
        self.observe_touches(touches, now_ms);
        Ok(())
    }

    /// Folds per-block touch counts into the per-file EWMA heat tracker.
    /// Touches for blocks the master no longer knows (deleted files, stale
    /// workers) are silently dropped. Public so replaying harnesses can
    /// inject synthetic access patterns.
    pub fn observe_touches(&self, touches: &[BlockTouches], now_ms: u64) {
        if touches.is_empty() {
            return;
        }
        let mut per_file: HashMap<INodeId, (u64, u64)> = HashMap::new();
        let blocks = self.blocks.read();
        for t in touches {
            if let Some(info) = blocks.get(t.block) {
                let e = per_file.entry(info.file).or_insert((0, 0));
                e.0 += t.reads as u64;
                e.1 += t.writes as u64;
            }
        }
        drop(blocks);
        let mut heat = self.heat.lock();
        for (file, (reads, writes)) in per_file {
            heat.observe(file, reads, writes, now_ms);
        }
    }

    fn update_liveness_gauge(&self, c: &ClusterState) {
        let live = c.workers().filter(|w| w.live).count() as i64;
        self.metrics.gauge("master_live_workers", Labels::NONE).set(live);
    }

    /// Processes a full block report from a worker: confirms reported
    /// replicas, drops replicas the master believed were on this worker
    /// but were neither reported nor committed since the worker's previous
    /// report (the report is a snapshot taken before it was sent — see
    /// [`crate::BlockMap::apply_report`]), and returns block ids the worker
    /// should delete (blocks unknown to the namespace).
    pub fn block_report(
        &self,
        worker: WorkerId,
        reported: &[(Block, MediaId)],
    ) -> Result<Vec<BlockId>> {
        let ctx = self.op(MetaOp::BlockReport);
        ctx.finish_with(|| {
            // Media the cluster cannot place (a report racing the worker's
            // first heartbeat) are skipped; the next report covers them.
            let located: Vec<(BlockId, Location)> = {
                let c = ctx.lock(&self.cluster);
                reported
                    .iter()
                    .filter_map(|(b, m)| {
                        let (_, tier) = c.locate_media(*m)?;
                        Some((b.id, Location { worker, media: *m, tier }))
                    })
                    .collect()
            };
            let mut blocks = ctx.write(&self.blocks);
            let (invalidate, confirmed) = blocks.apply_report(worker, &located);
            if !confirmed.is_empty() {
                let mut c = ctx.lock(&self.cluster);
                for (media, len) in confirmed {
                    c.complete_write(media, len);
                }
            }
            // Safe mode exits once enough blocks have a confirmed replica.
            if self.safe_mode.load(Ordering::Acquire) {
                let total = blocks.len();
                let available = blocks.iter().filter(|(_, i)| !i.locations.is_empty()).count();
                if total == 0 || available as f64 / total as f64 >= SAFE_MODE_THRESHOLD {
                    self.safe_mode.store(false, Ordering::Release);
                }
            }
            Ok(invalidate)
        })
    }

    /// Advances the master's failure detector; newly dead workers lose all
    /// their replica locations (their blocks become re-replication
    /// candidates on the next scan).
    pub fn tick(&self, now_ms: u64) -> Vec<WorkerId> {
        self.advance_clock(now_ms);
        let dead = self.cluster.lock().tick(now_ms);
        if !dead.is_empty() {
            let mut blocks = self.blocks.write();
            for &w in &dead {
                blocks.remove_worker_replicas(w);
            }
        }
        // Lease recovery: finalize files whose writers disappeared, so
        // their blocks become readable and re-replicable. The expired set
        // is re-read under the write guard — a client may have renewed
        // between the shared-mode probe and here.
        let now = self.now_ms();
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
        self.update_liveness_gauge(&self.cluster.lock());
        dead
    }

    /// Administratively kills a worker (tests, decommissioning).
    pub fn kill_worker(&self, worker: WorkerId) {
        self.cluster.lock().mark_dead(worker);
        self.blocks.write().remove_worker_replicas(worker);
    }

    /// A worker's scrubber found a corrupt replica (§5: "block
    /// corruption"): drop the location, confirmed or pending, so the next
    /// replication scan re-replicates from a healthy copy.
    pub fn report_corrupt(&self, block: BlockId, location: Location) {
        self.blocks.write().remove_replica(block, location.media);
        self.metrics.inc("master_scrub_corrupt_total", Labels::worker(location.worker));
    }

    /// Begins draining a worker: it stops receiving new replicas and its
    /// existing replicas are re-replicated elsewhere by the replication
    /// monitor, while it keeps serving reads (as an HDFS decommission).
    pub fn start_decommission(&self, worker: WorkerId) {
        self.cluster.lock().start_decommission(worker);
    }

    /// Whether every block with a replica on the draining worker is fully
    /// replicated elsewhere (safe to stop the worker).
    pub fn decommission_complete(&self, worker: WorkerId) -> bool {
        let counted = {
            let c = self.cluster.lock();
            if !c.is_decommissioning(worker) {
                return false;
            }
            counted_replicas(&c)
        };
        let g = self.namespace.read();
        let blocks = self.blocks.read();
        let mut hosted =
            blocks.iter().filter(|(_, i)| i.locations.iter().any(|l| l.worker == worker));
        hosted.all(|(_, info)| {
            g.ns.file_meta(info.file).map_or(true, |meta| {
                replication_state(meta.rv, &counted(&info.all_locations())).is_satisfied()
            })
        })
    }

    /// Retires a drained worker: removes it from the cluster entirely.
    pub fn finalize_decommission(&self, worker: WorkerId) {
        self.cluster.lock().clear_decommission(worker);
        self.kill_worker(worker);
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
            let bs = ctx.read(&self.blocks);
            let snap = ctx.lock(&self.cluster).snapshot(&bs);
            drop(bs);
            let (locations, rounds) = self.place_and_locate(Some(&ctx), &snap, &req, |_| true)?;
            // Partial placement is tolerated (the replication monitor tops
            // the block up later) but at least one replica must exist.
            if locations.is_empty() {
                return Err(FsError::PlacementFailed(format!(
                    "no media available for block of {path}"
                )));
            }
            let block = Block {
                id: BlockId(self.block_ids.next()),
                gen: GenStamp(self.gen_stamps.next()),
                len,
            };
            let mut bs = ctx.write(&self.blocks);
            bs.insert(block, file, locations.clone());
            // The namespace append charges the tier quotas; forgetting the
            // block ends its reservations if it trips.
            if let Err(e) = g.ns.add_block(file, block.id, len) {
                bs.remove_block(block.id);
                return Err(e);
            }
            drop(bs);
            let seq = self.log.stage(EditOp::AddBlock {
                path: path.to_string(),
                block: block.id,
                gen: block.gen.0,
                len,
            });
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            let policy = self.placement.name().to_string();
            let chosen = locations.clone();
            self.record(DecisionKind::Placement, block.id, file, policy, chosen, rounds);
            Ok((block, locations))
        })
    }

    /// Settles a written block as its pipeline head reports it: confirms
    /// `stored` in order, then drops each `unreached` location still
    /// pending. Only the confirm that ends a location's pending charges
    /// its medium, so a resend charges nothing twice; a confirmed replica
    /// is never demoted.
    pub fn commit_replicas(
        &self,
        block: Block,
        stored: &[Location],
        unreached: &[Location],
    ) -> Result<()> {
        let ctx = self.op(MetaOp::CommitReplica);
        ctx.finish_with(|| {
            let mut blocks = ctx.write(&self.blocks);
            let mut cluster = ctx.lock(&self.cluster);
            for loc in stored {
                if blocks.confirm(block.id, *loc)? {
                    cluster.complete_write(loc.media, block.len);
                }
            }
            for loc in unreached {
                blocks.abandon_pending(block.id, loc);
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
    /// the meantime (the worker's next block report purges the replica).
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
            ctx.write(&self.blocks).remove_block(block.id);
            let seq = self.log.stage(EditOp::AbandonBlock {
                path: path.to_string(),
                block: block.id,
                len: block.len,
            });
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
    /// Replicas an earlier attempt already committed become surplus and
    /// are invalidated through their owners' block reports (the same
    /// convergence path abandoned blocks use). Placement failure leaves
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
            let bs = ctx.read(&self.blocks);
            let snap = ctx.lock(&self.cluster).snapshot(&bs);
            drop(bs);
            // Place first: a placement failure must leave the old assignment
            // intact (no edit-log entry either way — replica locations are
            // never logged, exactly as in `add_block_excluding`).
            let (locations, rounds) = self.place_and_locate(Some(&ctx), &snap, &req, |_| true)?;
            if locations.is_empty() {
                return Err(FsError::PlacementFailed(format!(
                    "no media available for block of {path}"
                )));
            }
            // The new pipeline replaces the old one and its reservations.
            ctx.write(&self.blocks).insert(block, file, locations.clone());
            let policy = self.placement.name().to_string();
            let chosen = locations.clone();
            self.record(DecisionKind::Reassign, block.id, file, policy, chosen, rounds);
            Ok(locations)
        })
    }

    /// The one placement step: runs the placement policy for `req` on
    /// `snap`, then resolves every chosen medium to its location under one
    /// cluster guard. `accept` may turn the placement down. A client op
    /// (`ctx`) fails on a medium the cluster cannot locate; a scan skips
    /// it. The locations reserve their media once the caller records them
    /// as pending (`BlockMap::insert`, `BlockMap::add_pending`).
    pub(super) fn place_and_locate(
        &self,
        ctx: Option<&OpCtx>,
        snap: &ClusterSnapshot,
        req: &PlacementRequest,
        accept: impl FnOnce(&[MediaId]) -> bool,
    ) -> Result<(Vec<Location>, Vec<DecisionRound>)> {
        let (media, rounds) = self.placement.place_with_audit(snap, req)?;
        if !accept(&media) {
            return Ok((Vec::new(), rounds));
        }
        let c = ctx.map_or_else(|| self.cluster.lock(), |ctx| ctx.lock(&self.cluster));
        let mut located = Vec::with_capacity(media.len());
        for m in media {
            match c.locate_media(m) {
                Some((worker, tier)) => located.push(Location { worker, media: m, tier }),
                None if ctx.is_some() => return Err(FsError::UnknownMedia(m.to_string())),
                None => {}
            }
        }
        Ok((located, rounds))
    }
}
