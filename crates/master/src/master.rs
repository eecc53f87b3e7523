//! The [`Master`] facade: the client-facing namespace/block API (Table 1),
//! heartbeat and block-report processing, and the replication monitor (§5).
//!
//! # Concurrency (DESIGN.md §11)
//!
//! One [`Namespace`] behind one lock (`master.namespace`) and one
//! [`BlockMap`] behind another (`master.blocks`) — kept apart so the three
//! `CommitReplica`s a worker pipeline sends per block never touch the
//! namespace lock. Lock order: namespace → blocks → cluster; the heat
//! tracker and the audit ring are leaves. Durability is
//! group-committed: a mutation stages its [`EditOp`] under the namespace
//! guard (so log order is the linearization order) and waits for the
//! batched fsync after releasing it, so the disk sync never serializes
//! the namespace.

use octopus_common::lockstat::{
    LockStats, StatMutex, StatMutexGuard, StatReadGuard, StatRwLock, StatWriteGuard,
};
use octopus_common::metrics::{BucketLayout, Counter, Histogram, Labels, MetricsRegistry};
use octopus_common::trace::TraceCollector;
use octopus_common::{
    AuditRing, Block, BlockId, BlockTouches, ClientLocation, ClusterConfig, ClusterStatusReport,
    DecisionEvent, DecisionKind, DecisionRound, FsError, GenStamp, HeatInfo, HeatTracker, HotFile,
    INodeId, IdGenerator, LocatedBlock, Location, MediaId, MediaStats, RackId, ReplicationVector,
    Result, StorageTier, StorageTierReport, TierId, WorkerId, WorkerStatusLine, MAX_TIERS,
};
use octopus_policies::{
    build_placement_policy, build_retrieval_policy, choose_replica_to_remove_explained,
    PlacementPolicy, PlacementRequest, RetrievalPolicy, Temperature, TierClassifier,
};

use crate::autotier::{AutoTierConfig, MigrationDecision, MigrationDirection};
use crate::blockmap::{replication_state, BlockMap};
use crate::cluster::ClusterState;
use crate::editlog::{decode_stream, encode_image, BlockChange, EditLog, EditOp, GroupCommitLog};
use crate::lease::{ClientId, LeaseManager};
use crate::mount::{ExternalCatalog, MountTable};
use crate::namespace::{normalize, Cursor, DirEntry, FileMeta, FileStatus, Namespace, TierQuota};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fraction of known blocks that must have at least one confirmed replica
/// before a restarted master leaves safe mode automatically.
const SAFE_MODE_THRESHOLD: f64 = 0.999;

/// How long a client write lease lives without renewal, in heartbeat
/// intervals (client operations renew implicitly).
const LEASE_HEARTBEATS: u64 = 20;

/// A data-movement instruction produced by the replication monitor and
/// executed by workers (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationTask {
    /// Copy the block from one of `sources` (ordered best-first by the
    /// retrieval policy) to `target`.
    Copy {
        /// The block to copy.
        block: Block,
        /// Candidate source replicas, best first.
        sources: Vec<Location>,
        /// Destination medium.
        target: Location,
    },
    /// Delete the replica at `location`.
    Delete {
        /// The block to trim.
        block: Block,
        /// The replica to remove.
        location: Location,
    },
}

/// Resolves placement output to full locations under one cluster guard.
fn locate_all(c: &ClusterState, media: &[MediaId]) -> Result<Vec<Location>> {
    media
        .iter()
        .map(|&m| {
            let (worker, tier) =
                c.locate_media(m).ok_or_else(|| FsError::UnknownMedia(m.to_string()))?;
            Ok(Location { worker, media: m, tier })
        })
        .collect()
}

/// The metadata operations the master profiles individually. Every public
/// metadata entry point maps to one of these; its latency lands in
/// `master_meta_op_us{op=…}` split into lock-wait / work / edit-log
/// segments (the contention observatory, DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaOp {
    Mkdir,
    Create,
    AddBlock,
    ReassignBlock,
    AbandonBlock,
    CommitReplica,
    AbortReplica,
    Append,
    Complete,
    Locations,
    Stat,
    List,
    SetReplication,
    Rename,
    Delete,
    SetQuota,
    Heartbeat,
    BlockReport,
}

impl MetaOp {
    const ALL: [MetaOp; 18] = [
        MetaOp::Mkdir,
        MetaOp::Create,
        MetaOp::AddBlock,
        MetaOp::ReassignBlock,
        MetaOp::AbandonBlock,
        MetaOp::CommitReplica,
        MetaOp::AbortReplica,
        MetaOp::Append,
        MetaOp::Complete,
        MetaOp::Locations,
        MetaOp::Stat,
        MetaOp::List,
        MetaOp::SetReplication,
        MetaOp::Rename,
        MetaOp::Delete,
        MetaOp::SetQuota,
        MetaOp::Heartbeat,
        MetaOp::BlockReport,
    ];

    fn label(self) -> &'static str {
        match self {
            MetaOp::Mkdir => "mkdir",
            MetaOp::Create => "create",
            MetaOp::AddBlock => "add_block",
            MetaOp::ReassignBlock => "reassign_block",
            MetaOp::AbandonBlock => "abandon_block",
            MetaOp::CommitReplica => "commit_replica",
            MetaOp::AbortReplica => "abort_replica",
            MetaOp::Append => "append",
            MetaOp::Complete => "complete",
            MetaOp::Locations => "get_block_locations",
            MetaOp::Stat => "stat",
            MetaOp::List => "list",
            MetaOp::SetReplication => "set_replication",
            MetaOp::Rename => "rename",
            MetaOp::Delete => "delete",
            MetaOp::SetQuota => "set_quota",
            MetaOp::Heartbeat => "heartbeat",
            MetaOp::BlockReport => "block_report",
        }
    }
}

/// Cached metric handles for one [`MetaOp`], so the hot path never takes
/// the registry map lock.
struct OpStat {
    ops: Counter,
    errors: Counter,
    total: Histogram,
    lock_wait: Histogram,
    work: Histogram,
    log: Histogram,
}

/// One [`OpStat`] per [`MetaOp`], indexed by discriminant.
struct MetaOpStats(Vec<OpStat>);

impl MetaOpStats {
    fn register(reg: &MetricsRegistry) -> Self {
        MetaOpStats(
            MetaOp::ALL
                .iter()
                .map(|&op| {
                    let l = Labels::op(op.label());
                    let micro = BucketLayout::Micro;
                    OpStat {
                        ops: reg.counter("master_meta_ops_total", l),
                        errors: reg.counter("master_meta_op_errors_total", l),
                        total: reg.histogram_with("master_meta_op_us", l, micro),
                        lock_wait: reg.histogram_with("master_meta_op_lock_wait_us", l, micro),
                        work: reg.histogram_with("master_meta_op_work_us", l, micro),
                        log: reg.histogram_with("master_meta_op_log_us", l, micro),
                    }
                })
                .collect(),
        )
    }
}

/// Per-call measurement context for one metadata operation: accumulates
/// lock-wait and edit-log time as the op touches those resources, then
/// [`OpCtx::finish`] stamps total / lock-wait / log / work (= the
/// remainder, i.e. time under the lock doing namespace work plus the thin
/// return path) into the op's histograms.
struct OpCtx<'m> {
    stat: &'m OpStat,
    start: Instant,
    lock_wait_us: Cell<u64>,
    log_us: Cell<u64>,
}

impl OpCtx<'_> {
    /// Acquires a write lock, folding its measured wait into this op's
    /// lock-wait segment.
    fn write<'a, T>(&self, lock: &'a StatRwLock<T>) -> StatWriteGuard<'a, T> {
        let g = lock.write();
        self.lock_wait_us.set(self.lock_wait_us.get() + g.wait_us());
        g
    }

    /// Acquires a read lock, folding its measured wait into this op's
    /// lock-wait segment.
    fn read<'a, T>(&self, lock: &'a StatRwLock<T>) -> StatReadGuard<'a, T> {
        let g = lock.read();
        self.lock_wait_us.set(self.lock_wait_us.get() + g.wait_us());
        g
    }

    /// Acquires a mutex, folding its measured wait into this op's
    /// lock-wait segment.
    fn lock<'a, T>(&self, lock: &'a StatMutex<T>) -> StatMutexGuard<'a, T> {
        let g = lock.lock();
        self.lock_wait_us.set(self.lock_wait_us.get() + g.wait_us());
        g
    }

    /// Waits for a staged edit to become durable (the group commit),
    /// timing the wait into this op's log segment. Called *after* the
    /// namespace guard is released, so slow fsyncs never hold up other ops.
    fn wait_durable(&self, log: &GroupCommitLog, seq: u64) -> Result<()> {
        let t = Instant::now();
        let r = log.wait_durable(seq);
        self.log_us.set(self.log_us.get() + t.elapsed().as_micros() as u64);
        r
    }

    /// Runs the op body, then [`OpCtx::finish`]es the measurement from its
    /// outcome — the standard wrapper for entry points that return
    /// `Result`.
    fn finish_with<T>(&self, body: impl FnOnce() -> Result<T>) -> Result<T> {
        let r = body();
        self.finish(r.is_ok());
        r
    }

    /// Completes the measurement: one op counted (an error, if `!ok`),
    /// and the total split into lock-wait + log + work.
    fn finish(&self, ok: bool) {
        let total = self.start.elapsed().as_micros() as u64;
        let wait = self.lock_wait_us.get();
        let logged = self.log_us.get();
        self.stat.ops.inc();
        if !ok {
            self.stat.errors.inc();
        }
        self.stat.total.observe_us(total);
        self.stat.lock_wait.observe_us(wait);
        self.stat.log.observe_us(logged);
        self.stat.work.observe_us(total.saturating_sub(wait).saturating_sub(logged));
    }
}

/// What the namespace lock guards: the inode tree, plus the two tables
/// that only ever change together with it — write leases (every lease
/// operation is part of a namespace mutation) and the mount table (its
/// only writer, [`Master::mount_external`], needs the write guard anyway
/// to check that the mount point is free).
struct NamespaceState {
    ns: Namespace,
    leases: LeaseManager,
    mounts: MountTable,
}

/// The OctopusFS (primary) master.
///
/// Lock order (DESIGN.md §11): `namespace` → `blocks` → `cluster`; `heat`
/// and the audit ring are leaves. No client-facing op
/// holds a guard across an edit-log fsync or external-catalog I/O (the
/// background `autotier_scan` syncs under the guard so it can roll back).
pub struct Master {
    namespace: StatRwLock<NamespaceState>,
    /// Apart from the namespace so `commit_replica` (three per block
    /// written) never takes the namespace lock.
    blocks: StatRwLock<BlockMap>,
    cluster: StatMutex<ClusterState>,
    log: GroupCommitLog,
    safe_mode: AtomicBool,
    clock_ms: AtomicU64,
    config: ClusterConfig,
    placement: Box<dyn PlacementPolicy>,
    retrieval: Box<dyn RetrievalPolicy>,
    block_ids: IdGenerator,
    gen_stamps: IdGenerator,
    metrics: MetricsRegistry,
    trace: TraceCollector,
    ops: MetaOpStats,
    // Telemetry state lives outside the namespace lock on purpose: heat
    // queries and audit lookups must not contend with the namespace, and
    // `get_file_block_locations` records retrieval decisions while
    // holding only read guards.
    heat: StatMutex<HeatTracker>,
    audit: AuditRing,
}

impl Master {
    /// Creates a master from configuration with an in-memory edit log.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::with_log(config, EditLog::in_memory())
    }

    /// Creates a master with the supplied edit log (file-backed for
    /// durability). Existing log contents are replayed into the namespace.
    pub fn with_log(config: ClusterConfig, log: EditLog) -> Result<Self> {
        config.validate()?;

        // The block map follows the replay the way it follows the live
        // path — a block enters on `AddBlock` and leaves with its file or
        // when abandoned — so nothing here grows with the log's length.
        // `max_block` and `max_gen` remember every id and stamp the log
        // ever issued, so the generators never re-issue one.
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        let mut blocks = BlockMap::new();
        let (mut max_block, mut max_gen) = (0u64, 0u64);
        let started = Instant::now();
        let scan_wait = log.replay(|op| {
            match op.apply(&mut ns, &mut cursor)? {
                BlockChange::Added { file, block } => {
                    max_block = max_block.max(block.id.0);
                    max_gen = max_gen.max(block.gen.0);
                    blocks.insert(block, file, Vec::new());
                }
                BlockChange::Removed(gone) => {
                    for id in gone {
                        blocks.remove_block(id);
                    }
                }
                BlockChange::None => {}
            }
            Ok(())
        })?;

        let (replayed, replay_us) = (log.len() as u64, started.elapsed().as_micros() as u64);
        let scan_wait_us = scan_wait.as_micros() as u64;
        if replayed > 0 {
            octopus_common::log_info!(
                "msg=\"replayed {replayed} ops in {} ms\" finger_hits={} scan_wait_us={scan_wait_us}",
                replay_us / 1000,
                cursor.finger_hits
            );
        }

        let (block_ids, gen_stamps) = (IdGenerator::new(1), IdGenerator::new(1));
        block_ids.ensure_above(max_block);
        gen_stamps.ensure_above(max_gen);
        let placement = build_placement_policy(config.policy.placement, &config.policy, 0x0c70);
        let retrieval = build_retrieval_policy(config.policy.retrieval, 0x0c70);
        // A master that boots with pre-existing blocks (restart/failover)
        // starts in safe mode until block reports confirm the data (§2.1).
        let safe_mode = !blocks.is_empty();
        let metrics = MetricsRegistry::new();
        // Pre-register the scrape-time drop counter so it is present (at
        // zero) in every snapshot, not only after the first wrap.
        metrics.counter("master_audit_dropped_total", Labels::NONE);
        // What the last recovery cost, how the cursor resolved its paths and
        // placed its creates, and how long apply waited for the log's scan.
        for (name, n) in [
            ("master_replay_ops_total", replayed),
            ("master_replay_us", replay_us),
            ("master_replay_path_hits_total", cursor.path_hits),
            ("master_replay_parent_hits_total", cursor.parent_hits),
            ("master_replay_walks_total", cursor.walks),
            ("master_replay_finger_hits_total", cursor.finger_hits),
            ("master_replay_scan_wait_us", scan_wait_us),
        ] {
            metrics.add(name, Labels::NONE, n);
        }
        let ops = MetaOpStats::register(&metrics);
        let namespace_stats = LockStats::register(&metrics, "master.namespace");
        let block_stats = LockStats::register(&metrics, "master.blocks");
        let cluster_stats = LockStats::register(&metrics, "master.cluster");
        let heat_stats = LockStats::register(&metrics, "master.heat");
        let audit_stats = LockStats::register(&metrics, "master.audit");
        Ok(Self {
            namespace: StatRwLock::instrumented(
                NamespaceState {
                    ns,
                    leases: LeaseManager::new(config.heartbeat_ms * LEASE_HEARTBEATS),
                    mounts: MountTable::new(),
                },
                namespace_stats,
            ),
            blocks: StatRwLock::instrumented(blocks, block_stats),
            cluster: StatMutex::instrumented(ClusterState::new(&config), cluster_stats),
            log: GroupCommitLog::new(log),
            safe_mode: AtomicBool::new(safe_mode),
            clock_ms: AtomicU64::new(0),
            config,
            placement,
            retrieval,
            block_ids,
            gen_stamps,
            metrics,
            trace: TraceCollector::new("master"),
            ops,
            heat: StatMutex::instrumented(
                HeatTracker::new(
                    octopus_common::heat::DEFAULT_HEAT_EPOCH_MS,
                    octopus_common::heat::DEFAULT_HEAT_ALPHA,
                ),
                heat_stats,
            ),
            audit: AuditRing::with_stats(
                octopus_common::audit::DEFAULT_AUDIT_CAPACITY,
                audit_stats,
            ),
        })
    }

    /// Opens a per-call measurement context for `op` (see [`OpCtx`]).
    fn op(&self, op: MetaOp) -> OpCtx<'_> {
        OpCtx {
            stat: &self.ops.0[op as usize],
            start: Instant::now(),
            lock_wait_us: Cell::new(0),
            log_us: Cell::new(0),
        }
    }

    /// Stamps externally accumulated drop totals (trace spans, audit ring
    /// evictions) into the registry. Called at `Metrics` scrape time: the
    /// rings evict without a metrics hook of their own.
    pub fn stamp_scrape_metrics(&self) {
        self.metrics
            .counter("trace_spans_dropped_total", Labels::NONE)
            .set_max(self.trace.dropped());
        self.metrics
            .counter("master_audit_dropped_total", Labels::NONE)
            .set_max(self.audit.dropped());
    }

    /// The master's metrics registry (`master_*` counters, gauges, and
    /// latency histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The master's trace collector (spans for RPCs dispatched onto this
    /// master, plus replication/scrub rounds driven from it).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Name of the active placement policy.
    pub fn placement_policy_name(&self) -> &'static str {
        self.placement.name()
    }

    /// The master's logical clock (max over all observed timestamps).
    fn now_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::Acquire)
    }

    /// Advances the logical clock (never backwards).
    fn advance_clock(&self, now_ms: u64) {
        self.clock_ms.fetch_max(now_ms, Ordering::AcqRel);
    }

    // -- Worker-facing API -------------------------------------------------

    /// Registers a worker.
    pub fn register_worker(&self, worker: WorkerId, rack: RackId, net_thru: f64, now_ms: u64) {
        self.cluster.lock().register(worker, rack, net_thru, now_ms);
    }

    /// Processes a heartbeat.
    pub fn heartbeat(
        &self,
        worker: WorkerId,
        media: Vec<MediaStats>,
        nr_conn: u32,
        now_ms: u64,
    ) -> Result<()> {
        let ctx = self.op(MetaOp::Heartbeat);
        ctx.finish_with(|| {
            self.advance_clock(now_ms);
            let mut c = ctx.lock(&self.cluster);
            let out = c.heartbeat(worker, media, nr_conn, now_ms);
            self.metrics.inc("master_heartbeats_total", Labels::worker(worker));
            self.update_liveness_gauge(&c);
            out
        })
    }

    /// [`Master::heartbeat`] carrying a worker's drained access-heat epoch:
    /// per-block read/write touch counts are resolved to their owning files
    /// and folded into the per-file EWMA heat tracker. Touches for blocks
    /// the master no longer knows (deleted files, stale workers) are
    /// silently dropped.
    pub fn heartbeat_with_heat(
        &self,
        worker: WorkerId,
        media: Vec<MediaStats>,
        nr_conn: u32,
        now_ms: u64,
        touches: &[BlockTouches],
    ) -> Result<()> {
        self.heartbeat(worker, media, nr_conn, now_ms)?;
        self.observe_touches(touches, now_ms);
        Ok(())
    }

    /// Folds per-block touch counts into per-file heat (see
    /// [`Master::heartbeat_with_heat`]). Public so replaying harnesses can
    /// inject synthetic access patterns.
    pub fn observe_touches(&self, touches: &[BlockTouches], now_ms: u64) {
        if touches.is_empty() {
            return;
        }
        let mut per_file: HashMap<INodeId, (u64, u64)> = HashMap::new();
        {
            let blocks = self.blocks.read();
            for t in touches {
                if let Some(info) = blocks.get(t.block) {
                    let e = per_file.entry(info.file).or_insert((0, 0));
                    e.0 += t.reads as u64;
                    e.1 += t.writes as u64;
                }
            }
        }
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
    /// [`BlockMap::apply_report`]), and returns block ids the worker
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
            let invalidate = blocks.apply_report(worker, &located);
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
    /// corruption"): drop the location so the next replication scan
    /// re-replicates from a healthy copy.
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
        let draining: HashSet<WorkerId> = {
            let c = self.cluster.lock();
            if !c.is_decommissioning(worker) {
                return false;
            }
            c.workers().filter(|w| c.is_decommissioning(w.worker)).map(|w| w.worker).collect()
        };
        let g = self.namespace.read();
        let blocks = self.blocks.read();
        for (_, info) in blocks.iter() {
            if !info.locations.iter().any(|l| l.worker == worker) {
                continue;
            }
            let Ok(meta) = g.ns.file_meta(info.file) else { continue };
            let counted: Vec<Location> = info
                .all_locations()
                .into_iter()
                .filter(|l| !draining.contains(&l.worker))
                .collect();
            if !replication_state(meta.rv, &counted).is_satisfied() {
                return false;
            }
        }
        true
    }

    /// Retires a drained worker: removes it from the cluster entirely.
    pub fn finalize_decommission(&self, worker: WorkerId) {
        {
            let mut c = self.cluster.lock();
            c.clear_decommission(worker);
            c.mark_dead(worker);
        }
        self.blocks.write().remove_worker_replicas(worker);
    }

    // -- Namespace API (Table 1 + standard operations) ----------------------

    fn check_writable(&self) -> Result<()> {
        if self.safe_mode.load(Ordering::Acquire) {
            return Err(FsError::NotReady("master is in safe mode awaiting block reports".into()));
        }
        Ok(())
    }

    /// Whether the master is in safe mode (read-only, §2.1 restart path).
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode.load(Ordering::Acquire)
    }

    /// Administratively leaves safe mode.
    pub fn leave_safe_mode(&self) {
        self.safe_mode.store(false, Ordering::Release);
    }

    /// Creates a directory (and parents).
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let ctx = self.op(MetaOp::Mkdir);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            g.ns.mkdir(path, true)?;
            let seq = self.log.stage(EditOp::Mkdir { path: path.to_string() });
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// Creates a file open for writing. `block_size = None` uses the
    /// cluster default. The replication vector is validated against the
    /// configured tiers and the maximum replication.
    pub fn create_file(
        &self,
        path: &str,
        rv: ReplicationVector,
        block_size: Option<u64>,
    ) -> Result<FileStatus> {
        self.create_file_as(path, rv, block_size, ClientId::SYSTEM)
    }

    /// [`Master::create_file`] on behalf of a specific client, which takes
    /// the file's write lease.
    pub fn create_file_as(
        &self,
        path: &str,
        rv: ReplicationVector,
        block_size: Option<u64>,
        holder: ClientId,
    ) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Create);
        ctx.finish_with(|| {
            rv.validate(self.config.tiers.len(), self.config.max_replication)?;
            if rv.total() == 0 {
                return Err(FsError::InvalidReplicationVector(
                    "a file needs at least one replica".into(),
                ));
            }
            self.check_writable()?;
            let bs = block_size.unwrap_or(self.config.block_size);
            let npath = normalize(path)?;
            let edit = EditOp::CreateFile { path: path.to_string(), rv, block_size: bs };
            let mut g = ctx.write(&self.namespace);
            g.leases.acquire(&npath, holder, self.now_ms())?;
            let id = match g.ns.create_file(path, rv, bs) {
                Ok(id) => id,
                Err(e) => {
                    g.leases.release(&npath);
                    return Err(e);
                }
            };
            let seq = self.log.stage(edit);
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(FileStatus {
                id,
                path: npath,
                is_dir: false,
                len: 0,
                rv,
                block_size: bs,
                complete: false,
            })
        })
    }

    /// Allocates the next block of an open file: runs the placement policy
    /// and returns the block plus the pipeline locations, first-to-write
    /// first (§3.1).
    pub fn add_block(
        &self,
        path: &str,
        len: u64,
        client: ClientLocation,
    ) -> Result<(Block, Vec<Location>)> {
        self.add_block_as(path, len, client, ClientId::SYSTEM)
    }

    /// [`Master::add_block`] on behalf of a specific client; the client
    /// must hold (or be granted) the file's lease, which this renews.
    pub fn add_block_as(
        &self,
        path: &str,
        len: u64,
        client: ClientLocation,
        holder: ClientId,
    ) -> Result<(Block, Vec<Location>)> {
        self.add_block_excluding(path, len, client, holder, &[])
    }

    /// [`Master::add_block_as`] excluding specific workers from placement
    /// — the client-side pipeline recovery of §3.1: after a stage failure
    /// the client abandons the block and re-requests placement without
    /// the workers its failed attempts already hit.
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
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            let now = self.now_ms();
            g.leases.check(&npath, holder, now)?;
            let file = g.ns.resolve(path)?;
            let meta = g.ns.file_meta(file)?;
            if meta.complete {
                return Err(FsError::InvalidArgument(format!("{path} is not open for writing")));
            }
            if len == 0 || len > meta.block_size {
                return Err(FsError::InvalidArgument(format!(
                    "block length {len} not in (0, {}]",
                    meta.block_size
                )));
            }
            let rv = meta.rv;
            let mut req = PlacementRequest::from_vector(rv, len, client);
            req.excluded_workers = excluded.to_vec();
            let snap = ctx.lock(&self.cluster).snapshot();
            let (media, rounds) = self.placement.place_with_audit(&snap, &req)?;
            if media.len() < req.tier_pins.len() {
                // Partial placement is tolerated (the replication monitor will
                // top the block up later) but at least one replica must exist.
                if media.is_empty() {
                    return Err(FsError::PlacementFailed(format!(
                        "no media available for block of {path}"
                    )));
                }
            }
            // Resolve + reserve under one cluster lock, so a concurrent
            // heartbeat cannot slip between the lookup and the reservation.
            let locations = {
                let mut c = ctx.lock(&self.cluster);
                let locs = locate_all(&c, &media)?;
                for l in &locs {
                    c.schedule_write(l.media, len);
                }
                locs
            };
            let block = Block {
                id: BlockId(self.block_ids.next()),
                gen: GenStamp(self.gen_stamps.next()),
                len,
            };
            // The namespace append charges the tier quotas; cancel the
            // reservations if it trips.
            if let Err(e) = g.ns.add_block(file, block.id, len) {
                let mut c = self.cluster.lock();
                for l in &locations {
                    c.cancel_write(l.media, len);
                }
                return Err(e);
            }
            self.blocks.write().insert(block, file, locations.clone());
            let seq = self.log.stage(EditOp::AddBlock {
                path: path.to_string(),
                block: block.id,
                gen: block.gen.0,
                len,
            });
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            self.audit.push(DecisionEvent {
                seq: 0,
                when_ms: now,
                kind: DecisionKind::Placement,
                block: block.id,
                file,
                policy: self.placement.name().to_string(),
                chosen: locations.clone(),
                rounds,
            });
            Ok((block, locations))
        })
    }

    /// Acknowledges that a pipeline stage stored its replica.
    pub fn commit_replica(&self, block: Block, loc: Location) -> Result<()> {
        let ctx = self.op(MetaOp::CommitReplica);
        ctx.finish_with(|| {
            ctx.write(&self.blocks).confirm(block.id, loc)?;
            ctx.lock(&self.cluster).complete_write(loc.media, block.len);
            Ok(())
        })
    }

    /// Records that a scheduled replica will not be written (pipeline
    /// failure). Refuses to demote a location that already committed: a
    /// forwarding stage that loses its connection *after* the tail stored
    /// and committed still sends an abort for it, and honoring that late
    /// abort would strip a live replica from the block map. Only a
    /// still-pending reservation is cleared, and its scheduled-write
    /// capacity is returned (cancelled, not consumed — no bytes landed).
    pub fn abort_replica(&self, block: Block, loc: Location) {
        let ctx = self.op(MetaOp::AbortReplica);
        let cancelled = {
            let mut g = ctx.write(&self.blocks);
            let committed = g.get(block.id).is_some_and(|info| info.locations.contains(&loc));
            !committed && g.abandon_pending(block.id, &loc)
        };
        if cancelled {
            ctx.lock(&self.cluster).cancel_write(loc.media, block.len);
        }
        ctx.finish(true);
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
    /// reverses the namespace append (refunding quota), releases every
    /// pending write reservation, and drops the block from the block map.
    /// Replicas that *did* commit before the failure become unknown blocks
    /// and are invalidated through their owners' next block reports.
    pub fn abandon_block_as(&self, path: &str, block: Block, holder: ClientId) -> Result<()> {
        let ctx = self.op(MetaOp::AbandonBlock);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            g.leases.check(&npath, holder, self.now_ms())?;
            let file = g.ns.resolve(path)?;
            g.ns.remove_last_block(file, block.id, block.len)?;
            let removed = self.blocks.write().remove_block(block.id);
            if let Some(info) = removed {
                let mut c = self.cluster.lock();
                for loc in info.pending {
                    c.cancel_write(loc.media, block.len);
                }
            }
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
            let npath = normalize(path)?;
            // The namespace write guard pins the file meta (no concurrent
            // abandon or complete) even though the namespace does not change.
            let mut g = ctx.write(&self.namespace);
            let now = self.now_ms();
            g.leases.check(&npath, holder, now)?;
            let file = g.ns.resolve(path)?;
            let meta = g.ns.file_meta(file)?;
            if meta.complete {
                return Err(FsError::InvalidArgument(format!("{path} is not open for writing")));
            }
            if !meta.blocks.iter().any(|&(id, _)| id == block.id) {
                return Err(FsError::InvalidArgument(format!(
                    "block {} is not part of {path}",
                    block.id
                )));
            }
            let rv = meta.rv;
            let mut req = PlacementRequest::from_vector(rv, block.len, client);
            req.excluded_workers = excluded.to_vec();
            let snap = ctx.lock(&self.cluster).snapshot();
            // Place first: a placement failure must leave the old assignment
            // intact (no edit-log entry either way — replica locations are
            // never logged, exactly as in `add_block_excluding`).
            let (media, rounds) = self.placement.place_with_audit(&snap, &req)?;
            if media.is_empty() {
                return Err(FsError::PlacementFailed(format!(
                    "no media available for block of {path}"
                )));
            }
            let locations = locate_all(&ctx.lock(&self.cluster), &media)?;
            {
                let mut bs = ctx.write(&self.blocks);
                let mut c = self.cluster.lock();
                if let Some(info) = bs.remove_block(block.id) {
                    // Refund write reservations of the failed pipeline;
                    // committed replicas become unknown blocks, purged via
                    // block reports.
                    for loc in info.pending {
                        c.cancel_write(loc.media, block.len);
                    }
                }
                for l in &locations {
                    c.schedule_write(l.media, block.len);
                }
                drop(c);
                bs.insert(block, file, locations.clone());
            }
            self.audit.push(DecisionEvent {
                seq: 0,
                when_ms: now,
                kind: DecisionKind::Reassign,
                block: block.id,
                file,
                policy: self.placement.name().to_string(),
                chosen: locations.clone(),
                rounds,
            });
            Ok(locations)
        })
    }

    /// Reopens a complete file for append (new blocks only; the existing
    /// last block is not reopened — appends start a fresh block). The
    /// caller takes the file's write lease.
    pub fn append_file_as(&self, path: &str, holder: ClientId) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Append);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            g.leases.acquire(&npath, holder, self.now_ms())?;
            let reopened = g.ns.resolve(path).and_then(|file| g.ns.reopen_file(file));
            if let Err(e) = reopened {
                g.leases.release(&npath);
                return Err(e);
            }
            let seq = self.log.stage(EditOp::AppendFile { path: path.to_string() });
            let st = g.ns.status(path)?;
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(st)
        })
    }

    /// Closes a file.
    pub fn complete_file(&self, path: &str) -> Result<()> {
        self.complete_file_as(path, ClientId::SYSTEM)
    }

    /// [`Master::complete_file`] on behalf of a specific client; releases
    /// the lease.
    pub fn complete_file_as(&self, path: &str, holder: ClientId) -> Result<()> {
        let ctx = self.op(MetaOp::Complete);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            g.leases.check(&npath, holder, self.now_ms())?;
            let file = g.ns.resolve(path)?;
            g.ns.finalize_file(file)?;
            g.leases.release(&npath);
            let seq = self.log.stage(EditOp::CloseFile { path: path.to_string() });
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// `getFileBlockLocations` (Table 1): blocks overlapping the byte range
    /// with replica locations ordered by the retrieval policy (§4).
    pub fn get_file_block_locations(
        &self,
        path: &str,
        start: u64,
        len: u64,
        client: ClientLocation,
    ) -> Result<Vec<LocatedBlock>> {
        let ctx = self.op(MetaOp::Locations);
        ctx.finish_with(|| {
            let snap = ctx.lock(&self.cluster).snapshot();
            // Both read guards span the walk, so a concurrent delete cannot
            // pull a block out from under a file that is being located.
            let g = ctx.read(&self.namespace);
            let file = g.ns.resolve(path)?;
            let meta = g.ns.file_meta(file)?;
            let blocks = ctx.read(&self.blocks);
            let now = self.now_ms();
            let mut out = Vec::new();
            let mut offset = 0u64;
            for &(bid, _) in &meta.blocks {
                let info = blocks.get(bid).ok_or_else(|| {
                    FsError::Internal(format!("file block {bid} missing from map"))
                })?;
                let (ordered, candidates) =
                    self.retrieval.order_with_audit(&snap, client, &info.locations);
                let lb = LocatedBlock { block: info.block, offset, locations: ordered };
                offset = lb.end();
                if lb.overlaps(start, len) {
                    // Retrieval decisions are audited only for blocks actually
                    // handed to the client (the requested range). The ring is
                    // a leaf lock, fine under the read guards.
                    self.audit.push(DecisionEvent {
                        seq: 0,
                        when_ms: now,
                        kind: DecisionKind::Retrieval,
                        block: info.block.id,
                        file,
                        policy: self.retrieval.name().to_string(),
                        chosen: lb.locations.clone(),
                        rounds: vec![DecisionRound {
                            replica_index: 0,
                            tier_pin: None,
                            chosen_media: lb.locations.first().map(|l| l.media),
                            candidates,
                        }],
                    });
                    out.push(lb);
                }
            }
            Ok(out)
        })
    }

    /// `setReplication` (Table 1): validates and records the new vector.
    /// The actual data movement is asynchronous — the next replication
    /// scan schedules the copies/deletions (§5).
    pub fn set_replication(&self, path: &str, rv: ReplicationVector) -> Result<ReplicationVector> {
        rv.validate(self.config.tiers.len(), self.config.max_replication)?;
        if rv.total() == 0 {
            return Err(FsError::InvalidReplicationVector(
                "use delete() to drop a file entirely".into(),
            ));
        }
        let ctx = self.op(MetaOp::SetReplication);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let old = g.ns.set_replication(path, rv)?;
            let seq = self.log.stage(EditOp::SetReplication { path: path.to_string(), rv });
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(old)
        })
    }

    /// `getStorageTierReports` (Table 1).
    pub fn get_storage_tier_reports(&self) -> Vec<StorageTierReport> {
        self.cluster.lock().tier_reports(&self.config.tiers)
    }

    /// Status of a path. Paths under a mount point resolve against the
    /// external catalog (§2.4, stand-alone mode).
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Stat);
        ctx.finish_with(|| {
            let g = ctx.read(&self.namespace);
            let Some((cat, rel)) = g.mounts.resolve(path) else {
                return g.ns.status(path);
            };
            drop(g); // never hold the namespace across catalog I/O
            let st = cat.status(&rel)?;
            Ok(FileStatus {
                id: INodeId(0),
                path: path.to_string(),
                is_dir: st.is_dir,
                len: st.len,
                rv: ReplicationVector::EMPTY,
                block_size: 0,
                complete: true,
            })
        })
    }

    /// Lists a directory (external catalogs included — §2.4): one atomic
    /// snapshot of its entries.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        let ctx = self.op(MetaOp::List);
        ctx.finish_with(|| {
            let g = ctx.read(&self.namespace);
            let Some((cat, rel)) = g.mounts.resolve(path) else {
                return g.ns.list(path);
            };
            drop(g); // never hold the namespace across catalog I/O
            cat.list(&rel)
        })
    }

    /// Mounts an external catalog at `mount_point` (§2.4, stand-alone
    /// remote storage). The subtree is read-only through OctopusFS.
    pub fn mount_external(
        &self,
        mount_point: &str,
        catalog: Arc<dyn ExternalCatalog>,
    ) -> Result<()> {
        normalize(mount_point)?;
        let mut g = self.namespace.write();
        // The mount point must not shadow existing namespace entries.
        if g.ns.resolve(mount_point).is_ok() {
            return Err(FsError::AlreadyExists(mount_point.to_string()));
        }
        g.mounts.add(mount_point, catalog)
    }

    /// Whether a path resolves into a mounted external catalog.
    pub fn is_external(&self, path: &str) -> bool {
        self.namespace.read().mounts.resolve(path).is_some()
    }

    /// Reads a whole file from a mounted external catalog.
    pub fn read_external(&self, path: &str) -> Result<Vec<u8>> {
        let hit = self.namespace.read().mounts.resolve(path);
        let (cat, rel) =
            hit.ok_or_else(|| FsError::NotFound(format!("{path} is not under a mount")))?;
        cat.read(&rel)
    }

    /// Registered external mount points.
    pub fn mount_points(&self) -> Vec<String> {
        self.namespace.read().mounts.mount_points().into_iter().map(String::from).collect()
    }

    /// Renames a file or directory. The renamed subtree's heat is reset:
    /// the common write-then-rename-into-place pattern would otherwise
    /// carry a staging file's write heat onto the published path and
    /// wrongly promote it, so a renamed file starts cold and earns its
    /// temperature from post-rename accesses.
    pub fn rename(&self, src: &str, dst: &str) -> Result<()> {
        let ctx = self.op(MetaOp::Rename);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let src_id = g.ns.resolve(src)?;
            g.ns.rename(src, dst)?;
            let moved = g.ns.subtree_files(src_id); // a rename keeps inode ids
            g.leases.rename(&normalize(src)?, &normalize(dst)?);
            let seq = self.log.stage(EditOp::Rename { src: src.to_string(), dst: dst.to_string() });
            drop(g);
            self.forget_heat(moved);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// Deletes a path; block replicas are dropped from the block map and
    /// returned as `(block, location)` pairs for invalidation at the
    /// workers. Heat entries of the deleted files are forgotten — without
    /// this the tracker leaks one EWMA per deleted file forever.
    pub fn delete(&self, path: &str, recursive: bool) -> Result<Vec<(BlockId, Location)>> {
        let ctx = self.op(MetaOp::Delete);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            let (doomed, blocks) = g.ns.delete(path, recursive)?;
            g.leases.release(&npath);
            let seq = self.log.stage(EditOp::Delete { path: path.to_string() });
            // Blocks leave the map under the namespace guard, so a reader
            // never finds a file whose blocks are already gone.
            let mut dropped = Vec::new();
            if !blocks.is_empty() {
                let mut map = ctx.write(&self.blocks);
                for b in blocks {
                    if let Some(info) = map.remove_block(b) {
                        dropped.extend(info.locations.into_iter().map(|l| (b, l)));
                    }
                }
            }
            drop(g);
            self.forget_heat(doomed);
            ctx.wait_durable(&self.log, seq)?;
            Ok(dropped)
        })
    }

    fn forget_heat(&self, files: Vec<INodeId>) {
        let mut heat = self.heat.lock();
        for f in files {
            heat.forget(f);
        }
    }

    /// Sets a per-tier quota on a directory.
    pub fn set_quota(&self, path: &str, quota: TierQuota) -> Result<()> {
        let ctx = self.op(MetaOp::SetQuota);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            g.ns.set_quota(path, quota)?;
            let seq =
                self.log.stage(EditOp::SetQuota { path: path.to_string(), quota: Box::new(quota) });
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// A directory's quota and usage.
    pub fn quota_usage(&self, path: &str) -> Result<(TierQuota, [u64; MAX_TIERS])> {
        self.namespace.read().ns.quota_usage(path)
    }

    /// `(files, directories)` counts (directories include `/`).
    pub fn counts(&self) -> (usize, usize) {
        self.namespace.read().ns.counts()
    }

    // -- Replication monitor (§5) -------------------------------------------

    /// Scans every block of every complete file, scheduling re-replication
    /// for under-replicated tiers and removal for over-replicated ones.
    /// Returned tasks are to be executed by workers; copies are recorded as
    /// pending so a rescan does not double-schedule.
    pub fn replication_scan(&self) -> Vec<ReplicationTask> {
        if self.in_safe_mode() {
            return Vec::new();
        }
        let (snap, draining) = {
            let c = self.cluster.lock();
            let d: HashSet<WorkerId> =
                c.workers().filter(|w| c.is_decommissioning(w.worker)).map(|w| w.worker).collect();
            (c.snapshot(), d)
        };
        let now = self.now_ms();
        let mut tasks = Vec::new();
        // Both guards span the scan: the monitor sees one consistent
        // namespace and block map, at the price of holding up writers
        // for its duration.
        let g = self.namespace.read();
        let mut bg = self.blocks.write();
        // In ascending inode id — creation order, until a slot is reused —
        // so the order of the tasks does not depend on where the inode
        // table happens to keep a file.
        let mut files: Vec<(INodeId, &FileMeta)> =
            g.ns.files().filter(|(_, meta)| meta.complete && !meta.blocks.is_empty()).collect();
        files.sort_unstable_by_key(|&(id, _)| id);
        for (file, meta) in files {
            let rv = meta.rv;
            for &(bid, _) in &meta.blocks {
                let Some(info) = bg.get(bid) else { continue };
                let block = info.block;
                let confirmed = info.locations.clone();
                let all = info.all_locations();
                // Replicas on draining workers keep serving reads but
                // do not count toward the replication target.
                let counted: Vec<Location> =
                    all.iter().copied().filter(|l| !draining.contains(&l.worker)).collect();
                let state = replication_state(rv, &counted);
                if state.is_satisfied() {
                    continue;
                }
                if confirmed.is_empty() {
                    continue; // nothing to copy from yet
                }

                // Under-replication: build one placement request
                // covering all deficits of this block.
                let mut pins: Vec<Option<TierId>> = Vec::new();
                for &(tier, count) in &state.under_pinned {
                    for _ in 0..count {
                        pins.push(Some(tier));
                    }
                }
                for _ in 0..state.under_unspecified {
                    pins.push(None);
                }
                if !pins.is_empty() {
                    let req = PlacementRequest {
                        block_size: block.len,
                        client: ClientLocation::OffCluster,
                        tier_pins: pins,
                        existing: all.iter().map(|l| l.media).collect(),
                        excluded_workers: Vec::new(),
                    };
                    if let Ok((media, rounds)) = self.placement.place_with_audit(&snap, &req) {
                        let mut targets = Vec::new();
                        for m in media {
                            let located = { self.cluster.lock().locate_media(m) };
                            let Some((worker, tier)) = located else { continue };
                            let target = Location { worker, media: m, tier };
                            let sources = self.retrieval.order(
                                &snap,
                                ClientLocation::OnWorker(worker),
                                &confirmed,
                            );
                            bg.add_pending(bid, &[target]).ok();
                            self.cluster.lock().schedule_write(m, block.len);
                            targets.push(target);
                            tasks.push(ReplicationTask::Copy { block, sources, target });
                        }
                        if !targets.is_empty() {
                            self.audit.push(DecisionEvent {
                                seq: 0,
                                when_ms: now,
                                kind: DecisionKind::Placement,
                                block: bid,
                                file,
                                policy: self.placement.name().to_string(),
                                chosen: targets,
                                rounds,
                            });
                        }
                    }
                }

                // Over-replication: pick victims per over-replicated
                // tier.
                for &(tier, count) in &state.over {
                    let mut current = confirmed.clone();
                    for _ in 0..count {
                        // Never trim the last confirmed replica: a
                        // demotion like ⟨1,0,0⟩ → ⟨0,0,1⟩ makes the
                        // memory replica surplus while it is still the
                        // only copy (and the source of this round's HDD
                        // copy). The trim waits until the new replica
                        // confirms.
                        if current.len() <= 1 {
                            break;
                        }
                        let (victim, candidates) = choose_replica_to_remove_explained(
                            &snap,
                            &current,
                            Some(tier),
                            block.len,
                        );
                        let Some(victim) = victim else {
                            break;
                        };
                        current.retain(|l| l != &victim);
                        bg.remove_replica(bid, victim.media);
                        self.audit.push(DecisionEvent {
                            seq: 0,
                            when_ms: now,
                            kind: DecisionKind::Removal,
                            block: bid,
                            file,
                            policy: "leave-one-out".to_string(),
                            chosen: vec![victim],
                            rounds: vec![DecisionRound {
                                replica_index: 0,
                                tier_pin: Some(tier),
                                chosen_media: Some(victim.media),
                                candidates,
                            }],
                        });
                        tasks.push(ReplicationTask::Delete { block, location: victim });
                    }
                }
            }
        }
        drop(bg);
        drop(g);
        for task in &tasks {
            let kind = match task {
                ReplicationTask::Copy { .. } => "copy",
                ReplicationTask::Delete { .. } => "delete",
            };
            self.metrics.inc("master_replication_tasks_total", Labels::req(kind));
        }
        tasks
    }

    /// The data balancer (the HDFS balancer's role, §8's manual tool made
    /// policy-driven): finds media whose utilization exceeds their tier's
    /// mean by more than `threshold` (fraction of capacity) and schedules
    /// copies of replicas they host onto better media in the same tier,
    /// chosen by the MOOP machinery. The over-replication path of the next
    /// [`Master::replication_scan`] then trims the worst replica — which
    /// is the overloaded source — completing the move. Returns at most
    /// `max_moves` copy tasks.
    pub fn balancer_scan(&self, threshold: f64, max_moves: usize) -> Vec<ReplicationTask> {
        if self.in_safe_mode() {
            return Vec::new();
        }
        let snap = self.cluster.lock().snapshot();

        // Per-media and per-tier utilization.
        let mut tier_used = vec![(0u64, 0u64); snap.num_tiers]; // (used, cap)
        let mut media_frac: HashMap<MediaId, f64> = HashMap::new();
        for m in &snap.media {
            let used = m.capacity.saturating_sub(m.remaining);
            let t = &mut tier_used[m.tier.0 as usize];
            t.0 += used;
            t.1 += m.capacity;
            if m.capacity > 0 {
                media_frac.insert(m.media, used as f64 / m.capacity as f64);
            }
        }
        let tier_mean: Vec<f64> = tier_used
            .iter()
            .map(|&(u, c)| if c == 0 { 0.0 } else { u as f64 / c as f64 })
            .collect();

        let overloaded: Vec<&MediaStats> = snap
            .media
            .iter()
            .filter(|m| {
                media_frac.get(&m.media).copied().unwrap_or(0.0)
                    > tier_mean[m.tier.0 as usize] + threshold
            })
            .collect();
        if overloaded.is_empty() {
            return Vec::new();
        }

        let mut tasks = Vec::new();
        let mut blocks = self.blocks.write();
        for src in overloaded {
            if tasks.len() >= max_moves {
                break;
            }
            let src_frac = media_frac.get(&src.media).copied().unwrap_or(0.0);
            // The first block hosted on the overloaded medium, with no
            // pending work, that placement can move somewhere better.
            let planned = blocks
                .iter()
                .filter(|(_, info)| info.pending.is_empty())
                .filter(|(_, info)| info.locations.iter().any(|l| l.media == src.media))
                .find_map(|(&id, info)| {
                    let req = PlacementRequest {
                        block_size: info.block.len,
                        client: ClientLocation::OffCluster,
                        tier_pins: vec![Some(src.tier)],
                        existing: info.locations.iter().map(|l| l.media).collect(),
                        excluded_workers: Vec::new(),
                    };
                    let target_media = *self.placement.place(&snap, &req).ok()?.first()?;
                    // Only move toward genuinely less utilized media.
                    let target_frac = media_frac.get(&target_media).copied().unwrap_or(0.0);
                    if target_frac + threshold / 2.0 >= src_frac {
                        return None;
                    }
                    let (worker, tier) = self.cluster.lock().locate_media(target_media)?;
                    let target = Location { worker, media: target_media, tier };
                    let sources = self.retrieval.order(
                        &snap,
                        ClientLocation::OnWorker(worker),
                        &info.locations,
                    );
                    Some((id, info.block, sources, target))
                });
            if let Some((id, block, sources, target)) = planned {
                blocks.add_pending(id, &[target]).ok();
                self.cluster.lock().schedule_write(target.media, block.len);
                tasks.push(ReplicationTask::Copy { block, sources, target });
            }
        }
        tasks
    }

    // -- Automated tiering (ROADMAP item 3) ----------------------------------

    /// The auto-tiering migration planner: classifies every complete file's
    /// temperature from its heat EWMA through `classifier`, and turns
    /// classification changes into replication-vector edits — a hot file
    /// without a Memory-tier replica gains one (promotion), a cold file
    /// with one loses it (demotion). Warm files, and files already placed
    /// to match their temperature, are left alone; that hysteresis band
    /// stops tier ping-pong.
    ///
    /// Vector edits are exactly what `setReplication` would do, so the §5
    /// replication monitor realizes them as ordinary copy/delete tasks on
    /// the next scan; callers wanting bounded background bandwidth execute
    /// that scan through the paced migration round (net monitor). Rounds
    /// are bounded by `cfg` (files and copy bytes per round), promotions
    /// are capacity-checked against the Memory tier, demotions run first
    /// so they free budget for promotions, and every move is recorded as a
    /// [`DecisionKind::Migration`] audit event.
    ///
    /// The scan collects candidates under a read guard and applies each
    /// decision under its own write guard, re-verifying that nothing raced
    /// in between.
    pub fn autotier_scan(
        &self,
        classifier: &dyn TierClassifier,
        cfg: &AutoTierConfig,
    ) -> Vec<MigrationDecision> {
        if self.in_safe_mode() {
            return Vec::new();
        }
        let now = self.now_ms();
        let mem = StorageTier::Memory.id();
        let hdd = StorageTier::Hdd.id();
        if mem.0 as usize >= self.config.tiers.len() {
            return Vec::new(); // no memory tier configured: nothing to tier
        }

        // Candidates in ascending inode id: demotions are applied in this
        // order, promotions by score and then by it.
        let files: Vec<(INodeId, String, ReplicationVector, u64, BlockId)> = {
            let g = self.namespace.read();
            let mut files: Vec<_> =
                g.ns.files()
                    .filter(|(_, meta)| meta.complete)
                    .filter_map(|(id, meta)| {
                        let (first, _) = *meta.blocks.first()?;
                        Some((id, g.ns.path_of(id).ok()?, meta.rv, meta.len, first))
                    })
                    .collect();
            files.sort_unstable_by_key(|f| f.0);
            files
        };
        let scored: Vec<(INodeId, String, ReplicationVector, u64, BlockId, HeatInfo)> = {
            let heat = self.heat.lock();
            files
                .into_iter()
                .map(|(id, path, rv, len, b)| {
                    let info = heat.info(id, now);
                    (id, path, rv, len, b, info)
                })
                .collect()
        };

        // Headroom for promotions: what the Memory tier can still absorb.
        let mut mem_remaining = self
            .cluster
            .lock()
            .tier_reports(&self.config.tiers)
            .iter()
            .find(|r| r.stats.tier == mem)
            .map(|r| r.stats.remaining)
            .unwrap_or(0);

        // Demotions first (they free memory), then promotions hottest
        // first, so a tight round spends its budget on the hottest files.
        let mut demotions = Vec::new();
        let mut promotions = Vec::new();
        for (id, path, rv, len, b, info) in scored {
            match classifier.classify(&info) {
                Temperature::Cold if rv.tier(mem) > 0 => {
                    let mut to = rv.with_tier(mem, 0);
                    if to.total() == 0 {
                        // Never demote a file out of existence: the memory
                        // pin was its only replica, so it moves to HDD.
                        to = to.with_tier(hdd, 1);
                    }
                    demotions.push((id, path, rv, to, len, b, info.score));
                }
                Temperature::Hot if rv.tier(mem) == 0 => {
                    let to = rv.with_tier(mem, 1);
                    promotions.push((id, path, rv, to, len, b, info.score));
                }
                _ => {}
            }
        }
        promotions.sort_by(|a, b| b.6.partial_cmp(&a.6).unwrap().then(a.0.cmp(&b.0)));

        let mut decisions = Vec::new();
        let mut copy_bytes_planned = 0u64;
        for (id, path, from, to, len, block, score) in demotions.into_iter().chain(promotions) {
            if decisions.len() >= cfg.max_files_per_round {
                break;
            }
            let direction = if to.tier(mem) > from.tier(mem) {
                MigrationDirection::Promote
            } else {
                MigrationDirection::Demote
            };
            let added: u64 = from.diff(to).additions().map(|(_, n)| n as u64).sum();
            let copy_bytes = len.saturating_mul(added);
            if copy_bytes_planned.saturating_add(copy_bytes) > cfg.max_bytes_per_round {
                continue; // a smaller file later in the order may still fit
            }
            if direction == MigrationDirection::Promote {
                if len > mem_remaining {
                    continue; // no headroom: wait for demotions to land
                }
                mem_remaining -= len;
            }
            if to.validate(self.config.tiers.len(), self.config.max_replication).is_err() {
                continue;
            }
            // Apply under the write guard, re-verifying the file is
            // unchanged (same inode, vector, and length) — a rename,
            // delete, or setReplication may have raced the scan.
            let mut g = self.namespace.write();
            let unchanged = g.ns.resolve(&path).is_ok_and(|rid| rid == id)
                && g.ns.file_meta(id).is_ok_and(|m| m.rv == from && m.len == len);
            if !unchanged {
                continue; // raced: skip this round
            }
            if g.ns.set_replication(&path, to).is_err() {
                continue; // quota: skip this round
            }
            // The scan holds the guard across the synchronous append (the
            // committer path of the group commit), keeping namespace and
            // log consistent if the write fails.
            if self.log.append_sync(EditOp::SetReplication { path: path.clone(), rv: to }).is_err()
            {
                let _ = g.ns.set_replication(&path, from);
                continue;
            }
            drop(g);
            copy_bytes_planned += copy_bytes;
            self.audit.push(DecisionEvent {
                seq: 0,
                when_ms: now,
                kind: DecisionKind::Migration,
                block,
                file: id,
                policy: format!(
                    "{}: {} score={score:.3} {from} -> {to}",
                    classifier.name(),
                    direction.label(),
                ),
                chosen: Vec::new(),
                rounds: Vec::new(),
            });
            self.metrics.inc("master_migrations_total", Labels::req(direction.label()));
            self.metrics.add("master_migration_copy_bytes_total", Labels::NONE, copy_bytes);
            decisions.push(MigrationDecision {
                file: id,
                path,
                score,
                direction,
                from,
                to,
                copy_bytes,
            });
        }
        decisions
    }

    /// The most recent `n` retained [`DecisionKind::Migration`] audit
    /// events, oldest first (the `Migrations` RPC / `octofs-remote
    /// migrations`).
    pub fn recent_migrations(&self, n: usize) -> Vec<DecisionEvent> {
        let all = self.audit.recent(usize::MAX);
        let migrations: Vec<DecisionEvent> =
            all.into_iter().filter(|e| e.kind == DecisionKind::Migration).collect();
        let skip = migrations.len().saturating_sub(n);
        migrations.into_iter().skip(skip).collect()
    }

    // -- Checkpointing -------------------------------------------------------

    /// Serializes the namespace to a checkpoint image.
    pub fn checkpoint(&self) -> Vec<u8> {
        encode_image(&self.namespace.read().ns)
    }

    /// Restores a master from a checkpoint image (locations empty until
    /// block reports arrive, as in HDFS).
    pub fn restore(config: ClusterConfig, image: &[u8]) -> Result<Self> {
        Self::with_log(config, EditLog::from_bytes(image.to_vec())?)
    }

    /// The *durable* edit log from record `from` on, as the log's own
    /// framed bytes — what the backup master tails; staged-but-unsynced
    /// ops are not yet visible. One reply is capped at 4 MiB of whole
    /// records: call again from the next record until it comes back empty.
    pub fn edits_since(&self, from: usize) -> Result<Vec<u8>> {
        self.log.tail(from as u64)
    }

    /// [`Master::edits_since`] to the durable end, decoded (test and
    /// diagnostic hook).
    pub fn edit_ops_since(&self, from: usize) -> Result<Vec<EditOp>> {
        let mut ops = Vec::new();
        loop {
            let reply = self.edits_since(from + ops.len())?;
            if reply.is_empty() {
                return Ok(ops);
            }
            ops.extend(decode_stream(&reply)?);
        }
    }

    /// Number of durable ops in the edit log.
    pub fn edit_count(&self) -> usize {
        self.log.durable_len()
    }

    /// The policy-facing snapshot (exposed for harnesses and tests).
    pub fn snapshot(&self) -> octopus_policies::ClusterSnapshot {
        self.cluster.lock().snapshot()
    }

    /// Confirmed replica locations of a block (test/diagnostic hook).
    pub fn block_locations(&self, id: BlockId) -> Vec<Location> {
        self.blocks.read().get(id).map(|i| i.locations.clone()).unwrap_or_default()
    }

    /// Every `(block, owning file)` pair in the block map, in block-id
    /// order (test/diagnostic hook — the namespace↔blockmap bijection
    /// invariant of the stress suite audits against it).
    pub fn block_inventory(&self) -> Vec<(BlockId, INodeId)> {
        let mut out: Vec<(BlockId, INodeId)> =
            self.blocks.read().iter().map(|(id, info)| (*id, info.file)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Still-pending (scheduled, uncommitted) replica locations of a block
    /// (test/diagnostic hook).
    pub fn pending_locations(&self, id: BlockId) -> Vec<Location> {
        self.blocks.read().get(id).map(|i| i.pending.clone()).unwrap_or_default()
    }

    /// Scheduled-write bytes currently reserved against a medium
    /// (test/diagnostic hook for reservation-leak regressions).
    pub fn scheduled_bytes(&self, media: MediaId) -> u64 {
        self.cluster.lock().scheduled_bytes(media)
    }

    // -- Tiering telemetry ---------------------------------------------------

    /// Access-heat summary for the file at `path` as of the master's
    /// logical clock. Untouched files report all-zero heat.
    pub fn file_heat(&self, path: &str) -> Result<HeatInfo> {
        let file = self.namespace.read().ns.resolve(path)?;
        Ok(self.heat.lock().info(file, self.now_ms()))
    }

    /// Number of files the heat tracker currently holds state for. Bounded
    /// by delete/rename forgetting and the per-tick decay GC — the
    /// heat-leak regression tests pin that behaviour.
    pub fn heat_tracked_files(&self) -> usize {
        self.heat.lock().len()
    }

    /// The `k` hottest files by EWMA heat score, hottest first, with their
    /// current namespace paths. Files deleted since their last touch are
    /// omitted.
    pub fn hot_files(&self, k: usize) -> Vec<HotFile> {
        let now = self.now_ms();
        // Over-fetch so deleted files do not shrink the answer below `k`.
        let hottest = self.heat.lock().hottest(k.saturating_mul(2), now);
        let g = self.namespace.read();
        hottest
            .into_iter()
            .filter_map(|heat| {
                g.ns.file_meta(heat.file).ok()?;
                Some(HotFile { path: g.ns.path_of(heat.file).ok()?, heat })
            })
            .take(k)
            .collect()
    }

    /// Every audited decision event still retained for `block`, oldest
    /// first — placement, reassignment, retrieval orderings, and removals.
    pub fn explain(&self, block: BlockId) -> Vec<DecisionEvent> {
        self.audit.by_block(block)
    }

    /// One-stop cluster status for the operator surface: namespace and
    /// block counts, per-tier aggregates, per-worker lines, the hottest
    /// files, and audit-ring occupancy.
    pub fn cluster_status(&self, hot_k: usize) -> ClusterStatusReport {
        let files = self.namespace.read().ns.counts().0 as u64;
        let (blocks, in_flight_blocks) = {
            let g = self.blocks.read();
            (g.len() as u64, g.iter().filter(|(_, i)| !i.pending.is_empty()).count() as u64)
        };
        let (scheduled_bytes, tiers, workers) = {
            let c = self.cluster.lock();
            let workers: Vec<WorkerStatusLine> = c
                .workers()
                .map(|w| WorkerStatusLine {
                    worker: w.worker,
                    rack: w.rack,
                    live: w.live,
                    nr_conn: w.nr_conn,
                    last_heartbeat_ms: w.last_heartbeat_ms,
                    media: w.media.clone(),
                })
                .collect();
            (c.total_scheduled_bytes(), c.tier_reports(&self.config.tiers), workers)
        };
        ClusterStatusReport {
            now_ms: self.now_ms(),
            safe_mode: self.in_safe_mode(),
            files,
            blocks,
            in_flight_blocks,
            scheduled_bytes,
            tiers,
            workers,
            hot: self.hot_files(hot_k),
            decisions_recorded: self.audit.recorded(),
            decisions_retained: self.audit.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::{MediaId, StorageTier};
    use octopus_policies::EwmaThresholdClassifier;

    /// Registers `n` live workers with one medium per tier each, as if
    /// heartbeats had arrived.
    fn boot_master(n: u32) -> Master {
        boot_master_from(n, EditLog::in_memory())
    }

    /// [`boot_master`] on the history in `log`.
    fn boot_master_from(n: u32, log: EditLog) -> Master {
        let config = ClusterConfig::test_cluster(n, 10 << 20, 1 << 20);
        let master = Master::with_log(config, log).unwrap();
        for w in 0..n {
            let rack = RackId((w % 2) as u16);
            master.register_worker(WorkerId(w), rack, 1e9, 0);
            let media: Vec<MediaStats> = (0..3u8)
                .map(|t| MediaStats {
                    media: MediaId(w * 3 + t as u32),
                    worker: WorkerId(w),
                    rack,
                    tier: TierId(t),
                    capacity: 10 << 20,
                    remaining: 10 << 20,
                    nr_conn: 0,
                    write_thru: [1900.0, 340.0, 126.0][t as usize] * 1048576.0,
                    read_thru: [3200.0, 420.0, 177.0][t as usize] * 1048576.0,
                })
                .collect();
            master.heartbeat(WorkerId(w), media, 0, 0).unwrap();
        }
        master
    }

    fn rv_u(r: u8) -> ReplicationVector {
        ReplicationVector::from_replication_factor(r)
    }

    /// A stamp the log holds is not issued again by the master that boots
    /// from it.
    #[test]
    fn a_recovered_master_issues_generation_stamps_above_the_replayed_ones() {
        let m = boot_master(3);
        m.create_file("/f", rv_u(1), None).unwrap();
        let replayed: Vec<GenStamp> = (0..3)
            .map(|_| m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap().0.gen)
            .collect();
        let log = EditLog::from_bytes(m.edits_since(0).unwrap()).unwrap();
        let recovered = boot_master_from(3, log);
        assert_eq!(recovered.block_inventory().len(), 3);
        recovered.leave_safe_mode();
        recovered.create_file("/g", rv_u(1), None).unwrap();
        let (fresh, _) = recovered.add_block("/g", 1 << 20, ClientLocation::OffCluster).unwrap();
        assert!(replayed.iter().all(|gen| fresh.gen > *gen), "{:?} after {replayed:?}", fresh.gen);
    }

    /// Every append starts a fresh block, so a block before the last may be
    /// short; a checkpoint gives each block back at the length it was added
    /// with (it wrote "full but the last": 1 MiB and an underflow).
    #[test]
    fn a_checkpoint_keeps_a_short_block_before_the_last() {
        let m = boot_master(3);
        m.create_file("/f", rv_u(1), None).unwrap();
        m.add_block("/f", 100, ClientLocation::OffCluster).unwrap();
        m.complete_file("/f").unwrap();
        m.append_file_as("/f", ClientId::SYSTEM).unwrap();
        m.add_block("/f", 50, ClientLocation::OffCluster).unwrap();
        m.complete_file("/f").unwrap();

        let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
        let restored = Master::restore(config, &m.checkpoint()).unwrap();
        let located =
            restored.get_file_block_locations("/f", 0, u64::MAX, ClientLocation::OffCluster);
        let lengths: Vec<(u64, u64)> =
            located.unwrap().iter().map(|b| (b.offset, b.block.len)).collect();
        assert_eq!(lengths, [(0, 100), (100, 50)]);
        assert_eq!(restored.status("/f").unwrap().len, 150);
        assert_eq!(restored.checkpoint(), m.checkpoint());
    }

    #[test]
    fn create_write_read_lifecycle() {
        let m = boot_master(6);
        m.mkdir("/data").unwrap();
        m.create_file("/data/f", rv_u(3), None).unwrap();
        let (block, locs) = m.add_block("/data/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        assert_eq!(locs.len(), 3);
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file("/data/f").unwrap();
        let located =
            m.get_file_block_locations("/data/f", 0, u64::MAX, ClientLocation::OffCluster).unwrap();
        assert_eq!(located.len(), 1);
        assert_eq!(located[0].locations.len(), 3);
        assert_eq!(located[0].block, block);
        let st = m.status("/data/f").unwrap();
        assert_eq!(st.len, 1 << 20);
        assert!(st.complete);
    }

    #[test]
    fn add_block_validations() {
        let m = boot_master(3);
        m.create_file("/f", rv_u(2), None).unwrap();
        assert!(m.add_block("/f", 0, ClientLocation::OffCluster).is_err());
        assert!(m.add_block("/f", 2 << 20, ClientLocation::OffCluster).is_err());
        m.complete_file("/f").unwrap();
        assert!(m.add_block("/f", 1 << 20, ClientLocation::OffCluster).is_err());
    }

    #[test]
    fn create_file_validates_vector() {
        let m = boot_master(3);
        // Tier 3 (Remote) is not configured in the test cluster.
        let bad = ReplicationVector::mshru(0, 0, 0, 1, 0);
        assert!(m.create_file("/f", bad, None).is_err());
        assert!(m.create_file("/f", ReplicationVector::EMPTY, None).is_err());
        let over = rv_u(200);
        assert!(m.create_file("/f", over, None).is_err());
    }

    #[test]
    fn scheduled_writes_prevent_oversubscription() {
        // Media have 10 MB; place 10 blocks of 1 MB with r=3 on 6 workers:
        // every placement must see reduced remaining and still succeed.
        let m = boot_master(6);
        m.create_file("/f", rv_u(3), None).unwrap();
        for _ in 0..10 {
            let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
            for l in locs {
                m.commit_replica(block, l).unwrap();
            }
        }
        let snap = m.snapshot();
        // 30 MB written over 18 media of 10 MB: nothing negative.
        for media in &snap.media {
            assert!(media.remaining <= 10 << 20);
        }
    }

    #[test]
    fn abort_replica_releases_the_scheduled_reservation() {
        // Regression: abort_replica used to call complete_write(media, 0),
        // which released zero of the `len` bytes add_block reserved via
        // schedule_write — every aborted pipeline stage leaked its
        // reservation until the medium looked permanently full.
        let m = boot_master(6);
        m.create_file("/f", rv_u(3), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            assert_eq!(m.scheduled_bytes(l.media), 1 << 20);
        }
        // The whole pipeline fails before storing anything.
        for l in &locs {
            m.abort_replica(block, *l);
        }
        for l in &locs {
            assert_eq!(m.scheduled_bytes(l.media), 0, "aborted stage must return its reservation");
        }
        assert!(m.pending_locations(block.id).is_empty());
        // A repeated (spurious) abort must not underflow or double-release.
        m.abort_replica(block, locs[0]);
        assert_eq!(m.scheduled_bytes(locs[0].media), 0);
    }

    #[test]
    fn abort_replica_refuses_to_demote_a_committed_location() {
        let m = boot_master(6);
        m.create_file("/f", rv_u(3), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        // Stages 1 and 2 store and commit; the forwarder then loses the
        // connection and sends aborts for every downstream stage.
        m.commit_replica(block, locs[1]).unwrap();
        m.commit_replica(block, locs[2]).unwrap();
        m.abort_replica(block, locs[1]);
        m.abort_replica(block, locs[2]);
        let live = m.block_locations(block.id);
        assert!(live.contains(&locs[1]) && live.contains(&locs[2]));
        assert_eq!(live.len(), 2, "late aborts must not strip committed replicas");
        // Committed stages already consumed their reservation via
        // commit_replica; the late abort must not touch it again.
        assert_eq!(m.scheduled_bytes(locs[1].media), 0);
    }

    #[test]
    fn replication_scan_restores_lost_replicas() {
        let m = boot_master(6);
        m.create_file("/f", rv_u(3), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file("/f").unwrap();
        assert!(m.replication_scan().is_empty(), "satisfied block needs no tasks");

        // Kill the worker hosting the first replica.
        m.kill_worker(locs[0].worker);
        let tasks = m.replication_scan();
        assert_eq!(tasks.len(), 1);
        let ReplicationTask::Copy { block: b, sources, target } = &tasks[0] else {
            panic!("expected a copy task");
        };
        assert_eq!(b.id, block.id);
        assert!(!sources.is_empty());
        assert_ne!(target.worker, locs[0].worker);
        // Sources must be surviving confirmed replicas.
        for s in sources {
            assert!(locs[1..].contains(s));
        }
        // A second scan must not double-schedule.
        assert!(m.replication_scan().is_empty());
        // Completing the copy confirms the replica.
        m.commit_replica(block, *target).unwrap();
        assert_eq!(m.block_locations(block.id).len(), 3);
    }

    #[test]
    fn set_replication_triggers_move_between_tiers() {
        let m = boot_master(6);
        // Pin: 1 memory + 2 HDD.
        m.create_file("/f", ReplicationVector::msh(1, 0, 2), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file("/f").unwrap();

        // Move one HDD replica to SSD: ⟨1,0,2⟩ → ⟨1,1,1⟩.
        let old = m.set_replication("/f", ReplicationVector::msh(1, 1, 1)).unwrap();
        assert_eq!(old, ReplicationVector::msh(1, 0, 2));
        let tasks = m.replication_scan();
        let copies: Vec<_> =
            tasks.iter().filter(|t| matches!(t, ReplicationTask::Copy { .. })).collect();
        let deletes: Vec<_> =
            tasks.iter().filter(|t| matches!(t, ReplicationTask::Delete { .. })).collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(deletes.len(), 1);
        if let ReplicationTask::Copy { target, .. } = copies[0] {
            assert_eq!(target.tier, StorageTier::Ssd.id());
        }
        if let ReplicationTask::Delete { location, .. } = deletes[0] {
            assert_eq!(location.tier, StorageTier::Hdd.id());
        }
    }

    #[test]
    fn delete_returns_locations_for_invalidation() {
        let m = boot_master(3);
        m.create_file("/f", rv_u(2), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file("/f").unwrap();
        let dropped = m.delete("/f", false).unwrap();
        assert_eq!(dropped.len(), 2);
        assert!(m.status("/f").is_err());
        assert!(m.block_locations(block.id).is_empty());
    }

    #[test]
    fn block_report_reconciles() {
        let m = boot_master(3);
        m.create_file("/f", rv_u(1), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        let loc = locs[0];
        // Worker reports the block: pending → confirmed.
        let invalid = m.block_report(loc.worker, &[(block, loc.media)]).unwrap();
        assert!(invalid.is_empty());
        assert_eq!(m.block_locations(block.id), vec![loc]);
        // Worker reports an unknown block → invalidation.
        let ghost = Block { id: BlockId(9999), gen: GenStamp(0), len: 1 };
        let invalid =
            m.block_report(loc.worker, &[(block, loc.media), (ghost, loc.media)]).unwrap();
        assert_eq!(invalid, vec![BlockId(9999)]);
        // Worker stops reporting the block → replica dropped.
        let invalid = m.block_report(loc.worker, &[]).unwrap();
        assert!(invalid.is_empty());
        assert!(m.block_locations(block.id).is_empty());
    }

    #[test]
    fn stale_block_report_keeps_a_replica_committed_after_its_snapshot() {
        for seed in 0..8u32 {
            let m = boot_master(4);
            let block = put_file(&m, "/f", rv_u(3));
            let locs = m.block_locations(block.id);
            let victim = locs[seed as usize % locs.len()];
            // The victim worker snapshotted its report before the commit
            // landed, so the report does not list the new replica.
            m.block_report(victim.worker, &[]).unwrap();
            assert_eq!(m.block_locations(block.id).len(), 3, "fresh commit dropped");
            assert!(m.replication_scan().is_empty(), "healthy block must not be copied");
            // Its next report is newer than the commit: still absent
            // means genuinely lost.
            m.block_report(victim.worker, &[]).unwrap();
            assert!(!m.block_locations(block.id).contains(&victim));
            assert_eq!(m.replication_scan().len(), 1);
        }
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let m = boot_master(3);
        m.mkdir("/a/b").unwrap();
        m.create_file("/a/f", rv_u(2), None).unwrap();
        let (block, locs) = m.add_block("/a/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file("/a/f").unwrap();

        let image = m.checkpoint();
        let restored = Master::restore(m.config().clone(), &image).unwrap();
        let st = restored.status("/a/f").unwrap();
        assert_eq!(st.len, 1 << 20);
        assert!(st.complete);
        // Locations are rebuilt from block reports.
        assert!(restored.block_locations(block.id).is_empty());
        restored.register_worker(locs[0].worker, RackId(0), 1e9, 0);
        let media_stats = vec![MediaStats {
            media: locs[0].media,
            worker: locs[0].worker,
            rack: RackId(0),
            tier: locs[0].tier,
            capacity: 10 << 20,
            remaining: 9 << 20,
            nr_conn: 0,
            write_thru: 1e8,
            read_thru: 1e8,
        }];
        restored.heartbeat(locs[0].worker, media_stats, 0, 0).unwrap();
        restored.block_report(locs[0].worker, &[(block, locs[0].media)]).unwrap();
        assert_eq!(restored.block_locations(block.id), vec![locs[0]]);
        // New block ids never collide with restored ones.
        restored.create_file("/a/g", rv_u(1), None).unwrap();
        // (worker capacity is tracked; a fresh block id is issued)
        let (b2, _) = restored.add_block("/a/g", 1 << 20, ClientLocation::OffCluster).unwrap();
        assert!(b2.id > block.id);
    }

    #[test]
    fn dead_worker_tick_drops_locations() {
        let m = boot_master(4);
        m.create_file("/f", rv_u(3), None).unwrap();
        let (block, locs) = m.add_block("/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        // heartbeat_ms=100, dead after 10 missed → all workers dead at t>1000.
        let dead = m.tick(5000);
        assert_eq!(dead.len(), 4);
        assert!(m.block_locations(block.id).is_empty());
    }

    #[test]
    fn tier_reports_present() {
        let m = boot_master(3);
        let reports = m.get_storage_tier_reports();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].name, "Memory");
        assert!(reports[0].volatile);
        assert_eq!(reports[2].stats.num_media, 3);
    }

    #[test]
    fn quota_flow_through_master() {
        let m = boot_master(3);
        m.mkdir("/tenant").unwrap();
        m.set_quota("/tenant", TierQuota::limit_tier(0, 1 << 20)).unwrap();
        m.create_file("/tenant/f", ReplicationVector::msh(1, 0, 1), None).unwrap();
        m.add_block("/tenant/f", 1 << 20, ClientLocation::OffCluster).unwrap();
        let err = m.add_block("/tenant/f", 1 << 20, ClientLocation::OffCluster);
        assert!(matches!(err, Err(FsError::QuotaExceeded(_))));
        let (q, usage) = m.quota_usage("/tenant").unwrap();
        assert_eq!(q, TierQuota::limit_tier(0, 1 << 20));
        assert_eq!(usage[0], 1 << 20);
    }

    /// Writes a complete one-block file and returns its block.
    fn put_file(m: &Master, path: &str, rv: ReplicationVector) -> Block {
        m.create_file(path, rv, None).unwrap();
        let (block, locs) = m.add_block(path, 1 << 20, ClientLocation::OffCluster).unwrap();
        for l in &locs {
            m.commit_replica(block, *l).unwrap();
        }
        m.complete_file(path).unwrap();
        block
    }

    fn touch(m: &Master, block: Block, reads: u32, now_ms: u64) {
        m.observe_touches(&[BlockTouches { block: block.id, reads, writes: 0 }], now_ms);
    }

    #[test]
    fn delete_forgets_file_heat_and_recreated_file_starts_cold() {
        // Regression: heat entries used to outlive their inode — delete
        // left the tracker entry in place forever, and a file re-created
        // at the same path could inherit nothing (new inode id) while the
        // dead entry still leaked memory and polluted `hot_files`.
        let m = boot_master(3);
        let block = put_file(&m, "/f", rv_u(1));
        touch(&m, block, 5, 0);
        assert_eq!(m.heat_tracked_files(), 1);
        assert_eq!(m.hot_files(10).len(), 1);

        m.delete("/f", false).unwrap();
        assert_eq!(m.heat_tracked_files(), 0, "delete must forget the file's heat");
        assert!(m.hot_files(10).is_empty());

        // Re-creating the path yields a cold file: no tracked heat and no
        // promotion from the auto-tiering planner.
        put_file(&m, "/f", rv_u(1));
        assert_eq!(m.heat_tracked_files(), 0);
        let decisions =
            m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
        assert!(
            !decisions.iter().any(|d| d.direction == MigrationDirection::Promote),
            "recreated file must start cold"
        );
    }

    #[test]
    fn what_held_a_deleted_files_id_does_not_see_its_slots_next_tenant() {
        let m = boot_master(3);
        let old_block = put_file(&m, "/old", rv_u(1));
        let old = m.status("/old").unwrap().id;
        touch(&m, old_block, 9, 0);
        m.delete("/old", false).unwrap();
        // Create until a file moves into the freed slot.
        let tenant = (0..100)
            .map(|i| format!("/new{i}"))
            .find(|path| {
                put_file(&m, path, rv_u(1));
                m.status(path).unwrap().id.slot() == old.slot()
            })
            .expect("a freed slot is reused");
        let id = m.status(&tenant).unwrap().id;
        assert_eq!((id.slot(), id.generation()), (old.slot(), old.generation() + 1));

        // Heat: a heartbeat that still reports touches of the deleted block
        // warms nothing, and the tenant starts cold.
        touch(&m, old_block, 9, 0);
        assert_eq!(m.heat_tracked_files(), 0);
        assert_eq!(m.file_heat(&tenant).unwrap().score, 0.0);
        assert!(m.hot_files(10).is_empty());
        // Audit: the old block's events still name the old id, which the
        // namespace no longer resolves — not to the tenant, not to anything.
        let events = m.explain(old_block.id);
        assert!(!events.is_empty() && events.iter().all(|e| e.file == old));
        let g = m.namespace.read();
        assert!(matches!(g.ns.path_of(old), Err(FsError::Internal(_))));
        assert!(matches!(g.ns.file_meta(old), Err(FsError::Internal(_))));
        assert_eq!(g.ns.path_of(id).unwrap(), tenant);
    }

    #[test]
    fn delete_recursive_forgets_subtree_heat() {
        let m = boot_master(3);
        m.mkdir("/d").unwrap();
        let a = put_file(&m, "/d/a", rv_u(1));
        let b = put_file(&m, "/d/b", rv_u(1));
        touch(&m, a, 3, 0);
        touch(&m, b, 3, 0);
        assert_eq!(m.heat_tracked_files(), 2);
        m.delete("/d", true).unwrap();
        assert_eq!(m.heat_tracked_files(), 0);
    }

    #[test]
    fn rename_resets_heat() {
        // A common pattern writes to a staging path and renames into
        // place; the published file should not inherit staging heat.
        let m = boot_master(3);
        let block = put_file(&m, "/staging", rv_u(1));
        touch(&m, block, 5, 0);
        assert_eq!(m.heat_tracked_files(), 1);
        m.rename("/staging", "/published").unwrap();
        assert_eq!(m.heat_tracked_files(), 0, "rename must reset the file's heat");
    }

    #[test]
    fn tick_gcs_decayed_heat_entries() {
        let m = boot_master(3);
        let block = put_file(&m, "/f", rv_u(1));
        touch(&m, block, 5, 0);
        assert_eq!(m.heat_tracked_files(), 1);
        // A short tick keeps the entry alive (score still well above zero).
        m.tick(100);
        assert_eq!(m.heat_tracked_files(), 1);
        // After a long idle stretch the EWMA decays to ~0 and the tick-time
        // GC drops the entry (workers also go dead at this clock; the GC
        // must still run).
        m.tick(1_000_000);
        assert_eq!(m.heat_tracked_files(), 0, "tick must GC fully decayed heat entries");
    }

    #[test]
    fn autotier_promotes_hot_and_leaves_warm_alone() {
        let m = boot_master(3);
        let hot = put_file(&m, "/hot", ReplicationVector::msh(0, 0, 1));
        let warm = put_file(&m, "/warm", ReplicationVector::msh(0, 0, 1));
        // 5 touches this epoch → score 0.4·5 = 2.0 (hot); 1 touch → 0.4
        // (inside the warm hysteresis band).
        touch(&m, hot, 5, 0);
        touch(&m, warm, 1, 0);

        let decisions =
            m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.path, "/hot");
        assert_eq!(d.direction, MigrationDirection::Promote);
        assert_eq!(d.from, ReplicationVector::msh(0, 0, 1));
        assert_eq!(d.to, ReplicationVector::msh(1, 0, 1));
        assert_eq!(d.copy_bytes, 1 << 20);

        // The vector edit is visible in the namespace and the §5 monitor
        // realizes it as a copy toward the Memory tier.
        assert_eq!(m.status("/hot").unwrap().rv, ReplicationVector::msh(1, 0, 1));
        assert_eq!(m.status("/warm").unwrap().rv, ReplicationVector::msh(0, 0, 1));
        let tasks = m.replication_scan();
        assert_eq!(tasks.len(), 1);
        let ReplicationTask::Copy { target, .. } = &tasks[0] else {
            panic!("expected a copy task");
        };
        assert_eq!(target.tier, StorageTier::Memory.id());

        // The move is recorded in the audit ring.
        let events = m.recent_migrations(10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, DecisionKind::Migration);
        assert!(events[0].policy.contains("promote"), "policy line: {}", events[0].policy);

        // Idempotent: the file already has its memory replica planned.
        assert!(m
            .autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default())
            .is_empty());
    }

    #[test]
    fn autotier_demotes_cold_files_without_losing_last_replica() {
        let m = boot_master(3);
        put_file(&m, "/cold", ReplicationVector::msh(1, 0, 1));
        // A memory-only file must be demoted *to* somewhere, not to zero
        // replicas.
        put_file(&m, "/pinned", ReplicationVector::msh(1, 0, 0));

        let decisions =
            m.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
        assert_eq!(decisions.len(), 2);
        for d in &decisions {
            assert_eq!(d.direction, MigrationDirection::Demote);
        }
        assert_eq!(m.status("/cold").unwrap().rv, ReplicationVector::msh(0, 0, 1));
        assert_eq!(m.status("/pinned").unwrap().rv, ReplicationVector::msh(0, 0, 1));

        // The monitor turns the /cold demotion into a memory-replica
        // delete, and copies /pinned to HDD before trimming memory: the
        // memory replica is /pinned's only copy, so its trim must wait.
        let tasks = m.replication_scan();
        let deletes: Vec<_> = tasks
            .iter()
            .filter_map(|t| match t {
                ReplicationTask::Delete { location, .. } => Some(*location),
                _ => None,
            })
            .collect();
        assert_eq!(deletes.len(), 1, "only the safely-replicated file is trimmed immediately");
        assert_eq!(deletes[0].tier, StorageTier::Memory.id());
        let copies: Vec<_> = tasks
            .iter()
            .filter_map(|t| match t {
                ReplicationTask::Copy { block, target, .. } => Some((*block, *target)),
                _ => None,
            })
            .collect();
        assert_eq!(copies.len(), 1);
        let (pinned_block, target) = copies[0];
        assert_eq!(target.tier, StorageTier::Hdd.id());

        // Once the HDD copy confirms, the next scan completes the demotion
        // by trimming the now-redundant memory replica.
        m.commit_replica(pinned_block, target).unwrap();
        let tasks = m.replication_scan();
        assert_eq!(tasks.len(), 1);
        let ReplicationTask::Delete { location, .. } = &tasks[0] else {
            panic!("expected the deferred memory trim");
        };
        assert_eq!(location.tier, StorageTier::Memory.id());
    }

    #[test]
    fn autotier_respects_round_budgets() {
        let m = boot_master(3);
        let blocks: Vec<Block> = (0..4)
            .map(|i| put_file(&m, &format!("/f{i}"), ReplicationVector::msh(0, 0, 1)))
            .collect();
        for (i, b) in blocks.iter().enumerate() {
            // Distinct hotness so the ordering is deterministic: f0 hottest.
            touch(&m, *b, 10 - i as u32, 0);
        }

        let cfg = AutoTierConfig { max_files_per_round: 2, ..AutoTierConfig::default() };
        let decisions = m.autotier_scan(&EwmaThresholdClassifier::default(), &cfg);
        assert_eq!(decisions.len(), 2, "file cap bounds the round");
        assert_eq!(decisions[0].path, "/f0", "hottest files migrate first");
        assert_eq!(decisions[1].path, "/f1");

        // Byte budget: one 1 MB file fits, the rest wait for later rounds.
        let cfg = AutoTierConfig { max_bytes_per_round: 1 << 20, ..AutoTierConfig::default() };
        let decisions = m.autotier_scan(&EwmaThresholdClassifier::default(), &cfg);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].path, "/f2");
    }
}
