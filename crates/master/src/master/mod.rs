//! The [`Master`] facade: the client-facing namespace/block API (Table 1),
//! heartbeat and block-report processing, and the replication monitor (§5).
//! Here: the state, its recovery from the edit log, per-op measurement,
//! the clock and safe mode. One submodule per concern: `namespace_ops`,
//! `blocks` (block lifecycle, worker-facing calls), `monitor` (§5 scans,
//! automated tiering) and `views` (telemetry and diagnostic views).
//!
//! # Concurrency (DESIGN.md §11)
//!
//! One [`Namespace`] behind one lock (`master.namespace`), and the
//! [`BlockMap`] with the [`ClusterState`] its replicas sit on behind
//! another (`master.blocks`) — kept apart so the one `CommitReplica` a
//! pipeline head sends per block, and the monitor's commit of each copy,
//! never touch the namespace lock, and together so a replica is recorded
//! only on a worker the same guard holds live. Lock order: namespace →
//! blocks; the heat tracker and the audit ring are leaves. Every guard a
//! metadata op takes goes through its [`OpCtx`], so its wait is counted as
//! lock wait.
//! Durability is group-committed: a mutation stages its [`EditOp`] under
//! the namespace guard (so log order is the linearization order) and waits
//! for the batched fsync after releasing it, so the disk sync never
//! serializes the namespace.

mod blocks;
mod monitor;
mod namespace_ops;
mod views;

pub use monitor::ReplicationTask;

use octopus_common::lockstat::{
    LockStats, StatMutex, StatMutexGuard, StatReadGuard, StatRwLock, StatWriteGuard,
};
use octopus_common::metrics::{BucketLayout, Counter, Histogram, Labels, MetricsRegistry};
use octopus_common::trace::TraceCollector;
use octopus_common::{
    AuditRing, BlockId, ClusterConfig, FsError, HeatTracker, INodeId, IdGenerator, Result,
};
use octopus_policies::{
    build_placement_policy, build_retrieval_policy, PlacementPolicy, RetrievalPolicy,
};

use crate::blockmap::BlockMap;
use crate::cluster::ClusterState;
use crate::editlog::{decode_stream, encode_image, BlockChange, EditLog, EditOp, GroupCommitLog};
use crate::lease::{ClientId, LeaseManager};
use crate::namespace::{normalize, Cursor, Namespace};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Fraction of awaited blocks that must have at least one confirmed
/// replica before a restarted master leaves safe mode automatically.
const SAFE_MODE_THRESHOLD: f64 = 0.999;

/// How long a client write lease lives without renewal, in heartbeat
/// intervals (client operations renew implicitly).
const LEASE_HEARTBEATS: u64 = 20;

/// Declares [`MetaOp`] and each op's `op=` label in one table.
macro_rules! meta_ops {
    ($($op:ident => $label:literal,)*) => {
        /// The metadata operations the master profiles individually. Every
        /// public metadata entry point maps to one of these; its latency
        /// lands in `master_meta_op_us{op=…}` split into lock-wait / work /
        /// edit-log segments (the contention observatory, DESIGN.md §7).
        #[derive(Clone, Copy)]
        enum MetaOp {
            $($op,)*
        }

        /// Each [`MetaOp`]'s label, indexed by discriminant.
        const META_OP_LABELS: &[&str] = &[$($label,)*];
    };
}

meta_ops! {
    Mkdir => "mkdir",
    Create => "create",
    AddBlock => "add_block",
    ReassignBlock => "reassign_block",
    AbandonBlock => "abandon_block",
    CommitReplica => "commit_replica",
    Append => "append",
    Complete => "complete",
    Locations => "get_block_locations",
    Stat => "stat",
    List => "list",
    SetReplication => "set_replication",
    Rename => "rename",
    Delete => "delete",
    SetQuota => "set_quota",
    Heartbeat => "heartbeat",
    BlockReport => "block_report",
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

impl OpStat {
    fn register(reg: &MetricsRegistry, op: &'static str) -> Self {
        let (l, micro) = (Labels::op(op), BucketLayout::Micro);
        OpStat {
            ops: reg.counter("master_meta_ops_total", l),
            errors: reg.counter("master_meta_op_errors_total", l),
            total: reg.histogram_with("master_meta_op_us", l, micro),
            lock_wait: reg.histogram_with("master_meta_op_lock_wait_us", l, micro),
            work: reg.histogram_with("master_meta_op_work_us", l, micro),
            log: reg.histogram_with("master_meta_op_log_us", l, micro),
        }
    }
}

/// Per-call measurement context for one metadata operation: accumulates
/// lock-wait and edit-log time as the op touches those resources, then
/// [`OpCtx::finish_with`] stamps total / lock-wait / log / work (= the
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

    /// Runs the op body, then completes the measurement from its outcome:
    /// one op counted (an error, if the body failed), and the total split
    /// into lock-wait + log + work.
    fn finish_with<T>(&self, body: impl FnOnce() -> Result<T>) -> Result<T> {
        let r = body();
        let total = self.start.elapsed().as_micros() as u64;
        let wait = self.lock_wait_us.get();
        let logged = self.log_us.get();
        self.stat.ops.inc();
        if r.is_err() {
            self.stat.errors.inc();
        }
        self.stat.total.observe_us(total);
        self.stat.lock_wait.observe_us(wait);
        self.stat.log.observe_us(logged);
        self.stat.work.observe_us(total.saturating_sub(wait).saturating_sub(logged));
        r
    }
}

/// What the namespace lock guards: the inode tree, plus the write leases,
/// which only ever change together with it (every lease operation is part
/// of a namespace mutation).
struct NamespaceState {
    ns: Namespace,
    leases: LeaseManager,
}

/// What the blocks lock guards: every block's replicas and the workers
/// they sit on, so the two change in one step (`master/blocks.rs`).
struct BlockState {
    map: BlockMap,
    cluster: ClusterState,
    awaited: Awaited,
}

/// What safe mode waits for (§2.1): every block a replayed master knows,
/// except the last block of each file still under construction, which an
/// interrupted write may never have stored.
struct Awaited {
    /// Blocks awaited at boot.
    total: usize,
    /// Of those, the ones no report has given a replica yet (a block that
    /// loses its replicas in safe mode and is reported again counts twice).
    left: usize,
    /// The last blocks of files under construction at boot.
    exempt: Vec<BlockId>,
}

impl Awaited {
    /// A report gave block `id` its first replica.
    fn reported(&mut self, id: BlockId) {
        if !self.exempt.contains(&id) {
            self.left = self.left.saturating_sub(1);
        }
    }

    /// Whether enough awaited blocks have a replica to leave safe mode.
    fn reached(&self) -> bool {
        (self.total - self.left) as f64 >= self.total as f64 * SAFE_MODE_THRESHOLD
    }
}

/// The OctopusFS (primary) master.
///
/// Lock order (DESIGN.md §11): `namespace` → `blocks`; `heat` and the
/// audit ring are leaves. No op, the auto-tierer's edits included,
/// holds a guard across an edit-log fsync.
pub struct Master {
    namespace: StatRwLock<NamespaceState>,
    /// Apart from the namespace so `commit_replicas` (one per block
    /// written) never takes the namespace lock.
    blocks: StatRwLock<BlockState>,
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
    /// One [`OpStat`] per [`MetaOp`], indexed by discriminant.
    ops: Vec<OpStat>,
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
    /// durability). Existing log contents are replayed into the namespace —
    /// from a file, in the one pass that also recovers it
    /// ([`EditLog::replay`]); a checkpoint image is a log too
    /// (`EditLog::from_bytes`), and a master restored from one learns its
    /// replica locations from block reports, as in HDFS.
    pub fn with_log(config: ClusterConfig, mut log: EditLog) -> Result<Self> {
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
        let replayed = log.replay(|op| {
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
                BlockChange::Abandoned(id) => drop(blocks.remove_block(id)),
                BlockChange::None => {}
            }
            Ok(())
        })?;

        let replay_us = started.elapsed().as_micros() as u64;
        if replayed > 0 {
            octopus_common::log_info!(
                "msg=\"replayed {replayed} ops in {} ms\" finger_hits={}",
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
        // (A log without blocks skips the walk of its files.)
        let exempt: Vec<BlockId> = if blocks.is_empty() {
            Vec::new()
        } else {
            (ns.files().filter(|(_, meta)| !meta.complete))
                .filter_map(|(_, meta)| Some(meta.blocks.last()?.0))
                .collect()
        };
        let total = blocks.len() - exempt.len();
        let awaited = Awaited { total, left: total, exempt };
        let safe_mode = total > 0;
        let metrics = MetricsRegistry::new();
        // Pre-register the scrape-time drop counter so it is present (at
        // zero) in every snapshot, not only after the first wrap.
        metrics.counter("master_audit_dropped_total", Labels::NONE);
        // What the last recovery cost, and how the cursor resolved its paths
        // and placed its creates.
        for (name, n) in [
            ("master_replay_ops_total", replayed),
            ("master_replay_us", replay_us),
            ("master_replay_path_hits_total", cursor.path_hits),
            ("master_replay_parent_hits_total", cursor.parent_hits),
            ("master_replay_walks_total", cursor.walks),
            ("master_replay_finger_hits_total", cursor.finger_hits),
        ] {
            metrics.add(name, Labels::NONE, n);
        }
        let ops = META_OP_LABELS.iter().map(|&op| OpStat::register(&metrics, op)).collect();
        let namespace_stats = LockStats::register(&metrics, "master.namespace");
        let block_stats = LockStats::register(&metrics, "master.blocks");
        let heat_stats = LockStats::register(&metrics, "master.heat");
        let audit_stats = LockStats::register(&metrics, "master.audit");
        Ok(Self {
            namespace: StatRwLock::instrumented(
                NamespaceState {
                    ns,
                    leases: LeaseManager::new(config.heartbeat_ms * LEASE_HEARTBEATS),
                },
                namespace_stats,
            ),
            blocks: StatRwLock::instrumented(
                BlockState { map: blocks, cluster: ClusterState::new(&config), awaited },
                block_stats,
            ),
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
            stat: &self.ops[op as usize],
            start: Instant::now(),
            lock_wait_us: Cell::new(0),
            log_us: Cell::new(0),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Name of the active placement policy.
    pub fn placement_policy_name(&self) -> &'static str {
        self.placement.name()
    }

    /// The master's clock: the newest time passed to [`Master::tick`].
    pub fn now_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::Acquire)
    }

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

    /// Resolves `path` for a write by `holder`, renewing (or granting) its
    /// lease; returns the file and its normalized path.
    fn leased(
        &self,
        g: &mut NamespaceState,
        path: &str,
        holder: ClientId,
    ) -> Result<(INodeId, String)> {
        let npath = normalize(path)?;
        g.leases.check(&npath, holder, self.now_ms())?;
        Ok((g.ns.resolve(path)?, npath))
    }

    /// Serializes the namespace to a checkpoint image.
    pub fn checkpoint(&self) -> Vec<u8> {
        encode_image(&self.namespace.read().ns)
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
}

#[cfg(test)]
mod tests;
