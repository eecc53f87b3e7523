//! Telemetry and diagnostic views: metrics and traces, tier reports, heat,
//! the audit ring (and the one constructor of its records), and the
//! operator's cluster status.

use octopus_common::metrics::{Labels, MetricsRegistry};
use octopus_common::trace::TraceCollector;
use octopus_common::{
    BlockId, ClusterStatusReport, DecisionEvent, DecisionKind, DecisionRound, EventRef, HeatInfo,
    HotFile, INodeId, Location, MediaId, Result, StorageTierReport, WorkerId, WorkerStatusLine,
};
use octopus_policies::ClusterSnapshot;

use super::Master;

impl Master {
    /// Records one decision on the audit ring, stamped with the master's
    /// clock: every audit record the master keeps is made here. Nothing is
    /// copied on the way in but the ring's record of it.
    pub(super) fn record(
        &self,
        kind: DecisionKind,
        block: BlockId,
        file: INodeId,
        policy: &str,
        chosen: &[Location],
        rounds: &[DecisionRound],
    ) {
        let when_ms = self.now_ms();
        self.audit.record(EventRef { when_ms, kind, block, file, policy, chosen, rounds });
    }

    /// Stamps externally accumulated drop totals (trace spans, audit ring
    /// evictions) and the audit ring's heap into the registry. Called at
    /// `Metrics` scrape time: the rings evict and grow without a metrics
    /// hook of their own.
    pub fn stamp_scrape_metrics(&self) {
        self.metrics
            .counter("trace_spans_dropped_total", Labels::NONE)
            .set_max(self.trace.dropped());
        self.metrics
            .counter("master_audit_dropped_total", Labels::NONE)
            .set_max(self.audit.dropped());
        self.metrics.gauge("master_audit_bytes", Labels::NONE).set(self.audit_bytes() as i64);
    }

    /// The heap the audit ring holds ([`AuditRing::bytes`]), as the
    /// `master_audit_bytes` gauge reports it.
    ///
    /// [`AuditRing::bytes`]: octopus_common::AuditRing::bytes
    pub fn audit_bytes(&self) -> usize {
        self.audit.bytes()
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

    /// `getStorageTierReports` (Table 1).
    pub fn get_storage_tier_reports(&self) -> Vec<StorageTierReport> {
        let bs = self.blocks.read();
        bs.cluster.tier_reports(&self.config.tiers, &bs.map)
    }

    /// The policy-facing snapshot (exposed for harnesses and tests).
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.blocks.read().snapshot()
    }

    /// Confirmed replica locations of a block (test/diagnostic hook).
    pub fn block_locations(&self, id: BlockId) -> Vec<Location> {
        self.blocks.read().map.get(id).map(|i| i.locations.clone()).unwrap_or_default()
    }

    /// Every `(block, owning file)` pair in the block map, in block-id
    /// order (test/diagnostic hook — the namespace↔blockmap bijection
    /// invariant of the stress suite audits against it).
    pub fn block_inventory(&self) -> Vec<(BlockId, INodeId)> {
        let mut out: Vec<(BlockId, INodeId)> =
            self.blocks.read().map.iter().map(|(id, info)| (*id, info.file)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Still-pending (scheduled, uncommitted) replica locations of a block
    /// (test/diagnostic hook).
    pub fn pending_locations(&self, id: BlockId) -> Vec<Location> {
        self.blocks.read().map.get(id).map(|i| i.pending.clone()).unwrap_or_default()
    }

    /// Scheduled-write bytes currently reserved against a medium: the
    /// length of every block pending there (test/diagnostic hook for
    /// reservation-leak regressions).
    pub fn scheduled_bytes(&self, media: MediaId) -> u64 {
        self.blocks.read().map.reserved(media)
    }

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

    /// The most recent `n` retained [`DecisionKind::Migration`] audit
    /// events, oldest first (the `Migrations` RPC / `octofs-remote
    /// migrations`).
    pub fn recent_migrations(&self, n: usize) -> Vec<DecisionEvent> {
        self.audit.recent_of_kind(DecisionKind::Migration, n)
    }

    /// Each live worker and how many heartbeats it has sent since it
    /// registered (a count, since several may arrive within one tick).
    pub fn live_heartbeats(&self) -> Vec<(WorkerId, u64)> {
        let bs = self.blocks.read();
        bs.cluster.workers().filter(|w| w.live).map(|w| (w.worker, w.beats)).collect()
    }

    /// One-stop cluster status for the operator surface: namespace and
    /// block counts, per-tier aggregates, per-worker lines, the hottest
    /// files, and audit-ring occupancy.
    pub fn cluster_status(&self, hot_k: usize) -> ClusterStatusReport {
        let files = self.namespace.read().ns.counts().0 as u64;
        let hot = self.hot_files(hot_k);
        let bs = self.blocks.read();
        let workers = (bs.cluster.workers())
            .map(|w| WorkerStatusLine {
                worker: w.worker,
                rack: w.rack,
                live: w.live,
                nr_conn: w.nr_conn,
                last_heartbeat_ms: w.last_heartbeat_ms,
                media: w.media.clone(),
            })
            .collect();
        ClusterStatusReport {
            now_ms: self.now_ms(),
            safe_mode: self.in_safe_mode(),
            files,
            blocks: bs.map.len() as u64,
            in_flight_blocks: bs.map.iter().filter(|(_, i)| !i.pending.is_empty()).count() as u64,
            scheduled_bytes: bs.map.total_reserved(),
            tiers: bs.cluster.tier_reports(&self.config.tiers, &bs.map),
            workers,
            hot,
            decisions_recorded: self.audit.recorded(),
            decisions_retained: self.audit.len() as u64,
        }
    }
}
