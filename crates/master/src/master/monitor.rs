//! The replication monitor (§5) — the replication scan and the data
//! balancer — and the automated-tiering planner built on the same vectors.

use octopus_common::metrics::Labels;
use octopus_common::{
    Block, BlockId, ClientLocation, DecisionKind, DecisionRound, HeatInfo, INodeId, Location,
    MediaId, MediaStats, ReplicationVector, StorageTier, WorkerId,
};
use octopus_policies::{
    choose_replica_to_remove_explained, PlacementRequest, Temperature, TierClassifier,
};
use std::collections::{HashMap, HashSet};
use std::iter::repeat_n;

use super::Master;
use crate::autotier::{AutoTierConfig, MigrationDecision, MigrationDirection};
use crate::blockmap::replication_state;
use crate::cluster::ClusterState;
use crate::editlog::EditOp;
use crate::namespace::FileMeta;

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

/// The one rule for which of a block's replicas (confirmed and pending)
/// count toward its vector, as of `c`: replicas on draining workers keep
/// serving reads but do not count.
pub(super) fn counted_replicas(c: &ClusterState) -> impl Fn(&[Location]) -> Vec<Location> {
    let draining: HashSet<WorkerId> =
        c.workers().filter(|w| c.is_decommissioning(w.worker)).map(|w| w.worker).collect();
    move |all| all.iter().copied().filter(|l| !draining.contains(&l.worker)).collect()
}

impl Master {
    /// Scans every block of every complete file, scheduling re-replication
    /// for under-replicated tiers and removal for over-replicated ones.
    /// Returned tasks are to be executed by workers; copies are recorded as
    /// pending so a rescan does not double-schedule.
    pub fn replication_scan(&self) -> Vec<ReplicationTask> {
        if self.in_safe_mode() {
            return Vec::new();
        }
        let mut tasks = Vec::new();
        // Both guards span the scan: the monitor sees one consistent
        // namespace, block map and set of live workers, at the price of
        // holding up writers for its duration.
        let g = self.namespace.read();
        let mut bs = self.blocks.write();
        let (snap, counted) = (bs.snapshot(), counted_replicas(&bs.cluster));
        // In ascending inode id — creation order, until a slot is reused —
        // so the order of the tasks does not depend on where the inode
        // table happens to keep a file.
        let mut files: Vec<(INodeId, &FileMeta)> =
            g.ns.files().filter(|(_, meta)| meta.complete && !meta.blocks.is_empty()).collect();
        files.sort_unstable_by_key(|&(id, _)| id);
        for (file, meta) in files {
            for &(bid, _) in &meta.blocks {
                let Some(info) = bs.map.get(bid) else { continue };
                let block = info.block;
                let confirmed = info.locations.clone();
                let all = info.all_locations();
                let state = replication_state(meta.rv, &counted(&all));
                if state.is_satisfied() || confirmed.is_empty() {
                    continue; // healthy, or nothing to copy from yet
                }

                // Under-replication: one placement request covering all
                // deficits of this block.
                let req = PlacementRequest {
                    block_size: block.len,
                    client: ClientLocation::OffCluster,
                    tier_pins: (state.under_pinned.iter())
                        .flat_map(|&(tier, count)| repeat_n(Some(tier), count as usize))
                        .chain(repeat_n(None, state.under_unspecified as usize))
                        .collect(),
                    existing: all.iter().map(|l| l.media).collect(),
                    excluded_workers: Vec::new(),
                };
                let placed = (!req.tier_pins.is_empty())
                    .then(|| self.place_and_locate(&bs, &snap, &req, |_| true).ok())
                    .flatten()
                    .filter(|(targets, _)| !targets.is_empty());
                if let Some((targets, rounds)) = placed {
                    for &target in &targets {
                        let reader = ClientLocation::OnWorker(target.worker);
                        let sources = self.retrieval.order(&snap, reader, &confirmed);
                        tasks.push(ReplicationTask::Copy { block, sources, target });
                        self.metrics.inc("master_replication_tasks_total", Labels::req("copy"));
                    }
                    bs.map.add_pending(bid, &targets).ok();
                    let policy = self.placement.name();
                    self.record(DecisionKind::Placement, bid, file, policy, &targets, &rounds);
                }

                // Over-replication: pick victims per over-replicated tier,
                // but never trim the last confirmed replica: a demotion like
                // ⟨1,0,0⟩ → ⟨0,0,1⟩ makes the memory replica surplus while
                // it is still the only copy (and the source of this round's
                // HDD copy). The trim waits until the new replica confirms.
                for &(tier, count) in &state.over {
                    let mut current = confirmed.clone();
                    for _ in 0..count {
                        if current.len() <= 1 {
                            break;
                        }
                        let pick = choose_replica_to_remove_explained(
                            &snap,
                            &current,
                            Some(tier),
                            block.len,
                        );
                        let (Some(victim), candidates) = pick else { break };
                        current.retain(|l| l != &victim);
                        bs.map.remove_replica(bid, victim.media);
                        let round = DecisionRound {
                            replica_index: 0,
                            tier_pin: Some(tier),
                            chosen_media: Some(victim.media),
                            candidates,
                        };
                        let (policy, chosen) = ("leave-one-out", &[victim]);
                        self.record(DecisionKind::Removal, bid, file, policy, chosen, &[round]);
                        tasks.push(ReplicationTask::Delete { block, location: victim });
                        self.metrics.inc("master_replication_tasks_total", Labels::req("delete"));
                    }
                }
            }
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
        let mut bs = self.blocks.write();
        let snap = bs.snapshot();

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
        let frac = |m: &MediaId| media_frac.get(m).copied().unwrap_or(0.0);
        let tier_mean: Vec<f64> = tier_used
            .iter()
            .map(|&(u, c)| if c == 0 { 0.0 } else { u as f64 / c as f64 })
            .collect();

        let overloaded: Vec<&MediaStats> = snap
            .media
            .iter()
            .filter(|m| frac(&m.media) > tier_mean[m.tier.0 as usize] + threshold)
            .collect();
        if overloaded.is_empty() {
            return Vec::new();
        }

        let mut tasks = Vec::new();
        for src in overloaded {
            if tasks.len() >= max_moves {
                break;
            }
            let src_frac = frac(&src.media);
            // The lowest-id block hosted on the overloaded medium, with no
            // pending work, that placement can move somewhere better — by
            // id, so that two identical masters move the same block.
            let mut hosted: Vec<_> = (bs.map.iter())
                .filter(|(_, info)| info.pending.is_empty())
                .filter(|(_, info)| info.locations.iter().any(|l| l.media == src.media))
                .collect();
            hosted.sort_unstable_by_key(|&(&id, _)| id);
            let planned = hosted.into_iter().find_map(|(&id, info)| {
                let req = PlacementRequest {
                    block_size: info.block.len,
                    client: ClientLocation::OffCluster,
                    tier_pins: vec![Some(src.tier)],
                    existing: info.locations.iter().map(|l| l.media).collect(),
                    excluded_workers: Vec::new(),
                };
                // Only move toward genuinely less utilized media.
                let better = |media: &[MediaId]| {
                    media.first().is_some_and(|m| frac(m) + threshold / 2.0 < src_frac)
                };
                let (targets, _) = self.place_and_locate(&bs, &snap, &req, better).ok()?;
                let target = *targets.first()?;
                let reader = ClientLocation::OnWorker(target.worker);
                let sources = self.retrieval.order(&snap, reader, &info.locations);
                Some((id, info.block, sources, target))
            });
            if let Some((id, block, sources, target)) = planned {
                bs.map.add_pending(id, &[target]).ok();
                tasks.push(ReplicationTask::Copy { block, sources, target });
            }
        }
        tasks
    }

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
        // order, promotions by score and then by it. The heat tracker is a
        // leaf, so it is read under the namespace guard.
        let mut scored: Vec<(INodeId, String, ReplicationVector, u64, BlockId, HeatInfo)> = {
            let g = self.namespace.read();
            let heat = self.heat.lock();
            (g.ns.files().filter(|(_, meta)| meta.complete))
                .filter_map(|(id, meta)| {
                    let (first, _) = *meta.blocks.first()?;
                    let path = g.ns.path_of(id).ok()?;
                    Some((id, path, meta.rv, meta.len, first, heat.info(id, now)))
                })
                .collect()
        };
        scored.sort_unstable_by_key(|f| f.0);

        // Headroom for promotions: what the Memory tier can still absorb.
        let reports = self.get_storage_tier_reports();
        let mem_report = reports.iter().find(|r| r.stats.tier == mem);
        let mut mem_remaining = mem_report.map_or(0, |r| r.stats.remaining);

        // Demotions first (they free memory), then promotions hottest
        // first, so a tight round spends its budget on the hottest files.
        let (mut demotions, mut promotions) = (Vec::new(), Vec::new());
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
            if to.validate(self.config.tiers.len()).is_err() {
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
            let label = direction.label();
            let policy = format!("{}: {label} score={score:.3} {from} -> {to}", classifier.name());
            self.record(DecisionKind::Migration, block, id, &policy, &[], &[]);
            self.metrics.inc("master_migrations_total", Labels::req(label));
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
}
