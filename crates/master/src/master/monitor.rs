//! The replication monitor (§5) — the replication scan and the data
//! balancer — and the automated-tiering planner built on the same vectors.

use octopus_common::metrics::Labels;
use octopus_common::{
    log_warn, Block, BlockId, ClientLocation, DecisionKind, DecisionRound, HeatInfo, INodeId,
    Location, MediaId, MediaStats, ReplicationVector, Result, StorageTier, WorkerId,
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
    /// A promotion that does not fit the Memory tier's headroom (its own
    /// capacity accounting, plus what this round's demotions free) evicts:
    /// warm memory-pinned files are demoted, least recently touched first
    /// ([`HeatInfo::last_touch_ms`], then lower score, then lower inode
    /// id), until it fits; one that evicting them all would not fit evicts
    /// nothing. An eviction's audit text names the file it made room for.
    ///
    /// Vector edits are exactly what `setReplication` would do, so the §5
    /// replication monitor realizes them as ordinary copy/delete tasks on
    /// the next scan; callers wanting bounded background bandwidth execute
    /// that scan through the paced migration round (net monitor). Rounds
    /// are bounded by `cfg` (files, evictions included, and copy bytes per
    /// round), and every move is recorded as a
    /// [`DecisionKind::Migration`] audit event.
    ///
    /// The scan collects candidates under a read guard and stages each
    /// edit under its own write guard, re-verifying that nothing raced in
    /// between; it waits for the log after releasing the guard. A log that
    /// fails the wait ends the round: the failure is logged, and the
    /// decisions made before it are returned.
    pub fn autotier_scan(
        &self,
        classifier: &dyn TierClassifier,
        cfg: &AutoTierConfig,
    ) -> Vec<MigrationDecision> {
        let mut decisions = Vec::new();
        if let Err(e) = self.plan_migrations(classifier, cfg, &mut decisions) {
            log_warn!(target: "master::autotier", "msg=\"auto-tiering round ended\" err=\"{e}\"");
        }
        decisions
    }

    /// [`Master::autotier_scan`]'s round: each decision is pushed once its
    /// edit is installed.
    fn plan_migrations(
        &self,
        classifier: &dyn TierClassifier,
        cfg: &AutoTierConfig,
        decisions: &mut Vec<MigrationDecision>,
    ) -> Result<()> {
        let mem = StorageTier::Memory.id();
        if self.in_safe_mode() || mem.0 as usize >= self.config.tiers.len() {
            return Ok(()); // safe mode, or no memory tier to tier into
        }
        let now = self.now_ms();

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

        // Cold memory-pinned files leave memory outright; warm ones are the
        // eviction pool, leaving only to make room for a hot file.
        let (mut demotions, mut pool, mut promotions) = (Vec::new(), Vec::new(), Vec::new());
        for (id, path, from, len, block, info) in scored {
            let temperature = classifier.classify(&info);
            let mv = |to| Move { id, path, from, to, len, block, score: info.score };
            match (from.tier(mem) > 0, temperature) {
                (false, Temperature::Hot) => promotions.push(mv(from.with_tier(mem, 1))),
                (true, Temperature::Cold | Temperature::Warm) => {
                    let mut to = from.with_tier(mem, 0);
                    if to.total() == 0 {
                        // Never demote a file out of existence: the memory
                        // pin was its only replica, so it moves to HDD.
                        to = to.with_tier(StorageTier::Hdd.id(), 1);
                    }
                    match temperature {
                        Temperature::Cold => demotions.push(mv(to)),
                        _ => pool.push((info.last_touch_ms, mv(to))),
                    }
                }
                _ => {}
            }
        }
        // Hottest first, so a tight round spends its budget on the hottest
        // files; victims least recently touched first.
        promotions.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        pool.sort_by(|(ta, a), (tb, b)| {
            ta.cmp(tb).then(a.score.total_cmp(&b.score)).then(a.id.cmp(&b.id))
        });

        let reports = self.get_storage_tier_reports();
        let mut headroom =
            reports.iter().find(|r| r.stats.tier == mem).map_or(0, |r| r.stats.remaining);
        let mut copy_bytes_planned = 0u64;
        for mv in &demotions {
            if decisions.len() >= cfg.max_files_per_round {
                break;
            }
            let copy_bytes = mv.copy_bytes();
            if copy_bytes_planned.saturating_add(copy_bytes) > cfg.max_bytes_per_round {
                continue; // a smaller file later in the order may still fit
            }
            if let Some(d) = self.migrate(classifier, mv, None)? {
                headroom += mv.freed();
                copy_bytes_planned += copy_bytes;
                decisions.push(d);
            }
        }
        let mut next_victim = 0;
        for mv in &promotions {
            if decisions.len() >= cfg.max_files_per_round {
                break;
            }
            let (mut room, mut end) = (headroom, next_victim);
            while room < mv.len && end < pool.len() {
                room += pool[end].1.freed();
                end += 1;
            }
            let victims = &pool[next_victim..end];
            let copy_bytes =
                mv.copy_bytes() + victims.iter().map(|(_, v)| v.copy_bytes()).sum::<u64>();
            if room < mv.len
                || decisions.len() + 1 + victims.len() > cfg.max_files_per_round
                || copy_bytes_planned.saturating_add(copy_bytes) > cfg.max_bytes_per_round
            {
                continue; // a smaller file later in the order may still fit
            }
            // The promotion first: a file is evicted only for an edit the
            // namespace accepted (a directory's memory quota may refuse it).
            let Some(d) = self.migrate(classifier, mv, None)? else { continue };
            decisions.push(d);
            for (_, victim) in victims {
                if let Some(d) = self.migrate(classifier, victim, Some(&mv.path))? {
                    headroom += victim.freed();
                    decisions.push(d);
                }
            }
            headroom = headroom.saturating_sub(mv.len);
            copy_bytes_planned += copy_bytes;
            next_victim = end;
        }
        Ok(())
    }

    /// Installs one planned edit the way [`Master::set_replication`] does:
    /// staged under the namespace write guard, if the file is unchanged
    /// since the scan (same inode, vector and length — a rename, delete or
    /// setReplication may have raced it), and waited for after the guard
    /// is released. `Ok(None)` when a race or a quota refuses the edit.
    fn migrate(
        &self,
        classifier: &dyn TierClassifier,
        mv: &Move,
        made_room_for: Option<&str>,
    ) -> Result<Option<MigrationDecision>> {
        if mv.to.validate(self.config.tiers.len()).is_err() {
            return Ok(None);
        }
        let mut g = self.namespace.write();
        let unchanged = g.ns.resolve(&mv.path).is_ok_and(|rid| rid == mv.id)
            && g.ns.file_meta(mv.id).is_ok_and(|m| m.rv == mv.from && m.len == mv.len);
        if !unchanged || g.ns.set_replication(&mv.path, mv.to).is_err() {
            return Ok(None);
        }
        let seq = self.log.stage(EditOp::SetReplication { path: mv.path.clone(), rv: mv.to });
        drop(g);
        self.log.wait_durable(seq)?;
        let mem = StorageTier::Memory.id();
        let direction = if mv.to.tier(mem) > mv.from.tier(mem) {
            MigrationDirection::Promote
        } else {
            MigrationDirection::Demote
        };
        let (label, copy_bytes, (from, to), score) =
            (direction.label(), mv.copy_bytes(), (mv.from, mv.to), mv.score);
        let mut policy = format!("{}: {label} score={score:.3} {from} -> {to}", classifier.name());
        if let Some(path) = made_room_for {
            policy += &format!(" to make room for {path}");
        }
        self.record(DecisionKind::Migration, mv.block, mv.id, &policy, &[], &[]);
        self.metrics.inc("master_migrations_total", Labels::req(label));
        self.metrics.add("master_migration_copy_bytes_total", Labels::NONE, copy_bytes);
        let path = mv.path.clone();
        Ok(Some(MigrationDecision { file: mv.id, path, score, direction, from, to, copy_bytes }))
    }
}

/// One vector edit the auto-tierer plans.
struct Move {
    id: INodeId,
    path: String,
    from: ReplicationVector,
    to: ReplicationVector,
    len: u64,
    block: BlockId,
    score: f64,
}

impl Move {
    /// Copy bytes the edit schedules: the file's length per replica added.
    fn copy_bytes(&self) -> u64 {
        let added: u64 = self.from.diff(self.to).additions().map(|(_, n)| n as u64).sum();
        self.len.saturating_mul(added)
    }

    /// Memory-tier bytes the edit frees: the file's length per memory
    /// replica dropped.
    fn freed(&self) -> u64 {
        let mem = StorageTier::Memory.id();
        self.len.saturating_mul(self.from.tier(mem).saturating_sub(self.to.tier(mem)) as u64)
    }
}
