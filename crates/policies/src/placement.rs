//! Block placement policies (paper §3.3 and the §7.2 baselines).
//!
//! The default **MOOP policy** implements Algorithm 1 (`solve_moop`: pick
//! the medium minimizing the ideal-point distance (Eq. 11) when appended to the
//! chosen list) inside Algorithm 2 (`place`: iterate over the replication
//! vector, generating pruned option lists per replica). The same greedy
//! engine parameterized with a single objective yields the paper's DB, LB,
//! FT, and TM ablation policies. The **Rule-based** and two **HDFS**
//! baselines from §7.2 are implemented separately.

use parking_lot::Mutex;
use std::collections::HashSet;

use octopus_common::config::{PlacementPolicyKind, PolicyConfig};
use octopus_common::rng::Rng;
use octopus_common::{
    CandidateScore, ClientLocation, DecisionRound, FsError, MediaId, MediaStats, RackId,
    ReplicationVector, Result, TierId, WorkerId,
};

pub use crate::objectives::Objective;
use crate::objectives::{f_db, f_ft, f_lb, f_tm, score, ObjectiveContext};
use crate::snapshot::ClusterSnapshot;

/// A request to choose storage media for the replicas of one block.
#[derive(Debug, Clone)]
pub struct PlacementRequest {
    /// Size of the block to place, bytes.
    pub block_size: u64,
    /// Where the writing client runs.
    pub client: ClientLocation,
    /// One entry per replica to place: `Some(tier)` pins the replica to a
    /// tier (from the replication vector), `None` lets the policy choose
    /// (the vector's "Unspecified" entries).
    pub tier_pins: Vec<Option<TierId>>,
    /// Media already hosting replicas of this block (re-replication after
    /// failures, or additions triggered by `setReplication`). They count
    /// toward the objective evaluation and are excluded from the options.
    pub existing: Vec<MediaId>,
    /// Workers no replica may land on — a client's pipeline recovery
    /// (§3.1) excludes the workers its failed write attempts already hit,
    /// so the replacement placement avoids them.
    pub excluded_workers: Vec<WorkerId>,
}

impl PlacementRequest {
    /// Expands a replication vector into a request: pinned replicas first
    /// (in tier-slot order), then the unspecified ones.
    pub fn from_vector(rv: ReplicationVector, block_size: u64, client: ClientLocation) -> Self {
        let mut pins = Vec::with_capacity(rv.total() as usize);
        for (tier, count) in rv.iter_tiers() {
            for _ in 0..count {
                pins.push(Some(tier));
            }
        }
        for _ in 0..rv.unspecified() {
            pins.push(None);
        }
        Self {
            block_size,
            client,
            tier_pins: pins,
            existing: Vec::new(),
            excluded_workers: Vec::new(),
        }
    }

    /// A request for `r` replicas with no tier constraints.
    pub fn unspecified(r: usize, block_size: u64, client: ClientLocation) -> Self {
        Self {
            block_size,
            client,
            tier_pins: vec![None; r],
            existing: Vec::new(),
            excluded_workers: Vec::new(),
        }
    }

    /// Total replicas the block will have after placement succeeds.
    pub fn total_replicas(&self) -> usize {
        self.tier_pins.len() + self.existing.len()
    }
}

/// A block placement policy. Returns the chosen media for the *new*
/// replicas, in pipeline order. May return fewer media than requested when
/// the cluster cannot satisfy every constraint (the master logs and retries
/// later, as HDFS does); it returns an error only when nothing at all can
/// be placed while at least one replica was requested.
pub trait PlacementPolicy: Send + Sync {
    /// Human-readable policy name (used in reports and experiment output).
    fn name(&self) -> &'static str;

    /// Chooses media for the requested replicas.
    fn place(&self, snap: &ClusterSnapshot, req: &PlacementRequest) -> Result<Vec<MediaId>>;

    /// Like [`place`](Self::place), but also returns one audit
    /// [`DecisionRound`] per replica slot: every candidate evaluated with
    /// its per-objective scores and the winner. Policies without a scored
    /// model (the rule-based and HDFS baselines) return empty rounds.
    fn place_with_audit(
        &self,
        snap: &ClusterSnapshot,
        req: &PlacementRequest,
    ) -> Result<(Vec<MediaId>, Vec<DecisionRound>)> {
        Ok((self.place(snap, req)?, Vec::new()))
    }
}

/// Constructs the policy selected by a [`PolicyConfig`].
pub fn build_placement_policy(
    kind: PlacementPolicyKind,
    cfg: &PolicyConfig,
    seed: u64,
) -> Box<dyn PlacementPolicy> {
    match kind {
        PlacementPolicyKind::Moop => Box::new(GreedyPolicy::moop(cfg.clone())),
        PlacementPolicyKind::DataBalancing => {
            Box::new(GreedyPolicy::single(Objective::DataBalancing, cfg.clone()))
        }
        PlacementPolicyKind::LoadBalancing => {
            Box::new(GreedyPolicy::single(Objective::LoadBalancing, cfg.clone()))
        }
        PlacementPolicyKind::FaultTolerance => {
            Box::new(GreedyPolicy::single(Objective::FaultTolerance, cfg.clone()))
        }
        PlacementPolicyKind::ThroughputMax => {
            Box::new(GreedyPolicy::single(Objective::ThroughputMax, cfg.clone()))
        }
        PlacementPolicyKind::RuleBased => Box::new(RuleBasedPolicy::new(cfg.clone(), seed)),
        PlacementPolicyKind::HdfsHddOnly => Box::new(HdfsPolicy::hdd_only(seed)),
        PlacementPolicyKind::HdfsTierBlind => Box::new(HdfsPolicy::tier_blind(seed)),
        PlacementPolicyKind::MoopDropObjective(i) => {
            Box::new(GreedyPolicy::moop_without(i, cfg.clone()))
        }
    }
}

// ---------------------------------------------------------------------------
// The greedy MOOP engine (Algorithms 1 + 2).
// ---------------------------------------------------------------------------

/// The greedy multi-objective placement engine. With all four objectives it
/// is the paper's default MOOP policy; with a single objective it is one of
/// the §7.2 ablation policies.
///
/// ```
/// use octopus_common::config::PolicyConfig;
/// use octopus_common::ClientLocation;
/// use octopus_policies::{ClusterSnapshot, GreedyPolicy, PlacementPolicy, PlacementRequest};
///
/// let snapshot = ClusterSnapshot::synthetic(9, 3, 3); // the paper's cluster shape
/// let policy = GreedyPolicy::moop(PolicyConfig::default());
/// let request = PlacementRequest::unspecified(3, 128 << 20, ClientLocation::OffCluster);
/// let media = policy.place(&snapshot, &request).unwrap();
/// assert_eq!(media.len(), 3); // three replicas on three distinct media
/// ```
pub struct GreedyPolicy {
    objectives: Vec<Objective>,
    cfg: PolicyConfig,
    name: &'static str,
    tie_rng: Mutex<Rng>,
}

impl GreedyPolicy {
    /// The default MOOP policy over all four objectives.
    pub fn moop(cfg: PolicyConfig) -> Self {
        Self {
            objectives: Objective::ALL.to_vec(),
            cfg,
            name: "MOOP",
            tie_rng: Mutex::new(Rng::seed_from_u64(0x7135)),
        }
    }

    /// A single-objective ablation policy. The §3.3 memory cap is a
    /// property of the MOOP default policy; the pure-objective ablations
    /// run uncapped (the paper's TM "heavily exploits the Memory tier"
    /// until it is exhausted — §7.2).
    pub fn single(objective: Objective, cfg: PolicyConfig) -> Self {
        let name = match objective {
            Objective::DataBalancing => "DB",
            Objective::LoadBalancing => "LB",
            Objective::FaultTolerance => "FT",
            Objective::ThroughputMax => "TM",
        };
        let cfg = PolicyConfig { max_memory_fraction: 1.0, ..cfg };
        Self {
            objectives: vec![objective],
            cfg,
            name,
            tie_rng: Mutex::new(Rng::seed_from_u64(0x7135)),
        }
    }

    /// MOOP with one objective dropped — the per-objective ablation of
    /// DESIGN.md §5. `drop` indexes [`Objective::ALL`] (0=DB, 1=LB, 2=FT,
    /// 3=TM); out-of-range values drop nothing.
    pub fn moop_without(drop: u8, cfg: PolicyConfig) -> Self {
        let objectives: Vec<Objective> = Objective::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop as usize)
            .map(|(_, &o)| o)
            .collect();
        let name = match drop {
            0 => "MOOP-DB",
            1 => "MOOP-LB",
            2 => "MOOP-FT",
            3 => "MOOP-TM",
            _ => "MOOP",
        };
        Self { objectives, cfg, name, tie_rng: Mutex::new(Rng::seed_from_u64(0x7135)) }
    }

    /// Algorithm 1: evaluate appending each option to `chosen` and return
    /// the option with the lowest ideal-point distance. Ties (within
    /// epsilon) break uniformly at random so equivalent media share load —
    /// without this, single-objective policies would pile every block onto
    /// the same devices.
    fn solve_moop<'a>(
        &self,
        options: &[&'a MediaStats],
        chosen: &[&'a MediaStats],
        ctx: &ObjectiveContext,
        mut audit: Option<&mut Vec<CandidateScore>>,
    ) -> Option<&'a MediaStats> {
        let mut best_score = f64::INFINITY;
        let mut best: Vec<&MediaStats> = Vec::new();
        let mut trial: Vec<&MediaStats> = Vec::with_capacity(chosen.len() + 1);
        for &option in options {
            trial.clear();
            trial.extend_from_slice(chosen);
            trial.push(option);
            let s = score(&trial, ctx, &self.objectives);
            if let Some(a) = audit.as_deref_mut() {
                a.push(CandidateScore {
                    media: option.media,
                    worker: option.worker,
                    tier: option.tier,
                    total: s,
                    db: f_db(&trial, ctx),
                    lb: f_lb(&trial),
                    ft: f_ft(&trial, ctx),
                    tm: f_tm(&trial, ctx),
                    chosen: false,
                });
            }
            let eps = 1e-9 * (1.0 + best_score.abs().min(1e12));
            if s < best_score - eps {
                best_score = s;
                best.clear();
                best.push(option);
            } else if (s - best_score).abs() <= eps {
                best.push(option);
            }
        }
        let mut rng = self.tie_rng.lock();
        let winner = rng.choose(&best).copied();
        if let (Some(a), Some(w)) = (audit, winner) {
            for c in a.iter_mut() {
                c.chosen = c.media == w.media;
            }
        }
        winner
    }

    /// GenOptions: the feasible, heuristically pruned option list for the
    /// next replica (§3.3).
    #[allow(clippy::too_many_arguments)]
    fn gen_options<'a>(
        &self,
        snap: &'a ClusterSnapshot,
        req: &PlacementRequest,
        pin: Option<TierId>,
        replica_index: usize,
        used_media: &HashSet<MediaId>,
        rack_order: &[RackId],
        volatile_used: usize,
    ) -> Vec<&'a MediaStats> {
        let volatile_cap = self.volatile_cap(req);
        let base: Vec<&MediaStats> = snap
            .media
            .iter()
            .filter(|m| !used_media.contains(&m.media))
            .filter(|m| !req.excluded_workers.contains(&m.worker))
            .filter(|m| m.fits(req.block_size))
            .filter(|m| match pin {
                Some(t) => m.tier == t,
                None => {
                    let is_volatile = snap.volatile[m.tier.0 as usize];
                    if !is_volatile {
                        true
                    } else {
                        self.cfg.memory_placement_enabled && volatile_used < volatile_cap
                    }
                }
            })
            .collect();

        // Client-collocation heuristic (§3.3): the very first replica
        // considers the client's own worker first.
        if replica_index == 0 && rack_order.is_empty() {
            if let ClientLocation::OnWorker(w) = req.client {
                let local: Vec<&MediaStats> =
                    base.iter().copied().filter(|m| m.worker == w).collect();
                if !local.is_empty() {
                    return local;
                }
            }
        }

        // Rack-pruning heuristic: after the first choice, prefer a second
        // rack; once two racks are involved, stay within them.
        if self.cfg.rack_pruning {
            let mut racks = rack_order.to_vec();
            racks.dedup();
            if racks.len() == 1 {
                let off: Vec<&MediaStats> =
                    base.iter().copied().filter(|m| m.rack != racks[0]).collect();
                if !off.is_empty() {
                    return off;
                }
            } else if racks.len() >= 2 {
                let two = [racks[0], racks[1]];
                let within: Vec<&MediaStats> =
                    base.iter().copied().filter(|m| two.contains(&m.rack)).collect();
                if !within.is_empty() {
                    return within;
                }
            }
        }
        base
    }

    /// Maximum number of replicas allowed on volatile tiers when the
    /// placement policy chooses the tier itself (pinned memory replicas
    /// are the user's explicit decision and are not capped).
    fn volatile_cap(&self, req: &PlacementRequest) -> usize {
        let r = req.total_replicas();
        (r as f64 * self.cfg.max_memory_fraction).floor() as usize
    }

    /// Algorithm 2 with optional audit capture: one [`DecisionRound`] per
    /// replica slot (including deferred ones, with no chosen medium).
    fn place_inner(
        &self,
        snap: &ClusterSnapshot,
        req: &PlacementRequest,
        mut audit: Option<&mut Vec<DecisionRound>>,
    ) -> Result<Vec<MediaId>> {
        let index = snap.media_index();
        let mut chosen_stats: Vec<&MediaStats> = Vec::new();
        let mut used: HashSet<MediaId> = HashSet::new();
        let mut rack_order: Vec<RackId> = Vec::new();
        let mut volatile_used = 0usize;

        for &id in &req.existing {
            used.insert(id);
            if let Some(&m) = index.get(&id) {
                chosen_stats.push(m);
                if !rack_order.contains(&m.rack) {
                    rack_order.push(m.rack);
                }
                if snap.volatile[m.tier.0 as usize] {
                    volatile_used += 1;
                }
            }
        }

        let (k, n, t) = (snap.num_tiers, snap.num_workers(), snap.num_racks());
        let mut placed: Vec<MediaId> = Vec::with_capacity(req.tier_pins.len());

        for (i, &pin) in req.tier_pins.iter().enumerate() {
            let options = self.gen_options(snap, req, pin, i, &used, &rack_order, volatile_used);
            // The context's extrema span the feasible media plus already
            // chosen ones (all are cluster media).
            let mut ctx_media = options.clone();
            ctx_media.extend_from_slice(&chosen_stats);
            let ctx = ObjectiveContext::new(&ctx_media, req.block_size, k, n, t);
            let mut round_scores = audit.as_ref().map(|_| Vec::new());
            let best = self.solve_moop(&options, &chosen_stats, &ctx, round_scores.as_mut());
            if let Some(a) = audit.as_deref_mut() {
                a.push(DecisionRound {
                    replica_index: i as u32,
                    tier_pin: pin,
                    candidates: round_scores.unwrap_or_default(),
                    chosen_media: best.map(|m| m.media),
                });
            }
            let Some(best) = best else {
                // Cannot place this replica now; the master retries on a
                // later scan, so this is expected pressure — not an error.
                octopus_common::log_debug!(
                    target: "policies::placement",
                    "msg=\"replica deferred\" policy={} replica={i} pin={pin:?}",
                    self.name
                );
                continue;
            };
            used.insert(best.media);
            if !rack_order.contains(&best.rack) {
                rack_order.push(best.rack);
            }
            if snap.volatile[best.tier.0 as usize] {
                volatile_used += 1;
            }
            chosen_stats.push(best);
            placed.push(best.media);
        }

        if placed.is_empty() && !req.tier_pins.is_empty() {
            return Err(FsError::PlacementFailed(format!(
                "{}: no feasible media for any of {} replicas (block size {})",
                self.name,
                req.tier_pins.len(),
                req.block_size
            )));
        }
        Ok(placed)
    }
}

impl PlacementPolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Algorithm 2.
    fn place(&self, snap: &ClusterSnapshot, req: &PlacementRequest) -> Result<Vec<MediaId>> {
        self.place_inner(snap, req, None)
    }

    fn place_with_audit(
        &self,
        snap: &ClusterSnapshot,
        req: &PlacementRequest,
    ) -> Result<(Vec<MediaId>, Vec<DecisionRound>)> {
        let mut rounds = Vec::with_capacity(req.tier_pins.len());
        let placed = self.place_inner(snap, req, Some(&mut rounds))?;
        Ok((placed, rounds))
    }
}

// ---------------------------------------------------------------------------
// Rule-based baseline (§7.2).
// ---------------------------------------------------------------------------

/// The Rule-based baseline: replicas round-robin across storage tiers on
/// randomly selected nodes across two racks. Topology- and tier-aware, but
/// ignores load and capacity statistics — the paper uses it to show the
/// value of the model-based MOOP approach.
pub struct RuleBasedPolicy {
    cfg: PolicyConfig,
    state: Mutex<RuleState>,
}

struct RuleState {
    rng: Rng,
    tier_cursor: usize,
}

impl RuleBasedPolicy {
    /// Creates the policy with a deterministic RNG seed.
    pub fn new(cfg: PolicyConfig, seed: u64) -> Self {
        Self { cfg, state: Mutex::new(RuleState { rng: Rng::seed_from_u64(seed), tier_cursor: 0 }) }
    }
}

impl PlacementPolicy for RuleBasedPolicy {
    fn name(&self) -> &'static str {
        "Rule-based"
    }

    fn place(&self, snap: &ClusterSnapshot, req: &PlacementRequest) -> Result<Vec<MediaId>> {
        let mut st = self.state.lock();
        let mut used_media: HashSet<MediaId> = req.existing.iter().copied().collect();
        let mut used_workers: HashSet<WorkerId> = HashSet::new();
        let index = snap.media_index();
        for id in &req.existing {
            if let Some(m) = index.get(id) {
                used_workers.insert(m.worker);
            }
        }

        // Pick two target racks at random.
        let mut racks: Vec<RackId> = snap.workers.iter().map(|w| w.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        st.rng.shuffle(&mut racks);
        racks.truncate(2);

        // Tiers eligible for round-robin: all, except volatile ones when
        // memory placement is disabled.
        let tiers: Vec<TierId> = (0..snap.num_tiers as u8)
            .map(TierId)
            .filter(|t| !snap.volatile[t.0 as usize] || self.cfg.memory_placement_enabled)
            .collect();
        if tiers.is_empty() {
            return Err(FsError::PlacementFailed("rule-based: no eligible tiers".into()));
        }

        let mut placed = Vec::new();
        for &pin in &req.tier_pins {
            let tier = match pin {
                Some(t) => t,
                None => {
                    let t = tiers[st.tier_cursor % tiers.len()];
                    st.tier_cursor += 1;
                    t
                }
            };
            // Candidates: media of that tier, in the two racks, with space,
            // preferring unused workers. Fall back progressively.
            let tier_media = |restrict_racks: bool, distinct_workers: bool| {
                snap.media
                    .iter()
                    .filter(|m| m.tier == tier)
                    .filter(|m| m.fits(req.block_size))
                    .filter(|m| !req.excluded_workers.contains(&m.worker))
                    .filter(|m| !used_media.contains(&m.media))
                    .filter(|m| !restrict_racks || racks.contains(&m.rack))
                    .filter(|m| !distinct_workers || !used_workers.contains(&m.worker))
                    .collect::<Vec<&MediaStats>>()
            };
            let candidates = {
                let strict = tier_media(true, true);
                if !strict.is_empty() {
                    strict
                } else {
                    let relaxed = tier_media(true, false);
                    if !relaxed.is_empty() {
                        relaxed
                    } else {
                        tier_media(false, false)
                    }
                }
            };
            let Some(&m) = st.rng.choose(&candidates) else {
                continue;
            };
            used_media.insert(m.media);
            used_workers.insert(m.worker);
            placed.push(m.media);
        }
        if placed.is_empty() && !req.tier_pins.is_empty() {
            return Err(FsError::PlacementFailed("rule-based: no feasible media".into()));
        }
        Ok(placed)
    }
}

// ---------------------------------------------------------------------------
// HDFS default placement baselines (§7.2).
// ---------------------------------------------------------------------------

/// The HDFS default placement policy: first replica on the writer's node,
/// second on a different rack, third on the second replica's rack but a
/// different node, extras at random. Tier handling distinguishes the two
/// §7.2 configurations:
///
/// - **Original HDFS** (`hdd_only`): only the slowest non-volatile tier
///   (HDDs) is used.
/// - **HDFS with SSD** (`tier_blind`): every non-volatile medium is used,
///   chosen uniformly — HDFS sees the SSD as just another disk.
pub struct HdfsPolicy {
    tier_blind: bool,
    rng: Mutex<Rng>,
}

impl HdfsPolicy {
    /// "Original HDFS": HDDs only.
    pub fn hdd_only(seed: u64) -> Self {
        Self { tier_blind: false, rng: Mutex::new(Rng::seed_from_u64(seed)) }
    }

    /// "HDFS with SSD": tier-blind across non-volatile media.
    pub fn tier_blind(seed: u64) -> Self {
        Self { tier_blind: true, rng: Mutex::new(Rng::seed_from_u64(seed)) }
    }

    /// The tier "Original HDFS" is restricted to: the slowest (by average
    /// write throughput) non-volatile tier, i.e. the spinning disks.
    fn hdd_tier(snap: &ClusterSnapshot) -> Option<TierId> {
        let mut best: Option<(f64, TierId)> = None;
        for t in 0..snap.num_tiers as u8 {
            if snap.volatile[t as usize] {
                continue;
            }
            let media: Vec<&MediaStats> = snap.media_in_tier(TierId(t)).collect();
            if media.is_empty() {
                continue;
            }
            let avg = media.iter().map(|m| m.write_thru).sum::<f64>() / media.len() as f64;
            if best.is_none_or(|(b, _)| avg < b) {
                best = Some((avg, TierId(t)));
            }
        }
        best.map(|(_, t)| t)
    }

    fn eligible<'a>(
        &self,
        snap: &'a ClusterSnapshot,
        req: &PlacementRequest,
        hdd: Option<TierId>,
    ) -> Vec<&'a MediaStats> {
        snap.media
            .iter()
            .filter(|m| m.fits(req.block_size))
            .filter(|m| !req.excluded_workers.contains(&m.worker))
            .filter(|m| !snap.volatile[m.tier.0 as usize])
            .filter(|m| match (self.tier_blind, hdd) {
                (true, _) => true,
                (false, Some(t)) => m.tier == t,
                (false, None) => false,
            })
            .collect()
    }
}

impl PlacementPolicy for HdfsPolicy {
    fn name(&self) -> &'static str {
        if self.tier_blind {
            "HDFS with SSD"
        } else {
            "Original HDFS"
        }
    }

    fn place(&self, snap: &ClusterSnapshot, req: &PlacementRequest) -> Result<Vec<MediaId>> {
        let mut rng = self.rng.lock();
        let hdd = Self::hdd_tier(snap);
        let eligible = self.eligible(snap, req, hdd);
        if eligible.is_empty() {
            return Err(FsError::PlacementFailed(format!("{}: no eligible media", self.name())));
        }
        let index = snap.media_index();
        let mut used_media: HashSet<MediaId> = req.existing.iter().copied().collect();
        let mut used_workers: Vec<WorkerId> = Vec::new();
        for id in &req.existing {
            if let Some(m) = index.get(id) {
                if !used_workers.contains(&m.worker) {
                    used_workers.push(m.worker);
                }
            }
        }

        let mut placed = Vec::new();
        let r = req.tier_pins.len();
        for i in 0..r {
            // Candidate workers by the HDFS pipeline rules.
            let replica_no = used_workers.len(); // counts existing + placed
            let want_worker: Box<dyn Fn(&MediaStats) -> bool> = match replica_no {
                0 => {
                    if let ClientLocation::OnWorker(w) = req.client {
                        Box::new(move |m: &MediaStats| m.worker == w)
                    } else {
                        Box::new(|_: &MediaStats| true)
                    }
                }
                1 => {
                    let first_rack = index.get(&placed[0]).map(|m| m.rack).or_else(|| {
                        used_workers.first().and_then(|w| snap.worker_stats(*w)).map(|w| w.rack)
                    });
                    match first_rack {
                        Some(rack) => Box::new(move |m: &MediaStats| m.rack != rack),
                        None => Box::new(|_: &MediaStats| true),
                    }
                }
                2 => {
                    let second = used_workers.last().copied();
                    let second_rack = second.and_then(|w| snap.worker_stats(w)).map(|w| w.rack);
                    match (second, second_rack) {
                        (Some(w2), Some(rack)) => {
                            Box::new(move |m: &MediaStats| m.rack == rack && m.worker != w2)
                        }
                        _ => Box::new(|_: &MediaStats| true),
                    }
                }
                _ => Box::new(|_: &MediaStats| true),
            };

            let pick_from = |pred: &dyn Fn(&MediaStats) -> bool,
                             used_media: &HashSet<MediaId>,
                             used_workers: &[WorkerId],
                             rng: &mut Rng| {
                let strict: Vec<&&MediaStats> = eligible
                    .iter()
                    .filter(|m| pred(m))
                    .filter(|m| !used_media.contains(&m.media))
                    .filter(|m| !used_workers.contains(&m.worker))
                    .collect();
                if let Some(&&m) = rng.choose(&strict) {
                    return Some(m);
                }
                // Fallback: any unused worker, then any unused medium.
                let any_worker: Vec<&&MediaStats> = eligible
                    .iter()
                    .filter(|m| !used_media.contains(&m.media))
                    .filter(|m| !used_workers.contains(&m.worker))
                    .collect();
                if let Some(&&m) = rng.choose(&any_worker) {
                    return Some(m);
                }
                let any: Vec<&&MediaStats> =
                    eligible.iter().filter(|m| !used_media.contains(&m.media)).collect();
                rng.choose(&any).map(|&&m| m)
            };

            let Some(m) = pick_from(&*want_worker, &used_media, &used_workers, &mut rng) else {
                continue;
            };
            used_media.insert(m.media);
            if !used_workers.contains(&m.worker) {
                used_workers.push(m.worker);
            }
            placed.push(m.media);
            let _ = i;
        }
        if placed.is_empty() && r > 0 {
            return Err(FsError::PlacementFailed(format!("{}: nothing placeable", self.name())));
        }
        Ok(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::testutil::{paper_like, snapshot};
    use octopus_common::StorageTier;

    fn moop() -> GreedyPolicy {
        GreedyPolicy::moop(PolicyConfig::default())
    }

    fn moop_mem() -> GreedyPolicy {
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        GreedyPolicy::moop(cfg)
    }

    fn stats_of<'a>(snap: &'a ClusterSnapshot, ids: &[MediaId]) -> Vec<&'a MediaStats> {
        ids.iter().map(|id| snap.media_stats(*id).unwrap()).collect()
    }

    #[test]
    fn moop_places_three_distinct_workers_two_racks() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(3, 128 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        assert_eq!(placed.len(), 3);
        let chosen = stats_of(&snap, &placed);
        let mut workers: Vec<_> = chosen.iter().map(|m| m.worker).collect();
        workers.dedup();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 3, "replicas must land on distinct workers");
        let mut racks: Vec<_> = chosen.iter().map(|m| m.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        assert_eq!(racks.len(), 2, "fault tolerance wants exactly two racks");
        // Memory disabled by default — nothing volatile.
        assert!(chosen.iter().all(|m| m.tier != StorageTier::Memory.id()));
    }

    #[test]
    fn excluded_workers_never_host_replicas() {
        let snap = paper_like();
        // Every policy must honor the exclusion list a recovering pipeline
        // sends (§3.1), even when the excluded worker is the client-local
        // favorite.
        let mut req =
            PlacementRequest::unspecified(3, 128 << 20, ClientLocation::OnWorker(WorkerId(4)));
        req.excluded_workers = vec![WorkerId(4), WorkerId(0)];
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(moop()),
            Box::new(RuleBasedPolicy::new(PolicyConfig::default(), 7)),
            Box::new(HdfsPolicy::tier_blind(7)),
        ];
        for p in policies {
            let placed = p.place(&snap, &req).unwrap();
            assert!(!placed.is_empty());
            for m in stats_of(&snap, &placed) {
                assert!(
                    !req.excluded_workers.contains(&m.worker),
                    "replica landed on excluded {}",
                    m.worker
                );
            }
        }
    }

    #[test]
    fn moop_respects_tier_pins() {
        let snap = paper_like();
        let rv = ReplicationVector::msh(1, 1, 1);
        let req = PlacementRequest::from_vector(rv, 128 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        let chosen = stats_of(&snap, &placed);
        let tiers: Vec<_> = chosen.iter().map(|m| m.tier.0).collect();
        assert_eq!(tiers, vec![0, 1, 2], "pinned tiers in slot order");
    }

    #[test]
    fn moop_prefers_client_local_first_replica() {
        let snap = paper_like();
        let req =
            PlacementRequest::unspecified(3, 128 << 20, ClientLocation::OnWorker(WorkerId(4)));
        let placed = moop().place(&snap, &req).unwrap();
        let first = snap.media_stats(placed[0]).unwrap();
        assert_eq!(first.worker, WorkerId(4));
    }

    #[test]
    fn moop_second_replica_leaves_first_rack() {
        let snap = paper_like();
        let req =
            PlacementRequest::unspecified(2, 128 << 20, ClientLocation::OnWorker(WorkerId(0)));
        let placed = moop().place(&snap, &req).unwrap();
        let chosen = stats_of(&snap, &placed);
        assert_ne!(chosen[0].rack, chosen[1].rack);
    }

    #[test]
    fn moop_skips_full_media() {
        // All SSDs full: a pinned-SSD replica cannot be placed, but the
        // HDD one still is.
        let mb = 1048576.0;
        let snap = snapshot(
            3,
            2,
            1,
            (1 << 30, 1 << 30, 1900.0 * mb),
            (1 << 30, 0, 340.0 * mb), // SSD remaining = 0
            (1 << 30, 1 << 30, 126.0 * mb),
        );
        let rv = ReplicationVector::msh(0, 1, 1);
        let req = PlacementRequest::from_vector(rv, 1 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        assert_eq!(placed.len(), 1);
        assert_eq!(snap.media_stats(placed[0]).unwrap().tier, StorageTier::Hdd.id());
    }

    #[test]
    fn moop_memory_disabled_excludes_volatile_for_unspecified() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(6, 1 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        for m in stats_of(&snap, &placed) {
            assert_ne!(m.tier, StorageTier::Memory.id());
        }
        // But an explicit pin overrides the default.
        let rv = ReplicationVector::msh(1, 0, 0);
        let req = PlacementRequest::from_vector(rv, 1 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        assert_eq!(stats_of(&snap, &placed)[0].tier, StorageTier::Memory.id());
    }

    #[test]
    fn moop_memory_cap_is_one_third() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = moop_mem().place(&snap, &req).unwrap();
        let vol =
            stats_of(&snap, &placed).iter().filter(|m| m.tier == StorageTier::Memory.id()).count();
        assert!(vol <= 1, "at most ⌊3/3⌋ = 1 memory replica, got {vol}");

        // With 6 replicas the cap is 2.
        let req = PlacementRequest::unspecified(6, 1 << 20, ClientLocation::OffCluster);
        let placed = moop_mem().place(&snap, &req).unwrap();
        let vol =
            stats_of(&snap, &placed).iter().filter(|m| m.tier == StorageTier::Memory.id()).count();
        assert!(vol <= 2);
    }

    #[test]
    fn moop_uniqueness_constraint() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(10, 1 << 20, ClientLocation::OffCluster);
        let placed = moop().place(&snap, &req).unwrap();
        let mut ids = placed.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), placed.len(), "no medium hosts the same block twice");
    }

    #[test]
    fn moop_accounts_existing_replicas() {
        let snap = paper_like();
        // Existing replica on worker 0's HDD; ask for one more.
        let existing = snap
            .media
            .iter()
            .find(|m| m.worker == WorkerId(0) && m.tier == StorageTier::Hdd.id())
            .unwrap()
            .media;
        let mut req = PlacementRequest::unspecified(1, 1 << 20, ClientLocation::OffCluster);
        req.existing = vec![existing];
        let placed = moop().place(&snap, &req).unwrap();
        assert_eq!(placed.len(), 1);
        let m = snap.media_stats(placed[0]).unwrap();
        assert_ne!(m.media, existing);
        // Rack pruning: the new replica should leave the existing rack.
        assert_ne!(m.rack, snap.media_stats(existing).unwrap().rack);
    }

    #[test]
    fn moop_fails_when_nothing_feasible() {
        let mb = 1048576.0;
        let snap =
            snapshot(2, 1, 1, (100, 0, 1900.0 * mb), (100, 0, 340.0 * mb), (100, 0, 126.0 * mb));
        let req = PlacementRequest::unspecified(1, 1 << 20, ClientLocation::OffCluster);
        assert!(matches!(moop().place(&snap, &req), Err(FsError::PlacementFailed(_))));
    }

    #[test]
    fn tm_policy_picks_fastest_tier() {
        let snap = paper_like();
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        let tm = GreedyPolicy::single(Objective::ThroughputMax, cfg);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = tm.place(&snap, &req).unwrap();
        let chosen = stats_of(&snap, &placed);
        // The pure-TM ablation runs uncapped (§7.2: TM "heavily exploits
        // the Memory tier"): all three replicas land in memory.
        for m in &chosen {
            assert_eq!(m.tier, StorageTier::Memory.id());
        }
        // And tie-breaking spreads them over distinct workers.
        let mut workers: Vec<_> = chosen.iter().map(|m| m.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 3);
    }

    #[test]
    fn db_policy_picks_highest_remaining_fraction() {
        let mb = 1048576.0;
        // HDDs have the highest remaining fraction.
        let snap = snapshot(
            3,
            2,
            1,
            (100, 10, 1900.0 * mb),
            (100, 50, 340.0 * mb),
            (1000, 990, 126.0 * mb),
        );
        let db = GreedyPolicy::single(Objective::DataBalancing, PolicyConfig::default());
        let req = PlacementRequest::unspecified(1, 1, ClientLocation::OffCluster);
        let placed = db.place(&snap, &req).unwrap();
        assert_eq!(snap.media_stats(placed[0]).unwrap().tier, StorageTier::Hdd.id());
    }

    #[test]
    fn lb_policy_avoids_busy_media() {
        let mut snap = paper_like();
        // Make every medium busy except one SSD.
        for m in snap.media.iter_mut() {
            m.nr_conn = 5;
        }
        let target = snap
            .media
            .iter()
            .position(|m| m.tier == StorageTier::Ssd.id() && m.worker == WorkerId(3))
            .unwrap();
        snap.media[target].nr_conn = 0;
        let lb = GreedyPolicy::single(Objective::LoadBalancing, PolicyConfig::default());
        let req = PlacementRequest::unspecified(1, 1 << 20, ClientLocation::OffCluster);
        let placed = lb.place(&snap, &req).unwrap();
        assert_eq!(placed[0], snap.media[target].media);
    }

    #[test]
    fn ft_policy_spreads_tiers_nodes_racks() {
        let snap = paper_like();
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        let ft = GreedyPolicy::single(Objective::FaultTolerance, cfg);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = ft.place(&snap, &req).unwrap();
        let chosen = stats_of(&snap, &placed);
        let mut tiers: Vec<_> = chosen.iter().map(|m| m.tier).collect();
        tiers.sort_unstable();
        tiers.dedup();
        assert_eq!(tiers.len(), 3, "FT uses all three tiers");
        let mut workers: Vec<_> = chosen.iter().map(|m| m.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 3);
    }

    #[test]
    fn rule_based_round_robins_tiers_within_two_racks() {
        let snap = paper_like();
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        let rb = RuleBasedPolicy::new(cfg, 42);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = rb.place(&snap, &req).unwrap();
        assert_eq!(placed.len(), 3);
        let chosen = stats_of(&snap, &placed);
        let mut tiers: Vec<_> = chosen.iter().map(|m| m.tier).collect();
        tiers.sort_unstable();
        tiers.dedup();
        assert_eq!(tiers.len(), 3, "round-robin covers each tier once for r=3");
        let mut racks: Vec<_> = chosen.iter().map(|m| m.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        assert!(racks.len() <= 2);
    }

    #[test]
    fn rule_based_rotates_starting_tier_across_blocks() {
        let snap = paper_like();
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        let rb = RuleBasedPolicy::new(cfg, 42);
        let req = PlacementRequest::unspecified(1, 1 << 20, ClientLocation::OffCluster);
        let t1 = stats_of(&snap, &rb.place(&snap, &req).unwrap())[0].tier;
        let t2 = stats_of(&snap, &rb.place(&snap, &req).unwrap())[0].tier;
        let t3 = stats_of(&snap, &rb.place(&snap, &req).unwrap())[0].tier;
        let mut ts = vec![t1, t2, t3];
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), 3, "consecutive blocks rotate through the tiers");
    }

    #[test]
    fn hdfs_hdd_only_uses_slowest_tier() {
        let snap = paper_like();
        let p = HdfsPolicy::hdd_only(7);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = p.place(&snap, &req).unwrap();
        for m in stats_of(&snap, &placed) {
            assert_eq!(m.tier, StorageTier::Hdd.id());
        }
    }

    #[test]
    fn hdfs_tier_blind_mixes_ssd_and_hdd() {
        let snap = paper_like();
        let p = HdfsPolicy::tier_blind(7);
        let mut tiers_seen = HashSet::new();
        for _ in 0..40 {
            let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
            for m in stats_of(&snap, &p.place(&snap, &req).unwrap()) {
                assert_ne!(m.tier, StorageTier::Memory.id(), "HDFS never uses memory");
                tiers_seen.insert(m.tier);
            }
        }
        assert!(tiers_seen.contains(&StorageTier::Ssd.id()));
        assert!(tiers_seen.contains(&StorageTier::Hdd.id()));
    }

    #[test]
    fn hdfs_pipeline_topology_rules() {
        let snap = paper_like();
        let p = HdfsPolicy::hdd_only(123);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OnWorker(WorkerId(2)));
        for _ in 0..10 {
            let placed = p.place(&snap, &req).unwrap();
            let chosen = stats_of(&snap, &placed);
            assert_eq!(chosen[0].worker, WorkerId(2), "first replica is writer-local");
            assert_ne!(chosen[1].rack, chosen[0].rack, "second replica off-rack");
            assert_eq!(chosen[2].rack, chosen[1].rack, "third shares second's rack");
            assert_ne!(chosen[2].worker, chosen[1].worker);
        }
    }

    #[test]
    fn greedy_close_to_exhaustive_optimum() {
        // Ablation groundwork: on a small cluster, the greedy MOOP solution
        // scores within a small factor of the exhaustive optimum.
        let mb = 1048576.0;
        let snap = snapshot(
            3,
            2,
            1,
            (100 << 20, 80 << 20, 1900.0 * mb),
            (200 << 20, 150 << 20, 340.0 * mb),
            (400 << 20, 300 << 20, 126.0 * mb),
        );
        let cfg = PolicyConfig { memory_placement_enabled: true, ..PolicyConfig::default() };
        let policy = GreedyPolicy::moop(cfg);
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let placed = policy.place(&snap, &req).unwrap();

        let refs: Vec<&MediaStats> = snap.media.iter().collect();
        let ctx = ObjectiveContext::new(&refs, 1 << 20, 3, 3, 2);
        let greedy_score = score(&stats_of(&snap, &placed), &ctx, &Objective::ALL);

        // Exhaustive search over all 3-subsets.
        let mut best = f64::INFINITY;
        let n = refs.len();
        for i in 0..n {
            for j in (i + 1)..n {
                for l in (j + 1)..n {
                    let s = score(&[refs[i], refs[j], refs[l]], &ctx, &Objective::ALL);
                    best = best.min(s);
                }
            }
        }
        assert!(greedy_score <= best * 1.5 + 1e-9, "greedy {greedy_score} vs exhaustive {best}");
    }

    #[test]
    fn audit_rounds_record_argmin_candidates() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(3, 128 << 20, ClientLocation::OffCluster);
        let (placed, rounds) = moop().place_with_audit(&snap, &req).unwrap();
        assert_eq!(placed.len(), 3);
        assert_eq!(rounds.len(), 3, "one round per replica slot");
        for (i, round) in rounds.iter().enumerate() {
            assert_eq!(round.replica_index, i as u32);
            assert_eq!(round.tier_pin, None);
            assert_eq!(round.chosen_media, Some(placed[i]));
            assert!(!round.candidates.is_empty());
            let chosen: Vec<_> = round.candidates.iter().filter(|c| c.chosen).collect();
            assert_eq!(chosen.len(), 1);
            assert_eq!(chosen[0].media, placed[i]);
            // The winner is the argmin of the recorded Eq. 11 scores,
            // within the engine's tie-break epsilon.
            let min = round.candidates.iter().map(|c| c.total).fold(f64::INFINITY, f64::min);
            let eps = 1e-9 * (1.0 + min.abs().min(1e12));
            assert!(
                chosen[0].total <= min + eps,
                "chosen {} vs min {} in round {i}",
                chosen[0].total,
                min
            );
        }
        // Audit and plain placement agree when the RNG state matches.
        let audited = GreedyPolicy::moop(PolicyConfig::default());
        let plain = GreedyPolicy::moop(PolicyConfig::default());
        let (a, _) = audited.place_with_audit(&snap, &req).unwrap();
        let p = plain.place_with_audit(&snap, &req).map(|(m, _)| m).unwrap();
        assert_eq!(a, p);
    }

    #[test]
    fn baseline_policies_audit_empty_rounds() {
        let snap = paper_like();
        let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
        let rb = RuleBasedPolicy::new(PolicyConfig::default(), 7);
        let (placed, rounds) = rb.place_with_audit(&snap, &req).unwrap();
        assert!(!placed.is_empty());
        assert!(rounds.is_empty(), "rule-based has no scored model to audit");
    }

    #[test]
    fn build_factory_constructs_every_kind() {
        let cfg = PolicyConfig::default();
        for kind in [
            PlacementPolicyKind::Moop,
            PlacementPolicyKind::DataBalancing,
            PlacementPolicyKind::LoadBalancing,
            PlacementPolicyKind::FaultTolerance,
            PlacementPolicyKind::ThroughputMax,
            PlacementPolicyKind::RuleBased,
            PlacementPolicyKind::HdfsHddOnly,
            PlacementPolicyKind::HdfsTierBlind,
        ] {
            let p = build_placement_policy(kind, &cfg, 1);
            assert!(!p.name().is_empty());
            let snap = paper_like();
            let req = PlacementRequest::unspecified(3, 1 << 20, ClientLocation::OffCluster);
            let placed = p.place(&snap, &req).unwrap();
            assert!(!placed.is_empty());
        }
    }
}
