//! The four optimization objectives of paper §3.2 and the ideal-point
//! distance of Eq. 11.
//!
//! Each objective has a value function `f(m⃗)` over a list of chosen media
//! and an ideal upper bound `f*(m⃗)` attained by a (possibly infeasible)
//! Pareto-optimal solution. The placement policies minimize the Euclidean
//! distance `‖f(m⃗) − z*(m⃗)‖` (Eq. 11).

use octopus_common::MediaStats;

/// One of the paper's optimization objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Even distribution of data across media (Eq. 1).
    DataBalancing,
    /// Even distribution of I/O connections across media (Eq. 3).
    LoadBalancing,
    /// Replicas spread across tiers, nodes, and (two) racks (Eq. 5).
    FaultTolerance,
    /// Prefer media with the highest write throughput (Eq. 7).
    ThroughputMax,
}

impl Objective {
    /// All four objectives, the default MOOP set.
    pub const ALL: [Objective; 4] = [
        Objective::DataBalancing,
        Objective::LoadBalancing,
        Objective::FaultTolerance,
        Objective::ThroughputMax,
    ];
}

/// Cluster-level constants needed to evaluate the objectives and their
/// ideal bounds: extrema over the feasible media plus the counts `k`, `n`,
/// `t` of tiers, nodes, and racks.
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveContext {
    /// Size of the block being placed (bytes).
    pub block_size: u64,
    /// `max over feasible m of Rem[m]/Cap[m]` (Eq. 2).
    pub max_rem_frac: f64,
    /// `min over feasible m of NrConn[m]` (Eq. 4).
    pub min_conn: u32,
    /// `ln(max over feasible m of WThru[m])` (Eq. 8 normalization).
    pub ln_max_wthru: f64,
    /// Total number of storage tiers in the cluster (`k`).
    pub k: usize,
    /// Total number of worker nodes (`n`).
    pub n: usize,
    /// Total number of racks (`t`).
    pub t: usize,
}

impl ObjectiveContext {
    /// Builds a context from the feasible media set. `k`, `n`, `t` are the
    /// cluster totals (not derived from `feasible`, which may be pruned).
    pub fn new(feasible: &[&MediaStats], block_size: u64, k: usize, n: usize, t: usize) -> Self {
        let mut max_rem_frac = 0.0f64;
        let mut min_conn = u32::MAX;
        let mut max_wthru = 1.0f64;
        for m in feasible {
            max_rem_frac = max_rem_frac.max(m.remaining_fraction());
            min_conn = min_conn.min(m.nr_conn);
            max_wthru = max_wthru.max(m.write_thru);
        }
        if min_conn == u32::MAX {
            min_conn = 0;
        }
        Self {
            block_size,
            max_rem_frac,
            min_conn,
            ln_max_wthru: max_wthru.ln().max(f64::MIN_POSITIVE),
            k,
            n,
            t,
        }
    }
}

/// Data-balancing objective `f_db` (Eq. 1): sum over chosen media of the
/// remaining-capacity fraction after storing the block.
pub fn f_db(chosen: &[&MediaStats], ctx: &ObjectiveContext) -> f64 {
    chosen
        .iter()
        .map(|m| {
            if m.capacity == 0 {
                0.0
            } else {
                (m.remaining as f64 - ctx.block_size as f64) / m.capacity as f64
            }
        })
        .sum()
}

/// Ideal data balancing `f_db*` (Eq. 2).
pub fn ideal_db(len: usize, ctx: &ObjectiveContext) -> f64 {
    len as f64 * ctx.max_rem_frac
}

/// Load-balancing objective `f_lb` (Eq. 3): sum of `1/(NrConn+1)`.
pub fn f_lb(chosen: &[&MediaStats]) -> f64 {
    chosen.iter().map(|m| 1.0 / (m.nr_conn as f64 + 1.0)).sum()
}

/// Ideal load balancing `f_lb*` (Eq. 4).
pub fn ideal_lb(len: usize, ctx: &ObjectiveContext) -> f64 {
    len as f64 / (ctx.min_conn as f64 + 1.0)
}

/// Fault-tolerance objective `f_ft` (Eq. 5).
pub fn f_ft(chosen: &[&MediaStats], ctx: &ObjectiveContext) -> f64 {
    if chosen.is_empty() {
        return 0.0;
    }
    let mut tiers: Vec<_> = chosen.iter().map(|m| m.tier).collect();
    tiers.sort_unstable();
    tiers.dedup();
    let mut nodes: Vec<_> = chosen.iter().map(|m| m.worker).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut racks: Vec<_> = chosen.iter().map(|m| m.rack).collect();
    racks.sort_unstable();
    racks.dedup();

    let r = chosen.len();
    let tier_term = tiers.len() as f64 / r.min(ctx.k.max(1)) as f64;
    let node_term = nodes.len() as f64 / r.min(ctx.n.max(1)) as f64;
    let rack_term = if ctx.t == 1 { 1.0 } else { 1.0 / ((racks.len() as f64 - 2.0).abs() + 1.0) };
    tier_term + node_term + rack_term
}

/// Ideal fault tolerance `f_ft*` (Eq. 6): the constant 3.
pub fn ideal_ft() -> f64 {
    3.0
}

/// Throughput-maximization objective `f_tm` (Eq. 7): sum of log-normalized
/// write throughputs.
pub fn f_tm(chosen: &[&MediaStats], ctx: &ObjectiveContext) -> f64 {
    chosen.iter().map(|m| m.write_thru.max(1.0).ln() / ctx.ln_max_wthru).sum()
}

/// Ideal throughput maximization `f_tm*` (Eq. 8): `|m⃗|`.
pub fn ideal_tm(len: usize) -> f64 {
    len as f64
}

/// The ideal-point distance `‖f(m⃗) − z*(m⃗)‖₂` (Eq. 11) restricted to a
/// set of objectives. Lower is better; 0 would be the (generally
/// infeasible) ideal point.
pub fn score(chosen: &[&MediaStats], ctx: &ObjectiveContext, objectives: &[Objective]) -> f64 {
    let len = chosen.len();
    let mut sum_sq = 0.0;
    for o in objectives {
        let d = match o {
            Objective::DataBalancing => f_db(chosen, ctx) - ideal_db(len, ctx),
            Objective::LoadBalancing => f_lb(chosen) - ideal_lb(len, ctx),
            Objective::FaultTolerance => f_ft(chosen, ctx) - ideal_ft(),
            Objective::ThroughputMax => f_tm(chosen, ctx) - ideal_tm(len),
        };
        sum_sq += d * d;
    }
    sum_sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::{MediaId, RackId, TierId, WorkerId};

    #[allow(clippy::too_many_arguments)]
    fn media(
        id: u32,
        worker: u32,
        rack: u16,
        tier: u8,
        cap: u64,
        rem: u64,
        conn: u32,
        wthru: f64,
    ) -> MediaStats {
        MediaStats {
            media: MediaId(id),
            worker: WorkerId(worker),
            rack: RackId(rack),
            tier: TierId(tier),
            capacity: cap,
            remaining: rem,
            nr_conn: conn,
            write_thru: wthru,
            read_thru: wthru,
        }
    }

    fn ctx_for(feasible: &[&MediaStats], bs: u64) -> ObjectiveContext {
        ObjectiveContext::new(feasible, bs, 3, 9, 3)
    }

    #[test]
    fn data_balancing_values() {
        let a = media(0, 0, 0, 0, 100, 80, 0, 100.0);
        let b = media(1, 1, 0, 0, 200, 100, 0, 100.0);
        let all = [&a, &b];
        let ctx = ctx_for(&all, 10);
        // f_db = (80-10)/100 + (100-10)/200 = 0.7 + 0.45
        assert!((f_db(&all, &ctx) - 1.15).abs() < 1e-12);
        // max_rem_frac = 0.8, ideal for 2 media = 1.6
        assert!((ideal_db(2, &ctx) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn load_balancing_prefers_idle_media() {
        let idle = media(0, 0, 0, 0, 100, 100, 0, 100.0);
        let busy = media(1, 1, 0, 0, 100, 100, 4, 100.0);
        assert!((f_lb(&[&idle]) - 1.0).abs() < 1e-12);
        assert!((f_lb(&[&busy]) - 0.2).abs() < 1e-12);
        let ctx = ctx_for(&[&idle, &busy], 0);
        assert_eq!(ctx.min_conn, 0);
        assert!((ideal_lb(2, &ctx) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fault_tolerance_ideal_when_spread() {
        // 3 media on 3 different tiers, 3 different nodes, 2 racks.
        let a = media(0, 0, 0, 0, 1, 1, 0, 1.0);
        let b = media(1, 1, 0, 1, 1, 1, 0, 1.0);
        let c = media(2, 2, 1, 2, 1, 1, 0, 1.0);
        let chosen = [&a, &b, &c];
        let ctx = ctx_for(&chosen, 0);
        assert!((f_ft(&chosen, &ctx) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fault_tolerance_penalizes_colocated() {
        // 3 media on the same node, same tier, 1 rack present out of 3.
        let a = media(0, 0, 0, 2, 1, 1, 0, 1.0);
        let b = media(1, 0, 0, 2, 1, 1, 0, 1.0);
        let c = media(2, 0, 0, 2, 1, 1, 0, 1.0);
        let chosen = [&a, &b, &c];
        let ctx = ctx_for(&chosen, 0);
        // tiers: 1/3, nodes: 1/3, racks: 1/(|1-2|+1) = 1/2.
        assert!((f_ft(&chosen, &ctx) - (1.0 / 3.0 + 1.0 / 3.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn fault_tolerance_three_racks_worse_than_two() {
        let two = [
            &media(0, 0, 0, 0, 1, 1, 0, 1.0),
            &media(1, 1, 0, 1, 1, 1, 0, 1.0),
            &media(2, 2, 1, 2, 1, 1, 0, 1.0),
        ];
        let three = [
            &media(0, 0, 0, 0, 1, 1, 0, 1.0),
            &media(1, 1, 1, 1, 1, 1, 0, 1.0),
            &media(2, 2, 2, 2, 1, 1, 0, 1.0),
        ];
        let ctx = ctx_for(&two, 0);
        assert!(f_ft(&two, &ctx) > f_ft(&three, &ctx));
    }

    #[test]
    fn fault_tolerance_single_rack_cluster() {
        let a = media(0, 0, 0, 0, 1, 1, 0, 1.0);
        let chosen = [&a];
        let ctx = ObjectiveContext::new(&chosen, 0, 3, 9, 1);
        // t = 1 → rack term is 1 regardless.
        assert!((f_ft(&chosen, &ctx) - (1.0 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn throughput_normalization() {
        let fast = media(0, 0, 0, 0, 1, 1, 0, (1u64 << 31) as f64);
        let slow = media(1, 1, 0, 2, 1, 1, 0, (1u64 << 27) as f64);
        let all = [&fast, &slow];
        let ctx = ctx_for(&all, 0);
        let ftm_fast = f_tm(&[&fast], &ctx);
        let ftm_slow = f_tm(&[&slow], &ctx);
        assert!((ftm_fast - 1.0).abs() < 1e-12); // fastest normalizes to 1
        assert!(ftm_slow < 1.0 && ftm_slow > 0.8); // log compression
    }

    #[test]
    fn score_is_zero_at_ideal_point() {
        // Single medium that is simultaneously best in every respect.
        let m = media(0, 0, 0, 0, 100, 100, 0, 1000.0);
        let chosen = [&m];
        let ctx = ObjectiveContext::new(&chosen, 0, 1, 1, 1);
        assert!(score(&chosen, &ctx, &Objective::ALL) < 1e-9);
    }

    #[test]
    fn score_prefers_pareto_better_choice() {
        // b dominates a in every dimension → lower (better) score.
        let a = media(0, 0, 0, 2, 100, 20, 5, 10.0 * 1e6);
        let b = media(1, 1, 1, 0, 100, 90, 0, 1900.0 * 1e6);
        let all = [&a, &b];
        let ctx = ctx_for(&all, 0);
        assert!(score(&[&b], &ctx, &Objective::ALL) < score(&[&a], &ctx, &Objective::ALL));
    }

    #[test]
    fn empty_context_is_safe() {
        let ctx = ObjectiveContext::new(&[], 0, 3, 9, 3);
        assert_eq!(ctx.min_conn, 0);
        assert_eq!(ctx.max_rem_frac, 0.0);
        assert_eq!(score(&[], &ctx, &Objective::ALL), 3.0); // only f_ft* = 3 differs
    }

    #[test]
    fn optimal_substructure_of_db() {
        // The best 2 media under f_db include the best 1 medium (OSP, §3.3).
        let ms: Vec<MediaStats> =
            (0..4).map(|i| media(i, i, 0, 0, 100, 20 * (i as u64 + 1), 0, 1.0)).collect();
        let refs: Vec<&MediaStats> = ms.iter().collect();
        let ctx = ctx_for(&refs, 0);
        // best single = highest remaining fraction = ms[3]
        let best1 = refs
            .iter()
            .max_by(|a, b| f_db(&[a], &ctx).partial_cmp(&f_db(&[b], &ctx)).unwrap())
            .unwrap()
            .media;
        assert_eq!(best1, MediaId(3));
        // best pair maximizing f_db is {ms[2], ms[3]} which contains ms[3].
        let mut best_pair = (f64::MIN, (0, 0));
        for i in 0..4 {
            for j in (i + 1)..4 {
                let v = f_db(&[refs[i], refs[j]], &ctx);
                if v > best_pair.0 {
                    best_pair = (v, (i, j));
                }
            }
        }
        assert_eq!(best_pair.1, (2, 3));
    }
}
