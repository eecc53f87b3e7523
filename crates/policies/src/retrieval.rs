//! Data retrieval (replica ordering) policies — paper §4.2.
//!
//! When a client opens a block, the master orders the replica locations so
//! that reading from the first is expected to be fastest. The OctopusFS
//! [`RateBasedPolicy`] estimates the achievable transfer rate of each
//! location (Eq. 12) from the worker's network throughput, the medium's
//! read throughput, and both of their active connection counts. The
//! [`HdfsLocalityPolicy`] baseline orders purely by network distance.

use parking_lot::Mutex;

use octopus_common::config::RetrievalPolicyKind;
use octopus_common::rng::Rng;
use octopus_common::{CandidateScore, ClientLocation, Location};

use crate::snapshot::ClusterSnapshot;

/// A replica-ordering policy.
pub trait RetrievalPolicy: Send + Sync {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Orders `locations` best-to-read-first for the given client.
    fn order(
        &self,
        snap: &ClusterSnapshot,
        client: ClientLocation,
        locations: &[Location],
    ) -> Vec<Location>;

    /// Like [`order`](Self::order), but also returns one audit
    /// [`CandidateScore`] per location with `total` holding the decision
    /// metric (the Eq. 12 estimated rate for the rate-based policy —
    /// higher is better) and `chosen` marking the location served first.
    /// Policies without a scored model return no candidates.
    fn order_with_audit(
        &self,
        snap: &ClusterSnapshot,
        client: ClientLocation,
        locations: &[Location],
    ) -> (Vec<Location>, Vec<CandidateScore>) {
        (self.order(snap, client, locations), Vec::new())
    }
}

/// Constructs the retrieval policy selected by configuration.
pub fn build_retrieval_policy(kind: RetrievalPolicyKind, seed: u64) -> Box<dyn RetrievalPolicy> {
    match kind {
        RetrievalPolicyKind::RateBased => Box::new(RateBasedPolicy::new(seed)),
        RetrievalPolicyKind::HdfsLocality => Box::new(HdfsLocalityPolicy::new(seed)),
    }
}

/// The OctopusFS rate-based ordering (Eq. 12).
///
/// For each replica on medium `m` of worker `W` the policy estimates
/// `min(NetThru[W]/(NrConn[W]+1), RThru[m]/(NrConn[m]+1))` — the `+1`
/// accounts for the connection the prospective reader itself will open
/// (and keeps the idle case finite; the paper's formula divides by the raw
/// count). Node-local reads skip the network term entirely. Ties where the
/// network is the bottleneck fall back to the media rate; remaining ties
/// are shuffled to spread load (§4.2).
pub struct RateBasedPolicy {
    rng: Mutex<Rng>,
}

impl RateBasedPolicy {
    /// Creates the policy with a deterministic RNG seed for tie shuffling.
    pub fn new(seed: u64) -> Self {
        Self { rng: Mutex::new(Rng::seed_from_u64(seed)) }
    }

    /// The estimated transfer rate for one location, plus the media-only
    /// rate used for tie-breaking. Unknown media/workers (e.g. a replica
    /// on a dead worker) rate as 0 so they sort last but remain available
    /// as failover targets.
    pub fn estimate_rate(
        snap: &ClusterSnapshot,
        client: ClientLocation,
        loc: &Location,
    ) -> (f64, f64) {
        let Some(media) = snap.media_stats(loc.media) else {
            return (0.0, 0.0);
        };
        let media_rate = media.read_thru / (media.nr_conn as f64 + 1.0);
        let local = matches!(client, ClientLocation::OnWorker(w) if w == loc.worker);
        if local {
            return (media_rate, media_rate);
        }
        let Some(worker) = snap.worker_stats(loc.worker) else {
            return (0.0, media_rate);
        };
        let net_rate = worker.net_thru / (worker.nr_conn as f64 + 1.0);
        (net_rate.min(media_rate), media_rate)
    }
}

impl RetrievalPolicy for RateBasedPolicy {
    fn name(&self) -> &'static str {
        "OctopusFS"
    }

    fn order(
        &self,
        snap: &ClusterSnapshot,
        client: ClientLocation,
        locations: &[Location],
    ) -> Vec<Location> {
        let mut rng = self.rng.lock();
        let mut keyed: Vec<(f64, f64, u64, Location)> = locations
            .iter()
            .map(|loc| {
                let (rate, media_rate) = Self::estimate_rate(snap, client, loc);
                (rate, media_rate, rng.next_u64(), *loc)
            })
            .collect();
        keyed.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap().then(b.1.partial_cmp(&a.1).unwrap()).then(a.2.cmp(&b.2))
        });
        keyed.into_iter().map(|(_, _, _, l)| l).collect()
    }

    fn order_with_audit(
        &self,
        snap: &ClusterSnapshot,
        client: ClientLocation,
        locations: &[Location],
    ) -> (Vec<Location>, Vec<CandidateScore>) {
        let ordered = self.order(snap, client, locations);
        let first = ordered.first().copied();
        let candidates = locations
            .iter()
            .map(|loc| {
                let (rate, _) = Self::estimate_rate(snap, client, loc);
                CandidateScore {
                    media: loc.media,
                    worker: loc.worker,
                    tier: loc.tier,
                    total: rate,
                    db: 0.0,
                    lb: 0.0,
                    ft: 0.0,
                    tm: 0.0,
                    chosen: Some(*loc) == first,
                }
            })
            .collect();
        (ordered, candidates)
    }
}

/// The HDFS baseline: order by network distance only (node-local, then
/// rack-local, then off-rack), shuffling within each distance class. Tiers
/// and device load are ignored — exactly what §7.3 compares against.
pub struct HdfsLocalityPolicy {
    rng: Mutex<Rng>,
}

impl HdfsLocalityPolicy {
    /// Creates the policy with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: Mutex::new(Rng::seed_from_u64(seed)) }
    }

    fn distance_weight(snap: &ClusterSnapshot, client: ClientLocation, loc: &Location) -> u32 {
        let ClientLocation::OnWorker(cw) = client else {
            return 4; // off-cluster: everything is off-rack
        };
        if cw == loc.worker {
            return 0;
        }
        let (Some(a), Some(b)) = (snap.worker_stats(cw), snap.worker_stats(loc.worker)) else {
            return 4;
        };
        if a.rack == b.rack {
            2
        } else {
            4
        }
    }
}

impl RetrievalPolicy for HdfsLocalityPolicy {
    fn name(&self) -> &'static str {
        "HDFS"
    }

    fn order(
        &self,
        snap: &ClusterSnapshot,
        client: ClientLocation,
        locations: &[Location],
    ) -> Vec<Location> {
        let mut rng = self.rng.lock();
        let mut keyed: Vec<(u32, u64, Location)> = locations
            .iter()
            .map(|loc| (Self::distance_weight(snap, client, loc), rng.next_u64(), *loc))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        keyed.into_iter().map(|(_, _, l)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::testutil::paper_like;
    use octopus_common::{MediaId, StorageTier, WorkerId};

    fn loc(snap: &ClusterSnapshot, worker: u32, tier: StorageTier) -> Location {
        let m = snap
            .media
            .iter()
            .find(|m| m.worker == WorkerId(worker) && m.tier == tier.id())
            .unwrap();
        Location { worker: m.worker, media: m.media, tier: m.tier }
    }

    #[test]
    fn rate_based_prefers_memory_over_remote_hdd() {
        let snap = paper_like();
        let locations = vec![
            loc(&snap, 3, StorageTier::Hdd),
            loc(&snap, 5, StorageTier::Memory),
            loc(&snap, 7, StorageTier::Hdd),
        ];
        let p = RateBasedPolicy::new(1);
        let ordered = p.order(&snap, ClientLocation::OffCluster, &locations);
        assert_eq!(ordered[0].tier, StorageTier::Memory.id());
    }

    #[test]
    fn rate_based_local_hdd_vs_remote_memory_depends_on_congestion() {
        // Paper §4.2's example: with an idle network, a remote in-memory
        // replica beats a local HDD replica; with a congested remote
        // worker, the local HDD wins.
        let mut snap = paper_like();
        let local_hdd = loc(&snap, 0, StorageTier::Hdd);
        let remote_mem = loc(&snap, 4, StorageTier::Memory);
        let client = ClientLocation::OnWorker(WorkerId(0));
        let p = RateBasedPolicy::new(1);

        let ordered = p.order(&snap, client, &[local_hdd, remote_mem]);
        assert_eq!(ordered[0], remote_mem, "idle network: remote memory first");

        // Congest worker 4's NIC with 10 connections.
        for w in snap.workers.iter_mut() {
            if w.worker == WorkerId(4) {
                w.nr_conn = 10;
            }
        }
        let ordered = p.order(&snap, client, &[local_hdd, remote_mem]);
        assert_eq!(ordered[0], local_hdd, "congested network: local HDD first");
    }

    #[test]
    fn rate_based_accounts_media_load() {
        let mut snap = paper_like();
        let a = loc(&snap, 1, StorageTier::Ssd);
        let b = loc(&snap, 2, StorageTier::Ssd);
        // Load a's SSD heavily.
        for m in snap.media.iter_mut() {
            if m.media == a.media {
                m.nr_conn = 20;
            }
        }
        let p = RateBasedPolicy::new(1);
        let ordered = p.order(&snap, ClientLocation::OffCluster, &[a, b]);
        assert_eq!(ordered[0], b);
    }

    #[test]
    fn rate_based_unknown_media_sorts_last() {
        let snap = paper_like();
        let good = loc(&snap, 1, StorageTier::Hdd);
        let dead =
            Location { worker: WorkerId(99), media: MediaId(9999), tier: StorageTier::Hdd.id() };
        let p = RateBasedPolicy::new(1);
        let ordered = p.order(&snap, ClientLocation::OffCluster, &[dead, good]);
        assert_eq!(ordered[0], good);
        assert_eq!(ordered[1], dead);
    }

    #[test]
    fn estimate_rate_matches_equation() {
        let mut snap = paper_like();
        for w in snap.workers.iter_mut() {
            w.nr_conn = 4; // → net rate = NetThru / 5
        }
        let l = loc(&snap, 2, StorageTier::Ssd);
        for m in snap.media.iter_mut() {
            if m.media == l.media {
                m.nr_conn = 1; // → media rate = RThru / 2
            }
        }
        let media = *snap.media_stats(l.media).unwrap();
        let worker = *snap.worker_stats(l.worker).unwrap();
        let (rate, media_rate) =
            RateBasedPolicy::estimate_rate(&snap, ClientLocation::OffCluster, &l);
        assert!((media_rate - media.read_thru / 2.0).abs() < 1e-6);
        assert!((rate - (worker.net_thru / 5.0).min(media.read_thru / 2.0)).abs() < 1e-6);
    }

    #[test]
    fn hdfs_orders_by_distance_only() {
        let snap = paper_like();
        // Worker 0's rack is {0,1,2}.
        let local = loc(&snap, 0, StorageTier::Hdd);
        let rack_local_mem = loc(&snap, 1, StorageTier::Memory);
        let off_rack_mem = loc(&snap, 5, StorageTier::Memory);
        let p = HdfsLocalityPolicy::new(1);
        let ordered = p.order(
            &snap,
            ClientLocation::OnWorker(WorkerId(0)),
            &[off_rack_mem, rack_local_mem, local],
        );
        assert_eq!(ordered[0], local, "HDFS picks the local HDD over any memory replica");
        assert_eq!(ordered[1], rack_local_mem);
        assert_eq!(ordered[2], off_rack_mem);
    }

    #[test]
    fn hdfs_off_cluster_client_shuffles() {
        let snap = paper_like();
        let locations: Vec<Location> = (0..6).map(|w| loc(&snap, w, StorageTier::Hdd)).collect();
        let p = HdfsLocalityPolicy::new(99);
        let o1 = p.order(&snap, ClientLocation::OffCluster, &locations);
        let o2 = p.order(&snap, ClientLocation::OffCluster, &locations);
        assert_eq!(o1.len(), 6);
        // With everything equidistant, two orderings should differ
        // (probability of identical shuffles is negligible).
        assert_ne!(o1, o2);
    }

    #[test]
    fn rate_based_audit_marks_best_rate_chosen() {
        let snap = paper_like();
        let locations = vec![
            loc(&snap, 3, StorageTier::Hdd),
            loc(&snap, 5, StorageTier::Memory),
            loc(&snap, 7, StorageTier::Hdd),
        ];
        let p = RateBasedPolicy::new(1);
        let (ordered, cands) = p.order_with_audit(&snap, ClientLocation::OffCluster, &locations);
        assert_eq!(cands.len(), 3);
        let chosen: Vec<_> = cands.iter().filter(|c| c.chosen).collect();
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].media, ordered[0].media);
        // The chosen location has the maximal recorded rate (higher is
        // better for retrievals).
        let max = cands.iter().map(|c| c.total).fold(f64::NEG_INFINITY, f64::max);
        assert!(chosen[0].total >= max - 1e-9);
    }

    #[test]
    fn hdfs_audit_has_no_scored_candidates() {
        let snap = paper_like();
        let locations = vec![loc(&snap, 0, StorageTier::Hdd), loc(&snap, 5, StorageTier::Hdd)];
        let p = HdfsLocalityPolicy::new(1);
        let (ordered, cands) = p.order_with_audit(&snap, ClientLocation::OffCluster, &locations);
        assert_eq!(ordered.len(), 2);
        assert!(cands.is_empty());
    }

    #[test]
    fn factory_builds_both() {
        assert_eq!(build_retrieval_policy(RetrievalPolicyKind::RateBased, 0).name(), "OctopusFS");
        assert_eq!(build_retrieval_policy(RetrievalPolicyKind::HdfsLocality, 0).name(), "HDFS");
    }
}
