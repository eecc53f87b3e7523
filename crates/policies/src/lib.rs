//! Automated data-management policies — the primary contribution of the
//! OctopusFS paper.
//!
//! - [`objectives`]: the four optimization objectives of §3.2 (data
//!   balancing, load balancing, fault tolerance, throughput maximization),
//!   their ideal upper bounds, and the ideal-point distance of Eq. 11.
//! - [`placement`]: the [`PlacementPolicy`] trait, the default MOOP policy
//!   (Algorithms 1 and 2 with the §3.3 pruning heuristics), the four
//!   single-objective policies used in the paper's ablation (§7.2), the
//!   Rule-based baseline, and the two HDFS-default baselines.
//! - [`retrieval`]: the [`RetrievalPolicy`] trait with the rate-based
//!   ordering of Eq. 12 and the HDFS locality-only baseline.
//! - [`removal`]: leave-one-out replica removal for over-replicated blocks
//!   (§5).
//! - [`tiering`]: the [`TierClassifier`] trait judging files hot/warm/cold
//!   from heat telemetry, driving the master's auto-migration planner.
//!
//! Policies are pure: they consume a [`ClusterSnapshot`] (media and worker
//! statistics as reported via heartbeats) and return decisions. This makes
//! them unit-testable and benchmarkable in isolation, and means the same
//! code drives both the real in-process cluster and the simulated one.

#![forbid(unsafe_code)]

pub mod objectives;
pub mod placement;
pub mod removal;
pub mod retrieval;
pub mod snapshot;
pub mod tiering;

pub use placement::{
    build_placement_policy, GreedyPolicy, HdfsPolicy, Objective, PlacementPolicy, PlacementRequest,
    RuleBasedPolicy,
};
pub use removal::{choose_replica_to_remove, choose_replica_to_remove_explained};
pub use retrieval::{build_retrieval_policy, HdfsLocalityPolicy, RateBasedPolicy, RetrievalPolicy};
pub use snapshot::ClusterSnapshot;
pub use tiering::{EwmaThresholdClassifier, Temperature, TierClassifier};
