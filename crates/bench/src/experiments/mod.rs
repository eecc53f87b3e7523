//! One module per paper table/figure; each exposes `run() -> String`
//! which executes the experiment, prints the result, and mirrors it to
//! `results/<id>.txt`. The `src/bin/exp_*` binaries are thin wrappers;
//! `run_all` regenerates everything for EXPERIMENTS.md.

pub mod ablation;
pub mod aggregate_io;
pub mod autotier;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod heat;
pub mod parallel_io;
pub mod scalability;
pub mod table2;
pub mod table3;
pub mod usecase_sched;

/// `len` deterministic pseudo-random bytes from `seed`: the file the
/// real-cluster experiments write and read back.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

/// The six replication vectors of Figure 2, with their paper labels.
pub fn fig2_vectors() -> Vec<(&'static str, octopus_common::ReplicationVector)> {
    use octopus_common::ReplicationVector as RV;
    vec![
        ("<3,0,0>", RV::msh(3, 0, 0)),
        ("<0,3,0>", RV::msh(0, 3, 0)),
        ("<0,0,3>", RV::msh(0, 0, 3)),
        ("<1,1,1>", RV::msh(1, 1, 1)),
        ("<1,0,2>", RV::msh(1, 0, 2)),
        ("<0,1,2>", RV::msh(0, 1, 2)),
    ]
}

/// The degrees of parallelism swept in Figures 2 and 5 (the paper names
/// d = 27 explicitly; the five-point sweep brackets it).
pub const DEGREES: [u32; 5] = [1, 3, 9, 27, 54];

/// The eight §7.2 placement policies, figure order.
pub fn fig3_policies() -> Vec<octopus_common::config::PlacementPolicyKind> {
    use octopus_common::config::PlacementPolicyKind as P;
    vec![
        P::ThroughputMax,
        P::LoadBalancing,
        P::FaultTolerance,
        P::DataBalancing,
        P::Moop,
        P::RuleBased,
        P::HdfsHddOnly,
        P::HdfsTierBlind,
    ]
}

/// Display name of a placement policy kind.
pub fn policy_label(kind: octopus_common::config::PlacementPolicyKind) -> &'static str {
    use octopus_common::config::PlacementPolicyKind as P;
    match kind {
        P::Moop => "MOOP",
        P::DataBalancing => "DB",
        P::LoadBalancing => "LB",
        P::FaultTolerance => "FT",
        P::ThroughputMax => "TM",
        P::RuleBased => "Rule-based",
        P::HdfsHddOnly => "Original HDFS",
        P::HdfsTierBlind => "HDFS with SSD",
        P::MoopDropObjective(0) => "MOOP-DB",
        P::MoopDropObjective(1) => "MOOP-LB",
        P::MoopDropObjective(2) => "MOOP-FT",
        P::MoopDropObjective(_) => "MOOP-TM",
    }
}
