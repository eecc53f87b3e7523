//! Directional end-to-end tests of the compute simulation: OctopusFS must
//! beat the HDFS baseline, Hadoop must benefit more than Spark, and the
//! Pegasus optimizations must compound — the qualitative claims of §7.5
//! and §7.6.

use octopus_compute::{
    hibench_workloads, pegasus_workloads, run_hibench, run_pegasus, FsMode, PegasusMode, Platform,
};

fn workload(name: &str) -> octopus_compute::HiBenchWorkload {
    hibench_workloads().into_iter().find(|w| w.name == name).unwrap()
}

#[test]
fn sort_octopus_beats_hdfs_on_hadoop() {
    let w = workload("Sort");
    let hdfs = run_hibench(&w, Platform::Hadoop, FsMode::Hdfs).unwrap();
    let octo = run_hibench(&w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
    assert!(hdfs > 0.0 && octo > 0.0);
    assert!(octo < hdfs, "OctopusFS ({octo:.1}s) must beat HDFS ({hdfs:.1}s) on Sort");
}

#[test]
fn chained_workload_gains_more_on_hadoop_than_spark() {
    // Pagerank chains three jobs; Hadoop passes intermediates through the
    // DFS while Spark keeps them in memory, so OctopusFS helps Hadoop more
    // (the paper's Figure 6 asymmetry).
    let w = workload("Pagerank");
    let h_hdfs = run_hibench(&w, Platform::Hadoop, FsMode::Hdfs).unwrap();
    let h_octo = run_hibench(&w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
    let s_hdfs = run_hibench(&w, Platform::Spark, FsMode::Hdfs).unwrap();
    let s_octo = run_hibench(&w, Platform::Spark, FsMode::OctopusFs).unwrap();
    let hadoop_gain = 1.0 - h_octo / h_hdfs;
    let spark_gain = 1.0 - s_octo / s_hdfs;
    assert!(hadoop_gain > 0.0, "hadoop gain {hadoop_gain:.3}");
    assert!(spark_gain >= 0.0, "spark gain {spark_gain:.3}");
    assert!(
        hadoop_gain > spark_gain,
        "hadoop gain {hadoop_gain:.3} must exceed spark gain {spark_gain:.3}"
    );
    // Spark itself is faster than Hadoop on the same FS (uses memory).
    assert!(s_hdfs < h_hdfs);
}

#[test]
fn cpu_bound_workload_gains_less_than_io_bound() {
    let sort = workload("Sort"); // I/O bound
    let kmeans = workload("Kmeans"); // CPU bound
    let gain = |w: &octopus_compute::HiBenchWorkload| {
        let hdfs = run_hibench(w, Platform::Hadoop, FsMode::Hdfs).unwrap();
        let octo = run_hibench(w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
        1.0 - octo / hdfs
    };
    let g_sort = gain(&sort);
    let g_kmeans = gain(&kmeans);
    assert!(g_sort > g_kmeans, "sort gain {g_sort:.3} vs kmeans gain {g_kmeans:.3}");
    assert!(g_kmeans > 0.0);
}

#[test]
fn pegasus_modes_are_ordered() {
    // HADI has the largest intermediate volume → the intermediate-data
    // optimization must show clear additional gains.
    let w = pegasus_workloads().into_iter().find(|w| w.name == "HADI").unwrap();
    let hdfs = run_pegasus(&w, PegasusMode::Hdfs).unwrap();
    let octo = run_pegasus(&w, PegasusMode::Octopus).unwrap();
    let pre = run_pegasus(&w, PegasusMode::OctopusPrefetch).unwrap();
    let interm = run_pegasus(&w, PegasusMode::OctopusInterm).unwrap();
    let both = run_pegasus(&w, PegasusMode::OctopusBoth).unwrap();

    assert!(octo < hdfs, "OctopusFS {octo:.0}s vs HDFS {hdfs:.0}s");
    assert!(pre < octo, "prefetch {pre:.1}s must improve on plain {octo:.1}s");
    assert!(interm < octo, "interm {interm:.0}s must beat plain {octo:.0}s");
    assert!(both <= interm * 1.02, "both {both:.0}s ~ at least as good as interm");
    assert!(both < octo, "both {both:.0}s must beat plain {octo:.0}s");
}

#[test]
fn all_workloads_run_on_both_platforms() {
    // Smoke: every HiBench workload completes on both platforms over
    // OctopusFS with a sane, positive duration.
    for w in hibench_workloads() {
        let h = run_hibench(&w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
        let s = run_hibench(&w, Platform::Spark, FsMode::OctopusFs).unwrap();
        assert!(h > 0.0 && h.is_finite(), "{}: hadoop {h}", w.name);
        assert!(s > 0.0 && s.is_finite(), "{}: spark {s}", w.name);
        // Paper: workloads ran 1..42 minutes; ours should land in a
        // broadly similar band (tens of seconds to an hour of virtual time).
        assert!(h < 3600.0, "{}: {h:.0}s looks runaway", w.name);
    }
}

#[test]
fn runs_are_deterministic() {
    let w = workload("Join");
    let a = run_hibench(&w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
    let b = run_hibench(&w, Platform::Hadoop, FsMode::OctopusFs).unwrap();
    assert_eq!(a, b, "same seed, same virtual time");
}

#[test]
fn a_job_whose_output_tier_is_full_returns_the_placement_error() {
    use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, MB};
    use octopus_compute::engine::run_job;
    use octopus_compute::{EngineConfig, JobSpec};

    // ~4 MB of memory per node: no memory medium can hold one ~10 MB
    // reduce output, so every reducer's memory-pinned write fails at its
    // first placement — inside `submit_write`.
    let mut sim =
        octopus_core::SimCluster::new(ClusterConfig::paper_cluster_scaled(0.001)).unwrap();
    sim.submit_write("/in", 64 * MB, ReplicationVector::msh(0, 0, 3), ClientLocation::OffCluster)
        .unwrap();
    sim.run_to_completion();
    let spec = JobSpec {
        input_paths: vec!["/in".into()],
        output_path: "/out".into(),
        map_cpu_secs_per_mb: 0.005,
        reduce_cpu_secs_per_mb: 0.005,
        shuffle_ratio: 0.5,
        output_bytes: 64 * MB,
        reducers: 6,
    };
    let cfg = EngineConfig { output_rv: ReplicationVector::msh(3, 0, 0), ..Default::default() };
    let err = run_job(&mut sim, &spec, &cfg).unwrap_err().to_string();
    assert!(err.contains("placement failed"), "the job must fail with its cause, got: {err}");
}
