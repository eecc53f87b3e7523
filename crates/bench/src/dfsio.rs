//! A DFSIO-style distributed I/O benchmark (paper §7: "a distributed I/O
//! benchmark that measures average throughput for write and read
//! operations").
//!
//! `d` writer (or reader) tasks run on cluster nodes round-robin, each
//! handling `total_bytes / d`. The reported metric is the mean per-task
//! throughput — the "average write/read throughput per Worker" of
//! Figures 2, 3, and 5 (per-task rates fall as `d` grows, exactly as the
//! paper's curves do).

use octopus_common::{ClientLocation, ReplicationVector, Result, WorkerId};
use octopus_core::{JobId, JobReport, SimCluster};

/// Outcome of one DFSIO phase.
#[derive(Debug, Clone)]
pub struct DfsioResult {
    /// Per-task reports.
    pub reports: Vec<JobReport>,
    /// Start-to-finish duration of the whole phase (seconds).
    pub makespan_secs: f64,
}

impl DfsioResult {
    /// Mean per-task throughput, MB/s.
    pub fn mean_task_mbps(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.throughput_mbps()).sum::<f64>() / self.reports.len() as f64
    }

    /// Standard error of the per-task throughput mean, MB/s.
    pub fn sem_task_mbps(&self) -> f64 {
        let n = self.reports.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_task_mbps();
        let var = self.reports.iter().map(|r| (r.throughput_mbps() - mean).powi(2)).sum::<f64>()
            / (n - 1) as f64;
        (var / n as f64).sqrt()
    }
}

/// Writes `total_bytes` of data as `d` parallel tasks (files
/// `<dir>/part-<i>`), each on worker `i mod n`, with the given replication
/// vector. Returns per-task reports and the file paths written.
pub fn write_workload(
    sim: &mut SimCluster,
    dir: &str,
    d: u32,
    total_bytes: u64,
    rv: ReplicationVector,
) -> Result<(DfsioResult, Vec<String>)> {
    sim.master().mkdir(dir)?;
    let n = sim.master().snapshot().workers.len() as u32;
    let per_task = total_bytes / d as u64;
    let start = sim.now();
    let mut jobs: Vec<JobId> = Vec::with_capacity(d as usize);
    let mut paths = Vec::with_capacity(d as usize);
    for i in 0..d {
        let path = format!("{dir}/part-{i}");
        let client = ClientLocation::OnWorker(WorkerId(i % n));
        jobs.push(sim.submit_write(&path, per_task, rv, client)?);
        paths.push(path);
    }
    sim.run_to_completion();
    let makespan_secs = sim.now().secs_since(start);
    let reports = jobs.iter().filter_map(|&j| sim.report(j)).collect();
    Ok((DfsioResult { reports, makespan_secs }, paths))
}

/// Reads the given files with `d` parallel tasks. Task `i` reads file `i`
/// from worker `(i + shift) mod n` — a non-zero `shift` de-correlates
/// readers from the nodes that wrote the data, reproducing the paper's
/// partial-locality read mix (§7.1 observed only ~1/3 local reads).
pub fn read_workload(sim: &mut SimCluster, paths: &[String], shift: u32) -> Result<DfsioResult> {
    let n = sim.master().snapshot().workers.len() as u32;
    let start = sim.now();
    let mut jobs = Vec::with_capacity(paths.len());
    for (i, path) in paths.iter().enumerate() {
        let client = ClientLocation::OnWorker(WorkerId((i as u32 + shift) % n));
        jobs.push(sim.submit_read(path, client)?);
    }
    sim.run_to_completion();
    let makespan_secs = sim.now().secs_since(start);
    let reports = jobs.iter().filter_map(|&j| sim.report(j)).collect();
    Ok(DfsioResult { reports, makespan_secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::{ClusterConfig, MB};

    fn sim() -> SimCluster {
        let mut c = ClusterConfig::paper_cluster_scaled(0.05);
        c.block_size = 8 * MB;
        SimCluster::new(c).unwrap()
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut s = sim();
        let (w, paths) = write_workload(
            &mut s,
            "/dfsio",
            9,
            90 * MB,
            ReplicationVector::from_replication_factor(3),
        )
        .unwrap();
        assert_eq!(w.reports.len(), 9);
        assert!(w.reports.iter().all(|r| r.failed.is_none()));
        assert!(w.mean_task_mbps() > 0.0);
        assert!(w.makespan_secs > 0.0);

        let r = read_workload(&mut s, &paths, 3).unwrap();
        assert_eq!(r.reports.len(), 9);
        assert!(r.mean_task_mbps() > 0.0);
    }

    #[test]
    fn more_parallelism_lowers_per_task_throughput() {
        let rv = ReplicationVector::msh(0, 0, 3);
        let mut s1 = sim();
        let (w1, _) = write_workload(&mut s1, "/a", 1, 64 * MB, rv).unwrap();
        let mut s2 = sim();
        let (w2, _) = write_workload(&mut s2, "/b", 27, 27 * 32 * MB, rv).unwrap();
        assert!(
            w2.mean_task_mbps() < w1.mean_task_mbps(),
            "d=27 ({:.0}) must be slower per task than d=1 ({:.0})",
            w2.mean_task_mbps(),
            w1.mean_task_mbps()
        );
    }

    #[test]
    fn sem_is_zero_for_single_task() {
        let mut s = sim();
        let (w, _) =
            write_workload(&mut s, "/one", 1, 16 * MB, ReplicationVector::msh(0, 0, 3)).unwrap();
        assert_eq!(w.sem_task_mbps(), 0.0);
    }
}
