//! An S-Live-style namespace stress test (paper §7.4): hammers the master
//! with the six operation types of Table 3 and reports successful
//! operations per second per worker.
//!
//! Unlike the I/O experiments this measures the *real* master under real
//! wall-clock time — namespace operations are pure metadata work, so no
//! simulation is involved.

use std::time::Instant;

use octopus_common::{
    ClientLocation, ClusterConfig, MediaId, MediaStats, RackId, ReplicationVector, Result, TierId,
    WorkerId,
};
use octopus_master::{ClientId, Master};

/// Measured rates for the Table 3 operation mix, ops/sec *per worker*.
#[derive(Debug, Clone)]
pub struct SliveResult {
    /// `(operation name, ops per second per worker)`.
    pub rows: Vec<(&'static str, f64)>,
}

/// Boots a master with `n` registered, heartbeating workers (no data
/// plane needed for namespace stress).
pub fn boot_master(config: ClusterConfig) -> Result<Master> {
    let n = config.workers.len() as u32;
    let tiers = config.tiers.clone();
    let master = Master::new(config)?;
    let mut next_media = 0u32;
    for w in 0..n {
        let rack = RackId((w % 3) as u16);
        master.register_worker(WorkerId(w), rack, 1.25e9);
        let media: Vec<MediaStats> = tiers
            .iter()
            .map(|t| {
                let m = MediaStats {
                    media: MediaId(next_media),
                    worker: WorkerId(w),
                    rack,
                    tier: TierId(t.id.0),
                    capacity: 1 << 40,
                    remaining: 1 << 40,
                    nr_conn: 0,
                    write_thru: 1e8,
                    read_thru: 1e8,
                };
                next_media += 1;
                m
            })
            .collect();
        master.heartbeat(WorkerId(w), media, 0, &[])?;
    }
    Ok(master)
}

fn rate(ops: usize, f: impl FnOnce() -> Result<()>) -> Result<f64> {
    let t = Instant::now();
    f()?;
    Ok(ops as f64 / t.elapsed().as_secs_f64().max(1e-9))
}

/// Runs the operation mix: `ops` operations of each type. `rv` is the
/// replication vector used for file creations (HDFS compatibility mode
/// passes `U = r`; OctopusFS mode passes full vectors).
pub fn run_slive(master: &Master, ops: usize, rv: ReplicationVector) -> Result<SliveResult> {
    let workers = master.snapshot().workers.len().max(1) as f64;
    let mut rows = Vec::new();

    let mkdir = rate(ops, || {
        for i in 0..ops {
            master.mkdir(&format!("/slive/dirs/d{i}"))?;
        }
        Ok(())
    })?;
    rows.push(("Make directory", mkdir / workers));

    let create = rate(ops, || {
        for i in 0..ops {
            master.create_file_as(&format!("/slive/dirs/d{}/f", i % ops), rv, None, ClientId(1))?;
            master.complete_file_as(&format!("/slive/dirs/d{}/f", i % ops), ClientId(1))?;
        }
        Ok(())
    })?;
    rows.push(("Create file", create / workers));

    let list = rate(ops, || {
        for _ in 0..ops {
            master.list("/slive/dirs")?;
        }
        Ok(())
    })?;
    rows.push(("List files", list / workers));

    let open = rate(ops, || {
        for i in 0..ops {
            master.get_file_block_locations(
                &format!("/slive/dirs/d{}/f", i % ops),
                0,
                u64::MAX,
                ClientLocation::OffCluster,
            )?;
        }
        Ok(())
    })?;
    rows.push(("Open file", open / workers));

    let rename = rate(ops, || {
        for i in 0..ops {
            master.rename(&format!("/slive/dirs/d{i}/f"), &format!("/slive/dirs/d{i}/g"))?;
        }
        Ok(())
    })?;
    rows.push(("Rename file", rename / workers));

    let delete = rate(ops, || {
        for i in 0..ops {
            master.delete(&format!("/slive/dirs/d{i}/g"), false)?;
        }
        Ok(())
    })?;
    rows.push(("Delete file", delete / workers));

    Ok(SliveResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slive_runs_and_reports_positive_rates() {
        let config = ClusterConfig::paper_cluster_scaled(0.01);
        let master = boot_master(config).unwrap();
        let r = run_slive(&master, 200, ReplicationVector::from_replication_factor(3)).unwrap();
        assert_eq!(r.rows.len(), 6);
        for (name, rate) in &r.rows {
            assert!(*rate > 0.0, "{name} rate must be positive");
        }
        // All files deleted again.
        assert!(master.list("/slive/dirs").unwrap().iter().all(|e| e.is_dir));
    }
}
