//! A point-in-time view of cluster statistics, as the master sees them.

use std::collections::HashMap;

use octopus_common::{MediaId, MediaStats, TierId, WorkerId, WorkerStats, MAX_TIERS};

/// Everything a policy needs to know about the cluster: per-media and
/// per-worker statistics (from heartbeats), the tier count `k`, and which
/// tiers are volatile. Built by the master before each policy invocation.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Statistics for every live storage medium.
    pub media: Vec<MediaStats>,
    /// Statistics for every live worker.
    pub workers: Vec<WorkerStats>,
    /// Number of configured tiers (the paper's `k`).
    pub num_tiers: usize,
    /// `volatile[t]` is true when tier `t` is volatile (memory).
    pub volatile: [bool; MAX_TIERS],
}

impl ClusterSnapshot {
    /// Number of live workers (the paper's `n`).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of distinct racks among live workers (the paper's `t`).
    pub fn num_racks(&self) -> usize {
        let mut racks: Vec<_> = self.workers.iter().map(|w| w.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }

    /// Index from media id to its statistics.
    pub fn media_index(&self) -> HashMap<MediaId, &MediaStats> {
        self.media.iter().map(|m| (m.media, m)).collect()
    }

    /// Statistics of one medium.
    pub fn media_stats(&self, id: MediaId) -> Option<&MediaStats> {
        self.media.iter().find(|m| m.media == id)
    }

    /// Statistics of one worker.
    pub fn worker_stats(&self, id: WorkerId) -> Option<&WorkerStats> {
        self.workers.iter().find(|w| w.worker == id)
    }

    /// All media in a given tier.
    pub fn media_in_tier(&self, tier: TierId) -> impl Iterator<Item = &MediaStats> {
        self.media.iter().filter(move |m| m.tier == tier)
    }

    /// The live I/O-connection count (`NrConn`, §3.2) of one medium, as
    /// last heartbeated — what the placement cost model keys congestion
    /// avoidance on. `None` when the medium is unknown.
    pub fn media_nr_conn(&self, id: MediaId) -> Option<u32> {
        self.media_stats(id).map(|m| m.nr_conn)
    }
}

impl ClusterSnapshot {
    /// Builds a synthetic snapshot for benchmarks and tests: `n` workers
    /// spread over `racks` racks, each with one Memory medium, one SSD
    /// medium, and `hdds` HDD media, with paper-like throughputs and all
    /// capacity free. Deterministic.
    pub fn synthetic(n: u32, racks: u16, hdds: u32) -> ClusterSnapshot {
        let mb = 1048576.0;
        let mut media = Vec::new();
        let mut workers = Vec::new();
        let mut next_media = 0u32;
        for w in 0..n {
            let rack = octopus_common::RackId((w % racks.max(1) as u32) as u16);
            workers.push(WorkerStats {
                worker: WorkerId(w),
                rack,
                net_thru: 1250.0 * mb,
                nr_conn: 0,
                live: true,
            });
            let mut push = |tier: u8, cap: u64, thru: f64| {
                media.push(MediaStats {
                    media: MediaId(next_media),
                    worker: WorkerId(w),
                    rack,
                    tier: TierId(tier),
                    capacity: cap,
                    remaining: cap,
                    nr_conn: 0,
                    write_thru: thru * mb,
                    read_thru: thru * 1.3 * mb,
                });
                next_media += 1;
            };
            push(0, 4 << 30, 1897.4);
            push(1, 64 << 30, 340.6);
            for _ in 0..hdds {
                push(2, 134 << 30, 126.3);
            }
        }
        let mut volatile = [false; MAX_TIERS];
        volatile[0] = true;
        ClusterSnapshot { media, workers, num_tiers: 3, volatile }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use octopus_common::RackId;

    /// Builds a snapshot mirroring the paper's cluster shape but tiny:
    /// `n` workers across `racks` racks, each with one Memory, one SSD and
    /// `hdds` HDD media. Capacities/remaining/throughputs configurable per
    /// tier via the `spec` triples `(capacity, remaining, write_thru)`.
    pub fn snapshot(
        n: u32,
        racks: u16,
        hdds: u32,
        mem: (u64, u64, f64),
        ssd: (u64, u64, f64),
        hdd: (u64, u64, f64),
    ) -> ClusterSnapshot {
        let mut media = Vec::new();
        let mut workers = Vec::new();
        let mut next_media = 0u32;
        for w in 0..n {
            let rack = RackId((w % racks as u32) as u16);
            workers.push(WorkerStats {
                worker: WorkerId(w),
                rack,
                net_thru: 1250.0 * 1048576.0,
                nr_conn: 0,
                live: true,
            });
            let mut push = |tier: u8, spec: (u64, u64, f64)| {
                media.push(MediaStats {
                    media: MediaId(next_media),
                    worker: WorkerId(w),
                    rack,
                    tier: TierId(tier),
                    capacity: spec.0,
                    remaining: spec.1,
                    nr_conn: 0,
                    write_thru: spec.2,
                    read_thru: spec.2 * 1.3,
                });
                next_media += 1;
            };
            push(0, mem);
            push(1, ssd);
            for _ in 0..hdds {
                push(2, hdd);
            }
        }
        let mut volatile = [false; MAX_TIERS];
        volatile[0] = true;
        ClusterSnapshot { media, workers, num_tiers: 3, volatile }
    }

    /// A default 9-worker, 3-rack, 3-HDD snapshot with paper-like rates.
    pub fn paper_like() -> ClusterSnapshot {
        let mb = 1048576.0;
        snapshot(
            9,
            3,
            3,
            (4 << 30, 4 << 30, 1897.4 * mb),
            (64 << 30, 64 << 30, 340.6 * mb),
            (134 << 30, 134 << 30, 126.3 * mb),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn counts() {
        let s = paper_like();
        assert_eq!(s.num_workers(), 9);
        assert_eq!(s.num_racks(), 3);
        assert_eq!(s.media.len(), 9 * 5);
        assert_eq!(s.num_tiers, 3);
        assert!(s.volatile[0]);
        assert!(!s.volatile[2]);
    }

    #[test]
    fn lookups() {
        let s = paper_like();
        assert_eq!(s.media_in_tier(TierId(2)).count(), 27);
        assert!(s.media_stats(MediaId(0)).is_some());
        assert!(s.media_stats(MediaId(999)).is_none());
        assert!(s.worker_stats(WorkerId(8)).is_some());
        assert_eq!(s.media_index().len(), 45);
    }
}
