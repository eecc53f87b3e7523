//! Statistics reported by workers and aggregated at the master.
//!
//! Workers maintain, per storage medium, the remaining/total capacity, the
//! number of active I/O connections, and the sustained write/read throughput
//! it is configured with (the paper measures it with a startup probe); they
//! report these to the master in heartbeats (paper §3.2). The master averages throughputs per tier and
//! exposes [`StorageTierReport`]s through the client API (§2.3, Table 1).

use crate::ids::{MediaId, WorkerId};
use crate::tier::TierId;
use crate::topology::RackId;

/// Per-medium statistics: the policy inputs of §3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaStats {
    /// The medium.
    pub media: MediaId,
    /// The worker hosting it (`Worker[m]`).
    pub worker: WorkerId,
    /// The rack of that worker.
    pub rack: RackId,
    /// The tier it belongs to (`Tier[m]`).
    pub tier: TierId,
    /// Total capacity in bytes (`Cap[m]`).
    pub capacity: u64,
    /// Remaining capacity in bytes (`Rem[m]`).
    pub remaining: u64,
    /// Active I/O connections to the medium (`NrConn[m]`).
    pub nr_conn: u32,
    /// Sustained write throughput in bytes/s (`WThru[m]`).
    pub write_thru: f64,
    /// Sustained read throughput in bytes/s (`RThru[m]`).
    pub read_thru: f64,
}

impl MediaStats {
    /// Remaining-capacity fraction in `[0, 1]` (`Rem[m] / Cap[m]`).
    pub fn remaining_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.remaining as f64 / self.capacity as f64
        }
    }

    /// Whether a block of `block_size` bytes fits (the feasibility
    /// constraint `Rem[m] - blockSize >= 0` of §3.2).
    pub fn fits(&self, block_size: u64) -> bool {
        self.remaining >= block_size
    }
}

/// Per-worker statistics used by the retrieval policy (§4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// The worker.
    pub worker: WorkerId,
    /// Its rack.
    pub rack: RackId,
    /// Average network transfer rate from this worker in bytes/s
    /// (`NetThru[W]`).
    pub net_thru: f64,
    /// Active network connections to the worker (`NrConn[W]`).
    pub nr_conn: u32,
    /// Whether the worker is currently live (heartbeats arriving).
    pub live: bool,
}

/// Aggregated per-tier statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierStats {
    /// The tier.
    pub tier: TierId,
    /// Number of media in the tier across the cluster.
    pub num_media: u32,
    /// Sum of capacities (bytes).
    pub capacity: u64,
    /// Sum of remaining capacities (bytes).
    pub remaining: u64,
    /// Mean write throughput across the tier's media (bytes/s).
    pub avg_write_thru: f64,
    /// Mean read throughput across the tier's media (bytes/s).
    pub avg_read_thru: f64,
}

impl TierStats {
    /// Aggregates media statistics into a tier summary. Returns `None` when
    /// no media belong to the tier.
    pub fn aggregate(tier: TierId, media: &[MediaStats]) -> Option<TierStats> {
        let in_tier: Vec<&MediaStats> = media.iter().filter(|m| m.tier == tier).collect();
        if in_tier.is_empty() {
            return None;
        }
        let n = in_tier.len() as f64;
        Some(TierStats {
            tier,
            num_media: in_tier.len() as u32,
            capacity: in_tier.iter().map(|m| m.capacity).sum(),
            remaining: in_tier.iter().map(|m| m.remaining).sum(),
            avg_write_thru: in_tier.iter().map(|m| m.write_thru).sum::<f64>() / n,
            avg_read_thru: in_tier.iter().map(|m| m.read_thru).sum::<f64>() / n,
        })
    }

    /// Remaining-capacity fraction for the whole tier.
    pub fn remaining_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.remaining as f64 / self.capacity as f64
        }
    }
}

/// The `getStorageTierReports` API payload (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageTierReport {
    /// Tier name ("Memory", "SSD", ...).
    pub name: String,
    /// Aggregated statistics.
    pub stats: TierStats,
    /// Whether the tier's media are volatile.
    pub volatile: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(id: u32, tier: u8, cap: u64, rem: u64) -> MediaStats {
        MediaStats {
            media: MediaId(id),
            worker: WorkerId(id),
            rack: RackId(0),
            tier: TierId(tier),
            capacity: cap,
            remaining: rem,
            nr_conn: 0,
            write_thru: 100.0,
            read_thru: 200.0,
        }
    }

    #[test]
    fn remaining_fraction() {
        let m = media(0, 0, 100, 25);
        assert!((m.remaining_fraction() - 0.25).abs() < 1e-12);
        let z = media(0, 0, 0, 0);
        assert_eq!(z.remaining_fraction(), 0.0);
    }

    #[test]
    fn fits_checks_block_size() {
        let m = media(0, 0, 100, 64);
        assert!(m.fits(64));
        assert!(!m.fits(65));
    }

    #[test]
    fn tier_aggregation() {
        let media = vec![media(0, 1, 100, 50), media(1, 1, 300, 100), media(2, 2, 10, 10)];
        let t = TierStats::aggregate(TierId(1), &media).unwrap();
        assert_eq!(t.num_media, 2);
        assert_eq!(t.capacity, 400);
        assert_eq!(t.remaining, 150);
        assert!((t.remaining_fraction() - 0.375).abs() < 1e-12);
        assert!(TierStats::aggregate(TierId(5), &media).is_none());
    }
}
