//! The live cluster status report served by the master's `ClusterStatus`
//! RPC and rendered by `octofs-remote status`: per-worker tier capacity
//! and utilization, liveness, in-flight work, and a heat summary — the
//! operator's one-look view of the tiered cluster.

use crate::heat::HeatInfo;
use crate::ids::WorkerId;
use crate::stats::{MediaStats, StorageTierReport};
use crate::topology::RackId;
use crate::wire::{Wire, WireReader};
use crate::Result;

/// One worker's line in the status report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStatusLine {
    /// The worker.
    pub worker: WorkerId,
    /// Its rack.
    pub rack: RackId,
    /// Whether heartbeats are arriving.
    pub live: bool,
    /// Network connections at the last heartbeat.
    pub nr_conn: u32,
    /// Master-clock time of the last heartbeat.
    pub last_heartbeat_ms: u64,
    /// Per-medium statistics as last heartbeated (capacity, remaining,
    /// NrConn, throughputs).
    pub media: Vec<MediaStats>,
}

impl Wire for WorkerStatusLine {
    fn put(&self, buf: &mut Vec<u8>) {
        self.worker.put(buf);
        self.rack.put(buf);
        self.live.put(buf);
        self.nr_conn.put(buf);
        self.last_heartbeat_ms.put(buf);
        self.media.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(WorkerStatusLine {
            worker: Wire::get(r)?,
            rack: Wire::get(r)?,
            live: Wire::get(r)?,
            nr_conn: Wire::get(r)?,
            last_heartbeat_ms: Wire::get(r)?,
            media: Wire::get(r)?,
        })
    }
}

/// One hot file in the status heat summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HotFile {
    /// The file's path (empty when it was deleted after its last touch).
    pub path: String,
    /// Its heat.
    pub heat: HeatInfo,
}

impl Wire for HotFile {
    fn put(&self, buf: &mut Vec<u8>) {
        self.path.put(buf);
        self.heat.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(HotFile { path: Wire::get(r)?, heat: Wire::get(r)? })
    }
}

/// The complete report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStatusReport {
    /// The master's own clock (ms, `Master::tick`) when the report was built.
    pub now_ms: u64,
    /// Whether the master is in safe mode.
    pub safe_mode: bool,
    /// Number of files in the namespace.
    pub files: u64,
    /// Number of tracked blocks.
    pub blocks: u64,
    /// Blocks with at least one scheduled-but-unconfirmed replica
    /// (in-flight pipelines or pending re-replications).
    pub in_flight_blocks: u64,
    /// Bytes reserved for scheduled writes across all media.
    pub scheduled_bytes: u64,
    /// Per-tier aggregate reports (Table 1's `getStorageTierReports`).
    pub tiers: Vec<StorageTierReport>,
    /// Per-worker lines, sorted by worker id.
    pub workers: Vec<WorkerStatusLine>,
    /// The hottest files (bounded), hottest first.
    pub hot: Vec<HotFile>,
    /// Placement-audit volume: total decisions ever recorded.
    pub decisions_recorded: u64,
    /// Placement-audit volume: decisions currently retained in the ring.
    pub decisions_retained: u64,
}

impl Wire for ClusterStatusReport {
    fn put(&self, buf: &mut Vec<u8>) {
        self.now_ms.put(buf);
        self.safe_mode.put(buf);
        self.files.put(buf);
        self.blocks.put(buf);
        self.in_flight_blocks.put(buf);
        self.scheduled_bytes.put(buf);
        self.tiers.put(buf);
        self.workers.put(buf);
        self.hot.put(buf);
        self.decisions_recorded.put(buf);
        self.decisions_retained.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(ClusterStatusReport {
            now_ms: Wire::get(r)?,
            safe_mode: Wire::get(r)?,
            files: Wire::get(r)?,
            blocks: Wire::get(r)?,
            in_flight_blocks: Wire::get(r)?,
            scheduled_bytes: Wire::get(r)?,
            tiers: Wire::get(r)?,
            workers: Wire::get(r)?,
            hot: Wire::get(r)?,
            decisions_recorded: Wire::get(r)?,
            decisions_retained: Wire::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{INodeId, MediaId};
    use crate::stats::TierStats;
    use crate::tier::TierId;
    use crate::wire::{decode, encode};

    #[test]
    fn report_round_trips_over_wire() {
        let report = ClusterStatusReport {
            now_ms: 1234,
            safe_mode: false,
            files: 3,
            blocks: 5,
            in_flight_blocks: 1,
            scheduled_bytes: 1 << 20,
            tiers: vec![StorageTierReport {
                name: "Memory".into(),
                stats: TierStats {
                    tier: TierId(0),
                    num_media: 2,
                    capacity: 100,
                    remaining: 60,
                    avg_write_thru: 5.0,
                    avg_read_thru: 6.0,
                },
                volatile: true,
            }],
            workers: vec![WorkerStatusLine {
                worker: WorkerId(1),
                rack: RackId(0),
                live: true,
                nr_conn: 2,
                last_heartbeat_ms: 1200,
                media: vec![MediaStats {
                    media: MediaId(3),
                    worker: WorkerId(1),
                    rack: RackId(0),
                    tier: TierId(0),
                    capacity: 50,
                    remaining: 30,
                    nr_conn: 1,
                    write_thru: 5.0,
                    read_thru: 6.0,
                }],
            }],
            hot: vec![HotFile {
                path: "/hot".into(),
                heat: crate::heat::HeatInfo { file: INodeId(2), score: 4.5, ..Default::default() },
            }],
            decisions_recorded: 9,
            decisions_retained: 9,
        };
        let back: ClusterStatusReport = decode(&encode(&report)).unwrap();
        assert_eq!(back, report);
    }
}
