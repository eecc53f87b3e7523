//! Cluster configuration.
//!
//! [`ClusterConfig`] fully describes an OctopusFS deployment: the tier
//! registry, every worker with its rack and storage media, network rates,
//! and the tunables of the management policies.

use crate::error::{FsError, Result};
use crate::tier::{StorageTier, TierRegistry};
use crate::units::{mbps_to_bytes_per_sec, DEFAULT_BLOCK_SIZE, GB};

/// Configuration of one storage medium attached to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaConfig {
    /// Name of the tier this medium belongs to (must exist in the registry).
    pub tier: String,
    /// Capacity in bytes usable for block storage.
    pub capacity: u64,
    /// Nominal sustained write throughput, bytes/s: what heartbeats report
    /// (the paper measures it with a startup probe), the simulator's
    /// device rate, and the pace of `emulate_media_bps`.
    pub write_bps: f64,
    /// Nominal sustained read throughput, bytes/s.
    pub read_bps: f64,
}

/// Configuration of one worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerConfig {
    /// Rack the worker lives in.
    pub rack: u16,
    /// Storage media attached to the node.
    pub media: Vec<MediaConfig>,
    /// NIC bandwidth in bytes/s.
    pub net_bps: f64,
}

/// Which block placement policy the master uses (paper §3.3 and §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicyKind {
    /// The default multi-objective policy (Algorithms 1 + 2).
    #[default]
    Moop,
    /// Single-objective: data balancing only (Eq. 1).
    DataBalancing,
    /// Single-objective: load balancing only (Eq. 3).
    LoadBalancing,
    /// Single-objective: fault tolerance only (Eq. 5).
    FaultTolerance,
    /// Single-objective: throughput maximization only (Eq. 7).
    ThroughputMax,
    /// Round-robin across tiers on random nodes across two racks (§7.2).
    RuleBased,
    /// HDFS default placement restricted to the HDD tier ("Original HDFS").
    HdfsHddOnly,
    /// HDFS default placement, tier-blind over HDD+SSD ("HDFS with SSD").
    HdfsTierBlind,
    /// MOOP with one objective removed (ablation; 0=DB, 1=LB, 2=FT, 3=TM).
    MoopDropObjective(u8),
}

/// Which data retrieval (replica-ordering) policy the master uses (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalPolicyKind {
    /// OctopusFS rate-based ordering (Eq. 12).
    #[default]
    RateBased,
    /// HDFS locality-only ordering (distance, ignoring tiers).
    HdfsLocality,
}

/// Tunables of the automated management policies.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// Placement policy selection.
    pub placement: PlacementPolicyKind,
    /// Retrieval policy selection.
    pub retrieval: RetrievalPolicyKind,
    /// Whether the placement policy may choose volatile (memory) tiers for
    /// *unspecified* replicas. Disabled by default (paper §3.3).
    pub memory_placement_enabled: bool,
    /// When memory placement is enabled, at most this fraction of a block's
    /// replicas may land in memory (paper: 1/3).
    pub max_memory_fraction: f64,
    /// Prune placement candidates to two racks after the first two choices
    /// (§3.3 heuristic). Exposed for the ablation study.
    pub rack_pruning: bool,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            placement: PlacementPolicyKind::default(),
            retrieval: RetrievalPolicyKind::default(),
            memory_placement_enabled: false,
            max_memory_fraction: 1.0 / 3.0,
            rack_pruning: true,
        }
    }
}

/// Timeouts and retry tunables for the TCP RPC layer.
///
/// Every networked call observes these deadlines; nothing in the data or
/// control path blocks forever on a dead peer. Retries apply only to
/// transport-level failures of idempotent requests — application errors
/// surface immediately (see `FsError::is_retryable`).
#[derive(Debug, Clone, PartialEq)]
pub struct RpcConfig {
    /// TCP connect deadline, milliseconds.
    pub connect_timeout_ms: u64,
    /// Socket read deadline per response, milliseconds. Must cover a full
    /// pipeline write downstream of the callee.
    pub read_timeout_ms: u64,
    /// Socket write deadline per request, milliseconds.
    pub write_timeout_ms: u64,
    /// Maximum retry attempts after the first try (idempotent requests
    /// with transport failures only).
    pub max_retries: u32,
    /// Base backoff before the first retry, milliseconds; doubles per
    /// attempt with jitter.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep, milliseconds.
    pub backoff_max_ms: u64,
    /// Multiplexed connections kept per peer. Requests from any number of
    /// threads interleave over these few sockets, matched to responses by
    /// request id.
    pub conns_per_peer: u32,
    /// In-flight cap per peer: at most this many calls to one peer are
    /// outstanding across the whole client; the next caller *blocks*
    /// (backpressure, not an error) until a slot frees or its acquire
    /// budget (one call's write+read deadline) expires.
    pub max_inflight_per_peer: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        Self {
            connect_timeout_ms: 1_000,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            max_retries: 3,
            backoff_base_ms: 10,
            backoff_max_ms: 500,
            conns_per_peer: 2,
            max_inflight_per_peer: 64,
        }
    }
}

impl RpcConfig {
    /// Short deadlines for loopback tests: failures are detected in tens
    /// of milliseconds instead of seconds.
    pub fn fast_test() -> Self {
        Self {
            connect_timeout_ms: 250,
            read_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            max_retries: 2,
            backoff_base_ms: 2,
            backoff_max_ms: 20,
            ..Self::default()
        }
    }
}

/// The one lifecycle setting of an RPC server (master or worker data
/// server). Its pool size, connection cap and per-connection request cap
/// are constants of `octopus-core::net::server`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The idle horizon: a connection that lets this long pass with no
    /// complete frame, no response and nothing in flight is severed.
    pub idle_conn_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { idle_conn_ms: 60_000 }
    }
}

/// Complete description of an OctopusFS cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Tier registry.
    pub tiers: TierRegistry,
    /// Worker descriptions; index = worker id.
    pub workers: Vec<WorkerConfig>,
    /// Default block size for new files.
    pub block_size: u64,
    /// Policy tunables.
    pub policy: PolicyConfig,
    /// The master's heartbeat interval in ms, which workers beat at (drives
    /// staleness detection and how often NrConn/capacity stats refresh).
    pub heartbeat_ms: u64,
    /// Client-side I/O window: how many blocks of one file a networked
    /// client keeps in flight concurrently (writes pipeline into distinct
    /// workers; reads fan out across replicas). `1` restores the fully
    /// serial data path.
    pub io_window: u32,
    /// When set, networked data servers pace each block transfer to the
    /// serving medium's configured `write_bps`/`read_bps`. Real devices
    /// impose this pacing themselves; loopback test deployments store
    /// every tier in RAM, so without emulation a multi-block benchmark
    /// measures memcpy instead of the tiered-device behaviour placement
    /// (§3.2) and the client I/O window are designed around. Off by
    /// default: latency-sensitive unit tests keep raw loopback speed.
    pub emulate_media_bps: bool,
}

/// Default client I/O window (blocks in flight per file transfer). Four
/// keeps a DFSIO-style client busy without overwhelming small clusters —
/// the same default window HDFS-style clients use for packet pipelining.
pub const DEFAULT_IO_WINDOW: u32 = 4;

impl ClusterConfig {
    /// Validates internal consistency (tier names, capacities, rates).
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(FsError::Config("block size must be positive".into()));
        }
        if self.io_window == 0 {
            return Err(FsError::Config("io window must be at least 1".into()));
        }
        if self.heartbeat_ms == 0 {
            return Err(FsError::Config("heartbeat interval must be positive".into()));
        }
        for (i, w) in self.workers.iter().enumerate() {
            if w.media.is_empty() {
                return Err(FsError::Config(format!("worker {i} has no storage media")));
            }
            if w.net_bps <= 0.0 {
                return Err(FsError::Config(format!("worker {i} has non-positive NIC rate")));
            }
            for m in &w.media {
                self.tiers.by_name(&m.tier).map_err(|_| {
                    FsError::Config(format!("worker {i} references unknown tier {:?}", m.tier))
                })?;
                if m.write_bps <= 0.0 || m.read_bps <= 0.0 {
                    return Err(FsError::Config(format!(
                        "worker {i} media on tier {:?} has non-positive throughput",
                        m.tier
                    )));
                }
            }
        }
        Ok(())
    }

    /// The evaluation cluster of the paper (§7): 9 workers, each with 4 GB
    /// of memory, 64 GB of SSD, and 3 HDD devices totalling 400 GB, with
    /// media throughputs from Table 2 and 10 Gbps NICs. We arrange the nine
    /// workers in three racks of three (the paper's policies assume ≥2
    /// racks; the exact layout is unspecified).
    pub fn paper_cluster() -> Self {
        Self::paper_cluster_scaled(1.0)
    }

    /// The paper cluster with all media capacities multiplied by `scale`
    /// (useful for fast tests and reduced-size experiments).
    pub fn paper_cluster_scaled(scale: f64) -> Self {
        let cap = |bytes: u64| ((bytes as f64 * scale) as u64).max(1);
        let media = vec![
            MediaConfig {
                tier: "Memory".into(),
                capacity: cap(4 * GB),
                write_bps: mbps_to_bytes_per_sec(1897.4),
                read_bps: mbps_to_bytes_per_sec(3224.8),
            },
            MediaConfig {
                tier: "SSD".into(),
                capacity: cap(64 * GB),
                write_bps: mbps_to_bytes_per_sec(340.6),
                read_bps: mbps_to_bytes_per_sec(419.5),
            },
            MediaConfig {
                tier: "HDD".into(),
                capacity: cap(134 * GB),
                write_bps: mbps_to_bytes_per_sec(126.3),
                read_bps: mbps_to_bytes_per_sec(177.1),
            },
            MediaConfig {
                tier: "HDD".into(),
                capacity: cap(133 * GB),
                write_bps: mbps_to_bytes_per_sec(126.3),
                read_bps: mbps_to_bytes_per_sec(177.1),
            },
            MediaConfig {
                tier: "HDD".into(),
                capacity: cap(133 * GB),
                write_bps: mbps_to_bytes_per_sec(126.3),
                read_bps: mbps_to_bytes_per_sec(177.1),
            },
        ];
        let workers = (0..9u16)
            .map(|i| WorkerConfig {
                rack: i / 3,
                media: media.clone(),
                net_bps: mbps_to_bytes_per_sec(1250.0), // 10 Gbps
            })
            .collect();
        ClusterConfig {
            tiers: TierRegistry::standard_three(),
            workers,
            block_size: DEFAULT_BLOCK_SIZE,
            policy: PolicyConfig::default(),
            heartbeat_ms: 3000,
            io_window: DEFAULT_IO_WINDOW,
            emulate_media_bps: false,
        }
    }

    /// The paper cluster extended with a "Remote" tier in integrated mode
    /// (§2.4): network-attached storage that workers read and write like
    /// any other medium. Each worker mounts a share of the remote system —
    /// large capacity, modest throughput, further capped by the shared
    /// backhaul being modelled per-worker.
    pub fn paper_cluster_with_remote() -> Self {
        Self::paper_cluster_with_remote_scaled(1.0)
    }

    /// [`ClusterConfig::paper_cluster_with_remote`] with media capacities
    /// multiplied by `scale`.
    pub fn paper_cluster_with_remote_scaled(scale: f64) -> Self {
        let mut c = Self::paper_cluster_scaled(scale);
        c.tiers = TierRegistry::standard_four();
        let remote_cap = ((1024 * GB) as f64 * scale) as u64;
        for w in c.workers.iter_mut() {
            w.media.push(MediaConfig {
                tier: "Remote".into(),
                capacity: remote_cap.max(1),
                write_bps: mbps_to_bytes_per_sec(85.0),
                read_bps: mbps_to_bytes_per_sec(110.0),
            });
        }
        c
    }

    /// A tiny cluster for unit/integration tests: `n` workers in two racks,
    /// one medium per canonical tier each, small capacities, fast rates.
    pub fn test_cluster(n: u32, capacity_per_media: u64, block_size: u64) -> Self {
        let workers = (0..n)
            .map(|i| WorkerConfig {
                rack: (i % 2) as u16,
                media: vec![
                    MediaConfig {
                        tier: StorageTier::Memory.name().into(),
                        capacity: capacity_per_media,
                        write_bps: mbps_to_bytes_per_sec(1900.0),
                        read_bps: mbps_to_bytes_per_sec(3200.0),
                    },
                    MediaConfig {
                        tier: StorageTier::Ssd.name().into(),
                        capacity: capacity_per_media,
                        write_bps: mbps_to_bytes_per_sec(340.0),
                        read_bps: mbps_to_bytes_per_sec(420.0),
                    },
                    MediaConfig {
                        tier: StorageTier::Hdd.name().into(),
                        capacity: capacity_per_media,
                        write_bps: mbps_to_bytes_per_sec(126.0),
                        read_bps: mbps_to_bytes_per_sec(177.0),
                    },
                ],
                net_bps: mbps_to_bytes_per_sec(1250.0),
            })
            .collect();
        ClusterConfig {
            tiers: TierRegistry::standard_three(),
            workers,
            block_size,
            policy: PolicyConfig::default(),
            heartbeat_ms: 100,
            io_window: DEFAULT_IO_WINDOW,
            emulate_media_bps: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper_cluster();
        c.validate().unwrap();
        assert_eq!(c.workers.len(), 9);
        assert!(c.workers.iter().all(|w| w.media.len() == 5));
        // HDD capacity per worker totals 400 GB.
        let hdd: u64 =
            c.workers[0].media.iter().filter(|m| m.tier == "HDD").map(|m| m.capacity).sum();
        assert_eq!(hdd, 400 * GB);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ClusterConfig::test_cluster(2, GB, DEFAULT_BLOCK_SIZE);
        c.validate().unwrap();
        c.workers[0].media[0].tier = "NVRAM".into();
        assert!(c.validate().is_err());

        let mut c2 = ClusterConfig::test_cluster(2, GB, DEFAULT_BLOCK_SIZE);
        c2.block_size = 0;
        assert!(c2.validate().is_err());

        // No workers is a master's config; a zero interval is nobody's.
        ClusterConfig::test_cluster(0, GB, DEFAULT_BLOCK_SIZE).validate().unwrap();
        let mut c3 = ClusterConfig::test_cluster(2, GB, DEFAULT_BLOCK_SIZE);
        c3.heartbeat_ms = 0;
        assert!(c3.validate().is_err());

        let mut c4 = ClusterConfig::test_cluster(2, GB, DEFAULT_BLOCK_SIZE);
        c4.workers[1].media.clear();
        assert!(c4.validate().is_err());

        let mut c5 = ClusterConfig::test_cluster(2, GB, DEFAULT_BLOCK_SIZE);
        c5.workers[0].net_bps = 0.0;
        assert!(c5.validate().is_err());
    }

    #[test]
    fn scaled_cluster_shrinks_capacity() {
        let c = ClusterConfig::paper_cluster_scaled(0.01);
        c.validate().unwrap();
        assert!(c.workers[0].media[0].capacity < GB);
    }

    #[test]
    fn default_policy_config_matches_paper() {
        let p = PolicyConfig::default();
        assert!(!p.memory_placement_enabled);
        assert!((p.max_memory_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!(p.rack_pruning);
        assert_eq!(p.placement, PlacementPolicyKind::Moop);
        assert_eq!(p.retrieval, RetrievalPolicyKind::RateBased);
    }
}
