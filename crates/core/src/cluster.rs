//! The in-process OctopusFS cluster, the in-memory test harness: a master
//! plus workers with real bytes in heap stores, running the networked
//! deployment's client, worker dispatch, liveness step and §5 monitor over
//! a [`LocalTransport`] — function calls instead of sockets, and a logical
//! clock instead of timers. Persistence is [`crate::NetCluster`]'s.

use std::path::PathBuf;
use std::sync::Arc;

use octopus_common::{
    ClientLocation, ClusterConfig, FsError, MediaId, RackId, Result, TierId, WorkerId,
};
use octopus_master::{AutoTierConfig, Master, MigrationDecision};
use octopus_policies::TierClassifier;
use octopus_storage::{BlockStore, FileStore, Media, MemoryStore};

use crate::net::transport::{LocalTransport, Transport};
use crate::net::{monitor, worker_server, RemoteFs};
use crate::worker::Worker;

/// How workers back their storage media.
#[derive(Debug, Clone)]
pub enum StorageMode {
    /// Every medium is heap-backed (fast; default for tests/examples, and
    /// the simulator's, whose synthetic payloads are kept as descriptors).
    InMemory,
    /// Volatile tiers are heap-backed; persistent tiers are directories
    /// under the given root (`<root>/worker_<w>/media_<m>/`).
    OnDisk(PathBuf),
}

/// Builds one worker of a configuration (daemon deployments, where each
/// process hosts a single worker). Media ids follow the same global
/// assignment as [`Cluster`]/[`crate::NetCluster`], so mixed deployments agree.
pub fn build_single_worker(
    config: &ClusterConfig,
    id: WorkerId,
    mode: &StorageMode,
) -> Result<Arc<Worker>> {
    build_workers(config, mode, Some(id))?.pop().ok_or_else(|| {
        FsError::Config(format!("worker {id} out of range (config has {})", config.workers.len()))
    })
}

/// Builds the workers of a configuration — all of them, or just `only` —
/// assigning global media ids in declaration order (worker 0's media
/// first) either way. A recipe with no workers (a master's) is an error.
pub(crate) fn build_workers(
    config: &ClusterConfig,
    mode: &StorageMode,
    only: Option<WorkerId>,
) -> Result<Vec<Arc<Worker>>> {
    if config.workers.is_empty() {
        return Err(FsError::Config("cluster has no workers".into()));
    }
    let mut workers = Vec::new();
    let mut next_media = 0u32;
    for (wi, wc) in config.workers.iter().enumerate() {
        let worker_id = WorkerId(wi as u32);
        if only.is_some_and(|id| id != worker_id) {
            next_media += wc.media.len() as u32;
            continue;
        }
        let mut media = Vec::with_capacity(wc.media.len());
        for mc in &wc.media {
            let tier_info = config.tiers.by_name(&mc.tier)?;
            let store: Arc<dyn BlockStore> = match mode {
                StorageMode::InMemory => Arc::new(MemoryStore::new(mc.capacity)),
                StorageMode::OnDisk(root) => {
                    if tier_info.volatile {
                        Arc::new(MemoryStore::new(mc.capacity))
                    } else {
                        let dir =
                            root.join(format!("worker_{wi}")).join(format!("media_{next_media}"));
                        Arc::new(FileStore::open(dir, mc.capacity)?)
                    }
                }
            };
            media.push(Arc::new(Media::new(
                MediaId(next_media),
                tier_info.id,
                store,
                mc.write_bps,
                mc.read_bps,
            )));
            next_media += 1;
        }
        workers.push(Arc::new(Worker::new(worker_id, RackId(wc.rack), media, wc.net_bps)));
    }
    Ok(workers)
}

/// Boots the in-process system both harnesses run — [`Cluster`] on a
/// logical clock, [`crate::SimCluster`] on a virtual one: the in-memory
/// workers and master of `config` behind one [`LocalTransport`], every
/// worker joined at t = 0 (register, first heartbeat, block report).
pub(crate) fn boot(config: ClusterConfig) -> Result<Arc<LocalTransport>> {
    config.validate()?;
    let workers = build_workers(&config, &StorageMode::InMemory, None)?;
    let master = Arc::new(Master::new(config)?);
    let net = Arc::new(LocalTransport::new(master, workers));
    for w in net.all_workers() {
        worker_server::join(w, &*net, String::new())?;
    }
    Ok(net)
}

/// A running in-process cluster: the harness around a [`LocalTransport`]
/// that drives the master's logical clock and runs the background rounds a
/// deployment runs on timers.
pub struct Cluster {
    net: Arc<LocalTransport>,
}

impl Cluster {
    /// Starts a cluster with in-memory storage. Workers register and send
    /// their first heartbeats before this returns, so the cluster is
    /// immediately usable.
    pub fn start(config: ClusterConfig) -> Result<Self> {
        let cluster = Self { net: boot(config)? };
        cluster.pump_heartbeats();
        Ok(cluster)
    }

    /// The master.
    pub fn master(&self) -> &Arc<Master> {
        self.net.master()
    }

    /// All workers (including downed ones, for inspection).
    pub fn workers(&self) -> &[Arc<Worker>] {
        self.net.all_workers()
    }

    /// One worker.
    pub fn worker(&self, id: WorkerId) -> Result<&Arc<Worker>> {
        self.workers().get(id.0 as usize).ok_or_else(|| FsError::UnknownWorker(id.to_string()))
    }

    /// The transport everything in this cluster talks through (fault
    /// tests take a worker down on it without telling the master).
    pub fn transport(&self) -> &Arc<LocalTransport> {
        &self.net
    }

    /// A client at the given location, with the configured I/O window.
    pub fn client(&self, location: ClientLocation) -> RemoteFs {
        let net: Arc<dyn Transport> = self.net.clone();
        RemoteFs::over(net, location).with_io_window(self.master().config().io_window)
    }

    /// Ticks the master's logical clock one heartbeat interval on
    /// ([`Master::tick`]), then delivers heartbeats from every live worker.
    pub fn pump_heartbeats(&self) {
        let master = self.master();
        master.tick(master.now_ms() + master.config().heartbeat_ms);
        for w in self.net.live_workers() {
            let _ = worker_server::heartbeat(&w, &*self.net);
        }
    }

    /// Sends full block reports from every live worker, applying any
    /// invalidations the master returns.
    pub fn send_block_reports(&self) -> Result<()> {
        for w in self.net.live_workers() {
            worker_server::report_blocks(&w, &*self.net)?;
        }
        Ok(())
    }

    /// Takes a worker down: requests to it fail as unreachable and the
    /// master drops its replicas (as if heartbeats had stopped).
    pub fn kill_worker(&self, id: WorkerId) {
        self.net.set_down(id, true);
        self.master().kill_worker(id);
    }

    /// Brings a downed worker back; its blocks re-register via a block
    /// report.
    pub fn revive_worker(&self, id: WorkerId) -> Result<()> {
        self.net.set_down(id, false);
        worker_server::join(self.worker(id)?, &*self.net, String::new()).map(drop)
    }

    /// Runs one replication round (§5, [`monitor::run_replication_round`]):
    /// scans for under/over-replication and executes the resulting
    /// copy/delete tasks through the workers. Returns the number of tasks
    /// attempted.
    pub fn run_replication_round(&self) -> Result<usize> {
        let outcome = monitor::run_replication_round(self.master(), &*self.net)?;
        self.pump_heartbeats();
        Ok(outcome.attempted)
    }

    /// The tier of a medium, resolved through the owning worker.
    pub fn tier_of(&self, worker: WorkerId, media: MediaId) -> Result<TierId> {
        self.worker(worker)?.tier_of(media)
    }

    /// Runs one balancer round ([`monitor::run_balancer_round`]), a
    /// heartbeat interval after the copies and another after the trim.
    /// Returns the number of moves made.
    pub fn run_balancer_round(&self, threshold: f64, max_moves: usize) -> Result<usize> {
        monitor::run_balancer_round(self.master(), &*self.net, threshold, max_moves, || {
            self.pump_heartbeats()
        })
    }

    /// Runs one auto-tiering round ([`monitor::run_migration_round`]):
    /// classifies every file's temperature through `classifier`, installs
    /// the planned replication-vector edits (see
    /// [`Master::autotier_scan`]) and executes the resulting moves, paced
    /// to `cfg.max_copy_bps`, pumping heartbeats after a pass that deleted
    /// a replica so the promotion it made room for lands in the same round.
    /// Returns the planned migrations.
    pub fn run_autotier_round(
        &self,
        classifier: &dyn TierClassifier,
        cfg: &AutoTierConfig,
    ) -> Result<Vec<MigrationDecision>> {
        let beat = || self.pump_heartbeats();
        let round = monitor::run_migration_round(self.master(), &*self.net, classifier, cfg, beat)?;
        self.pump_heartbeats();
        Ok(round.planned)
    }

    /// Runs one scrub round ([`monitor::run_scrub_round`]): every worker
    /// verifies its block checksums; corrupt replicas are reported to the
    /// master and deleted locally (§5's corruption-detection path).
    /// Returns the number of corrupt replicas found. Call
    /// [`Cluster::run_replication_round`] afterwards to restore
    /// replication.
    pub fn run_scrub_round(&self) -> Result<usize> {
        Ok(monitor::run_scrub_round(self.master(), &*self.net)?.corrupt_total() as usize)
    }

    /// Drains a worker: no new replicas land on it and its data is
    /// re-replicated elsewhere across replication rounds. Returns once the
    /// drain is complete and the worker has been retired.
    pub fn decommission_worker(&self, id: WorkerId) -> Result<()> {
        self.master().start_decommission(id);
        // Drive replication rounds until every affected block is safe.
        for _ in 0..64 {
            self.run_replication_round()?;
            if self.master().decommission_complete(id) {
                self.master().finalize_decommission(id);
                self.net.set_down(id, true);
                return Ok(());
            }
        }
        Err(FsError::Internal(format!("decommission of {id} did not converge within 64 rounds")))
    }
}
