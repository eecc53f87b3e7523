//! [`NetCluster`]: boots a full networked deployment on loopback — the
//! daemons' own [`MasterNode`] and one [`WorkerNode`] per worker — from a
//! [`ClusterConfig`]. On a file-backed edit log and on-disk stores it is
//! the persistent one-process deployment `octofs --root` runs.

use std::net::SocketAddr;
use std::sync::Arc;

use octopus_common::{ClientLocation, ClusterConfig, Result, WorkerId};
use octopus_master::{EditLog, Master};

use super::client::RemoteFs;
use super::node::{MasterNode, WorkerNode};
use super::transport::TcpTransport;
use super::worker_server;
use crate::cluster::{build_workers, StorageMode};
use crate::worker::Worker;

/// A running networked cluster (loopback TCP).
pub struct NetCluster {
    /// The master node; the cluster's own background work (heartbeats, §5
    /// rounds) reaches the master and the workers through its transport,
    /// and its server's registry is the one address map every node shares.
    master: MasterNode,
    /// One node per worker; `None` while that worker is killed.
    nodes: Vec<Option<WorkerNode>>,
    workers: Vec<Arc<Worker>>,
    /// The client behind [`NetCluster::metrics_snapshot`] (it keeps the
    /// scrape bookkeeping).
    scraper: RemoteFs,
    io_window: u32,
}

impl NetCluster {
    /// Starts the deployment: master server, one data server per worker,
    /// registration, first heartbeats, and background heartbeat threads.
    pub fn start(config: ClusterConfig) -> Result<Self> {
        Self::start_with_mode(config, StorageMode::InMemory, EditLog::in_memory())
    }

    /// Starts with a specific storage mode and a master that replays (and
    /// writes through to) `log`: on-disk stores and a file-backed log bring
    /// a previous instance's namespace and data back.
    pub fn start_with_mode(config: ClusterConfig, mode: StorageMode, log: EditLog) -> Result<Self> {
        config.validate()?;
        let io_window = config.io_window;
        let workers = build_workers(&config, &mode, None)?;
        for w in &workers {
            w.set_emulate_media_bps(config.emulate_media_bps);
        }
        // No timers: tests drive §5 rounds by hand, and a `RunRound`
        // request runs one on the master node.
        let master = MasterNode::start(Arc::new(Master::with_log(config, log)?), "127.0.0.1:0")?;
        let scraper = RemoteFs::over(master.net.clone(), ClientLocation::OffCluster);
        let nodes = workers.iter().map(|_| None).collect();
        let mut cluster = Self { master, nodes, workers, scraper, io_window };
        for idx in 0..cluster.workers.len() {
            cluster.restart_worker(idx)?;
        }
        Ok(cluster)
    }

    /// The master's RPC address.
    pub fn master_addr(&self) -> SocketAddr {
        self.master.addr()
    }

    /// Data-server address of a worker.
    pub fn worker_addr(&self, id: WorkerId) -> Option<SocketAddr> {
        self.master.server.state().peers.read().get(&id).copied()
    }

    /// Direct access to the master (administration/diagnostics).
    pub fn master(&self) -> &Arc<Master> {
        &self.master.server.state().master
    }

    /// Direct access to the workers (diagnostics).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// The transport the cluster's own background work goes through.
    pub fn transport(&self) -> &TcpTransport {
        &self.master.net
    }

    /// A networked client at the given location. The client's I/O window
    /// comes from the cluster config ([`RemoteFs::with_io_window`]
    /// re-windows a single client).
    pub fn client(&self, location: ClientLocation) -> RemoteFs {
        RemoteFs::over(self.master.net.clone(), location).with_io_window(self.io_window)
    }

    /// Runs one replication round over RPC (§5) — see
    /// [`super::monitor::run_replication_round`].
    pub fn run_replication_round(&self) -> Result<super::monitor::ReplicationOutcome> {
        super::monitor::run_replication_round(self.master(), self.transport())
    }

    /// Runs one fleet-wide scrub round over RPC, reporting per-worker
    /// outcomes (unreachable workers are surfaced, not counted clean).
    pub fn run_scrub_round(&self) -> Result<super::monitor::ScrubRound> {
        super::monitor::run_scrub_round(self.master(), self.transport())
    }

    /// Runs one auto-tiering round over RPC with bandwidth-capped copies —
    /// see [`super::monitor::run_migration_round`].
    pub fn run_migration_round(
        &self,
        classifier: &dyn octopus_policies::TierClassifier,
        cfg: &octopus_master::AutoTierConfig,
    ) -> Result<super::monitor::MigrationRound> {
        let (master, net) = (self.master(), self.transport());
        super::monitor::run_migration_round(master, net, classifier, cfg, || {
            super::monitor::await_beats(master)
        })
    }

    /// Starts the auto-tiering daemon: a background thread that runs one
    /// migration round every `interval_ms`. Idempotent — a second call is
    /// a no-op while a daemon is running. Stopped by
    /// [`NetCluster::stop_autotier`] or [`NetCluster::shutdown`].
    pub fn start_autotier(
        &mut self,
        classifier: Arc<dyn octopus_policies::TierClassifier>,
        cfg: octopus_master::AutoTierConfig,
        interval_ms: u64,
    ) {
        self.master
            .every("autotier", interval_ms, move |master, net| {
                super::monitor::run_migration_round(master, net, &*classifier, &cfg, || {
                    super::monitor::await_beats(master)
                })
            })
            .expect("spawn autotier thread");
    }

    /// Stops the auto-tiering daemon, waiting for an in-flight round to
    /// finish. No-op if it is not running.
    pub fn stop_autotier(&mut self) {
        self.master.stop("autotier");
    }

    /// Merged cluster-wide metrics snapshot — see
    /// [`RemoteFs::cluster_metrics_snapshot`]; the client series merged in
    /// are the process-shared RPC client's (`rpc_client_*` / `client_*`).
    pub fn metrics_snapshot(&self) -> Result<octopus_common::MetricsSnapshot> {
        self.scraper.cluster_metrics_snapshot()
    }

    /// Sends a block report for every worker whose server is up and
    /// applies the master's invalidations, returning replicas dropped —
    /// the same reconciliation the heartbeat threads run periodically,
    /// exposed so tests don't have to wait for it.
    pub fn run_block_report_round(&self) -> Result<u32> {
        let mut dropped = 0;
        for (w, node) in self.workers.iter().zip(&self.nodes) {
            if node.is_some() {
                dropped += worker_server::report_blocks(w, self.transport())?;
            }
        }
        Ok(dropped)
    }

    /// Simulates a worker crash: stops its heartbeats and data server
    /// (severing live connections). The address registry keeps the stale
    /// entry, as a real cluster would until re-registration.
    pub fn kill_worker(&mut self, idx: usize) {
        self.nodes[idx] = None;
    }

    /// Restarts a killed worker: new data server (fresh port),
    /// re-registration with the master, a block report (reconciling
    /// anything missed while down), and resumed heartbeats.
    pub fn restart_worker(&mut self, idx: usize) -> Result<()> {
        if self.nodes[idx].is_none() {
            self.nodes[idx] = Some(WorkerNode::start(
                Arc::clone(&self.workers[idx]),
                self.master_addr(),
                "127.0.0.1:0",
                Some(Arc::clone(&self.master.server.state().peers)),
            )?);
        }
        Ok(())
    }

    /// Stops heartbeats and servers.
    pub fn shutdown(&mut self) {
        self.stop_autotier();
        self.nodes.fill_with(|| None);
        self.master.shutdown();
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
