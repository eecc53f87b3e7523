//! [`NetCluster`]: boots a full networked deployment on loopback — one
//! master RPC server, one data server per worker, and real heartbeat
//! threads — from a [`ClusterConfig`].

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use octopus_common::{log_warn, ClientLocation, ClusterConfig, Result, WorkerId};
use octopus_master::Master;

use super::client::RemoteFs;
use super::master_server::MasterServer;
use super::rpc;
use super::transport::TcpTransport;
use super::worker_server::{self, AddressMap, WorkerServer};
use crate::cluster::{build_workers_for, StorageMode};
use crate::worker::Worker;

/// A running networked cluster (loopback TCP).
pub struct NetCluster {
    master: Arc<Master>,
    master_server: MasterServer,
    worker_servers: Vec<Option<WorkerServer>>,
    workers: Vec<Arc<Worker>>,
    addrs: AddressMap,
    /// How the cluster's own background work (heartbeats, §5 rounds)
    /// reaches the master and the workers.
    net: Arc<TcpTransport>,
    /// The client behind [`NetCluster::metrics_snapshot`] and
    /// [`NetCluster::trace_snapshot`] (it keeps the scrape bookkeeping).
    scraper: RemoteFs,
    heartbeat_ms: u64,
    io_window: u32,
    epoch: Instant,
    hb_stops: Vec<Arc<AtomicBool>>,
    hb_threads: Vec<Option<JoinHandle<()>>>,
    autotier_stop: Option<Arc<AtomicBool>>,
    autotier_thread: Option<JoinHandle<()>>,
}

/// Spawns one worker's background liveness thread
/// ([`worker_server::beat`] every `heartbeat_ms`).
fn spawn_heartbeat(
    net: Arc<TcpTransport>,
    w: Arc<Worker>,
    epoch: Instant,
    heartbeat_ms: u64,
    stop: Arc<AtomicBool>,
) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("octopus-{}-hb", w.id()))
        .spawn(move || {
            let mut beats = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(heartbeat_ms));
                beats += 1;
                worker_server::beat(&w, &*net, epoch.elapsed().as_millis() as u64, beats);
            }
        })
        .map_err(|e| octopus_common::FsError::Io(e.to_string()))
}

impl NetCluster {
    /// Starts the deployment: master server, one data server per worker,
    /// registration, first heartbeats, and background heartbeat threads.
    pub fn start(config: ClusterConfig) -> Result<Self> {
        Self::start_with_mode(config, StorageMode::InMemory)
    }

    /// Starts with a specific storage mode (e.g. on-disk stores).
    pub fn start_with_mode(config: ClusterConfig, mode: StorageMode) -> Result<Self> {
        config.validate()?;
        let heartbeat_ms = config.heartbeat_ms;
        let io_window = config.io_window;
        let emulate_media_bps = config.emulate_media_bps;
        let workers = build_workers_for(&config, &mode)?;
        if emulate_media_bps {
            for w in &workers {
                w.set_emulate_media_bps(true);
            }
        }
        let master = Arc::new(Master::new(config)?);
        let master_server = MasterServer::spawn(Arc::clone(&master))?;
        let master_addr = master_server.addr();

        let addrs = AddressMap::default();
        let net =
            Arc::new(TcpTransport::new(master_addr, Arc::clone(&addrs), Arc::clone(rpc::shared())));
        let mut worker_servers = Vec::with_capacity(workers.len());
        for w in &workers {
            let server = WorkerServer::spawn(Arc::clone(w), master_addr, Arc::clone(&addrs))?;
            addrs.write().insert(w.id(), server.addr());
            worker_servers.push(Some(server));
        }

        // Register + first heartbeat + block report over real RPC.
        let epoch = Instant::now();
        for w in &workers {
            let my_addr = addrs.read()[&w.id()].to_string();
            worker_server::join(w, &*net, 0, my_addr)?;
        }

        // Background heartbeat threads, one stop flag each so a single
        // worker can be taken down (fault tests) without pausing the rest.
        let mut hb_stops = Vec::with_capacity(workers.len());
        let mut hb_threads = Vec::with_capacity(workers.len());
        for w in &workers {
            let stop = Arc::new(AtomicBool::new(false));
            let handle = spawn_heartbeat(
                Arc::clone(&net),
                Arc::clone(w),
                epoch,
                heartbeat_ms,
                Arc::clone(&stop),
            )?;
            hb_stops.push(stop);
            hb_threads.push(Some(handle));
        }

        Ok(Self {
            master,
            master_server,
            worker_servers,
            workers,
            addrs,
            scraper: RemoteFs::over(net.clone(), ClientLocation::OffCluster),
            net,
            heartbeat_ms,
            io_window,
            epoch,
            hb_stops,
            hb_threads,
            autotier_stop: None,
            autotier_thread: None,
        })
    }

    /// The master's RPC address.
    pub fn master_addr(&self) -> SocketAddr {
        self.master_server.addr()
    }

    /// Data-server address of a worker.
    pub fn worker_addr(&self, id: WorkerId) -> Option<SocketAddr> {
        self.addrs.read().get(&id).copied()
    }

    /// Direct access to the master (administration/diagnostics).
    pub fn master(&self) -> &Arc<Master> {
        &self.master
    }

    /// Direct access to the workers (diagnostics).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// The transport the cluster's own background work goes through.
    pub fn transport(&self) -> &TcpTransport {
        &self.net
    }

    /// A networked client at the given location. The client's I/O window
    /// comes from the cluster config ([`RemoteFs::with_io_window`]
    /// re-windows a single client).
    pub fn client(&self, location: ClientLocation) -> RemoteFs {
        RemoteFs::over(self.net.clone(), location).with_io_window(self.io_window)
    }

    /// Advances the master's failure detector to the cluster's current
    /// clock, returning workers newly declared dead (their replicas become
    /// re-replication candidates).
    pub fn tick(&self) -> Vec<WorkerId> {
        self.master.tick(self.epoch.elapsed().as_millis() as u64)
    }

    /// Runs one replication round over RPC (§5) — see
    /// [`super::monitor::run_replication_round`].
    pub fn run_replication_round(&self) -> Result<super::monitor::ReplicationOutcome> {
        super::monitor::run_replication_round(&self.master, &*self.net)
    }

    /// Runs one fleet-wide scrub round over RPC, reporting per-worker
    /// outcomes (unreachable workers are surfaced, not counted clean).
    pub fn run_scrub_round(&self) -> Result<super::monitor::ScrubRound> {
        super::monitor::run_scrub_round(&self.master, &*self.net)
    }

    /// Runs one auto-tiering round over RPC with bandwidth-capped copies —
    /// see [`super::monitor::run_migration_round`].
    pub fn run_migration_round(
        &self,
        classifier: &dyn octopus_policies::TierClassifier,
        cfg: &octopus_master::AutoTierConfig,
    ) -> Result<super::monitor::MigrationRound> {
        super::monitor::run_migration_round(&self.master, &*self.net, classifier, cfg)
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
        if self.autotier_thread.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let master = Arc::clone(&self.master);
        let net = Arc::clone(&self.net);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("octopus-autotier".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Err(e) = super::monitor::run_migration_round(
                        &master,
                        &*net,
                        classifier.as_ref(),
                        &cfg,
                    ) {
                        log_warn!(
                            target: "net::cluster",
                            "msg=\"autotier round failed\" error={e}"
                        );
                    }
                }
            })
            .expect("spawn autotier thread");
        self.autotier_stop = Some(stop);
        self.autotier_thread = Some(handle);
    }

    /// Stops the auto-tiering daemon, waiting for an in-flight round to
    /// finish. No-op if it is not running.
    pub fn stop_autotier(&mut self) {
        if let Some(stop) = self.autotier_stop.take() {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(h) = self.autotier_thread.take() {
            let _ = h.join();
        }
    }

    /// Merged cluster-wide metrics snapshot — see
    /// [`RemoteFs::cluster_metrics_snapshot`]; the client series merged in
    /// are the process-shared RPC client's (`rpc_client_*` / `client_*`).
    pub fn metrics_snapshot(&self) -> Result<octopus_common::MetricsSnapshot> {
        self.scraper.cluster_metrics_snapshot()
    }

    /// Merged cluster-wide trace snapshot — see
    /// [`RemoteFs::cluster_trace_snapshot`].
    pub fn trace_snapshot(&self) -> Result<octopus_common::TraceSnapshot> {
        self.scraper.cluster_trace_snapshot()
    }

    /// Sends a block report for every worker whose server is up and
    /// applies the master's invalidations, returning replicas dropped —
    /// the same reconciliation the heartbeat threads run periodically,
    /// exposed so tests don't have to wait for it.
    pub fn run_block_report_round(&self) -> Result<u32> {
        let mut dropped = 0;
        for (i, w) in self.workers.iter().enumerate() {
            if self.worker_servers[i].is_some() {
                dropped += worker_server::report_blocks(w, &*self.net)?;
            }
        }
        Ok(dropped)
    }

    /// Simulates a worker crash: stops its heartbeats and data server
    /// (severing live connections). The address registry keeps the stale
    /// entry, as a real cluster would until re-registration.
    pub fn kill_worker(&mut self, idx: usize) {
        self.hb_stops[idx].store(true, Ordering::Relaxed);
        if let Some(h) = self.hb_threads[idx].take() {
            let _ = h.join();
        }
        if let Some(mut s) = self.worker_servers[idx].take() {
            s.shutdown();
        }
    }

    /// Restarts a killed worker: new data server (fresh port),
    /// re-registration with the master, a block report (reconciling
    /// anything missed while down), and resumed heartbeats.
    pub fn restart_worker(&mut self, idx: usize) -> Result<()> {
        if self.worker_servers[idx].is_some() {
            return Ok(());
        }
        let w = &self.workers[idx];
        let server =
            WorkerServer::spawn(Arc::clone(w), self.master_addr(), Arc::clone(&self.addrs))?;
        self.addrs.write().insert(w.id(), server.addr());
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        worker_server::join(w, &*self.net, now_ms, server.addr().to_string())?;
        self.worker_servers[idx] = Some(server);
        let stop = Arc::new(AtomicBool::new(false));
        self.hb_threads[idx] = Some(spawn_heartbeat(
            Arc::clone(&self.net),
            Arc::clone(w),
            self.epoch,
            self.heartbeat_ms,
            Arc::clone(&stop),
        )?);
        self.hb_stops[idx] = stop;
        Ok(())
    }

    /// Stops heartbeats and servers.
    pub fn shutdown(&mut self) {
        self.stop_autotier();
        for stop in &self.hb_stops {
            stop.store(true, Ordering::Relaxed);
        }
        for h in self.hb_threads.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
        for mut s in self.worker_servers.iter_mut().filter_map(Option::take) {
            s.shutdown();
        }
        self.master_server.shutdown();
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
