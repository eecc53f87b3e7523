//! The cluster under test, assembled from the same public pieces the
//! daemons use: a master whose edit log is a file, one TCP data server per
//! worker, and worker registration / heartbeats / block reports over real
//! RPC. `NetCluster` is not used because it only ever builds an in-memory
//! edit log.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use octopus_common::metrics::{MetricsSnapshot, OwnedLabels};
use octopus_common::{ClientLocation, ClusterConfig, FsError, Result, RpcConfig, WorkerId};
use octopus_core::net::proto::{MasterRequest, MasterResponse};
use octopus_core::net::rpc;
use octopus_core::net::worker_server::{call_master, AddressMap};
use octopus_core::net::{MasterServer, WorkerServer};
use octopus_core::{build_single_worker, RemoteFs, StorageMode, Worker};
use octopus_master::{EditLog, Master};

/// Heartbeats between full block reports (the cadence `NetCluster` uses).
const BEATS_PER_REPORT: u64 = 8;

pub struct BenchCluster {
    pub master: Arc<Master>,
    pub workers: Vec<Arc<Worker>>,
    pub addrs: AddressMap,
    pub config: ClusterConfig,
    master_server: MasterServer,
    worker_servers: Vec<WorkerServer>,
    /// Origin of the millisecond clock heartbeats carry to the master.
    epoch: Instant,
    heartbeat_stop: Arc<AtomicBool>,
    heartbeat: Option<JoinHandle<()>>,
}

/// The counters and histograms of every server-side registry at one
/// instant. The ledger reads layer counts and the program's own clocks as
/// differences of two scrapes taken outside the timed window.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    pub master: MetricsSnapshot,
    /// All workers' registries merged (samples keep their `worker` label).
    pub workers: MetricsSnapshot,
    /// The process-wide `RpcClient` the data servers call the master and
    /// each other through (commits, pipeline forwards, heartbeats).
    pub server_rpc: MetricsSnapshot,
}

/// Growth of a counter between two snapshots, over the label sets `pred` accepts.
pub fn counter_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    pred: impl Fn(&OwnedLabels) -> bool,
) -> u64 {
    after.counter_where(name, &pred).saturating_sub(before.counter_where(name, &pred))
}

/// Growth of a histogram between two snapshots as `(sum µs, observations)`.
pub fn hist_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    pred: impl Fn(&OwnedLabels) -> bool,
) -> (u64, u64) {
    let total = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .filter(|h| h.name == name && pred(&h.labels))
            .fold((0u64, 0u64), |(sum, n), h| (sum + h.sum, n + h.count))
    };
    let (a, b) = (total(after), total(before));
    (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1))
}

/// The RPC settings every benchmark client uses: the defaults with one
/// connection per peer, so a client is one socket to each server.
pub fn client_rpc_config() -> RpcConfig {
    RpcConfig { conns_per_peer: 1, ..RpcConfig::default() }
}

fn beat(master_addr: SocketAddr, w: &Worker, now_ms: u64) -> Result<()> {
    let (stats, conns) = w.heartbeat_stats();
    let touches = w.drain_heat_epoch();
    call_master(master_addr, &MasterRequest::Heartbeat(w.id(), stats, conns, now_ms, touches))?;
    Ok(())
}

fn report_blocks(master_addr: SocketAddr, w: &Worker) -> Result<()> {
    if let MasterResponse::Invalidate(stale) =
        call_master(master_addr, &MasterRequest::BlockReport(w.id(), w.block_report()))?
    {
        for b in stale {
            w.invalidate_block(b);
        }
    }
    Ok(())
}

impl BenchCluster {
    /// Boots the cluster; the master replays whatever `log_path` already
    /// holds before it serves.
    pub fn start(config: ClusterConfig, log_path: &Path) -> Result<Self> {
        config.validate()?;
        let master = Arc::new(Master::with_log(config.clone(), EditLog::open(log_path)?)?);
        let master_server = MasterServer::spawn(Arc::clone(&master))?;
        let master_addr = master_server.addr();

        let addrs: AddressMap = Arc::new(parking_lot::RwLock::new(HashMap::new()));
        let mut workers = Vec::new();
        let mut worker_servers = Vec::new();
        for i in 0..config.workers.len() {
            let w = build_single_worker(&config, WorkerId(i as u32), &StorageMode::InMemory)?;
            let server = WorkerServer::spawn(Arc::clone(&w), master_addr, Arc::clone(&addrs))?;
            addrs.write().insert(w.id(), server.addr());
            worker_servers.push(server);
            workers.push(w);
        }
        let epoch = Instant::now();
        for w in &workers {
            let my_addr = addrs.read()[&w.id()].to_string();
            call_master(
                master_addr,
                &MasterRequest::RegisterWorker(w.id(), w.rack(), w.net_bps(), 0, my_addr),
            )?;
            beat(master_addr, w, 0)?;
            report_blocks(master_addr, w)?;
        }

        let heartbeat_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = {
            let stop = Arc::clone(&heartbeat_stop);
            let workers = workers.clone();
            let interval = Duration::from_millis(config.heartbeat_ms);
            std::thread::Builder::new()
                .name("octobench-heartbeat".into())
                .spawn(move || {
                    let mut beats = 0u64;
                    loop {
                        // Parked, not asleep: shutdown unparks instead of
                        // waiting out an interval.
                        std::thread::park_timeout(interval);
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        beats += 1;
                        let now_ms = epoch.elapsed().as_millis() as u64;
                        for w in &workers {
                            let _ = beat(master_addr, w, now_ms);
                            if beats.is_multiple_of(BEATS_PER_REPORT) {
                                let _ = report_blocks(master_addr, w);
                            }
                        }
                    }
                })
                .map_err(|e| FsError::Io(e.to_string()))?
        };

        Ok(Self {
            master,
            workers,
            addrs,
            config,
            master_server,
            worker_servers,
            epoch,
            heartbeat_stop,
            heartbeat: Some(heartbeat),
        })
    }

    pub fn master_addr(&self) -> SocketAddr {
        self.master_server.addr()
    }

    pub fn worker_addr(&self, id: WorkerId) -> SocketAddr {
        self.addrs.read()[&id]
    }

    /// A closed-loop client: its own `RpcClient`, one connection per peer,
    /// the configured I/O window.
    pub fn client(&self) -> RemoteFs {
        RemoteFs::new(self.master_addr(), Arc::clone(&self.addrs), ClientLocation::OffCluster)
            .with_rpc_config(client_rpc_config())
            .with_io_window(self.config.io_window)
    }

    /// Turns device-rate pacing on or off at every data server.
    pub fn set_pacing(&self, on: bool) {
        for w in &self.workers {
            w.set_emulate_media_bps(on);
        }
    }

    /// Pushes one heartbeat and one full block report per worker now, so
    /// the master's view of capacity and replicas is current (used after a
    /// preload and before an audit).
    pub fn report_now(&self) -> Result<()> {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        for w in &self.workers {
            beat(self.master_addr(), w, now_ms)?;
            report_blocks(self.master_addr(), w)?;
        }
        Ok(())
    }

    pub fn scrape(&self) -> Scrape {
        let mut workers = MetricsSnapshot::default();
        for w in &self.workers {
            workers.merge(w.metrics().snapshot());
        }
        Scrape {
            master: self.master.metrics().snapshot(),
            workers,
            server_rpc: rpc::shared().metrics().snapshot(),
        }
    }

    /// Bytes held on every medium of every worker.
    pub fn stored_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.used()).sum()
    }

    /// Stops the heartbeat thread and the servers, and waits for them.
    pub fn shutdown(&mut self) {
        self.heartbeat_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.heartbeat.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        for s in &mut self.worker_servers {
            s.shutdown();
        }
        self.master_server.shutdown();
    }
}

impl Drop for BenchCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
