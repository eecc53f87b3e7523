//! The node lifecycle, written once: what `octofs-master`, `octofs-worker`
//! and [`super::NetCluster`] all run. A [`WorkerNode`] is a data server
//! that has joined the master and keeps beating; a [`MasterNode`] is the
//! RPC server, the transport its §5 rounds go out through, and, once the
//! caller starts it, its one background §5 loop. Dropping a node stops
//! it. Every periodic thread of `net` is one [`Periodic`].

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use octopus_common::{log_warn, FsError, Result};
use octopus_master::{AutoTierConfig, Master};
use octopus_policies::TierClassifier;

use super::master_server::MasterServer;
use super::monitor;
use super::rpc;
use super::transport::{TcpTransport, Transport};
use super::worker_server::{self, AddressMap, WorkerServer};
use crate::worker::Worker;

/// Blocks the calling thread for the life of the process, keeping `node`
/// (and its threads) running: a daemon's `main` once its node is up.
pub fn serve<N>(_node: N) -> ! {
    loop {
        std::thread::park();
    }
}

/// A thread that runs `round` once per `interval_ms` until dropped. It
/// waits parked on a channel nothing is ever sent on, and dropping the
/// sender unparks it: stopping costs the round in flight, not the rest of
/// an interval.
pub(super) struct Periodic {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Periodic {
    pub(super) fn spawn(
        name: String,
        interval_ms: u64,
        mut round: impl FnMut() + Send + 'static,
    ) -> Result<Self> {
        let (stop, stopped) = channel::<()>();
        let interval = Duration::from_millis(interval_ms);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                    round();
                }
            })
            .map_err(|e| FsError::Io(e.to_string()))?;
        Ok(Self { stop: Some(stop), thread: Some(thread) })
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A running worker: its data server, registered with the master, and the
/// liveness thread ([`worker_server::beat`] at the master's interval).
pub struct WorkerNode {
    // Declared first so it stops first: no beat outlives the server.
    _beat: Periodic,
    server: WorkerServer,
}

impl WorkerNode {
    /// Serves `worker` on `bind`, joins the master at `master` (register,
    /// first heartbeat, block report) and beats at the master's interval.
    ///
    /// `peers` is where pipeline forwards look up the other workers. Given
    /// a map, the caller keeps it current ([`super::NetCluster`] shares the
    /// master's registry); given `None`, the node keeps a private one and
    /// re-fetches it from the master with every beat, as a worker in a
    /// process of its own must.
    pub fn start(
        worker: Arc<Worker>,
        master: SocketAddr,
        bind: impl ToSocketAddrs,
        peers: Option<AddressMap>,
    ) -> Result<Self> {
        let refresh = peers.is_none();
        let peers = peers.unwrap_or_default();
        let server = WorkerServer::spawn_on(Arc::clone(&worker), master, Arc::clone(&peers), bind)?;
        let net = TcpTransport::new(master, peers, Arc::clone(rpc::shared()));
        let addr = server.addr().to_string();
        let heartbeat_ms = worker_server::join(&worker, &net, addr.clone())?;
        if refresh {
            let _ = net.refresh_workers();
        }
        let mut beats = 0u64;
        let beat =
            Periodic::spawn(format!("octopus-{}-hb", worker.id()), heartbeat_ms, move || {
                beats += 1;
                worker_server::beat(&worker, &net, beats, &addr);
                if refresh {
                    let _ = net.refresh_workers();
                }
            })?;
        Ok(Self { _beat: beat, server })
    }

    /// The data server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// A running master: its RPC server, the transport its own background
/// work reaches the registered workers through, and its background §5
/// loop (none until the caller starts it).
pub struct MasterNode {
    // Before the server, so the loop stops before it does.
    rounds: Option<Periodic>,
    /// To this master and the workers registered with it.
    pub(super) net: Arc<TcpTransport>,
    pub(super) server: MasterServer,
}

impl MasterNode {
    /// Serves `master` on `bind`.
    pub fn start(master: Arc<Master>, bind: impl ToSocketAddrs) -> Result<Self> {
        let server = MasterServer::spawn_on(master, bind)?;
        let net = Arc::clone(server.state().net.get().expect("a bound server has a transport"));
        Ok(Self { rounds: None, net, server })
    }

    /// The RPC address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Starts the node's one background §5 loop, replacing a running one:
    /// a round every four heartbeat intervals. With `tiering`, a round is
    /// a migration round ([`monitor::run_migration_round`]: plan with the
    /// classifier, then run every copy, repairs included, under
    /// `max_copy_bps`); without it, an unpaced replication round. A round
    /// never overlaps a requested one (`MasterState::rounds`); a failed
    /// round is logged and the next one is the retry.
    pub fn start_rounds(
        &mut self,
        tiering: Option<(Arc<dyn TierClassifier>, AutoTierConfig)>,
    ) -> Result<()> {
        self.stop_rounds();
        let (state, net) = (Arc::clone(self.server.state()), Arc::clone(&self.net));
        let interval_ms = 4 * state.master.config().heartbeat_ms;
        let round = move || {
            let _one = state.rounds.lock();
            let master = &*state.master;
            let done = match &tiering {
                Some((classifier, cfg)) => {
                    let beat = || monitor::await_beats(master);
                    monitor::run_migration_round(master, &*net, &**classifier, cfg, beat).map(drop)
                }
                None => monitor::run_replication_round(master, &*net).map(drop),
            };
            if let Err(e) = done {
                log_warn!(target: "net::node", "msg=\"background round failed\" err=\"{e}\"");
            }
        };
        self.rounds = Some(Periodic::spawn("octopus-rounds".into(), interval_ms, round)?);
        Ok(())
    }

    /// Stops the background loop, waiting out a round in flight.
    pub fn stop_rounds(&mut self) {
        self.rounds = None;
    }

    /// Stops the background loop, then the server (severing open
    /// connections so in-flight callers fail fast).
    pub fn shutdown(&mut self) {
        self.stop_rounds();
        self.server.shutdown();
    }
}
