//! The transport seam: the one thing the networked deployment and the
//! in-process harness differ in is *how a request reaches the master or a
//! worker*. Everything above it — the client ([`super::RemoteFs`]), the
//! worker dispatch's nested calls (replica commits, pipeline forwarding,
//! re-replication reads, corruption reports), the §5 monitor and the
//! heartbeat / block-report step — takes a [`Transport`] handle and is
//! written once.
//!
//! Two implementations, no third:
//!
//! - [`TcpTransport`]: worker ids resolve through an [`AddressMap`] and
//!   requests travel over an [`RpcClient`] (deadlines, tracing
//!   envelopes) — what the daemons, `NetCluster` and octobench run.
//! - [`LocalTransport`]: requests are handed straight to the master and
//!   worker dispatchers of the same process. No sockets and no real-time
//!   clock, which is what lets [`crate::Cluster`] drive heartbeats and
//!   the failure detector from a logical clock; a worker in the harness's
//!   dead set answers with the same *retryable* error a refused
//!   connection produces, so §3.1 recovery and §4.1 failover run the same
//!   code on both. A reply can be lost ([`LocalTransport::inject`]): the
//!   callee applies the request and the caller sees the error a severed
//!   connection gives.

use std::collections::HashSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use octopus_common::metrics::MetricsRegistry;
use octopus_common::trace::{self, TraceCollector};
use octopus_common::{
    Block, BlockData, BlockId, FsError, Location, MediaId, Result, RpcConfig, WorkerId,
};
use octopus_master::Master;

use super::faults::FaultAction;
use super::master_server::{self, MasterState};
use super::proto::{BlockRef, MasterRequest, MasterResponse, WorkerRequest, WorkerResponse};
use super::retry::{self, Failed};
use super::rpc::RpcClient;
use super::worker_server::{self, AddressMap};
use crate::worker::Worker;

/// Delivers requests to the master and to workers by id.
pub trait Transport: Send + Sync {
    /// One request to the master.
    fn call_master(&self, req: MasterRequest) -> Result<MasterResponse>;

    /// One request to worker `to`. An unreachable worker is a retryable
    /// error ([`FsError::is_retryable`]); an id this transport cannot
    /// address at all is [`FsError::UnknownWorker`].
    fn call_worker(&self, to: WorkerId, req: WorkerRequest) -> Result<WorkerResponse>;

    /// `WriteBlock(block, media, rest, data)` to pipeline head `to`, its
    /// block lent by the caller rather than handed over.
    ///
    /// By default the block is copied into the request: in process, that is
    /// the one copy, the one the store keeps.
    fn write_block(
        &self,
        to: WorkerId,
        block: Block,
        media: MediaId,
        rest: &[Location],
        data: BlockRef<'_>,
    ) -> Result<WorkerResponse> {
        self.call_worker(to, WorkerRequest::WriteBlock(block, media, rest.to_vec(), data.to_data()))
    }

    /// `ReadBlock(media, block)` to worker `to`. Given `dest`, exactly the
    /// block's length, real bytes land there and only the checksum the
    /// worker recorded comes back; without one, or for a synthetic block,
    /// the block comes back whole beside it. A replica of another length
    /// than `dest` is [`FsError::BlockUnavailable`].
    ///
    /// By default the reply is received whole and copied into `dest`.
    fn read_block(
        &self,
        to: WorkerId,
        media: MediaId,
        block: BlockId,
        dest: Option<&mut [u8]>,
    ) -> Result<(Option<BlockData>, u32)> {
        let (data, sum) = read_whole(self, to, media, block)?;
        match (dest, data) {
            (Some(dest), BlockData::Real(bytes)) => {
                if bytes.len() != dest.len() {
                    return Err(wrong_length(bytes.len(), dest.len()));
                }
                dest.copy_from_slice(&bytes);
                Ok((None, sum))
            }
            (_, data) => Ok((Some(data), sum)),
        }
    }

    /// Every worker this transport can address (scrape and scrub fan-out),
    /// reachable or not.
    fn workers(&self) -> Vec<WorkerId>;

    /// Brings [`Transport::workers`] up to date with the master's registry,
    /// so a fan-out reaches workers that joined since. A no-op where the
    /// transport already holds every worker.
    fn refresh_workers(&self) -> Result<()> {
        Ok(())
    }

    /// Where callers of this transport record their own series
    /// (`client_*`), next to whatever the transport itself records.
    fn metrics(&self) -> &MetricsRegistry;

    /// Where callers of this transport root their request spans.
    fn trace(&self) -> &TraceCollector;

    /// This transport with its RPC deadlines and retry budget replaced,
    /// or `None` where no RPC is involved.
    fn with_rpc_config(&self, _cfg: RpcConfig) -> Option<Arc<dyn Transport>> {
        None
    }
}

/// A `ReadBlock` answered whole: the block and its recorded checksum.
fn read_whole<T: Transport + ?Sized>(
    net: &T,
    to: WorkerId,
    media: MediaId,
    block: BlockId,
) -> Result<(BlockData, u32)> {
    match net.call_worker(to, WorkerRequest::ReadBlock(media, block))? {
        WorkerResponse::Data(data, sum) => Ok((data, sum)),
        r => Err(FsError::Io(format!("unexpected response {r:?}"))),
    }
}

/// What a read of a `got`-byte replica into a `want`-byte slice fails with.
pub(crate) fn wrong_length(got: usize, want: usize) -> FsError {
    FsError::BlockUnavailable(format!("a {got} B replica for a {want} B slice"))
}

/// Resolves an advertised `host:port` to a socket address (first hit).
pub fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// Requests over TCP: a master address, a worker address map, and the
/// [`RpcClient`] that carries them.
#[derive(Clone)]
pub struct TcpTransport {
    master: SocketAddr,
    workers: AddressMap,
    rpc: Arc<RpcClient>,
}

impl TcpTransport {
    /// A transport to `master`, resolving worker ids through `workers`.
    pub fn new(master: SocketAddr, workers: AddressMap, rpc: Arc<RpcClient>) -> Self {
        Self { master, workers, rpc }
    }
}

impl TcpTransport {
    /// Where worker `to` serves. An id the map lacks (a worker that joined
    /// since) refreshes it once.
    fn addr_of(&self, to: WorkerId) -> Result<SocketAddr> {
        let find = || self.workers.read().get(&to).copied();
        let addr = find().or_else(|| self.refresh_workers().ok().and_then(|()| find()));
        addr.ok_or_else(|| FsError::UnknownWorker(to.to_string()))
    }
}

impl Transport for TcpTransport {
    fn call_master(&self, req: MasterRequest) -> Result<MasterResponse> {
        self.rpc.call_master(self.master, &req)
    }

    fn call_worker(&self, to: WorkerId, req: WorkerRequest) -> Result<WorkerResponse> {
        self.rpc.call_worker(self.addr_of(to)?, &req)
    }

    fn write_block(
        &self,
        to: WorkerId,
        block: Block,
        media: MediaId,
        rest: &[Location],
        data: BlockRef<'_>,
    ) -> Result<WorkerResponse> {
        self.rpc.write_block(self.addr_of(to)?, block, media, rest, data)
    }

    /// The body lands in `dest` straight from the socket.
    fn read_block(
        &self,
        to: WorkerId,
        media: MediaId,
        block: BlockId,
        dest: Option<&mut [u8]>,
    ) -> Result<(Option<BlockData>, u32)> {
        match dest {
            Some(dest) => self.rpc.read_block(self.addr_of(to)?, media, block, dest),
            None => read_whole(self, to, media, block).map(|(data, sum)| (Some(data), sum)),
        }
    }

    fn workers(&self) -> Vec<WorkerId> {
        self.workers.read().keys().copied().collect()
    }

    /// Re-fetches the worker address registry from the master into this
    /// transport's address map.
    fn refresh_workers(&self) -> Result<()> {
        match self.call_master(MasterRequest::WorkerAddresses)? {
            MasterResponse::Addresses(list) => {
                let mut map = self.workers.write();
                for (w, a) in list {
                    if let Some(sa) = resolve(&a) {
                        map.insert(w, sa);
                    }
                }
                Ok(())
            }
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    fn metrics(&self) -> &MetricsRegistry {
        self.rpc.metrics()
    }

    fn trace(&self) -> &TraceCollector {
        self.rpc.trace()
    }

    fn with_rpc_config(&self, cfg: RpcConfig) -> Option<Arc<dyn Transport>> {
        Some(Arc::new(Self { rpc: Arc::new(RpcClient::new(cfg)), ..self.clone() }))
    }
}

/// Requests by function call: the master and every worker of one process.
pub struct LocalTransport {
    state: MasterState,
    workers: Vec<Arc<Worker>>,
    dead: RwLock<HashSet<WorkerId>>,
    /// Replies to lose, `(callee, request name)` with the master as
    /// `None`, in registration order.
    lost: Mutex<Vec<(Option<WorkerId>, &'static str)>>,
    metrics: MetricsRegistry,
    trace: TraceCollector,
}

impl LocalTransport {
    /// A transport over `master` and `workers` (indexed by worker id).
    pub fn new(master: Arc<Master>, workers: Vec<Arc<Worker>>) -> Self {
        Self {
            state: MasterState::new(master),
            workers,
            dead: RwLock::new(HashSet::new()),
            lost: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
            trace: TraceCollector::new("client"),
        }
    }

    /// The master.
    pub fn master(&self) -> &Arc<Master> {
        &self.state.master
    }

    /// All workers, including downed ones.
    pub fn all_workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// The workers not marked down.
    pub fn live_workers(&self) -> Vec<Arc<Worker>> {
        let dead = self.dead.read();
        self.workers.iter().filter(|w| !dead.contains(&w.id())).cloned().collect()
    }

    /// Marks a worker down (`true`) or back up: calls to a downed worker
    /// fail as an unreachable peer would.
    pub fn set_down(&self, id: WorkerId, down: bool) {
        if down {
            self.dead.write().insert(id);
        } else {
            self.dead.write().remove(&id);
        }
    }

    /// Loses the reply to the next `request` (a request's `name()`) that
    /// reaches `to` — a worker, or the master for `None`: the callee
    /// applies it, and the caller gets the retryable error a severed
    /// connection gives. Faults are consumed in registration order. Only
    /// [`FaultAction::DropConnection`] means something in process.
    pub fn inject(&self, to: Option<WorkerId>, request: &'static str, action: FaultAction) {
        assert_eq!(action, FaultAction::DropConnection, "in process, only a reply can be lost");
        self.lost.lock().push((to, request));
    }

    /// One call through the retry loop, never waiting: a downed worker is
    /// not served, and a fault registered for a served request loses it.
    fn call<T>(
        &self,
        to: Option<WorkerId>,
        request: &'static str,
        idempotent: bool,
        serve: impl Fn() -> Result<T>,
    ) -> Result<T> {
        let attempt = |_| {
            if let Some(w) = to.filter(|w| self.dead.read().contains(w)) {
                return Err(Failed::Unsent(FsError::Unreachable(format!("{w} is down"))));
            }
            let answer = serve();
            let mut lost = self.lost.lock();
            let Some(i) = lost.iter().position(|f| *f == (to, request)) else {
                return Ok(answer);
            };
            lost.remove(i);
            Err(Failed::Unanswered(FsError::Unreachable("server closed the connection".into())))
        };
        retry::run(&RpcConfig::default(), &self.metrics, request, idempotent, |_| {}, attempt)
    }
}

impl Transport for LocalTransport {
    fn call_master(&self, req: MasterRequest) -> Result<MasterResponse> {
        self.call(None, req.name(), req.is_idempotent(), || {
            master_server::dispatch_traced(&self.state, req.clone(), trace::current_context())
        })
    }

    fn call_worker(&self, to: WorkerId, req: WorkerRequest) -> Result<WorkerResponse> {
        let worker = self
            .workers
            .get(to.0 as usize)
            .ok_or_else(|| FsError::UnknownWorker(to.to_string()))?;
        self.call(Some(to), req.name(), req.is_idempotent(), || {
            worker_server::dispatch_traced(worker, self, req.clone(), trace::current_context())
        })
    }

    fn workers(&self) -> Vec<WorkerId> {
        self.workers.iter().map(|w| w.id()).collect()
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn trace(&self) -> &TraceCollector {
        &self.trace
    }
}
