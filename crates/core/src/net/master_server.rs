//! The master's RPC server: a multiplexed [`super::server::ServerCore`]
//! dispatching [`MasterRequest`]s onto an [`octopus_master::Master`].

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use octopus_common::trace::TraceContext;
use octopus_common::{FsError, Result, ServerConfig};
use octopus_master::{ClientId, Master};

use super::frame::Frame;
use super::monitor;
use super::node::Periodic;
use super::proto::{
    classify_master_request, decode_request, encode_master_result_frame, MasterRequest,
    MasterResponse,
};
use super::rpc;
use super::server::{Handler, ServerCore};
use super::transport::{resolve, TcpTransport};
use super::worker_server::AddressMap;

/// Server-side state: the master plus the registry of worker data-server
/// addresses (populated by `RegisterWorker`, served by `WorkerAddresses`).
pub struct MasterState {
    /// The master.
    pub master: Arc<Master>,
    /// The worker registry: each worker's advertised data-server address,
    /// resolved at registration. The master's own §5 monitor reaches the
    /// workers through it, and clients fetch it; an address that does not
    /// resolve is in neither.
    pub peers: AddressMap,
    /// The transport the master's rounds go out through, a server's once
    /// it is bound; a `RunRound` is refused without one.
    pub(super) net: OnceLock<Arc<TcpTransport>>,
    /// Held by every §5 round the master's node runs, in its background
    /// loop or on request, so no two overlap: a round's scan sees the
    /// copies of the one before it settled, and a round that finds nothing
    /// means that nothing is left to do.
    pub(super) rounds: Mutex<()>,
}

impl MasterState {
    /// Fresh state around a master.
    pub fn new(master: Arc<Master>) -> Self {
        Self { master, peers: Arc::default(), net: OnceLock::new(), rounds: Mutex::new(()) }
    }
}

/// A running master RPC server.
pub struct MasterServer {
    // Declared first so it stops first: no tick outlives the server.
    clock: Option<Periodic>,
    core: ServerCore,
    state: Arc<MasterState>,
}

impl MasterServer {
    /// Binds to `127.0.0.1:0` and starts serving `master`.
    pub fn spawn(master: Arc<Master>) -> Result<Self> {
        Self::spawn_on(master, "127.0.0.1:0")
    }

    /// Binds to an explicit address (daemon deployments).
    pub fn spawn_on(master: Arc<Master>, bind: impl ToSocketAddrs) -> Result<Self> {
        Self::spawn_with(master, bind, ServerConfig::default())
    }

    /// Binds with an explicit server configuration (tests shorten the idle
    /// horizon). Once per heartbeat interval the server ticks the master
    /// ([`Master::tick`]) with the milliseconds since it started.
    pub fn spawn_with(
        master: Arc<Master>,
        bind: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> Result<Self> {
        let state = Arc::new(MasterState::new(master));
        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |frame: Frame| {
            let result = decode_request(&frame)
                .and_then(|(ctx, req)| dispatch_traced(&handler_state, req, ctx));
            encode_master_result_frame(&result)
        });
        // A round waits on workers that call back here, so it is admitted
        // one level deep (`classify_master_request`).
        let classify = Arc::new(classify_master_request);
        let core = ServerCore::spawn(bind, "octopus-master", cfg, classify, handler)?;
        let peers = Arc::clone(&state.peers);
        let net = TcpTransport::new(core.addr(), peers, Arc::clone(rpc::shared()));
        let _ = state.net.set(Arc::new(net));
        let (master, start) = (Arc::clone(&state.master), Instant::now());
        let interval_ms = master.config().heartbeat_ms;
        let clock = Periodic::spawn("octopus-master-clock".into(), interval_ms, move || {
            master.tick(start.elapsed().as_millis() as u64);
        })?;
        Ok(Self { clock: Some(clock), core, state })
    }

    /// The server's shared state (master + worker-address registry).
    pub fn state(&self) -> &Arc<MasterState> {
        &self.state
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Stops the master's clock, then stops accepting connections and
    /// severs open ones so in-flight callers fail fast.
    pub fn shutdown(&mut self) {
        self.clock = None;
        self.core.shutdown();
    }
}

/// Maps one request onto the master API, recording per-request-type op
/// counts and latency into the master's registry.
pub fn dispatch(state: &MasterState, req: MasterRequest) -> Result<MasterResponse> {
    dispatch_traced(state, req, None)
}

/// [`dispatch`] continuing a propagated trace context: traced requests
/// record a `master.<Name>` span into the master's collector.
pub fn dispatch_traced(
    state: &MasterState,
    req: MasterRequest,
    ctx: Option<TraceContext>,
) -> Result<MasterResponse> {
    let mut span = ctx.map(|c| state.master.trace().child_of(format!("master.{}", req.name()), c));
    let labels = octopus_common::metrics::Labels::req(req.name());
    state.master.metrics().inc("master_requests_total", labels);
    let start = std::time::Instant::now();
    let out = dispatch_inner(state, req);
    state.master.metrics().observe_since("master_request_us", labels, start);
    if out.is_err() {
        state.master.metrics().inc("master_request_failures_total", labels);
        if let (Some(s), Err(e)) = (span.as_mut(), &out) {
            s.annotate("error", e);
        }
    }
    out
}

fn dispatch_inner(state: &MasterState, req: MasterRequest) -> Result<MasterResponse> {
    use MasterRequest as Q;
    use MasterResponse as A;
    let master = &*state.master;
    Ok(match req {
        Q::Mkdir(path) => {
            master.mkdir(&path)?;
            A::Unit
        }
        Q::CreateFile(path, rv, bs, holder) => {
            A::Status(master.create_file_as(&path, rv, bs, ClientId(holder))?)
        }
        Q::AddBlock(path, len, client, holder, excluded) => {
            let (block, pipeline) =
                master.add_block_excluding(&path, len, client, ClientId(holder), &excluded)?;
            A::Allocated(block, pipeline)
        }
        Q::AbandonBlock(path, block, holder) => {
            master.abandon_block_as(&path, block, ClientId(holder))?;
            A::Unit
        }
        Q::ReassignBlock(path, block, client, holder, excluded) => {
            let pipeline =
                master.reassign_block_as(&path, block, client, ClientId(holder), &excluded)?;
            A::Allocated(block, pipeline)
        }
        Q::CommitReplica(block, stored, unreached) => {
            master.commit_replicas(block, &stored, &unreached)?;
            A::Unit
        }
        Q::CompleteFile(path, holder) => {
            master.complete_file_as(&path, ClientId(holder))?;
            A::Unit
        }
        Q::AppendFile(path, holder) => A::Status(master.append_file_as(&path, ClientId(holder))?),
        Q::GetBlockLocations(path, start, len, client) => {
            A::Located(master.get_file_block_locations(&path, start, len, client)?)
        }
        Q::SetReplication(path, rv) => A::Vector(master.set_replication(&path, rv)?),
        Q::Delete(path, recursive) => A::Dropped(master.delete(&path, recursive)?),
        Q::Rename(src, dst) => {
            master.rename(&src, &dst)?;
            A::Unit
        }
        Q::List(path) => A::Entries(master.list(&path)?),
        Q::Status(path) => A::Status(master.status(&path)?),
        Q::TierReports => A::Reports(master.get_storage_tier_reports()),
        Q::RegisterWorker(worker, rack, net_bps, _stamp, addr) => {
            master.register_worker(worker, rack, net_bps);
            if let Some(sa) = resolve(&addr) {
                state.peers.write().insert(worker, sa);
            }
            A::Registered(master.config().heartbeat_ms)
        }
        Q::Heartbeat(worker, media, nr_conn, _stamp, touches) => {
            master.heartbeat(worker, media, nr_conn, &touches)?;
            A::Unit
        }
        Q::BlockReport(worker, blocks) => A::Invalidate(master.block_report(worker, &blocks)?),
        Q::ReportCorrupt(block, loc) => {
            master.report_corrupt(block, loc);
            A::Unit
        }
        Q::EditsSince(from) => A::Edits(master.edits_since(from as usize)?.into()),
        Q::WorkerAddresses => {
            A::Addresses(state.peers.read().iter().map(|(w, a)| (*w, a.to_string())).collect())
        }
        Q::Metrics => {
            master.stamp_scrape_metrics();
            A::Metrics(master.metrics().snapshot())
        }
        Q::Trace => A::Trace(master.trace().snapshot()),
        Q::Heat(path) => A::Heat(master.file_heat(&path)?),
        Q::ExplainPlacement(block) => A::Decisions(master.explain(block)),
        Q::ClusterStatus => A::ClusterStatus(master.cluster_status(10)),
        Q::Migrations(n) => A::Decisions(master.recent_migrations(n as usize)),
        Q::SetQuota(path, quota) => {
            master.set_quota(&path, quota)?;
            A::Unit
        }
        Q::QuotaUsage(path) => {
            let (quota, usage) = master.quota_usage(&path)?;
            A::Quota(quota, usage.to_vec())
        }
        Q::RunRound(round) => {
            let net = state.net.get().ok_or_else(|| FsError::NotReady("no transport".into()))?;
            let _one = state.rounds.lock();
            A::Count(monitor::run_round(master, &**net, round)?)
        }
    })
}
