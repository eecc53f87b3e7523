//! The worker's data server: stores and serves block replicas over TCP,
//! forwarding pipelined writes to the next stage (§3.1); a pipeline head
//! settles the whole block at the master with one commit. Runs on the
//! multiplexed [`super::server::ServerCore`]; a block enters as the body
//! of the frame it arrived in, and that buffer — exactly the block's
//! length — is what the store keeps and what leaves again as the next
//! hop's or a reader's body (no copy per hop).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use parking_lot::RwLock;

use octopus_common::log_warn;
use octopus_common::metrics::Labels;
use octopus_common::trace::{self, TraceContext};
use octopus_common::{
    Block, BlockData, BlockId, FsError, Location, MediaId, Result, ServerConfig, WorkerId,
};

use super::client::read_replica;
use super::frame::Frame;
use super::proto::{
    classify_worker_request, decode_request, encode_worker_result_frame, MasterRequest,
    MasterResponse, WorkerRequest, WorkerResponse,
};
use super::server::{Handler, ServerCore};
use super::transport::{TcpTransport, Transport};
use crate::worker::Worker;

/// Shared map of worker data-server addresses (for pipeline forwarding).
pub type AddressMap = Arc<RwLock<HashMap<WorkerId, SocketAddr>>>;

/// One RPC round trip to the master, over the process-wide shared client.
pub fn call_master(addr: SocketAddr, req: &MasterRequest) -> Result<MasterResponse> {
    super::rpc::shared().call_master(addr, req)
}

/// Heartbeats between full block reports in a worker's liveness loop.
const BEATS_PER_REPORT: u64 = 8;

/// One heartbeat: per-medium statistics and the NIC connection count,
/// with the heat epoch that just closed piggybacked — no extra request.
/// Its stamp is 0: the master records its own time of receipt.
pub fn heartbeat(worker: &Worker, net: &dyn Transport) -> Result<()> {
    let (stats, conns) = worker.heartbeat_stats();
    let touches = worker.drain_heat_epoch();
    net.call_master(MasterRequest::Heartbeat(worker.id(), stats, conns, 0, touches))?;
    Ok(())
}

/// One full block report, applying the master's invalidation reply
/// (replicas it no longer tracks — e.g. a delete the worker missed while
/// offline, §5). Returns replicas dropped.
pub fn report_blocks(worker: &Worker, net: &dyn Transport) -> Result<u32> {
    let mut dropped = 0;
    if let MasterResponse::Invalidate(stale) =
        net.call_master(MasterRequest::BlockReport(worker.id(), worker.block_report()))?
    {
        for b in stale {
            dropped += worker.invalidate_block(b);
        }
    }
    Ok(dropped)
}

/// Joins the cluster: registers `worker` as served at `addr`, then the
/// first heartbeat and block report. Returns the master's heartbeat
/// interval (ms), which the worker beats at.
pub fn join(worker: &Worker, net: &dyn Transport, addr: String) -> Result<u64> {
    let register =
        MasterRequest::RegisterWorker(worker.id(), worker.rack(), worker.net_bps(), 0, addr);
    let heartbeat_ms = match net.call_master(register)? {
        MasterResponse::Registered(ms) => ms,
        r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
    };
    heartbeat(worker, net)?;
    report_blocks(worker, net)?;
    Ok(heartbeat_ms)
}

/// The `beats`-th periodic beat of a worker's liveness loop: a heartbeat,
/// plus a full block report every [`BEATS_PER_REPORT`] beats. A master
/// that answers [`FsError::UnknownWorker`] has restarted (workers are
/// never dropped from its map), so the worker joins it again as served at
/// `addr`, still beating at its first join's interval. Failures are
/// dropped — the next beat is the retry.
pub fn beat(worker: &Worker, net: &dyn Transport, beats: u64, addr: &str) {
    let _ = match heartbeat(worker, net) {
        Err(FsError::UnknownWorker(_)) => join(worker, net, addr.to_string()).map(drop),
        _ if beats.is_multiple_of(BEATS_PER_REPORT) => report_blocks(worker, net).map(drop),
        _ => Ok(()),
    };
}

/// A running worker data server.
pub struct WorkerServer {
    core: ServerCore,
}

impl WorkerServer {
    /// Binds to `127.0.0.1:0` and starts serving `worker`. `master` is the
    /// master's RPC address (for a pipeline head's commit); `peers` resolves
    /// pipeline-forwarding targets.
    pub fn spawn(worker: Arc<Worker>, master: SocketAddr, peers: AddressMap) -> Result<Self> {
        Self::spawn_on(worker, master, peers, ("127.0.0.1", 0))
    }

    /// Like [`WorkerServer::spawn`], binding to an explicit address
    /// (daemon deployments with a configured `--listen`).
    pub fn spawn_on(
        worker: Arc<Worker>,
        master: SocketAddr,
        peers: AddressMap,
        bind: impl std::net::ToSocketAddrs,
    ) -> Result<Self> {
        let name = format!("octopus-{}", worker.id());
        let net = TcpTransport::new(master, peers, Arc::clone(super::rpc::shared()));
        let handler: Handler = Arc::new(move |frame: Frame| {
            let result = decode_request(&frame)
                .and_then(|(ctx, req)| dispatch_traced(&worker, &net, req, ctx));
            encode_worker_result_frame(&result)
        });
        let core = ServerCore::spawn(
            bind,
            &name,
            ServerConfig::default(),
            Arc::new(classify_worker_request),
            handler,
        )?;
        Ok(Self { core })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Stops the server: the accept loop exits and every open connection
    /// is severed, so in-flight callers fail fast instead of hanging.
    pub fn shutdown(&mut self) {
        self.core.shutdown();
    }
}

/// Serves one request on `worker`; the calls the service itself makes
/// (a head's commit, pipeline forward, source reads, corruption reports)
/// go out through `net`.
pub(crate) fn dispatch_traced(
    worker: &Worker,
    net: &dyn Transport,
    req: WorkerRequest,
    ctx: Option<TraceContext>,
) -> Result<WorkerResponse> {
    // Traced requests record a `worker.<Name>` span in this worker's
    // collector; calls this dispatch makes (commit, forward) nest under
    // it via the thread-local span stack.
    let mut span = ctx.map(|c| worker.trace().child_of(format!("worker.{}", req.name()), c));
    if let Some(s) = span.as_mut() {
        s.annotate("worker", worker.id());
    }
    let labels = Labels::worker(worker.id()).with_req(req.name());
    worker.metrics().inc("worker_requests_total", labels);
    let start = std::time::Instant::now();
    let out = dispatch_inner(worker, net, req);
    worker.metrics().observe_since("worker_request_us", labels, start);
    if out.is_err() {
        worker.metrics().inc("worker_request_failures_total", labels);
        if let (Some(s), Err(e)) = (span.as_mut(), &out) {
            s.annotate("error", e);
        }
    }
    out
}

/// Deletes and reports a scrub round's corrupt replicas, returning how
/// many were actually handled. A replica whose medium this worker no
/// longer maps (removed or reconfigured since the scan) is skipped and
/// logged — it must not abort the handling of the *other* corrupt
/// replicas, some of which may already have been deleted.
pub fn scrub_and_report(
    worker: &Worker,
    net: &dyn Transport,
    corrupt: Vec<(BlockId, MediaId)>,
) -> u32 {
    let mut handled = 0u32;
    for (block, media) in corrupt {
        let tier = match worker.tier_of(media) {
            Ok(t) => t,
            Err(e) => {
                log_warn!(
                    target: "net::worker_server",
                    "msg=\"corrupt replica on unmapped medium, skipping\" block={block} media={media} err=\"{e}\"",
                );
                worker
                    .metrics()
                    .inc("worker_scrub_unmapped_media_total", Labels::worker(worker.id()));
                continue;
            }
        };
        let loc = Location { worker: worker.id(), media, tier };
        let _ = worker.delete_block(media, block);
        let _ = net.call_master(MasterRequest::ReportCorrupt(block, loc));
        handled += 1;
    }
    handled
}

fn dispatch_inner(
    worker: &Worker,
    net: &dyn Transport,
    req: WorkerRequest,
) -> Result<WorkerResponse> {
    match req {
        WorkerRequest::WriteBlock(block, media, rest, data) => {
            // Only the head learns the write's outcome, so only the head
            // settles it: one commit of every stage that stored, dropping
            // the reservations of the stages the pipeline never reached.
            let stored = store_and_forward(worker, net, block, media, &rest, data)?;
            let unreached = rest.iter().filter(|l| !stored.contains(l)).copied().collect();
            net.call_master(MasterRequest::CommitReplica(block, stored.clone(), unreached))?;
            Ok(WorkerResponse::Stored(stored))
        }
        WorkerRequest::Forward(block, media, rest, data) => {
            Ok(WorkerResponse::Stored(store_and_forward(worker, net, block, media, &rest, data)?))
        }
        WorkerRequest::ReadBlock(media, block) => {
            let _io = (worker.connect_net(), worker.media_io(media)?);
            let mut read_span = trace::child("worker.read");
            // Payload and recorded CRC, no pass over the bytes here: the
            // receiver's verify is the end-to-end check (at-rest rot is
            // the scrubber's job, and a mismatch fails over, §4.1).
            let (data, sum) = worker.read_block_unverified(media, block)?;
            if let Some(d) = worker.transfer_pacing(media, data.len(), false) {
                std::thread::sleep(d);
            }
            if let Some(s) = read_span.as_mut() {
                s.annotate("block", block);
                s.annotate("bytes", data.len());
                s.annotate("tier", worker.tier_of(media)?);
            }
            Ok(WorkerResponse::Data(data, sum))
        }
        WorkerRequest::DeleteBlock(media, block) => {
            worker.delete_block(media, block)?;
            Ok(WorkerResponse::Unit)
        }
        WorkerRequest::Replicate(block, sources, media) => {
            let _io = (worker.connect_net(), worker.media_io(media)?);
            // The client's walk: a replica damaged at rest or in flight is
            // never propagated. The monitor that sent the copy settles it.
            let data = read_replica(net, block, &sources, None)?
                .expect("a walk with no slice receives the block whole");
            store(worker, block, media, &data)?;
            Ok(WorkerResponse::Unit)
        }
        WorkerRequest::Scrub => {
            let corrupt = worker.scrub();
            Ok(WorkerResponse::Scrubbed(scrub_and_report(worker, net, corrupt)))
        }
        WorkerRequest::Metrics => {
            // Stamp the drop counter at scrape time: spans are dropped
            // inside their ring without a metrics hook of their own.
            worker
                .metrics()
                .counter("trace_spans_dropped_total", Labels::worker(worker.id()))
                .set_max(worker.trace().dropped());
            Ok(WorkerResponse::Metrics(worker.metrics().snapshot()))
        }
        WorkerRequest::Trace => Ok(WorkerResponse::Trace(worker.trace().snapshot())),
    }
}

/// The one pipeline step, of `WriteBlock` and `Forward` alike: stores
/// `data` as `block` on `media`, then forwards it down `rest`, and returns
/// the locations that stored it, in pipeline order. A failed forward ends
/// the list where it failed; settling the block is the head's business.
/// The NIC connection and the medium's I/O-connection span are held
/// across store and forward, so the heartbeat `NrConn` the placement
/// policy consumes reflects transfer-duration contention (§3.2).
fn store_and_forward(
    worker: &Worker,
    net: &dyn Transport,
    block: Block,
    media: MediaId,
    rest: &[Location],
    data: BlockData,
) -> Result<Vec<Location>> {
    let _io = (worker.connect_net(), worker.media_io(media)?);
    let mut stored = vec![store(worker, block, media, &data)?];
    let Some((next, remainder)) = rest.split_first() else {
        return Ok(stored);
    };
    let fwd_start = std::time::Instant::now();
    let forwarded = net.call_worker(
        next.worker,
        WorkerRequest::Forward(block, next.media, remainder.to_vec(), data),
    );
    let labels = Labels::worker(worker.id());
    worker.metrics().observe_since("worker_pipeline_forward_us", labels, fwd_start);
    match forwarded {
        Ok(WorkerResponse::Stored(locs)) => stored.extend(locs),
        Ok(_) => return Err(FsError::Internal("unexpected forward response".into())),
        Err(e) => {
            log_warn!(
                target: "net::worker_server",
                "msg=\"pipeline forward failed\" block={} next={} err=\"{e}\"",
                block.id,
                next.worker
            );
            worker.metrics().inc("worker_pipeline_forward_failures_total", labels);
        }
    }
    Ok(stored)
}

/// The one store step, of a pipeline stage and a §5 copy alike: stores
/// `data` as `block` on `media`, paces the store to the medium's write
/// rate under device emulation, and returns the replica's location.
///
/// Both can arrive twice for bytes that already landed: §3.1 recovery
/// re-sends a `WriteBlock` whose response was lost (a severed connection
/// fails every call in flight on it), and the RPC layer resends a
/// `Replicate` blindly. Re-storing identical bytes is a no-op; any other
/// collision is a real error.
fn store(worker: &Worker, block: Block, media: MediaId, data: &BlockData) -> Result<Location> {
    let loc = Location { worker: worker.id(), media, tier: worker.tier_of(media)? };
    let mut store_span = trace::child("worker.store");
    if let Some(s) = store_span.as_mut() {
        s.annotate("block", block.id);
        s.annotate("bytes", block.len);
        s.annotate("tier", loc.tier);
    }
    if let Err(e) = worker.write_block(media, block, data) {
        let resent = matches!(&e, FsError::AlreadyExists(_))
            && worker.stored_checksum(media, block.id).is_ok_and(|c| c == data.checksum());
        if !resent {
            return Err(e);
        }
    }
    if let Some(d) = worker.transfer_pacing(media, block.len, true) {
        std::thread::sleep(d);
    }
    Ok(loc)
}
