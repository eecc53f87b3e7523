//! [`RpcClient`]: multiplexed, deadline-bounded TCP RPC.
//!
//! Calls to one peer share a small set of connections (at most
//! [`RpcConfig::conns_per_peer`]) instead of checking dedicated sockets in
//! and out of a pool. Every request frame carries a unique id; a demux
//! reader thread per connection routes each response frame to the waiting
//! caller through an in-flight map, so any number of calls overlap on one
//! socket and responses may return in any order.
//!
//! Every call observes an *absolute* deadline: `read_timeout_ms` of
//! wall-clock measured from the moment the request is fully written,
//! covering however many socket reads the response takes. A server that
//! trickles one byte per syscall (slow-loris) fails the call at the same
//! deadline a silent server does — per-syscall read timeouts, which such a
//! server can reset indefinitely, are not used on the receive path.
//!
//! Backpressure: at most [`RpcConfig::max_inflight_per_peer`] attempts may
//! be outstanding to one peer; the next caller *blocks* (bounded by the
//! call's own deadline budget) until a slot frees, so a storm of callers
//! degrades to queueing instead of unbounded socket/memory growth. A slot
//! is held for one attempt, never through a backoff.
//!
//! Retries: a call is `net::retry`'s loop, the one both transports
//! run, sleeping through each backoff. Inside one attempt a send failure
//! on a *reused* connection is the stale keep-alive race (the server
//! closed it while idle): the request cannot have executed, so another
//! connection is tried without consuming the retry budget.
//!
//! A block travels as its frame's body, and the client holds no buffer of
//! it in either direction: a write's body is gathered straight from the
//! caller's slice ([`RpcClient::write_block`]), on every attempt, and a
//! read's *lands* — the demux reader reads the response's header and head,
//! then lends the connection's read side to the caller, which reads the
//! body from the socket straight into its slice and hands the stream back
//! ([`RpcClient::read_block`]). The call's absolute deadline covers the
//! landing; a body that is cut, stalls past it or does not fit the slice
//! kills the connection, so the stream never resumes mid-body; and a body
//! whose caller has given up is read past. Any other body is received
//! into a buffer of its own and decoded as a view of it.

use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread::sleep;
use std::time::{Duration, Instant};

use bytes::Bytes;

use octopus_common::metrics::{Gauge, Labels, MetricsRegistry};
use octopus_common::trace::{self, TraceCollector};
use octopus_common::wire::encode;
use octopus_common::{Block, BlockData, BlockId, FsError, Location, MediaId, Result, RpcConfig};

use super::frame::{read_body, read_frame_head, skip_body, write_mux_frame, Frame, FrameHead};
use super::proto::{
    decode_landed_data, decode_result, encode_worker_frame, encode_write_block, BlockRef,
    MasterRequest, MasterResponse, WorkerRequest, WorkerResponse,
};
use super::retry::{self, Failed};
use super::transport::wrong_length;

/// Where a waiting call stands.
enum SlotState {
    Waiting,
    Done(Frame),
    /// The response's head has arrived and its body of the given length
    /// waits on the socket, whose read side is lent to the caller.
    Landing(Bytes, usize, Lease),
    Failed(FsError),
}

/// A connection's read side, lent by its demux reader to the one caller
/// whose response body comes next on it. The caller lands the body and
/// sends the stream `back`; a lease dropped instead ends the reader, so
/// the byte stream never resumes from the middle of a body.
struct Lease {
    stream: TcpStream,
    back: SyncSender<TcpStream>,
}

/// One in-flight call: the caller parks on `cv` until the demux reader
/// (or connection teardown) resolves `state`.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Whether the caller registered a slice for the response body to land
    /// in.
    lands: bool,
}

impl CallSlot {
    fn new(lands: bool) -> Self {
        Self { state: Mutex::new(SlotState::Waiting), cv: Condvar::new(), lands }
    }

    fn resolve(&self, to: SlotState) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, SlotState::Waiting) {
            *st = to;
            self.cv.notify_all();
        }
    }

    /// Lends the connection's read side to the waiting call to land the
    /// `len`-byte body that follows `head`, or gives the lease back if the
    /// call has already ended (it timed out, or its connection died).
    fn lend(&self, head: Bytes, len: usize, lease: Lease) -> std::result::Result<(), Lease> {
        let mut st = self.state.lock().unwrap();
        if !matches!(*st, SlotState::Waiting) {
            return Err(lease);
        }
        *st = SlotState::Landing(head, len, lease);
        self.cv.notify_all();
        Ok(())
    }
}

/// One multiplexed connection: a writer half serialized by a mutex, an
/// in-flight map the demux reader resolves slots through, and a spare
/// stream handle for severing the socket without waiting on the writer.
struct MuxConn {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    slots: Mutex<HashMap<u64, Arc<CallSlot>>>,
    dead: AtomicBool,
    /// Whether any call has completed on this connection; send failures on
    /// a seasoned connection are the stale keep-alive race (free retry).
    seasoned: AtomicBool,
}

impl MuxConn {
    /// Tears the connection down exactly once: marks it dead (the owner of
    /// the false→true transition also releases the gauge count), severs
    /// the socket (unblocking the reader), and fails every waiting call.
    fn kill(&self, gauge: &Gauge, err: &FsError) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            gauge.add(-1);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        let drained: Vec<_> = {
            let mut slots = self.slots.lock().unwrap();
            slots.drain().map(|(_, s)| s).collect()
        };
        for slot in drained {
            slot.resolve(SlotState::Failed(err.clone()));
        }
    }
}

/// The per-peer in-flight counting semaphore's state.
#[derive(Default)]
struct Inflight {
    /// Calls holding a slot.
    calls: u32,
    /// Callers parked in [`RpcClient::acquire`] at the cap. A release
    /// notifies only when one registered here, under this same lock:
    /// below the cap nobody waits, and the wake-up would be a syscall for
    /// no one on every call.
    waiters: u32,
}

/// Per-peer state: the connection set and the in-flight counting
/// semaphore.
struct Peer {
    conns: Mutex<Vec<Arc<MuxConn>>>,
    rr: AtomicU64,
    inflight: Mutex<Inflight>,
    inflight_cv: Condvar,
}

/// RAII release of one per-peer in-flight slot.
struct Permit {
    peer: Arc<Peer>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut slots = self.peer.inflight.lock().unwrap();
        slots.calls = slots.calls.saturating_sub(1);
        if slots.waiters > 0 {
            self.peer.inflight_cv.notify_one();
        }
    }
}

/// A multiplexing RPC client. Cheap to share (`Arc`); all state is
/// internal.
pub struct RpcClient {
    cfg: RpcConfig,
    peers: Mutex<HashMap<SocketAddr, Arc<Peer>>>,
    next_id: AtomicU64,
    metrics: MetricsRegistry,
    trace: TraceCollector,
}

impl RpcClient {
    /// A client with the given deadlines and retry budget.
    pub fn new(cfg: RpcConfig) -> Self {
        Self {
            cfg,
            peers: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: MetricsRegistry::new(),
            trace: TraceCollector::new("client"),
        }
    }

    /// The client's configuration.
    pub fn config(&self) -> &RpcConfig {
        &self.cfg
    }

    /// This client's metrics registry (`rpc_client_*` plus the `client_*`
    /// counters recorded by `RemoteFs` instances using this client).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// This client's trace collector. `RemoteFs` roots request spans
    /// here; per-attempt transport spans nest under whatever span is
    /// active on the calling thread.
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// One typed round trip to the master.
    pub fn call_master(&self, addr: SocketAddr, req: &MasterRequest) -> Result<MasterResponse> {
        let head = encode(req);
        let (frame, _) =
            self.call_labeled(addr, &head, None, None, req.is_idempotent(), req.name())?;
        decode_result::<MasterResponse>(&frame)
    }

    /// One typed round trip to a worker data server. A `WriteBlock`'s
    /// block travels as the frame's body (never copied into the frame).
    pub fn call_worker(&self, addr: SocketAddr, req: &WorkerRequest) -> Result<WorkerResponse> {
        let payload = encode_worker_frame(req);
        let body = payload.body.as_deref();
        let (frame, _) =
            self.call_labeled(addr, &payload.head, body, None, req.is_idempotent(), req.name())?;
        decode_result::<WorkerResponse>(&frame)
    }

    /// `WriteBlock(block, media, rest, data)` to a pipeline head, its block
    /// lent: the frame's body leaves from `data` itself.
    pub fn write_block(
        &self,
        addr: SocketAddr,
        block: Block,
        media: MediaId,
        rest: &[Location],
        data: BlockRef<'_>,
    ) -> Result<WorkerResponse> {
        let (head, body) = encode_write_block(&block, &media, rest, data);
        let (frame, _) = self.call_labeled(addr, &head, body, None, false, "WriteBlock")?;
        decode_result::<WorkerResponse>(&frame)
    }

    /// `ReadBlock(media, block)`, the block's bytes landing in `dest`,
    /// which must be exactly the block's length: returns the checksum the
    /// worker recorded at write time and, for a reply with no body to land
    /// (a synthetic block), the block itself. A body of another length
    /// than `dest` is refused as [`FsError::BlockUnavailable`].
    pub fn read_block(
        &self,
        addr: SocketAddr,
        media: MediaId,
        block: BlockId,
        dest: &mut [u8],
    ) -> Result<(Option<BlockData>, u32)> {
        let req = WorkerRequest::ReadBlock(media, block);
        let len = dest.len();
        match self.call_labeled(addr, &encode(&req), None, Some(dest), true, req.name())? {
            (frame, true) => Ok((None, decode_landed_data(&frame.head, len)?)),
            (frame, false) => match decode_result::<WorkerResponse>(&frame)? {
                WorkerResponse::Data(d, sum) => Ok((Some(d), sum)),
                r => Err(FsError::Io(format!("unexpected response {r:?}"))),
            },
        }
    }

    /// Sends one request payload and returns the raw response payload,
    /// applying multiplexing, deadlines, and the retry policy.
    pub fn call_raw(&self, addr: SocketAddr, payload: &[u8], idempotent: bool) -> Result<Vec<u8>> {
        let (frame, _) = self.call_labeled(addr, payload, None, None, idempotent, "raw")?;
        Ok([&frame.head[..], frame.body.as_deref().unwrap_or_default()].concat())
    }

    /// The retry loop over attempts that each hold an in-flight slot. Every
    /// attempt sends `head` and `body` from the caller's buffers and, given
    /// `dest`, lands a response body there. Returns the response frame and
    /// whether its body landed (the frame then holds the head alone).
    fn call_labeled(
        &self,
        addr: SocketAddr,
        head: &[u8],
        body: Option<&[u8]>,
        mut dest: Option<&mut [u8]>,
        idempotent: bool,
        request_type: &'static str,
    ) -> Result<(Frame, bool)> {
        let labels = Labels::req(request_type);
        self.metrics.inc("rpc_client_requests_total", labels);
        let start = Instant::now();
        let peer = self.peer(addr);
        let out =
            retry::run(&self.cfg, &self.metrics, request_type, idempotent, sleep, |attempt| {
                let _permit = match self.acquire(&peer) {
                    Ok(p) => p,
                    Err(e) => return Ok(Err(e)), // a saturated peer ends the call
                };
                // One transport span per attempt: retries become sibling spans
                // under the caller's span, and the backoff gap between them
                // shows up as the parent's self time in the critical path.
                // Untraced calls (no active span) skip both the span and the
                // envelope, so receivers keep decoding bare payloads.
                let mut span = trace::child(format!("rpc.{request_type}"));
                let envelope = span.as_mut().map(|s| {
                    s.annotate("peer", addr);
                    s.annotate("attempt", attempt);
                    trace::wrap_envelope(&s.context(), &[])
                });
                let head = [envelope.as_deref().unwrap_or_default(), head];

                // Existing connections first. A send failure on a seasoned
                // connection is the stale keep-alive race — the request never
                // left, so trying the next connection is free. Each failure
                // kills its connection, so this loop is bounded by the
                // connection cap.
                let failed = loop {
                    let (conn, fresh) = match self.conn_for(&peer, addr) {
                        Ok(c) => c,
                        Err(e) => break Failed::Unsent(e),
                    };
                    match self.round_trip(&conn, &head, body, dest.as_deref_mut()) {
                        Ok(answer) => return Ok(answer),
                        Err(Failed::Unsent(e)) => {
                            let free = !fresh && conn.seasoned.load(Ordering::Acquire);
                            conn.kill(&self.conn_gauge(), &e);
                            self.forget(&peer, &conn);
                            if !free {
                                break Failed::Unsent(e);
                            }
                        }
                        Err(lost) => break lost,
                    }
                };
                if let (Some(s), Failed::Unsent(e) | Failed::Unanswered(e)) =
                    (span.as_mut(), &failed)
                {
                    s.annotate("error", e);
                }
                Err(failed)
            });
        self.metrics.observe_since("rpc_client_request_us", labels, start);
        if matches!(out, Err(FsError::Timeout(_))) {
            self.metrics.inc("rpc_client_timeouts_total", labels);
        }
        if out.is_err() {
            self.metrics.inc("rpc_client_failures_total", labels);
        }
        out
    }

    /// One request/response exchange over an established connection: frame
    /// the `head` segments and the `body` under the writer lock, then wait
    /// on the call slot for the absolute deadline — which also bounds
    /// landing a response body in `dest`.
    fn round_trip(
        &self,
        conn: &MuxConn,
        head: &[&[u8]],
        body: Option<&[u8]>,
        dest: Option<&mut [u8]>,
    ) -> std::result::Result<Result<(Frame, bool)>, Failed> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(CallSlot::new(dest.is_some()));
        conn.slots.lock().unwrap().insert(id, Arc::clone(&slot));

        let sent = write_mux_frame(&mut *conn.writer.lock().unwrap(), id, head, body);
        if let Err(e) = sent {
            conn.slots.lock().unwrap().remove(&id);
            return Err(Failed::Unsent(e));
        }

        // Absolute deadline: the full wall-clock budget for the response,
        // regardless of how many socket reads (or wake-ups) deliver it.
        let budget = Duration::from_millis(self.cfg.read_timeout_ms.max(1));
        let deadline = Instant::now() + budget;
        let timeout = || {
            let ms = self.cfg.read_timeout_ms;
            FsError::Timeout(format!("no response within {ms}ms"))
        };
        let waiting = |st: &mut SlotState| matches!(st, SlotState::Waiting);
        let mut st =
            slot.cv.wait_timeout_while(slot.state.lock().unwrap(), budget, waiting).unwrap().0;
        // Whatever came is taken, and the slot is marked ended under its
        // lock: a call still waiting gives up here, so a response that
        // arrives from now on is read past. (The mark is read by nobody.)
        let state = std::mem::replace(&mut *st, SlotState::Failed(FsError::Timeout(String::new())));
        drop(st);
        match state {
            SlotState::Done(frame) => {
                conn.seasoned.store(true, Ordering::Release);
                Ok(Ok((frame, false)))
            }
            SlotState::Landing(head, len, mut lease) => {
                let dest = dest.expect("a body is lent only to a call that lands one");
                let landed = if len == dest.len() {
                    land(&mut lease.stream, dest, deadline, timeout)
                } else {
                    Err(wrong_length(len, dest.len()))
                };
                match landed {
                    Ok(()) => {
                        // The reader only ends by the lease being dropped,
                        // so it is there to take the stream back.
                        let _ = lease.back.send(lease.stream);
                        conn.seasoned.store(true, Ordering::Release);
                        Ok(Ok((Frame { head, body: None }, true)))
                    }
                    Err(e) => {
                        // The stream stands inside a body: nothing more is
                        // read from it, and the connection's other calls
                        // fail as on any dead connection.
                        let lost = FsError::Unreachable(format!("a response body was cut: {e}"));
                        conn.kill(&self.conn_gauge(), &lost);
                        drop(lease);
                        match e {
                            // The replica, not the connection, is at fault:
                            // an answer, not resent.
                            FsError::BlockUnavailable(_) => Ok(Err(e)),
                            e => Err(Failed::Unanswered(e)),
                        }
                    }
                }
            }
            SlotState::Failed(e) => Err(Failed::Unanswered(e)),
            SlotState::Waiting => {
                conn.slots.lock().unwrap().remove(&id);
                Err(Failed::Unanswered(timeout()))
            }
        }
    }

    /// Closes every connection to a peer (the peer restarted, tests).
    /// Synchronous: the connection gauge reflects the eviction on return.
    pub fn evict(&self, addr: SocketAddr) {
        let peer = self.peers.lock().unwrap().get(&addr).cloned();
        if let Some(peer) = peer {
            let conns: Vec<_> = peer.conns.lock().unwrap().drain(..).collect();
            let err = FsError::Unreachable("connection evicted".into());
            for conn in conns {
                conn.kill(&self.conn_gauge(), &err);
            }
        }
    }

    fn peer(&self, addr: SocketAddr) -> Arc<Peer> {
        Arc::clone(self.peers.lock().unwrap().entry(addr).or_insert_with(|| {
            Arc::new(Peer {
                conns: Mutex::new(Vec::new()),
                rr: AtomicU64::new(0),
                inflight: Mutex::default(),
                inflight_cv: Condvar::new(),
            })
        }))
    }

    /// Blocks until a per-peer in-flight slot frees, bounded by the call's
    /// own write+read budget so a wedged peer cannot park callers forever.
    fn acquire(&self, peer: &Arc<Peer>) -> Result<Permit> {
        let cap = self.cfg.max_inflight_per_peer.max(1);
        let budget = self.cfg.write_timeout_ms.saturating_add(self.cfg.read_timeout_ms).max(1);
        let deadline = Instant::now() + Duration::from_millis(budget);
        let mut slots = peer.inflight.lock().unwrap();
        while slots.calls >= cap {
            let now = Instant::now();
            if now >= deadline {
                return Err(FsError::Timeout(format!(
                    "peer in-flight cap ({cap}) saturated for {budget}ms"
                )));
            }
            slots.waiters += 1;
            let (guard, _) = peer.inflight_cv.wait_timeout(slots, deadline - now).unwrap();
            slots = guard;
            slots.waiters -= 1;
        }
        slots.calls += 1;
        drop(slots);
        Ok(Permit { peer: Arc::clone(peer) })
    }

    /// Picks a connection for one attempt: a live idle connection if any,
    /// else a new one while under the per-peer cap, else round-robin over
    /// the busy ones (they multiplex). Returns whether the connection was
    /// freshly opened (send failures on it then consume retry budget).
    fn conn_for(&self, peer: &Peer, addr: SocketAddr) -> Result<(Arc<MuxConn>, bool)> {
        {
            let mut conns = peer.conns.lock().unwrap();
            conns.retain(|c| !c.dead.load(Ordering::Acquire));
            if let Some(c) = conns.iter().find(|c| c.slots.lock().unwrap().is_empty()) {
                return Ok((Arc::clone(c), false));
            }
            if !conns.is_empty() && conns.len() >= self.cfg.conns_per_peer.max(1) as usize {
                let i = peer.rr.fetch_add(1, Ordering::Relaxed) as usize % conns.len();
                return Ok((Arc::clone(&conns[i]), false));
            }
        }
        // Connect outside the lock. Under a connect race several callers
        // may reach here at once; the losers fold back onto an existing
        // connection so the per-peer cap stays hard.
        let conn = self.connect(addr)?;
        let mut conns = peer.conns.lock().unwrap();
        conns.retain(|c| !c.dead.load(Ordering::Acquire));
        if conns.len() >= self.cfg.conns_per_peer.max(1) as usize {
            let i = peer.rr.fetch_add(1, Ordering::Relaxed) as usize % conns.len();
            let existing = Arc::clone(&conns[i]);
            drop(conns);
            conn.kill(&self.conn_gauge(), &FsError::Unreachable("surplus connection".into()));
            return Ok((existing, false));
        }
        conns.push(Arc::clone(&conn));
        Ok((conn, true))
    }

    fn forget(&self, peer: &Peer, conn: &Arc<MuxConn>) {
        peer.conns.lock().unwrap().retain(|c| !Arc::ptr_eq(c, conn));
    }

    fn conn_gauge(&self) -> Gauge {
        self.metrics.gauge("rpc_client_pooled_connections", Labels::NONE)
    }

    /// Opens a connection and starts its demux reader thread. The reader
    /// has *no* socket read timeout: it blocks until frames arrive or the
    /// socket dies; call deadlines are enforced by the waiting callers.
    fn connect(&self, addr: SocketAddr) -> Result<Arc<MuxConn>> {
        let stream = TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
        )?;
        stream.set_nodelay(true).ok();
        // Once per connection, not per request: the option lives on the
        // socket, which the writer and reader handles below share.
        stream.set_write_timeout(Some(Duration::from_millis(self.cfg.write_timeout_ms.max(1))))?;
        let writer = stream.try_clone()?;
        let reader = stream.try_clone()?;
        let conn = Arc::new(MuxConn {
            stream,
            writer: Mutex::new(writer),
            slots: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            seasoned: AtomicBool::new(false),
        });
        self.conn_gauge().add(1);
        let gauge = self.conn_gauge();
        let demux = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("octopus-rpc-demux".into())
            .spawn(move || {
                let mut stream = reader;
                while let Ok(Some(FrameHead { id, head, body_len })) = read_frame_head(&mut stream)
                {
                    let slot = demux.slots.lock().unwrap().remove(&id);
                    let Some(len) = body_len else {
                        if let Some(slot) = slot {
                            slot.resolve(SlotState::Done(Frame { head, body: None }));
                        }
                        continue;
                    };
                    match slot {
                        Some(slot) if slot.lands => {
                            // The caller lands the body itself and hands
                            // the stream back; one that already gave up
                            // gives the lease back here, and the body is
                            // read past.
                            let (back, returned) = mpsc::sync_channel(1);
                            match slot.lend(head, len, Lease { stream, back }) {
                                Ok(()) => match returned.recv() {
                                    Ok(s) => stream = s,
                                    Err(_) => break,
                                },
                                Err(lease) => {
                                    stream = lease.stream;
                                    if skip_body(&mut stream, len).is_err() {
                                        break;
                                    }
                                }
                            }
                        }
                        Some(slot) => match read_body(&mut stream, len) {
                            Ok(body) => {
                                slot.resolve(SlotState::Done(Frame { head, body: Some(body) }))
                            }
                            Err(_) => break,
                        },
                        // A response with no waiter timed out: read past it.
                        None => {
                            if skip_body(&mut stream, len).is_err() {
                                break;
                            }
                        }
                    }
                }
                demux.kill(&gauge, &FsError::Unreachable("server closed the connection".into()));
            })
            .map_err(|e| FsError::Io(e.to_string()))?;
        Ok(conn)
    }
}

/// Lands a response body from `stream` straight in `dest`, by the call's
/// absolute `deadline`: each read may wait only what is left of it, so a
/// server trickling the body cannot stretch the call. The stream leaves
/// with no read timeout, as the demux reader expects it.
fn land(
    stream: &mut TcpStream,
    dest: &mut [u8],
    deadline: Instant,
    timeout: impl Fn() -> FsError,
) -> Result<()> {
    let mut got = 0;
    while got < dest.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timeout());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut dest[got..]) {
            Ok(0) => return Err(FsError::Unreachable("EOF inside a response body".into())),
            Ok(n) => got += n,
            // A read that waited out `left`, or a signal: the deadline
            // check above decides.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    stream.set_read_timeout(None)?;
    Ok(())
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        // Sever every connection so demux reader threads exit instead of
        // blocking on sockets nobody will write to again.
        let addrs: Vec<_> = self.peers.lock().unwrap().keys().copied().collect();
        for addr in addrs {
            self.evict(addr);
        }
    }
}

/// The process-wide default client (default [`RpcConfig`]), shared by the
/// servers' internal calls (replica commits, pipeline forwarding) and by
/// clients that do not configure their own deadlines.
pub fn shared() -> &'static Arc<RpcClient> {
    static SHARED: LazyLock<Arc<RpcClient>> =
        LazyLock::new(|| Arc::new(RpcClient::new(RpcConfig::default())));
    &SHARED
}

#[cfg(test)]
mod tests {
    use super::super::frame::read_mux_frame;
    use super::super::proto::{encode_worker_result_frame, FramePayload};
    use super::*;
    use octopus_common::checksum::crc32;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    fn fast() -> RpcConfig {
        RpcConfig::fast_test()
    }

    /// Serves one connection in the mux format: echo every frame back
    /// under its own request id.
    fn mux_echo(mut s: TcpStream) {
        while let Ok(Some((id, frame))) = read_mux_frame(&mut s) {
            if write_mux_frame(&mut s, id, &[&frame.head[..]], frame.body.as_deref()).is_err() {
                break;
            }
        }
    }

    #[test]
    fn connect_refused_is_unreachable_and_bounded() {
        // Bind then drop: the port is closed, connects are refused fast.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = RpcClient::new(fast());
        let start = Instant::now();
        let err = client.call_raw(addr, b"x", true).unwrap_err();
        assert!(matches!(err, FsError::Unreachable(_)), "got {err:?}");
        // 3 attempts with ≤30ms backoff each must finish well under the
        // worst-case deadline budget.
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn read_deadline_fires_on_silent_server() {
        // A server that accepts one connection and stays silent past the
        // client's read deadline.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let conn = listener.accept().unwrap().0; // keep open, never reply
            std::thread::sleep(Duration::from_millis(900));
            drop(conn);
        });
        let cfg = RpcConfig { max_retries: 0, read_timeout_ms: 300, ..fast() };
        let deadline = Duration::from_millis(cfg.read_timeout_ms);
        let client = RpcClient::new(cfg);
        let start = Instant::now();
        let err = client.call_raw(addr, b"ping", true).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, FsError::Timeout(_)), "got {err:?}");
        assert!(elapsed >= deadline - Duration::from_millis(50));
        assert!(elapsed < deadline + Duration::from_millis(500), "hung for {elapsed:?}");
        handle.join().unwrap();
    }

    #[test]
    fn trickling_server_fails_at_the_absolute_deadline() {
        // Slow-loris: the server dribbles the response one byte at a time,
        // each byte well inside a per-syscall timeout. Only an absolute
        // per-call deadline catches it — with per-read timeouts the trickle
        // resets the clock forever and the call "succeeds" seconds late.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let Ok(Some((id, _))) = read_mux_frame(&mut s) else { return };
            // A valid 40-byte-payload response frame, trickled.
            let mut resp = Vec::new();
            resp.extend_from_slice(&(8u32 + 40).to_le_bytes());
            resp.extend_from_slice(&id.to_le_bytes());
            resp.extend_from_slice(&[0u8; 40]);
            for b in resp {
                if s.write_all(&[b]).is_err() || s.flush().is_err() {
                    return; // client gave up and severed the socket
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let cfg = RpcConfig { max_retries: 0, read_timeout_ms: 300, ..fast() };
        let budget = Duration::from_millis(cfg.read_timeout_ms);
        let client = RpcClient::new(cfg);
        let start = Instant::now();
        let err = client.call_raw(addr, b"ping", true).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, FsError::Timeout(_)), "got {err:?}");
        assert!(elapsed >= budget - Duration::from_millis(50));
        assert!(elapsed < budget + Duration::from_millis(500), "evaded deadline: {elapsed:?}");
        client.evict(addr); // sever so the trickling server exits promptly
        handle.join().unwrap();
    }

    #[test]
    fn sequential_calls_reuse_one_connection() {
        // An echo server that counts accepted connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&accepted);
        let handle = std::thread::spawn(move || {
            while let Ok((s, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                let done = std::thread::spawn(move || mux_echo(s));
                if counter.load(Ordering::SeqCst) >= 1 {
                    let _ = done.join();
                    break; // serve one connection to completion, then stop
                }
            }
        });
        let client = RpcClient::new(fast());
        for i in 0..5u8 {
            let resp = client.call_raw(addr, &[i], true).unwrap();
            assert_eq!(resp, vec![i]);
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "calls must reuse one connection");
        client.evict(addr);
        handle.join().unwrap();
    }

    #[test]
    fn stale_connection_recovers_for_idempotent() {
        // First connection serves one frame then closes (going stale under
        // the client); an idempotent call afterwards must still succeed.
        // Depending on timing the staleness surfaces at the send stage
        // (free retry) or the receive stage (one budgeted retry) — both
        // must end in success on the fresh connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Connection 1: one frame, then close.
            let (mut s, _) = listener.accept().unwrap();
            let (id, frame) = read_mux_frame(&mut s).unwrap().unwrap();
            write_mux_frame(&mut s, id, &[&frame.head[..]], None).unwrap();
            drop(s);
            // Connection 2: serve until the client is done.
            let (s, _) = listener.accept().unwrap();
            mux_echo(s);
        });
        let client = RpcClient::new(RpcConfig { max_retries: 1, ..fast() });
        assert_eq!(client.call_raw(addr, b"a", true).unwrap(), b"a");
        // Give the server time to close connection 1 under our feet.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(client.call_raw(addr, b"b", true).unwrap(), b"b");
        client.evict(addr);
        handle.join().unwrap();
    }

    #[test]
    fn half_written_response_is_unreachable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 64];
            let _ = s.read(&mut sink);
            // Claim 100 bytes, deliver 10, die.
            let _ = s.write_all(&100u32.to_le_bytes());
            let _ = s.write_all(&[7u8; 10]);
        });
        let client = RpcClient::new(RpcConfig { max_retries: 0, ..fast() });
        let err = client.call_raw(addr, b"req", true).unwrap_err();
        assert!(matches!(err, FsError::Unreachable(_) | FsError::Timeout(_)), "got {err:?}");
        handle.join().unwrap();
    }

    /// A `Data` response frame answering request `id` with `block` as its
    /// body: the body is the frame's last `block.len()` bytes.
    fn data_frame(id: u64, block: &[u8]) -> Vec<u8> {
        let data = BlockData::Real(Bytes::copy_from_slice(block));
        let payload = encode_worker_result_frame(&Ok(WorkerResponse::Data(data, crc32(block))));
        let mut wire = Vec::new();
        write_mux_frame(&mut wire, id, &[&payload.head[..]], payload.body.as_deref()).unwrap();
        wire
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    /// Lands `ReadBlock` at `addr` in a fresh `len`-byte slice.
    fn land_block(client: &RpcClient, addr: SocketAddr, len: usize) -> Result<Vec<u8>> {
        let mut dest = vec![0u8; len];
        let (whole, sum) = client.read_block(addr, MediaId(0), BlockId(1), &mut dest)?;
        assert_eq!((whole, sum), (None, crc32(&dest)), "the body landed, and its CRC came");
        Ok(dest)
    }

    #[test]
    fn a_body_cut_short_fails_unreachable_and_the_next_call_connects_afresh() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let block = pattern(64 * 1024, 1);
        let served = block.clone();
        let handle = std::thread::spawn(move || {
            // Connection 1: the head and half the body, then close.
            let (mut s, _) = listener.accept().unwrap();
            let (id, _) = read_mux_frame(&mut s).unwrap().unwrap();
            let wire = data_frame(id, &served);
            s.write_all(&wire[..wire.len() - served.len() / 2]).unwrap();
            drop(s);
            // Connection 2: the whole response.
            let (mut s, _) = listener.accept().unwrap();
            let (id, _) = read_mux_frame(&mut s).unwrap().unwrap();
            s.write_all(&data_frame(id, &served)).unwrap();
            let _ = read_mux_frame(&mut s); // until the client hangs up
        });
        let client = RpcClient::new(RpcConfig { max_retries: 0, ..fast() });
        let err = land_block(&client, addr, block.len()).unwrap_err();
        assert!(matches!(err, FsError::Unreachable(_)), "got {err:?}");
        assert!(land_block(&client, addr, block.len()).unwrap() == block, "the whole block");
        client.evict(addr);
        handle.join().unwrap();
    }

    #[test]
    fn a_body_stalled_past_the_deadline_times_out_and_is_never_resumed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The stalled body ends in a whole frame answering the next call
        // with bogus bytes: a client that read on from the middle of the
        // body would take that frame for its next answer.
        let good = pattern(16 * 1024, 2);
        let bogus: Vec<u8> = good.iter().map(|b| !b).collect();
        let trap_len = data_frame(0, &bogus).len();
        let stalled = [pattern(10_000, 3), vec![0; trap_len]].concat();
        let (body_len, served) = (stalled.len(), good.clone());
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (id, _) = read_mux_frame(&mut s).unwrap().unwrap();
            let wire = data_frame(id, &stalled);
            s.write_all(&wire[..wire.len() - trap_len]).unwrap();
            // Past the deadline, the client must have ended this
            // connection. Were it to send its next request here, that
            // request gets the trap, then its true answer.
            if let Ok(Some((id, _))) = read_mux_frame(&mut s) {
                let _ = s.write_all(&data_frame(id, &bogus));
                let _ = s.write_all(&data_frame(id, &served));
                let _ = read_mux_frame(&mut s);
                return;
            }
            let (mut s, _) = listener.accept().unwrap();
            let (id, _) = read_mux_frame(&mut s).unwrap().unwrap();
            s.write_all(&data_frame(id, &served)).unwrap();
            let _ = read_mux_frame(&mut s);
        });
        let cfg = RpcConfig { max_retries: 0, read_timeout_ms: 300, ..fast() };
        let budget = Duration::from_millis(cfg.read_timeout_ms);
        let client = RpcClient::new(cfg);
        let start = Instant::now();
        let err = land_block(&client, addr, body_len).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, FsError::Timeout(_)), "got {err:?}");
        assert!(elapsed >= budget - Duration::from_millis(50));
        assert!(elapsed < budget + Duration::from_millis(500), "evaded deadline: {elapsed:?}");
        let pooled = client.metrics().snapshot().gauge("rpc_client_pooled_connections");
        assert_eq!(pooled, 0, "the stalled connection is dead");
        let next = land_block(&client, addr, good.len()).unwrap();
        assert!(next == good, "the next call read the rest of the stalled body as its answer");
        client.evict(addr);
        handle.join().unwrap();
    }

    #[test]
    fn a_late_response_is_read_past_and_a_concurrent_call_gets_its_own_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (late, own) = (pattern(40 * 1024, 4), pattern(24 * 1024, 5));
        let (late_sent, own_sent) = (late.clone(), own.clone());
        let (timed_out, answer) = mpsc::channel::<()>();
        let (got_first, first_in) = mpsc::channel::<()>();
        let accepted = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&accepted);
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            counter.fetch_add(1, Ordering::SeqCst);
            let (first, _) = read_mux_frame(&mut s).unwrap().unwrap();
            got_first.send(()).unwrap();
            let (second, _) = read_mux_frame(&mut s).unwrap().unwrap();
            // The first call has given up; its answer comes anyway, ahead
            // of the second's.
            answer.recv().unwrap();
            s.write_all(&data_frame(first, &late_sent)).unwrap();
            s.write_all(&data_frame(second, &own_sent)).unwrap();
            let _ = read_mux_frame(&mut s);
        });
        // One connection, so both calls share it.
        let cfg = RpcConfig { max_retries: 0, read_timeout_ms: 600, conns_per_peer: 1, ..fast() };
        let client = RpcClient::new(cfg);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                let out = land_block(&client, addr, late.len());
                timed_out.send(()).unwrap();
                out
            });
            // The first request is in; the second follows it with its
            // deadline 200 ms later, room for the late answer to be read
            // past before the second's own lands.
            first_in.recv().unwrap();
            std::thread::sleep(Duration::from_millis(200));
            let got = land_block(&client, addr, own.len()).unwrap();
            assert!(got == own, "the second call landed another call's bytes");
            let err = first.join().unwrap().unwrap_err();
            assert!(matches!(err, FsError::Timeout(_)), "got {err:?}");
        });
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "both calls went over one connection");
        client.evict(addr);
        handle.join().unwrap();
    }

    #[test]
    fn connections_accounted_under_concurrency() {
        // An echo server accepting any number of connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            let mut conns = Vec::new();
            while !stop_accept.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).ok();
                        conns.push(std::thread::spawn(move || mux_echo(s)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            drop(conns);
        });

        // 8 threads hammer one peer: every call must round-trip its own
        // payload (no cross-caller response mixups through the demux), and
        // afterwards the connection gauge must equal the number of live
        // multiplexed connections (≤ the per-peer cap).
        let client = Arc::new(RpcClient::new(fast()));
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let client = Arc::clone(&client);
                scope.spawn(move || {
                    for i in 0..20u8 {
                        let payload = [t, i, t ^ i];
                        let resp = client.call_raw(addr, &payload, true).unwrap();
                        assert_eq!(resp, payload);
                    }
                });
            }
        });
        let cap = client.config().conns_per_peer as i64;
        let pooled = client.metrics().snapshot().gauge("rpc_client_pooled_connections");
        assert!(pooled >= 1, "at least one connection must be open, got {pooled}");
        assert!(pooled <= cap, "connection cap exceeded: {pooled} > {cap}");
        client.evict(addr);
        let after = client.metrics().snapshot().gauge("rpc_client_pooled_connections");
        assert_eq!(after, 0, "evict must release every accounted connection");
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn a_retrying_call_holds_no_in_flight_slot_through_its_backoff() {
        // A server answering through the fault harness: the first reply is
        // dropped with its connection, every later one echoes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let serve = move |mut s: TcpStream| {
                while let Ok(Some((id, frame))) = read_mux_frame(&mut s) {
                    let reply = FramePayload::small(frame.head.to_vec());
                    if !super::super::faults::write_response(addr, &mut s, id, &reply).unwrap() {
                        break;
                    }
                }
            };
            let conns: Vec<_> = listener
                .incoming()
                .take(2)
                .map(|s| {
                    let s = s.unwrap();
                    std::thread::spawn(move || serve(s))
                })
                .collect();
            for c in conns {
                c.join().unwrap();
            }
        });
        super::super::faults::inject(addr, super::super::FaultAction::DropConnection);

        // One slot for the peer, and a first caller that loses its reply
        // and backs off for 2–3 s before resending.
        let client = RpcClient::new(RpcConfig {
            max_inflight_per_peer: 1,
            max_retries: 1,
            backoff_base_ms: 2_000,
            backoff_max_ms: 2_000,
            read_timeout_ms: 5_000,
            ..fast()
        });
        std::thread::scope(|scope| {
            let first = scope.spawn(|| (client.call_raw(addr, b"first", true), Instant::now()));
            while super::super::faults::pending(addr) > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(50));
            // The second caller gets the slot while the first one waits.
            let second = client.call_raw(addr, b"second", true);
            let second_done = Instant::now();
            let (first, first_done) = first.join().unwrap();
            assert_eq!(second.unwrap(), b"second");
            assert_eq!(first.unwrap(), b"first");
            assert!(second_done < first_done, "the second caller waited out the first's backoff");
        });
        client.evict(addr);
        server.join().unwrap();
    }
}
