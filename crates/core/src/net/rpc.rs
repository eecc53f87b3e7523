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
//! A block travels as its frame's body: written from the caller's shared
//! [`bytes::Bytes`], received into a buffer of its own and decoded as a
//! view of it (see [`FramePayload`]); the client never copies a block
//! between the caller and the socket.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread::sleep;
use std::time::{Duration, Instant};

use octopus_common::metrics::{Gauge, Labels, MetricsRegistry};
use octopus_common::trace::{self, TraceCollector};
use octopus_common::wire::encode;
use octopus_common::{FsError, Result, RpcConfig};

use super::frame::{read_mux_frame, write_mux_frame, Frame};
use super::proto::{
    decode_result, encode_worker_frame, FramePayload, MasterRequest, MasterResponse, WorkerRequest,
    WorkerResponse,
};
use super::retry::{self, Failed};

/// Where a waiting call stands.
enum SlotState {
    Waiting,
    Done(Frame),
    Failed(FsError),
}

/// One in-flight call: the caller parks on `cv` until the demux reader
/// (or connection teardown) resolves `state`.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl CallSlot {
    fn new() -> Self {
        Self { state: Mutex::new(SlotState::Waiting), cv: Condvar::new() }
    }

    fn resolve(&self, to: SlotState) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, SlotState::Waiting) {
            *st = to;
            self.cv.notify_all();
        }
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
        let payload = FramePayload::small(encode(req));
        let frame = self.call_labeled(addr, payload, req.is_idempotent(), req.name())?;
        decode_result::<MasterResponse>(&frame)
    }

    /// One typed round trip to a worker data server. A `WriteBlock`'s
    /// block travels as the frame's body (never copied into the frame).
    pub fn call_worker(&self, addr: SocketAddr, req: &WorkerRequest) -> Result<WorkerResponse> {
        self.call_worker_owned(addr, req.clone())
    }

    /// [`RpcClient::call_worker`], handed the request rather than lent it:
    /// once a request that is never sent twice has left, nothing here
    /// holds its block any more.
    pub(crate) fn call_worker_owned(
        &self,
        addr: SocketAddr,
        req: WorkerRequest,
    ) -> Result<WorkerResponse> {
        let (idempotent, name) = (req.is_idempotent(), req.name());
        let payload = encode_worker_frame(&req);
        drop(req);
        let frame = self.call_labeled(addr, payload, idempotent, name)?;
        decode_result::<WorkerResponse>(&frame)
    }

    /// Sends one request payload and returns the raw response payload,
    /// applying multiplexing, deadlines, and the retry policy.
    pub fn call_raw(&self, addr: SocketAddr, payload: &[u8], idempotent: bool) -> Result<Vec<u8>> {
        let payload = FramePayload::small(payload.to_vec());
        let frame = self.call_labeled(addr, payload, idempotent, "raw")?;
        Ok([&frame.head[..], frame.body.as_deref().unwrap_or_default()].concat())
    }

    /// The retry loop over attempts that each hold an in-flight slot.
    fn call_labeled(
        &self,
        addr: SocketAddr,
        mut payload: FramePayload,
        idempotent: bool,
        request_type: &'static str,
    ) -> Result<Frame> {
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
                    match self.round_trip(&conn, &mut payload, envelope.as_deref(), idempotent) {
                        Ok(frame) => return Ok(Ok(frame)),
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
    /// the envelope (if any) and the payload under the writer lock, then
    /// wait on the call slot for the absolute deadline. A request that is
    /// not `idempotent` is never sent again once it has left, so its body
    /// is let go then, not when the response comes.
    fn round_trip(
        &self,
        conn: &MuxConn,
        payload: &mut FramePayload,
        envelope: Option<&[u8]>,
        idempotent: bool,
    ) -> std::result::Result<Frame, Failed> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(CallSlot::new());
        conn.slots.lock().unwrap().insert(id, Arc::clone(&slot));

        let sent = {
            let mut w = conn.writer.lock().unwrap();
            let head = [envelope.unwrap_or_default(), &payload.head[..]];
            write_mux_frame(&mut *w, id, &head, payload.body.as_deref())
        };
        if let Err(e) = sent {
            conn.slots.lock().unwrap().remove(&id);
            return Err(Failed::Unsent(e));
        }
        if !idempotent {
            payload.body = None;
        }

        // Absolute deadline: the full wall-clock budget for the response,
        // regardless of how many socket reads (or wake-ups) deliver it.
        let budget = Duration::from_millis(self.cfg.read_timeout_ms.max(1));
        let waiting = |st: &mut SlotState| matches!(st, SlotState::Waiting);
        let st = slot.cv.wait_timeout_while(slot.state.lock().unwrap(), budget, waiting).unwrap().0;
        match &*st {
            SlotState::Done(frame) => {
                conn.seasoned.store(true, Ordering::Release);
                Ok(frame.clone())
            }
            SlotState::Failed(e) => Err(Failed::Unanswered(e.clone())),
            SlotState::Waiting => {
                drop(st);
                conn.slots.lock().unwrap().remove(&id);
                let ms = self.cfg.read_timeout_ms;
                Err(Failed::Unanswered(FsError::Timeout(format!("no response within {ms}ms"))))
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
                while let Ok(Some((id, frame))) = read_mux_frame(&mut stream) {
                    let slot = demux.slots.lock().unwrap().remove(&id);
                    if let Some(slot) = slot {
                        slot.resolve(SlotState::Done(frame));
                    }
                    // A response with no waiter timed out; drop it.
                }
                demux.kill(&gauge, &FsError::Unreachable("server closed the connection".into()));
            })
            .map_err(|e| FsError::Io(e.to_string()))?;
        Ok(conn)
    }
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
    use super::*;
    use std::io::{Read, Write};
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
