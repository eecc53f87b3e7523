//! [`ServerCore`]: the shared multiplexed RPC server engine behind the
//! master and worker servers. No part of it runs on a timer:
//!
//! - **A blocking accept thread**, bounded at `MAX_CONNECTIONS`; surplus
//!   connects are refused (closed) instead of spawning unbounded threads.
//!   Shutdown wakes it with a throwaway connection to itself.
//! - **A demux reader per connection** feeding a **shared dispatch pool**
//!   of `DISPATCH_THREADS` threads, so many requests from one connection
//!   execute concurrently and a slow request does not head-of-line-block
//!   the rest of its connection. A reader stops pulling frames once
//!   `MAX_INFLIGHT_PER_CONN` of its requests are outstanding, pushing
//!   backpressure into the client's TCP window instead of the queue.
//! - **The idle horizon, enforced by that same reader**: the socket read
//!   timeout is [`ServerConfig::idle_conn_ms`], and a frame must complete
//!   within one horizon of its first byte, so a silent *or* trickling
//!   client is cut — but only once a whole horizon has passed with nothing
//!   in flight and no response written.
//! - **Admission by pipeline depth** (`admit_limit`) to keep nested RPCs
//!   deadlock-free: a job's depth is the number of further worker-to-worker
//!   RPC levels serving it can require, and a job of depth `d` starts only
//!   while, at every level `1 ≤ j ≤ d`, jobs of depth `≥ j` hold fewer than
//!   `T − j` of the `T` threads. At least `j` threads therefore always
//!   belong to work shallower than `j`, every wait points strictly down in
//!   depth, and blocked forwards complete bottom-up (DESIGN.md §9).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use octopus_common::{log_warn, FsError, Result, ServerConfig};

use super::faults;
use super::frame::read_mux_frame;
use super::proto::FramePayload;

/// Threads in the dispatch pool (`T` in the admission rule). One more than
/// the deepest legal pipeline head (`max_replication` 16 → depth 15).
const DISPATCH_THREADS: usize = 16;

/// Concurrently open connections before the accept thread refuses more.
const MAX_CONNECTIONS: usize = 1024;

/// Requests one connection may have queued or executing before its reader
/// stalls (TCP backpressure).
const MAX_INFLIGHT_PER_CONN: u32 = 32;

/// Maps one received request payload (possibly trace-enveloped) to its
/// response payload. Runs on a dispatch-pool thread.
pub type Handler = Arc<dyn Fn(bytes::Bytes) -> FramePayload + Send + Sync>;

/// Returns the pipeline depth of an encoded request body (the bytes after
/// any trace envelope): the number of further nested worker RPC levels
/// serving it can require.
pub type Classifier = Arc<dyn Fn(&[u8]) -> usize + Send + Sync>;

/// A connection's request window, under one lock.
#[derive(Default)]
struct Window {
    /// Requests read off this connection and not yet responded to.
    inflight: u32,
    /// A response was written since the reader last checked for idleness.
    served: bool,
}

/// One tracked connection.
struct Conn {
    /// Spare handle for severing without waiting on the writer lock.
    stream: TcpStream,
    /// Serializes response frames from concurrent pool threads.
    writer: Mutex<TcpStream>,
    window: Mutex<Window>,
    window_cv: Condvar,
}

impl Conn {
    fn sever(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Whether a whole horizon just passed with nothing in flight and no
    /// response written (asked when a read timed out or a frame overran
    /// its budget; asking clears the response mark for the next horizon).
    fn idle(&self) -> bool {
        let mut w = self.window.lock().unwrap();
        w.inflight == 0 && !std::mem::take(&mut w.served)
    }
}

/// One dispatched request.
struct Job {
    conn_id: u64,
    conn: Arc<Conn>,
    request_id: u64,
    frame: bytes::Bytes,
    depth: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// `running[d]`: jobs of depth `d` currently on a pool thread.
    running: [usize; DISPATCH_THREADS],
    stopped: bool,
}

/// The deepest job the running mix admits: the largest `d` such that, at
/// every level `1 ≤ j ≤ d`, jobs of depth `≥ j` hold fewer than `T − j`
/// threads. Leaves (depth 0) are always admitted; every admission leaves
/// at least `j` threads to work shallower than `j`.
fn admit_limit(running: &[usize; DISPATCH_THREADS]) -> usize {
    const T: usize = DISPATCH_THREADS;
    let (mut at_least, mut limit) = (0, T - 1);
    // Deepest level first, so the last full level seen is the shallowest.
    for j in (1..T).rev() {
        at_least += running[j];
        if at_least >= T - j {
            limit = j - 1;
        }
    }
    limit
}

struct Shared {
    idle: Duration,
    server_addr: SocketAddr,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    pool: Mutex<PoolState>,
    pool_cv: Condvar,
    shutdown: AtomicBool,
    handler: Handler,
    classify: Classifier,
}

impl Shared {
    fn untrack(&self, conn_id: u64) {
        self.conns.lock().unwrap().remove(&conn_id);
    }

    /// Severs every connection and wakes readers stalled on a full window.
    fn sever_all(&self) {
        for conn in self.conns.lock().unwrap().values() {
            conn.sever();
            // Through the lock, so a reader between its shutdown check and
            // its wait cannot miss the wake-up.
            drop(conn.window.lock().unwrap());
            conn.window_cv.notify_all();
        }
    }
}

/// A running multiplexed RPC server engine.
pub struct ServerCore {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerCore {
    /// Binds, then starts the accept thread and the dispatch pool. `name`
    /// prefixes thread names.
    pub fn spawn(
        bind: impl ToSocketAddrs,
        name: &str,
        cfg: ServerConfig,
        classify: Classifier,
        handler: Handler,
    ) -> Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            idle: Duration::from_millis(cfg.idle_conn_ms.max(1)),
            server_addr: addr,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            pool: Mutex::new(PoolState {
                queue: VecDeque::new(),
                running: [0; DISPATCH_THREADS],
                stopped: false,
            }),
            pool_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            handler,
            classify,
        });
        for i in 0..DISPATCH_THREADS {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-pool-{i}"))
                .spawn(move || pool_loop(s))
                .map_err(|e| FsError::Io(e.to_string()))?;
        }
        let accept = {
            let s = Arc::clone(&shared);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, s, name))
                .map_err(|e| FsError::Io(e.to_string()))?
        };
        Ok(Self { addr, shared, accept: Some(accept) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: the accept thread exits, every tracked connection
    /// is severed (in-flight callers fail fast instead of hanging), and
    /// the dispatch pool drains out.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // `accept()` has no timeout: a throwaway connection makes it
            // return and see the flag. If even that cannot connect, the
            // thread is left to exit with the process.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }
        self.shared.sever_all();
        let mut pool = self.shared.pool.lock().unwrap();
        pool.stopped = true;
        pool.queue.clear();
        drop(pool);
        self.shared.pool_cv.notify_all();
        // Pool threads are not joined: one may be blocked inside a nested
        // RPC bounded by its own deadlines; it observes `stopped` and
        // exits on its own.
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, name: String) {
    while let Ok((stream, _)) = listener.accept() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Bounded accept: refuse (close) connections over the cap instead
        // of growing without bound.
        if shared.conns.lock().unwrap().len() >= MAX_CONNECTIONS {
            log_warn!(
                target: "net::server",
                "msg=\"connection limit reached, refusing\" limit={MAX_CONNECTIONS}"
            );
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let _ = stream.set_nodelay(true);
        // The idle horizon: a read that waits this long returns to
        // `IdleRead`, which decides between severing and waiting on.
        let _ = stream.set_read_timeout(Some(shared.idle));
        let (Ok(writer), Ok(spare)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let conn = Arc::new(Conn {
            stream: spare,
            writer: Mutex::new(writer),
            window: Mutex::new(Window::default()),
            window_cv: Condvar::new(),
        });
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.conns.lock().unwrap().insert(conn_id, Arc::clone(&conn));
        let s = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || conn_reader(stream, conn_id, conn, s));
        if spawned.is_err() {
            shared.untrack(conn_id);
        }
    }
}

/// A connection's read half with the idle horizon applied. The socket's
/// read timeout is one horizon; a frame additionally gets one horizon from
/// its first byte to its last, so bytes trickling in under the socket
/// timeout cannot hold the connection open. Either limit ends the
/// connection only when [`Conn::idle`]; a busy connection earns another
/// horizon.
struct IdleRead<'a> {
    stream: &'a TcpStream,
    conn: &'a Conn,
    idle: Duration,
    /// When the frame being read must be complete; `None` between frames.
    frame_due: Option<Instant>,
}

impl Read for IdleRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    // Trickled bytes never time the socket out, so the
                    // frame's own budget is checked as they arrive.
                    let now = Instant::now();
                    match self.frame_due {
                        Some(due) if now <= due => {}
                        Some(_) if self.conn.idle() => return Err(ErrorKind::TimedOut.into()),
                        _ => self.frame_due = Some(now + self.idle),
                    }
                    return Ok(n);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.conn.idle() {
                        return Err(e);
                    }
                    if self.frame_due.is_some() {
                        self.frame_due = Some(Instant::now() + self.idle);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads frames off one connection and enqueues them for dispatch,
/// honoring the per-connection in-flight cap and the idle horizon.
fn conn_reader(stream: TcpStream, conn_id: u64, conn: Arc<Conn>, shared: Arc<Shared>) {
    let mut input = IdleRead { stream: &stream, conn: &conn, idle: shared.idle, frame_due: None };
    while let Ok(Some((request_id, payload))) = read_mux_frame(&mut input) {
        input.frame_due = None;
        // Backpressure: stop pulling frames while this connection has a
        // full window in flight. The client's sends then queue in TCP.
        {
            let mut w = conn.window.lock().unwrap();
            while w.inflight >= MAX_INFLIGHT_PER_CONN && !shared.shutdown.load(Ordering::Acquire) {
                w = conn.window_cv.wait(w).unwrap();
            }
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            w.inflight += 1;
        }
        let frame = bytes::Bytes::from(payload);
        // The trace envelope (if any) is 19 bytes; classification looks at
        // the request body behind it.
        let body_at = if frame.first() == Some(&octopus_common::trace::ENVELOPE_MAGIC) {
            19.min(frame.len())
        } else {
            0
        };
        let depth = (shared.classify)(&frame[body_at..]);
        if depth >= DISPATCH_THREADS {
            // Deeper than any pipeline the master places: no thread count
            // could ever admit it, so the frame is hostile or corrupt.
            break;
        }
        let job = Job { conn_id, conn: Arc::clone(&conn), request_id, frame, depth };
        let mut pool = shared.pool.lock().unwrap();
        if pool.stopped {
            break;
        }
        pool.queue.push_back(job);
        drop(pool);
        shared.pool_cv.notify_all();
    }
    shared.untrack(conn_id);
    conn.sever();
}

/// One dispatch-pool thread: admit the first eligible job, run the
/// handler, write the response, release the connection window.
fn pool_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut pool = shared.pool.lock().unwrap();
            loop {
                if pool.stopped {
                    return;
                }
                let limit = admit_limit(&pool.running);
                if let Some(i) = pool.queue.iter().position(|j| j.depth <= limit) {
                    let job = pool.queue.remove(i).expect("job index valid under lock");
                    pool.running[job.depth] += 1;
                    break job;
                }
                pool = shared.pool_cv.wait(pool).unwrap();
            }
        };

        let response = (shared.handler)(job.frame);
        let alive = {
            let mut w = job.conn.writer.lock().unwrap();
            faults::write_response(shared.server_addr, &mut w, job.request_id, &response)
        };
        if !matches!(alive, Ok(true)) {
            // The connection was consumed (fault) or the peer is gone;
            // sever so the reader stops feeding it.
            job.conn.sever();
            shared.untrack(job.conn_id);
        }
        {
            let mut w = job.conn.window.lock().unwrap();
            w.inflight = w.inflight.saturating_sub(1);
            w.served = true;
            job.conn.window_cv.notify_one();
        }
        let mut pool = shared.pool.lock().unwrap();
        pool.running[job.depth] -= 1;
        drop(pool);
        shared.pool_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = DISPATCH_THREADS;

    fn running(jobs: &[(usize, usize)]) -> [usize; T] {
        let mut r = [0; T];
        for &(depth, n) in jobs {
            r[depth] = n;
        }
        r
    }

    /// The rule as the pool applies it to one queued job.
    fn admits(depth: usize, mix: &[usize; T]) -> bool {
        depth <= admit_limit(mix)
    }

    #[test]
    fn a_leaf_is_admitted_by_every_mix() {
        // Depth 0 raises no level, so nothing running can refuse it: a
        // leaf starts as soon as a thread is free.
        for mix in [running(&[]), running(&[(1, T - 1)]), running(&[(T - 1, 1), (3, 5)])] {
            assert!(admits(0, &mix));
        }
    }

    #[test]
    fn every_level_a_job_raises_must_have_room() {
        // Level 1 binds deeper jobs too: with depth-1 jobs on T − 1 threads
        // only leaves start, so one thread is always theirs.
        let mix = running(&[(1, T - 1)]);
        assert!(!admits(1, &mix) && !admits(2, &mix));
        // One fewer and either still fits (T − 1 non-leaves at most).
        let mix = running(&[(1, T - 2)]);
        assert!(admits(1, &mix) && admits(2, &mix));
        // Jobs of depth ≥ 2 on T − 2 threads: depth 2 is refused, depth 1
        // is not.
        for mix in [running(&[(2, T - 2)]), running(&[(2, 4), (5, T - 6)])] {
            assert!(admits(1, &mix) && !admits(2, &mix));
        }
    }

    #[test]
    fn the_deepest_legal_head_admits_exactly_one() {
        assert!(admits(T - 1, &running(&[])), "an idle pool admits any legal depth");
        assert!(!admits(T - 1, &running(&[(T - 1, 1)])));
        assert!(admits(T - 2, &running(&[(T - 1, 1)])));
    }

    #[test]
    fn shallow_and_deep_jobs_together_never_take_the_last_thread() {
        // The three-class rule checked its top class against itself alone,
        // so 12 one-level jobs plus 4 two-level jobs held all 16 threads.
        // Here the fourth two-level job waits: T − 1 non-leaves at most.
        let mut mix = running(&[(1, 12)]);
        while admits(2, &mix) {
            mix[2] += 1;
        }
        assert_eq!(mix[2], T - 1 - 12);
        assert!(!admits(1, &mix) && admits(0, &mix), "only leaves from here");
    }
}
