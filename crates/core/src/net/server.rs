//! [`ServerCore`]: the shared multiplexed RPC server engine behind the
//! master and worker servers. No part of it runs on a timer:
//!
//! - **A blocking accept thread**, bounded at `MAX_CONNECTIONS`; surplus
//!   connects are refused (closed) instead of spawning unbounded threads.
//!   Shutdown wakes it with a throwaway connection to itself.
//! - **A demux reader per connection** feeding a **shared dispatch pool**
//!   of up to `DISPATCH_THREADS` threads (started as jobs need them, never
//!   stopped), so many requests from one connection execute concurrently
//!   and a slow request does not head-of-line-block the rest of its
//!   connection. A reader stops pulling frames once
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
//! - **One wake-up per job, at most, and no thread before a job needs
//!   it.** A pool thread goes idle only when no queued job is admissible,
//!   and from then on every event that can make one admissible is answered
//!   by exactly one thread: an enqueue takes one thread off the idle list
//!   and unparks it — or, if none is idle and fewer than `T` exist, starts
//!   one; nothing if the job must wait for the running mix anyway — a
//!   completing thread re-scans the queue itself and wakes nobody, and a
//!   thread that takes a job passes the baton the same way iff another
//!   queued job is admissible under the mix it just changed. *No admissible
//!   job stays queued while a thread is idle (or yet to be started) and
//!   none is on its way to the queue* — the condition
//!   `PoolState::a_job_is_owed_a_thread` states, and the tests sample.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use octopus_common::{log_warn, FsError, Result, ServerConfig, MAX_REPLICATION};

use super::faults;
use super::frame::{read_mux_frame, Frame};
use super::proto::FramePayload;

/// Threads the dispatch pool grows to (`T` in the admission rule): one more
/// than the deepest legal pipeline head, whose depth is one less than its
/// replica count.
const DISPATCH_THREADS: usize = MAX_REPLICATION as usize;

/// Concurrently open connections before the accept thread refuses more.
const MAX_CONNECTIONS: usize = 1024;

/// Requests one connection may have queued or executing before its reader
/// stalls (TCP backpressure).
const MAX_INFLIGHT_PER_CONN: u32 = 32;

/// Maps one received request payload (its head possibly trace-enveloped)
/// to its response payload. Runs on a dispatch-pool thread.
pub type Handler = Arc<dyn Fn(Frame) -> FramePayload + Send + Sync>;

/// Returns the pipeline depth of an encoded request head (the bytes after
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
    /// The reader is parked on a full window. A response notifies only
    /// then: below the cap nobody waits on `window_cv`.
    reader_stalled: bool,
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
    frame: Frame,
    depth: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// `running[d]`: jobs of depth `d` currently on a pool thread (until
    /// that thread is back under the pool lock to look for its next one).
    running: [usize; DISPATCH_THREADS],
    /// Parked pool threads nobody has woken yet, most recently parked
    /// last. A waker pops its thread off under the pool lock and unparks
    /// it after: a listed thread is asleep with nothing on its way to it,
    /// an unlisted one is running or about to. (A condvar would not do:
    /// `notify_one` is a futex syscall whether or not anyone waits, says
    /// nothing of *whom* it woke, and may wake two.)
    idle: Vec<Thread>,
    /// Pool threads started so far (counted when one is decided on, under
    /// the lock, so no two deciders start the same one); at most `T`. The
    /// pool starts empty: a server nobody calls — a data server during a
    /// metadata-only set-up — costs no thread.
    threads: usize,
    /// The request handler, cloned by a pool thread for the duration of
    /// one job. `None` once [`ServerCore::shutdown`] has taken it: the
    /// pool is stopped.
    handler: Option<Handler>,
}

impl PoolState {
    /// Index of the first queued job the running mix admits.
    fn first_admissible(&self) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        let limit = admit_limit(&self.running);
        self.queue.iter().position(|j| j.depth <= limit)
    }

    /// Picks who runs an admissible queued job nobody is coming for: the
    /// most recently parked thread, else a new one while the pool is short
    /// of `T`, else nobody (every thread is busy and re-scans the queue when
    /// it is done). The caller acts on it — [`Shared::send`] — once it has
    /// released the pool lock.
    fn runner(&mut self) -> Option<Runner> {
        if let Some(thread) = self.idle.pop() {
            return Some(Runner::Wake(thread));
        }
        (self.threads < DISPATCH_THREADS).then(|| {
            self.threads += 1;
            Runner::Start(self.threads - 1)
        })
    }

    /// The lost-wake-up condition: a queued job could start, a thread is
    /// idle or yet to be started, and no thread is on its way to the queue.
    /// Every pool thread is listed idle, counted in `running` (which it
    /// leaves only under the lock it then scans the queue with), or —
    /// woken, or just started — about to take the lock and scan. Never
    /// true while the lock is free.
    #[cfg(test)]
    fn a_job_is_owed_a_thread(&self) -> bool {
        let on_their_way = self.threads - self.idle.len() - self.running.iter().sum::<usize>();
        let available = !self.idle.is_empty() || self.threads < DISPATCH_THREADS;
        on_their_way == 0 && available && self.first_admissible().is_some()
    }
}

/// Who [`PoolState::runner`] picked.
enum Runner {
    /// A parked thread, already off the idle list, to unpark.
    Wake(Thread),
    /// A thread to start, already counted; the number names it.
    Start(usize),
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
    /// Prefix of the server's thread names.
    name: String,
    idle: Duration,
    server_addr: SocketAddr,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    pool: Mutex<PoolState>,
    /// Times a parked pool thread was woken, for whatever reason.
    wakeups: AtomicU64,
    shutdown: AtomicBool,
    classify: Classifier,
}

impl Shared {
    /// Sends the picked runner after the queue: unparks the thread, or
    /// starts the new one. A thread the system refuses is uncounted again
    /// and the job left to the threads there are.
    fn send(self: &Arc<Self>, runner: Option<Runner>) {
        match runner {
            Some(Runner::Wake(thread)) => thread.unpark(),
            Some(Runner::Start(i)) => {
                let shared = Arc::clone(self);
                let started = std::thread::Builder::new()
                    .name(format!("{}-pool-{i}", self.name))
                    .spawn(move || pool_loop(shared));
                if let Err(e) = started {
                    log_warn!(target: "net::server", "msg=\"cannot start a pool thread\" err=\"{e}\"");
                    self.pool.lock().unwrap().threads -= 1;
                }
            }
            None => {}
        }
    }

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
    /// Binds, then starts the accept thread; the dispatch pool starts its
    /// threads as jobs arrive. `name` prefixes thread names.
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
            name: name.to_string(),
            idle: Duration::from_millis(cfg.idle_conn_ms.max(1)),
            server_addr: addr,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            pool: Mutex::new(PoolState {
                queue: VecDeque::new(),
                running: [0; DISPATCH_THREADS],
                idle: Vec::with_capacity(DISPATCH_THREADS),
                threads: 0,
                handler: Some(handler),
            }),
            wakeups: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            classify,
        });
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, s))
                .map_err(|e| FsError::Io(e.to_string()))?
        };
        Ok(Self { addr, shared, accept: Some(accept) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many times a dispatch-pool thread has woken from its wait for
    /// work. At most one per enqueued job on an idle pool; what a job costs
    /// in context switches beyond its own.
    pub fn wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Stops the server: the accept thread exits, every tracked connection
    /// is severed (in-flight callers fail fast instead of hanging), and
    /// the dispatch pool drains out.
    ///
    /// The handler — and through it the `Master` or `Worker` it serves —
    /// is taken out of the state the detached threads share and dropped
    /// here, on the caller's thread. With no request in flight, nothing of
    /// the server holds it once this returns: the caller's own handle is
    /// the last, and the (possibly very large) state behind it is freed
    /// when and where the caller drops that, not by whichever pool thread
    /// happens to exit last.
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
        let handler = pool.handler.take();
        let queued = std::mem::take(&mut pool.queue);
        let idle = std::mem::take(&mut pool.idle);
        drop(pool);
        idle.iter().for_each(Thread::unpark);
        // Pool threads are not joined: one may be blocked inside a nested
        // RPC bounded by its own deadlines (it holds its own clone of the
        // handler until then); it finds the handler gone and exits on its
        // own.
        drop((handler, queued));
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
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
            .name(format!("{}-conn", shared.name))
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
    while let Ok(Some((request_id, frame))) = read_mux_frame(&mut input) {
        input.frame_due = None;
        // Backpressure: stop pulling frames while this connection has a
        // full window in flight. The client's sends then queue in TCP.
        {
            let mut w = conn.window.lock().unwrap();
            while w.inflight >= MAX_INFLIGHT_PER_CONN && !shared.shutdown.load(Ordering::Acquire) {
                w.reader_stalled = true;
                w = conn.window_cv.wait(w).unwrap();
            }
            w.reader_stalled = false;
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            w.inflight += 1;
        }
        // The trace envelope (if any) is 19 bytes; classification looks at
        // the request head behind it.
        let head = &frame.head;
        let bare_at = if head.first() == Some(&octopus_common::trace::ENVELOPE_MAGIC) {
            19.min(head.len())
        } else {
            0
        };
        let depth = (shared.classify)(&head[bare_at..]);
        if depth >= DISPATCH_THREADS {
            // Deeper than any pipeline the master places: no thread count
            // could ever admit it, so the frame is hostile or corrupt.
            break;
        }
        let job = Job { conn_id, conn: Arc::clone(&conn), request_id, frame, depth };
        let mut pool = shared.pool.lock().unwrap();
        if pool.handler.is_none() {
            break;
        }
        // A job the running mix does not admit wakes nobody: the thread
        // whose completion makes room for it re-scans the queue itself.
        let admissible = depth <= admit_limit(&pool.running);
        pool.queue.push_back(job);
        let runner = if admissible { pool.runner() } else { None };
        drop(pool);
        shared.send(runner);
    }
    shared.untrack(conn_id);
    conn.sever();
}

/// One dispatch-pool thread: admit the first eligible job, run the
/// handler, write the response, release the connection window.
fn pool_loop(shared: Arc<Shared>) {
    // Depth of the job this thread just finished, still counted in
    // `running` until the thread is back under the pool lock: retiring it
    // and looking for the next job are one critical section, so the thread
    // that made room is the one that uses it.
    let mut finished: Option<usize> = None;
    let me = std::thread::current();
    loop {
        let (job, handler) = {
            let mut pool = shared.pool.lock().unwrap();
            if let Some(depth) = finished.take() {
                pool.running[depth] -= 1;
            }
            loop {
                let Some(handler) = &pool.handler else { return };
                if let Some(i) = pool.first_admissible() {
                    let handler = Arc::clone(handler);
                    let job = pool.queue.remove(i).expect("job index valid under lock");
                    pool.running[job.depth] += 1;
                    // Pass the baton: this thread is taken now, so if the
                    // mix it just changed still admits a queued job, one
                    // more thread comes for it (and passes it on in turn).
                    let next = if pool.first_admissible().is_some() { pool.runner() } else { None };
                    drop(pool);
                    shared.send(next);
                    break (job, handler);
                }
                pool.idle.push(me.clone());
                drop(pool);
                // An unpark that beat us here makes this return at once.
                std::thread::park();
                shared.wakeups.fetch_add(1, Ordering::Relaxed);
                pool = shared.pool.lock().unwrap();
                // Whoever unparked this thread unlisted it first; `park`
                // may also return on its own, and then the thread is
                // listed still.
                pool.idle.retain(|t| t.id() != me.id());
            }
        };

        let response = handler(job.frame);
        // Before the response leaves: once a caller holds its response,
        // this thread holds nothing of the handler's state.
        drop(handler);
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
            if w.reader_stalled {
                job.conn.window_cv.notify_one();
            }
        }
        finished = Some(job.depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::write_mux_frame;
    use octopus_common::rng::splitmix64;

    const T: usize = DISPATCH_THREADS;

    /// A server whose requests are `[depth, handler µs / 100]`: the first
    /// byte is the pipeline depth the classifier reports, the second how
    /// long the handler holds its thread. It echoes the request.
    fn depth_echo_server() -> ServerCore {
        let classify: Classifier = Arc::new(|head| head[0] as usize);
        let handler: Handler = Arc::new(|frame: Frame| {
            std::thread::sleep(Duration::from_micros(100 * frame.head[1] as u64));
            FramePayload::small(frame.head.to_vec())
        });
        ServerCore::spawn("127.0.0.1:0", "test", ServerConfig::default(), classify, handler)
            .unwrap()
    }

    /// Spins until every pool thread there is sits on the idle list — the
    /// pool's only quiescent state.
    fn await_idle(core: &ServerCore) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let pool = core.shared.pool.lock().unwrap();
            if pool.idle.len() == pool.threads {
                assert!(pool.queue.is_empty() && pool.running == [0; T], "idle with work left");
                return;
            }
            drop(pool);
            assert!(Instant::now() < deadline, "the pool never went idle");
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_idle_pool_wakes_at_most_one_thread_per_job() {
        let core = depth_echo_server();
        await_idle(&core);
        let mut conn = TcpStream::connect(core.addr()).unwrap();
        const N: u64 = 300;
        let before = core.wakeups();
        for id in 0..N {
            write_mux_frame(&mut conn, id, &[&[0, 0]], None).unwrap();
            let (rid, echo) = read_mux_frame(&mut conn).unwrap().unwrap();
            assert_eq!((rid, &echo.head[..]), (id, &[0u8, 0][..]));
        }
        await_idle(&core);
        let woken = core.wakeups() - before;
        // `notify_all` on every enqueue and every completion woke ~13 of
        // the 15 sleepers twice per job; now an enqueue unparks one thread
        // and a completion none.
        assert!(woken <= N, "{N} leaf jobs, one at a time, woke pool threads {woken} times");
        assert!(woken > 0, "the counter saw the jobs");
    }

    #[test]
    fn no_admissible_job_waits_while_a_thread_sleeps() {
        let core = depth_echo_server();
        const PRODUCERS: u64 = 8;
        const JOBS: u64 = 400;
        let done = AtomicBool::new(false);
        let samples = std::thread::scope(|scope| {
            // The sampler: whenever it gets the pool lock, no idle thread
            // may be owed a job.
            let sampler = scope.spawn(|| {
                let mut samples = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let pool = core.shared.pool.lock().unwrap();
                    assert!(
                        !pool.a_job_is_owed_a_thread(),
                        "lost wake-up: {} of {} threads idle, {} queued, running {:?}",
                        pool.idle.len(),
                        pool.threads,
                        pool.queue.len(),
                        pool.running
                    );
                    drop(pool);
                    samples += 1;
                    std::thread::yield_now();
                }
                samples
            });
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let addr = core.addr();
                    scope.spawn(move || {
                        // A seeded walk per producer: depths 0–3, handler
                        // times 0–300 µs, bursts of 1–8 with the pool left
                        // to drain (and fall asleep) in between.
                        let mut z = 0x5EED_0000 + p;
                        let mut next = move || splitmix64(&mut z) >> 33;
                        let mut conn = TcpStream::connect(addr).unwrap();
                        // A job nobody wakes for must fail the test, not
                        // hang it.
                        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        let mut sent = 0;
                        while sent < JOBS {
                            let burst = (1 + next() % 8).min(JOBS - sent);
                            for id in sent..sent + burst {
                                let (depth, hold) = ((next() % 4) as u8, (next() % 4) as u8);
                                write_mux_frame(&mut conn, id, &[&[depth, hold]], None).unwrap();
                            }
                            for _ in 0..burst {
                                read_mux_frame(&mut conn).unwrap().expect("a response per job");
                            }
                            sent += burst;
                        }
                    })
                })
                .collect();
            let answered: Vec<_> = producers.into_iter().map(|p| p.join()).collect();
            done.store(true, Ordering::SeqCst);
            let samples = sampler.join().unwrap();
            assert!(answered.iter().all(|p| p.is_ok()), "a producer's job went unanswered");
            samples
        });
        // Every job was answered; the pool is whole again and owes nobody.
        await_idle(&core);
        assert!(samples > 0);
        assert!(core.wakeups() > 0, "threads did sleep between bursts");
    }

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
