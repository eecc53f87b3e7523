//! The four workloads: what each one sets up, what one iteration of a
//! closed-loop client does, and how the result is audited afterwards.
//!
//! Each workload exists to put most of the wall clock in a different layer
//! (see README.md): `smallfile` in round trips and log fsyncs, `stream` in
//! the data pipeline, `meta` in the master and its transport with no data
//! bytes at all, `tiered` in (emulated) device time and policy decisions.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_common::metrics::MetricsSnapshot;
use octopus_common::units::mbps_to_bytes_per_sec;
use octopus_common::{ClusterConfig, DirEntry, FileStatus, ReplicationVector, Result, MB};
use octopus_core::RemoteFs;
use octopus_master::{EditLog, EditOp};

use crate::cluster::{BenchCluster, Scrape};
use crate::util::{mix, Rng, Zipf};

/// Closed-loop client threads. Fixed at this box's `nproc` when the
/// benchmark was defined; recorded in every result, never derived.
pub const CLIENTS: usize = 2;
/// Path identities a set-up prepares: the closed-loop clients plus the
/// ledger's two single-client passes (ledger off, ledger on), which run
/// after them on the same cluster and must not reuse their paths.
pub const IDENTITIES: usize = CLIENTS + 2;
pub const WORKERS: u32 = 4;
pub const BLOCK_SIZE: u64 = MB;
pub const HEARTBEAT_MS: u64 = 200;

/// The paper's Table 2 media rates (MB/s, write then read), divided by
/// this factor in `tiered`. On this sandbox the rf=3 pipeline moves
/// ~14 ms of CPU work per MiB; at the undivided rates the emulated
/// devices would take 0.5–8 ms per MiB and the workload would be
/// CPU-bound like `stream`, not device-bound.
pub const TIER_RATE_DIVISOR: f64 = 8.0;
const TABLE2_MBPS: [(f64, f64); 3] = [(1897.4, 3224.8), (340.6, 419.5), (126.3, 177.1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Smallfile,
    Stream,
    Meta,
    Tiered,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Smallfile, Kind::Stream, Kind::Meta, Kind::Tiered];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Smallfile => "smallfile",
            Kind::Stream => "stream",
            Kind::Meta => "meta",
            Kind::Tiered => "tiered",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Sizes of a workload. `smoke` shrinks them so a run takes seconds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Bytes per data file (0 for `meta`).
    pub file_bytes: usize,
    /// `smallfile`: directories the files spread over; `meta`: preloaded
    /// directories.
    pub dirs: usize,
    /// `meta`: preloaded files per directory.
    pub files_per_dir: usize,
    /// `smallfile`: files each client keeps alive; `tiered`: preloaded
    /// files in total.
    pub live_files: usize,
    /// `tiered`: memory-tier capacity per worker.
    pub memory_bytes: u64,
}

impl Shape {
    pub fn of(kind: Kind, smoke: bool) -> Shape {
        let mb = MB as usize;
        let (file_bytes, dirs, files_per_dir, live_files, memory_bytes) = match (kind, smoke) {
            (Kind::Smallfile, false) => (16 << 10, 64, 0, 256, 0),
            (Kind::Smallfile, true) => (16 << 10, 8, 0, 16, 0),
            (Kind::Stream, false) => (64 * mb, 0, 0, 1, 0),
            (Kind::Stream, true) => (8 * mb, 0, 0, 1, 0),
            (Kind::Meta, false) => (0, 200, 1000, 0, 0),
            (Kind::Meta, true) => (0, 10, 100, 0, 0),
            (Kind::Tiered, false) => (8 * mb, 0, 0, 48, 64 * MB),
            (Kind::Tiered, true) => (2 * mb, 0, 0, 8, 4 * MB),
        };
        Shape { file_bytes, dirs, files_per_dir, live_files, memory_bytes }
    }
}

/// The cluster configuration of a workload: `test_cluster(4, cap, 1 MiB)`
/// with the default `master_shards` and `io_window`, a 200 ms heartbeat,
/// and for `tiered` the emulated Table 2 devices with a small memory tier
/// the placement policy may use.
pub fn cluster_config(kind: Kind, shape: &Shape) -> ClusterConfig {
    let mut cfg = ClusterConfig::test_cluster(WORKERS, 1024 * MB, BLOCK_SIZE);
    cfg.heartbeat_ms = HEARTBEAT_MS;
    if kind == Kind::Tiered {
        cfg.emulate_media_bps = true;
        cfg.policy.memory_placement_enabled = true;
        for w in &mut cfg.workers {
            for (m, (write, read)) in w.media.iter_mut().zip(TABLE2_MBPS) {
                m.write_bps = mbps_to_bytes_per_sec(write / TIER_RATE_DIVISOR);
                m.read_bps = mbps_to_bytes_per_sec(read / TIER_RATE_DIVISOR);
            }
            w.media[0].capacity = shape.memory_bytes;
        }
    }
    cfg
}

/// File contents derived from `(seed, path)`: one shared pseudo-random
/// base buffer, with the first 16 bytes of every block overwritten by a
/// stamp of the path and the block index. Verification compares every
/// byte read — stamps against the path, the rest against the base — so a
/// block delivered to the wrong file or offset is caught, at memcmp cost.
pub struct Payload {
    seed: u64,
    base: Vec<u8>,
}

const STAMP: usize = 16;

impl Payload {
    pub fn new(seed: u64, max_len: usize) -> Self {
        let mut rng = Rng::new(mix(seed, "payload"));
        let mut base = Vec::with_capacity(max_len + 8);
        while base.len() < max_len {
            base.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        base.truncate(max_len);
        Payload { seed, base }
    }

    fn stamp_of(&self, path: &str, block: usize) -> [u8; STAMP] {
        let mut s = [0u8; STAMP];
        s[..8].copy_from_slice(&mix(self.seed, path).to_le_bytes());
        s[8..].copy_from_slice(&(block as u64).to_le_bytes());
        s
    }

    /// A client's reusable write buffer of `len` bytes.
    pub fn scratch(&self, len: usize) -> Vec<u8> {
        self.base[..len].to_vec()
    }

    /// Turns `buf` (a scratch buffer) into the contents of `path`.
    pub fn stamp(&self, buf: &mut [u8], path: &str) {
        for (i, chunk) in buf.chunks_mut(BLOCK_SIZE as usize).enumerate() {
            let n = chunk.len().min(STAMP);
            chunk[..n].copy_from_slice(&self.stamp_of(path, i)[..n]);
        }
    }

    /// Whether `data` is exactly the `len`-byte contents of `path`.
    pub fn verify(&self, data: &[u8], path: &str, len: usize) -> bool {
        data.len() == len
            && data
                .chunks(BLOCK_SIZE as usize)
                .zip(self.base.chunks(BLOCK_SIZE as usize))
                .enumerate()
                .all(|(i, (got, base))| {
                    let n = got.len().min(STAMP);
                    got[..n] == self.stamp_of(path, i)[..n] && got[n..] == base[n..got.len()]
                })
    }
}

/// The client calls a workload is made of. `RemoteFs` is the real client;
/// the ledger's stepped client issues the same requests with a span
/// around each.
pub trait FsOps {
    fn write_file(&self, path: &str, data: &[u8], rv: ReplicationVector) -> Result<()>;
    fn read_file(&self, path: &str) -> Result<Vec<u8>>;
    fn status(&self, path: &str) -> Result<FileStatus>;
    fn list(&self, path: &str) -> Result<Vec<DirEntry>>;
    fn rename(&self, src: &str, dst: &str) -> Result<()>;
    fn delete(&self, path: &str) -> Result<()>;
}

impl FsOps for RemoteFs {
    fn write_file(&self, path: &str, data: &[u8], rv: ReplicationVector) -> Result<()> {
        RemoteFs::write_file(self, path, data, rv)
    }
    fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        RemoteFs::read_file(self, path)
    }
    fn status(&self, path: &str) -> Result<FileStatus> {
        RemoteFs::status(self, path)
    }
    fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        RemoteFs::list(self, path)
    }
    fn rename(&self, src: &str, dst: &str) -> Result<()> {
        RemoteFs::rename(self, src, dst)
    }
    fn delete(&self, path: &str) -> Result<()> {
        RemoteFs::delete(self, path, false)
    }
}

/// Latency classes. A workload's calls land in the classes it has:
/// data writes and reads, logged metadata mutations (create-empty,
/// rename, delete), read-only metadata (status, list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write = 0,
    Read = 1,
    MetaMut = 2,
    MetaRo = 3,
}

/// What one client measured: per-call latencies by class, user bytes and
/// seconds inside `write_file` / `read_file`, and the failure count.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub lat_us: [Vec<f64>; 4],
    pub write_bytes: u64,
    pub read_bytes: u64,
    /// Completed client calls.
    pub calls: u64,
    /// Calls plus byte and audit checks.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Recorder {
    /// Times one client call into its class; an `Err` counts as failed.
    pub fn call<T>(
        &mut self,
        class: Class,
        what: &str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let start = Instant::now();
        let out = f();
        self.lat_us[class as usize].push(start.elapsed().as_secs_f64() * 1e6);
        self.attempted += 1;
        match out {
            Ok(v) => {
                self.calls += 1;
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// Drops the samples (end of warm-up) but keeps the failure count: a
    /// failure during warm-up is still a failure.
    pub fn discard_samples(&mut self) {
        for v in &mut self.lat_us {
            v.clear();
        }
        self.write_bytes = 0;
        self.read_bytes = 0;
        self.calls = 0;
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.lat_us.iter_mut().zip(&other.lat_us) {
            a.extend_from_slice(b);
        }
        self.write_bytes += other.write_bytes;
        self.read_bytes += other.read_bytes;
        self.calls += other.calls;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
    }

    /// Seconds spent inside calls of one class.
    pub fn seconds_in(&self, class: Class) -> f64 {
        self.lat_us[class as usize].iter().sum::<f64>() / 1e6
    }
}

/// A booted cluster plus everything a client needs to drive a workload.
pub struct Env {
    pub kind: Kind,
    pub shape: Shape,
    pub seed: u64,
    pub cluster: BenchCluster,
    pub payload: Arc<Payload>,
}

pub fn smallfile_dir(d: usize) -> String {
    format!("/sf/d{d}")
}

pub fn meta_preloaded(shape: &Shape, n: usize) -> String {
    format!("/p/d{}/f{}", n / shape.files_per_dir, n % shape.files_per_dir)
}

pub fn tiered_file(k: usize) -> String {
    format!("/t/f{k}")
}

fn data_rv() -> ReplicationVector {
    ReplicationVector::from_replication_factor(3)
}

impl Env {
    /// Boots the cluster in `rundir` and brings it to the state the
    /// workload starts from. Everything here is `setup_s`.
    pub fn setup(kind: Kind, seed: u64, smoke: bool, rundir: &Path) -> Result<Env> {
        let shape = Shape::of(kind, smoke);
        let log_path = rundir.join("edits.log");
        let _ = std::fs::remove_file(&log_path);
        if kind == Kind::Meta {
            // The namespace is preloaded by writing the edit log and letting
            // the master replay it, so set-up time is also recovery time.
            let mut ops = Vec::with_capacity(shape.dirs * (1 + 2 * shape.files_per_dir));
            for d in 0..shape.dirs {
                ops.push(EditOp::Mkdir { path: format!("/p/d{d}") });
            }
            for n in 0..shape.dirs * shape.files_per_dir {
                let path = meta_preloaded(&shape, n);
                ops.push(EditOp::CreateFile {
                    path: path.clone(),
                    rv: ReplicationVector::from_replication_factor(1),
                    block_size: BLOCK_SIZE,
                });
                ops.push(EditOp::CloseFile { path });
            }
            EditLog::open(&log_path)?.append_batch(ops)?;
        }
        let cluster = BenchCluster::start(cluster_config(kind, &shape), &log_path)?;
        let payload = Arc::new(Payload::new(seed, shape.file_bytes));
        let env = Env { kind, shape, seed, cluster, payload };

        let fs = env.cluster.client();
        match kind {
            Kind::Smallfile => {
                for d in 0..shape.dirs {
                    fs.mkdir(&smallfile_dir(d))?;
                }
            }
            Kind::Stream | Kind::Meta => {
                let root = if kind == Kind::Stream { "st" } else { "m" };
                for c in 0..IDENTITIES {
                    fs.mkdir(&format!("/{root}/c{c}"))?;
                }
            }
            Kind::Tiered => {
                // Preload unpaced (device emulation would only make set-up
                // slow), each client thread writing the files it will own.
                env.cluster.set_pacing(false);
                fs.mkdir("/t")?;
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..CLIENTS)
                        .map(|c| {
                            let env = &env;
                            s.spawn(move || -> Result<()> {
                                let fs = env.cluster.client();
                                let mut buf = env.payload.scratch(shape.file_bytes);
                                for k in (c..shape.live_files).step_by(CLIENTS) {
                                    let path = tiered_file(k);
                                    env.payload.stamp(&mut buf, &path);
                                    fs.write_file(&path, &buf, data_rv())?;
                                }
                                Ok(())
                            })
                        })
                        .collect();
                    handles.into_iter().try_for_each(|h| h.join().expect("preload thread"))
                })?;
                env.cluster.report_now()?;
                env.cluster.set_pacing(true);
            }
        }
        Ok(env)
    }
}

/// One closed-loop client of a workload: owns its paths, its generator
/// and its write buffer; `step` runs one iteration.
pub struct ClientState {
    kind: Kind,
    shape: Shape,
    client: usize,
    iter: usize,
    rng: Rng,
    zipf: Zipf,
    payload: Arc<Payload>,
    buf: Vec<u8>,
}

impl ClientState {
    pub fn new(env: &Env, client: usize) -> Self {
        let owned = (env.shape.live_files / CLIENTS).max(1);
        ClientState {
            kind: env.kind,
            shape: env.shape,
            client,
            iter: 0,
            // The ledger's two passes draw the same sequence, so that the
            // difference between them is the ledger and not the dice.
            rng: Rng::new(mix(env.seed, &format!("client{}", client.min(CLIENTS)))),
            zipf: Zipf::new(owned, 0.99),
            payload: Arc::clone(&env.payload),
            buf: env.payload.scratch(env.shape.file_bytes),
        }
    }

    fn smallfile_path(&self, i: usize) -> String {
        let d = (i * CLIENTS + self.client) % self.shape.dirs;
        format!("{}/c{}_{i}", smallfile_dir(d), self.client)
    }

    fn stream_path(&self, i: usize) -> String {
        format!("/st/c{}/f{i}", self.client)
    }

    fn write(&mut self, fs: &impl FsOps, rec: &mut Recorder, path: &str) {
        self.payload.stamp(&mut self.buf, path);
        let buf = &self.buf;
        if rec.call(Class::Write, "write_file", || fs.write_file(path, buf, data_rv())).is_some() {
            rec.write_bytes += buf.len() as u64;
        }
    }

    fn read(&mut self, fs: &impl FsOps, rec: &mut Recorder, path: &str) {
        if let Some(data) = rec.call(Class::Read, "read_file", || fs.read_file(path)) {
            rec.read_bytes += data.len() as u64;
            let ok = self.payload.verify(&data, path, self.shape.file_bytes);
            rec.check(ok, || format!("wrong bytes read from {path}"));
        }
    }

    /// One iteration of the workload's loop.
    pub fn step(&mut self, fs: &impl FsOps, rec: &mut Recorder) {
        let i = self.iter;
        self.iter += 1;
        match self.kind {
            Kind::Smallfile => {
                let path = self.smallfile_path(i);
                self.write(fs, rec, &path);
                self.read(fs, rec, &path);
                let len = self.shape.file_bytes as u64;
                if let Some(st) = rec.call(Class::MetaRo, "status", || fs.status(&path)) {
                    rec.check(st.len == len && st.complete, || format!("bad status of {path}"));
                }
                if i >= self.shape.live_files {
                    let old = self.smallfile_path(i - self.shape.live_files);
                    rec.call(Class::MetaMut, "delete", || fs.delete(&old));
                }
            }
            Kind::Stream => {
                let path = self.stream_path(i);
                self.write(fs, rec, &path);
                self.read(fs, rec, &path);
                if i >= 1 {
                    let old = self.stream_path(i - 1);
                    rec.call(Class::MetaMut, "delete", || fs.delete(&old));
                }
            }
            Kind::Meta => {
                let dir = format!("/m/c{}", self.client);
                let path = format!("{dir}/f{i}");
                let moved = format!("{dir}/r{i}");
                let n =
                    self.rng.below((self.shape.dirs * self.shape.files_per_dir) as u64) as usize;
                let preloaded = meta_preloaded(&self.shape, n);
                let big_dir = format!("/p/d{}", n / self.shape.files_per_dir);
                let rv = ReplicationVector::from_replication_factor(1);
                rec.call(Class::MetaMut, "create", || fs.write_file(&path, &[], rv));
                rec.call(Class::MetaRo, "status", || fs.status(&path));
                rec.call(Class::MetaRo, "status", || fs.status(&preloaded));
                if let Some(entries) = rec.call(Class::MetaRo, "list", || fs.list(&big_dir)) {
                    let want = self.shape.files_per_dir;
                    rec.check(entries.len() == want, || {
                        format!("{big_dir}: {} entries", entries.len())
                    });
                }
                rec.call(Class::MetaMut, "rename", || fs.rename(&path, &moved));
                rec.call(Class::MetaMut, "delete", || fs.delete(&moved));
            }
            Kind::Tiered => {
                // Each client draws from the files it owns, so a rewrite
                // never races the other client's read.
                let k = self.zipf.sample(&mut self.rng) * CLIENTS + self.client % CLIENTS;
                let path = tiered_file(k);
                if self.rng.unit() < 0.8 {
                    self.read(fs, rec, &path);
                } else {
                    rec.call(Class::MetaMut, "delete", || fs.delete(&path));
                    self.write(fs, rec, &path);
                }
            }
        }
    }

    /// Paths of the data files this client left alive.
    pub fn live_paths(&self) -> Vec<String> {
        match self.kind {
            Kind::Smallfile => (self.iter.saturating_sub(self.shape.live_files)..self.iter)
                .map(|i| self.smallfile_path(i))
                .collect(),
            Kind::Stream => {
                self.iter.checked_sub(1).map(|i| self.stream_path(i)).into_iter().collect()
            }
            Kind::Meta => Vec::new(),
            // A ledger pass rewrites the files of the client it stands in
            // for; it owns none of its own.
            Kind::Tiered if self.client >= CLIENTS => Vec::new(),
            Kind::Tiered => {
                (self.client..self.shape.live_files).step_by(CLIENTS).map(tiered_file).collect()
            }
        }
    }
}

/// What the audit found after a workload.
#[derive(Debug, Clone)]
pub struct Audit {
    pub checks: Recorder,
    pub live_bytes: u64,
    pub stored_bytes: u64,
    /// Tasks the replication monitor would schedule; 0 in a healthy run.
    pub replication_tasks: usize,
}

impl Audit {
    /// Bytes on all media per live user byte (`None` when nothing is live).
    pub fn stored_per_user_byte(&self) -> Option<f64> {
        (self.live_bytes > 0).then(|| self.stored_bytes as f64 / self.live_bytes as f64)
    }
}

/// Checks the namespace and the stores against what the clients left:
/// every directory lists exactly its live files, every live file has its
/// length, three bytes are stored per live user byte, and the replication
/// monitor has nothing to do.
pub fn audit(env: &Env, clients: &[&ClientState]) -> Audit {
    let fs = env.cluster.client();
    let mut checks = Recorder::default();
    // A full block report that raced a write drops the fresh replica's
    // location until the next report confirms it again (the report is a
    // snapshot, the commit is newer). The clients are idle now, so one
    // more round of reports shows the settled state.
    let settled = env.cluster.report_now();
    checks.check(settled.is_ok(), || format!("block reports after the run: {settled:?}"));
    let mut expected: BTreeMap<String, usize> = BTreeMap::new();
    let shape = &env.shape;
    match env.kind {
        Kind::Smallfile => expected.extend((0..shape.dirs).map(|d| (smallfile_dir(d), 0))),
        Kind::Stream => expected.extend((0..IDENTITIES).map(|c| (format!("/st/c{c}"), 0))),
        Kind::Meta => {
            expected.extend((0..IDENTITIES).map(|c| (format!("/m/c{c}"), 0)));
            expected.extend((0..shape.dirs).map(|d| (format!("/p/d{d}"), shape.files_per_dir)));
        }
        Kind::Tiered => expected.extend([("/t".to_string(), 0)]),
    }
    let live: Vec<String> = clients.iter().flat_map(|c| c.live_paths()).collect();
    for path in &live {
        let dir = &path[..path.rfind('/').expect("absolute path")];
        *expected.entry(dir.to_string()).or_default() += 1;
    }
    for (dir, want) in &expected {
        let got = FsOps::list(&fs, dir).map(|e| e.len());
        checks.check(got.as_ref().ok() == Some(want), || {
            format!("{dir}: want {want} entries, got {got:?}")
        });
    }
    for path in &live {
        let got = FsOps::status(&fs, path).map(|s| (s.len, s.complete));
        let want = (shape.file_bytes as u64, true);
        checks.check(got.as_ref().ok() == Some(&want), || format!("{path}: status {got:?}"));
    }
    let live_bytes = live.len() as u64 * shape.file_bytes as u64;
    let stored_bytes = env.cluster.stored_bytes();
    if live_bytes > 0 {
        let ratio = stored_bytes as f64 / live_bytes as f64;
        checks.check((ratio - 3.0).abs() <= 0.03, || {
            format!("stored per user byte {ratio:.4}, want 3.00")
        });
    } else {
        checks
            .check(stored_bytes == 0, || format!("{stored_bytes} bytes stored with no live file"));
    }
    let replication_tasks = env.cluster.master.replication_scan().len();
    checks
        .check(replication_tasks == 0, || format!("{replication_tasks} replication tasks pending"));
    Audit { checks, live_bytes, stored_bytes, replication_tasks }
}

/// The outcome of one end-to-end run of one workload.
pub struct E2e {
    /// Per client: what it measured inside the timed window, and how long
    /// its window was (it ends with the client's last whole iteration).
    pub clients: Vec<(Recorder, f64)>,
    /// Where each client's loop stopped (what it left alive).
    pub states: Vec<ClientState>,
    pub audit: Audit,
    /// Server-side registries just before the timed window and just after.
    pub before: Scrape,
    pub after: Scrape,
    /// The clients' own registries, merged, at the same two instants.
    pub clients_before: MetricsSnapshot,
    pub clients_after: MetricsSnapshot,
}

impl E2e {
    /// Everything the clients and the audit attempted, and what failed.
    pub fn checks(&self) -> Recorder {
        let mut all = self.audit.checks.clone();
        self.clients.iter().for_each(|(r, _)| all.merge(r));
        all
    }
}

/// Drives `CLIENTS` closed-loop clients for a discarded warm-up and a
/// timed window, then audits. Every client finishes the iteration it is
/// in when the window ends, so no operation is cut short.
pub fn run_e2e(env: &Env, warmup: Duration, window: Duration) -> E2e {
    let barrier = std::sync::Barrier::new(CLIENTS + 1);
    let (results, before) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let fs = env.cluster.client();
                    let mut state = ClientState::new(env, c);
                    let mut rec = Recorder::default();
                    let start = Instant::now();
                    while start.elapsed() < warmup {
                        state.step(&fs, &mut rec);
                    }
                    rec.discard_samples();
                    let metrics_before = fs.metrics_snapshot();
                    // Both clients are idle while the registries are read.
                    barrier.wait();
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < window {
                        state.step(&fs, &mut rec);
                    }
                    (
                        state,
                        rec,
                        start.elapsed().as_secs_f64(),
                        metrics_before,
                        fs.metrics_snapshot(),
                    )
                })
            })
            .collect();
        barrier.wait();
        let before = env.cluster.scrape();
        barrier.wait();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (results, before)
    });
    let after = env.cluster.scrape();
    let mut states = Vec::with_capacity(CLIENTS);
    let mut clients = Vec::with_capacity(CLIENTS);
    let (mut clients_before, mut clients_after) =
        (MetricsSnapshot::default(), MetricsSnapshot::default());
    for (state, rec, elapsed, metrics_before, metrics_after) in results {
        states.push(state);
        clients.push((rec, elapsed));
        clients_before.merge(metrics_before);
        clients_after.merge(metrics_after);
    }
    let audit = audit(env, &states.iter().collect::<Vec<_>>());
    E2e { clients, states, audit, before, after, clients_before, clients_after }
}

/// One single-client pass of the ledger: `iterations` iterations of the
/// workload's loop under path identity `identity`, stopped early only if
/// `cap` runs out. Returns the client's state (for the audit), what it
/// measured, and the seconds the pass took.
pub fn replay(
    env: &Env,
    fs: &impl FsOps,
    identity: usize,
    iterations: usize,
    cap: Duration,
) -> (ClientState, Recorder, f64) {
    let mut state = ClientState::new(env, identity);
    let mut rec = Recorder::default();
    let start = Instant::now();
    for _ in 0..iterations {
        if start.elapsed() >= cap {
            break;
        }
        state.step(fs, &mut rec);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (state, rec, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_a_function_of_seed_and_path() {
        let p = Payload::new(1, 3 * MB as usize);
        let mut a = p.scratch(3 * MB as usize);
        p.stamp(&mut a, "/x/f1");
        assert!(p.verify(&a, "/x/f1", a.len()));
        assert!(!p.verify(&a, "/x/f2", a.len()), "another path's bytes must not verify");
        assert!(!p.verify(&a[..a.len() - 1], "/x/f1", a.len()), "short read");
        let mut flipped = a.clone();
        flipped[2 * MB as usize + 100] ^= 1;
        assert!(!p.verify(&flipped, "/x/f1", a.len()), "one flipped bit");
        // Blocks swapped within the file carry the wrong index stamp.
        let mut swapped = a.clone();
        let (lo, hi) = swapped.split_at_mut(MB as usize);
        lo[..STAMP].swap_with_slice(&mut hi[..STAMP]);
        assert!(!p.verify(&swapped, "/x/f1", a.len()));

        let q = Payload::new(2, 64);
        let mut b = q.scratch(64);
        q.stamp(&mut b, "/x/f1");
        assert_ne!(a[..64], b[..], "seed changes the bytes");
        assert!(Payload::new(1, 0).verify(&[], "/empty", 0));
    }

    #[test]
    fn path_generators_are_deterministic_and_disjoint_per_client() {
        let shape = Shape::of(Kind::Smallfile, false);
        let mk = |client| ClientState {
            kind: Kind::Smallfile,
            shape,
            client,
            iter: 300,
            rng: Rng::new(0),
            zipf: Zipf::new(1, 0.99),
            payload: Arc::new(Payload::new(0, 0)),
            buf: Vec::new(),
        };
        let (a, b) = (mk(0), mk(1));
        assert_eq!(a.smallfile_path(7), mk(0).smallfile_path(7));
        assert_eq!(a.live_paths().len(), shape.live_files);
        assert!(a.live_paths().iter().all(|p| !b.live_paths().contains(p)));
        assert_eq!(meta_preloaded(&Shape::of(Kind::Meta, false), 1999), "/p/d1/f999");
    }
}
