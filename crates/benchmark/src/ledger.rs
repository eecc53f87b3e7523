//! The per-layer ledger, timed from outside the program.
//!
//! Three sources, none of them a span inside the program:
//! - **unit costs**: each layer's public functions called directly from
//!   here in a fixed-count loop (`unit_costs`);
//! - **counts**: differences of the program's registries scraped around a
//!   run (`e2e_counts`, and the traced pass in `traced`);
//! - **spans**: a stepped client (`Stepped`) that issues the requests
//!   `RemoteFs` issues, one at a time, with a span around every step.
//!
//! `LayerTable` multiplies counts by unit costs and sets the sum against
//! the wall clock of the traced pass; what is left is the remainder row.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use octopus_common::checksum::crc32;
use octopus_common::metrics::{MetricsSnapshot, OwnedLabels};
use octopus_common::wire::{Wire, WireReader};
use octopus_common::{
    Block, BlockData, BlockId, ClientLocation, DirEntry, FileStatus, FsError, GenStamp, Location,
    MediaId, ReplicationVector, Result, TierId, WorkerId, MB,
};
use octopus_core::net::master_server::{dispatch, MasterState};
use octopus_core::net::proto::{
    encode_worker_frame, MasterRequest, MasterResponse, WorkerRequest, WorkerResponse,
};
use octopus_core::net::worker_server::AddressMap;
use octopus_core::net::RpcClient;
use octopus_core::{build_single_worker, StorageMode};
use octopus_master::{ClientId, EditLog, EditOp, GroupCommitLog, Master};
use octopus_policies::{build_placement_policy, build_retrieval_policy, PlacementRequest};
use octopus_storage::{BlockStore, FileStore, MemoryStore};

use crate::cluster::{client_rpc_config, counter_delta, hist_delta};
use crate::json::Json;
use crate::report::Metric;
use crate::util::median;
use crate::workload::{self, Class, Env, FsOps, Kind, Recorder, CLIENTS, WORKERS};

const MIB: f64 = 1024.0 * 1024.0;

fn unexpected<T>(what: impl std::fmt::Debug) -> Result<T> {
    Err(FsError::Io(format!("unexpected response {what:?}")))
}

fn any(_: &OwnedLabels) -> bool {
    true
}

fn req_is<'a>(types: &'a [&'a str]) -> impl Fn(&OwnedLabels) -> bool + 'a {
    move |l| l.request_type.as_deref().is_some_and(|t| types.contains(&t))
}

fn op_is(op: &str) -> impl Fn(&OwnedLabels) -> bool + '_ {
    move |l| l.op.as_deref() == Some(op)
}

/// The master operations one small file makes: the `op` label of the
/// master's registry and the stem of the `master.<stem>_us` metric.
const MASTER_OPS: [(&str, &str); 9] = [
    ("create", "create"),
    ("add_block", "add_block"),
    ("commit_replica", "commit_replica"),
    ("complete", "complete"),
    ("get_block_locations", "locate"),
    ("stat", "stat"),
    ("list", "list"),
    ("rename", "rename"),
    ("delete", "delete"),
];

/// Requests the cluster makes on its own account, not on a client's.
const BACKGROUND: [&str; 4] = ["Heartbeat", "BlockReport", "RegisterWorker", "Metrics"];

fn foreground(l: &OwnedLabels) -> bool {
    !req_is(&BACKGROUND)(l)
}

// ---------------------------------------------------------------- spans

/// One timed step: `layer.name`, when it ran (µs since the log's origin),
/// the span that caused it, and the client call it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans kept in memory until the run ends. Switched off, it records
/// nothing, which is the "ledger off" side of `ledger.overhead_share`.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    on: bool,
    ops: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool) -> Self {
        SpanLog { origin: Instant::now(), on, ops: 0, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// One JSON object per line: name, start, end, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(format!("{}.{}", s.layer, s.name))),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("op", Json::Num(s.op as f64)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }
}

/// Per client call: how long it took, how much of that lies outside its
/// RPCs (the client layer's self time), and how many RPCs it made.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallStats {
    pub calls: u64,
    pub wall_us: f64,
    pub self_us: f64,
    pub rpcs: u64,
}

/// Groups the root spans by name. A root's self time is its duration minus
/// its `rpc` children's, which never overlap (the stepped client is
/// serial); its `client` children (checksums) are the client's own work.
pub fn call_stats(spans: &[Span]) -> BTreeMap<&'static str, CallStats> {
    let mut rpc_us = vec![0.0; spans.len()];
    let mut rpcs = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.layer == "rpc") {
        if let Some(p) = s.parent {
            rpc_us[p] += s.duration_us();
            rpcs[p] += 1;
        }
    }
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.wall_us += s.duration_us();
        e.self_us += s.duration_us() - rpc_us[i];
        e.rpcs += rpcs[i];
    }
    out
}

// ------------------------------------------------------- stepped client

#[derive(Clone, Copy)]
struct Ctx {
    root: Option<usize>,
    op: u64,
}

/// The happy path of `RemoteFs`, one request at a time (an I/O window of
/// one, no retries, no recovery), through the same public `RpcClient`
/// calls, with a span around every step.
pub struct Stepped {
    rpc: RpcClient,
    master: SocketAddr,
    addrs: AddressMap,
    holder: u64,
    log: RefCell<SpanLog>,
}

impl Stepped {
    pub fn new(env: &Env, identity: usize, spans_on: bool) -> Self {
        Stepped {
            rpc: RpcClient::new(client_rpc_config()),
            master: env.cluster.master_addr(),
            addrs: Arc::clone(&env.cluster.addrs),
            holder: (1 << 40) + identity as u64,
            log: RefCell::new(SpanLog::new(spans_on)),
        }
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.rpc.metrics().snapshot()
    }

    pub fn into_log(self) -> SpanLog {
        self.log.into_inner()
    }

    fn open(&self, layer: &'static str, name: &'static str, at: Option<Ctx>) -> Option<usize> {
        let mut log = self.log.borrow_mut();
        if !log.on {
            return None;
        }
        let now = log.now_us();
        let (parent, op) = match at {
            Some(c) => (c.root, c.op),
            None => {
                log.ops += 1;
                (None, log.ops)
            }
        };
        log.spans.push(Span { layer, name, start_us: now, end_us: now, parent, op });
        Some(log.spans.len() - 1)
    }

    fn close(&self, id: Option<usize>) {
        if let Some(i) = id {
            let mut log = self.log.borrow_mut();
            log.spans[i].end_us = log.now_us();
        }
    }

    /// One client call: a root span around `body`.
    fn call<T>(&self, name: &'static str, body: impl FnOnce(Ctx) -> Result<T>) -> Result<T> {
        let root = self.open("client", name, None);
        let op = root.map_or(0, |i| self.log.borrow().spans[i].op);
        let out = body(Ctx { root, op });
        self.close(root);
        out
    }

    fn master(&self, at: Ctx, req: MasterRequest) -> Result<MasterResponse> {
        let id = self.open("rpc", req.name(), Some(at));
        let out = self.rpc.call_master(self.master, &req);
        self.close(id);
        out
    }

    fn worker(&self, at: Ctx, worker: WorkerId, req: WorkerRequest) -> Result<WorkerResponse> {
        let addr = self
            .addrs
            .read()
            .get(&worker)
            .copied()
            .ok_or_else(|| FsError::UnknownWorker(worker.to_string()))?;
        let id = self.open("rpc", req.name(), Some(at));
        let out = self.rpc.call_worker(addr, &req);
        self.close(id);
        out
    }
}

impl FsOps for Stepped {
    fn write_file(&self, path: &str, data: &[u8], rv: ReplicationVector) -> Result<()> {
        self.call("write_file", |at| {
            let status = match self
                .master(at, MasterRequest::CreateFile(path.into(), rv, None, self.holder))?
            {
                MasterResponse::Status(s) => s,
                r => return unexpected(r),
            };
            for chunk in data.chunks((status.block_size as usize).max(1)) {
                let payload = Bytes::copy_from_slice(chunk);
                let add = MasterRequest::AddBlock(
                    path.into(),
                    payload.len() as u64,
                    ClientLocation::OffCluster,
                    self.holder,
                    Vec::new(),
                );
                let (block, pipeline) = match self.master(at, add)? {
                    MasterResponse::Allocated(b, p) => (b, p),
                    r => return unexpected(r),
                };
                let Some((first, rest)) = pipeline.split_first() else {
                    return Err(FsError::PlacementFailed(format!("empty pipeline for {path}")));
                };
                let write = WorkerRequest::WriteBlock(
                    block,
                    first.media,
                    rest.to_vec(),
                    BlockData::Real(payload),
                );
                match self.worker(at, first.worker, write)? {
                    WorkerResponse::Stored(locs) if !locs.is_empty() => {}
                    r => return unexpected(r),
                }
            }
            self.master(at, MasterRequest::CompleteFile(path.into(), self.holder)).map(|_| ())
        })
    }

    fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        self.call("read_file", |at| {
            let status = match self.master(at, MasterRequest::Status(path.into()))? {
                MasterResponse::Status(s) => s,
                r => return unexpected(r),
            };
            let locate = MasterRequest::GetBlockLocations(
                path.into(),
                0,
                u64::MAX,
                ClientLocation::OffCluster,
            );
            let blocks = match self.master(at, locate)? {
                MasterResponse::Located(l) => l,
                r => return unexpected(r),
            };
            let mut out = Vec::with_capacity(status.len as usize);
            for lb in blocks {
                let loc = lb.locations.first().ok_or_else(|| {
                    FsError::BlockUnavailable(format!("{}: no replicas", lb.block.id))
                })?;
                match self.worker(
                    at,
                    loc.worker,
                    WorkerRequest::ReadBlock(loc.media, lb.block.id),
                )? {
                    WorkerResponse::Data(BlockData::Real(b), sum)
                        if b.len() as u64 == lb.block.len =>
                    {
                        let id = self.open("client", "checksum", Some(at));
                        let actual = crc32(&b);
                        self.close(id);
                        if actual != sum {
                            return Err(FsError::ChecksumMismatch { expected: sum, actual });
                        }
                        out.extend_from_slice(&b);
                    }
                    r => return unexpected(r),
                }
            }
            Ok(out)
        })
    }

    fn status(&self, path: &str) -> Result<FileStatus> {
        self.call("status", |at| match self.master(at, MasterRequest::Status(path.into()))? {
            MasterResponse::Status(s) => Ok(s),
            r => unexpected(r),
        })
    }

    fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.call("list", |at| match self.master(at, MasterRequest::List(path.into()))? {
            MasterResponse::Entries(e) => Ok(e),
            r => unexpected(r),
        })
    }

    fn rename(&self, src: &str, dst: &str) -> Result<()> {
        self.call("rename", |at| {
            self.master(at, MasterRequest::Rename(src.into(), dst.into())).map(|_| ())
        })
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.call("delete", |at| {
            let dropped = match self.master(at, MasterRequest::Delete(path.into(), false))? {
                MasterResponse::Dropped(d) => d,
                r => return unexpected(r),
            };
            // Best-effort, as in `RemoteFs`: the master has dropped the
            // blocks, and a worker's block report may have purged a replica
            // (`Invalidate`) before this request reaches it.
            for (block, loc) in dropped {
                let _ = self.worker(at, loc.worker, WorkerRequest::DeleteBlock(loc.media, block));
            }
            Ok(())
        })
    }
}

// ----------------------------------------------------------- unit costs

/// Times `f` once, in µs.
fn time_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// Median µs of `n` calls of `f(i)`; an `Err` aborts the ledger. What
/// `f` returns is dropped outside the timed part.
fn median_us<T>(n: usize, mut f: impl FnMut(usize) -> Result<T>) -> Result<f64> {
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let (us, out) = time_us(|| f(i));
        std::hint::black_box(out?);
        times.push(us);
    }
    Ok(median(&times))
}

fn mib_payload(tag: u8) -> Bytes {
    let mut v = vec![tag; MB as usize];
    for (i, b) in v.iter_mut().enumerate().step_by(61) {
        *b = i as u8;
    }
    Bytes::from(v)
}

fn block(id: u64, len: u64) -> Block {
    Block { id: BlockId(id), gen: GenStamp(1), len }
}

/// Each layer's public functions, called directly in fixed-count loops.
/// Returns the `*_us`, `*_us_per_mb`, `*_mb_s` and `*_per_s` per-layer
/// metrics.
pub fn unit_costs(env: &Env, rundir: &Path, smoke: bool) -> Result<Vec<Metric>> {
    // Its own directory per workload: `octobench ledger` runs them all in one process.
    let rundir = rundir.join(format!("units-{}", env.kind.name()));
    std::fs::create_dir_all(&rundir)?;
    let n = |full: usize| if smoke { (full / 8).max(4) } else { full };
    let mut out = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    let data = BlockData::Real(mib_payload(7));

    // checksum, storage, worker: 1 MiB blocks, so µs per call is µs per MB.
    let bytes = mib_payload(3);
    put("checksum.crc32_us_per_mb", median_us(n(64), |_| Ok(crc32(&bytes)))?, "us/MB");
    let mem = MemoryStore::new(u64::MAX / 2);
    put(
        "storage.mem_put_us_per_mb",
        median_us(n(64), |i| mem.put(block(i as u64, MB), &data))?,
        "us/MB",
    );
    put("storage.mem_get_us_per_mb", median_us(n(64), |i| mem.get(BlockId(i as u64)))?, "us/MB");
    let file = FileStore::open(rundir.join("filestore"), u64::MAX / 2)?;
    put(
        "storage.file_put_us_per_mb",
        median_us(n(32), |i| file.put(block(i as u64, MB), &data))?,
        "us/MB",
    );
    put("storage.file_get_us_per_mb", median_us(n(32), |i| file.get(BlockId(i as u64)))?, "us/MB");
    let cfg = &env.cluster.config;
    let lone = build_single_worker(
        &workload::cluster_config(Kind::Stream, &env.shape),
        WorkerId(0),
        &StorageMode::InMemory,
    )?;
    let ssd = lone.media()[1].id;
    put(
        "worker.write_us_per_mb",
        median_us(n(64), |i| lone.write_block(ssd, block(i as u64, MB), &data))?,
        "us/MB",
    );
    put(
        "worker.read_us_per_mb",
        median_us(n(64), |i| lone.read_block(ssd, BlockId(i as u64)))?,
        "us/MB",
    );

    // rpc codec: the client's encoding of a 1 MiB WriteBlock and the data
    // server's decoding of it (both share the payload instead of copying).
    let loc = |w: u32| Location { worker: WorkerId(w), media: MediaId(w), tier: TierId(1) };
    let request =
        WorkerRequest::WriteBlock(block(1, MB), MediaId(0), vec![loc(1), loc(2)], data.clone());
    put("rpc.encode_us_per_mb", median_us(n(256), |_| Ok(encode_worker_frame(&request)))?, "us/MB");
    let frame = Bytes::from(encode_worker_frame(&request).concat());
    put(
        "rpc.decode_us_per_mb",
        median_us(n(256), |_| {
            let mut r = WireReader::new_shared(&frame, 0);
            WorkerRequest::get(&mut r)
        })?,
        "us/MB",
    );

    // rpc round trip and server dispatch: the cheapest idempotent master
    // call, over TCP, through `dispatch`, and straight into the master.
    let rpc = RpcClient::new(client_rpc_config());
    let master_addr = env.cluster.master_addr();
    let master = &env.cluster.master;
    let stat = || MasterRequest::Status("/".into());
    rpc.call_master(master_addr, &stat())?;
    let (c0, s0) = (rpc.metrics().snapshot(), master.metrics().snapshot());
    let roundtrip = median_us(n(2000), |_| rpc.call_master(master_addr, &stat()))?;
    let (c1, s1) = (rpc.metrics().snapshot(), master.metrics().snapshot());
    put("rpc.roundtrip_us", roundtrip, "us");
    let (client_sum, client_n) = hist_delta(&c0, &c1, "rpc_client_request_us", req_is(&["Status"]));
    let (server_sum, server_n) = hist_delta(&s0, &s1, "master_request_us", req_is(&["Status"]));
    let mean = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    put("rpc.wire_and_queue_us", mean(client_sum, client_n) - mean(server_sum, server_n), "us");
    let state = MasterState::new(Arc::clone(master));
    let dispatched = median_us(n(2000), |_| dispatch(&state, stat()))?;
    let direct = median_us(n(2000), |_| master.status("/"))?;
    put("server.master_dispatch_us", (dispatched - direct).max(0.0), "us");

    master_costs(env, n(200), &mut put)?;
    worker_server_costs(env, &rpc, n(16), &mut put)?;

    // editlog: one stager (every op pays its own fsync), then two (ops of
    // both ride one fsync when group commit works).
    let log_path = rundir.join("fsync.log");
    let log = GroupCommitLog::new(EditLog::open(&log_path)?);
    let op = |i: usize| EditOp::Mkdir { path: format!("/fsync/d{i}") };
    let ops = n(300);
    put("editlog.fsync_us", median_us(ops, |i| log.append_sync(op(i)))?, "us");
    put("editlog.bytes_per_op", std::fs::metadata(&log_path)?.len() as f64 / ops as f64, "B");
    let (group_us, outcome) = time_us(|| {
        std::thread::scope(|s| {
            let stagers: Vec<_> = (0..2)
                .map(|t| {
                    let (log, op) = (&log, &op);
                    s.spawn(move || {
                        (0..ops).try_for_each(|i| log.append_sync(op(t * ops + i + ops)))
                    })
                })
                .collect();
            stagers.into_iter().try_for_each(|h| h.join().expect("stager thread"))
        })
    });
    outcome?;
    put("editlog.group_ops_per_s", (2 * ops) as f64 / (group_us / 1e6), "1/s");

    // master recovery: a log of closed files replayed into a fresh master.
    let files = n(20_000);
    let replay_path = rundir.join("replay.log");
    let mut replay_ops = vec![EditOp::Mkdir { path: "/r".into() }];
    for i in 0..files {
        let path = format!("/r/f{i}");
        let rv = ReplicationVector::from_replication_factor(1);
        replay_ops.push(EditOp::CreateFile { path: path.clone(), rv, block_size: cfg.block_size });
        replay_ops.push(EditOp::CloseFile { path });
    }
    EditLog::open(&replay_path)?.append_batch(replay_ops)?;
    let (replay_us, replayed) =
        time_us(|| Master::with_log(cfg.clone(), EditLog::open(&replay_path)?));
    drop(replayed?);
    put("master.replay_files_per_s", files as f64 / (replay_us / 1e6), "1/s");

    // policies: one placement and one ordering on the live 4-worker view.
    let snap = master.snapshot();
    let placement = build_placement_policy(cfg.policy.placement, &cfg.policy, env.seed);
    let retrieval = build_retrieval_policy(cfg.policy.retrieval, env.seed);
    let want = PlacementRequest::from_vector(
        ReplicationVector::from_replication_factor(3),
        cfg.block_size,
        ClientLocation::OffCluster,
    );
    put("policies.place_us", median_us(n(2000), |_| placement.place(&snap, &want))?, "us");
    let chosen = placement.place(&snap, &want)?;
    let replicas: Vec<_> = chosen
        .iter()
        .filter_map(|m| snap.media_stats(*m))
        .map(|m| Location { worker: m.worker, media: m.media, tier: m.tier })
        .collect();
    put(
        "policies.order_us",
        median_us(n(2000), |_| Ok(retrieval.order(&snap, ClientLocation::OffCluster, &replicas)))?,
        "us",
    );
    Ok(out)
}

/// `master.*_us`: the calls one small rf=3 file makes, straight into the
/// cluster's own (preloaded, file-logged) master, plus for each logged op
/// the mean time the master itself says it waited for the log
/// (`master.*_log_us`, used by the layer table to keep its master and
/// editlog rows apart).
fn master_costs(env: &Env, n: usize, put: &mut impl FnMut(&str, f64, &'static str)) -> Result<()> {
    let master = &env.cluster.master;
    let holder = ClientId((1 << 41) + 1);
    let rv = ReplicationVector::from_replication_factor(3);
    master.mkdir("/ledger")?;
    let list_dir =
        if env.kind == Kind::Meta { "/p/d0".to_string() } else { workload::smallfile_dir(0) };
    let list_dir = if master.status(&list_dir).is_ok() { list_dir } else { "/ledger".to_string() };
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(n); MASTER_OPS.len()];
    let before = master.metrics().snapshot();
    for i in 0..n {
        let (path, moved) = (format!("/ledger/f{i}"), format!("/ledger/r{i}"));
        let mut t = |slot: usize, us: f64| times[slot].push(us);
        let (us, r) = time_us(|| master.create_file_as(&path, rv, None, holder));
        r?;
        t(0, us);
        let (us, r) = time_us(|| {
            master.add_block_excluding(&path, 16 << 10, ClientLocation::OffCluster, holder, &[])
        });
        let (blk, pipeline) = r?;
        t(1, us);
        for loc in pipeline {
            let (us, r) = time_us(|| master.commit_replica(blk, loc));
            r?;
            t(2, us);
        }
        let (us, r) = time_us(|| master.complete_file_as(&path, holder));
        r?;
        t(3, us);
        let (us, r) = time_us(|| {
            master.get_file_block_locations(&path, 0, u64::MAX, ClientLocation::OffCluster)
        });
        r?;
        t(4, us);
        let (us, r) = time_us(|| master.status(&path));
        r?;
        t(5, us);
        let (us, r) = time_us(|| master.list(&list_dir));
        r?;
        t(6, us);
        let (us, r) = time_us(|| master.rename(&path, &moved));
        r?;
        t(7, us);
        // No data server holds these replicas, so nothing is invalidated.
        let (us, r) = time_us(|| master.delete(&moved, false));
        r?;
        t(8, us);
    }
    let after = master.metrics().snapshot();
    master.delete("/ledger", true)?;
    for ((op, short), t) in MASTER_OPS.iter().zip(&times) {
        put(&format!("master.{short}_us"), median(t), "us");
        let (log_sum, log_n) = hist_delta(&before, &after, "master_meta_op_log_us", op_is(op));
        put(&format!("master.{short}_log_us"), log_sum as f64 / log_n.max(1) as f64, "us");
    }
    Ok(())
}

/// `worker_server.*_us` and `rpc.payload_mb_s`: 1 MiB `WriteBlock`s into
/// pipelines of one and of three stages, and `ReadBlock`s of what they
/// stored, each over TCP to a data server. The master allocates the
/// blocks (a stage commits its replica there), untimed.
fn worker_server_costs(
    env: &Env,
    rpc: &RpcClient,
    n: usize,
    put: &mut impl FnMut(&str, f64, &'static str),
) -> Result<()> {
    let master = &env.cluster.master;
    let holder = ClientId((1 << 41) + 2);
    let payload = mib_payload(9);
    // Pacing would time the emulated device, not the data server.
    env.cluster.set_pacing(false);
    let run = |rf: u8| -> Result<(f64, f64)> {
        let path = format!("/ledger-rf{rf}");
        master.create_file_as(
            &path,
            ReplicationVector::from_replication_factor(rf),
            None,
            holder,
        )?;
        let (mut writes, mut reads) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (blk, pipeline) =
                master.add_block_excluding(&path, MB, ClientLocation::OffCluster, holder, &[])?;
            let (first, rest) = pipeline.split_first().expect("a pipeline has a first stage");
            let addr = env.cluster.worker_addr(first.worker);
            let write = WorkerRequest::WriteBlock(
                blk,
                first.media,
                rest.to_vec(),
                BlockData::Real(payload.clone()),
            );
            let (us, r) = time_us(|| rpc.call_worker(addr, &write));
            match r? {
                WorkerResponse::Stored(l) if l.len() == rf as usize => writes.push(us),
                r => return unexpected(r),
            }
            let (us, r) =
                time_us(|| rpc.call_worker(addr, &WorkerRequest::ReadBlock(first.media, blk.id)));
            match r? {
                WorkerResponse::Data(d, _) if d.len() == MB => reads.push(us),
                r => return unexpected(r),
            }
        }
        master.complete_file_as(&path, holder)?;
        FsOps::delete(&env.cluster.client(), &path)?;
        Ok((median(&writes), median(&reads)))
    };
    let (rf1, read) = run(1)?;
    let (rf3, _) = run(3)?;
    env.cluster.set_pacing(env.cluster.config.emulate_media_bps);
    put("worker_server.write_rf1_us", rf1, "us");
    put("worker_server.write_rf3_us", rf3, "us");
    put("worker_server.pipeline_stretch", rf3 / rf1, "ratio");
    put("worker_server.read_us", read, "us");
    put("rpc.payload_mb_s", 1e6 / read, "MB/s");
    Ok(())
}

/// Per tier (fastest first): bytes written, bytes read, and the seconds
/// the configured device rates imply for them, between two scrapes.
fn tier_traffic(env: &Env, b: &MetricsSnapshot, a: &MetricsSnapshot) -> Vec<(u64, u64, f64)> {
    let media = &env.cluster.config.workers[0].media;
    (0..media.len())
        .map(|t| {
            let tier = |l: &OwnedLabels| l.tier == Some(TierId(t as u8));
            let w = counter_delta(b, a, "worker_write_bytes_total", tier);
            let r = counter_delta(b, a, "worker_read_bytes_total", tier);
            (w, r, w as f64 / media[t].write_bps + r as f64 / media[t].read_bps)
        })
        .collect()
}

// --------------------------------------------------- counts around e2e

/// Per-layer counts and the program's own clocks, as differences of the
/// registries scraped around the 2-client end-to-end window.
pub fn e2e_counts(env: &Env, run: &workload::E2e) -> Vec<Metric> {
    let (b, a) = (&run.before, &run.after);
    let wall_s = run.clients.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let mut out = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };

    let client = |name: &str| counter_delta(&run.clients_before, &run.clients_after, name, any);
    let calls: u64 = run.clients.iter().map(|(r, _)| r.calls).sum();
    put("rpc.requests_per_call", ratio(client("rpc_client_requests_total"), calls), "count");
    put("rpc.timeouts", client("rpc_client_timeouts_total") as f64, "count");
    put("client.retries", client("rpc_client_retries_total") as f64, "count");
    put("client.pipeline_recoveries", client("client_pipeline_recoveries_total") as f64, "count");

    let (total, _) = hist_delta(&b.master, &a.master, "master_meta_op_us", any);
    let (wait, _) = hist_delta(&b.master, &a.master, "master_meta_op_lock_wait_us", any);
    let (log, _) = hist_delta(&b.master, &a.master, "master_meta_op_log_us", any);
    put("master.lock_wait_share", ratio(wait, total), "share");
    put("master.log_share", ratio(log, total), "share");
    put(
        "master.op_errors",
        counter_delta(&b.master, &a.master, "master_meta_op_errors_total", any) as f64,
        "count",
    );

    let (fwd_sum, fwd_n) = hist_delta(&b.workers, &a.workers, "worker_pipeline_forward_us", any);
    put("worker_server.forward_us", ratio(fwd_sum, fwd_n), "us");
    let failures =
        counter_delta(&b.workers, &a.workers, "worker_pipeline_forward_failures_total", any);
    put("worker_server.forward_failures", failures as f64, "count");
    let commits = counter_delta(
        &b.server_rpc,
        &a.server_rpc,
        "rpc_client_requests_total",
        req_is(&["CommitReplica"]),
    );
    let blocks = counter_delta(&b.master, &a.master, "master_meta_ops_total", op_is("add_block"));
    put("worker_server.commit_rpcs_per_block", ratio(commits, blocks), "count");

    // Device time the configured rates imply for the bytes each tier moved,
    // as a share of the tier's media-seconds; the busiest tier is reported.
    let mut busiest: f64 = 0.0;
    let (mut read_total, mut fast_read) = (0u64, None);
    for (t, (_, r, device_s)) in tier_traffic(env, &b.workers, &a.workers).into_iter().enumerate() {
        busiest = busiest.max(device_s / (wall_s * f64::from(WORKERS)).max(1e-9));
        read_total += r;
        // Tiers are ordered fastest first: the first one holding data.
        let used: u64 = env.cluster.workers.iter().map(|w| w.media()[t].store.used()).sum();
        if fast_read.is_none() && used > 0 {
            fast_read = Some(r);
        }
    }
    put("worker.device_busy_share", busiest, "share");
    put("policies.fast_read_share", ratio(fast_read.unwrap_or(0), read_total), "share");
    let memory: u64 = env.cluster.workers.iter().map(|w| w.media()[0].store.used()).sum();
    put("policies.memory_replica_share", ratio(memory, env.cluster.stored_bytes()), "share");
    put("monitor.replication_tasks", run.audit.replication_tasks as f64, "count");
    put("storage.stored_per_user_byte", run.audit.stored_per_user_byte().unwrap_or(0.0), "ratio");

    // What the clients saw in this window. Most timed end-to-end metrics
    // cannot hold their bound on the sandbox (`report::DEMOTED`), so the
    // ledger carries them, unbounded. A median here is that of whatever
    // samples the window gave; 0 only where the workload makes no such call.
    let e2e = crate::report::e2e_metrics(env.kind, run);
    for (name, unit) in [("ops_per_s", "1/s"), ("write_mb_s", "MB/s"), ("read_mb_s", "MB/s")] {
        put(&format!("e2e.{name}"), crate::report::find(&e2e, name).unwrap_or(0.0), unit);
    }
    let all = run.checks();
    for (name, class, unit, scale) in [
        ("write_p50_ms", Class::Write, "ms", 1e-3),
        ("read_p50_ms", Class::Read, "ms", 1e-3),
        ("meta_mut_p50_us", Class::MetaMut, "us", 1.0),
        ("meta_ro_p50_us", Class::MetaRo, "us", 1.0),
    ] {
        let reported = crate::report::has_meta_latencies(env.kind)
            || matches!(class, Class::Write | Class::Read);
        let p50 = if reported { median(&all.lat_us[class as usize]) } else { 0.0 };
        put(&format!("e2e.{name}"), p50 * scale, unit);
    }
    out
}

// ------------------------------------------------------- the layer table

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub calls: f64,
    /// What `calls` counts.
    pub of: &'static str,
    pub busy_us: f64,
}

/// Layer rows against the wall clock of the traced pass. Every row's
/// clock is independent of `wall_us`, so the remainder is a measurement,
/// not zero by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    pub wall_us: f64,
    pub rows: Vec<Row>,
}

impl LayerTable {
    pub fn remainder_us(&self) -> f64 {
        self.wall_us - self.rows.iter().map(|r| r.busy_us).sum::<f64>()
    }

    pub fn unattributed_share(&self) -> f64 {
        self.remainder_us() / self.wall_us.max(1e-9)
    }

    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}: wall {:.0} us\n", self.wall_us);
        out.push_str(&format!(
            "  {:<14} {:>10} {:<22} {:>14} {:>8}\n",
            "layer", "calls", "of", "busy_us", "share"
        ));
        let share = |us: f64| 100.0 * us / self.wall_us.max(1e-9);
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<14} {:>10.1} {:<22} {:>14.0} {:>7.1}%\n",
                r.layer,
                r.calls,
                r.of,
                r.busy_us,
                share(r.busy_us)
            ));
        }
        let rest = self.remainder_us();
        out.push_str(&format!(
            "  {:<14} {:>10} {:<22} {:>14.0} {:>7.1}%\n",
            "(remainder)",
            "",
            "",
            rest,
            share(rest)
        ));
        out
    }
}

/// What the traced pass of one workload produced.
pub struct Traced {
    pub table: LayerTable,
    pub metrics: Vec<Metric>,
    pub log: SpanLog,
    /// Calls and checks of both passes, for the failure count.
    pub checks: Recorder,
    pub states: Vec<workload::ClientState>,
}

/// Iterations of the workload's loop a ledger pass makes.
pub fn pass_iterations(kind: Kind, smoke: bool) -> usize {
    let full = match kind {
        Kind::Smallfile => 1000,
        Kind::Stream => 4,
        Kind::Meta => 1500,
        Kind::Tiered => 24,
    };
    if smoke {
        (full / 8).max(2)
    } else {
        full
    }
}

/// Runs the workload twice with one stepped client and fixed iteration
/// counts — ledger off, then ledger on — and builds the layer table of
/// the second pass from its spans, the registries scraped around it, and
/// the unit costs.
pub fn traced(env: &Env, units: &[Metric], smoke: bool, cap: Duration) -> Traced {
    let iterations = pass_iterations(env.kind, smoke);
    let unit = |name: &str| crate::report::find(units, name).unwrap_or(0.0);

    let off = Stepped::new(env, CLIENTS, false);
    let (state_off, mut checks, secs_off) = workload::replay(env, &off, CLIENTS, iterations, cap);
    let on = Stepped::new(env, CLIENTS + 1, true);
    let before = env.cluster.scrape();
    let edits_before = env.cluster.master.edit_count();
    let (state_on, rec_on, secs_on) = workload::replay(env, &on, CLIENTS + 1, iterations, cap);
    let after = env.cluster.scrape();
    let edits = (env.cluster.master.edit_count() - edits_before) as f64;
    let client = on.metrics();
    let log = on.into_log();
    let rate = |rec: &Recorder, secs: f64| rec.calls as f64 / secs.max(1e-9);

    let calls = call_stats(&log.spans);
    let total = |f: fn(&CallStats) -> f64| calls.values().map(f).sum::<f64>();
    let wall_us = total(|c| c.wall_us);
    let per = |name: &str, f: fn(&CallStats) -> f64| {
        calls.get(name).map_or(0.0, |c| f(c) / c.calls.max(1) as f64)
    };
    let steps = log.spans.iter().filter(|s| s.layer == "rpc").count() as u64;
    let issued = client.counter("rpc_client_requests_total");
    let off_rate = rate(&checks, secs_off);
    checks.merge(&rec_on);
    checks.check(steps == issued, || {
        format!("{steps} rpc spans but {issued} requests counted by the client")
    });

    // Counts of the traced pass, from registries on the far side of it.
    let (b, a) = (&before, &after);
    let server_trips = counter_delta(
        &b.server_rpc,
        &a.server_rpc,
        "rpc_client_requests_total",
        req_is(&["CommitReplica", "AbortReplica", "WriteBlock"]),
    );
    let trips = (issued + server_trips) as f64;
    let master_requests =
        counter_delta(&b.master, &a.master, "master_requests_total", foreground) as f64;
    let written =
        counter_delta(&b.workers, &a.workers, "worker_write_bytes_total", any) as f64 / MIB;
    let read = counter_delta(&b.workers, &a.workers, "worker_read_bytes_total", any) as f64 / MIB;
    let mut master_us = 0.0;
    let mut master_ops = 0.0;
    for (op, short) in MASTER_OPS {
        let n = counter_delta(&b.master, &a.master, "master_meta_ops_total", op_is(op)) as f64;
        let work = unit(&format!("master.{short}_us")) - unit(&format!("master.{short}_log_us"));
        master_ops += n;
        master_us += n * work.max(0.0);
    }
    let device_s = if env.cluster.config.emulate_media_bps {
        tier_traffic(env, &b.workers, &a.workers).iter().map(|t| t.2).sum()
    } else {
        0.0
    };
    // A round trip's own cost: the cheapest call minus what the server
    // spends dispatching and answering it.
    let trip_us =
        (unit("rpc.roundtrip_us") - unit("server.master_dispatch_us") - unit("master.stat_us"))
            .max(0.0);
    let row = |layer, calls: f64, of, busy_us: f64| Row { layer, calls, of, busy_us };
    let table = LayerTable {
        wall_us,
        rows: vec![
            row(
                "client",
                total(|c| c.calls as f64),
                "calls (span self time)",
                total(|c| c.self_us),
            ),
            row("rpc", trips, "round trips", trips * trip_us),
            row(
                "rpc codec",
                written + read,
                "MiB on the wire",
                (written + read) * (unit("rpc.encode_us_per_mb") + unit("rpc.decode_us_per_mb")),
            ),
            row(
                "server",
                master_requests,
                "master requests",
                master_requests * unit("server.master_dispatch_us"),
            ),
            row("master", master_ops, "metadata ops", master_us),
            row("editlog", edits, "logged ops", edits * unit("editlog.fsync_us")),
            row(
                "worker",
                written + read,
                "MiB stored or read",
                written * unit("worker.write_us_per_mb") + read * unit("worker.read_us_per_mb"),
            ),
            row("device", device_s * 1e3, "ms at configured rates", device_s * 1e6),
        ],
    };

    let metrics = vec![
        Metric::new("client.rpcs_per_write", per("write_file", |c| c.rpcs as f64), "count"),
        Metric::new("client.rpcs_per_read", per("read_file", |c| c.rpcs as f64), "count"),
        Metric::new(
            "client.self_us",
            total(|c| c.self_us) / total(|c| c.calls as f64).max(1.0),
            "us",
        ),
        Metric::new("ledger.unattributed_share", table.unattributed_share(), "share"),
        Metric::new(
            "ledger.overhead_share",
            1.0 - rate(&rec_on, secs_on) / off_rate.max(1e-9),
            "share",
        ),
        Metric::new("ledger.ops_per_s", rate(&rec_on, secs_on), "1/s"),
    ];
    Traced { table, metrics, log, checks, states: vec![state_off, state_on] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        layer: &'static str,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span { layer, name, start_us: start, end_us: end, parent, op }
    }

    #[test]
    fn self_time_is_the_call_minus_its_steps() {
        let spans = vec![
            span("client", "write_file", 0.0, 100.0, None, 1),
            span("rpc", "CreateFile", 5.0, 30.0, Some(0), 1),
            span("rpc", "CompleteFile", 40.0, 90.0, Some(0), 1),
            span("client", "read_file", 100.0, 130.0, None, 2),
            span("rpc", "ReadBlock", 101.0, 121.0, Some(3), 2),
            span("client", "checksum", 122.0, 129.0, Some(3), 2),
            span("client", "write_file", 130.0, 150.0, None, 3),
        ];
        let stats = call_stats(&spans);
        let w = &stats["write_file"];
        assert_eq!((w.calls, w.rpcs), (2, 2));
        assert_eq!(w.wall_us, 120.0);
        assert_eq!(w.self_us, 120.0 - 25.0 - 50.0);
        // The checksum is the client's own work, not an RPC.
        assert_eq!((stats["read_file"].rpcs, stats["read_file"].self_us), (1, 10.0));
    }

    #[test]
    fn rows_and_remainder_sum_to_the_wall() {
        let row = |layer, busy_us| Row { layer, calls: 1.0, of: "", busy_us };
        let t = LayerTable {
            wall_us: 1000.0,
            rows: vec![row("client", 100.0), row("rpc", 250.5), row("master", 49.5)],
        };
        assert_eq!(t.remainder_us(), 600.0);
        assert_eq!(t.rows.iter().map(|r| r.busy_us).sum::<f64>() + t.remainder_us(), t.wall_us);
        assert_eq!(t.unattributed_share(), 0.6);
        // Rows that claim more than the wall leave a negative remainder,
        // shown as such rather than clamped away.
        let over = LayerTable { wall_us: 100.0, rows: vec![row("rpc", 150.0)] };
        assert_eq!(over.remainder_us(), -50.0);
        assert!(t.render("smallfile").contains("(remainder)"));
    }

    #[test]
    fn a_switched_off_log_records_nothing() {
        let mut log = SpanLog::new(true);
        log.spans.push(span("client", "status", 0.0, 1.0, None, 1));
        let line = log.to_jsonl();
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("client.status"));
        assert_eq!(parsed.get("parent"), Some(&Json::Null));
        assert!(SpanLog::new(false).to_jsonl().is_empty());
    }
}
