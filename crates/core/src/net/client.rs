//! [`RemoteFs`]: the OctopusFS client (paper §2.3) — the file system API
//! with the Table 1 tiered-storage extensions, the windowed write pipeline
//! with §3.1 recovery, and the retrieval-ordered read with §4.1 failover —
//! written once over a [`Transport`]: TCP for deployments, function calls
//! for the in-process [`crate::Cluster`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use octopus_common::checksum::crc32;
use octopus_common::log_warn;
use octopus_common::metrics::{Labels, MetricsRegistry, MetricsSnapshot};
use octopus_common::trace::{self, TraceCollector, TraceSnapshot};
use octopus_common::{
    Block, BlockData, BlockId, ClientLocation, ClusterStatusReport, DecisionEvent, DirEntry,
    FileStatus, FsError, HeatInfo, LocatedBlock, Location, ReplicationVector, Result, RpcConfig,
    StorageTierReport, WorkerId, DEFAULT_IO_WINDOW,
};
use octopus_master::{ClientId, TierQuota};

use super::monitor::Round;
use super::proto::{BlockRef, MasterRequest, MasterResponse, WorkerRequest, WorkerResponse};
use super::rpc;
use super::transport::{TcpTransport, Transport};
use super::worker_server::AddressMap;

static NEXT_HOLDER: AtomicU64 = AtomicU64::new(1 << 32);

/// How many placements a single block write tries before giving up; each
/// failed attempt adds that pipeline's first worker to the exclusion list
/// of the next placement (§3.1 pipeline recovery).
const MAX_PIPELINE_ATTEMPTS: usize = 4;

/// Per-worker metrics-scrape bookkeeping: how often the scrape failed and
/// when it last succeeded, so unreachable workers are *visible* in the
/// merged snapshot instead of silently absent.
#[derive(Default, Clone, Copy)]
struct ScrapeState {
    errors: u64,
    last_ok: Option<Instant>,
}

/// An OctopusFS client. Cheap to clone; clones share the same lease
/// identity.
#[derive(Clone)]
pub struct RemoteFs {
    net: Arc<dyn Transport>,
    location: ClientLocation,
    holder: u64,
    window: usize,
    scrapes: Arc<Mutex<HashMap<WorkerId, ScrapeState>>>,
}

impl RemoteFs {
    /// Creates a networked client against the given master, with
    /// `workers` resolving data-server addresses, over the process-wide
    /// shared [`rpc::RpcClient`].
    pub fn new(master: SocketAddr, workers: AddressMap, location: ClientLocation) -> Self {
        let net = TcpTransport::new(master, workers, Arc::clone(rpc::shared()));
        Self::over(Arc::new(net), location)
    }

    /// Creates a client over any transport.
    pub fn over(net: Arc<dyn Transport>, location: ClientLocation) -> Self {
        Self {
            net,
            location,
            holder: NEXT_HOLDER.fetch_add(1, Ordering::Relaxed),
            window: DEFAULT_IO_WINDOW as usize,
            scrapes: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Overrides the I/O window: how many blocks of one transfer are kept
    /// in flight concurrently. `1` runs every transfer on the calling
    /// thread alone; values are clamped to at least 1.
    pub fn with_io_window(mut self, window: u32) -> Self {
        self.window = window.max(1) as usize;
        self
    }

    /// The configured I/O window.
    pub fn io_window(&self) -> u32 {
        self.window as u32
    }

    /// Replaces the RPC deadlines/retry budget with a dedicated client
    /// (tests use [`RpcConfig::fast_test`] to detect failures quickly).
    /// A no-op over a transport that makes no RPCs.
    pub fn with_rpc_config(mut self, cfg: RpcConfig) -> Self {
        if let Some(net) = self.net.with_rpc_config(cfg) {
            self.net = net;
        }
        self
    }

    /// Connects to a master by address alone, fetching the worker
    /// data-server addresses from its registry (daemon deployments).
    pub fn connect(master: SocketAddr, location: ClientLocation) -> Result<Self> {
        let net = TcpTransport::new(master, AddressMap::default(), Arc::clone(rpc::shared()));
        net.refresh_workers()?;
        Ok(Self::over(Arc::new(net), location))
    }

    /// Where this client runs.
    pub fn location(&self) -> ClientLocation {
        self.location
    }

    /// This client's lease identity.
    pub fn id(&self) -> ClientId {
        ClientId(self.holder)
    }

    fn metrics(&self) -> &MetricsRegistry {
        self.net.metrics()
    }

    /// Snapshot of this client's metrics: the transport's own series
    /// (`rpc_client_*` over TCP) plus the `client_*` recovery/failover
    /// counters the read and write paths record into the same registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }

    /// This client's trace collector: open a root here (`fs.trace().root(..)`)
    /// and the calls made under it — and every span they cause on the
    /// master and the workers — join its trace. Calls made outside any
    /// trace record nothing.
    pub fn trace(&self) -> &TraceCollector {
        self.net.trace()
    }

    /// The master's registry alone, over one `Metrics` RPC — no worker
    /// fan-out. The fast path for `status`/`perf` views that only read
    /// `master_*` and `lock_*` series; one slow worker cannot stall them.
    pub fn master_metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        match self.call(MasterRequest::Metrics)? {
            MasterResponse::Metrics(s) => Ok(s),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Cluster-wide metrics: the master's registry plus every reachable
    /// worker's (both over the idempotent `Metrics` RPC), merged with this
    /// client's own series. Unreachable workers are skipped so scraping
    /// does not fail because one node is down — but every skip is counted
    /// in `metrics_scrape_errors_total{worker=…}`, and
    /// `metrics_scrape_age_ms{worker=…}` reports how stale each worker's
    /// contribution is, so a silent blind spot cannot form.
    pub fn cluster_metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        self.net.refresh_workers()?; // reach workers that joined since
        let mut snap = match self.call(MasterRequest::Metrics)? {
            MasterResponse::Metrics(s) => s,
            r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
        };
        let mut scrapes = self.scrapes.lock().unwrap();
        for w in self.net.workers() {
            let state = scrapes.entry(w).or_default();
            match self.net.call_worker(w, WorkerRequest::Metrics) {
                Ok(WorkerResponse::Metrics(s)) => {
                    state.last_ok = Some(Instant::now());
                    snap.merge(s);
                }
                _ => {
                    state.errors += 1;
                    log_warn!(
                        target: "net::client",
                        "msg=\"metrics scrape failed\" worker={w} errors={}",
                        state.errors
                    );
                }
            }
        }
        snap.merge(scrape_visibility(&scrapes));
        drop(scrapes);
        snap.merge(self.metrics_snapshot());
        Ok(snap)
    }

    /// Cluster-wide trace snapshot: the master's collector, every
    /// reachable worker's, and this client's own spans merged into one
    /// assembly (the trace analogue of
    /// [`RemoteFs::cluster_metrics_snapshot`]). A worker that cannot be
    /// scraped leaves its spans out of the assembly, counted in this
    /// client's `trace_scrape_errors_total{worker=…}`.
    pub fn cluster_trace_snapshot(&self) -> Result<TraceSnapshot> {
        self.net.refresh_workers()?; // reach workers that joined since
        let mut snap = match self.call(MasterRequest::Trace)? {
            MasterResponse::Trace(s) => s,
            r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
        };
        for w in self.net.workers() {
            match self.net.call_worker(w, WorkerRequest::Trace) {
                Ok(WorkerResponse::Trace(s)) => snap.merge(s),
                _ => {
                    self.metrics().inc("trace_scrape_errors_total", Labels::worker(w));
                    log_warn!(target: "net::client", "msg=\"trace scrape failed\" worker={w}");
                }
            }
        }
        snap.merge(self.trace().snapshot());
        Ok(snap)
    }

    /// Access-heat summary of one file (the master-side EWMA fed by
    /// heartbeat-piggybacked worker touch counts).
    pub fn heat(&self, path: &str) -> Result<HeatInfo> {
        match self.call(MasterRequest::Heat(path.into()))? {
            MasterResponse::Heat(h) => Ok(h),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Every retained placement/retrieval/removal decision event for a
    /// block, oldest first.
    pub fn explain_placement(&self, block: BlockId) -> Result<Vec<DecisionEvent>> {
        match self.call(MasterRequest::ExplainPlacement(block))? {
            MasterResponse::Decisions(d) => Ok(d),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// The `n` most recent auto-tiering migration decisions, oldest first
    /// (`octofs-remote migrations`).
    pub fn migrations(&self, n: u32) -> Result<Vec<DecisionEvent>> {
        match self.call(MasterRequest::Migrations(n))? {
            MasterResponse::Decisions(d) => Ok(d),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// The master's one-stop cluster status report.
    pub fn cluster_status(&self) -> Result<ClusterStatusReport> {
        match self.call(MasterRequest::ClusterStatus)? {
            MasterResponse::ClusterStatus(s) => Ok(s),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    fn call(&self, req: MasterRequest) -> Result<MasterResponse> {
        self.net.call_master(req)
    }

    /// Creates a directory and parents.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        self.call(MasterRequest::Mkdir(path.into())).map(|_| ())
    }

    /// Status of a path.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        match self.call(MasterRequest::Status(path.into()))? {
            MasterResponse::Status(s) => Ok(s),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Lists a directory.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        match self.call(MasterRequest::List(path.into()))? {
            MasterResponse::Entries(e) => Ok(e),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Renames a file or directory.
    pub fn rename(&self, src: &str, dst: &str) -> Result<()> {
        self.call(MasterRequest::Rename(src.into(), dst.into())).map(|_| ())
    }

    /// Deletes a path, invalidating replicas at the workers.
    pub fn delete(&self, path: &str, recursive: bool) -> Result<()> {
        let mut dropped = match self.call(MasterRequest::Delete(path.into(), recursive))? {
            MasterResponse::Dropped(d) => d,
            r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
        };
        // Best-effort: a worker that is down misses its invalidation here,
        // but the master has already dropped the blocks from the block map,
        // so the replica is purged by the worker's next block report. So a
        // worker that spent its retry budget once is sent nothing more:
        // its replicas come in a row, sorted by worker.
        dropped.sort_unstable_by_key(|(_, loc)| loc.worker);
        let mut down = None;
        for (block, loc) in dropped {
            if down == Some(loc.worker) {
                continue;
            }
            let req = WorkerRequest::DeleteBlock(loc.media, block);
            if self.net.call_worker(loc.worker, req).is_err_and(|e| e.is_retryable()) {
                down = Some(loc.worker);
            }
        }
        Ok(())
    }

    /// `setReplication` (Table 1).
    pub fn set_replication(&self, path: &str, rv: ReplicationVector) -> Result<ReplicationVector> {
        match self.call(MasterRequest::SetReplication(path.into(), rv))? {
            MasterResponse::Vector(v) => Ok(v),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Sets a directory's per-tier quota (§1's multi-tenancy mechanism).
    pub fn set_quota(&self, path: &str, quota: TierQuota) -> Result<()> {
        self.call(MasterRequest::SetQuota(path.into(), quota)).map(|_| ())
    }

    /// Runs one §5 round of `round` on the master's node and returns its
    /// count ([`super::monitor::run_round`]).
    pub fn run_round(&self, round: Round) -> Result<u64> {
        match self.call(MasterRequest::RunRound(round))? {
            MasterResponse::Count(n) => Ok(n),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// A directory's quota and the bytes charged against it, per tier slot.
    pub fn quota_usage(&self, path: &str) -> Result<(TierQuota, Vec<u64>)> {
        match self.call(MasterRequest::QuotaUsage(path.into()))? {
            MasterResponse::Quota(quota, usage) => Ok((quota, usage)),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// `getFileBlockLocations` (Table 1).
    pub fn get_file_block_locations(
        &self,
        path: &str,
        start: u64,
        len: u64,
    ) -> Result<Vec<LocatedBlock>> {
        match self.call(MasterRequest::GetBlockLocations(path.into(), start, len, self.location))? {
            MasterResponse::Located(l) => Ok(l),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// `getStorageTierReports` (Table 1).
    pub fn get_storage_tier_reports(&self) -> Result<Vec<StorageTierReport>> {
        match self.call(MasterRequest::TierReports)? {
            MasterResponse::Reports(r) => Ok(r),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// `create(Path, ReplicationVector, blockSize)` (Table 1): opens a new
    /// file for writing and returns the output stream.
    pub fn create(
        &self,
        path: &str,
        rv: ReplicationVector,
        block_size: Option<u64>,
    ) -> Result<FileWriter> {
        let status = self.open_new(path, rv, block_size)?;
        Ok(FileWriter::new(self, path, status.block_size))
    }

    /// Creates `path` open for writing under this client's lease.
    pub(crate) fn open_new(
        &self,
        path: &str,
        rv: ReplicationVector,
        block_size: Option<u64>,
    ) -> Result<FileStatus> {
        match self.call(MasterRequest::CreateFile(path.into(), rv, block_size, self.holder))? {
            MasterResponse::Status(s) => Ok(s),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Closes a file this client holds open, releasing its lease.
    pub(crate) fn close_file(&self, path: &str) -> Result<()> {
        self.call(MasterRequest::CompleteFile(path.into(), self.holder)).map(|_| ())
    }

    /// Reopens a complete file for appending. New data starts a fresh
    /// block (the existing final block is immutable).
    pub fn append(&self, path: &str) -> Result<FileWriter> {
        match self.call(MasterRequest::AppendFile(path.into(), self.holder))? {
            MasterResponse::Status(s) => Ok(FileWriter::new(self, path, s.block_size)),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Creates `path` and writes `data` through worker pipelines (§3.1).
    /// Spans are recorded only inside a trace the caller opened (DESIGN §7).
    pub fn write_file(&self, path: &str, data: &[u8], rv: ReplicationVector) -> Result<()> {
        let mut span = trace::child("client.write_file");
        if let Some(s) = span.as_mut() {
            s.annotate("path", path);
            s.annotate("bytes", data.len());
        }

        let block_size = self.open_new(path, rv, None)?.block_size as usize;
        // Zero-length files have no blocks: `chunks` is empty and the file
        // is closed immediately below.
        let chunks: Vec<&[u8]> = data.chunks(block_size.max(1)).collect();
        self.write_blocks_windowed(path, &chunks)?;
        self.metrics().add("client_write_bytes_total", Labels::NONE, data.len() as u64);
        self.close_file(path)
    }

    /// Allocates the file's next block and its pipeline.
    pub(crate) fn allocate_block(&self, path: &str, len: u64) -> Result<(Block, Vec<Location>)> {
        let req = MasterRequest::AddBlock(path.into(), len, self.location, self.holder, Vec::new());
        match self.call(req)? {
            MasterResponse::Allocated(b, p) => Ok((b, p)),
            r => Err(FsError::Io(format!("unexpected response {r:?}"))),
        }
    }

    /// Transfers an allocated block ([`RemoteFs::transfer_block`]),
    /// abandoning it when the transfer fails for good.
    pub(crate) fn store_block(
        &self,
        path: &str,
        block: Block,
        pipeline: Vec<Location>,
        data: BlockRef<'_>,
    ) -> Result<()> {
        self.transfer_block(path, block, pipeline, data).inspect_err(|_| {
            let _ = self.call(MasterRequest::AbandonBlock(path.into(), block, self.holder));
        })
    }

    /// Runs `lane` on the calling thread and on `window − 1` scoped
    /// threads that continue the caller's trace, so a one-block transfer
    /// or a window of 1 spawns no thread.
    fn run_lanes(&self, window: usize, lane: impl Fn() + Sync) {
        let ctx = trace::current_context();
        std::thread::scope(|scope| {
            for _ in 1..window {
                scope.spawn(|| {
                    let _trace = ctx.map(|c| self.trace().enter(c));
                    lane()
                });
            }
            lane();
        });
    }

    /// The one write engine: appends `chunks` to the open file `path`,
    /// one block each, through up to `window` concurrent pipelines.
    ///
    /// Block order is the file's byte order (the master's ordering
    /// invariant — see `Master::reassign_block_as`), so `AddBlock` calls
    /// go through a turnstile that admits them strictly in chunk order
    /// while the transfers themselves overlap. Each block leaves straight
    /// from the caller's buffer: the client holds no copy of it.
    ///
    /// First-error cancellation: one failed block stops further blocks
    /// from being issued, in-flight transfers drain, and every reserved
    /// block from the tail down to the first incomplete slot is abandoned
    /// in reverse order — the file is left with exactly its completed
    /// prefix of blocks and the first error is returned.
    fn write_blocks_windowed(&self, path: &str, chunks: &[&[u8]]) -> Result<()> {
        let n = chunks.len();
        let sched = WriteScheduler::new();
        // Per-chunk outcome, written by the owning lane only: the
        // reserved block (AddBlock succeeded) and whether its transfer
        // completed. Reserved slots form a contiguous prefix because the
        // turnstile serializes AddBlock in chunk order.
        let states: Vec<Mutex<(Option<Block>, bool)>> =
            (0..n).map(|_| Mutex::new((None, false))).collect();
        self.run_lanes(self.window.min(n), || loop {
            let i = sched.next.fetch_add(1, Ordering::SeqCst);
            if i >= n || sched.is_cancelled() {
                break;
            }
            let mut bspan = trace::child("client.write_block");
            if let Some(s) = bspan.as_mut() {
                s.annotate("index", i);
                s.annotate("bytes", chunks[i].len());
            }
            if !sched.await_turn(i) {
                break;
            }
            let (block, pipeline) = match self.allocate_block(path, chunks[i].len() as u64) {
                Ok(allocated) => allocated,
                Err(e) => {
                    sched.fail(e);
                    break;
                }
            };
            // The slot is reserved: later chunks may allocate now, while
            // this lane runs the (long) transfer.
            sched.advance_turn();
            states[i].lock().unwrap().0 = Some(block);
            match self.transfer_block(path, block, pipeline, BlockRef::Real(chunks[i])) {
                Ok(()) => states[i].lock().unwrap().1 = true,
                Err(e) => {
                    if let Some(s) = bspan.as_mut() {
                        s.annotate("error", &e);
                    }
                    sched.fail(e);
                    break;
                }
            }
        });
        let Some(err) = sched.take_error() else { return Ok(()) };
        // Cleanly abandon the tail: from the last reserved block down to
        // the first incomplete slot, in reverse order (the namespace only
        // removes last blocks). Completed blocks above a failed one are
        // sacrificed — their replicas become unknown to the master and are
        // purged via block reports — leaving the file's completed prefix.
        let outcomes: Vec<(Option<Block>, bool)> =
            states.iter().map(|s| *s.lock().unwrap()).collect();
        let first_incomplete =
            outcomes.iter().position(|(b, done)| b.is_none() || !done).unwrap_or(n);
        for (block, _) in outcomes[first_incomplete..].iter().rev() {
            if let Some(block) = block {
                let _ = self.call(MasterRequest::AbandonBlock(path.into(), *block, self.holder));
            }
        }
        Err(err)
    }

    /// Transfers one already-allocated block through its pipeline — the
    /// one §3.1 recovery loop: when the pipeline's entry worker fails with
    /// a transport error, does not know its medium (the address now serves
    /// another worker), or no stage stored the block, the block is
    /// re-placed *in its slot* (`ReassignBlock`; under a window it may no
    /// longer be the file's last) on a pipeline that excludes every worker
    /// a previous attempt already failed on. Every attempt sends `data`
    /// itself.
    fn transfer_block(
        &self,
        path: &str,
        block: Block,
        mut pipeline: Vec<Location>,
        data: BlockRef<'_>,
    ) -> Result<()> {
        let mut excluded: Vec<WorkerId> = Vec::new();
        let mut last_err = FsError::PlacementFailed(format!("no pipeline attempted for {path}"));
        for attempt in 0..MAX_PIPELINE_ATTEMPTS {
            if attempt > 0 {
                pipeline = match self.call(MasterRequest::ReassignBlock(
                    path.into(),
                    block,
                    self.location,
                    self.holder,
                    excluded.clone(),
                ))? {
                    MasterResponse::Allocated(_, p) => p,
                    r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
                };
            }
            let Some((first, rest)) = pipeline.split_first() else {
                return Err(FsError::PlacementFailed(format!("empty pipeline for {path}")));
            };
            let outcome = self.net.write_block(first.worker, block, first.media, rest, data);
            match outcome {
                Ok(WorkerResponse::Stored(locs)) if !locs.is_empty() => return Ok(()),
                Ok(WorkerResponse::Stored(_)) => {
                    last_err = FsError::BlockUnavailable(format!(
                        "no pipeline stage stored block {}",
                        block.id
                    ));
                }
                Ok(r) => return Err(FsError::Io(format!("unexpected response {r:?}"))),
                // Media ids are cluster-global: a head that does not know
                // its medium is another worker now serving at that address,
                // so it is a failed head like an unreachable one.
                Err(e) if e.is_retryable() || matches!(e, FsError::UnknownMedia(_)) => last_err = e,
                Err(e) => return Err(e),
            }
            log_warn!(
                target: "net::client",
                "msg=\"pipeline recovery\" path={path} block={} failed_worker={} err=\"{last_err}\"",
                block.id,
                first.worker
            );
            self.metrics().inc("client_pipeline_recoveries_total", Labels::NONE);
            excluded.push(first.worker);
        }
        Err(last_err)
    }

    /// Reads a whole file, verifying checksums and failing over across
    /// replicas (§4.1). One master RPC: the located blocks give the
    /// layout, and the master refuses a directory (`IsADirectory`) or a
    /// missing path (`NotFound`) there. Spans are recorded only inside a
    /// trace the caller opened (DESIGN §7).
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let mut span = trace::child("client.read_file");
        if let Some(s) = span.as_mut() {
            s.annotate("path", path);
        }
        let (blocks, len) = self.locate(path, 0, u64::MAX)?;
        let mut out = vec![0u8; len];
        self.read_blocks_windowed(&blocks, 0, &mut out)?;
        if let Some(s) = span.as_mut() {
            s.annotate("bytes", len);
        }
        Ok(out)
    }

    /// The positional read (HDFS's `read(position, buf, off, len)`): fills
    /// `buf` with the file's bytes from `offset` and returns how many it
    /// read — fewer than `buf.len()` only where the file ends, 0 at or past
    /// its end. One master RPC, as [`RemoteFs::read_file`]; the blocks the
    /// range covers whole land straight in `buf`.
    pub fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let (blocks, n) = self.locate(path, offset, buf.len() as u64)?;
        self.read_blocks_windowed(&blocks, offset, &mut buf[..n])?;
        Ok(n)
    }

    /// Locates the blocks over `[offset, offset + len)` of a file — its
    /// reads' one master RPC — and how many of those bytes they hold: the
    /// range ends where the located blocks end (a file that shrank is read
    /// at its own length).
    fn locate(&self, path: &str, offset: u64, len: u64) -> Result<(Vec<LocatedBlock>, usize)> {
        let blocks = self.get_file_block_locations(path, offset, len)?;
        let end = blocks.last().map_or(offset, LocatedBlock::end);
        let n = end.clamp(offset, offset.saturating_add(len)) - offset;
        let n = usize::try_from(n).map_err(|_| FsError::Internal(format!("{n} B read")))?;
        Ok((blocks, n))
    }

    /// The one read engine: fills `out` with the file's bytes from offset
    /// `start`, fetching the located `blocks` that cover them with up to
    /// `window` fetches in flight. A block the range covers whole lands
    /// straight in its place in `out` (in any order), so a read holds its
    /// output and nothing more; only a block cut by the range's ends lands
    /// whole beside it first. The first failed block cancels the fan-out
    /// and its error is returned; a landed read counts its bytes in
    /// `client_read_bytes_total`.
    fn read_blocks_windowed(
        &self,
        blocks: &[LocatedBlock],
        start: u64,
        out: &mut [u8],
    ) -> Result<()> {
        let len = out.len() as u64;
        let pieces = block_pieces(blocks, start, out)?;
        let window = self.window.min(pieces.len());
        let work = Mutex::new(pieces.into_iter());
        let first_err: Mutex<Option<FsError>> = Mutex::new(None);
        self.run_lanes(window, || loop {
            if first_err.lock().unwrap().is_some() {
                break;
            }
            let Some((lb, from, piece)) = work.lock().unwrap().next() else { break };
            let read = if piece.len() as u64 == lb.block.len {
                self.read_block(lb, piece)
            } else {
                let mut whole = vec![0u8; lb.block.len as usize];
                self.read_block(lb, &mut whole)
                    .map(|()| piece.copy_from_slice(&whole[from..from + piece.len()]))
            };
            if let Err(e) = read {
                first_err.lock().unwrap().get_or_insert(e);
                break;
            }
        });
        first_err.into_inner().unwrap().map_or(Ok(()), Err)?;
        self.metrics().add("client_read_bytes_total", Labels::NONE, len);
        Ok(())
    }

    /// Reads one block through the replica walk into `dest`, exactly the
    /// block's length; the client reads bytes, so a synthetic replica is
    /// refused.
    fn read_block(&self, lb: &LocatedBlock, dest: &mut [u8]) -> Result<()> {
        match read_replica(&*self.net, lb.block, &lb.locations, Some(dest))? {
            None => Ok(()),
            Some(_) => {
                Err(FsError::BlockUnavailable(format!("{}: synthetic replica", lb.block.id)))
            }
        }
    }
}

/// The one §4.1 replica walk, of client reads and the worker's
/// `Replicate` alike: asks `replicas` for `block` in order and takes the
/// first whose length matches and — for real bytes — whose CRC matches the
/// checksum recorded at write time. That CRC is the read's one end-to-end
/// check (the server sends the recorded value without re-reading the
/// payload): it catches a replica corrupt at rest and bytes damaged in
/// flight alike, and either way the next replica is tried. A synthetic
/// replica is accepted on its length.
///
/// Given `dest`, exactly the block's length, a client read's bytes land
/// there — each replica tried overwrites it — and the walk returns `None`;
/// otherwise it returns the block as received (a `Replicate` stores it).
pub(crate) fn read_replica(
    net: &dyn Transport,
    block: Block,
    replicas: &[Location],
    mut dest: Option<&mut [u8]>,
) -> Result<Option<BlockData>> {
    let mut last_err = FsError::BlockUnavailable(format!("{}: no replicas", block.id));
    for (i, loc) in replicas.iter().enumerate() {
        // One span per replica attempt: failovers become sibling spans
        // under the read, annotated with the replica index.
        let mut rep_span = trace::child("client.read_replica");
        if let Some(s) = rep_span.as_mut() {
            s.annotate("block", block.id);
            s.annotate("replica", i);
            s.annotate("worker", loc.worker);
            s.annotate("tier", loc.tier);
        }
        match net.read_block(loc.worker, loc.media, block.id, dest.as_deref_mut()) {
            Ok((Some(d), _)) if d.len() != block.len => {
                last_err = FsError::BlockUnavailable(format!(
                    "{}: replica length {} != {}",
                    block.id,
                    d.len(),
                    block.len
                ));
            }
            Ok((data, sum)) => {
                let bytes = match &data {
                    Some(BlockData::Real(b)) => &b[..],
                    Some(BlockData::Synthetic { .. }) => return Ok(data),
                    None => dest.as_deref().expect("bytes land only in a slice"),
                };
                let verify = trace::child("client.checksum");
                let actual = crc32(bytes);
                drop(verify);
                if actual == sum {
                    return Ok(data);
                }
                log_warn!(
                    target: "net::client",
                    "msg=\"checksum failover\" block={} replica={i} worker={}",
                    block.id,
                    loc.worker
                );
                net.metrics().inc("client_checksum_failovers_total", Labels::NONE);
                last_err = FsError::ChecksumMismatch { expected: sum, actual };
                if let Some(s) = rep_span.as_mut() {
                    s.annotate("error", "checksum mismatch");
                }
            }
            Err(e) => {
                if let Some(s) = rep_span.as_mut() {
                    s.annotate("error", &e);
                }
                last_err = e;
            }
        }
        // A further location exists: this failure becomes a failover.
        if i + 1 < replicas.len() {
            net.metrics().inc("client_replica_failovers_total", Labels::NONE);
        }
    }
    Err(last_err)
}

/// An output stream for one file (returned by [`RemoteFs::create`]).
///
/// Every full block goes through the client's write engine (§3.1
/// pipelines, up to the I/O window at once) straight from the caller's
/// data; only a partial block is buffered, until more bytes complete it
/// or `close` writes it as the file's last block.
pub struct FileWriter {
    client: RemoteFs,
    path: String,
    block_size: usize,
    buf: Vec<u8>,
    closed: bool,
}

impl FileWriter {
    fn new(client: &RemoteFs, path: &str, block_size: u64) -> Self {
        Self {
            client: client.clone(),
            path: path.to_string(),
            block_size: (block_size as usize).max(1),
            buf: Vec::new(),
            closed: false,
        }
    }

    /// Appends bytes, writing every block they complete.
    pub fn write(&mut self, mut data: &[u8]) -> Result<()> {
        if self.closed {
            return Err(FsError::InvalidArgument("writer is closed".into()));
        }
        let bs = self.block_size;
        if !self.buf.is_empty() {
            let fill = (bs - self.buf.len()).min(data.len());
            self.buf.extend_from_slice(&data[..fill]);
            data = &data[fill..];
        }
        let full = data.chunks_exact(bs);
        let tail = full.remainder();
        let chunks: Vec<&[u8]> = self.buf.chunks_exact(bs).chain(full).collect();
        self.client.write_blocks_windowed(&self.path, &chunks)?;
        if self.buf.len() == bs {
            self.buf.clear();
        }
        self.buf.extend_from_slice(tail);
        Ok(())
    }

    /// Writes the final partial block and closes the file.
    pub fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        let tail = std::mem::take(&mut self.buf);
        let chunks: Vec<&[u8]> = tail.chunks(self.block_size).collect();
        self.client.write_blocks_windowed(&self.path, &chunks)?;
        self.closed = true;
        self.client.close_file(&self.path)
    }

    /// The path being written.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for FileWriter {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.close();
        }
    }
}

/// Splits `out` — a file's bytes from offset `start` — into one disjoint
/// piece per located block: the block, where in it the piece starts, and
/// the piece. `blocks` must cover the range in file order with no gap
/// (what `GetBlockLocations` over it returns).
fn block_pieces<'b, 'o>(
    blocks: &'b [LocatedBlock],
    start: u64,
    out: &'o mut [u8],
) -> Result<Vec<(&'b LocatedBlock, usize, &'o mut [u8])>> {
    let (mut pos, end) = (start, start + out.len() as u64);
    let (mut rest, mut pieces) = (out, Vec::with_capacity(blocks.len()));
    for lb in blocks {
        if pos == end {
            break;
        }
        if !(lb.offset..lb.end()).contains(&pos) {
            return Err(FsError::Internal(format!(
                "block {} located at offset {}, expected {pos}",
                lb.block.id, lb.offset
            )));
        }
        let len = (lb.end().min(end) - pos) as usize;
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
        pieces.push((lb, (pos - lb.offset) as usize, piece));
        (rest, pos) = (tail, pos + len as u64);
    }
    if pos < end {
        return Err(FsError::Internal(format!("located blocks end at {pos}, expected {end}")));
    }
    Ok(pieces)
}

/// Coordination state of one write: a work counter handing out
/// chunk indices, a turnstile admitting `AddBlock` calls strictly in chunk
/// order (the master appends blocks in call order — the file's byte
/// layout), and first-error cancellation.
struct WriteScheduler {
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// The chunk index whose `AddBlock` may run now.
    turn: Mutex<usize>,
    turn_cv: Condvar,
    cancelled: AtomicBool,
    /// The first error; later failures are dropped (the first is what the
    /// caller acts on).
    error: Mutex<Option<FsError>>,
}

impl WriteScheduler {
    fn new() -> Self {
        Self {
            next: AtomicUsize::new(0),
            turn: Mutex::new(0),
            turn_cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Blocks until chunk `index` may issue its `AddBlock`. Returns false
    /// when the write was cancelled instead (a failed lane never advances
    /// the turn; it wakes the waiters through `fail`).
    fn await_turn(&self, index: usize) -> bool {
        let mut turn = self.turn.lock().unwrap();
        loop {
            if self.cancelled.load(Ordering::SeqCst) {
                return false;
            }
            if *turn == index {
                return true;
            }
            turn = self.turn_cv.wait(turn).unwrap();
        }
    }

    /// Admits the next chunk's `AddBlock` (called once the current one is
    /// allocated, before its transfer runs).
    fn advance_turn(&self) {
        let mut turn = self.turn.lock().unwrap();
        *turn += 1;
        self.turn_cv.notify_all();
    }

    /// Records the first error and cancels the write: no new chunks are
    /// claimed, turnstile waiters wake and exit. Notifying under the turn
    /// lock closes the missed-wakeup race with `await_turn`.
    fn fail(&self, e: FsError) {
        {
            let mut err = self.error.lock().unwrap();
            if err.is_none() {
                *err = Some(e);
            }
        }
        let _turn = self.turn.lock().unwrap();
        self.cancelled.store(true, Ordering::SeqCst);
        self.turn_cv.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    fn take_error(&self) -> Option<FsError> {
        self.error.lock().unwrap().take()
    }
}

/// Renders the scrape bookkeeping as metric samples:
/// `metrics_scrape_errors_total{worker=…}` (cumulative failed scrapes) and
/// `metrics_scrape_age_ms{worker=…}` (time since the last successful
/// scrape; `-1` when the worker has never been scraped successfully).
fn scrape_visibility(scrapes: &HashMap<WorkerId, ScrapeState>) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for (w, state) in scrapes {
        let labels = Labels::worker(*w);
        reg.add("metrics_scrape_errors_total", labels, state.errors);
        let age_ms = state.last_ok.map(|t| t.elapsed().as_millis() as i64).unwrap_or(-1);
        reg.gauge("metrics_scrape_age_ms", labels).set(age_ms);
    }
    reg.snapshot()
}
