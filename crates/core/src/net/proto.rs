//! RPC message types. Every message implements [`Wire`]; responses are
//! encoded as `[status u8][response]` where status 0 carries the response
//! and status 1 carries a [`FsError`] with its variant preserved. A
//! message with a bulk field (a pipeline hop, `Data`, `Edits`) encodes it
//! last, and travels with it as its frame's body.

use octopus_common::trace::{self, TraceContext};
use octopus_common::wire::{Wire, WireReader};
use octopus_common::{
    Block, BlockData, BlockId, BlockTouches, ClientLocation, ClusterStatusReport, DecisionEvent,
    DirEntry, FileStatus, FsError, HeatInfo, LocatedBlock, Location, MediaId, MediaStats,
    MetricsSnapshot, RackId, ReplicationVector, Result, StorageTierReport, TraceSnapshot, WorkerId,
};
use octopus_master::TierQuota;

use super::frame::Frame;
use super::monitor::Round;

/// A request to the master.
#[derive(Debug, Clone, PartialEq)]
pub enum MasterRequest {
    /// `mkdir -p`.
    Mkdir(String),
    /// Create a file; `(path, rv, block_size, lease holder)`.
    CreateFile(String, ReplicationVector, Option<u64>, u64),
    /// Allocate the next block; `(path, len, client location, holder,
    /// excluded workers)`. The exclusion list carries the workers a
    /// client's failed pipeline attempts already hit, so the replacement
    /// placement avoids them (§3.1 recovery).
    AddBlock(String, u64, ClientLocation, u64, Vec<WorkerId>),
    /// Settles a written block, sent once by its pipeline head; `(block,
    /// stages that stored it in pipeline order, stages it never reached)`.
    CommitReplica(Block, Vec<Location>, Vec<Location>),
    /// Close a file; `(path, holder)`.
    CompleteFile(String, u64),
    /// Reopen for append; `(path, holder)`.
    AppendFile(String, u64),
    /// `getFileBlockLocations`; `(path, start, len, client location)`.
    GetBlockLocations(String, u64, u64, ClientLocation),
    /// `setReplication`.
    SetReplication(String, ReplicationVector),
    /// Delete; `(path, recursive)`.
    Delete(String, bool),
    /// Rename; `(src, dst)`.
    Rename(String, String),
    /// List a directory.
    List(String),
    /// Status of a path.
    Status(String),
    /// `getStorageTierReports`.
    TierReports,
    /// Worker registration; `(worker, rack, net_bps, stamp, data-server
    /// address)`, answered [`MasterResponse::Registered`]. The stamp is 0,
    /// and unread: the master keeps its own time.
    RegisterWorker(WorkerId, RackId, f64, u64, String),
    /// Heartbeat; `(worker, media stats, nr_conn, stamp, block touches)`,
    /// the stamp as above. The touches piggyback the worker's per-block
    /// read/write counts for the heat epoch that just closed.
    Heartbeat(WorkerId, Vec<MediaStats>, u32, u64, Vec<BlockTouches>),
    /// Full block report; `(worker, (block, media) pairs)`.
    BlockReport(WorkerId, Vec<(Block, MediaId)>),
    /// The data-server addresses of all registered workers.
    WorkerAddresses,
    /// Edit-log ops at or after the given index, wire-encoded with the
    /// edit log's own framed format (tailed by a backup master — §2.1).
    EditsSince(u64),
    /// A scrubber found (and deleted) a corrupt replica (§5).
    ReportCorrupt(BlockId, Location),
    /// Abandon an allocated-but-unwritten last block after a failed
    /// pipeline, reversing the namespace append; `(path, block, holder)`.
    AbandonBlock(String, Block, u64),
    /// The master's metrics registry snapshot (observability).
    Metrics,
    /// The master's trace-collector snapshot (observability).
    Trace,
    /// Re-place an already-allocated block onto a fresh pipeline, keeping
    /// its slot in the file (parallel-write pipeline recovery — a mid-file
    /// block cannot be abandoned without scrambling block order); `(path,
    /// block, client location, holder, excluded workers)`. Responds with
    /// [`MasterResponse::Allocated`] carrying the same block.
    ReassignBlock(String, Block, ClientLocation, u64, Vec<WorkerId>),
    /// A file's access-heat score (EWMA over heartbeated block touches).
    Heat(String),
    /// The audited placement/retrieval/removal decisions about a block.
    ExplainPlacement(BlockId),
    /// The live cluster status report (`octofs-remote status`).
    ClusterStatus,
    /// The `n` most recent auto-tiering migration decisions, oldest first.
    Migrations(u32),
    /// Set a directory's per-tier quota; `(path, quota)`.
    SetQuota(String, TierQuota),
    /// A directory's per-tier quota and the usage charged against it.
    QuotaUsage(String),
    /// Run one §5 round of the given kind on the master's node; answered
    /// [`MasterResponse::Count`], the round's count. Not resent once it
    /// left: a lost reply is the caller's retryable error, not a second
    /// round whose count would cover only the second.
    RunRound(Round),
}

impl MasterRequest {
    /// Whether a transport-level failure after the request may have
    /// executed can be retried blindly. Mutating requests are not: a
    /// duplicate `CreateFile` or `AddBlock` would corrupt the namespace
    /// view, and a duplicate `RunRound` would run a second round, so their
    /// callers own recovery instead.
    pub fn is_idempotent(&self) -> bool {
        use MasterRequest::*;
        !matches!(
            self,
            CreateFile(..)
                | AddBlock(..)
                | ReassignBlock(..)
                | AbandonBlock(..)
                | CompleteFile(..)
                | AppendFile(..)
                | Delete(..)
                | Rename(..)
                | RunRound(..)
        )
    }

    /// Stable request-type label for metrics (`request_type="..."`).
    pub fn name(&self) -> &'static str {
        use MasterRequest::*;
        match self {
            Mkdir(..) => "Mkdir",
            CreateFile(..) => "CreateFile",
            AddBlock(..) => "AddBlock",
            CommitReplica(..) => "CommitReplica",
            CompleteFile(..) => "CompleteFile",
            AppendFile(..) => "AppendFile",
            GetBlockLocations(..) => "GetBlockLocations",
            SetReplication(..) => "SetReplication",
            Delete(..) => "Delete",
            Rename(..) => "Rename",
            List(..) => "List",
            Status(..) => "Status",
            TierReports => "TierReports",
            RegisterWorker(..) => "RegisterWorker",
            Heartbeat(..) => "Heartbeat",
            BlockReport(..) => "BlockReport",
            WorkerAddresses => "WorkerAddresses",
            EditsSince(..) => "EditsSince",
            ReportCorrupt(..) => "ReportCorrupt",
            AbandonBlock(..) => "AbandonBlock",
            Metrics => "Metrics",
            Trace => "Trace",
            ReassignBlock(..) => "ReassignBlock",
            Heat(..) => "Heat",
            ExplainPlacement(..) => "ExplainPlacement",
            ClusterStatus => "ClusterStatus",
            Migrations(..) => "Migrations",
            SetQuota(..) => "SetQuota",
            QuotaUsage(..) => "QuotaUsage",
            RunRound(..) => "RunRound",
        }
    }
}

/// A successful response from the master.
#[derive(Debug, Clone, PartialEq)]
pub enum MasterResponse {
    /// No payload.
    Unit,
    /// A file status.
    Status(FileStatus),
    /// An allocated block and its pipeline.
    Allocated(Block, Vec<Location>),
    /// Located blocks.
    Located(Vec<LocatedBlock>),
    /// A replication vector (previous value from `setReplication`).
    Vector(ReplicationVector),
    /// Directory entries.
    Entries(Vec<DirEntry>),
    /// Tier reports.
    Reports(Vec<StorageTierReport>),
    /// Replicas dropped by a delete (for local invalidation).
    Dropped(Vec<(BlockId, Location)>),
    /// Block ids a worker should invalidate (block-report reply).
    Invalidate(Vec<BlockId>),
    /// Registered worker data-server addresses.
    Addresses(Vec<(WorkerId, String)>),
    /// A framed edit-log byte stream (see `octopus_master::editlog`).
    Edits(bytes::Bytes),
    /// The master's metrics snapshot.
    Metrics(MetricsSnapshot),
    /// The master's trace snapshot.
    Trace(TraceSnapshot),
    /// A file's heat.
    Heat(HeatInfo),
    /// Audited decision events about a block, oldest first.
    Decisions(Vec<DecisionEvent>),
    /// The live cluster status report.
    ClusterStatus(ClusterStatusReport),
    /// A directory's quota and its usage per tier slot.
    Quota(TierQuota, Vec<u64>),
    /// A worker's registration: the master's heartbeat interval (ms).
    Registered(u64),
    /// What a round counted.
    Count(u64),
}

/// [`MasterRequest::RunRound`]'s tag: the one master request the
/// dispatch pool admits one level deep ([`classify_master_request`]).
const RUN_ROUND: u8 = 34;

impl Wire for Round {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let t = u8::get(r)?;
        let kinds = [Round::Balance, Round::Scrub, Round::Repair];
        kinds.get(t as usize).copied().ok_or_else(|| FsError::Io(format!("bad round kind {t}")))
    }
}

macro_rules! tagged {
    ($buf:expr, $tag:expr $(, $field:expr)*) => {{
        $buf.push($tag);
        $( $field.put($buf); )*
    }};
}

impl Wire for MasterRequest {
    fn put(&self, buf: &mut Vec<u8>) {
        use MasterRequest::*;
        match self {
            Mkdir(p) => tagged!(buf, 0, p),
            CreateFile(p, rv, bs, h) => tagged!(buf, 1, p, rv, bs, h),
            AddBlock(p, len, c, h, x) => tagged!(buf, 2, p, len, c, h, x),
            CompleteFile(p, h) => tagged!(buf, 5, p, h),
            AppendFile(p, h) => tagged!(buf, 6, p, h),
            GetBlockLocations(p, s, l, c) => tagged!(buf, 7, p, s, l, c),
            SetReplication(p, rv) => tagged!(buf, 8, p, rv),
            Delete(p, r) => tagged!(buf, 9, p, r),
            Rename(s, d) => tagged!(buf, 10, s, d),
            List(p) => tagged!(buf, 11, p),
            Status(p) => tagged!(buf, 12, p),
            TierReports => tagged!(buf, 13),
            RegisterWorker(w, r, n, t, a) => tagged!(buf, 14, w, r, n, t, a),
            Heartbeat(w, m, c, t, h) => tagged!(buf, 15, w, m, c, t, h),
            BlockReport(w, b) => tagged!(buf, 16, w, b),
            WorkerAddresses => tagged!(buf, 17),
            EditsSince(n) => tagged!(buf, 18, n),
            ReportCorrupt(b, l) => tagged!(buf, 19, b, l),
            AbandonBlock(p, b, h) => tagged!(buf, 20, p, b, h),
            Metrics => tagged!(buf, 21),
            Trace => tagged!(buf, 22),
            ReassignBlock(p, b, c, h, x) => tagged!(buf, 23, p, b, c, h, x),
            Heat(p) => tagged!(buf, 24, p),
            ExplainPlacement(b) => tagged!(buf, 25, b),
            ClusterStatus => tagged!(buf, 26),
            // Tags 3, 4, 27, 28 and 30 are retired (DESIGN.md §7): never reuse them.
            Migrations(n) => tagged!(buf, 29, n),
            SetQuota(p, q) => tagged!(buf, 31, p, q),
            QuotaUsage(p) => tagged!(buf, 32, p),
            CommitReplica(b, s, u) => tagged!(buf, 33, b, s, u),
            RunRound(k) => tagged!(buf, RUN_ROUND, k),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        use MasterRequest::*;
        Ok(match u8::get(r)? {
            0 => Mkdir(Wire::get(r)?),
            1 => CreateFile(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            2 => {
                AddBlock(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?)
            }
            5 => CompleteFile(Wire::get(r)?, Wire::get(r)?),
            6 => AppendFile(Wire::get(r)?, Wire::get(r)?),
            7 => GetBlockLocations(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            8 => SetReplication(Wire::get(r)?, Wire::get(r)?),
            9 => Delete(Wire::get(r)?, Wire::get(r)?),
            10 => Rename(Wire::get(r)?, Wire::get(r)?),
            11 => List(Wire::get(r)?),
            12 => Status(Wire::get(r)?),
            13 => TierReports,
            14 => RegisterWorker(
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
            ),
            15 => {
                Heartbeat(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?)
            }
            16 => BlockReport(Wire::get(r)?, Wire::get(r)?),
            17 => WorkerAddresses,
            18 => EditsSince(Wire::get(r)?),
            19 => ReportCorrupt(Wire::get(r)?, Wire::get(r)?),
            20 => AbandonBlock(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            21 => Metrics,
            22 => Trace,
            23 => ReassignBlock(
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
                Wire::get(r)?,
            ),
            24 => Heat(Wire::get(r)?),
            25 => ExplainPlacement(Wire::get(r)?),
            26 => ClusterStatus,
            29 => Migrations(Wire::get(r)?),
            31 => SetQuota(Wire::get(r)?, Wire::get(r)?),
            32 => QuotaUsage(Wire::get(r)?),
            33 => CommitReplica(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            RUN_ROUND => RunRound(Wire::get(r)?),
            t => return Err(FsError::Io(format!("bad master request tag {t}"))),
        })
    }
}

impl Wire for MasterResponse {
    fn put(&self, buf: &mut Vec<u8>) {
        use MasterResponse::*;
        match self {
            Unit => tagged!(buf, 0),
            Status(s) => tagged!(buf, 1, s),
            Allocated(b, locs) => tagged!(buf, 2, b, locs),
            Located(l) => tagged!(buf, 3, l),
            Vector(v) => tagged!(buf, 4, v),
            Entries(e) => tagged!(buf, 5, e),
            Reports(r) => tagged!(buf, 6, r),
            Dropped(d) => tagged!(buf, 7, d),
            Invalidate(i) => tagged!(buf, 8, i),
            Addresses(a) => tagged!(buf, 9, a),
            Edits(b) => tagged!(buf, 10, b),
            Metrics(s) => tagged!(buf, 11, s),
            Trace(s) => tagged!(buf, 12, s),
            Heat(h) => tagged!(buf, 13, h),
            Decisions(d) => tagged!(buf, 14, d),
            ClusterStatus(c) => tagged!(buf, 15, c),
            // Tags 16, 17 and 18 are retired (DESIGN.md §7): never reuse them.
            Quota(q, u) => tagged!(buf, 19, q, u),
            Registered(ms) => tagged!(buf, 20, ms),
            Count(n) => tagged!(buf, 21, n),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        use MasterResponse::*;
        Ok(match u8::get(r)? {
            0 => Unit,
            1 => Status(Wire::get(r)?),
            2 => Allocated(Wire::get(r)?, Wire::get(r)?),
            3 => Located(Wire::get(r)?),
            4 => Vector(Wire::get(r)?),
            5 => Entries(Wire::get(r)?),
            6 => Reports(Wire::get(r)?),
            7 => Dropped(Wire::get(r)?),
            8 => Invalidate(Wire::get(r)?),
            9 => Addresses(Wire::get(r)?),
            10 => Edits(Wire::get(r)?),
            11 => Metrics(Wire::get(r)?),
            12 => Trace(Wire::get(r)?),
            13 => Heat(Wire::get(r)?),
            14 => Decisions(Wire::get(r)?),
            15 => ClusterStatus(Wire::get(r)?),
            19 => Quota(Wire::get(r)?, Wire::get(r)?),
            20 => Registered(Wire::get(r)?),
            21 => Count(Wire::get(r)?),
            t => return Err(FsError::Io(format!("bad master response tag {t}"))),
        })
    }
}

/// A request to a worker's data server.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerRequest {
    /// A client's write to a pipeline head: store a block on `media` and
    /// forward down the remaining pipeline; `(block, media, rest of
    /// pipeline, payload)`. The ack aggregates every stored location, and
    /// the head settles the block with one `CommitReplica` before it acks.
    WriteBlock(Block, MediaId, Vec<Location>, BlockData),
    /// One stage-to-stage hop of a `WriteBlock`, with its fields: store and
    /// forward, with no call to the master.
    Forward(Block, MediaId, Vec<Location>, BlockData),
    /// Read a block replica.
    ReadBlock(MediaId, BlockId),
    /// Invalidate a replica.
    DeleteBlock(MediaId, BlockId),
    /// Re-replicate: pull `block` from one of `sources` (best first) and
    /// store it on the local `media` (§5). The monitor that sent the copy
    /// settles it at the master.
    Replicate(Block, Vec<Location>, MediaId),
    /// Verify every local replica's checksum; corrupt ones are deleted
    /// and reported to the master (the §5 scrubber). Responds with the
    /// number of corrupt replicas found.
    Scrub,
    /// The worker's metrics registry snapshot (observability).
    Metrics,
    /// The worker's trace-collector snapshot (observability).
    Trace,
}

impl WorkerRequest {
    /// Whether a transport-level failure after the request may have
    /// executed can be retried blindly. Only a pipeline hop (`WriteBlock`
    /// or `Forward`) is not: a blind resend would re-run the rest of the
    /// pipeline; its caller recovers by re-placing the block.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, WorkerRequest::WriteBlock(..) | WorkerRequest::Forward(..))
    }

    /// Stable request-type label for metrics (`request_type="..."`).
    pub fn name(&self) -> &'static str {
        use WorkerRequest::*;
        match self {
            // One label for every hop, whoever sent it: hop counts read it.
            WriteBlock(..) | Forward(..) => "WriteBlock",
            ReadBlock(..) => "ReadBlock",
            DeleteBlock(..) => "DeleteBlock",
            Replicate(..) => "Replicate",
            Scrub => "Scrub",
            Metrics => "Metrics",
            Trace => "Trace",
        }
    }
}

/// A successful response from a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerResponse {
    /// Locations that acknowledged the write, pipeline order.
    Stored(Vec<Location>),
    /// Block payload plus the CRC-32 the worker recorded at write time.
    /// Readers recompute the CRC over the received bytes, catching both
    /// at-rest and in-flight corruption before failing over (§4.1).
    Data(BlockData, u32),
    /// No payload.
    Unit,
    /// Scrub outcome: number of corrupt replicas dropped.
    Scrubbed(u32),
    /// The worker's metrics snapshot.
    Metrics(MetricsSnapshot),
    /// The worker's trace snapshot.
    Trace(TraceSnapshot),
}

impl Wire for WorkerRequest {
    fn put(&self, buf: &mut Vec<u8>) {
        use WorkerRequest::*;
        match self {
            WriteBlock(b, m, rest, d) => tagged!(buf, 0, b, m, rest, d),
            ReadBlock(m, b) => tagged!(buf, 1, m, b),
            DeleteBlock(m, b) => tagged!(buf, 2, m, b),
            Replicate(b, s, m) => tagged!(buf, 3, b, s, m),
            Scrub => tagged!(buf, 4),
            Metrics => tagged!(buf, 5),
            Trace => tagged!(buf, 6),
            // Tag 7 is retired (DESIGN.md §7): never reuse it.
            Forward(b, m, rest, d) => tagged!(buf, 8, b, m, rest, d),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        use WorkerRequest::*;
        Ok(match u8::get(r)? {
            0 => WriteBlock(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            1 => ReadBlock(Wire::get(r)?, Wire::get(r)?),
            2 => DeleteBlock(Wire::get(r)?, Wire::get(r)?),
            3 => Replicate(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            4 => Scrub,
            5 => Metrics,
            6 => Trace,
            8 => Forward(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            t => return Err(FsError::Io(format!("bad worker request tag {t}"))),
        })
    }
}

impl Wire for WorkerResponse {
    fn put(&self, buf: &mut Vec<u8>) {
        use WorkerResponse::*;
        match self {
            Stored(l) => tagged!(buf, 0, l),
            Unit => tagged!(buf, 2),
            Scrubbed(n) => tagged!(buf, 3, n),
            Metrics(s) => tagged!(buf, 4, s),
            Trace(s) => tagged!(buf, 5, s),
            // The checksum goes ahead of the block, so the block is last
            // and travels as the frame's body.
            Data(d, sum) => tagged!(buf, 7, sum, d),
            // Tags 1 (`Data` with the checksum after the block) and 6 are
            // retired (DESIGN.md §7): never reuse them.
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        use WorkerResponse::*;
        Ok(match u8::get(r)? {
            0 => Stored(Wire::get(r)?),
            2 => Unit,
            3 => Scrubbed(Wire::get(r)?),
            4 => Metrics(Wire::get(r)?),
            5 => Trace(Wire::get(r)?),
            7 => {
                let sum = u32::get(r)?;
                Data(Wire::get(r)?, sum)
            }
            t => return Err(FsError::Io(format!("bad worker response tag {t}"))),
        })
    }
}

/// Encodes `Result<R>` as a status-tagged payload.
pub fn encode_result<R: Wire>(res: &Result<R>) -> Vec<u8> {
    let mut buf = Vec::new();
    match res {
        Ok(r) => {
            buf.push(0);
            r.put(&mut buf);
        }
        Err(e) => {
            buf.push(1);
            e.put(&mut buf);
        }
    }
    buf
}

/// An RPC payload to send: the encoded `head` and, for a message whose
/// last field is bulk bytes, those bytes as the `body`. Laid end to end
/// the two are the message's plain encoding. The body is shared, never
/// copied: it goes to the socket from the caller's buffer.
#[derive(Debug, Clone)]
pub struct FramePayload {
    /// Encoded fields up to the body (its length prefix included).
    pub head: Vec<u8>,
    /// The bulk field's bytes, if the message travels with a body.
    pub body: Option<bytes::Bytes>,
}

impl FramePayload {
    /// A payload with no body (every message without a bulk field).
    pub fn small(head: Vec<u8>) -> Self {
        Self { head, body: None }
    }

    /// Flattens into one contiguous buffer: the message's plain encoding.
    /// The data path never does this.
    pub fn concat(&self) -> Vec<u8> {
        [&self.head[..], self.body.as_deref().unwrap_or_default()].concat()
    }
}

/// A payload whose last field is the bulk `body`: `head` holds every field
/// before it, and gets the body's `u32` length prefix here — end to end,
/// the message's `Wire` encoding.
fn with_body(mut head: Vec<u8>, body: &bytes::Bytes) -> FramePayload {
    (body.len() as u32).put(&mut head);
    FramePayload { head, body: Some(body.clone()) }
}

/// Encodes a worker request as a [`FramePayload`]. A pipeline hop carrying
/// real bytes sends the block as the body; everything else has no body.
pub fn encode_worker_frame(req: &WorkerRequest) -> FramePayload {
    match req {
        WorkerRequest::WriteBlock(b, m, rest, BlockData::Real(bytes)) => {
            FramePayload { head: hop_head(0, b, m, rest, bytes.len()), body: Some(bytes.clone()) }
        }
        WorkerRequest::Forward(b, m, rest, BlockData::Real(bytes)) => {
            FramePayload { head: hop_head(8, b, m, rest, bytes.len()), body: Some(bytes.clone()) }
        }
        _ => FramePayload::small(octopus_common::wire::encode(req)),
    }
}

/// A block's bytes as a client's write lends them: the caller's own slice,
/// or a synthetic block (the simulator's), which has none.
#[derive(Debug, Clone, Copy)]
pub enum BlockRef<'a> {
    /// Real bytes, lent.
    Real(&'a [u8]),
    /// A synthetic block: its length and generator seed.
    Synthetic {
        /// Length in bytes.
        len: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl BlockRef<'_> {
    /// The block as a message owns it: a copy of lent bytes.
    pub fn to_data(self) -> BlockData {
        match self {
            BlockRef::Real(bytes) => BlockData::Real(bytes::Bytes::copy_from_slice(bytes)),
            BlockRef::Synthetic { len, seed } => BlockData::Synthetic { len, seed },
        }
    }
}

/// Encodes `WriteBlock(block, media, rest, data)` as a head and the body
/// that follows it: lent bytes travel as the body straight from `data`,
/// and a synthetic block, which has no bytes, in the head. End to end the
/// two are the request's `Wire` encoding.
pub fn encode_write_block<'a>(
    block: &Block,
    media: &MediaId,
    rest: &[Location],
    data: BlockRef<'a>,
) -> (Vec<u8>, Option<&'a [u8]>) {
    match data {
        BlockRef::Real(bytes) => (hop_head(0, block, media, rest, bytes.len()), Some(bytes)),
        BlockRef::Synthetic { .. } => {
            let req = WorkerRequest::WriteBlock(*block, *media, rest.to_vec(), data.to_data());
            (octopus_common::wire::encode(&req), None)
        }
    }
}

/// A pipeline hop's head: its tag and fields, `BlockData::Real`'s tag and
/// the body's `u32` length prefix.
fn hop_head(tag: u8, block: &Block, media: &MediaId, rest: &[Location], len: usize) -> Vec<u8> {
    let mut head = Vec::with_capacity(64);
    tagged!(&mut head, tag, block, media);
    // `Vec<Location>`'s encoding, of a slice.
    (rest.len() as u32).put(&mut head);
    rest.iter().for_each(|l| l.put(&mut head));
    head.push(0);
    (len as u32).put(&mut head);
    head
}

/// Decodes the head of a `ReadBlock` response whose block was not
/// received but landed in the caller's `len`-byte slice: the head must be
/// a `Data` response with real bytes of that length. Returns the checksum
/// the worker recorded at write time.
pub fn decode_landed_data(head: &[u8], len: usize) -> Result<u32> {
    let mut r = WireReader::new(head);
    let (status, tag) = (u8::get(&mut r)?, u8::get(&mut r)?);
    let sum = u32::get(&mut r)?;
    let (real, body_len) = (u8::get(&mut r)?, u32::get(&mut r)?);
    r.expect_finished()?;
    if (status, tag, real, body_len as usize) != (0, 7, 0, len) {
        return Err(FsError::Io(format!("a landed body's head is not {len} B of block data")));
    }
    Ok(sum)
}

/// Encodes a worker result as a [`FramePayload`]. A `Data` response with
/// real bytes sends the block as the body.
pub fn encode_worker_result_frame(res: &Result<WorkerResponse>) -> FramePayload {
    if let Ok(WorkerResponse::Data(BlockData::Real(bytes), sum)) = res {
        // Status 0, `Data`'s tag and checksum, then `BlockData::Real`'s tag.
        let mut head = vec![0u8, 7];
        sum.put(&mut head);
        head.push(0);
        with_body(head, bytes)
    } else {
        FramePayload::small(encode_result(res))
    }
}

/// Encodes a master result as a [`FramePayload`]. An `Edits` range is sent
/// as the body.
pub fn encode_master_result_frame(res: &Result<MasterResponse>) -> FramePayload {
    match res {
        // Status 0, then the response's tag.
        Ok(MasterResponse::Edits(bytes)) => with_body(vec![0, 10], bytes),
        _ => FramePayload::small(encode_result(res)),
    }
}

/// Decodes a request frame into its trace context, if it came behind an
/// envelope, and the request. A bulk field decodes as a view of the
/// frame's body, not a copy.
pub fn decode_request<R: Wire>(frame: &Frame) -> Result<(Option<TraceContext>, R)> {
    let (ctx, bare) = trace::unwrap_envelope(&frame.head)?;
    let mut r = WireReader::new_shared(&frame.head, frame.head.len() - bare.len())
        .with_body(frame.body.as_ref());
    let req = R::get(&mut r)?;
    r.expect_finished()?;
    Ok((ctx, req))
}

/// Decodes a status-tagged response frame into `Result<R>`. A bulk field
/// decodes as a view of the frame's body, not a copy.
pub fn decode_result<R: Wire>(frame: &Frame) -> Result<R> {
    let mut r = WireReader::new_shared(&frame.head, 0).with_body(frame.body.as_ref());
    match u8::get(&mut r)? {
        0 => {
            let v = R::get(&mut r)?;
            r.expect_finished()?;
            Ok(v)
        }
        1 => {
            let e = FsError::get(&mut r)?;
            r.expect_finished()?;
            Err(e)
        }
        t => Err(FsError::Io(format!("bad result status {t}"))),
    }
}

/// Pipeline depth of an encoded master request (`head` as for
/// [`classify_worker_request`]). A `RunRound` is depth 1: the round waits
/// on workers whose calls back to this master (a scrub's `ReportCorrupt`,
/// the heartbeats the round waits for) must still find a thread.
/// Everything else the master answers without calling anyone (depth 0).
pub fn classify_master_request(head: &[u8]) -> usize {
    usize::from(head.first() == Some(&RUN_ROUND))
}

/// Pipeline depth of an encoded worker request (`head` is its frame's
/// head from the request tag on, after any trace envelope): how many
/// further nested worker RPC levels serving it can require. A pipeline
/// hop (`WriteBlock` or `Forward`) with N more stages is depth N (the
/// head's commit goes to the master, which answers it without calling
/// anyone); `Replicate` issues one nested `ReadBlock` (depth 1);
/// everything else resolves locally (depth 0). The dispatch pool admits a
/// depth only while every level it raises keeps threads free for the
/// shallower ones, which keeps nested forwards deadlock-free.
pub fn classify_worker_request(head: &[u8]) -> usize {
    let mut r = WireReader::new(head);
    match u8::get(&mut r) {
        Ok(0 | 8) => {
            if Block::get(&mut r).is_err() || MediaId::get(&mut r).is_err() {
                return 0;
            }
            // Vec<Location> starts with its u32 element count.
            match u32::get(&mut r) {
                Ok(n) => n as usize,
                Err(_) => 0,
            }
        }
        Ok(3) => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::wire::{decode, encode};
    use octopus_common::{GenStamp, TierId};

    fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(decode::<T>(&encode(&v)).unwrap(), v);
    }

    /// `payload` as its receiver gets it.
    fn received(payload: &FramePayload) -> Frame {
        Frame { head: payload.head.clone().into(), body: payload.body.clone() }
    }

    #[test]
    fn master_messages_round_trip() {
        rt(MasterRequest::Mkdir("/a".into()));
        rt(MasterRequest::CreateFile(
            "/f".into(),
            ReplicationVector::msh(1, 0, 2),
            Some(1 << 20),
            42,
        ));
        rt(MasterRequest::AddBlock(
            "/f".into(),
            100,
            ClientLocation::OnWorker(WorkerId(3)),
            42,
            vec![WorkerId(1), WorkerId(7)],
        ));
        rt(MasterRequest::AbandonBlock(
            "/f".into(),
            Block { id: BlockId(8), gen: GenStamp(2), len: 100 },
            42,
        ));
        rt(MasterRequest::ReassignBlock(
            "/f".into(),
            Block { id: BlockId(8), gen: GenStamp(2), len: 100 },
            ClientLocation::OffCluster,
            42,
            vec![WorkerId(0), WorkerId(3)],
        ));
        rt(MasterRequest::TierReports);
        rt(MasterRequest::BlockReport(
            WorkerId(1),
            vec![(Block { id: BlockId(1), gen: GenStamp(0), len: 5 }, MediaId(2))],
        ));
        rt(MasterResponse::Unit);
        rt(MasterResponse::Registered(40));
        rt(MasterResponse::Allocated(
            Block { id: BlockId(9), gen: GenStamp(1), len: 7 },
            vec![Location { worker: WorkerId(0), media: MediaId(1), tier: TierId(2) }],
        ));
        rt(MasterResponse::Invalidate(vec![BlockId(4), BlockId(5)]));
        let loc = |w| Location { worker: WorkerId(w), media: MediaId(w), tier: TierId(0) };
        rt(MasterRequest::CommitReplica(
            Block { id: BlockId(8), gen: GenStamp(2), len: 100 },
            vec![loc(0), loc(1)],
            vec![loc(2)],
        ));
    }

    #[test]
    fn worker_messages_round_trip() {
        rt(WorkerRequest::WriteBlock(
            Block { id: BlockId(1), gen: GenStamp(0), len: 3 },
            MediaId(0),
            vec![],
            BlockData::Real(bytes::Bytes::from_static(b"abc")),
        ));
        rt(WorkerRequest::Forward(
            Block { id: BlockId(1), gen: GenStamp(0), len: 3 },
            MediaId(2),
            vec![Location { worker: WorkerId(4), media: MediaId(9), tier: TierId(1) }],
            BlockData::Real(bytes::Bytes::from_static(b"abc")),
        ));
        rt(WorkerRequest::ReadBlock(MediaId(1), BlockId(2)));
        rt(WorkerResponse::Data(BlockData::Synthetic { len: 10, seed: 3 }, 0));
        rt(WorkerResponse::Data(BlockData::Real(bytes::Bytes::from_static(b"xyz")), 0xdead_beef));
        rt(WorkerResponse::Stored(vec![]));
    }

    #[test]
    fn idempotency_classification() {
        assert!(MasterRequest::Status("/f".into()).is_idempotent());
        assert!(MasterRequest::Heartbeat(WorkerId(0), vec![], 0, 0, vec![]).is_idempotent());
        assert!(MasterRequest::Heat("/f".into()).is_idempotent());
        assert!(MasterRequest::ExplainPlacement(BlockId(1)).is_idempotent());
        assert!(MasterRequest::ClusterStatus.is_idempotent());
        assert!(MasterRequest::Migrations(5).is_idempotent());
        assert!(MasterRequest::CommitReplica(
            Block { id: BlockId(1), gen: GenStamp(0), len: 1 },
            vec![Location { worker: WorkerId(0), media: MediaId(0), tier: TierId(0) }],
            vec![],
        )
        .is_idempotent());
        assert!(!MasterRequest::AddBlock("/f".into(), 1, ClientLocation::OffCluster, 1, vec![],)
            .is_idempotent());
        assert!(!MasterRequest::ReassignBlock(
            "/f".into(),
            Block { id: BlockId(1), gen: GenStamp(0), len: 1 },
            ClientLocation::OffCluster,
            1,
            vec![],
        )
        .is_idempotent());
        // A round is not resent after a lost reply, so it never runs twice
        // for one request.
        assert!(!MasterRequest::RunRound(Round::Repair).is_idempotent());
        assert!(!MasterRequest::Delete("/f".into(), false).is_idempotent());
        assert!(!MasterRequest::Rename("/a".into(), "/b".into()).is_idempotent());

        assert!(WorkerRequest::ReadBlock(MediaId(0), BlockId(1)).is_idempotent());
        assert!(WorkerRequest::Scrub.is_idempotent());
        for hop in [WorkerRequest::WriteBlock, WorkerRequest::Forward] {
            let req = hop(
                Block { id: BlockId(1), gen: GenStamp(0), len: 1 },
                MediaId(0),
                vec![],
                BlockData::Synthetic { len: 1, seed: 0 },
            );
            assert!(!req.is_idempotent());
            assert_eq!(req.name(), "WriteBlock", "a hop keeps its label");
        }
    }

    #[test]
    fn metrics_messages_round_trip() {
        use octopus_common::metrics::{Labels, MetricsRegistry};
        rt(MasterRequest::Metrics);
        rt(WorkerRequest::Metrics);
        assert!(MasterRequest::Metrics.is_idempotent());
        assert!(WorkerRequest::Metrics.is_idempotent());
        assert_eq!(MasterRequest::Metrics.name(), "Metrics");

        let reg = MetricsRegistry::new();
        reg.add("x_total", Labels::req("ReadBlock").with_tier(TierId(1)), 7);
        reg.histogram("lat_us", Labels::worker(WorkerId(2))).observe_us(99);
        rt(MasterResponse::Metrics(reg.snapshot()));
        rt(WorkerResponse::Metrics(reg.snapshot()));
    }

    #[test]
    fn trace_messages_round_trip() {
        use octopus_common::trace::TraceCollector;
        rt(MasterRequest::Trace);
        rt(WorkerRequest::Trace);
        assert!(MasterRequest::Trace.is_idempotent());
        assert!(WorkerRequest::Trace.is_idempotent());
        assert_eq!(MasterRequest::Trace.name(), "Trace");
        assert_eq!(WorkerRequest::Trace.name(), "Trace");

        let col = TraceCollector::new("test");
        {
            let mut s = col.root("op");
            s.annotate("block", 7);
        }
        rt(MasterResponse::Trace(col.snapshot()));
        rt(WorkerResponse::Trace(col.snapshot()));
    }

    #[test]
    fn telemetry_messages_round_trip() {
        use octopus_common::{
            BlockTouches, CandidateScore, ClusterStatusReport, DecisionEvent, DecisionKind,
            DecisionRound, HeatInfo, INodeId,
        };
        rt(MasterRequest::Heartbeat(
            WorkerId(3),
            vec![],
            2,
            999,
            vec![BlockTouches { block: BlockId(7), reads: 4, writes: 1 }],
        ));
        rt(MasterRequest::Heat("/f".into()));
        rt(MasterRequest::ExplainPlacement(BlockId(9)));
        rt(MasterRequest::ClusterStatus);
        rt(MasterRequest::Migrations(10));
        assert_eq!(MasterRequest::Heat("/f".into()).name(), "Heat");
        assert_eq!(MasterRequest::ExplainPlacement(BlockId(1)).name(), "ExplainPlacement");
        assert_eq!(MasterRequest::ClusterStatus.name(), "ClusterStatus");

        rt(MasterResponse::Heat(HeatInfo {
            file: INodeId(4),
            reads_ewma: 1.5,
            writes_ewma: 0.5,
            cur_reads: 2,
            cur_writes: 0,
            score: 2.1,
            last_touch_ms: 4_000,
        }));
        rt(MasterResponse::Decisions(vec![DecisionEvent {
            seq: 1,
            when_ms: 50,
            kind: DecisionKind::Placement,
            block: BlockId(9),
            file: INodeId(4),
            policy: "MOOP".into(),
            chosen: vec![Location { worker: WorkerId(0), media: MediaId(2), tier: TierId(1) }],
            rounds: vec![DecisionRound {
                replica_index: 0,
                tier_pin: None,
                candidates: vec![CandidateScore {
                    media: MediaId(2),
                    worker: WorkerId(0),
                    tier: TierId(1),
                    total: 0.4,
                    db: 0.9,
                    lb: 1.0,
                    ft: 3.0,
                    tm: 0.8,
                    chosen: true,
                }],
                chosen_media: Some(MediaId(2)),
            }],
        }]));
        rt(MasterResponse::ClusterStatus(ClusterStatusReport::default()));
    }

    #[test]
    fn quota_messages_round_trip() {
        let mut quota = TierQuota::limit_tier(2, 1 << 40);
        quota.per_tier[0] = Some(0);
        rt(MasterRequest::SetQuota("/tenant".into(), quota));
        rt(MasterRequest::QuotaUsage("/tenant".into()));
        rt(MasterResponse::Quota(quota, vec![0, 0, 7 << 30, 0, 0, 0, 0]));
        assert!(MasterRequest::SetQuota("/t".into(), quota).is_idempotent());
        assert_eq!(MasterRequest::QuotaUsage("/t".into()).name(), "QuotaUsage");
    }

    #[test]
    fn frame_payloads_match_wire_encoding() {
        // The scatter/gather encodings must byte-for-byte match the plain
        // `Wire` encodings — a receiver cannot tell them apart.
        for hop in [WorkerRequest::WriteBlock, WorkerRequest::Forward] {
            let req = hop(
                Block { id: BlockId(5), gen: GenStamp(1), len: 6 },
                MediaId(2),
                vec![Location { worker: WorkerId(1), media: MediaId(0), tier: TierId(0) }],
                BlockData::Real(bytes::Bytes::from_static(b"payload")),
            );
            let frame = encode_worker_frame(&req);
            assert!(frame.body.is_some());
            assert_eq!(frame.concat(), encode(&req));
        }

        let res: Result<WorkerResponse> =
            Ok(WorkerResponse::Data(BlockData::Real(bytes::Bytes::from_static(b"data")), 0xfeed));
        assert_eq!(encode_worker_result_frame(&res).concat(), encode_result(&res));

        let mres = Ok(MasterResponse::Edits(bytes::Bytes::from_static(b"oplog")));
        let frame = encode_master_result_frame(&mres);
        assert!(frame.body.is_some());
        assert_eq!(frame.concat(), encode_result(&mres));

        // Small messages take the head-only path.
        let small = encode_worker_frame(&WorkerRequest::Scrub);
        assert!(small.body.is_none());
        assert_eq!(small.concat(), encode(&WorkerRequest::Scrub));
    }

    #[test]
    fn a_block_is_the_last_field_and_decodes_as_a_view_of_the_body() {
        let data = bytes::Bytes::from(vec![42u8; 4096]);
        let res: Result<WorkerResponse> = Ok(WorkerResponse::Data(BlockData::Real(data), 7));
        let sent = encode_worker_result_frame(&res);
        // `[status][tag][u32 checksum][BlockData tag][u32 len]`, then the block.
        assert_eq!(&sent.head[..], &[0, 7, 7, 0, 0, 0, 0, 0, 16, 0, 0][..]);
        let frame = received(&sent);
        let body = frame.body.clone().unwrap();
        let WorkerResponse::Data(BlockData::Real(out), 7) = decode_result(&frame).unwrap() else {
            panic!("wrong decode");
        };
        assert!(std::ptr::eq(out.as_ptr(), body.as_ptr()), "the block is the body, not a copy");
        // The same bytes in one flat buffer decode the same.
        assert_eq!(decode_result(&received(&FramePayload::small(sent.concat()))), res);
    }

    /// Every tag in `tags` decodes as an error for `T`, bare or followed by
    /// a field such as its old message carried.
    fn refused<T: Wire>(tags: &[u8]) {
        let kind = std::any::type_name::<T>();
        for &tag in tags {
            let mut with_field = vec![tag];
            "/f".to_string().put(&mut with_field);
            for m in [vec![tag], with_field] {
                assert!(decode::<T>(&m).is_err(), "{kind} tag {tag} decoded from {m:?}");
            }
        }
    }

    #[test]
    fn retired_tags_stay_retired() {
        // DESIGN.md §7: a retired tag is never reused.
        refused::<MasterRequest>(&[3, 4, 27, 28, 30]);
        refused::<MasterResponse>(&[16, 17, 18]);
        refused::<WorkerRequest>(&[7]);
        refused::<WorkerResponse>(&[1, 6]);
    }

    #[test]
    fn worker_requests_classify_by_forward_depth() {
        let block = Block { id: BlockId(1), gen: GenStamp(0), len: 1 };
        let loc = |w| Location { worker: WorkerId(w), media: MediaId(0), tier: TierId(0) };
        for hop in [WorkerRequest::WriteBlock, WorkerRequest::Forward] {
            let wb = |rest: Vec<Location>| {
                encode(&hop(block, MediaId(0), rest, BlockData::Synthetic { len: 1, seed: 0 }))
            };
            assert_eq!(classify_worker_request(&wb(vec![])), 0);
            assert_eq!(classify_worker_request(&wb(vec![loc(1)])), 1);
            assert_eq!(classify_worker_request(&wb(vec![loc(1), loc(2)])), 2);
            assert_eq!(classify_worker_request(&wb(vec![loc(1), loc(2), loc(3)])), 3);
            assert_eq!(classify_worker_request(&wb((1..16).map(loc).collect())), 15);
        }
        assert_eq!(
            classify_worker_request(&encode(&WorkerRequest::Replicate(block, vec![], MediaId(0)))),
            1
        );
        assert_eq!(classify_worker_request(&encode(&WorkerRequest::Scrub)), 0);
        assert_eq!(
            classify_worker_request(&encode(&WorkerRequest::ReadBlock(MediaId(0), BlockId(1)))),
            0
        );
        assert_eq!(classify_worker_request(b""), 0); // garbage never panics
    }

    #[test]
    fn rounds_round_trip_and_only_they_classify_one_deep_at_the_master() {
        for round in [Round::Balance, Round::Scrub, Round::Repair] {
            rt(MasterRequest::RunRound(round));
            assert_eq!(classify_master_request(&encode(&MasterRequest::RunRound(round))), 1);
        }
        rt(MasterResponse::Count(7));
        assert!(decode::<MasterRequest>(&[RUN_ROUND, 3]).is_err());
        for other in [MasterRequest::Status("/".into()), MasterRequest::ClusterStatus] {
            assert_eq!(classify_master_request(&encode(&other)), 0);
        }
        assert_eq!(classify_master_request(b""), 0);
    }

    #[test]
    fn results_round_trip_with_error_variants() {
        let ok: Result<MasterResponse> = Ok(MasterResponse::Unit);
        let enc = received(&encode_master_result_frame(&ok));
        assert_eq!(decode_result::<MasterResponse>(&enc).unwrap(), MasterResponse::Unit);

        let err: Result<MasterResponse> = Err(FsError::LeaseConflict("held".into()));
        let enc = received(&encode_master_result_frame(&err));
        assert!(matches!(
            decode_result::<MasterResponse>(&enc),
            Err(FsError::LeaseConflict(m)) if m == "held"
        ));
    }
}
