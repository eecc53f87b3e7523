//! The edit log: a durable record of namespace mutations, and the
//! checkpoint ("fsimage") machinery built on it.
//!
//! Every mutation the master applies is first recorded as an [`EditOp`].
//! Ops use a compact self-describing binary encoding (a tag byte, then
//! fields in the wire codec's layout — [`octopus_common::wire`]: little-
//! endian integers, `u32`-length-prefixed strings; a DFS edit log wants a
//! stable on-disk format, not a generic serializer), each record protected
//! by a CRC-32. A checkpoint is simply the namespace
//! re-expressed as the minimal op sequence that recreates it, so restore =
//! replay(checkpoint) + replay(tail of the log) — exactly the HDFS
//! fsimage/edits model the paper inherits (§2.1).
//!
//! The log has one representation: the framed records themselves, in a
//! file (or, for [`EditLog::in_memory`], a byte vector). The master's heap
//! holds its namespace, not its history — replay streams the records
//! through a fixed ring of buffers, read and CRC-checked a chunk ahead on
//! a helper thread, and the backup master is handed the log's own bytes.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use octopus_common::checksum::crc32;
use octopus_common::wire::{put_str, Wire, WireReader};
use octopus_common::{
    Block, BlockId, FsError, GenStamp, INodeId, ReplicationVector, Result, MAX_TIERS,
};
use parking_lot::{Mutex, MutexGuard};

use crate::namespace::{Cursor, Namespace, TierQuota};

/// One namespace mutation. `S` is how it holds its paths: `String` for an
/// op on its way into the log, `&str` for one borrowed out of a record
/// during replay ([`EditRef`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp<S = String> {
    /// `mkdir -p path`.
    Mkdir {
        /// Directory path.
        path: S,
    },
    /// Create an empty file open for writing.
    CreateFile {
        /// File path.
        path: S,
        /// Replication vector (64-bit encoding).
        rv: ReplicationVector,
        /// Block size.
        block_size: u64,
    },
    /// Append a block to an open file.
    AddBlock {
        /// File path.
        path: S,
        /// Block id.
        block: BlockId,
        /// Generation stamp.
        gen: u64,
        /// Block length.
        len: u64,
    },
    /// Close (complete) a file.
    CloseFile {
        /// File path.
        path: S,
    },
    /// Reopen a complete file for append.
    AppendFile {
        /// File path.
        path: S,
    },
    /// Rename a file or directory.
    Rename {
        /// Source path.
        src: S,
        /// Destination path.
        dst: S,
    },
    /// Delete a file or directory subtree.
    Delete {
        /// Path to delete.
        path: S,
    },
    /// Replace a file's replication vector.
    SetReplication {
        /// File path.
        path: S,
        /// The new vector.
        rv: ReplicationVector,
    },
    /// Set a directory's per-tier quota.
    SetQuota {
        /// Directory path.
        path: S,
        /// The quota, boxed: it is 112 bytes, and inline it made every op
        /// in every staged batch and every caller's vector 136.
        quota: Box<TierQuota>,
    },
    /// Remove the last (uncommitted) block of an open file — pipeline
    /// recovery abandoned it after a write failure.
    AbandonBlock {
        /// File path.
        path: S,
        /// The abandoned block.
        block: BlockId,
        /// Its length (for the quota refund on replay).
        len: u64,
    },
}

/// An op whose paths point into the record it was decoded from.
pub type EditRef<'a> = EditOp<&'a str>;

/// The group committer's staging vector and every `append_batch` caller's
/// vector hold one of these per op: 136 bytes each while `SetQuota` carried
/// its quota inline.
const _: () = assert!(std::mem::size_of::<EditOp>() <= 56);

const TAG_MKDIR: u8 = 1;
const TAG_CREATE: u8 = 2;
const TAG_ADD_BLOCK: u8 = 3;
const TAG_CLOSE: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_SET_REP: u8 = 7;
const TAG_SET_QUOTA: u8 = 8;
const TAG_APPEND: u8 = 9;
const TAG_ABANDON_BLOCK: u8 = 10;

const NO_QUOTA: u64 = u64::MAX;

impl<S: AsRef<str>> EditOp<S> {
    /// Encodes the op body (without record framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        self.encode_into(&mut b);
        b
    }

    /// Appends the encoded op body to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            EditOp::Mkdir { path } => {
                b.push(TAG_MKDIR);
                put_str(b, path.as_ref());
            }
            EditOp::CreateFile { path, rv, block_size } => {
                b.push(TAG_CREATE);
                put_str(b, path.as_ref());
                rv.to_bits().put(b);
                block_size.put(b);
            }
            EditOp::AddBlock { path, block, gen, len } => {
                b.push(TAG_ADD_BLOCK);
                put_str(b, path.as_ref());
                block.0.put(b);
                gen.put(b);
                len.put(b);
            }
            EditOp::CloseFile { path } => {
                b.push(TAG_CLOSE);
                put_str(b, path.as_ref());
            }
            EditOp::AppendFile { path } => {
                b.push(TAG_APPEND);
                put_str(b, path.as_ref());
            }
            EditOp::Rename { src, dst } => {
                b.push(TAG_RENAME);
                put_str(b, src.as_ref());
                put_str(b, dst.as_ref());
            }
            EditOp::Delete { path } => {
                b.push(TAG_DELETE);
                put_str(b, path.as_ref());
            }
            EditOp::SetReplication { path, rv } => {
                b.push(TAG_SET_REP);
                put_str(b, path.as_ref());
                rv.to_bits().put(b);
            }
            EditOp::SetQuota { path, quota } => {
                b.push(TAG_SET_QUOTA);
                put_str(b, path.as_ref());
                for t in 0..MAX_TIERS {
                    quota.per_tier[t].unwrap_or(NO_QUOTA).put(b);
                }
            }
            EditOp::AbandonBlock { path, block, len } => {
                b.push(TAG_ABANDON_BLOCK);
                put_str(b, path.as_ref());
                block.0.put(b);
                len.put(b);
            }
        }
    }

    /// Applies the op to a namespace (replay, the backup master) and says
    /// what that did to the set of blocks. `cursor` is the stream's: the
    /// one every earlier op of it was applied with.
    pub fn apply(&self, ns: &mut Namespace, cursor: &mut Cursor) -> Result<BlockChange> {
        if matches!(self, EditOp::Rename { .. } | EditOp::Delete { .. }) {
            cursor.clear(); // what it remembers may be unlinked or moved
        }
        match self {
            EditOp::Mkdir { path } => drop(ns.mkdir(path.as_ref(), true)?),
            EditOp::CreateFile { path, rv, block_size } => {
                ns.create_file_from(Some(cursor), path.as_ref(), *rv, *block_size)?;
            }
            EditOp::AddBlock { path, block, gen, len } => {
                let file = ns.resolve_from(cursor, path.as_ref())?;
                ns.add_block(file, *block, *len)?;
                let block = Block { id: *block, gen: GenStamp(*gen), len: *len };
                return Ok(BlockChange::Added { file, block });
            }
            EditOp::CloseFile { path } => {
                let id = ns.resolve_from(cursor, path.as_ref())?;
                ns.finalize_file(id)?;
            }
            EditOp::AppendFile { path } => {
                let id = ns.resolve_from(cursor, path.as_ref())?;
                ns.reopen_file(id)?;
            }
            EditOp::Rename { src, dst } => ns.rename(src.as_ref(), dst.as_ref())?,
            EditOp::Delete { path } => {
                return Ok(BlockChange::Removed(ns.delete(path.as_ref(), true)?.1));
            }
            EditOp::SetReplication { path, rv } => drop(ns.set_replication(path.as_ref(), *rv)?),
            EditOp::SetQuota { path, quota } => ns.set_quota(path.as_ref(), **quota)?,
            EditOp::AbandonBlock { path, block, len } => {
                let id = ns.resolve_from(cursor, path.as_ref())?;
                ns.remove_last_block(id, *block, *len)?;
                return Ok(BlockChange::Removed(vec![*block]));
            }
        }
        Ok(BlockChange::None)
    }
}

/// What applying an op did to the set of blocks — all a replaying master
/// needs to keep its block map in step, the way the live path does.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockChange {
    /// Nothing.
    None,
    /// `file` gained `block`.
    Added {
        /// The owning file.
        file: INodeId,
        /// The block as logged.
        block: Block,
    },
    /// These blocks are gone (a delete, an abandoned block).
    Removed(Vec<BlockId>),
}

impl<'a> EditRef<'a> {
    /// Decodes one op body in place: paths borrow from `buf`, so replay
    /// allocates nothing it is about to throw away.
    pub fn decode_borrowed(buf: &'a [u8]) -> Result<Self> {
        let mut r = WireReader::new(buf);
        let tag = u8::get(&mut r)?;
        let op = match tag {
            TAG_MKDIR => EditOp::Mkdir { path: r.str()? },
            TAG_CREATE => EditOp::CreateFile {
                path: r.str()?,
                rv: ReplicationVector::from_bits(u64::get(&mut r)?),
                block_size: u64::get(&mut r)?,
            },
            TAG_ADD_BLOCK => EditOp::AddBlock {
                path: r.str()?,
                block: BlockId(u64::get(&mut r)?),
                gen: u64::get(&mut r)?,
                len: u64::get(&mut r)?,
            },
            TAG_CLOSE => EditOp::CloseFile { path: r.str()? },
            TAG_APPEND => EditOp::AppendFile { path: r.str()? },
            TAG_RENAME => EditOp::Rename { src: r.str()?, dst: r.str()? },
            TAG_DELETE => EditOp::Delete { path: r.str()? },
            TAG_SET_REP => EditOp::SetReplication {
                path: r.str()?,
                rv: ReplicationVector::from_bits(u64::get(&mut r)?),
            },
            TAG_SET_QUOTA => {
                let path = r.str()?;
                let mut quota = Box::new(TierQuota::unlimited());
                for t in 0..MAX_TIERS {
                    let v = u64::get(&mut r)?;
                    quota.per_tier[t] = if v == NO_QUOTA { None } else { Some(v) };
                }
                EditOp::SetQuota { path, quota }
            }
            TAG_ABANDON_BLOCK => EditOp::AbandonBlock {
                path: r.str()?,
                block: BlockId(u64::get(&mut r)?),
                len: u64::get(&mut r)?,
            },
            t => return Err(FsError::Io(format!("unknown edit op tag {t}"))),
        };
        if !r.finished() {
            return Err(FsError::Io("trailing bytes in edit record".into()));
        }
        Ok(op)
    }

    /// The same op, owning its paths.
    pub fn into_owned(self) -> EditOp {
        let s = str::to_string;
        match self {
            EditOp::Mkdir { path } => EditOp::Mkdir { path: s(path) },
            EditOp::CreateFile { path, rv, block_size } => {
                EditOp::CreateFile { path: s(path), rv, block_size }
            }
            EditOp::AddBlock { path, block, gen, len } => {
                EditOp::AddBlock { path: s(path), block, gen, len }
            }
            EditOp::CloseFile { path } => EditOp::CloseFile { path: s(path) },
            EditOp::AppendFile { path } => EditOp::AppendFile { path: s(path) },
            EditOp::Rename { src, dst } => EditOp::Rename { src: s(src), dst: s(dst) },
            EditOp::Delete { path } => EditOp::Delete { path: s(path) },
            EditOp::SetReplication { path, rv } => EditOp::SetReplication { path: s(path), rv },
            EditOp::SetQuota { path, quota } => EditOp::SetQuota { path: s(path), quota },
            EditOp::AbandonBlock { path, block, len } => {
                EditOp::AbandonBlock { path: s(path), block, len }
            }
        }
    }
}

impl EditOp {
    /// Decodes one op body.
    pub fn decode(buf: &[u8]) -> Result<EditOp> {
        Ok(EditRef::decode_borrowed(buf)?.into_owned())
    }
}

/// Bytes of record framing ahead of each body: `[len u32][crc u32]`.
const HEADER: usize = 8;

/// The log remembers the byte offset of every `INDEX_STRIDE`-th record —
/// all the per-record state it keeps, 8 bytes per 4,096 records.
const INDEX_STRIDE: u64 = 4096;

/// Appends reach the backing in writes of about this size, so the encode
/// buffer stays fixed however large a batch is.
const WRITE_CHUNK: usize = 1 << 20;

/// Most bytes one [`GroupCommitLog::tail`] reply carries (whole records; a
/// single larger record still goes out alone).
pub(crate) const TAIL_CAP: usize = 4 << 20;

/// Appends `op` to `buf` as one `[len u32][crc u32][body]` record.
fn frame_into(op: &EditOp, buf: &mut Vec<u8>) {
    let head = buf.len();
    buf.extend_from_slice(&[0; HEADER]);
    op.encode_into(buf);
    let body = &buf[head + HEADER..];
    let (len, crc) = (body.len() as u32, crc32(body));
    buf[head..head + 4].copy_from_slice(&len.to_le_bytes());
    buf[head + 4..head + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// A file is scanned in chunks of this size (or of its largest record's,
/// if that is larger).
const SCAN_CHUNK: usize = 64 << 10;

/// Chunks a pipelined replay scans ahead into: the two the scan holds (the
/// one it fills, and the next, where the record straddling the first one's
/// end goes) and two for apply to work on and hand back.
const SCAN_RING: usize = 4;

/// The name of the thread a file-backed [`EditLog::replay`] scans on.
pub const SCAN_THREAD: &str = "edit-log-scan";

/// A record header's body length and CRC.
fn header(head: &[u8; HEADER]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    (u32::from_le_bytes([l0, l1, l2, l3]) as usize, u32::from_le_bytes([c0, c1, c2, c3]))
}

/// Hands each whole record at the front of `buf` to `f` in place, its CRC
/// checked. Returns the bytes those took, and what stopped there: the bytes
/// the record after them needs — more than are left of `buf` — or an error
/// (a bad CRC, or `f`'s).
fn parse_records(buf: &[u8], f: &mut impl FnMut(&[u8]) -> Result<()>) -> (usize, Result<usize>) {
    let mut at = 0;
    loop {
        let Some((head, rest)) = buf[at..].split_first_chunk::<HEADER>() else {
            return (at, Ok(HEADER));
        };
        let (body_len, crc) = header(head);
        let Some(body) = rest.get(..body_len) else {
            return (at, Ok(HEADER + body_len));
        };
        if crc32(body) != crc {
            return (at, Err(FsError::Io("edit record CRC mismatch".into())));
        }
        if let Err(e) = f(body) {
            return (at, Err(e));
        }
        at += HEADER + body_len;
    }
}

/// The bodies of the records in `chunk`: whole, their CRCs checked by the
/// scan that made it.
fn bodies(mut chunk: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (head, rest) = chunk.split_first_chunk::<HEADER>()?;
        let body;
        (body, chunk) = rest.split_at(header(head).0);
        Some(body)
    })
}

/// Reads the records in the first `len` bytes of `src` into chunks of
/// whole, CRC-checked records and hands each to `f`: a buffer and the
/// length of the records at its front. `f` hands back a buffer for a later
/// chunk — the same one, or another. The scan holds two, `bufs`: the one it
/// fills and the one the record straddling that one's end moves to; a
/// record larger than a chunk gets a chunk of its own. Stops cleanly at a
/// truncated tail (a crash mid-append); a complete record with a bad CRC
/// is an error, once the records before it are handed over. Returns the
/// byte length of the whole records.
fn scan_records(
    mut src: impl Read,
    len: u64,
    bufs: [Vec<u8>; 2],
    mut f: impl FnMut(Vec<u8>, usize) -> Result<Vec<u8>>,
) -> Result<u64> {
    let [mut chunk, mut next] = bufs;
    // `chunk[..held]` is read and not yet handed over; `at` bytes are.
    let (mut held, mut at) = (0, 0u64);
    loop {
        let unread = len - at - held as u64;
        let fill = unread.min((chunk.len() - held) as u64) as usize;
        src.read_exact(&mut chunk[held..held + fill])?;
        held += fill;
        let (used, stop) = parse_records(&chunk[..held], &mut |_| Ok(()));
        let need = match stop {
            Ok(need) if need as u64 <= len - at - used as u64 => need,
            // A bad record, or the end of the whole ones (a tear past it).
            stop => {
                if used > 0 {
                    f(chunk, used)?;
                }
                return stop.map(|_| at + used as u64);
            }
        };
        if used == 0 {
            chunk.resize(need, 0); // a record larger than the chunk
            continue;
        }
        // The record straddling the chunk's end starts the next one.
        if next.len() < need {
            next.resize(need, 0);
        }
        next[..held - used].copy_from_slice(&chunk[used..held]);
        let full = std::mem::replace(&mut chunk, next);
        next = f(full, used)?;
        (held, at) = (held - used, at + used as u64);
    }
}

/// A chunk buffer for a scan of `len` bytes.
fn scan_buffer(len: u64) -> Vec<u8> {
    vec![0; len.min(SCAN_CHUNK as u64) as usize]
}

/// The chunks a pipelined replay's scan runs ahead into, handed between its
/// two threads: [`SCAN_RING`] buffers allocated before the scan starts, in
/// queues that never outgrow them. Waiting on it allocates nothing. Two
/// `std::sync::mpsc::sync_channel`s would carry the same buffers, but a
/// thread's first blocking wait on one allocates a waiter context and list,
/// at a moment the scheduler picks: replay's peak heap would then move by a
/// few hundred bytes from run to run, which `tests/heap_budget.rs` pins
/// exactly.
struct Ring {
    state: Mutex<RingState>,
    moved: Condvar,
}

struct RingState {
    /// Scanned chunks not yet taken by apply, in log order, each with the
    /// length of its records.
    full: VecDeque<(Vec<u8>, usize)>,
    /// Buffers apply is done with.
    free: Vec<Vec<u8>>,
    /// How the scan ended, once it has.
    scanned: Option<Result<()>>,
    /// Apply has stopped (an error, a panic): so must the scan.
    hung_up: bool,
}

impl Ring {
    /// The ring of a scan of `len` bytes, less the two buffers the scan
    /// starts with.
    fn new(len: u64) -> Self {
        let mut free = Vec::with_capacity(SCAN_RING);
        free.extend((2..SCAN_RING).map(|_| scan_buffer(len)));
        let full = VecDeque::with_capacity(SCAN_RING);
        let state = RingState { full, free, scanned: None, hung_up: false };
        Self { state: Mutex::new(state), moved: Condvar::new() }
    }

    fn wait<'a>(&self, st: MutexGuard<'a, RingState>) -> MutexGuard<'a, RingState> {
        self.moved.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// The scan's side: hands over a chunk, and takes a free buffer once
    /// there is one.
    fn exchange(&self, chunk: Vec<u8>, used: usize) -> Result<Vec<u8>> {
        let mut st = self.state.lock();
        st.full.push_back((chunk, used));
        self.moved.notify_all();
        loop {
            if st.hung_up {
                return Err(FsError::Io("replay stopped".into()));
            }
            if let Some(buf) = st.free.pop() {
                return Ok(buf);
            }
            st = self.wait(st);
        }
    }

    /// The scan's side: it has ended, as `scanned` says.
    fn finish(&self, scanned: Result<u64>) {
        self.state.lock().scanned = Some(scanned.map(drop));
        self.moved.notify_all();
    }

    /// Apply's side: the next chunk once it is scanned, or `None` after the
    /// last; an error that stopped the scan comes after the chunks before
    /// it.
    fn next(&self) -> Result<Option<(Vec<u8>, usize)>> {
        let mut st = self.state.lock();
        loop {
            if let Some(chunk) = st.full.pop_front() {
                return Ok(Some(chunk));
            }
            if let Some(scanned) = st.scanned.take() {
                return scanned.map(|()| None);
            }
            st = self.wait(st);
        }
    }

    /// Apply's side: hands the body of every record scanned to `f`, in log
    /// order, until the scan ends or either side fails, and then stops the
    /// scan — also when `f` panics. Returns how long it waited for chunks.
    fn apply(&self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<Duration> {
        let _hang_up = HangUp(self);
        let mut waited = Duration::ZERO;
        loop {
            let asked = Instant::now();
            let next = self.next()?;
            waited += asked.elapsed();
            let Some((chunk, used)) = next else { return Ok(waited) };
            bodies(&chunk[..used]).try_for_each(&mut f)?;
            self.state.lock().free.push(chunk);
            self.moved.notify_all();
        }
    }
}

/// Tells the scan, when dropped, that apply has stopped.
struct HangUp<'a>(&'a Ring);

impl Drop for HangUp<'_> {
    fn drop(&mut self) {
        self.0.state.lock().hung_up = true;
        self.0.moved.notify_all();
    }
}

/// Copies whole records out of `src` (positioned at a record boundary,
/// holding only whole records): hops over the first `skip`, then takes
/// records while they fit in `cap` bytes — always at least one.
fn read_tail(src: impl Read, skip: u64, cap: usize) -> Result<Vec<u8>> {
    let mut src = BufReader::with_capacity(64 << 10, src);
    let mut head = [0u8; HEADER];
    let mut out = Vec::new();
    let mut skipped = 0;
    loop {
        match src.read_exact(&mut head) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(out),
            r => r?,
        }
        let body_len = header(&head).0 as u64;
        if skipped < skip {
            std::io::copy(&mut src.by_ref().take(body_len), &mut std::io::sink())?;
            skipped += 1;
            continue;
        }
        let body_at = out.len() + HEADER;
        if !out.is_empty() && body_at + body_len as usize > cap {
            return Ok(out);
        }
        out.extend_from_slice(&head);
        out.resize(body_at + body_len as usize, 0);
        src.read_exact(&mut out[body_at..])?;
    }
}

/// Decodes and hands to `f` every record of a framed stream (a checkpoint
/// image, a shipped log tail), with [`scan_records`]' torn-tail rule.
pub(crate) fn replay_stream(
    buf: &[u8],
    mut f: impl FnMut(EditRef<'_>) -> Result<()>,
) -> Result<()> {
    parse_records(buf, &mut |body| f(EditRef::decode_borrowed(body)?)).1.map(drop)
}

/// Decodes a stream of framed records. Stops cleanly at a truncated tail
/// (a crash mid-append), erroring only on corruption of complete records.
pub fn decode_stream(buf: &[u8]) -> Result<Vec<EditOp>> {
    let mut ops = Vec::new();
    replay_stream(buf, |op| {
        ops.push(op.into_owned());
        Ok(())
    })?;
    Ok(ops)
}

/// Where the framed records live.
enum Backing {
    /// Tests, simulations, and masters restored from an image: the one
    /// backing whose heap grows with history.
    Mem(Vec<u8>),
    /// The file, through two handles: appends never share a cursor (or a
    /// lock) with readers.
    File { append: File, read: Arc<Mutex<File>> },
}

/// The edit log: framed records in a file (or a byte vector), plus the
/// little that is worth keeping in memory about them — how many there are,
/// where the last whole one ends, and a sparse record → offset index.
pub struct EditLog {
    backing: Backing,
    records: u64,
    /// Bytes of whole, written records; appends land here.
    valid_len: u64,
    /// `index[k]` is the byte offset of record `k * INDEX_STRIDE`.
    index: Vec<u64>,
    /// Encode buffer reused by every append.
    buf: Vec<u8>,
}

impl EditLog {
    /// An in-memory log (tests, simulations).
    pub fn in_memory() -> Self {
        Self {
            backing: Backing::Mem(Vec::new()),
            records: 0,
            valid_len: 0,
            index: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// An in-memory log holding `bytes` — framed records such as a
    /// checkpoint image — as its history.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let len = bytes.len() as u64;
        Self::recover(Backing::Mem(bytes), len)
    }

    /// Opens (or creates) a file-backed log. Existing records are counted
    /// and CRC-checked, not kept; a torn tail — the partial record a crash
    /// mid-append leaves — is cut off so the next append lands on a record
    /// boundary. A complete record with a bad CRC is an error.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let append = OpenOptions::new().create(true).append(true).open(path)?;
        let read = File::open(path)?;
        let len = read.metadata()?.len();
        Self::recover(Backing::File { append, read: Arc::new(Mutex::new(read)) }, len)
    }

    /// Scans `len` bytes of existing records into `records`, `valid_len`
    /// and the index, then truncates the backing to `valid_len`.
    fn recover(backing: Backing, len: u64) -> Result<Self> {
        let mut log = Self { backing, ..Self::in_memory() };
        let (mut records, mut at, mut index) = (0u64, 0u64, Vec::new());
        let valid_len = log.scan(len, |body| {
            if records % INDEX_STRIDE == 0 {
                index.push(at);
            }
            records += 1;
            at += (HEADER + body.len()) as u64;
            Ok(())
        })?;
        if valid_len < len {
            match &mut log.backing {
                Backing::Mem(bytes) => bytes.truncate(valid_len as usize),
                Backing::File { append, .. } => {
                    append.set_len(valid_len)?;
                    append.sync_data()?;
                }
            }
        }
        Ok(Self { records, valid_len, index, ..log })
    }

    /// Hands each whole record in the first `len` bytes of the backing to
    /// `f`, CRC-checked, on the caller's thread: parsed where it lies in
    /// memory, through [`scan_records`] from a file. Returns the byte
    /// length of the whole records.
    fn scan(&self, len: u64, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<u64> {
        match &self.backing {
            Backing::Mem(bytes) => {
                let (used, stop) = parse_records(&bytes[..len as usize], &mut f);
                stop.map(|_| used as u64)
            }
            Backing::File { read, .. } => {
                let mut file = read.lock();
                file.seek(SeekFrom::Start(0))?;
                let bufs = [scan_buffer(len), scan_buffer(len)];
                scan_records(&mut *file, len, bufs, |chunk, used| {
                    bodies(&chunk[..used]).try_for_each(&mut f)?;
                    Ok(chunk)
                })
            }
        }
    }

    /// Appends an op (written through when file-backed, not synced).
    pub fn append(&mut self, op: EditOp) -> Result<()> {
        self.write_records(std::slice::from_ref(&op), false)
    }

    /// Appends a batch of ops with a single `fsync` — the durability half
    /// of group commit. Records only count (and become visible to tailing
    /// readers such as the backup master) once the whole batch is on
    /// stable storage, so no reader sees an op that a crash could take
    /// back.
    pub fn append_batch(&mut self, ops: Vec<EditOp>) -> Result<()> {
        self.write_records(&ops, true)
    }

    fn write_records(&mut self, ops: &[EditOp], sync: bool) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let indexed = self.index.len();
        match self.write_framed(ops, sync) {
            Ok(end) => {
                self.records += ops.len() as u64;
                self.valid_len = end;
                Ok(())
            }
            Err(e) => {
                self.index.truncate(indexed);
                Err(e)
            }
        }
    }

    /// Encodes `ops` into the reused buffer and writes them out in
    /// [`WRITE_CHUNK`]s, indexing as it goes. Returns where the records
    /// end.
    fn write_framed(&mut self, ops: &[EditOp], sync: bool) -> Result<u64> {
        let mut end = self.valid_len;
        self.buf.clear();
        for (record, op) in (self.records..).zip(ops) {
            if record % INDEX_STRIDE == 0 {
                self.index.push(end + self.buf.len() as u64);
            }
            frame_into(op, &mut self.buf);
            if self.buf.len() >= WRITE_CHUNK {
                self.backing.write_all(&self.buf)?;
                end += self.buf.len() as u64;
                self.buf.clear();
            }
        }
        self.backing.write_all(&self.buf)?;
        end += self.buf.len() as u64;
        if let (true, Backing::File { append, .. }) = (sync, &self.backing) {
            append.sync_data()?;
        }
        Ok(end)
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.records as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Streams every recorded op, in order, to `f`, each decoded in place
    /// and handed over borrowed. From a file with records, the scan — read,
    /// CRC, record framing — runs a chunk or more ahead on a helper thread
    /// ([`SCAN_THREAD`]) and `f` runs on the caller's; an error reaches the
    /// caller where it is in the log, after every op before it, and the
    /// helper has ended when this returns. Returns how long `f`'s thread
    /// waited for the scan (zero without a helper).
    pub fn replay(&self, mut f: impl FnMut(EditRef<'_>) -> Result<()>) -> Result<Duration> {
        let Backing::File { read, .. } = &self.backing else {
            return self.replay_sequential(f).map(|()| Duration::ZERO);
        };
        if self.records == 0 {
            return Ok(Duration::ZERO);
        }
        let len = self.valid_len;
        let (ring, bufs) = (Ring::new(len), [scan_buffer(len), scan_buffer(len)]);
        let scan = || {
            let mut file = read.lock();
            file.seek(SeekFrom::Start(0))?;
            scan_records(&mut *file, len, bufs, |chunk, used| ring.exchange(chunk, used))
        };
        std::thread::scope(|s| {
            let helper = std::thread::Builder::new()
                .name(SCAN_THREAD.into())
                .spawn_scoped(s, || ring.finish(scan()))?;
            let applied = ring.apply(|body| f(EditRef::decode_borrowed(body)?));
            helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            applied
        })
    }

    /// [`EditLog::replay`] without the helper: the same scan, on the
    /// caller's thread — what the pipelined replay is held to
    /// (`tests/scan_pipeline.rs`).
    pub fn replay_sequential(&self, mut f: impl FnMut(EditRef<'_>) -> Result<()>) -> Result<()> {
        self.scan(self.valid_len, |body| f(EditRef::decode_borrowed(body)?)).map(drop)
    }
}

impl Backing {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        match self {
            Backing::Mem(bytes) => bytes.extend_from_slice(buf),
            Backing::File { append, .. } => append.write_all(buf)?,
        }
        Ok(())
    }
}

/// Staging state of the group-commit batcher: ops accepted but not yet on
/// stable storage, plus the sequence bookkeeping that tells a waiter when
/// its op became durable.
struct GroupState {
    /// Ops staged since the last committed batch, in sequence order.
    staged: Vec<EditOp>,
    /// Sequence number the next staged op receives.
    next_seq: u64,
    /// All ops with sequence `< resolved_seq` have been resolved —
    /// committed durably, or failed with [`GroupState::poisoned`] set.
    resolved_seq: u64,
    /// Whether a committer is currently flushing a batch.
    committing: bool,
    /// A batch write failed; the log refuses further durability claims
    /// (matching the usual journal discipline: an fsync failure means the
    /// tail of the log is unknowable).
    poisoned: Option<String>,
}

/// A group-commit edit log: writers *stage* ops (cheap, done while still
/// holding the namespace lock so the log order is a valid linearization),
/// then *wait* for durability after releasing it. The first waiter that
/// finds no committer running becomes the committer: it takes the whole
/// staged batch, writes and fsyncs it as one coalesced record run, and
/// wakes every waiter the batch covered. Log latency thus amortizes across
/// all concurrently-staging writers instead of serializing behind per-op
/// fsyncs under a lock.
pub struct GroupCommitLog {
    state: Mutex<GroupState>,
    /// The durable log. Separate from `state` so stagers are never blocked
    /// behind an in-progress fsync; only the single active committer and
    /// snapshot readers take this lock.
    log: Mutex<EditLog>,
    cond: Condvar,
}

impl GroupCommitLog {
    /// Wraps an edit log (file-backed or in-memory) in the batcher. Ops
    /// already in the log count as resolved.
    pub fn new(log: EditLog) -> Self {
        let existing = log.len() as u64;
        Self {
            state: Mutex::new(GroupState {
                staged: Vec::new(),
                next_seq: existing,
                resolved_seq: existing,
                committing: false,
                poisoned: None,
            }),
            log: Mutex::new(log),
            cond: Condvar::new(),
        }
    }

    /// Stages an op for the next batch and returns its sequence number.
    /// Call while holding the lock that ordered the op (the namespace
    /// lock); the assigned sequence then agrees with every dependency.
    pub fn stage(&self, op: EditOp) -> u64 {
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.staged.push(op);
        seq
    }

    /// Blocks until the op with sequence `seq` is durable (or the log is
    /// poisoned by an I/O failure). Acked-to-client therefore implies
    /// fsynced. The first waiter to arrive while no batch is in flight
    /// commits the entire staged batch itself.
    pub fn wait_durable(&self, seq: u64) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.poisoned {
                return Err(FsError::Io(format!("edit log poisoned: {e}")));
            }
            if seq < st.resolved_seq {
                return Ok(());
            }
            if !st.committing {
                st.committing = true;
                let batch = std::mem::take(&mut st.staged);
                let n = batch.len() as u64;
                drop(st);
                let res = self.log.lock().append_batch(batch);
                st = self.state.lock();
                st.resolved_seq += n;
                st.committing = false;
                if let Err(e) = res {
                    st.poisoned = Some(e.to_string());
                }
                self.cond.notify_all();
            } else {
                st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Stages an op and waits for its durability, for a caller that
    /// orders its ops by no lock of its own (the benchmark's log ledger).
    /// The master stages under its namespace guard and waits after it.
    pub fn append_sync(&self, op: EditOp) -> Result<()> {
        let seq = self.stage(op);
        self.wait_durable(seq)
    }

    /// Number of durable ops.
    pub fn durable_len(&self) -> usize {
        self.log.lock().len()
    }

    /// The log's own bytes from record `from` on: whole durable records,
    /// at most [`TAIL_CAP`] bytes of them (so a reader far behind calls
    /// again until the reply is empty). Staged-but-unflushed ops are
    /// invisible here by design. The log's lock is held only to resolve
    /// `from` to a byte range; the file is read through its second handle
    /// after release, so a tailing backup never holds up a commit.
    pub fn tail(&self, from: u64) -> Result<Vec<u8>> {
        let log = self.log.lock();
        if from >= log.records {
            return Ok(Vec::new());
        }
        let start = log.index[(from / INDEX_STRIDE) as usize];
        let (skip, end) = (from % INDEX_STRIDE, log.valid_len);
        match &log.backing {
            Backing::Mem(bytes) => read_tail(&bytes[start as usize..end as usize], skip, TAIL_CAP),
            Backing::File { read, .. } => {
                let read = Arc::clone(read);
                drop(log);
                let mut file = read.lock();
                file.seek(SeekFrom::Start(start))?;
                read_tail((&mut *file).take(end - start), skip, TAIL_CAP)
            }
        }
    }

    /// Forces every staged op to stable storage.
    pub fn flush(&self) -> Result<()> {
        let latest = {
            let st = self.state.lock();
            st.next_seq
        };
        if latest == 0 {
            return Ok(());
        }
        self.wait_durable(latest - 1)
    }
}

/// Expresses a namespace as the minimal op sequence recreating it (a
/// checkpoint image), one op at a time.
fn for_each_image_op(ns: &Namespace, mut f: impl FnMut(EditOp)) {
    for (path, quota) in ns.iter_dirs() {
        if path != "/" {
            f(EditOp::Mkdir { path: path.clone() });
        }
        if quota != TierQuota::unlimited() {
            f(EditOp::SetQuota { path, quota: Box::new(quota) });
        }
    }
    let mut files = ns.iter_files();
    files.sort_by(|a, b| a.1.cmp(&b.1));
    for (_, path, meta) in files {
        f(EditOp::CreateFile { path: path.clone(), rv: meta.rv, block_size: meta.block_size });
        for &(block, len) in &meta.blocks {
            f(EditOp::AddBlock { path: path.clone(), block, gen: 0, len });
        }
        if meta.complete {
            f(EditOp::CloseFile { path });
        }
    }
}

/// Serializes a checkpoint image to bytes.
pub fn encode_image(ns: &Namespace) -> Vec<u8> {
    let mut out = Vec::new();
    for_each_image_op(ns, |op| frame_into(&op, &mut out));
    out
}

/// Restores a namespace from a checkpoint image.
pub fn decode_image(image: &[u8]) -> Result<Namespace> {
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    replay_stream(image, |op| op.apply(&mut ns, &mut cursor).map(drop))?;
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<EditOp> {
        vec![
            EditOp::Mkdir { path: "/a/b".into() },
            EditOp::CreateFile {
                path: "/a/b/f".into(),
                rv: ReplicationVector::msh(1, 0, 2),
                block_size: 128,
            },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(5), gen: 3, len: 128 },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(9), gen: 3, len: 32 },
            EditOp::AbandonBlock { path: "/a/b/f".into(), block: BlockId(9), len: 32 },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(6), gen: 3, len: 64 },
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::AppendFile { path: "/a/b/f".into() },
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::SetReplication { path: "/a/b/f".into(), rv: ReplicationVector::msh(0, 1, 2) },
            EditOp::Rename { src: "/a/b/f".into(), dst: "/a/g".into() },
            EditOp::SetQuota {
                path: "/a".into(),
                quota: Box::new(TierQuota::limit_tier(0, 1 << 20)),
            },
            EditOp::Delete { path: "/a/b".into() },
        ]
    }

    #[test]
    fn ops_encode_decode_round_trip() {
        for op in sample_ops() {
            let enc = op.encode();
            let dec = EditOp::decode(&enc).unwrap();
            assert_eq!(dec, op);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EditOp::decode(&[99, 0, 0]).is_err());
        // Trailing bytes rejected.
        let mut enc = EditOp::Mkdir { path: "/x" }.encode();
        enc.push(0);
        assert!(EditOp::decode(&enc).is_err());
        // A body cut inside its path: the length prefix promises more.
        let enc = EditOp::Rename { src: "/from", dst: "/to" }.encode();
        assert!(EditOp::decode(&enc[..1 + 4 + 3]).is_err());
    }

    #[test]
    fn stream_survives_truncated_tail_but_not_corruption() {
        let mut buf = Vec::new();
        for op in sample_ops() {
            frame_into(&op, &mut buf);
        }
        let full = decode_stream(&buf).unwrap();
        assert_eq!(full.len(), sample_ops().len());
        // Truncate mid-record: decodes the complete prefix.
        let cut = decode_stream(&buf[..buf.len() - 3]).unwrap();
        assert_eq!(cut.len(), sample_ops().len() - 1);
        // Flip a body byte: CRC error.
        let mut bad = buf.clone();
        bad[10] ^= 0xFF;
        assert!(decode_stream(&bad).is_err());
    }

    /// A file scan hands out what an in-place parse of the same bytes does
    /// — records that straddle a chunk's end, one larger than a chunk —
    /// and stops where it stops at every tear of the last two records.
    #[test]
    fn a_scan_through_chunks_is_a_parse_in_place() {
        let mkdir =
            |len: usize, i: usize| EditOp::Mkdir { path: format!("/{}{i:04}", "n".repeat(len)) };
        let mut ops: Vec<EditOp> = (0..1_800).map(|i| mkdir(600, i)).collect();
        ops.push(mkdir(SCAN_CHUNK + 1_000, 0));
        ops.extend((0..200).map(|i| mkdir(700, i)));
        let mut buf = Vec::new();
        ops.iter().for_each(|op| frame_into(op, &mut buf));
        assert!(buf.len() > 2 * SCAN_CHUNK);

        // Each chunk handed over must hold whole records only, and the
        // buffer handed back is a different one, as a pipelined replay's is.
        let scan = |bytes: &[u8]| {
            let (mut crcs, mut spare) = (Vec::new(), scan_buffer(bytes.len() as u64));
            let bufs = [scan_buffer(bytes.len() as u64), scan_buffer(bytes.len() as u64)];
            let scanned = scan_records(bytes, bytes.len() as u64, bufs, |chunk, used| {
                let (whole, stop) = parse_records(&chunk[..used], &mut |_| Ok(()));
                assert_eq!((whole, stop.is_ok()), (used, true));
                crcs.extend(bodies(&chunk[..used]).map(crc32));
                Ok(std::mem::replace(&mut spare, chunk))
            });
            (scanned, crcs)
        };
        let tail = 2 * (HEADER + 710);
        let tears = (buf.len() - tail..buf.len()).step_by(7).chain([buf.len()]);
        for cut in tears.chain([0, 3, HEADER, SCAN_CHUNK, SCAN_CHUNK + 1]) {
            let bytes = &buf[..cut];
            let mut in_place = Vec::new();
            let mut keep = |body: &[u8]| {
                in_place.push(crc32(body));
                Ok(())
            };
            let (used, stop) = parse_records(bytes, &mut keep);
            let parsed = stop.map(|_| used as u64);
            let (scanned, chunked) = scan(bytes);
            assert!((&parsed, &in_place) == (&scanned, &chunked), "cut {cut}");
            if cut == buf.len() {
                let appended: Vec<u32> = ops.iter().map(|op| crc32(&op.encode())).collect();
                assert_eq!((parsed, in_place), (Ok(cut as u64), appended));
            }
        }

        // A flipped byte is a CRC error on both, wherever in a chunk it is.
        for at in [10, SCAN_CHUNK - 1, SCAN_CHUNK + 600, buf.len() - 1] {
            buf[at] ^= 0x40;
            assert!(parse_records(&buf, &mut |_| Ok(())).1.is_err(), "flip at {at}");
            assert!(scan(&buf).0.is_err(), "flip at {at}");
            buf[at] ^= 0x40;
        }
    }

    #[test]
    fn replay_reconstructs_namespace() {
        let mut log = EditLog::in_memory();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        log.replay(|op| op.apply(&mut ns, &mut cursor).map(drop)).unwrap();
        // After the sample sequence: /a exists with quota, /a/g is the
        // renamed file, /a/b was deleted.
        let st = ns.status("/a/g").unwrap();
        assert_eq!(st.len, 192);
        assert_eq!(st.rv, ReplicationVector::msh(0, 1, 2));
        assert!(ns.resolve("/a/b").is_err());
        let (q, _) = ns.quota_usage("/a").unwrap();
        assert_eq!(q, TierQuota::limit_tier(0, 1 << 20));
    }

    #[test]
    fn file_backed_log_persists() {
        let path = temp_log("persist");
        {
            let mut log = EditLog::open(&path).unwrap();
            for op in sample_ops() {
                log.append(op).unwrap();
            }
        }
        let mut replayed = Vec::new();
        let replay = EditLog::open(&path).unwrap().replay(|op| {
            replayed.push(op.into_owned());
            Ok(())
        });
        assert_eq!((replay.map(drop), replayed), (Ok(()), sample_ops()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "octopus_editlog_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("edits.log")
    }

    /// The tail from any record number is exactly the suffix of the ops
    /// appended — through the sparse index, on both backings, across
    /// reopen.
    #[test]
    fn tail_resolves_any_record_through_the_sparse_index() {
        let ops: Vec<EditOp> =
            (0..2 * INDEX_STRIDE + 10).map(|i| EditOp::Mkdir { path: format!("/d{i}") }).collect();
        let path = temp_log("tail");
        let mut on_disk = EditLog::open(&path).unwrap();
        let mut in_memory = EditLog::in_memory();
        for half in ops.chunks(INDEX_STRIDE as usize + 7) {
            on_disk.append_batch(half.to_vec()).unwrap();
            in_memory.append_batch(half.to_vec()).unwrap();
        }
        drop(on_disk);
        let reopened = EditLog::open(&path).unwrap();
        assert_eq!(reopened.index, in_memory.index);
        assert_eq!(reopened.index.len(), 3);
        for log in [reopened, in_memory] {
            let log = GroupCommitLog::new(log);
            for from in
                [0, 1, INDEX_STRIDE - 1, INDEX_STRIDE, INDEX_STRIDE + 1, ops.len() as u64 - 1]
            {
                let tail = decode_stream(&log.tail(from).unwrap()).unwrap();
                assert_eq!(tail, ops[from as usize..], "tail from {from}");
            }
            assert!(log.tail(ops.len() as u64).unwrap().is_empty());
            assert!(log.tail(u64::MAX).unwrap().is_empty());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A reply holds whole records up to the cap — or one record, however
    /// large.
    #[test]
    fn tail_is_capped_at_whole_records() {
        let mut buf = Vec::new();
        let ops: Vec<EditOp> = (0..10).map(|i| EditOp::Mkdir { path: format!("/d{i}") }).collect();
        for op in &ops {
            frame_into(op, &mut buf);
        }
        let record = buf.len() / ops.len();
        let cut = read_tail(&buf[..], 2, 3 * record + 1).unwrap();
        assert_eq!(decode_stream(&cut).unwrap(), ops[2..5]);
        assert_eq!(cut.len(), 3 * record);
        let one = read_tail(&buf[..], 9, 1).unwrap();
        assert_eq!(decode_stream(&one).unwrap(), ops[9..]);
    }

    #[test]
    fn image_round_trip() {
        let mut ns = Namespace::new();
        ns.mkdir("/data/warm", true).unwrap();
        ns.set_quota("/data", TierQuota::limit_tier(1, 1 << 30)).unwrap();
        let f = ns.create_file("/data/f", ReplicationVector::msh(0, 1, 2), 100).unwrap();
        ns.add_block(f, BlockId(1), 100).unwrap();
        ns.add_block(f, BlockId(2), 40).unwrap();
        ns.finalize_file(f).unwrap();
        ns.create_file("/data/warm/open", ReplicationVector::from_replication_factor(2), 100)
            .unwrap();

        let image = encode_image(&ns);
        let restored = decode_image(&image).unwrap();
        let st = restored.status("/data/f").unwrap();
        assert_eq!(st.len, 140);
        assert_eq!(st.rv, ReplicationVector::msh(0, 1, 2));
        assert!(st.complete);
        let meta = restored.file_meta(restored.resolve("/data/f").unwrap()).unwrap();
        assert_eq!(meta.blocks, [(BlockId(1), 100), (BlockId(2), 40)]);
        let open = restored.status("/data/warm/open").unwrap();
        assert!(!open.complete);
        let (q, usage) = restored.quota_usage("/data").unwrap();
        assert_eq!(q, TierQuota::limit_tier(1, 1 << 30));
        assert_eq!(usage[1], 140); // SSD×1 charge re-derived on replay
        assert_eq!(usage[2], 280);
    }
}
