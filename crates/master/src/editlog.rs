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
//! through one chunk-sized buffer on the caller's thread, and the backup
//! master is handed the log's own bytes.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, PoisonError};

use octopus_common::checksum::crc32;
use octopus_common::wire::{put_str, Wire, WireReader};
use octopus_common::{Block, BlockId, FsError, GenStamp, INodeId, ReplicationVector, Result};
use parking_lot::Mutex;

use crate::namespace::{Cursor, Entry, Namespace, TierQuota};

/// How an op holds its paths, and with them its wide payloads. An op on
/// its way into the log owns its paths (`String`) and boxes every payload
/// wider than a `CreateFile`'s, so the ops a batch holds are 40 bytes each;
/// an op borrowed out of a record during replay ([`EditRef`]) holds its
/// payloads inline, so decoding one allocates nothing.
pub trait OpPath: AsRef<str> + Sized {
    /// `Box<T>` for an owned op, `T` itself for a borrowed one.
    type Wide<T>;
    /// Holds a payload the way this kind of op does.
    fn wide<T>(payload: T) -> Self::Wide<T>;
    /// The payload held.
    fn unwide<T>(held: &Self::Wide<T>) -> &T;
}

impl OpPath for String {
    type Wide<T> = Box<T>;
    fn wide<T>(payload: T) -> Box<T> {
        Box::new(payload)
    }
    fn unwide<T>(held: &Box<T>) -> &T {
        held
    }
}

impl OpPath for &str {
    type Wide<T> = T;
    fn wide<T>(payload: T) -> T {
        payload
    }
    fn unwide<T>(held: &T) -> &T {
        held
    }
}

/// One namespace mutation. `S` is how it holds its paths ([`OpPath`]):
/// `String` for an op on its way into the log, `&str` for one borrowed out
/// of a record during replay ([`EditRef`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp<S: OpPath = String> {
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
        /// The block: id, generation stamp and length.
        block: S::Wide<Block>,
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
        /// Source and destination paths.
        paths: S::Wide<(S, S)>,
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
        /// The quota (112 bytes).
        quota: S::Wide<TierQuota>,
    },
    /// Remove the last (uncommitted) block of an open file — pipeline
    /// recovery abandoned it after a write failure.
    AbandonBlock {
        /// File path.
        path: S,
        /// The abandoned block and its length (for the quota refund on
        /// replay).
        block: S::Wide<(BlockId, u64)>,
    },
}

/// An op whose paths point into the record it was decoded from.
pub type EditRef<'a> = EditOp<&'a str>;

/// The group committer's staging vector, every `append_batch` caller's
/// vector and [`decode_stream`]'s hold one of these per op. `CreateFile`
/// (a path, a vector and a block size) is the floor: every wider payload
/// is boxed, and the tag lives in the path's niche.
const _: () = assert!(std::mem::size_of::<EditOp>() == 40);

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

impl<S: OpPath> EditOp<S> {
    /// `AddBlock` of `block` to the file at `path`.
    pub fn add_block(path: S, block: Block) -> Self {
        EditOp::AddBlock { path, block: S::wide(block) }
    }

    /// `Rename` of `src` to `dst`.
    pub fn rename(src: S, dst: S) -> Self {
        EditOp::Rename { paths: S::wide((src, dst)) }
    }

    /// `SetQuota` of `quota` on the directory at `path`.
    pub fn set_quota(path: S, quota: TierQuota) -> Self {
        EditOp::SetQuota { path, quota: S::wide(quota) }
    }

    /// `AbandonBlock` of `block`, `len` bytes long, from the file at `path`.
    pub fn abandon_block(path: S, block: BlockId, len: u64) -> Self {
        EditOp::AbandonBlock { path, block: S::wide((block, len)) }
    }

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
            EditOp::AddBlock { path, block } => {
                let Block { id, gen, len } = *S::unwide(block);
                b.push(TAG_ADD_BLOCK);
                put_str(b, path.as_ref());
                id.0.put(b);
                gen.0.put(b);
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
            EditOp::Rename { paths } => {
                let (src, dst) = S::unwide(paths);
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
                for limit in S::unwide(quota).per_tier {
                    limit.unwrap_or(NO_QUOTA).put(b);
                }
            }
            EditOp::AbandonBlock { path, block } => {
                let (id, len) = *S::unwide(block);
                b.push(TAG_ABANDON_BLOCK);
                put_str(b, path.as_ref());
                id.0.put(b);
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
            EditOp::AddBlock { path, block } => {
                let block = *S::unwide(block);
                let file = ns.resolve_from(cursor, path.as_ref())?;
                ns.add_block(file, block.id, block.len)?;
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
            EditOp::Rename { paths } => {
                let (src, dst) = S::unwide(paths);
                ns.rename(src.as_ref(), dst.as_ref())?;
            }
            EditOp::Delete { path } => {
                return Ok(BlockChange::Removed(ns.delete(path.as_ref(), true)?.1));
            }
            EditOp::SetReplication { path, rv } => drop(ns.set_replication(path.as_ref(), *rv)?),
            EditOp::SetQuota { path, quota } => ns.set_quota(path.as_ref(), *S::unwide(quota))?,
            EditOp::AbandonBlock { path, block } => {
                let (block, len) = *S::unwide(block);
                let id = ns.resolve_from(cursor, path.as_ref())?;
                ns.remove_last_block(id, block, len)?;
                return Ok(BlockChange::Abandoned(block));
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
    /// A delete took these blocks with its files.
    Removed(Vec<BlockId>),
    /// Pipeline recovery abandoned this block.
    Abandoned(BlockId),
}

impl<'a> EditRef<'a> {
    /// Decodes one op body in place: paths borrow from `buf` and payloads
    /// sit in the op, so decoding allocates nothing.
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
                block: Block {
                    id: BlockId(u64::get(&mut r)?),
                    gen: GenStamp(u64::get(&mut r)?),
                    len: u64::get(&mut r)?,
                },
            },
            TAG_CLOSE => EditOp::CloseFile { path: r.str()? },
            TAG_APPEND => EditOp::AppendFile { path: r.str()? },
            TAG_RENAME => EditOp::Rename { paths: (r.str()?, r.str()?) },
            TAG_DELETE => EditOp::Delete { path: r.str()? },
            TAG_SET_REP => EditOp::SetReplication {
                path: r.str()?,
                rv: ReplicationVector::from_bits(u64::get(&mut r)?),
            },
            TAG_SET_QUOTA => {
                let path = r.str()?;
                let mut quota = TierQuota::unlimited();
                for limit in &mut quota.per_tier {
                    let v = u64::get(&mut r)?;
                    *limit = if v == NO_QUOTA { None } else { Some(v) };
                }
                EditOp::SetQuota { path, quota }
            }
            TAG_ABANDON_BLOCK => EditOp::AbandonBlock {
                path: r.str()?,
                block: (BlockId(u64::get(&mut r)?), u64::get(&mut r)?),
            },
            t => return Err(FsError::Io(format!("unknown edit op tag {t}"))),
        };
        if !r.finished() {
            return Err(FsError::Io("trailing bytes in edit record".into()));
        }
        Ok(op)
    }

    /// The same op, owning its paths and boxing its wide payloads.
    pub fn into_owned(self) -> EditOp {
        let s = str::to_string;
        match self {
            EditOp::Mkdir { path } => EditOp::Mkdir { path: s(path) },
            EditOp::CreateFile { path, rv, block_size } => {
                EditOp::CreateFile { path: s(path), rv, block_size }
            }
            EditOp::AddBlock { path, block } => EditOp::add_block(s(path), block),
            EditOp::CloseFile { path } => EditOp::CloseFile { path: s(path) },
            EditOp::AppendFile { path } => EditOp::AppendFile { path: s(path) },
            EditOp::Rename { paths: (src, dst) } => EditOp::rename(s(src), s(dst)),
            EditOp::Delete { path } => EditOp::Delete { path: s(path) },
            EditOp::SetReplication { path, rv } => EditOp::SetReplication { path: s(path), rv },
            EditOp::SetQuota { path, quota } => EditOp::set_quota(s(path), quota),
            EditOp::AbandonBlock { path, block: (block, len) } => {
                EditOp::abandon_block(s(path), block, len)
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

/// Log bytes move through one buffer of about this size each way: an append
/// writes out each chunk of encoded records as soon as it fills, and a
/// replay reads a file a chunk at a time (or a record at a time, for a
/// record larger than that).
const CHUNK: usize = 64 << 10;

/// Most bytes one [`GroupCommitLog::tail`] reply carries (whole records; a
/// single larger record still goes out alone).
pub(crate) const TAIL_CAP: usize = 4 << 20;

/// Appends `op` to `buf` as one `[len u32][crc u32][body]` record.
fn frame_into<S: OpPath>(op: &EditOp<S>, buf: &mut Vec<u8>) {
    let head = buf.len();
    buf.extend_from_slice(&[0; HEADER]);
    op.encode_into(buf);
    let body = &buf[head + HEADER..];
    let (len, crc) = (body.len() as u32, crc32(body));
    buf[head..head + 4].copy_from_slice(&len.to_le_bytes());
    buf[head + 4..head + HEADER].copy_from_slice(&crc.to_le_bytes());
}

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

/// [`parse_records`] over the first `len` bytes of `src`, read once, in
/// order, through one buffer: each read fills it from the first record not
/// yet handed over, one [`CHUNK`] long (or as long as the largest record
/// met, if that is larger). Stops cleanly at a torn tail (a crash
/// mid-append); a complete record with a bad CRC, a short read or `f`'s
/// error ends it, once the records before it are handed over. Returns the
/// byte length of the whole records.
fn read_records(
    mut src: impl Read,
    len: u64,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<u64> {
    let mut buf = vec![0; len.min(CHUNK as u64) as usize];
    // `buf[..held]` is read and not yet handed over; `at` bytes are.
    let (mut held, mut at) = (0, 0u64);
    loop {
        let fill = (len - at - held as u64).min((buf.len() - held) as u64) as usize;
        src.read_exact(&mut buf[held..held + fill])?;
        held += fill;
        let (used, need) = parse_records(&buf[..held], &mut f);
        let need = need?;
        at += used as u64;
        if need as u64 > len - at {
            return Ok(at); // the end, or a tear
        }
        buf.copy_within(used..held, 0);
        held -= used;
        if need > buf.len() {
            buf.resize(need, 0);
        }
    }
}

/// Copies whole records out of `src` (positioned at a record boundary,
/// holding only whole records): hops over the first `skip`, then takes
/// records while they fit in `cap` bytes — always at least one.
fn read_tail(src: impl Read, skip: u64, cap: usize) -> Result<Vec<u8>> {
    let mut src = BufReader::with_capacity(CHUNK, src);
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
/// image, a shipped log tail), with [`parse_records`]' torn-tail rule.
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
    /// Whether a pass over the records has counted them. Until one has (a
    /// file nothing has read yet), `records`, `valid_len` and `index` are
    /// not known.
    recovered: bool,
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
            recovered: true,
            records: 0,
            valid_len: 0,
            index: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// An in-memory log holding `bytes` — framed records such as a
    /// checkpoint image — as its history.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let mut log = Self { backing: Backing::Mem(bytes), recovered: false, ..Self::in_memory() };
        log.recover()?;
        Ok(log)
    }

    /// Opens (or creates) a file-backed log. It reads nothing: the log's
    /// first [`EditLog::replay`] is its recovery.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let append = OpenOptions::new().create(true).append(true).open(path)?;
        let read = Arc::new(Mutex::new(File::open(path)?));
        Ok(Self { backing: Backing::File { append, read }, recovered: false, ..Self::in_memory() })
    }

    /// Recovers a log nothing has read yet, with nothing to apply.
    fn recover(&mut self) -> Result<()> {
        if !self.recovered {
            self.replay(|_| Ok(()))?;
        }
        Ok(())
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
        self.recover()?;
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

    /// Encodes `ops` into the reused buffer and writes out each [`CHUNK`]
    /// of it as it fills, indexing as it goes. Returns where the records
    /// end.
    fn write_framed(&mut self, ops: &[EditOp], sync: bool) -> Result<u64> {
        let mut end = self.valid_len;
        self.buf.clear();
        for (record, op) in (self.records..).zip(ops) {
            if record % INDEX_STRIDE == 0 {
                self.index.push(end + self.buf.len() as u64);
            }
            frame_into(op, &mut self.buf);
            if self.buf.len() >= CHUNK {
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

    /// Streams every recorded op, in order, to `f` on the caller's thread,
    /// each decoded in place and handed over borrowed; returns how many. A
    /// file is read once, a [`CHUNK`] at a time ([`read_records`]). The
    /// first replay of a log is also its recovery: it counts and indexes
    /// the records, and cuts off a torn tail — the partial record a crash
    /// mid-append leaves — so the next append lands on a record boundary.
    /// A complete record with a bad CRC is an error, once every op before
    /// it is handed over, and leaves the log as it was.
    pub fn replay(&mut self, mut f: impl FnMut(EditRef<'_>) -> Result<()>) -> Result<u64> {
        let recovering = !self.recovered;
        let len = match &self.backing {
            _ if !recovering => self.valid_len,
            Backing::Mem(bytes) => bytes.len() as u64,
            Backing::File { read, .. } => read.lock().metadata()?.len(),
        };
        // The index is sized once, for the most records `len` bytes can hold
        // (a header and a tag byte each): nothing the pass allocates grows
        // with the log, so its peak is its buffer above what stays.
        let most = if recovering { len / (HEADER as u64 + 1) / INDEX_STRIDE + 1 } else { 0 };
        let (mut records, mut at, mut index) = (0u64, 0u64, Vec::with_capacity(most as usize));
        let mut each = |body: &[u8]| {
            if recovering && records % INDEX_STRIDE == 0 {
                index.push(at);
            }
            records += 1;
            at += (HEADER + body.len()) as u64;
            f(EditRef::decode_borrowed(body)?)
        };
        let valid_len = match &self.backing {
            Backing::Mem(bytes) => {
                let (used, stop) = parse_records(&bytes[..len as usize], &mut each);
                stop.map(|_| used as u64)?
            }
            Backing::File { read, .. } => {
                let mut file = read.lock();
                file.seek(SeekFrom::Start(0))?;
                read_records(&mut *file, len, each)?
            }
        };
        if recovering {
            if valid_len < len {
                match &mut self.backing {
                    Backing::Mem(bytes) => bytes.truncate(valid_len as usize),
                    Backing::File { append, .. } => {
                        append.set_len(valid_len)?;
                        append.sync_data()?;
                    }
                }
            }
            (self.recovered, self.records, self.valid_len, self.index) =
                (true, records, valid_len, index);
        }
        Ok(records)
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
    /// already in the log count as resolved; a log nothing has read yet is
    /// read here, and one that cannot be read starts the batcher poisoned.
    pub fn new(mut log: EditLog) -> Self {
        let poisoned = log.recover().err().map(|e| e.to_string());
        let existing = log.records;
        Self {
            state: Mutex::new(GroupState {
                staged: Vec::new(),
                next_seq: existing,
                resolved_seq: existing,
                committing: false,
                poisoned,
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

    /// Number of durable ops (0 while a log that could not be read keeps
    /// the batcher poisoned).
    pub fn durable_len(&self) -> usize {
        self.log.lock().records as usize
    }

    /// The log's own bytes from record `from` on: whole durable records,
    /// at most [`TAIL_CAP`] bytes of them (so a reader far behind calls
    /// again until the reply is empty). Staged-but-unflushed ops are
    /// invisible here by design. The log's lock is held only to resolve
    /// `from` to a byte range; the file is read through its second handle
    /// after release, so a tailing backup never holds up a commit.
    pub fn tail(&self, from: u64) -> Result<Vec<u8>> {
        let mut log = self.log.lock();
        log.recover()?;
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

/// Serializes a checkpoint image: the namespace as the minimal op sequence
/// recreating it — every directory, then every file, each in path order —
/// encoded from ops that borrow their paths from the walk.
pub fn encode_image(ns: &Namespace) -> Vec<u8> {
    let mut out = Vec::new();
    ns.for_each_by_path(|path, entry| {
        if let Entry::Dir(quota) = entry {
            if path != "/" {
                frame_into(&EditOp::Mkdir { path }, &mut out);
            }
            if quota != TierQuota::unlimited() {
                frame_into(&EditOp::set_quota(path, quota), &mut out);
            }
        }
    });
    ns.for_each_by_path(|path, entry| {
        if let Entry::File(meta) = entry {
            let create = EditOp::CreateFile { path, rv: meta.rv, block_size: meta.block_size };
            frame_into(&create, &mut out);
            for &(id, len) in &meta.blocks {
                let block = Block { id, gen: GenStamp(0), len };
                frame_into(&EditOp::add_block(path, block), &mut out);
            }
            if meta.complete {
                frame_into(&EditOp::CloseFile { path }, &mut out);
            }
        }
    });
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
        let block = |id, len| Block { id: BlockId(id), gen: GenStamp(3), len };
        vec![
            EditOp::Mkdir { path: "/a/b".into() },
            EditOp::CreateFile {
                path: "/a/b/f".into(),
                rv: ReplicationVector::msh(1, 0, 2),
                block_size: 128,
            },
            EditOp::add_block("/a/b/f".into(), block(5, 128)),
            EditOp::add_block("/a/b/f".into(), block(9, 32)),
            EditOp::abandon_block("/a/b/f".into(), BlockId(9), 32),
            EditOp::add_block("/a/b/f".into(), block(6, 64)),
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::AppendFile { path: "/a/b/f".into() },
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::SetReplication { path: "/a/b/f".into(), rv: ReplicationVector::msh(0, 1, 2) },
            EditOp::rename("/a/b/f".into(), "/a/g".into()),
            EditOp::set_quota("/a".into(), TierQuota::limit_tier(0, 1 << 20)),
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
        let enc = EditOp::rename("/from", "/to").encode();
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

    /// A read through one chunk buffer hands out what an in-place parse of
    /// the same bytes does — records that straddle a chunk's end, one larger
    /// than a chunk — and stops where it stops at every tear of the last
    /// two records.
    #[test]
    fn a_scan_through_chunks_is_a_parse_in_place() {
        let mkdir =
            |len: usize, i: usize| EditOp::Mkdir { path: format!("/{}{i:04}", "n".repeat(len)) };
        let mut ops: Vec<EditOp> = (0..1_800).map(|i| mkdir(600, i)).collect();
        ops.push(mkdir(CHUNK + 1_000, 0));
        ops.extend((0..200).map(|i| mkdir(700, i)));
        let mut buf = Vec::new();
        ops.iter().for_each(|op| frame_into(op, &mut buf));
        assert!(buf.len() > 2 * CHUNK);

        let parse = |bytes: &[u8]| {
            let mut crcs = Vec::new();
            let mut keep = |body: &[u8]| {
                crcs.push(crc32(body));
                Ok(())
            };
            let (used, stop) = parse_records(bytes, &mut keep);
            (stop.map(|_| used as u64), crcs)
        };
        let read = |bytes: &[u8]| {
            let mut crcs = Vec::new();
            let keep = |body: &[u8]| {
                crcs.push(crc32(body));
                Ok(())
            };
            (read_records(bytes, bytes.len() as u64, keep), crcs)
        };
        let tail = 2 * (HEADER + 710);
        let tears = (buf.len() - tail..buf.len()).step_by(7).chain([buf.len()]);
        for cut in tears.chain([0, 3, HEADER, CHUNK, CHUNK + 1]) {
            let parsed = parse(&buf[..cut]);
            assert!(parsed == read(&buf[..cut]), "cut {cut}");
            if cut == buf.len() {
                let appended: Vec<u32> = ops.iter().map(|op| crc32(&op.encode())).collect();
                assert!(parsed == (Ok(cut as u64), appended));
            }
        }

        // A flipped byte is a CRC error on both, wherever in a chunk it is.
        for at in [10, CHUNK - 1, CHUNK + 600, buf.len() - 1] {
            buf[at] ^= 0x40;
            assert!(parse(&buf).0.is_err(), "flip at {at}");
            assert!(read(&buf).0.is_err(), "flip at {at}");
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
        let mut reopened = EditLog::open(&path).unwrap();
        assert_eq!(reopened.replay(|_| Ok(())), Ok(ops.len() as u64));
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
