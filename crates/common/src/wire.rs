//! Wire codec for the network protocol, and the byte layout of the edit
//! log's record bodies (`octopus-master`'s `editlog`).
//!
//! A deliberately small, hand-rolled, little-endian format (a DFS wants a
//! stable wire format, not a generic serializer): primitives are
//! fixed-width, strings and vectors are length-prefixed, and every
//! compound type implements [`Wire`]. A message's one bulk field (a block
//! payload) is always its last, so the RPC layer can send everything before
//! it as a frame's head and the field's bytes as the frame's body, and
//! [`WireReader::with_body`] decodes the two as the one message they spell.

use crate::{
    Block, BlockData, BlockId, ClientLocation, DirEntry, FileStatus, FsError, GenStamp, INodeId,
    LocatedBlock, Location, MediaId, MediaStats, RackId, ReplicationVector, Result,
    StorageTierReport, TierId, TierStats, WorkerId,
};

/// Incremental reader over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding out of a shared frame buffer: the backing [`Bytes`]
    /// plus the offset of `buf` within it. Byte payloads then decode as
    /// zero-copy slices of the frame instead of fresh allocations.
    shared: Option<(&'a bytes::Bytes, usize)>,
    /// A frame's body, read once `buf` is used up.
    body: Option<&'a bytes::Bytes>,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, shared: None, body: None }
    }

    /// Wraps a suffix of a shared frame buffer, starting at `offset`.
    /// [`bytes::Bytes`] values decoded through this reader are zero-copy
    /// views into `frame` (they share its allocation).
    pub fn new_shared(frame: &'a bytes::Bytes, offset: usize) -> Self {
        Self { buf: &frame[offset..], pos: 0, shared: Some((frame, offset)), body: None }
    }

    /// Continues with `body` once this reader's buffer is used up: the
    /// message is the buffer followed by the body, and a field that starts
    /// where the buffer ends is read from the body — a bulk field there
    /// decodes as a view of the body itself. No field may straddle the two.
    pub fn with_body(self, body: Option<&'a bytes::Bytes>) -> Self {
        Self { body, ..self }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            if self.pos == self.buf.len() {
                if let Some(body) = self.body.take() {
                    *self = Self::new_shared(body, 0);
                    return self.take(n);
                }
            }
            return Err(FsError::Io("truncated wire message".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes `n` bytes as a [`bytes::Bytes`]: a zero-copy slice when the
    /// reader is backed by a shared frame, a copy otherwise.
    pub fn take_bytes(&mut self, n: usize) -> Result<bytes::Bytes> {
        // Bounds check and advance first: they may move the reader on to
        // the body, which the view is then cut from.
        let taken = self.take(n)?;
        match self.shared {
            Some((frame, off)) => {
                let end = off + self.pos;
                Ok(frame.slice(end - n..end))
            }
            None => Ok(bytes::Bytes::copy_from_slice(taken)),
        }
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn finished(&self) -> bool {
        self.left() == 0
    }

    /// Bytes not yet consumed, the body's included.
    fn left(&self) -> usize {
        self.buf.len() - self.pos + self.body.map_or(0, |b| b.len())
    }

    /// Reads a length-prefixed UTF-8 string as a view of the buffer, so a
    /// caller that only looks at it allocates nothing. Lengths over
    /// [`MAX_SEQ_LEN`] are rejected before anything is taken.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let len = u32::get(self)? as usize;
        if len > MAX_SEQ_LEN {
            return Err(FsError::Io(format!("wire string length {len} too large")));
        }
        std::str::from_utf8(self.take(len)?).map_err(|e| FsError::Io(e.to_string()))
    }

    /// Asserts full consumption (protocol hygiene).
    pub fn expect_finished(&self) -> Result<()> {
        if self.finished() {
            Ok(())
        } else {
            Err(FsError::Io(format!("{} trailing bytes in wire message", self.left())))
        }
    }
}

/// Decode-side cap on string and vector lengths. Encoding enforces the
/// same bound: a `String` or `Vec` longer than this panics in [`Wire::put`]
/// rather than silently truncating its `u32` length prefix — a message
/// that cannot round-trip must never reach the wire.
pub const MAX_SEQ_LEN: usize = 16_777_216;

/// Cap on raw byte payloads ([`bytes::Bytes`]): one block (≤1 GiB here)
/// plus headroom, matching the RPC layer's frame cap.
pub const MAX_BYTES_LEN: usize = (1 << 30) + (1 << 20);

/// Types that can cross the wire.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Decodes one value.
    fn get(r: &mut WireReader<'_>) -> Result<Self>;
}

macro_rules! wire_int {
    ($t:ty, $n:expr) => {
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.take($n)?.try_into().unwrap()))
            }
        }
    };
}

wire_int!(u8, 1);
wire_int!(u16, 2);
wire_int!(u32, 4);
wire_int!(u64, 8);
wire_int!(i64, 8);

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(f64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(FsError::Io(format!("bad bool byte {v}"))),
        }
    }
}

/// Appends `s` as a `u32` byte length and its UTF-8 bytes: a `String`'s
/// encoding, for callers holding a `&str`.
///
/// # Panics
/// If the string exceeds [`MAX_SEQ_LEN`] bytes (the decoder would reject
/// it, and a `u32` prefix cannot represent it faithfully).
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(
        s.len() <= MAX_SEQ_LEN,
        "wire string of {} bytes exceeds the {MAX_SEQ_LEN}-byte cap",
        s.len()
    );
    (s.len() as u32).put(buf);
    buf.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    /// # Panics
    /// As [`put_str`].
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    /// # Panics
    /// If the vector exceeds [`MAX_SEQ_LEN`] elements (mirrors the decode
    /// cap; a longer vector would truncate its `u32` length prefix).
    fn put(&self, buf: &mut Vec<u8>) {
        assert!(
            self.len() <= MAX_SEQ_LEN,
            "wire vector of {} elements exceeds the {MAX_SEQ_LEN}-element cap",
            self.len()
        );
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let len = u32::get(r)? as usize;
        // Defensive cap: a corrupted length must not allocate the world.
        if len > MAX_SEQ_LEN {
            return Err(FsError::Io(format!("wire vector length {len} too large")));
        }
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            v => Err(FsError::Io(format!("bad option byte {v}"))),
        }
    }
}

/// Raw byte payloads (block data) — length-prefixed.
impl Wire for bytes::Bytes {
    /// # Panics
    /// If the payload exceeds [`MAX_BYTES_LEN`] (larger than any legal
    /// block, and unrepresentable in the RPC frame header).
    fn put(&self, buf: &mut Vec<u8>) {
        assert!(
            self.len() <= MAX_BYTES_LEN,
            "wire byte payload of {} bytes exceeds the {MAX_BYTES_LEN}-byte cap",
            self.len()
        );
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let len = u32::get(r)? as usize;
        if len > MAX_BYTES_LEN {
            return Err(FsError::Io(format!("wire byte payload length {len} too large")));
        }
        r.take_bytes(len)
    }
}

macro_rules! wire_newtype {
    ($t:ty, $inner:ty) => {
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf);
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(Self(<$inner>::get(r)?))
            }
        }
    };
}

wire_newtype!(BlockId, u64);
wire_newtype!(INodeId, u64);
wire_newtype!(GenStamp, u64);
wire_newtype!(WorkerId, u32);
wire_newtype!(MediaId, u32);
wire_newtype!(RackId, u16);
wire_newtype!(TierId, u8);

impl Wire for ReplicationVector {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(ReplicationVector::from_bits(u64::get(r)?))
    }
}

impl Wire for Block {
    fn put(&self, buf: &mut Vec<u8>) {
        self.id.put(buf);
        self.gen.put(buf);
        self.len.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Block { id: Wire::get(r)?, gen: Wire::get(r)?, len: Wire::get(r)? })
    }
}

impl Wire for Location {
    fn put(&self, buf: &mut Vec<u8>) {
        self.worker.put(buf);
        self.media.put(buf);
        self.tier.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Location { worker: Wire::get(r)?, media: Wire::get(r)?, tier: Wire::get(r)? })
    }
}

impl Wire for LocatedBlock {
    fn put(&self, buf: &mut Vec<u8>) {
        self.block.put(buf);
        self.offset.put(buf);
        self.locations.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(LocatedBlock { block: Wire::get(r)?, offset: Wire::get(r)?, locations: Wire::get(r)? })
    }
}

impl Wire for MediaStats {
    fn put(&self, buf: &mut Vec<u8>) {
        self.media.put(buf);
        self.worker.put(buf);
        self.rack.put(buf);
        self.tier.put(buf);
        self.capacity.put(buf);
        self.remaining.put(buf);
        self.nr_conn.put(buf);
        self.write_thru.put(buf);
        self.read_thru.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(MediaStats {
            media: Wire::get(r)?,
            worker: Wire::get(r)?,
            rack: Wire::get(r)?,
            tier: Wire::get(r)?,
            capacity: Wire::get(r)?,
            remaining: Wire::get(r)?,
            nr_conn: Wire::get(r)?,
            write_thru: Wire::get(r)?,
            read_thru: Wire::get(r)?,
        })
    }
}

impl Wire for FileStatus {
    fn put(&self, buf: &mut Vec<u8>) {
        self.id.put(buf);
        self.path.put(buf);
        self.is_dir.put(buf);
        self.len.put(buf);
        self.rv.put(buf);
        self.block_size.put(buf);
        self.complete.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(FileStatus {
            id: Wire::get(r)?,
            path: Wire::get(r)?,
            is_dir: Wire::get(r)?,
            len: Wire::get(r)?,
            rv: Wire::get(r)?,
            block_size: Wire::get(r)?,
            complete: Wire::get(r)?,
        })
    }
}

impl Wire for DirEntry {
    fn put(&self, buf: &mut Vec<u8>) {
        self.name.put(buf);
        self.is_dir.put(buf);
        self.len.put(buf);
        self.rv.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(DirEntry {
            name: Wire::get(r)?,
            is_dir: Wire::get(r)?,
            len: Wire::get(r)?,
            rv: Wire::get(r)?,
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Wire for ClientLocation {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            ClientLocation::OffCluster => buf.push(0),
            ClientLocation::OnWorker(w) => {
                buf.push(1);
                w.put(buf);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(ClientLocation::OffCluster),
            1 => Ok(ClientLocation::OnWorker(Wire::get(r)?)),
            v => Err(FsError::Io(format!("bad client location tag {v}"))),
        }
    }
}

impl Wire for BlockData {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            BlockData::Real(b) => {
                buf.push(0);
                b.put(buf);
            }
            BlockData::Synthetic { len, seed } => {
                buf.push(1);
                len.put(buf);
                seed.put(buf);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(BlockData::Real(Wire::get(r)?)),
            1 => Ok(BlockData::Synthetic { len: Wire::get(r)?, seed: Wire::get(r)? }),
            v => Err(FsError::Io(format!("bad block data tag {v}"))),
        }
    }
}

impl Wire for TierStats {
    fn put(&self, buf: &mut Vec<u8>) {
        self.tier.put(buf);
        self.num_media.put(buf);
        self.capacity.put(buf);
        self.remaining.put(buf);
        self.avg_write_thru.put(buf);
        self.avg_read_thru.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(TierStats {
            tier: Wire::get(r)?,
            num_media: Wire::get(r)?,
            capacity: Wire::get(r)?,
            remaining: Wire::get(r)?,
            avg_write_thru: Wire::get(r)?,
            avg_read_thru: Wire::get(r)?,
        })
    }
}

impl Wire for StorageTierReport {
    fn put(&self, buf: &mut Vec<u8>) {
        self.name.put(buf);
        self.stats.put(buf);
        self.volatile.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(StorageTierReport { name: Wire::get(r)?, stats: Wire::get(r)?, volatile: Wire::get(r)? })
    }
}

/// Errors cross the wire with their variant preserved so remote clients
/// can match on failure classes exactly as local ones do.
impl Wire for FsError {
    fn put(&self, buf: &mut Vec<u8>) {
        use FsError::*;
        let (tag, msg): (u8, &str) = match self {
            NotFound(m) => (0, m),
            AlreadyExists(m) => (1, m),
            NotADirectory(m) => (2, m),
            IsADirectory(m) => (3, m),
            DirectoryNotEmpty(m) => (4, m),
            InvalidPath(m) => (5, m),
            InvalidReplicationVector(m) => (6, m),
            PlacementFailed(m) => (7, m),
            BlockUnavailable(m) => (8, m),
            ChecksumMismatch { expected, actual } => {
                buf.push(9);
                expected.put(buf);
                actual.put(buf);
                return;
            }
            OutOfCapacity(m) => (10, m),
            QuotaExceeded(m) => (11, m),
            UnknownWorker(m) => (12, m),
            UnknownMedia(m) => (13, m),
            UnknownTier(m) => (14, m),
            LeaseConflict(m) => (15, m),
            InvalidArgument(m) => (16, m),
            NotReady(m) => (17, m),
            Io(m) => (18, m),
            Config(m) => (19, m),
            Internal(m) => (20, m),
            Timeout(m) => (21, m),
            Unreachable(m) => (22, m),
        };
        buf.push(tag);
        put_str(buf, msg);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        use FsError::*;
        let tag = u8::get(r)?;
        if tag == 9 {
            return Ok(ChecksumMismatch { expected: Wire::get(r)?, actual: Wire::get(r)? });
        }
        let m = String::get(r)?;
        Ok(match tag {
            0 => NotFound(m),
            1 => AlreadyExists(m),
            2 => NotADirectory(m),
            3 => IsADirectory(m),
            4 => DirectoryNotEmpty(m),
            5 => InvalidPath(m),
            6 => InvalidReplicationVector(m),
            7 => PlacementFailed(m),
            8 => BlockUnavailable(m),
            10 => OutOfCapacity(m),
            11 => QuotaExceeded(m),
            12 => UnknownWorker(m),
            13 => UnknownMedia(m),
            14 => UnknownTier(m),
            15 => LeaseConflict(m),
            16 => InvalidArgument(m),
            17 => NotReady(m),
            18 => Io(m),
            19 => Config(m),
            20 => Internal(m),
            21 => Timeout(m),
            22 => Unreachable(m),
            t => return Err(FsError::Io(format!("bad error tag {t}"))),
        })
    }
}

/// Encodes a value into a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.put(&mut buf);
    buf
}

/// Decodes a value, requiring full consumption of the payload.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T> {
    let mut r = WireReader::new(buf);
    let v = T::get(&mut r)?;
    r.expect_finished()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode(&v);
        assert_eq!(decode::<T>(&enc).unwrap(), v);
    }

    #[test]
    fn primitives() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(123456u32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(1.5f64);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
    }

    #[test]
    fn containers() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some("x".to_string()));
        round_trip(Option::<u32>::None);
        round_trip(bytes::Bytes::from(vec![9u8; 1000]));
    }

    #[test]
    fn domain_types() {
        round_trip(Block { id: BlockId(7), gen: GenStamp(3), len: 1 << 30 });
        round_trip(Location { worker: WorkerId(4), media: MediaId(19), tier: TierId(2) });
        round_trip(LocatedBlock {
            block: Block { id: BlockId(1), gen: GenStamp(0), len: 10 },
            offset: 100,
            locations: vec![Location { worker: WorkerId(0), media: MediaId(0), tier: TierId(0) }],
        });
        round_trip(ReplicationVector::mshru(1, 2, 3, 0, 4));
        round_trip(FileStatus {
            id: INodeId(9),
            path: "/a/b".into(),
            is_dir: false,
            len: 42,
            rv: ReplicationVector::msh(1, 0, 2),
            block_size: 1 << 27,
            complete: true,
        });
        round_trip(DirEntry {
            name: "x".into(),
            is_dir: true,
            len: 0,
            rv: ReplicationVector::EMPTY,
        });
        round_trip(MediaStats {
            media: MediaId(1),
            worker: WorkerId(2),
            rack: RackId(3),
            tier: TierId(1),
            capacity: 100,
            remaining: 50,
            nr_conn: 4,
            write_thru: 1e8,
            read_thru: 2e8,
        });
    }

    #[test]
    fn extended_types() {
        round_trip(ClientLocation::OffCluster);
        round_trip(ClientLocation::OnWorker(WorkerId(3)));
        round_trip(BlockData::Real(bytes::Bytes::from_static(b"abc")));
        round_trip(BlockData::Synthetic { len: 1 << 40, seed: 7 });
        round_trip((String::from("a"), 42u64));
        round_trip(StorageTierReport {
            name: "SSD".into(),
            stats: TierStats {
                tier: TierId(1),
                num_media: 9,
                capacity: 100,
                remaining: 40,
                avg_write_thru: 1e8,
                avg_read_thru: 2e8,
            },
            volatile: false,
        });
        round_trip(FsError::NotFound("/x".into()));
        round_trip(FsError::ChecksumMismatch { expected: 1, actual: 2 });
        round_trip(FsError::LeaseConflict("held".into()));
        round_trip(FsError::Timeout("read deadline".into()));
        round_trip(FsError::Unreachable("connection refused".into()));
    }

    #[test]
    fn max_len_values_encode() {
        // Values exactly at the cap round-trip; this also pins the cap
        // constants so a decode/encode asymmetry cannot creep back in.
        let s = "x".repeat(100);
        round_trip(s);
        assert_eq!(MAX_SEQ_LEN, 16_777_216);
        const { assert!(MAX_BYTES_LEN > MAX_SEQ_LEN) };
    }

    #[test]
    #[should_panic(expected = "exceeds the 16777216-byte cap")]
    fn oversize_string_rejected_at_encode() {
        let s = "y".repeat(MAX_SEQ_LEN + 1);
        encode(&s);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16777216-element cap")]
    fn oversize_vector_rejected_at_encode() {
        let v = vec![0u8; MAX_SEQ_LEN + 1];
        encode(&v);
    }

    #[test]
    fn oversize_bytes_rejected_at_decode() {
        // An incoming payload claiming more than MAX_BYTES_LEN bytes is
        // rejected before any allocation.
        let mut buf = Vec::new();
        ((MAX_BYTES_LEN as u32) + 1).put(&mut buf);
        assert!(decode::<bytes::Bytes>(&buf).is_err());
    }

    #[test]
    fn shared_reader_decodes_bytes_zero_copy() {
        let payload = bytes::Bytes::from(vec![5u8; 4096]);
        let mut enc = vec![0xAAu8; 3]; // pretend 3 bytes of preceding fields
        payload.put(&mut enc);
        let frame = bytes::Bytes::from(enc);
        let mut r = WireReader::new_shared(&frame, 3);
        let got = bytes::Bytes::get(&mut r).unwrap();
        assert_eq!(got, payload);
        // The decoded value aliases the frame's allocation (no copy).
        assert!(std::ptr::eq(got.as_ref().as_ptr(), frame[7..].as_ptr()));
        r.expect_finished().unwrap();
    }

    #[test]
    fn a_bulk_field_is_read_from_the_body_as_a_view_of_it() {
        let block = bytes::Bytes::from(vec![5u8; 4096]);
        let value = (7u64, BlockData::Real(block.clone()));
        let flat = encode(&value);
        // Everything up to the bulk bytes is the head; the bytes the body.
        let head = bytes::Bytes::from(flat[..flat.len() - block.len()].to_vec());
        let body = bytes::Bytes::from(block.to_vec());
        let mut r = WireReader::new_shared(&head, 0).with_body(Some(&body));
        let got = <(u64, BlockData)>::get(&mut r).unwrap();
        r.expect_finished().unwrap();
        assert_eq!(got, value);
        let (_, BlockData::Real(got)) = got else { unreachable!() };
        assert!(std::ptr::eq(got.as_ptr(), body.as_ptr()), "the field is the body, not a copy");

        // A body nobody reads is trailing bytes; a field may not straddle
        // the head's end; a body too short for its field is truncated.
        let mut r = WireReader::new_shared(&head, 0).with_body(Some(&body));
        u64::get(&mut r).unwrap();
        assert!(r.expect_finished().is_err());
        let cut = bytes::Bytes::from(flat[..flat.len() - block.len() - 2].to_vec());
        let mut r = WireReader::new_shared(&cut, 0).with_body(Some(&body));
        assert!(<(u64, BlockData)>::get(&mut r).is_err());
        let short = body.slice(0..4095);
        let mut r = WireReader::new_shared(&head, 0).with_body(Some(&short));
        assert!(<(u64, BlockData)>::get(&mut r).is_err());
        // An empty body is no body.
        let empty = (1u64, BlockData::Real(bytes::Bytes::new()));
        let head = bytes::Bytes::from(encode(&empty));
        let none = bytes::Bytes::new();
        let mut r = WireReader::new_shared(&head, 0).with_body(Some(&none));
        assert_eq!(<(u64, BlockData)>::get(&mut r).unwrap(), empty);
        r.expect_finished().unwrap();
    }

    #[test]
    fn a_str_is_a_view_of_the_buffer_and_checked_like_a_string() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        put_str(&mut buf, "");
        assert_eq!(buf, [encode(&String::from("héllo")), encode(&String::new())].concat());
        let mut r = WireReader::new(&buf);
        let s = r.str().unwrap();
        assert_eq!(s, "héllo");
        assert!(std::ptr::eq(s.as_ptr(), buf[4..].as_ptr()), "borrowed, not copied");
        assert_eq!(r.str().unwrap(), "");
        assert!(r.finished());

        // Over the cap, invalid UTF-8 and cut short are errors, as they are
        // for `String`.
        let mut huge = Vec::new();
        ((MAX_SEQ_LEN as u32) + 1).put(&mut huge);
        huge.extend_from_slice(b"x");
        assert!(WireReader::new(&huge).str().is_err());
        assert!(decode::<String>(&huge).is_err());
        let bad = [2, 0, 0, 0, 0xC3, 0x28];
        assert!(WireReader::new(&bad).str().is_err());
        assert!(decode::<String>(&bad).is_err());
        assert!(WireReader::new(&buf[..8]).str().is_err());
        assert!(WireReader::new(&buf[..3]).str().is_err());
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let enc = encode(&String::from("hello"));
        assert!(decode::<String>(&enc[..enc.len() - 1]).is_err());
        let mut extra = enc.clone();
        extra.push(0);
        assert!(decode::<String>(&extra).is_err());
    }

    #[test]
    fn hostile_lengths_rejected() {
        // A vector claiming 2^31 elements must not allocate.
        let mut buf = Vec::new();
        (u32::MAX).put(&mut buf);
        assert!(decode::<Vec<u64>>(&buf).is_err());
        // Bad bool / option discriminants.
        assert!(decode::<bool>(&[7]).is_err());
        assert!(decode::<Option<u8>>(&[9, 0]).is_err());
    }
}
