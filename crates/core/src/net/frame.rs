//! Message framing over a TCP stream: the multiplexed frame
//! ([`write_mux_frame`]/[`read_mux_frame`]) every RPC travels in. A frame
//! is one of
//!
//! - `[u32 len][u64 request_id][payload]` — a message with no bulk field;
//! - `[u32 len | BODY][u64 request_id][u32 body_len][head][body]` — a
//!   message whose last field is bulk bytes (a block payload, an edit-log
//!   range): `head` is the message up to those bytes, length prefix
//!   included, and `body` the bytes themselves.
//!
//! `len` counts everything after itself, and the top bit of the length
//! word (`BODY`) marks a body, so a frame without one is the plain
//! format. The id lets any number of in-flight calls share one connection:
//! responses carry the id of the request they answer, in whatever order
//! the server finishes them.
//!
//! [`write_mux_frame`] gather-writes header, head segments and body in one
//! vectored write — one syscall and one wake-up of the peer's reader per
//! frame, and no staging copy: a block handed around as [`bytes::Bytes`]
//! goes to the socket straight from its backing buffer.
//! [`read_mux_frame`] receives head and body into buffers of their own, so
//! a block arrives in a buffer of exactly its length, which is what a
//! worker then stores. One of 4 KiB or more is a buffer of the
//! process-wide pool (`net/bufpool.rs`), which gets it back when the last
//! view of it is dropped. The RPC client's reader goes a step at a time —
//! [`read_frame_head`], then [`read_body`] or [`skip_body`] — so a body a
//! caller lands in its own slice never takes a buffer here.

use std::io::{ErrorKind, IoSlice, Read, Write};

use bytes::Bytes;
use octopus_common::{FsError, Result};

use super::bufpool::{self, BufPool};

/// Upper bound on a single frame: one block (≤1 GiB here) plus headroom.
/// Protects servers from hostile or corrupt length prefixes.
pub const MAX_FRAME: usize = (1 << 30) + (1 << 20);

/// Bytes of the request id inside a mux frame (counted by the length
/// prefix, ahead of the payload).
pub const MUX_ID_LEN: usize = 8;

/// The length word's flag for a frame with a body. No legal length
/// reaches it.
const BODY: u32 = 1 << 31;
const _: () = assert!(MAX_FRAME < BODY as usize);

/// Bytes of the body length inside a frame with a body.
const BODY_LEN_LEN: usize = 4;

/// A received frame's payload: its head and, if the sender framed one, its
/// body, each in a buffer of its own — so a bulk field decodes as a view of
/// the buffer it arrived in.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The head, trace envelope included.
    pub head: Bytes,
    /// The body, if the frame has one.
    pub body: Option<Bytes>,
}

/// Writes one frame with request id `id`: the concatenation of the `head`
/// segments, and `body` if the message has one. Header, segments and body
/// leave in one vectored write (more only if the sink takes less than it
/// was offered), each from the caller's own buffer.
pub fn write_mux_frame(
    stream: &mut impl Write,
    id: u64,
    head: &[&[u8]],
    body: Option<&[u8]>,
) -> Result<()> {
    let head_len: usize = head.iter().map(|s| s.len()).sum();
    let payload_len = head_len + body.map_or(0, |b| BODY_LEN_LEN + b.len());
    if payload_len > MAX_FRAME - MUX_ID_LEN {
        return Err(FsError::Io(format!("frame of {payload_len} bytes exceeds cap")));
    }
    let mut header = [0u8; 4 + MUX_ID_LEN + BODY_LEN_LEN];
    let flag = if body.is_some() { BODY } else { 0 };
    header[..4].copy_from_slice(&((payload_len + MUX_ID_LEN) as u32 | flag).to_le_bytes());
    header[4..4 + MUX_ID_LEN].copy_from_slice(&id.to_le_bytes());
    let header_len = match body {
        Some(b) => {
            header[4 + MUX_ID_LEN..].copy_from_slice(&(b.len() as u32).to_le_bytes());
            header.len()
        }
        None => 4 + MUX_ID_LEN,
    };
    let mut parts: Vec<IoSlice<'_>> = Vec::with_capacity(2 + head.len());
    parts.push(IoSlice::new(&header[..header_len]));
    parts.extend(head.iter().chain(&body).filter(|s| !s.is_empty()).map(|s| IoSlice::new(s)));
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match stream.write_vectored(left) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    stream.flush()?;
    Ok(())
}

/// A frame's header and head, read ahead of its body: the request id, the
/// head, and the length of the body that follows on the stream, if the
/// frame has one.
pub struct FrameHead {
    /// The request id.
    pub id: u64,
    /// The head, trace envelope included.
    pub head: Bytes,
    /// The body's length, if the frame has a body.
    pub body_len: Option<usize>,
}

/// Reads one mux frame, returning `(request_id, payload)`. Returns `None`
/// on clean EOF at a frame boundary.
pub fn read_mux_frame(stream: &mut impl Read) -> Result<Option<(u64, Frame)>> {
    let Some(FrameHead { id, head, body_len }) = read_frame_head(stream)? else {
        return Ok(None);
    };
    let body = body_len.map(|n| read_body(stream, n)).transpose()?;
    Ok(Some((id, Frame { head, body })))
}

/// Reads a frame's header and head, leaving its body (if any) on the
/// stream. Returns `None` on clean EOF at a frame boundary. Every length is
/// checked against the frame's before anything is allocated for it.
pub fn read_frame_head(stream: &mut impl Read) -> Result<Option<FrameHead>> {
    let mut header = [0u8; 4 + MUX_ID_LEN];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FsError::Unreachable("EOF inside mux frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let word = u32::from_le_bytes(header[..4].try_into().unwrap());
    let len = (word & !BODY) as usize;
    if len < MUX_ID_LEN {
        return Err(FsError::Io(format!("mux frame length {len} shorter than its id")));
    }
    if len > MAX_FRAME {
        return Err(FsError::Io(format!("incoming frame of {len} bytes exceeds cap")));
    }
    let id = u64::from_le_bytes(header[4..].try_into().unwrap());
    let payload_len = len - MUX_ID_LEN;
    let body_len = if word & BODY != 0 {
        if payload_len < BODY_LEN_LEN {
            return Err(FsError::Io(format!(
                "mux frame length {len} shorter than its body length"
            )));
        }
        let mut field = [0u8; BODY_LEN_LEN];
        fill(stream, &mut field)?;
        let body_len = u32::from_le_bytes(field) as usize;
        if body_len > payload_len - BODY_LEN_LEN {
            return Err(FsError::Io(format!("body of {body_len} bytes in a frame of {len}")));
        }
        Some(body_len)
    } else {
        None
    };
    let head_len = payload_len - body_len.map_or(0, |n| BODY_LEN_LEN + n);
    let head = read_body(stream, head_len)?;
    Ok(Some(FrameHead { id, head, body_len }))
}

/// Reads exactly `len` bytes into a buffer of their own: a pooled one from
/// 4 KiB up, published only once it is overwritten whole (on an error it
/// drops back unexposed).
pub fn read_body(stream: &mut impl Read, len: usize) -> Result<Bytes> {
    if len >= bufpool::SMALLEST {
        let mut buf = BufPool::global().take(len);
        fill(stream, buf.as_mut_slice())?;
        Ok(buf.freeze())
    } else {
        let mut buf = vec![0u8; len];
        fill(stream, &mut buf)?;
        Ok(Bytes::from(buf))
    }
}

/// Reads `len` bytes of a body nobody waits for any more and drops them,
/// through a small buffer of its own.
pub fn skip_body(stream: &mut impl Read, len: usize) -> Result<()> {
    let mut scratch = [0u8; 8 * 1024];
    let mut left = len;
    while left > 0 {
        let n = left.min(scratch.len());
        fill(stream, &mut scratch[..n])?;
        left -= n;
    }
    Ok(())
}

/// `read_exact`, naming a stream that ends too soon what it is on a
/// socket: the peer went away.
fn fill(stream: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    stream.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => FsError::Unreachable("EOF inside a mux frame".into()),
        _ => e.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    use octopus_common::trace::{wrap_envelope, SpanId, TraceContext, TraceId};
    use octopus_common::{Block, BlockData, BlockId, GenStamp, Location, MediaId, TierId};
    use octopus_common::{WorkerId, KB, MB};

    use crate::net::proto::{
        decode_request, decode_result, encode_worker_frame, encode_worker_result_frame,
        FramePayload, WorkerRequest, WorkerResponse,
    };

    /// Writes `payload` as one frame, as the RPC client sends it: behind
    /// the trace envelope, if any.
    fn framed(id: u64, envelope: &[u8], payload: &FramePayload) -> Vec<u8> {
        let mut out = Vec::new();
        write_mux_frame(&mut out, id, &[envelope, &payload.head], payload.body.as_deref()).unwrap();
        out
    }

    fn read_one(wire: &[u8]) -> (u64, Frame) {
        read_mux_frame(&mut Cursor::new(wire)).unwrap().unwrap()
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_mux_frame(&mut buf, 3, &[b"hello"], None).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_mux_frame(&mut Cursor::new(&buf)).is_err(), "EOF inside the payload");
        buf.truncate(6);
        assert!(read_mux_frame(&mut Cursor::new(&buf)).is_err(), "EOF inside the header");
    }

    #[test]
    fn hostile_length_rejected() {
        let mut mux = Vec::new();
        mux.extend_from_slice(&u32::MAX.to_le_bytes());
        mux.extend_from_slice(&1u64.to_le_bytes());
        assert!(read_mux_frame(&mut Cursor::new(mux)).is_err());
    }

    #[test]
    fn round_trip_mux_frames() {
        let big = vec![9u8; 100_000];
        let mut buf = Vec::new();
        write_mux_frame(&mut buf, 7, &[b"head", &big, b"tail"], None).unwrap();
        write_mux_frame(&mut buf, u64::MAX, &[], None).unwrap();
        write_mux_frame(&mut buf, 0, &[b"x"], None).unwrap();
        write_mux_frame(&mut buf, 1, &[b"he", b"ad"], Some(&big)).unwrap();
        let mut cur = Cursor::new(buf);
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, payload.body), (7, None));
        assert_eq!(payload.head.len(), 4 + big.len() + 4);
        assert_eq!(&payload.head[..4], b"head");
        assert_eq!(&payload.head[4..4 + big.len()], &big[..]);
        assert_eq!(&payload.head[4 + big.len()..], b"tail");
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, payload.head.len(), payload.body), (u64::MAX, 0, None));
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, &payload.head[..]), (0, &b"x"[..]));
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, &payload.head[..]), (1, &b"head"[..]));
        assert_eq!(payload.body.as_deref(), Some(&big[..]));
        assert!(read_mux_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn a_frame_without_a_body_is_the_plain_format() {
        let mut wire = Vec::new();
        write_mux_frame(&mut wire, 0x0102, &[b"ab", b"c"], None).unwrap();
        let mut plain = (8u32 + 3).to_le_bytes().to_vec();
        plain.extend_from_slice(&0x0102u64.to_le_bytes());
        plain.extend_from_slice(b"abc");
        assert_eq!(wire, plain);
    }

    /// Every body length the data path meets, from none to a 1 MiB block,
    /// as a `WriteBlock` (through a pipeline's head) and as the `Data`
    /// that reads it back, each bare and behind a trace envelope: the
    /// message decodes to what was sent, its block is a view of the
    /// received body, and that body's buffer is exactly the block.
    #[test]
    fn requests_and_responses_round_trip_at_every_body_length() {
        let ctx = TraceContext { trace_id: TraceId(0xABCD), parent_span: SpanId(42), flags: 1 };
        let loc = Location { worker: WorkerId(1), media: MediaId(3), tier: TierId(1) };
        for len in [0, 1, 4 * KB as usize - 1, 4 * KB as usize, 16 * KB as usize, MB as usize] {
            let data = BlockData::generate_real(len, len as u64);
            let block = Block { id: BlockId(9), gen: GenStamp(2), len: len as u64 };
            let request = WorkerRequest::WriteBlock(block, MediaId(0), vec![loc], data.clone());
            let response = WorkerResponse::Data(data.clone(), data.checksum());
            for envelope in [Vec::new(), wrap_envelope(&ctx, &[])] {
                let at = format!("{len} B, envelope of {} B", envelope.len());
                let (id, frame) = read_one(&framed(5, &envelope, &encode_worker_frame(&request)));
                assert_eq!(id, 5, "{at}");
                let body = frame.body.clone().expect("a block travels as the frame's body");
                assert_eq!(body.len(), len, "{at}");
                let (got_ctx, got) = decode_request::<WorkerRequest>(&frame).unwrap();
                assert_eq!((got_ctx.is_some(), &got), (!envelope.is_empty(), &request), "{at}");
                let WorkerRequest::WriteBlock(.., BlockData::Real(bytes)) = got else {
                    unreachable!()
                };
                let aliased = std::ptr::eq(bytes.as_ptr(), body.as_ptr());
                assert!(len == 0 || aliased, "{at}: a view of the body");

                let sent = encode_worker_result_frame(&Ok(response.clone()));
                let (_, frame) = read_one(&framed(6, &[], &sent));
                assert_eq!(decode_result::<WorkerResponse>(&frame).unwrap(), response, "{at}");
            }
        }
    }

    #[test]
    fn a_body_longer_than_its_frame_is_refused_before_anything_is_read() {
        let mut wire = Vec::new();
        write_mux_frame(&mut wire, 4, &[b"head"], Some(&[7u8; 100])).unwrap();
        let body_len_at = 4 + MUX_ID_LEN;
        // The frame has room for exactly 4 + 100 bytes after its body
        // length; a body one byte longer than that is refused, and so is a
        // hostile 4 GiB one — before a buffer of that size exists.
        for claimed in [105u32, u32::MAX] {
            let mut bad = wire.clone();
            bad[body_len_at..body_len_at + 4].copy_from_slice(&claimed.to_le_bytes());
            let err = read_mux_frame(&mut Cursor::new(&bad)).unwrap_err();
            assert!(err.to_string().contains("body of"), "{claimed}: {err}");
        }
        // The longest legal body: the head is empty.
        let mut whole = wire.clone();
        whole[body_len_at..body_len_at + 4].copy_from_slice(&104u32.to_le_bytes());
        let (_, frame) = read_one(&whole);
        assert_eq!((frame.head.len(), frame.body.map(|b| b.len())), (0, Some(104)));
        // A flagged frame too short to hold a body length at all.
        let mut tiny = (BODY | (MUX_ID_LEN as u32 + 2)).to_le_bytes().to_vec();
        tiny.extend_from_slice(&[0u8; MUX_ID_LEN + 2]);
        assert!(read_mux_frame(&mut Cursor::new(&tiny)).is_err());
    }

    #[test]
    fn a_body_cut_short_errors() {
        let mut wire = Vec::new();
        write_mux_frame(&mut wire, 13, &[b"head"], Some(&vec![1u8; 16 * 1024])).unwrap();
        for cut in [1, 8 * 1024, 16 * 1024] {
            let short = &wire[..wire.len() - cut];
            assert!(read_mux_frame(&mut Cursor::new(short)).is_err(), "{cut} bytes short");
        }
        // Cut inside the body length, and inside the head.
        assert!(read_mux_frame(&mut Cursor::new(&wire[..4 + MUX_ID_LEN + 2])).is_err());
        assert!(read_mux_frame(&mut Cursor::new(&wire[..4 + MUX_ID_LEN + 6])).is_err());
    }

    /// A sink that counts calls and takes at most `per_call` bytes of what
    /// each offers.
    struct Sink {
        taken: Vec<u8>,
        per_call: usize,
        calls: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.taken.len();
            for b in bufs {
                let room = self.per_call - (self.taken.len() - before);
                self.taken.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn block_frame() -> (Vec<u8>, Vec<u8>) {
        let head: Vec<u8> = (0..61).collect();
        let body: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        (head, body)
    }

    #[test]
    fn a_block_frame_leaves_in_one_gathered_write() {
        let (head, body) = block_frame();
        let mut sink = Sink { taken: Vec::new(), per_call: usize::MAX, calls: 0 };
        write_mux_frame(&mut sink, 11, &[&[0xE7], &head], Some(&body)).unwrap();
        assert!(sink.calls <= 2, "header + 3 segments took {} writes", sink.calls);
        let (id, payload) = read_one(&sink.taken);
        assert_eq!((id, &payload.head[..]), (11, &[&[0xE7], &head[..]].concat()[..]));
        assert_eq!(payload.body.as_deref(), Some(&body[..]));
    }

    #[test]
    fn a_sink_taking_seven_bytes_a_call_still_gets_the_whole_frame() {
        let (head, body) = block_frame();
        let body = &body[..100_000];
        let mut whole = Vec::new();
        write_mux_frame(&mut whole, 12, &[&head, &[]], Some(body)).unwrap();
        let mut sink = Sink { taken: Vec::new(), per_call: 7, calls: 0 };
        write_mux_frame(&mut sink, 12, &[&head, &[]], Some(body)).unwrap();
        assert_eq!(sink.taken, whole, "byte-identical however the sink slices it");
        assert_eq!(sink.calls, whole.len().div_ceil(7));
        let (id, payload) = read_one(&sink.taken);
        assert_eq!((id, &payload.head[..]), (12, &head[..]));
        assert_eq!(payload.body.as_deref(), Some(body));
    }

    #[test]
    fn mux_frame_shorter_than_id_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u32.to_le_bytes()); // < MUX_ID_LEN
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_mux_frame(&mut Cursor::new(bad)).is_err());
    }
}
