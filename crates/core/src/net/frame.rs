//! Message framing over a TCP stream: the multiplexed
//! `[u32 len][u64 request_id][payload]` frame ([`write_mux_frame`]/
//! [`read_mux_frame`]) every RPC travels in. The id lets any number of
//! in-flight calls share one connection: responses carry the id of the
//! request they answer, in whatever order the server finishes them.
//!
//! [`write_mux_frame`] takes the payload as a list of segments and
//! gather-writes header and segments in one vectored write — one syscall
//! and one wake-up of the peer's reader per frame, and no staging copy:
//! a block payload handed around as [`bytes::Bytes`] goes to the socket
//! straight from its backing buffer. [`read_mux_frame`] returns the
//! payload as [`bytes::Bytes`]; one of 4 KiB or more is received into a
//! buffer of the process-wide pool (`net/bufpool.rs`), which gets it
//! back when the last view of the frame is dropped.

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

/// Writes one `[u32 len][u64 id][payload]` frame, where the payload is
/// the concatenation of `segs`. `len` counts the id plus the payload.
/// Header and segments leave in one vectored write (more only if the sink
/// takes less than it was offered), each from the caller's own buffer.
pub fn write_mux_frame(stream: &mut impl Write, id: u64, segs: &[&[u8]]) -> Result<()> {
    let payload_len: usize = segs.iter().map(|s| s.len()).sum();
    if payload_len > MAX_FRAME - MUX_ID_LEN {
        return Err(FsError::Io(format!("frame of {payload_len} bytes exceeds cap")));
    }
    let mut header = [0u8; 4 + MUX_ID_LEN];
    header[..4].copy_from_slice(&((payload_len + MUX_ID_LEN) as u32).to_le_bytes());
    header[4..].copy_from_slice(&id.to_le_bytes());
    let mut parts: Vec<IoSlice<'_>> = Vec::with_capacity(1 + segs.len());
    parts.push(IoSlice::new(&header));
    parts.extend(segs.iter().filter(|s| !s.is_empty()).map(|s| IoSlice::new(s)));
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

/// Reads one mux frame, returning `(request_id, payload)`. Returns `None`
/// on clean EOF at a frame boundary.
pub fn read_mux_frame(stream: &mut impl Read) -> Result<Option<(u64, Bytes)>> {
    let mut head = [0u8; 4 + MUX_ID_LEN];
    let mut got = 0;
    while got < head.len() {
        match stream.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FsError::Io("EOF inside mux frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
    if len < MUX_ID_LEN {
        return Err(FsError::Io(format!("mux frame length {len} shorter than its id")));
    }
    if len > MAX_FRAME {
        return Err(FsError::Io(format!("incoming frame of {len} bytes exceeds cap")));
    }
    let id = u64::from_le_bytes(head[4..].try_into().unwrap());
    let len = len - MUX_ID_LEN;
    let payload = if len >= bufpool::SMALLEST {
        // Data: into a pooled buffer, published only once `read_exact` has
        // overwritten all of it (on an error it drops back unexposed).
        let mut buf = BufPool::global().take(len);
        stream.read_exact(buf.as_mut_slice())?;
        buf.freeze()
    } else {
        let mut buf = vec![0u8; len];
        stream.read_exact(&mut buf)?;
        Bytes::from(buf)
    };
    Ok(Some((id, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_mux_frame(&mut buf, 3, &[b"hello"]).unwrap();
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
        write_mux_frame(&mut buf, 7, &[b"head", &big, b"tail"]).unwrap();
        write_mux_frame(&mut buf, u64::MAX, &[]).unwrap();
        write_mux_frame(&mut buf, 0, &[b"x"]).unwrap();
        let mut cur = Cursor::new(buf);
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!(id, 7);
        assert_eq!(payload.len(), 4 + big.len() + 4);
        assert_eq!(&payload[..4], b"head");
        assert_eq!(&payload[4..4 + big.len()], &big[..]);
        assert_eq!(&payload[4 + big.len()..], b"tail");
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, payload.len()), (u64::MAX, 0));
        let (id, payload) = read_mux_frame(&mut cur).unwrap().unwrap();
        assert_eq!((id, &payload[..]), (0, &b"x"[..]));
        assert!(read_mux_frame(&mut cur).unwrap().is_none());
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

    fn block_frame() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let head: Vec<u8> = (0..61).collect();
        let body: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        (head, body, vec![1, 2, 3, 4])
    }

    #[test]
    fn a_block_frame_leaves_in_one_gathered_write() {
        let (head, body, tail) = block_frame();
        let mut sink = Sink { taken: Vec::new(), per_call: usize::MAX, calls: 0 };
        write_mux_frame(&mut sink, 11, &[&head, &body, &tail]).unwrap();
        assert!(sink.calls <= 2, "header + 3 segments took {} writes", sink.calls);
        let (id, payload) = read_mux_frame(&mut Cursor::new(&sink.taken)).unwrap().unwrap();
        assert_eq!((id, payload), (11, Bytes::from([head, body, tail].concat())));
    }

    #[test]
    fn a_sink_taking_seven_bytes_a_call_still_gets_the_whole_frame() {
        let (head, body, tail) = block_frame();
        let body = &body[..100_000];
        let mut whole = Vec::new();
        write_mux_frame(&mut whole, 12, &[&head, body, &[], &tail]).unwrap();
        let mut sink = Sink { taken: Vec::new(), per_call: 7, calls: 0 };
        write_mux_frame(&mut sink, 12, &[&head, body, &[], &tail]).unwrap();
        assert_eq!(sink.taken, whole, "byte-identical however the sink slices it");
        assert_eq!(sink.calls, whole.len().div_ceil(7));
        let (id, payload) = read_mux_frame(&mut Cursor::new(&sink.taken)).unwrap().unwrap();
        assert_eq!((id, payload), (12, Bytes::from([&head[..], body, &tail[..]].concat())));
    }

    #[test]
    fn a_block_frame_cut_short_errors() {
        let (head, body, tail) = block_frame();
        let mut buf = Vec::new();
        write_mux_frame(&mut buf, 13, &[&head, &body, &tail]).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_mux_frame(&mut Cursor::new(&buf)).is_err(), "EOF inside a block payload");
    }

    #[test]
    fn mux_frame_shorter_than_id_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u32.to_le_bytes()); // < MUX_ID_LEN
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_mux_frame(&mut Cursor::new(bad)).is_err());
    }
}
