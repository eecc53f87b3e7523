//! Message framing over a TCP stream: the multiplexed
//! `[u32 len][u64 request_id][payload]` frame ([`write_mux_frame`]/
//! [`read_mux_frame`]) every RPC travels in. The id lets any number of
//! in-flight calls share one connection: responses carry the id of the
//! request they answer, in whatever order the server finishes them.
//!
//! [`write_mux_frame`] takes the payload as a list of segments and writes
//! them with at most one small staging copy: large segments (block
//! payloads handed around as [`bytes::Bytes`]) are written straight from
//! their backing buffer, so framing never copies a block.

use std::io::{Read, Write};

use octopus_common::{FsError, Result};

/// Upper bound on a single frame: one block (≤1 GiB here) plus headroom.
/// Protects servers from hostile or corrupt length prefixes.
pub const MAX_FRAME: usize = (1 << 30) + (1 << 20);

/// Bytes of the request id inside a mux frame (counted by the length
/// prefix, ahead of the payload).
pub const MUX_ID_LEN: usize = 8;

/// Segments at or below this size are coalesced into the header write;
/// larger ones go to the socket directly from their own buffer.
const COALESCE_LIMIT: usize = 16 * 1024;

/// Writes one `[u32 len][u64 id][payload]` frame, where the payload is
/// the concatenation of `segs`. `len` counts the id plus the payload.
/// Small segments are staged together with the header into one write;
/// large segments are written directly (zero-copy from the caller's
/// buffers).
pub fn write_mux_frame(stream: &mut impl Write, id: u64, segs: &[&[u8]]) -> Result<()> {
    let payload_len: usize = segs.iter().map(|s| s.len()).sum();
    if payload_len > MAX_FRAME - MUX_ID_LEN {
        return Err(FsError::Io(format!("frame of {payload_len} bytes exceeds cap")));
    }
    let mut staged = Vec::with_capacity(
        12 + segs.iter().map(|s| s.len().min(COALESCE_LIMIT)).sum::<usize>().min(64 * 1024),
    );
    staged.extend_from_slice(&((payload_len + MUX_ID_LEN) as u32).to_le_bytes());
    staged.extend_from_slice(&id.to_le_bytes());
    for seg in segs {
        if seg.len() <= COALESCE_LIMIT && staged.len() + seg.len() <= 64 * 1024 {
            staged.extend_from_slice(seg);
        } else {
            stream.write_all(&staged)?;
            staged.clear();
            stream.write_all(seg)?;
        }
    }
    if !staged.is_empty() {
        stream.write_all(&staged)?;
    }
    stream.flush()?;
    Ok(())
}

/// Reads one mux frame, returning `(request_id, payload)`. Returns `None`
/// on clean EOF at a frame boundary.
pub fn read_mux_frame(stream: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let mut head = [0u8; 4 + MUX_ID_LEN];
    let mut got = 0;
    while got < head.len() {
        match stream.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FsError::Io("EOF inside mux frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
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
    let mut payload = vec![0u8; len - MUX_ID_LEN];
    stream.read_exact(&mut payload)?;
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
        assert_eq!((id, payload), (0, b"x".to_vec()));
        assert!(read_mux_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn mux_frame_shorter_than_id_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u32.to_le_bytes()); // < MUX_ID_LEN
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_mux_frame(&mut Cursor::new(bad)).is_err());
    }
}
