//! Deterministic fault injection for the RPC layer (tests only, but
//! compiled in: the hot path is one relaxed atomic load).
//!
//! Faults are registered against a *server's* listen address and consumed
//! one per response, in registration order, when that server is about to
//! write a response frame. Injecting at the response boundary exercises
//! every client-side failure mode a flaky network produces — a request
//! that was executed but never answered (drop / truncate), an answer that
//! arrives late (delay), and an answer that arrives damaged (corrupt) —
//! without patching the OS socket layer.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Duration;

use octopus_common::Result;

use super::frame::write_mux_frame;
use super::proto::FramePayload;

/// One injected fault, applied to the next response of the target server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Close the connection instead of responding (the request executed,
    /// the reply was lost — the ambiguous failure).
    DropConnection,
    /// Sleep before responding (deadline pressure).
    Delay(Duration),
    /// Write a frame header claiming the full length, send only half the
    /// payload, then close (a peer dying mid-write).
    TruncateFrame,
    /// Flip one byte in the middle of the response's body — its block —
    /// or, for a response without one, of its payload (in-flight
    /// corruption the checksum must catch).
    CorruptPayload,
}

/// Fast-path guard: when no fault was ever registered, servers pay one
/// relaxed load and nothing else.
static ARMED: AtomicBool = AtomicBool::new(false);

static REGISTRY: LazyLock<Mutex<HashMap<SocketAddr, VecDeque<FaultAction>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Queues `action` against the server listening on `server`.
pub fn inject(server: SocketAddr, action: FaultAction) {
    REGISTRY.lock().unwrap().entry(server).or_default().push_back(action);
    ARMED.store(true, Ordering::Release);
}

/// Drops all pending faults for one server.
pub fn clear(server: SocketAddr) {
    REGISTRY.lock().unwrap().remove(&server);
}

/// Pending fault count for one server (test assertions).
pub fn pending(server: SocketAddr) -> usize {
    if !ARMED.load(Ordering::Acquire) {
        return 0;
    }
    REGISTRY.lock().unwrap().get(&server).map_or(0, |q| q.len())
}

fn take(server: SocketAddr) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    REGISTRY.lock().unwrap().get_mut(&server)?.pop_front()
}

/// Writes one multiplexed response frame (request id `id`) on behalf of
/// the server at `server`, applying at most one pending fault. Returns
/// `Ok(true)` when the connection is still usable, `Ok(false)` when the
/// fault consumed it (the caller should drop the connection without
/// writing anything else). Only the mangling faults copy the payload.
pub fn write_response(
    server: SocketAddr,
    stream: &mut TcpStream,
    id: u64,
    payload: &FramePayload,
) -> Result<bool> {
    let (head, body) = (&payload.head[..], payload.body.as_deref());
    match take(server) {
        None => {
            write_mux_frame(stream, id, &[head], body)?;
            Ok(true)
        }
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            write_mux_frame(stream, id, &[head], body)?;
            Ok(true)
        }
        Some(FaultAction::DropConnection) => {
            let _ = stream.shutdown(Shutdown::Both);
            Ok(false)
        }
        Some(FaultAction::TruncateFrame) => {
            use std::io::Write;
            // The frame as it would have left: its header, then half of
            // what follows.
            let mut whole = Vec::new();
            write_mux_frame(&mut whole, id, &[head], body)?;
            let rest = head.len() + body.map_or(0, <[u8]>::len);
            let _ = stream.write_all(&whole[..whole.len() - rest + rest / 2]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Ok(false)
        }
        Some(FaultAction::CorruptPayload) => {
            // The middle byte of the body if there is one (the block), else
            // of the head; the frame keeps its shape.
            let (mut head, mut body) = (head.to_vec(), body.map(<[u8]>::to_vec));
            let bad = body.as_mut().filter(|b| !b.is_empty()).unwrap_or(&mut head);
            let mid = bad.len() / 2;
            if let Some(byte) = bad.get_mut(mid) {
                *byte ^= 0xFF;
            }
            write_mux_frame(stream, id, &[&head], body.as_deref())?;
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn faults_consume_in_order_per_server() {
        let a = addr(19_001);
        let b = addr(19_002);
        inject(a, FaultAction::DropConnection);
        inject(a, FaultAction::CorruptPayload);
        inject(b, FaultAction::TruncateFrame);
        assert_eq!(pending(a), 2);
        assert_eq!(pending(b), 1);
        assert_eq!(take(a), Some(FaultAction::DropConnection));
        assert_eq!(take(a), Some(FaultAction::CorruptPayload));
        assert_eq!(take(a), None);
        assert_eq!(take(b), Some(FaultAction::TruncateFrame));
        clear(a);
        clear(b);
    }
}
