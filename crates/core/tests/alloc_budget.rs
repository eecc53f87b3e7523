//! The data path's payload-buffer budget, as an exact count: how many
//! bytes of *large* allocations (≥ 256 KiB — block-sized buffers, nothing
//! else in the system is that big) one `write_file` and one `read_file`
//! cost, summed over the client and every worker of a loopback-TCP cluster.
//!
//! Per user byte at rf=3 the data path *uses*:
//!
//! - write: one receive buffer per pipeline stage (3×) — the client sends
//!   each block straight from the caller's buffer, and the body a stage
//!   received *is* the block it stores and forwards;
//! - read: the output (1×) — the server sends its stored `Bytes`, and each
//!   block's body lands from the socket straight in its place in the
//!   output.
//!
//! Every receive buffer is one of the process-wide pool (`net/bufpool.rs`),
//! so it is *allocated* only while the pool has no released buffer of its
//! size class to hand back: the first write and the first read pay the
//! budget above, exactly — a block travels as its frame's body, in a buffer
//! of its own length, and the frame's header and head never share it — and
//! from then on a read allocates its output and a rewrite of deleted bytes
//! allocates nothing.
//!
//! A counting `#[global_allocator]` is process-wide, which is why this is a
//! test binary of its own; the tests in it serialize on [`MEASURING`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use octopus_common::{
    Block, BlockData, BlockId, ClientLocation, ClusterConfig, GenStamp, ReplicationVector, MB,
};
use octopus_core::net::frame::{read_mux_frame, write_mux_frame};
use octopus_core::net::proto::{decode_request, encode_worker_frame, WorkerRequest};
use octopus_core::{build_single_worker, NetCluster, StorageMode};

const LARGE: usize = 256 * 1024;
/// The smallest buffer the buffer pool serves: a 16 KiB file's blocks are
/// above it, and a metadata request or reply is below it.
const SMALL: usize = 4 * 1024;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);
static SMALL_BYTES: AtomicU64 = AtomicU64::new(0);
/// How many allocations [`SMALL_BYTES`] counted.
static SMALL_COUNT: AtomicU64 = AtomicU64::new(0);
static MEASURING: Mutex<()> = Mutex::new(());
/// Set while [`OneThread`] counts only the thread that holds it.
static ONE_THREAD: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread holds the [`OneThread`]. Const-initialised and
    /// without a destructor, so the allocator reads it on any thread, at
    /// any point of its life, without allocating.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Until dropped, only the thread that made it has its allocations
/// counted, so a stray thread's cannot land in a measured window.
struct OneThread;

impl OneThread {
    fn new() -> Self {
        COUNTED.with(|counted| counted.set(true));
        ONE_THREAD.store(true, Ordering::Relaxed);
        OneThread
    }
}

impl Drop for OneThread {
    fn drop(&mut self) {
        ONE_THREAD.store(false, Ordering::Relaxed);
        COUNTED.with(|counted| counted.set(false));
    }
}

struct Count;

fn count(size: usize) {
    if ONE_THREAD.load(Ordering::Relaxed) && !COUNTED.with(Cell::get) {
        return;
    }
    if size >= SMALL {
        SMALL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        SMALL_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is relaxed atomic
// adds, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer may move: charge its whole new size.
        if new_size > layout.size() {
            count(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // i.e. of `System`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Count = Count;

/// Bytes of allocations of `counter`'s size made, process-wide, while `f`
/// ran.
fn bytes_during<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> (T, u64) {
    let before = counter.load(Ordering::Relaxed);
    let out = f();
    (out, counter.load(Ordering::Relaxed) - before)
}

/// Large-allocation bytes made, process-wide, while `f` ran.
fn large_bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    bytes_during(&LARGE_BYTES, f)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let BlockData::Real(b) = BlockData::generate_real(len, seed) else { unreachable!() };
    b.to_vec()
}

#[test]
fn write_and_read_stay_within_their_payload_buffer_budget() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    // No heartbeat, block report or §5 round inside the measured calls: a
    // copy one scheduled would take a pool buffer the rewrite below counts
    // on.
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);

    const F: u64 = 8 * MB;
    let data = payload(F as usize, 21);
    // Connections, thread stacks and pools come up on a first transfer.
    client.write_file("/warm", &data[..2 * MB as usize], rf3).unwrap();
    assert_eq!(client.read_file("/warm").unwrap(), &data[..2 * MB as usize]);

    let (written, write_bytes) = large_bytes_during(|| client.write_file("/f", &data, rf3));
    written.unwrap();
    assert!(
        write_bytes <= 4 * F,
        "write_file of {F} B at rf=3 made {write_bytes} B of large allocations \
         (budget 3 × F: one receive buffer per replica)"
    );
    // The three stored replicas are new bytes no earlier buffer can back,
    // and the warm-up left no buffer to recycle: the client kept none.
    assert!(write_bytes >= 3 * F - 4 * MB, "the counter saw the transfer: {write_bytes} B");
    assert_eq!(write_bytes, 3 * F, "a first write allocates its three replicas and nothing else");

    let (read, read_bytes) = large_bytes_during(|| client.read_file("/f"));
    assert_eq!(read.unwrap(), data);
    assert!(
        read_bytes <= 2 * F,
        "read_file of {F} B made {read_bytes} B of large allocations \
         (budget 1 × F: the output, which every block lands in)"
    );
    assert!(read_bytes >= F, "the counter saw the output: {read_bytes} B");
    assert_eq!(read_bytes, F, "a first read allocates its output and nothing else");

    // The pool parks released buffers only up to the bytes still lent out
    // (`pooled ≤ lent`), so a second file stays stored while the first is
    // deleted: its 3 × F live bytes are what lets the 3 × F released ones
    // be kept. They are the only buffers the pool holds: every buffer lent
    // so far is a stored replica.
    client.write_file("/g", &data, rf3).unwrap();
    client.delete("/f", false).unwrap();

    // A second read allocates its output, as the first did.
    let (read, reread_bytes) = large_bytes_during(|| client.read_file("/g"));
    assert_eq!(read.unwrap(), data);
    assert_eq!(reread_bytes, F, "a second read allocates its output and nothing else");

    // Delete + rewrite of the same F: all three stages' receive buffers are
    // `/f`'s deleted replicas, which `delete` dropped from the workers'
    // stores before it returned.
    let (rewritten, rewrite_bytes) = large_bytes_during(|| client.write_file("/f", &data, rf3));
    rewritten.unwrap();
    assert_eq!(rewrite_bytes, 0, "rewriting {F} deleted bytes must allocate no new buffer");
    assert_eq!(client.read_file("/f").unwrap(), data);

    eprintln!(
        "alloc_budget: F = {F} B at rf=3: first write {write_bytes} B ({:.2} × F), first read \
         {read_bytes} B ({:.2} × F), second read {reread_bytes} B ({:.2} × F), delete + rewrite \
         {rewrite_bytes} B",
        write_bytes as f64 / F as f64,
        read_bytes as f64 / F as f64,
        reread_bytes as f64 / F as f64,
    );
}

/// A positional read lands in the caller's slice: once connections are up,
/// a second `read_at` of an 8 MiB file into the same buffer allocates
/// exactly 0 B of large buffers — each whole block's body lands in its
/// place in the buffer, and the server sends the replica it holds.
#[test]
fn a_second_read_at_into_the_same_buffer_allocates_nothing_large() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);

    const F: u64 = 8 * MB;
    let data = payload(F as usize, 61);
    client.write_file("/f", &data, rf3).unwrap();
    let mut buf = vec![0u8; F as usize];
    assert_eq!(client.read_at("/f", 0, &mut buf).unwrap(), F as usize);
    assert_eq!(buf, data);

    buf.fill(0);
    let (read, reread_bytes) = large_bytes_during(|| client.read_at("/f", 0, &mut buf));
    assert_eq!(read.unwrap(), F as usize);
    assert_eq!(buf, data);
    eprintln!("alloc_budget: a second read_at of {F} B into the same buffer: {reread_bytes} B");
    assert_eq!(reread_bytes, 0, "a read_at into the caller's buffer allocates no payload buffer");
}

/// Only a block the range cuts lands beside the caller's slice first: a
/// `read_at` from the middle of block 0 to the middle of block 5 of an
/// 8 MiB file (1 MiB blocks) allocates exactly the two whole-block buffers
/// of its cut first and last blocks, 2 × 1 MiB, and nothing else large.
#[test]
fn a_read_at_that_cuts_two_blocks_allocates_exactly_those_two_blocks() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);

    const F: u64 = 8 * MB;
    let data = payload(F as usize, 62);
    client.write_file("/f", &data, rf3).unwrap();
    // Connections and lanes come up on a first read.
    assert_eq!(client.read_file("/f").unwrap(), data);

    let (start, end) = (MB / 2, 5 * MB + MB / 2);
    let mut buf = vec![0u8; (end - start) as usize];
    let (read, cut_bytes) = large_bytes_during(|| client.read_at("/f", start, &mut buf));
    assert_eq!(read.unwrap(), buf.len());
    assert_eq!(buf, &data[start as usize..end as usize]);
    eprintln!(
        "alloc_budget: a read_at of [{start}, {end}) over {MB} B blocks: {cut_bytes} B \
         ({:.2} blocks)",
        cut_bytes as f64 / MB as f64
    );
    assert_eq!(cut_bytes, 2 * MB, "a cut read allocates its two cut blocks and nothing else");
}

/// A `FileWriter` reaches blocks through the same write engine as
/// `write_file`, slicing them straight from the caller's data: one 16 MiB
/// `write` allocates at most one block more than `write_file` of the same
/// bytes (a writer that copied its unwritten tail once per block would
/// allocate 120 MiB more).
#[test]
fn a_file_writer_allocates_what_write_file_does() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    config.heartbeat_ms = 20;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);

    const F: u64 = 16 * MB;
    let data = payload(F as usize, 41);
    client.write_file("/warm", &data[..2 * MB as usize], rf3).unwrap();

    let (written, file_bytes) = large_bytes_during(|| client.write_file("/a", &data, rf3));
    written.unwrap();
    let (streamed, writer_bytes) = large_bytes_during(|| {
        let mut w = client.create("/b", rf3, None)?;
        w.write(&data)?;
        w.close()
    });
    streamed.unwrap();
    eprintln!(
        "alloc_budget: F = {F} B at rf=3: write_file {file_bytes} B, FileWriter {writer_bytes} B"
    );
    assert!(
        writer_bytes <= file_bytes + MB,
        "FileWriter made {writer_bytes} B of large allocations, write_file {file_bytes} B"
    );
    assert_eq!(client.read_file("/b").unwrap(), data);
}

/// The client holds no buffer of the blocks it writes: each leaves from the
/// caller's slice. With a window of 1 the whole client runs on the calling
/// thread, and while it writes a block of a size class no buffer has had
/// yet — so no parked buffer could stand in for one taken from the pool —
/// that thread allocates nothing of 4 KiB or more. A client that copied
/// each block into a pool buffer would allocate one per block attempt here.
#[test]
fn a_write_takes_no_buffer_on_the_client() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_io_window(1);
    let rf3 = ReplicationVector::from_replication_factor(3);
    // Connections and every metric series the write records come up on a
    // first write and read, of another class.
    client.write_file("/warm", &payload(16 * 1024, 50), rf3).unwrap();
    client.read_file("/warm").unwrap();

    // One block of the 256 KiB class, which no other test here uses.
    let data = payload(200 * 1024 + 3, 51);
    let one_thread = OneThread::new();
    let before = SMALL_COUNT.load(Ordering::Relaxed);
    let (written, bytes) = bytes_during(&SMALL_BYTES, || client.write_file("/f", &data, rf3));
    let allocations = SMALL_COUNT.load(Ordering::Relaxed) - before;
    drop(one_thread);
    written.unwrap();
    eprintln!(
        "alloc_budget: a {} B write allocated {allocations} buffers ≥ {SMALL} B ({bytes} B) \
         on the client's thread",
        data.len()
    );
    assert_eq!((allocations, bytes), (0, 0), "the client copied a block it wrote");
    assert_eq!(client.read_file("/f").unwrap(), data);
}

/// `smallfile`'s file, as exact counts of allocations ≥ 4 KiB: once the
/// pool is stocked, a 16 KiB rf=3 delete + rewrite allocates nothing and a
/// read allocates the 16 KiB it returns. Every other buffer of that size —
/// the three stages' receive buffers — is one the pool hands back, on
/// whichever thread asks.
#[test]
fn a_small_file_rewrite_allocates_nothing_and_a_read_only_its_output() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut config = ClusterConfig::test_cluster(4, 64 * MB, MB);
    // No heartbeat inside the measured calls: a beat's own allocations
    // would land in the same process-wide counter.
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let rf3 = ReplicationVector::from_replication_factor(3);

    const S: usize = 16 * 1024;
    let data = payload(S, 33);
    // Connections, thread stacks and the pool's classes come up on a first
    // write, read, delete and rewrite. `/keep` stays stored throughout: its
    // live replicas are what lets `/f`'s released buffers be parked
    // (`pooled ≤ lent`). Once `/f` is deleted the pool holds its three
    // 16 KiB replicas (each the body it arrived as) — 48 KiB, against the
    // 3 × 48 KiB of `/keep`'s replicas lent.
    client.write_file("/keep", &payload(3 * S, 34), rf3).unwrap();
    client.write_file("/f", &data, rf3).unwrap();
    assert_eq!(client.read_file("/f").unwrap(), data);
    client.delete("/f", false).unwrap();
    client.write_file("/f", &data, rf3).unwrap();
    assert_eq!(client.read_file("/f").unwrap(), data);

    let (rewritten, rewrite_bytes) = bytes_during(&SMALL_BYTES, || {
        client.delete("/f", false)?;
        client.write_file("/f", &data, rf3)
    });
    rewritten.unwrap();
    let (read, read_bytes) = bytes_during(&SMALL_BYTES, || client.read_file("/f"));
    assert_eq!(read.unwrap(), data);
    eprintln!(
        "alloc_budget: S = {S} B at rf=3: delete + rewrite {rewrite_bytes} B, read {read_bytes} B \
         of allocations ≥ {SMALL} B"
    );
    assert_eq!(rewrite_bytes, 0, "a 16 KiB delete + rewrite must allocate no buffer ≥ 4 KiB");
    assert_eq!(read_bytes, S as u64, "a read allocates its output and nothing else");
}

/// The body a server's reader thread received is the buffer the store
/// holds, and that buffer is exactly the block: decoding takes the block as
/// a view of the body, `put` keeps it, `read` returns it. A 16 KiB block
/// and a 1 MiB one each arrive in one allocation of their own length — no
/// frame header or request head rounds them up to a larger pool class.
/// Everything here runs on the test's thread, so only its allocations
/// count.
#[test]
fn a_stored_block_is_the_body_it_arrived_in() {
    let _serial = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _one_thread = OneThread::new();
    let config = ClusterConfig::test_cluster(1, 64 * MB, MB);
    let worker =
        build_single_worker(&config, octopus_common::WorkerId(0), &StorageMode::InMemory).unwrap();
    let media = worker.media()[0].id;
    for (id, len) in [(1, 16 * 1024), (2, MB as usize)] {
        let block = Block { id: BlockId(id), gen: GenStamp(1), len: len as u64 };
        let request =
            WorkerRequest::WriteBlock(block, media, Vec::new(), BlockData::generate_real(len, id));
        // The bytes a client sends…
        let payload = encode_worker_frame(&request);
        let mut wire = Vec::new();
        write_mux_frame(&mut wire, 7, &[&payload.head[..]], payload.body.as_deref()).unwrap();

        // …as a connection reader receives them: one allocation of 4 KiB or
        // more, exactly the block's length (the head is a few dozen bytes).
        let before = SMALL_COUNT.load(Ordering::Relaxed);
        let (received, frame_bytes) =
            bytes_during(&SMALL_BYTES, || read_mux_frame(&mut std::io::Cursor::new(&wire)));
        let allocations = SMALL_COUNT.load(Ordering::Relaxed) - before;
        let (_, frame) = received.unwrap().unwrap();
        assert_eq!(
            (allocations, frame_bytes),
            (1, len as u64),
            "receiving a {len} B block must allocate one {len} B buffer"
        );
        let body = frame.body.clone().expect("the block travels as the frame's body");

        // …and the handler with the frame.
        let (_, WorkerRequest::WriteBlock(block, media, _, data)) = decode_request(&frame).unwrap()
        else {
            panic!("decoded another request");
        };
        let (stored, store_bytes) =
            bytes_during(&SMALL_BYTES, || worker.write_block(media, block, &data));
        stored.unwrap();
        assert_eq!(store_bytes, 0, "storing a block must not copy it");

        let (BlockData::Real(held), _) = worker.read_block_unverified(media, block.id).unwrap()
        else {
            panic!("stored a synthetic block");
        };
        assert!(
            std::ptr::eq(held.as_ptr(), body.as_ptr()) && held.len() == body.len(),
            "the stored payload is the received body, whole"
        );
    }
}
