//! The master's heap is its namespace, not its history — and what a file
//! costs in that namespace — as exact counts of heap bytes, live
//! allocations and allocator calls:
//!
//! - a file of `octobench meta`'s shape costs at most 85 bytes and no
//!   allocation of its own (its name sits in its slot), and replaying the
//!   log that creates it calls the allocator only to grow the slab and the
//!   directories' child vectors — with exactly one walk
//!   from `/` per directory the log moves to, a binary search for 0.098 of
//!   its creates (the rest link at the cursor's finger or past the last
//!   child), and in at most 0.6 × the time a replay that walks for every op
//!   takes;
//! - create + delete pairs on a warm namespace reuse their slots, with
//!   names held in the slot and names of their own allocation alike;
//! - a recovered master holds what the bare `Namespace` replayed from the
//!   same ops holds, plus a constant that does not grow with the log;
//! - replay's transient (peak minus final) does not depend on how long the
//!   log is, block map and the read's chunk buffer included;
//! - a batch append's peak is one encode chunk, whatever the batch's size;
//! - every op decodes borrowed without allocating, and replaying an
//!   abandoned block allocates nothing;
//! - a checkpoint image's encoder keeps only its output, and what it
//!   holds on the way does not grow with the namespace;
//! - a boot reads the log file once;
//! - a running master's heap does not grow with the ops it logs.
//!
//! A counting `#[global_allocator]` is process-wide, which is why this is a
//! test binary of its own. It counts, per thread, only the thread a window
//! measures — everything measured here runs on its caller's thread — and
//! the tests serialize on [`MEASURING`], so while one measures no other
//! allocates, times or reads a file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use octopus_common::{Block, BlockId, ClusterConfig, GenStamp, ReplicationVector};
use octopus_master::editlog::{encode_image, BlockChange, EditRef};
use octopus_master::{Cursor, EditLog, EditOp, Master, Namespace, TierQuota};

static MEASURING: Mutex<()> = Mutex::new(());

/// One thread's heap counts while [`heap_during`] measures it.
#[derive(Clone, Copy)]
struct Counts {
    on: bool,
    /// Bytes allocated less bytes freed since the start.
    live: isize,
    peak: isize,
    /// Allocations made less freed (`realloc` moves one, it does not make
    /// one).
    blocks: isize,
    /// Calls that asked for memory: `alloc`, `alloc_zeroed`, `realloc`.
    calls: usize,
}

const IDLE: Counts = Counts { on: false, live: 0, peak: 0, blocks: 0, calls: 0 };

thread_local! {
    /// Per thread, so a window counts the measuring thread alone and no
    /// other thread's allocation (the harness reporting a finished test,
    /// say) lands in it. Const-initialised and without a destructor, so the
    /// allocator reads it on any thread, at any point of its life, without
    /// allocating.
    static COUNTS: Cell<Counts> = const { Cell::new(IDLE) };
}

/// Adds `bytes` (negative: freed) and `blocks` to this thread's counts,
/// if they are on; `asked` says whether the call asked for memory.
fn count(bytes: isize, blocks: isize, asked: bool) {
    COUNTS.with(|counts| {
        let mut c = counts.get();
        if c.on {
            c.live += bytes;
            c.peak = c.peak.max(c.live);
            c.blocks += blocks;
            c.calls += usize::from(asked);
            counts.set(c);
        }
    });
}

struct CountLive;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is arithmetic on a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, true);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, true);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0, true);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // i.e. of `System`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1, false);
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountLive = CountLive;

/// What `f` left on the heap — bytes and allocations — how far above that
/// its peak was, and how often it asked the allocator for memory, counting
/// the calling thread's allocator calls only.
struct Heap {
    kept: isize,
    transient: isize,
    kept_blocks: isize,
    calls: usize,
}

fn heap_during<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    COUNTS.with(|counts| counts.set(Counts { on: true, ..IDLE }));
    let out = f();
    let c = COUNTS.with(|counts| counts.replace(IDLE));
    let heap =
        Heap { kept: c.live, transient: c.peak - c.live, kept_blocks: c.blocks, calls: c.calls };
    (out, heap)
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> ClusterConfig {
    ClusterConfig::test_cluster(3, 10 << 20, 1 << 20)
}

fn temp_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octopus_heap_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("edits.log")
}

fn remove(log: &Path) {
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// `/r`, then per file a create and either its close (the file stays) or
/// four blocks, its close and its delete (nothing stays — in the
/// namespace or in the block map). Names are fixed-width, so a record's
/// size does not depend on `n`.
fn file_ops(n: usize, keep: bool) -> impl Iterator<Item = EditOp> {
    let rv = ReplicationVector::from_replication_factor(1);
    let per_file = move |i: usize| {
        let path = || format!("/r/f{i:07}");
        let mut ops = vec![EditOp::CreateFile { path: path(), rv, block_size: 1 << 20 }];
        if !keep {
            let block =
                |b| Block { id: BlockId((4 * i + b) as u64 + 1), gen: GenStamp(1), len: 1 << 20 };
            ops.extend((0..4).map(|b| EditOp::add_block(path(), block(b))));
        }
        ops.push(EditOp::CloseFile { path: path() });
        if !keep {
            ops.push(EditOp::Delete { path: path() });
        }
        ops
    };
    std::iter::once(EditOp::Mkdir { path: "/r".into() }).chain((0..n).flat_map(per_file))
}

/// The namespace `octobench --workload meta` preloads: 200 directories of
/// 1,000 created-and-closed files, under the benchmark's names.
const DIRS: usize = 200;
const FILES_PER_DIR: usize = 1_000;
const FILES: usize = DIRS * FILES_PER_DIR;

fn meta_ops() -> Vec<EditOp> {
    let rv = ReplicationVector::from_replication_factor(1);
    let mut ops: Vec<EditOp> =
        (0..DIRS).map(|d| EditOp::Mkdir { path: format!("/p/d{d}") }).collect();
    for n in 0..FILES {
        let path = format!("/p/d{}/f{}", n / FILES_PER_DIR, n % FILES_PER_DIR);
        ops.push(EditOp::CreateFile { path: path.clone(), rv, block_size: 64 << 20 });
        ops.push(EditOp::CloseFile { path });
    }
    ops
}

#[test]
fn a_file_costs_85_bytes_and_replay_allocates_only_what_it_keeps() {
    let _serial = serial();
    let mut log = EditLog::in_memory();
    log.append_batch(meta_ops()).unwrap();
    let started = Instant::now();
    let ((ns, cursor, replayed), heap) = heap_during(|| {
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        let replayed = log.replay(|op| op.apply(&mut ns, &mut cursor).map(drop)).unwrap();
        (ns, cursor, replayed)
    });
    let replay_s = started.elapsed().as_secs_f64();
    assert_eq!(ns.counts(), (FILES, DIRS + 2));
    // Every close finds the file its create just made; a create walks from
    // `/` when the log moves to another directory and otherwise searches the
    // one it is in. (`mkdir -p` walks by itself and asks the cursor nothing.)
    assert_eq!(
        (cursor.path_hits, cursor.parent_hits, cursor.walks),
        (FILES as u64, (FILES - DIRS) as u64, DIRS as u64)
    );
    // And a create mostly links next to the one before it. Per directory:
    // 900 at the cursor's finger; `f90` and `f990` pushed past the last
    // child; 98 searched — `f0` in the empty directory and every name that
    // opens a decade below an earlier one (`f10`…`f80`, `f100`, `f110`, …,
    // `f980`).
    assert_eq!(
        (cursor.finger_hits, cursor.pushes, cursor.searches),
        (900 * DIRS as u64, 2 * DIRS as u64, 98 * DIRS as u64)
    );
    let per_file = |n: isize| n as f64 / FILES as f64;
    println!(
        "{FILES} files in {DIRS} directories: {:.1} B and {:.3} live allocations per file; \
         replay made {} allocator calls for {} allocations kept ({:.3} per op), \
         {:.0} files/s, {:.3} binary searches per file",
        per_file(heap.kept),
        per_file(heap.kept_blocks),
        heap.calls,
        heap.kept_blocks,
        heap.calls as f64 / replayed as f64,
        FILES as f64 / replay_s,
        cursor.searches as f64 / FILES as f64,
    );
    // An 80-byte slot, its 4-byte entry in the parent, and the directories'
    // share.
    assert!(per_file(heap.kept) <= 85.0, "{:.1} B per file", per_file(heap.kept));
    assert!(
        per_file(heap.kept_blocks) <= 0.01,
        "{:.3} allocations per file",
        per_file(heap.kept_blocks)
    );
    // Nothing is allocated per op or per file. Every call is growth: a
    // directory's child vector doubles its way to 1,000 entries (ten calls
    // per directory), a chunk of the slab to 4,096 slots (eleven per
    // chunk), and the cursor's one path.
    let growth = 10 * (DIRS + 2) + 11 * (FILES + DIRS + 4).div_ceil(4_096) + 64;
    assert!(
        heap.calls <= growth,
        "replay called the allocator {} times to keep {} allocations",
        heap.calls,
        heap.kept_blocks
    );

    // `counts()` is two counters, not a walk of 200,000 inodes (which took
    // over a millisecond a call).
    let t = Instant::now();
    for _ in 0..10_000 {
        black_box(black_box(&ns).counts());
    }
    assert!(t.elapsed().as_millis() < 1_000, "10,000 counts() took {:?}", t.elapsed());
}

/// The same process, the same log, the same checks: carrying the cursor
/// against forgetting it before every op, which is the walk from `/` that
/// every op made before there was one. Best of three each, interleaved.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio of the optimised build")]
fn replay_with_the_cursor_takes_at_most_six_tenths_of_replay_without() {
    let _serial = serial();
    let mut log = EditLog::in_memory();
    log.append_batch(meta_ops()).unwrap();
    let mut replay_s = |carry: bool| {
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        let started = Instant::now();
        log.replay(|op| {
            if !carry {
                cursor.clear();
            }
            op.apply(&mut ns, &mut cursor).map(drop)
        })
        .unwrap();
        assert_eq!(ns.counts(), (FILES, DIRS + 2));
        started.elapsed().as_secs_f64()
    };
    let (mut with, mut without) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        with = with.min(replay_s(true));
        without = without.min(replay_s(false));
    }
    println!(
        "replay of {FILES} files: {with:.3} s with the cursor, {without:.3} s without ({:.2} x)",
        with / without
    );
    assert!(with <= 0.6 * without, "{with:.3} s with the cursor, {without:.3} s without");
}

#[test]
fn create_delete_pairs_reuse_their_slots() {
    let _serial = serial();
    let rv = ReplicationVector::from_replication_factor(1);
    // A 6-byte name sits in its slot; a 20-byte one is an allocation of its
    // own, which the delete frees.
    for prefix in ["t", "long-name-00000"] {
        let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
        file_ops(1_000, true).for_each(|op| drop(op.apply(&mut ns, &mut cursor).unwrap()));
        let pair = |ns: &mut Namespace, i: usize| {
            let path = format!("/r/{prefix}{:05}", i % 7);
            ns.create_file(&path, rv, 1 << 20).unwrap();
            ns.delete(&path, false).unwrap();
        };
        pair(&mut ns, 0);
        let ((), heap) = heap_during(|| (0..50_000).for_each(|i| pair(&mut ns, i)));
        println!(
            "50,000 create+delete pairs of {}-byte names: live heap moved by {} B",
            prefix.len() + 5,
            heap.kept
        );
        // 0 when this test runs alone; the harness's other threads allocate too.
        assert!(heap.kept.abs() <= 4 << 10, "50,000 pairs moved the heap by {} B", heap.kept);
        assert_eq!(ns.counts(), (1_000, 2));
    }
}

/// One insert into a directory that already holds 100,000 entries moves
/// half of its 400 KB child vector on average. Reported, not gated
/// (DESIGN.md §11 quotes it).
#[test]
fn report_the_cost_of_an_insert_into_a_100k_entry_directory() {
    let _serial = serial();
    let rv = ReplicationVector::from_replication_factor(1);
    let mut ns = Namespace::new();
    ns.mkdir("/big", true).unwrap();
    for i in 0..100_000 {
        ns.create_file(&format!("/big/e{i:06}"), rv, 1 << 20).unwrap();
    }
    // 1,000 new names spread evenly over the sorted order.
    let paths: Vec<String> = (0..1_000).map(|i| format!("/big/e{:06}x", i * 100)).collect();
    let t = Instant::now();
    for path in &paths {
        ns.create_file(path, rv, 1 << 20).unwrap();
    }
    let per_insert = t.elapsed().as_secs_f64() * 1e6 / paths.len() as f64;
    println!("insert into a 100,000-entry directory: {per_insert:.2} us");
}

fn write_log(tag: &str, n: usize, keep: bool) -> PathBuf {
    let path = temp_log(tag);
    EditLog::open(&path).unwrap().append_batch(file_ops(n, keep).collect()).unwrap();
    path
}

fn recover(path: &Path) -> Master {
    Master::with_log(config(), EditLog::open(path).unwrap()).unwrap()
}

/// What a recovered master may hold beyond its namespace: metrics, the
/// audit ring, the heat tracker, cluster state, the log's encode buffer
/// and index. Fixed — the same for every log length.
const MASTER_OVERHEAD: isize = 128 << 10;

#[test]
fn a_recovered_master_holds_its_namespace_and_a_constant() {
    let _serial = serial();
    for n in [20_000, 80_000] {
        let path = write_log("kept", n, true);
        let (master, recovered) = heap_during(|| recover(&path));
        assert_eq!(master.counts().0, n);
        drop(master);
        let (ns, bare) = heap_during(|| {
            let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
            file_ops(n, true).for_each(|op| drop(op.apply(&mut ns, &mut cursor).unwrap()));
            ns
        });
        assert_eq!(ns.counts().0, n);
        println!(
            "{n} files: master keeps {} B, bare namespace {} B (+{} B)",
            recovered.kept,
            bare.kept,
            recovered.kept - bare.kept
        );
        assert!(
            recovered.kept <= bare.kept + MASTER_OVERHEAD,
            "{n} files: the master keeps {} B, its namespace alone {} B",
            recovered.kept,
            bare.kept
        );
        remove(&path);
    }
}

/// Exactly equal, not close: the file is read through one chunk buffer on
/// the caller's thread, whatever its length.
#[test]
fn replay_transient_does_not_depend_on_log_length() {
    let _serial = serial();
    let transient = |n: usize| {
        let path = write_log("pairs", n, false);
        let (master, heap) = heap_during(|| recover(&path));
        assert_eq!(master.counts().0, 0);
        assert!(master.block_inventory().is_empty());
        assert_eq!(master.edit_count(), 1 + 7 * n);
        remove(&path);
        println!(
            "{n} × create, 4 blocks, close, delete: transient {} B, kept {} B",
            heap.transient, heap.kept
        );
        heap.transient
    };
    assert_eq!(transient(10_000), transient(40_000));
}

/// The edit log's chunk (`CHUNK` in `editlog.rs`).
const CHUNK: isize = 64 << 10;

/// Exact, not close: a batch is encoded into one buffer that is written
/// out each time it fills a chunk, so it never holds more than a chunk and
/// a record (2 × `CHUNK` once the vector has doubled past one) — plus the
/// batch's entries in the log's sparse index, 8 B per 4,096 records (16 B
/// once that vector has doubled).
#[test]
fn a_batch_append_peaks_at_one_chunk_whatever_its_length() {
    let _serial = serial();
    for n in [10_000, 40_000] {
        let path = temp_log("append");
        let mut log = EditLog::open(&path).unwrap();
        let ops: Vec<EditOp> = file_ops(n, false).take(n).collect();
        let ((), heap) = heap_during(|| log.append_batch(ops).unwrap());
        // Above the start, which held the batch: the batch is dropped inside.
        let rise = heap.kept + heap.transient;
        let index = 16 * n.div_ceil(4096) as isize;
        println!("append_batch of {n} ops: the heap rose by {rise} B at its peak");
        assert!(rise <= 2 * CHUNK + index, "append_batch of {n} ops: +{rise} B");
        drop(log);
        remove(&path);
    }
}

/// Bytes this process has had `read` calls return (`/proc/self/io`).
fn bytes_read() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap();
    let rchar = io.lines().find_map(|line| line.strip_prefix("rchar: "));
    rchar.expect("an rchar line").parse().unwrap()
}

/// The boot's replay is also the log's recovery: the file is read once, not
/// once to count and check it and again to apply it.
#[test]
fn a_boot_reads_the_log_once() {
    let _serial = serial();
    let path = write_log("once", 20_000, true);
    let len = std::fs::metadata(&path).unwrap().len();
    let before = bytes_read();
    let master = recover(&path);
    let read = bytes_read() - before;
    assert_eq!(master.counts().0, 20_000);
    println!("a boot from a {len} B log read {read} B");
    // The slack is one chunk, and covers the read of `/proc/self/io`.
    assert!((len..=len + CHUNK as u64).contains(&read), "{read} B read for a {len} B log");
    drop(master);
    remove(&path);
}

#[test]
fn a_running_master_does_not_grow_with_the_ops_it_logs() {
    let _serial = serial();
    let path = temp_log("running");
    let master = recover(&path);
    let churn = |pairs: usize| {
        for _ in 0..pairs {
            master.mkdir("/churn").unwrap();
            master.delete("/churn", false).unwrap();
        }
    };
    churn(1_000); // histograms, rings and buffers reach their steady size
    let ((), heap) = heap_during(|| churn(50_000));
    assert_eq!(master.edit_count(), 2 * 51_000);
    println!("100,000 logged ops: live heap moved by {} B", heap.kept);
    assert!(heap.kept.abs() <= 64 << 10, "100,000 logged ops grew the heap by {} B", heap.kept);
    drop(master);
    remove(&path);
}

/// One op of every kind, owned.
fn every_kind() -> Vec<EditOp> {
    let f = || "/d/f".to_string();
    let rv = ReplicationVector::msh(1, 0, 2);
    vec![
        EditOp::Mkdir { path: "/d".into() },
        EditOp::CreateFile { path: f(), rv, block_size: 1 << 20 },
        EditOp::add_block(f(), Block { id: BlockId(7), gen: GenStamp(3), len: 1 << 20 }),
        EditOp::CloseFile { path: f() },
        EditOp::rename(f(), "/d/g".into()),
        EditOp::Delete { path: "/d/g".into() },
        EditOp::SetReplication { path: f(), rv },
        EditOp::set_quota("/d".into(), TierQuota::limit_tier(1, 1 << 30)),
        EditOp::AppendFile { path: f() },
        EditOp::abandon_block(f(), BlockId(7), 1 << 20),
    ]
}

/// Borrowed ops hold their payloads inline, so a decode allocates nothing;
/// owned ops box them, and the split loses no byte either way.
#[test]
fn every_op_decodes_borrowed_without_allocating_and_round_trips() {
    let _serial = serial();
    let ops = every_kind();
    let mut tags: Vec<u8> = ops.iter().map(|op| op.encode()[0]).collect();
    tags.sort_unstable();
    assert_eq!(tags, (1..=10).collect::<Vec<u8>>(), "one op of every tag");
    for op in ops {
        let record = op.encode();
        let (borrowed, heap) = heap_during(|| EditRef::decode_borrowed(&record).unwrap());
        assert_eq!(heap.calls, 0, "decoding {op:?} borrowed allocated");
        let mut again = Vec::new();
        borrowed.encode_into(&mut again);
        assert_eq!(again, record, "{op:?} borrowed");
        let owned = borrowed.into_owned();
        assert_eq!(owned, op);
        again.clear();
        owned.encode_into(&mut again);
        assert_eq!(again, record, "{op:?} owned");
    }
}

/// An abandoned block leaves the block map by its one id: replaying one
/// makes no vector to carry it.
#[test]
fn replaying_an_abandoned_block_allocates_nothing() {
    let _serial = serial();
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    let ops = every_kind();
    for op in &ops[..3] {
        op.apply(&mut ns, &mut cursor).unwrap();
    }
    let record = ops[9].encode();
    let abandon = EditRef::decode_borrowed(&record).unwrap();
    let (change, heap) = heap_during(|| abandon.apply(&mut ns, &mut cursor));
    assert_eq!(change, Ok(BlockChange::Abandoned(BlockId(7))));
    assert_eq!(heap.calls, 0, "replaying an abandon allocated");
    assert!(ns.file_meta(ns.resolve("/d/f").unwrap()).unwrap().blocks.is_empty());
}

/// `n` files of two blocks each, in 20 directories (one with a quota),
/// names of fixed width: the deepest path and the walk's depth do not
/// depend on `n`.
fn image_namespace(n: usize) -> Namespace {
    let (mut ns, mut cursor) = (Namespace::new(), Cursor::default());
    let rv = ReplicationVector::from_replication_factor(3);
    let mut ops = vec![EditOp::set_quota("/".into(), TierQuota::limit_tier(0, 1 << 40))];
    for i in 0..n {
        let path = format!("/r/d{:02}/f{i:07}", i % 20);
        if i < 20 {
            ops.push(EditOp::Mkdir { path: format!("/r/d{i:02}") });
        }
        ops.push(EditOp::CreateFile { path: path.clone(), rv, block_size: 1 << 20 });
        for b in 0..2 {
            let block = Block { id: BlockId((2 * i + b) as u64 + 1), gen: GenStamp(1), len: 100 };
            ops.push(EditOp::add_block(path.clone(), block));
        }
        ops.push(EditOp::CloseFile { path });
    }
    for op in ops {
        op.apply(&mut ns, &mut cursor).unwrap();
    }
    ns
}

/// The encoder walks the namespace in path order and frames ops that
/// borrow their paths from the walk's one buffer: it keeps its output and
/// nothing else, on the way it holds the same few bytes for 4 × the files,
/// and it calls the allocator only as often more as the output doubles.
#[test]
fn a_checkpoint_image_allocates_only_its_output() {
    let _serial = serial();
    let encode = |n: usize| {
        let ns = image_namespace(n);
        let (image, heap) = heap_during(|| encode_image(&ns));
        println!(
            "image of {n} files: {} B, {} allocator calls, {} B held on the way",
            image.len(),
            heap.calls,
            heap.transient
        );
        assert_eq!((heap.kept, heap.kept_blocks), (image.capacity() as isize, 1));
        (heap, image.capacity())
    };
    let (small, small_capacity) = encode(2_000);
    let (large, large_capacity) = encode(8_000);
    assert_eq!(small.transient, large.transient);
    // 4 × the files is 4 × the bytes: two more doublings of the output.
    assert_eq!(large_capacity, 4 * small_capacity);
    assert_eq!(
        large.calls,
        small.calls + 2,
        "{} allocator calls for 2,000 files, {} for 8,000",
        small.calls,
        large.calls
    );
}
