//! The master's heap is its namespace, not its history — as exact counts
//! of live and peak heap bytes around recovery and around running appends
//! on a file-backed edit log:
//!
//! - a recovered master holds what the bare `Namespace` replayed from the
//!   same ops holds, plus a constant that does not grow with the log;
//! - replay's transient (peak minus final) does not depend on how long the
//!   log is;
//! - a running master's heap does not grow with the ops it logs.
//!
//! A counting `#[global_allocator]` is process-wide, which is why this is a
//! test binary of its own; the tests in it serialize on [`MEASURING`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use octopus_common::{ClusterConfig, ReplicationVector};
use octopus_master::{EditLog, EditOp, Master, Namespace};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static MEASURING: Mutex<()> = Mutex::new(());

struct CountLive;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed atomic
// arithmetic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // i.e. of `System`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountLive = CountLive;

/// What `f` left on the heap, and how far above that its peak was.
struct Heap {
    kept: isize,
    transient: isize,
}

fn heap_during<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    (
        out,
        Heap { kept: after as isize - before as isize, transient: peak as isize - after as isize },
    )
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
/// its delete (nothing stays). Names are fixed-width, so a record's size
/// does not depend on `n`.
fn file_ops(n: usize, keep: bool) -> impl Iterator<Item = EditOp> {
    let rv = ReplicationVector::from_replication_factor(1);
    let per_file = move |i: usize| {
        let path = format!("/r/f{i:07}");
        let last = if keep {
            EditOp::CloseFile { path: path.clone() }
        } else {
            EditOp::Delete { path: path.clone() }
        };
        [EditOp::CreateFile { path, rv, block_size: 1 << 20 }, last]
    };
    std::iter::once(EditOp::Mkdir { path: "/r".into() }).chain((0..n).flat_map(per_file))
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
            let mut ns = Namespace::new();
            file_ops(n, true).for_each(|op| op.apply(&mut ns).unwrap());
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

#[test]
fn replay_transient_does_not_depend_on_log_length() {
    let _serial = serial();
    let transient = |n: usize| {
        let path = write_log("pairs", n, false);
        let (master, heap) = heap_during(|| recover(&path));
        assert_eq!(master.counts().0, 0);
        assert_eq!(master.edit_count(), 1 + 2 * n);
        remove(&path);
        println!("{n} create+delete pairs: transient {} B, kept {} B", heap.transient, heap.kept);
        heap.transient
    };
    assert_eq!(transient(20_000), transient(80_000));
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
