//! What the master's telemetry keeps resident, as exact counts of heap
//! bytes and live allocations:
//!
//! - an audited decision is one allocation of exactly its record: 780
//!   bytes for an rf = 3 MOOP placement of `octobench smallfile`'s shape
//!   on `test_cluster(4, …)`, 51 for the three-replica retrieval that
//!   reads it back, plus a 32-byte index slot each;
//! - a full 4,096-event ring of that mix holds 1,844,996 bytes, and every
//!   byte of it is in [`AuditRing::bytes`], so the `master_audit_bytes`
//!   gauge is the heap;
//! - `Migrations` on a full ring allocates for the events it returns and
//!   for nothing else;
//! - a span of the master's RPC shape costs its collector 133 bytes at
//!   `DEFAULT_TRACE_CAPACITY`.
//!
//! A counting `#[global_allocator]` is process-wide, which is why this is a
//! test binary of its own; it counts only the thread being measured, and
//! the tests in it serialize on [`MEASURING`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use octopus_common::audit::DEFAULT_AUDIT_CAPACITY;
use octopus_common::trace::DEFAULT_TRACE_CAPACITY;
use octopus_common::trace::{SpanId, SpanRecord, TraceCollector, TraceContext, TraceId};
use octopus_common::{
    AuditRing, BlockId, ClientLocation, ClusterConfig, DecisionEvent, DecisionKind, EventRef,
    MediaId, MediaStats, RackId, ReplicationVector, TierId, WorkerId,
};
use octopus_master::{AutoTierConfig, ClientId, Master};
use octopus_policies::EwmaThresholdClassifier;

static MEASURING: Mutex<()> = Mutex::new(());

/// What a stretch of one thread did to the heap: bytes and allocations it
/// left live, and how often it asked the allocator for memory (`alloc`,
/// `alloc_zeroed`, `realloc`; a `realloc` moves an allocation, it does
/// not make one).
#[derive(Clone, Copy, Default)]
struct Heap {
    kept: isize,
    kept_blocks: isize,
    calls: usize,
}

thread_local! {
    /// The running count while [`heap_during`] measures this thread. Only
    /// the measuring thread counts: the harness's own threads allocate
    /// whenever a test finishes, and an exact count must not see them.
    static COUNT: Cell<Option<Heap>> = const { Cell::new(None) };
}

/// Adds to this thread's count, if it is being measured.
fn count(bytes: isize, blocks: isize, calls: usize) {
    let _ = COUNT.try_with(|count| {
        if let Some(h) = count.get() {
            let (kept, kept_blocks, calls) =
                (h.kept + bytes, h.kept_blocks + blocks, h.calls + calls);
            count.set(Some(Heap { kept, kept_blocks, calls }));
        }
    });
}

struct CountLive;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are arithmetic on
// a const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, 1);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, 1);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0, 1);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // i.e. of `System`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1, 0);
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountLive = CountLive;

/// What `f`, run on this thread, did to the heap.
fn heap_during<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    COUNT.set(Some(Heap::default()));
    let out = f();
    (out, COUNT.take().unwrap())
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const WORKERS: u32 = 4;
const CAPACITY: u64 = 1 << 30;
/// `octobench smallfile`'s file: one 16 KiB block.
const FILE_BYTES: u64 = 16 << 10;

/// A master on `test_cluster(4, 1 GiB, 1 MiB)`, `octobench`'s cluster,
/// with every worker registered and heartbeating all three media.
fn boot() -> Master {
    let master = Master::new(ClusterConfig::test_cluster(WORKERS, CAPACITY, 1 << 20)).unwrap();
    for w in 0..WORKERS {
        let rack = RackId((w % 2) as u16);
        master.register_worker(WorkerId(w), rack, 1e9);
        let media = (0..3u8)
            .map(|t| MediaStats {
                media: MediaId(w * 3 + t as u32),
                worker: WorkerId(w),
                rack,
                tier: TierId(t),
                capacity: CAPACITY,
                remaining: CAPACITY,
                nr_conn: 0,
                write_thru: [1900.0, 340.0, 126.0][t as usize] * 1048576.0,
                read_thru: [3200.0, 420.0, 177.0][t as usize] * 1048576.0,
            })
            .collect();
        master.heartbeat(WorkerId(w), media, 0, &[]).unwrap();
    }
    master
}

/// Writes `path` as a client off the cluster does: create, one block
/// placed (the audited placement) and committed where it was placed,
/// complete. Returns the block.
fn write(master: &Master, path: &str, rv: ReplicationVector) -> BlockId {
    let holder = ClientId(1);
    master.create_file_as(path, rv, None, holder).unwrap();
    let (block, pipeline) = master
        .add_block_excluding(path, FILE_BYTES, ClientLocation::OffCluster, holder, &[])
        .unwrap();
    master.commit_replicas(block, &pipeline, &[]).unwrap();
    master.complete_file_as(path, holder).unwrap();
    block.id
}

/// Locates `path` for a client off the cluster: the audited retrieval.
fn read(master: &Master, path: &str) {
    let located =
        master.get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster).unwrap();
    assert_eq!(located.len(), 1);
}

fn rf3() -> ReplicationVector {
    ReplicationVector::from_replication_factor(3)
}

/// The one placement and one retrieval the master recorded for `block`.
fn decisions(master: &Master, block: BlockId) -> (DecisionEvent, DecisionEvent) {
    let events = master.explain(block);
    let [placement, retrieval] = <[DecisionEvent; 2]>::try_from(events).unwrap();
    assert_eq!(
        (placement.kind, retrieval.kind),
        (DecisionKind::Placement, DecisionKind::Retrieval)
    );
    (placement, retrieval)
}

/// The index slot every retained event has beside its record.
const SLOT: usize = 32;
/// The ring's media → (worker, tier) table: 1,024 entries of 8 bytes.
const MEDIA_TABLE: usize = 8_192;

#[test]
fn an_audited_decision_is_one_allocation_of_its_record() {
    let _serial = serial();
    let master = boot();
    let mut blocks = Vec::new();
    for i in 0..7 {
        let path = format!("/f{i}");
        blocks.push(write(&master, &path, rf3()));
        read(&master, &path);
    }
    let (placement, retrieval) = decisions(&master, blocks[6]);
    assert_eq!((placement.chosen.len(), placement.rounds.len()), (3, 3));
    assert_eq!((retrieval.chosen.len(), retrieval.rounds[0].candidates.len()), (3, 3));
    let candidates: usize = placement.rounds.iter().map(|r| r.candidates.len()).sum();

    // The same events recorded, as the master records them, on a ring of
    // their own whose slots and media table are in place: each costs one
    // call to the allocator, for its record, and keeps exactly that.
    let ring = AuditRing::new(DEFAULT_AUDIT_CAPACITY);
    ring.push(placement.clone());
    ring.push(retrieval.clone());
    for (event, bytes) in [(&placement, 780), (&retrieval, 51)] {
        let before = ring.bytes();
        let (_, heap) = heap_during(|| ring.record(EventRef::from(event)));
        println!(
            "{:?} over {} candidates: {} B in {} allocation",
            event.kind,
            event.rounds.iter().map(|r| r.candidates.len()).sum::<usize>(),
            heap.kept,
            heap.kept_blocks
        );
        assert_eq!((heap.kept, heap.kept_blocks, heap.calls), (bytes, 1, 1), "{event:?}");
        assert_eq!(ring.bytes() - before, bytes as usize);
    }
    assert_eq!(candidates, 18);

    // The master's own ring charges the same bytes for the same decisions:
    // an eighth file adds one placement and one retrieval of those sizes
    // (its 16 slots are already allocated).
    let before = master.audit_bytes();
    let block = write(&master, "/f7", rf3());
    read(&master, "/f7");
    let (p, r) = decisions(&master, block);
    assert_eq!(p.rounds.iter().map(|r| r.candidates.len()).sum::<usize>(), candidates);
    assert_eq!(r.rounds[0].candidates.len(), 3);
    assert_eq!(master.audit_bytes() - before, 780 + 51);
}

/// `octobench smallfile`'s mix at the ring's capacity: every file written
/// (one placement) and read back (one retrieval).
fn full_master() -> (Master, Vec<BlockId>) {
    let master = boot();
    let blocks = (0..DEFAULT_AUDIT_CAPACITY / 2)
        .map(|i| {
            let path = format!("/f{i}");
            let block = write(&master, &path, rf3());
            read(&master, &path);
            block
        })
        .collect();
    (master, blocks)
}

#[test]
fn a_full_ring_is_its_records_and_slots_and_nothing_else() {
    let _serial = serial();
    let (master, blocks) = full_master();
    let events: Vec<DecisionEvent> = blocks.iter().flat_map(|&b| master.explain(b)).collect();
    assert_eq!(events.len(), DEFAULT_AUDIT_CAPACITY);

    let (ring, heap) = heap_during(|| {
        let ring = AuditRing::default();
        for e in &events {
            ring.record(EventRef::from(e));
        }
        ring
    });
    let records = heap.kept as usize - MEDIA_TABLE - DEFAULT_AUDIT_CAPACITY * SLOT;
    println!(
        "{} events: {} B in {} allocations ({} B of records, {:.1} B per event)",
        events.len(),
        heap.kept,
        heap.kept_blocks,
        records,
        records as f64 / events.len() as f64
    );
    // One allocation per record, the slot deque and the media table.
    assert_eq!(heap.kept_blocks, DEFAULT_AUDIT_CAPACITY as isize + 2);
    assert_eq!(records, 1_705_732);
    assert_eq!(heap.kept, 1_844_996);
    assert_eq!(ring.bytes(), heap.kept as usize);
    assert_eq!(master.audit_bytes(), ring.bytes());
    assert_eq!(ring.recent(usize::MAX), events);
}

#[test]
fn migrations_on_a_full_ring_allocate_only_for_what_they_return() {
    let _serial = serial();
    let master = boot();
    // Two files pinned to memory and never read: the planner demotes both,
    // recording one migration each. Then the ring fills behind them.
    write(&master, "/cold0", ReplicationVector::msh(1, 0, 1));
    write(&master, "/cold1", ReplicationVector::msh(1, 0, 1));
    let moved =
        master.autotier_scan(&EwmaThresholdClassifier::default(), &AutoTierConfig::default());
    assert_eq!(moved.len(), 2);
    for i in 0..DEFAULT_AUDIT_CAPACITY - 4 {
        write(&master, &format!("/f{i}"), rf3());
    }
    let status = master.cluster_status(0);
    assert_eq!((status.decisions_recorded, status.decisions_retained), (4_096, 4_096));
    let policy_bytes =
        |events: &[DecisionEvent]| events.iter().map(|e| e.policy.len()).sum::<usize>();

    for n in [0, 1, 2, 10] {
        let (events, heap) = heap_during(|| master.recent_migrations(n));
        let returned = n.min(2);
        assert_eq!(events.len(), returned);
        assert!(events.iter().all(|e| e.kind == DecisionKind::Migration && e.rounds.is_empty()));
        // The result vector and each event's policy line: a migration has
        // no locations and no rounds.
        let vector = (returned > 0) as usize;
        assert_eq!(heap.calls, vector + returned, "Migrations({n})");
        let size = returned * std::mem::size_of::<DecisionEvent>();
        assert_eq!(heap.kept, (size + policy_bytes(&events)) as isize, "Migrations({n})");
    }
}

#[test]
fn a_master_rpc_span_costs_its_collector_133_bytes() {
    let _serial = serial();
    let ctx = TraceContext { trace_id: TraceId(1), parent_span: SpanId(2), flags: 1 };
    // A span of `dispatch_traced`'s shape: `master.<Name>`, the node's
    // name, no annotation.
    let span = |collector: &TraceCollector| {
        drop(collector.child_of(format!("master.{}", "AddBlock"), ctx));
    };
    span(&TraceCollector::new("warm-up")); // this thread's span stack
    let (collector, empty) = heap_during(|| TraceCollector::new("master"));
    let (_, heap) = heap_during(|| (0..DEFAULT_TRACE_CAPACITY).for_each(|_| span(&collector)));
    assert_eq!(collector.len(), DEFAULT_TRACE_CAPACITY);
    println!(
        "{DEFAULT_TRACE_CAPACITY} spans: {} B in {} allocations, on a collector of {} B",
        heap.kept, heap.kept_blocks, empty.kept
    );
    // Per span: its record's deque slot, its name and its copy of the
    // node's name; and the deque itself.
    assert_eq!(std::mem::size_of::<SpanRecord>(), 112);
    assert_eq!(heap.kept, DEFAULT_TRACE_CAPACITY as isize * (112 + 15 + 6));
    assert_eq!(heap.kept_blocks, 2 * DEFAULT_TRACE_CAPACITY as isize + 1);
    // A full collector stays at that size: each span evicts one like it.
    let (_, more) = heap_during(|| span(&collector));
    assert_eq!((more.kept, more.kept_blocks), (0, 0));
}
