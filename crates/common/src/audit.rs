//! Placement decision audit: structured records of *why* the policy layer
//! chose the replicas it chose.
//!
//! Every placement (`AddBlock`/`ReassignBlock`/re-replication), retrieval
//! ordering, and removal decision can record a [`DecisionEvent`]: the
//! candidate media it considered, each candidate's per-objective MOOP
//! scores (§3.2, Eq. 11), and what was chosen. Events land in a bounded
//! per-master [`AuditRing`] — oldest evicted, never panicking — and are
//! queryable by block id over the idempotent `ExplainPlacement` RPC, so an
//! operator can ask "why did this block land on HDD?" and get the actual
//! scored ranking back, not a guess.
//!
//! Everything here is wire-encodable; the policies crate fills candidates
//! in, the master stamps identity (`seq`, `when_ms`, block, file) and
//! retains the ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::block::Location;
use crate::ids::{BlockId, INodeId, MediaId, WorkerId};
use crate::lockstat::{LockStats, StatMutex};
use crate::tier::TierId;
use crate::wire::{Wire, WireReader};
use crate::{FsError, Result};

/// Default bound of the master's audit ring.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// What kind of decision an event records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecisionKind {
    /// Initial placement of a new block (`AddBlock`) or a monitor
    /// re-replication target choice.
    #[default]
    Placement,
    /// Re-placement of a failed block slot (`ReassignBlock`).
    Reassign,
    /// Replica ordering for a read (§4.2, Eq. 12): `total` holds each
    /// location's estimated transfer rate.
    Retrieval,
    /// Replica removal for an over-replicated block (§5, leave-one-out):
    /// `total` holds the cluster score *with the candidate removed*.
    Removal,
    /// An automated tiering move: the migration planner changed a file's
    /// replication vector because its heat classification changed
    /// (promotion toward faster tiers or demotion toward slower ones).
    /// Recorded once per migrated file against its first block; `policy`
    /// carries the classifier name, direction, score, and the old → new
    /// vectors.
    Migration,
}

impl DecisionKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            DecisionKind::Placement => "placement",
            DecisionKind::Reassign => "reassign",
            DecisionKind::Retrieval => "retrieval",
            DecisionKind::Removal => "removal",
            DecisionKind::Migration => "migration",
        }
    }
}

impl Wire for DecisionKind {
    fn put(&self, buf: &mut Vec<u8>) {
        let b: u8 = match self {
            DecisionKind::Placement => 0,
            DecisionKind::Reassign => 1,
            DecisionKind::Retrieval => 2,
            DecisionKind::Removal => 3,
            DecisionKind::Migration => 4,
        };
        b.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match u8::get(r)? {
            0 => DecisionKind::Placement,
            1 => DecisionKind::Reassign,
            2 => DecisionKind::Retrieval,
            3 => DecisionKind::Removal,
            4 => DecisionKind::Migration,
            v => return Err(FsError::Io(format!("bad decision kind {v}"))),
        })
    }
}

/// One scored candidate within a decision round.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Candidate medium.
    pub media: MediaId,
    /// Its worker.
    pub worker: WorkerId,
    /// Its tier.
    pub tier: TierId,
    /// The decision metric: Eq. 11 ideal-point distance for
    /// placements/removals (lower is better), estimated transfer rate for
    /// retrievals (higher is better).
    pub total: f64,
    /// Data-balancing objective value `f_DB` of the trial set.
    pub db: f64,
    /// Load-balancing objective value `f_LB`.
    pub lb: f64,
    /// Fault-tolerance objective value `f_FT`.
    pub ft: f64,
    /// Throughput-maximization objective value `f_TM`.
    pub tm: f64,
    /// Whether this candidate was the one chosen.
    pub chosen: bool,
}

impl Wire for CandidateScore {
    fn put(&self, buf: &mut Vec<u8>) {
        self.media.put(buf);
        self.worker.put(buf);
        self.tier.put(buf);
        self.total.put(buf);
        self.db.put(buf);
        self.lb.put(buf);
        self.ft.put(buf);
        self.tm.put(buf);
        self.chosen.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(CandidateScore {
            media: Wire::get(r)?,
            worker: Wire::get(r)?,
            tier: Wire::get(r)?,
            total: Wire::get(r)?,
            db: Wire::get(r)?,
            lb: Wire::get(r)?,
            ft: Wire::get(r)?,
            tm: Wire::get(r)?,
            chosen: Wire::get(r)?,
        })
    }
}

/// One replica slot's solve: the candidates considered and the winner.
/// A greedy MOOP placement of an `n`-replica vector records `n` rounds
/// (Algorithm 2 runs Algorithm 1 once per slot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionRound {
    /// Which replica slot this round placed (0-based).
    pub replica_index: u32,
    /// The slot's tier pin from the replication vector, if any.
    pub tier_pin: Option<TierId>,
    /// Every candidate evaluated, with its scores.
    pub candidates: Vec<CandidateScore>,
    /// The chosen medium (`None` when the round deferred the replica).
    pub chosen_media: Option<MediaId>,
}

impl Wire for DecisionRound {
    fn put(&self, buf: &mut Vec<u8>) {
        self.replica_index.put(buf);
        self.tier_pin.put(buf);
        self.candidates.put(buf);
        self.chosen_media.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(DecisionRound {
            replica_index: Wire::get(r)?,
            tier_pin: Wire::get(r)?,
            candidates: Wire::get(r)?,
            chosen_media: Wire::get(r)?,
        })
    }
}

/// One complete, audited decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionEvent {
    /// Monotonic sequence number, stamped by the ring.
    pub seq: u64,
    /// Master clock when the decision was made (heartbeat time base).
    pub when_ms: u64,
    /// Decision kind.
    pub kind: DecisionKind,
    /// The block decided about.
    pub block: BlockId,
    /// The owning file.
    pub file: INodeId,
    /// Name of the deciding policy (`"MOOP"`, `"OctopusFS"`, ...).
    pub policy: String,
    /// The outcome: scheduled pipeline locations for placements, the
    /// serving order for retrievals, the removed replica for removals.
    pub chosen: Vec<Location>,
    /// Per-slot solve detail (one round per replica for placements; a
    /// single round for retrievals and removals).
    pub rounds: Vec<DecisionRound>,
}

impl Wire for DecisionEvent {
    fn put(&self, buf: &mut Vec<u8>) {
        self.seq.put(buf);
        self.when_ms.put(buf);
        self.kind.put(buf);
        self.block.put(buf);
        self.file.put(buf);
        self.policy.put(buf);
        self.chosen.put(buf);
        self.rounds.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(DecisionEvent {
            seq: Wire::get(r)?,
            when_ms: Wire::get(r)?,
            kind: Wire::get(r)?,
            block: Wire::get(r)?,
            file: Wire::get(r)?,
            policy: Wire::get(r)?,
            chosen: Wire::get(r)?,
            rounds: Wire::get(r)?,
        })
    }
}

/// A decision as [`AuditRing::record`] takes it: every part borrowed, so
/// recording one copies nothing but the bytes of its record.
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    /// Master clock when the decision was made.
    pub when_ms: u64,
    /// Decision kind.
    pub kind: DecisionKind,
    /// The block decided about.
    pub block: BlockId,
    /// The owning file.
    pub file: INodeId,
    /// Name of the deciding policy.
    pub policy: &'a str,
    /// The outcome.
    pub chosen: &'a [Location],
    /// Per-slot solve detail.
    pub rounds: &'a [DecisionRound],
}

impl<'a> From<&'a DecisionEvent> for EventRef<'a> {
    fn from(e: &'a DecisionEvent) -> Self {
        EventRef {
            when_ms: e.when_ms,
            kind: e.kind,
            block: e.block,
            file: e.file,
            policy: &e.policy,
            chosen: &e.chosen,
            rounds: &e.rounds,
        }
    }
}

// A retained event is its index entry (block and kind; its `seq` is its
// position, since the ring evicts only its oldest) and one exact-size
// record holding the rest:
//
//   record    := varint when_ms, varint file, varint len + policy bytes,
//                varint n + n × place (chosen), varint n + n × round
//   round     := u8 flags (PINNED, DECIDED), varint replica_index,
//                [u8 tier_pin], [varint chosen_media], varint n + n × candidate
//   candidate := u8 flags (CHOSEN, OBJECTIVE << i), place, f64 total,
//                f64 of each objective i (db, lb, ft, tm) whose flag is set
//   place     := varint (media << 1 | inline) [, varint worker, u8 tier]
//
// Nothing that can be rebuilt on read is stored: a medium's worker and
// tier come from the ring's media table unless `inline` is set, `chosen`
// is a flag bit, and an objective that is exactly `+0.0` (every objective
// of a retrieval) is a clear flag bit. Every stored `f64` keeps its bits.

const PINNED: u8 = 1;
const DECIDED: u8 = 2;
const CHOSEN: u8 = 1;
const OBJECTIVE: u8 = 2;

/// Where a record is written: the first pass only counts its bytes, so
/// the second writes into an allocation of exactly that size.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

fn put_varint(out: &mut impl Sink, mut v: u64) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.put(&buf[..=n]);
}

/// Media ids the ring's table covers. A medium past it, or one whose
/// worker or tier differ from those the table first saw, stores them
/// inline.
const MEDIA_TABLE: usize = 1024;
const KNOWN: u64 = 1 << 63;

/// Media id → (worker, tier), each entry written once: the first record
/// to name a medium claims its entry, and no entry changes after that, so
/// a record never needs more than the table held when it was encoded.
/// Relaxed is enough: an encoder sees an entry claimed before it appends
/// under the ring's mutex, and a reader looks only after taking that
/// mutex, so it sees the claim too.
///
/// The table also writes and reads the records that lean on it.
struct MediaTable(Box<[AtomicU64]>);

impl MediaTable {
    fn new() -> Self {
        MediaTable((0..MEDIA_TABLE).map(|_| AtomicU64::new(0)).collect())
    }

    /// Whether `at`'s worker and tier can be rebuilt from its medium.
    fn implies(&self, at: Location) -> bool {
        let Some(entry) = self.0.get(at.media.0 as usize) else { return false };
        let packed = KNOWN | u64::from(at.tier.0) << 32 | u64::from(at.worker.0);
        match entry.compare_exchange(0, packed, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(held) => held == packed,
        }
    }

    fn location(&self, media: MediaId) -> Location {
        let packed = self.0[media.0 as usize].load(Ordering::Relaxed);
        Location { worker: WorkerId(packed as u32), media, tier: TierId((packed >> 32) as u8) }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }

    fn put_place(&self, out: &mut impl Sink, at: Location) {
        let inline = !self.implies(at);
        put_varint(out, u64::from(at.media.0) << 1 | inline as u64);
        if inline {
            put_varint(out, u64::from(at.worker.0));
            out.put(&[at.tier.0]);
        }
    }

    fn put_record(&self, out: &mut impl Sink, e: &EventRef<'_>) {
        put_varint(out, e.when_ms);
        put_varint(out, e.file.0);
        put_varint(out, e.policy.len() as u64);
        out.put(e.policy.as_bytes());
        put_varint(out, e.chosen.len() as u64);
        for &at in e.chosen {
            self.put_place(out, at);
        }
        put_varint(out, e.rounds.len() as u64);
        for round in e.rounds {
            let flags = (PINNED * round.tier_pin.is_some() as u8)
                | (DECIDED * round.chosen_media.is_some() as u8);
            out.put(&[flags]);
            put_varint(out, u64::from(round.replica_index));
            if let Some(pin) = round.tier_pin {
                out.put(&[pin.0]);
            }
            if let Some(media) = round.chosen_media {
                put_varint(out, u64::from(media.0));
            }
            put_varint(out, round.candidates.len() as u64);
            for c in &round.candidates {
                let objectives = [c.db, c.lb, c.ft, c.tm];
                let mut flags = CHOSEN * c.chosen as u8;
                for (i, v) in objectives.iter().enumerate() {
                    flags |= (OBJECTIVE << i) * (v.to_bits() != 0) as u8;
                }
                out.put(&[flags]);
                self.put_place(out, Location { worker: c.worker, media: c.media, tier: c.tier });
                out.put(&c.total.to_le_bytes());
                for v in objectives.iter().filter(|v| v.to_bits() != 0) {
                    out.put(&v.to_le_bytes());
                }
            }
        }
    }

    /// `e`'s record, in one allocation of exactly its length.
    fn encode(&self, e: &EventRef<'_>) -> Box<[u8]> {
        let mut len = 0usize;
        self.put_record(&mut len, e);
        let mut record = Vec::with_capacity(len);
        self.put_record(&mut record, e);
        debug_assert_eq!(record.len(), len);
        record.into_boxed_slice()
    }

    fn decode(&self, seq: u64, slot: &Slot) -> DecisionEvent {
        let mut r = Record(&slot.record);
        let when_ms = r.varint();
        let file = INodeId(r.varint());
        let len = r.varint() as usize;
        let policy = String::from_utf8(r.take(len).to_vec()).expect("a recorded policy is UTF-8");
        let chosen = (0..r.varint()).map(|_| self.place(&mut r)).collect();
        let rounds = (0..r.varint())
            .map(|_| {
                let flags = r.byte();
                let replica_index = r.varint() as u32;
                let tier_pin = (flags & PINNED != 0).then(|| TierId(r.byte()));
                let chosen_media = (flags & DECIDED != 0).then(|| MediaId(r.varint() as u32));
                let candidates = (0..r.varint())
                    .map(|_| {
                        let flags = r.byte();
                        let at = self.place(&mut r);
                        let total = r.f64();
                        let mut objective =
                            |i: u8| if flags & (OBJECTIVE << i) != 0 { r.f64() } else { 0.0 };
                        CandidateScore {
                            media: at.media,
                            worker: at.worker,
                            tier: at.tier,
                            total,
                            db: objective(0),
                            lb: objective(1),
                            ft: objective(2),
                            tm: objective(3),
                            chosen: flags & CHOSEN != 0,
                        }
                    })
                    .collect();
                DecisionRound { replica_index, tier_pin, candidates, chosen_media }
            })
            .collect();
        debug_assert!(r.0.is_empty(), "{} bytes left over in record {seq}", r.0.len());
        DecisionEvent {
            seq,
            when_ms,
            kind: slot.kind,
            block: slot.block,
            file,
            policy,
            chosen,
            rounds,
        }
    }

    fn place(&self, r: &mut Record<'_>) -> Location {
        let v = r.varint();
        let media = MediaId((v >> 1) as u32);
        if v & 1 == 0 {
            return self.location(media);
        }
        Location { worker: WorkerId(r.varint() as u32), media, tier: TierId(r.byte()) }
    }
}

/// A cursor over a record the ring wrote itself (so it cannot be short).
struct Record<'a>(&'a [u8]);

impl<'a> Record<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().expect("took 8 bytes"))
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        for shift in (0..).step_by(7) {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }
}

/// One retained event: what readers filter on, and its record.
struct Slot {
    block: BlockId,
    kind: DecisionKind,
    record: Box<[u8]>,
}

struct RingInner {
    next_seq: u64,
    dropped: u64,
    /// Bytes of every retained record.
    record_bytes: usize,
    slots: VecDeque<Slot>,
}

/// A bounded, internally locked ring of [`DecisionEvent`]s. Oldest events
/// are evicted at capacity — counted in [`AuditRing::dropped`], never
/// silently — and pushing never panics or blocks on readers beyond the
/// short mutex hold. An event is encoded before the lock is taken and
/// kept as one exact-size record (see [`AuditRing::bytes`]); readers
/// decode only the events they return.
pub struct AuditRing {
    capacity: usize,
    media: MediaTable,
    inner: StatMutex<RingInner>,
}

impl Default for AuditRing {
    fn default() -> Self {
        Self::new(DEFAULT_AUDIT_CAPACITY)
    }
}

impl AuditRing {
    /// A ring holding up to `capacity` events (≥1).
    pub fn new(capacity: usize) -> Self {
        Self::with_mutex(capacity, StatMutex::new)
    }

    /// [`AuditRing::new`] with the internal mutex instrumented for lock
    /// contention statistics.
    pub fn with_stats(capacity: usize, stats: Arc<LockStats>) -> Self {
        Self::with_mutex(capacity, |inner| StatMutex::instrumented(inner, stats))
    }

    fn with_mutex(capacity: usize, mutex: impl FnOnce(RingInner) -> StatMutex<RingInner>) -> Self {
        AuditRing {
            capacity: capacity.max(1),
            media: MediaTable::new(),
            inner: mutex(RingInner {
                next_seq: 0,
                dropped: 0,
                record_bytes: 0,
                slots: VecDeque::new(),
            }),
        }
    }

    /// Records an event and returns the sequence number the ring stamped
    /// on it (its own `seq` is ignored).
    pub fn push(&self, event: DecisionEvent) -> u64 {
        self.record(EventRef::from(&event))
    }

    /// Records a borrowed event and returns its sequence number. Evicts
    /// the oldest event when full — before the push, so a full ring never
    /// grows its deque past `capacity` slots.
    pub fn record(&self, event: EventRef<'_>) -> u64 {
        let record = self.media.encode(&event);
        let slot = Slot { block: event.block, kind: event.kind, record };
        let mut g = self.inner.lock();
        if g.slots.len() == self.capacity {
            let evicted = g.slots.pop_front().map_or(0, |s| s.record.len());
            g.record_bytes -= evicted;
            g.dropped += 1;
        }
        g.record_bytes += slot.record.len();
        g.slots.push_back(slot);
        let seq = g.next_seq;
        g.next_seq += 1;
        seq
    }

    /// Every retained event about `block`, oldest first.
    pub fn by_block(&self, block: BlockId) -> Vec<DecisionEvent> {
        self.matching(|s| s.block == block, usize::MAX)
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<DecisionEvent> {
        self.matching(|_| true, n)
    }

    /// The most recent `n` events of `kind`, oldest first.
    pub fn recent_of_kind(&self, kind: DecisionKind, n: usize) -> Vec<DecisionEvent> {
        self.matching(|s| s.kind == kind, n)
    }

    /// The last `n` retained events whose index entry passes `keep`,
    /// oldest first: found on the index, and only those decoded.
    fn matching(&self, keep: impl Fn(&Slot) -> bool, n: usize) -> Vec<DecisionEvent> {
        let g = self.inner.lock();
        let found = g.slots.iter().filter(|s| keep(s)).count();
        let mut out = Vec::with_capacity(found.min(n));
        // Only the oldest is ever evicted, so sequence numbers run on.
        let first = g.next_seq - g.slots.len() as u64;
        let kept = (first..).zip(&g.slots).filter(|(_, s)| keep(s)).skip(found.saturating_sub(n));
        out.extend(kept.map(|(seq, s)| self.media.decode(seq, s)));
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (retained or evicted).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Total events evicted to make room (the ring wrapped past them).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The heap the ring holds: its media table, its index's slots
    /// (retained or not yet used) and every retained record.
    pub fn bytes(&self) -> usize {
        let g = self.inner.lock();
        self.media.bytes() + g.slots.capacity() * std::mem::size_of::<Slot>() + g.record_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    fn event(block: u64) -> DecisionEvent {
        DecisionEvent {
            when_ms: 10 * block,
            kind: DecisionKind::Placement,
            block: BlockId(block),
            file: INodeId(1),
            policy: "MOOP".into(),
            chosen: vec![Location { worker: WorkerId(0), media: MediaId(0), tier: TierId(0) }],
            rounds: vec![DecisionRound {
                replica_index: 0,
                tier_pin: Some(TierId(0)),
                candidates: vec![CandidateScore {
                    media: MediaId(0),
                    worker: WorkerId(0),
                    tier: TierId(0),
                    total: 0.25,
                    db: 0.1,
                    lb: 0.2,
                    ft: 3.0,
                    tm: 14.2,
                    chosen: true,
                }],
                chosen_media: Some(MediaId(0)),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn event_round_trips_over_wire() {
        let e = event(7);
        let back: DecisionEvent = decode(&encode(&e)).unwrap();
        assert_eq!(back, e);
        for kind in [
            DecisionKind::Placement,
            DecisionKind::Reassign,
            DecisionKind::Retrieval,
            DecisionKind::Removal,
            DecisionKind::Migration,
        ] {
            let mut e = event(8);
            e.kind = kind;
            let back: DecisionEvent = decode(&encode(&e)).unwrap();
            assert_eq!(back.kind, kind);
        }
    }

    #[test]
    fn ring_bounds_and_evicts_oldest() {
        let ring = AuditRing::new(3);
        for i in 0..10u64 {
            ring.push(event(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 7, "every eviction must be accounted for");
        // Oldest evicted: only blocks 7, 8, 9 survive, with their stamped
        // sequence numbers intact.
        assert!(ring.by_block(BlockId(0)).is_empty());
        let kept = ring.recent(100);
        assert_eq!(kept.iter().map(|e| e.block.0).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(kept.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(ring.recent(1)[0].block, BlockId(9));
    }

    #[test]
    fn a_full_ring_keeps_its_deque_at_capacity() {
        // Pushing before evicting grew the deque at the first event past
        // capacity, to twice the slots it ever used.
        for capacity in [100, DEFAULT_AUDIT_CAPACITY] {
            let ring = AuditRing::new(capacity);
            for i in 0..3 * capacity as u64 {
                ring.push(DecisionEvent { block: BlockId(i), ..Default::default() });
            }
            assert_eq!((ring.len(), ring.dropped()), (capacity, 2 * capacity as u64));
            let slots = ring.inner.lock().slots.capacity();
            assert!(slots < 2 * capacity, "{slots} slots for a ring of {capacity}");
        }
    }

    #[test]
    fn by_block_filters() {
        let ring = AuditRing::new(8);
        ring.push(event(1));
        ring.push(event(2));
        let mut again = event(1);
        again.kind = DecisionKind::Retrieval;
        ring.push(again);
        let got = ring.by_block(BlockId(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, DecisionKind::Placement);
        assert_eq!(got[1].kind, DecisionKind::Retrieval);
    }

    #[test]
    fn zero_capacity_clamps_and_never_panics() {
        let ring = AuditRing::new(0);
        ring.push(event(1));
        ring.push(event(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.recent(5)[0].block, BlockId(2));
    }

    /// SplitMix64: the round-trip test's seeded source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            crate::rng::splitmix64(&mut self.0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, one_in: u64) -> bool {
            self.below(one_in) == 0
        }

        /// A score: mostly an ordinary value, often one of the values a
        /// compact layout could lose.
        fn score(&mut self) -> f64 {
            match self.below(12) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::from_bits(0x7ff8_dead_beef_0001), // a NaN with a payload
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => f64::MIN_POSITIVE / 3.0, // subnormal
                7 => f64::from_bits(self.next()),
                _ => (self.next() >> 11) as f64 / (1u64 << 40) as f64 - 2.0,
            }
        }

        /// A medium: usually on the worker and tier it always has, now and
        /// then claimed with another, or past the ring's media table.
        fn place(&mut self) -> Location {
            let media = match self.below(40) {
                0 => MediaId(MEDIA_TABLE as u32 + self.below(5_000) as u32),
                1 => MediaId(u32::MAX),
                _ => MediaId(self.below(40) as u32),
            };
            let (worker, tier) = if self.chance(15) {
                (WorkerId(self.next() as u32), TierId(self.next() as u8))
            } else {
                (WorkerId(media.0 / 3), TierId((media.0 % 3) as u8))
            };
            Location { worker, media, tier }
        }

        fn round(&mut self, candidates: usize) -> DecisionRound {
            DecisionRound {
                replica_index: if self.chance(10) { u32::MAX } else { self.below(4) as u32 },
                tier_pin: self.chance(2).then(|| TierId(self.next() as u8)),
                candidates: (0..candidates)
                    .map(|_| {
                        let at = self.place();
                        CandidateScore {
                            media: at.media,
                            worker: at.worker,
                            tier: at.tier,
                            total: self.score(),
                            db: self.score(),
                            lb: self.score(),
                            ft: self.score(),
                            tm: self.score(),
                            chosen: self.chance(3),
                        }
                    })
                    .collect(),
                chosen_media: (!self.chance(4)).then(|| self.place().media),
            }
        }

        fn event(&mut self, block: u64) -> DecisionEvent {
            let kind = [
                DecisionKind::Placement,
                DecisionKind::Reassign,
                DecisionKind::Retrieval,
                DecisionKind::Removal,
                DecisionKind::Migration,
            ][self.below(5) as usize];
            let policy = match kind {
                DecisionKind::Migration => {
                    format!("ewma: demote score={:.3} ⟨1,0,1⟩ -> ⟨0,0,1⟩", self.score())
                }
                _ => ["MOOP", "OctopusFS", "leave-one-out", ""][self.below(4) as usize].into(),
            };
            let rounds = self.below(5) as usize;
            DecisionEvent {
                seq: 0,
                when_ms: if self.chance(8) { u64::MAX } else { self.below(1 << 40) },
                kind,
                block: BlockId(block),
                file: INodeId(if self.chance(8) { u64::MAX } else { self.below(1 << 33) }),
                policy,
                chosen: (0..self.below(4)).map(|_| self.place()).collect(),
                rounds: (0..rounds)
                    .map(|_| {
                        let n = self.below(20) as usize;
                        self.round(n)
                    })
                    .collect(),
            }
        }
    }

    /// `got == want` with every score compared by its bits (so a NaN
    /// matches the same NaN, and `-0.0` does not match `0.0`).
    fn assert_same(got: &DecisionEvent, want: &DecisionEvent) {
        let scores = |e: &DecisionEvent| -> Vec<[u64; 5]> {
            (e.rounds.iter().flat_map(|r| &r.candidates))
                .map(|c| [c.total, c.db, c.lb, c.ft, c.tm].map(f64::to_bits))
                .collect()
        };
        assert_eq!(scores(got), scores(want), "scores of event {}", want.seq);
        let rest = |e: &DecisionEvent| {
            let mut e = e.clone();
            for c in e.rounds.iter_mut().flat_map(|r| &mut r.candidates) {
                (c.total, c.db, c.lb, c.ft, c.tm) = (0.0, 0.0, 0.0, 0.0, 0.0);
            }
            e
        };
        assert_eq!(rest(got), rest(want));
    }

    #[test]
    fn every_event_reads_back_bit_for_bit() {
        for seed in 0..8 {
            let mut rng = Rng(seed);
            let mut events: Vec<DecisionEvent> = (0..300).map(|i| rng.event(i % 97)).collect();
            // The shapes a random draw may miss: no rounds at all, a round
            // whose candidate count needs two varint bytes, and a policy
            // line of several hundred bytes.
            events[0].rounds.clear();
            events[1].rounds = vec![rng.round(300)];
            events[2].kind = DecisionKind::Migration;
            events[2].policy = "a migration's policy line, ".repeat(25);
            let ring = AuditRing::new(events.len());
            for (seq, e) in events.iter_mut().enumerate() {
                assert_eq!(ring.push(e.clone()), seq as u64);
                e.seq = seq as u64;
            }
            assert_eq!((ring.len(), ring.dropped()), (events.len(), 0));

            let all = ring.recent(usize::MAX);
            assert_eq!(all.len(), events.len());
            for (got, want) in all.iter().zip(&events) {
                assert_same(got, want);
            }
            for block in 0..97 {
                let want: Vec<_> = events.iter().filter(|e| e.block.0 == block).collect();
                let got = ring.by_block(BlockId(block));
                assert_eq!(got.len(), want.len(), "seed {seed}, block {block}");
                got.iter().zip(want).for_each(|(got, want)| assert_same(got, want));
            }
            let migrations: Vec<_> =
                events.iter().filter(|e| e.kind == DecisionKind::Migration).collect();
            let last_two = ring.recent_of_kind(DecisionKind::Migration, 2);
            assert_eq!(last_two.len(), 2);
            last_two
                .iter()
                .zip(&migrations[migrations.len() - 2..])
                .for_each(|(g, w)| assert_same(g, w));
        }
    }

    #[test]
    fn a_retrieval_keeps_no_objective_and_a_known_medium_no_location() {
        let ring = AuditRing::new(4);
        let at = |m: u32| Location { worker: WorkerId(m / 3), media: MediaId(m), tier: TierId(0) };
        let candidate = |m: u32, total: f64| CandidateScore {
            media: MediaId(m),
            worker: WorkerId(m / 3),
            tier: TierId(0),
            total,
            db: 0.0,
            lb: 0.0,
            ft: 0.0,
            tm: 0.0,
            chosen: m == 3,
        };
        let retrieval = DecisionEvent {
            when_ms: 100,
            kind: DecisionKind::Retrieval,
            block: BlockId(1),
            file: INodeId(2),
            policy: "OctopusFS".into(),
            chosen: vec![at(3), at(6), at(9)],
            rounds: vec![DecisionRound {
                replica_index: 0,
                tier_pin: None,
                candidates: vec![candidate(3, 3.2e9), candidate(6, 4.2e8), candidate(9, 1.7e8)],
                chosen_media: Some(MediaId(3)),
            }],
            ..Default::default()
        };
        let empty = ring.bytes();
        ring.push(retrieval.clone());
        // when 1, file 1, policy 1 + 9, chosen 1 + 3 × 1, rounds 1, round
        // head 4, and per candidate flags 1 + medium 1 + total 8.
        assert_eq!(ring.bytes() - empty, size_of::<Slot>() * 4 + 17 + 4 + 3 * 10);
        assert_same(&ring.recent(1)[0], &retrieval);
    }
}
