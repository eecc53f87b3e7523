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

struct RingInner {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<DecisionEvent>,
}

/// A bounded, internally locked ring of [`DecisionEvent`]s. Oldest events
/// are evicted at capacity — counted in [`AuditRing::dropped`], never
/// silently — and pushing never panics or blocks on readers beyond the
/// short mutex hold.
pub struct AuditRing {
    capacity: usize,
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
        AuditRing {
            capacity: capacity.max(1),
            inner: StatMutex::new(RingInner { next_seq: 0, dropped: 0, events: VecDeque::new() }),
        }
    }

    /// [`AuditRing::new`] with the internal mutex instrumented for lock
    /// contention statistics.
    pub fn with_stats(capacity: usize, stats: Arc<LockStats>) -> Self {
        AuditRing {
            capacity: capacity.max(1),
            inner: StatMutex::instrumented(
                RingInner { next_seq: 0, dropped: 0, events: VecDeque::new() },
                stats,
            ),
        }
    }

    /// Records an event, stamping its `seq`, and returns that sequence
    /// number. Evicts the oldest event when full — before the push, so a
    /// full ring never grows its deque past `capacity` slots.
    pub fn push(&self, mut event: DecisionEvent) -> u64 {
        let mut g = self.inner.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        event.seq = seq;
        if g.events.len() == self.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(event);
        seq
    }

    /// Every retained event about `block`, oldest first.
    pub fn by_block(&self, block: BlockId) -> Vec<DecisionEvent> {
        self.inner.lock().events.iter().filter(|e| e.block == block).cloned().collect()
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<DecisionEvent> {
        let g = self.inner.lock();
        let skip = g.events.len().saturating_sub(n);
        g.events.iter().skip(skip).cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
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
            let slots = ring.inner.lock().events.capacity();
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
}
