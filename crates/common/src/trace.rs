//! Distributed request tracing: deterministic ids, lock-light per-process
//! span collection, wire-level context propagation, and critical-path
//! analysis.
//!
//! The metrics layer (`crate::metrics`) answers *aggregate* questions —
//! how many requests, how slow on average. It cannot answer "why was
//! *this* read slow?", because that requires following one request across
//! client → master → worker → media. This module is that substrate:
//!
//! - [`TraceId`]/[`SpanId`]: 64-bit ids from a process-seeded splitmix64
//!   walk ([`crate::rng::mix`]; no coordination).
//! - [`TraceCollector`]: a per-process (per-component, in the in-process
//!   test clusters) ring buffer of finished [`SpanRecord`]s, in the same
//!   spirit as `MetricsRegistry` — no external deps, bounded memory, a
//!   mutex taken only when a span *finishes*, never per-annotation on a
//!   lock-free fast path.
//! - [`SpanGuard`]: an RAII span. Creating one pushes its context onto a
//!   thread-local stack (so nested spans link automatically and the
//!   structured logger can stamp `trace=` fields); dropping it records
//!   the finished span into its collector.
//! - **Wire envelope**: RPC request payloads are wrapped in a small
//!   versioned envelope ([`wrap_envelope`]/[`unwrap_envelope`]) carrying
//!   `{trace_id, parent_span_id, flags}`. Old-format frames (no envelope)
//!   still decode — the magic byte `0xE7` is not a valid request tag —
//!   so mixed-version deployments interoperate.
//! - [`Trace`] assembly and [`CriticalPath`]: spans merged from every
//!   node's collector are grouped by trace id and the root request's
//!   wall time is attributed to an exact partition of segments (child
//!   spans clipped to the parent interval; uncovered time becomes the
//!   parent's `(self)` segment — retry backoff gaps show up here).
//!
//! # Span naming scheme
//!
//! `<component>.<operation>`: `client.write_file`, `client.read_replica`,
//! `rpc.ReadBlock` (one per transport attempt, annotated `attempt=N`),
//! `master.AddBlock`, `worker.WriteBlock`, `monitor.copy`,
//! `cache.promote`. Annotations are free-form `key=value` pairs (tier,
//! block id, bytes, retry number, replica index).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::rng;
use crate::wire::{Wire, WireReader};
use crate::{FsError, Result};

/// Identifies one end-to-end request across every node it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Wire for TraceId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(TraceId(Wire::get(r)?))
    }
}

impl Wire for SpanId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(SpanId(Wire::get(r)?))
    }
}

/// The trace is sampled (spans are recorded). Reserved bits are ignored
/// by v1 decoders.
pub const FLAG_SAMPLED: u8 = 1;

/// The context that crosses process boundaries: which trace a request
/// belongs to and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace.
    pub trace_id: TraceId,
    /// The span at the caller that caused this request.
    pub parent_span: SpanId,
    /// Bit flags ([`FLAG_SAMPLED`]).
    pub flags: u8,
}

impl Wire for TraceContext {
    fn put(&self, buf: &mut Vec<u8>) {
        self.trace_id.put(buf);
        self.parent_span.put(buf);
        self.flags.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(TraceContext {
            trace_id: Wire::get(r)?,
            parent_span: Wire::get(r)?,
            flags: Wire::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Envelope: versioned trace-context prefix on RPC request payloads.
// ---------------------------------------------------------------------------

/// First byte of an enveloped payload. Chosen outside the range of valid
/// request tags (small integers) and result status bytes (0/1), so a
/// receiver can distinguish enveloped from bare payloads.
pub const ENVELOPE_MAGIC: u8 = 0xE7;

/// Current envelope version.
pub const ENVELOPE_V1: u8 = 1;

/// Wraps a request payload in a v1 trace envelope.
pub fn wrap_envelope(ctx: &TraceContext, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 17 + payload.len());
    buf.push(ENVELOPE_MAGIC);
    buf.push(ENVELOPE_V1);
    ctx.put(&mut buf);
    buf.extend_from_slice(payload);
    buf
}

/// Splits a received payload into its optional trace context and the
/// bare request bytes. Payloads from older senders (no envelope) pass
/// through unchanged with `None`; an envelope with an unknown version is
/// an error (its layout is unknowable).
pub fn unwrap_envelope(frame: &[u8]) -> Result<(Option<TraceContext>, &[u8])> {
    if frame.first() != Some(&ENVELOPE_MAGIC) {
        return Ok((None, frame));
    }
    if frame.len() < 2 {
        return Err(FsError::Io("truncated trace envelope".into()));
    }
    let version = frame[1];
    if version != ENVELOPE_V1 {
        return Err(FsError::Io(format!("unsupported trace envelope version {version}")));
    }
    let mut r = WireReader::new(&frame[2..]);
    let ctx = TraceContext::get(&mut r)?;
    let consumed = 2 + 17;
    Ok((Some(ctx), &frame[consumed..]))
}

// ---------------------------------------------------------------------------
// Id generation: a process-seeded splitmix64 walk. Deterministic given the
// seed and collision-free within a process.
// ---------------------------------------------------------------------------

static ID_STATE: LazyLock<AtomicU64> = LazyLock::new(|| {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.subsec_nanos()).unwrap_or(0);
    let seed = (std::process::id() as u64) << 32 ^ nanos as u64 ^ rng::GAMMA;
    AtomicU64::new(seed)
});

fn fresh_id() -> u64 {
    rng::mix(ID_STATE.fetch_add(rng::GAMMA, Ordering::Relaxed)).max(1) // 0 is "no parent"
}

/// Wall-clock microseconds since the Unix epoch (spans from different
/// processes on one machine order correctly; durations use `Instant`).
fn wall_now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Span records and the collector.
// ---------------------------------------------------------------------------

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Parent span id; `SpanId(0)` means root.
    pub parent_span: SpanId,
    /// Span name (`<component>.<operation>`).
    pub name: String,
    /// Identity of the recording node (`client`, `master`, `worker-3`).
    pub node: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form `key=value` annotations (tier, block, bytes, attempt).
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// Exclusive end timestamp.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// The value of one annotation key, if present.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// One JSON object describing this span (hand-rolled; no serde dep).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"span_id\":\"{}\",\"parent_span\":\"{}\",\"name\":\"{}\",\
             \"node\":\"{}\",\"start_us\":{},\"dur_us\":{}",
            self.trace_id,
            self.span_id,
            self.parent_span,
            json_escape(&self.name),
            json_escape(&self.node),
            self.start_us,
            self.dur_us,
        );
        out.push_str(",\"annotations\":{");
        for (i, (k, v)) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

macro_rules! wire_struct {
    ($t:ty, $($field:ident),+) => {
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                $( self.$field.put(buf); )+
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(Self { $( $field: Wire::get(r)?, )+ })
            }
        }
    };
}

wire_struct!(SpanRecord, trace_id, span_id, parent_span, name, node, start_us, dur_us, annotations);

/// Default ring-buffer capacity of a [`TraceCollector`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

struct CollectorInner {
    node: String,
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

/// A bounded buffer of finished spans for one component. Cheap to clone
/// (`Arc`); the internal mutex is taken only when a span finishes or a
/// snapshot is taken, never on annotation or context reads.
#[derive(Clone)]
pub struct TraceCollector(Arc<CollectorInner>);

impl TraceCollector {
    /// A collector identified as `node` with the default capacity.
    pub fn new(node: impl Into<String>) -> Self {
        Self::with_capacity(node, DEFAULT_TRACE_CAPACITY)
    }

    /// A collector with an explicit ring capacity (≥1).
    pub fn with_capacity(node: impl Into<String>, capacity: usize) -> Self {
        TraceCollector(Arc::new(CollectorInner {
            node: node.into(),
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }))
    }

    /// The node identity stamped on recorded spans.
    pub fn node(&self) -> &str {
        &self.0.node
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.0.spans.lock().unwrap().len()
    }

    /// Whether no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(Ordering::Relaxed)
    }

    /// Starts a new root span (fresh trace id) recording into this
    /// collector.
    pub fn root(&self, name: impl Into<String>) -> SpanGuard {
        let trace_id = TraceId(fresh_id());
        self.start(name.into(), trace_id, SpanId(0))
    }

    /// Starts a span continuing a propagated remote context (server side
    /// of an RPC).
    pub fn child_of(&self, name: impl Into<String>, ctx: TraceContext) -> SpanGuard {
        self.start(name.into(), ctx.trace_id, ctx.parent_span)
    }

    /// Starts a child of the thread's current span when one is active,
    /// or a fresh root otherwise. Records into this collector either way.
    pub fn root_or_child(&self, name: impl Into<String>) -> SpanGuard {
        match current_context() {
            Some(ctx) => self.child_of(name, ctx),
            None => self.root(name),
        }
    }

    /// Continues `ctx` on this thread without recording a span of its
    /// own: until the guard drops, [`child`] spans started here become
    /// children of `ctx`'s span and record into this collector. How a
    /// helper thread joins the trace of the thread that spawned it.
    pub fn enter(&self, ctx: TraceContext) -> EnteredContext {
        let span_id = ctx.parent_span;
        STACK.with(|s| {
            s.borrow_mut().push(ActiveSpan {
                trace_id: ctx.trace_id,
                span_id,
                collector: self.clone(),
            })
        });
        EnteredContext { span_id }
    }

    fn start(&self, name: String, trace_id: TraceId, parent: SpanId) -> SpanGuard {
        let span_id = SpanId(fresh_id());
        STACK.with(|s| {
            s.borrow_mut().push(ActiveSpan { trace_id, span_id, collector: self.clone() })
        });
        SpanGuard {
            rec: Some(SpanRecord {
                trace_id,
                span_id,
                parent_span: parent,
                name,
                node: self.0.node.clone(),
                start_us: wall_now_us(),
                dur_us: 0,
                annotations: Vec::new(),
            }),
            started: Instant::now(),
        }
    }

    fn record(&self, rec: SpanRecord) {
        let mut spans = self.0.spans.lock().unwrap();
        if spans.len() >= self.0.capacity {
            spans.pop_front();
            self.0.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(rec);
    }

    /// A copy of every buffered span.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot { spans: self.0.spans.lock().unwrap().iter().cloned().collect() }
    }

    /// Removes and returns every buffered span.
    pub fn drain(&self) -> TraceSnapshot {
        TraceSnapshot { spans: self.0.spans.lock().unwrap().drain(..).collect() }
    }

    /// Drops all buffered spans.
    pub fn clear(&self) {
        self.0.spans.lock().unwrap().clear();
    }
}

struct ActiveSpan {
    trace_id: TraceId,
    span_id: SpanId,
    collector: TraceCollector,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// The context a new outbound request should carry: the thread's current
/// trace and innermost active span.
pub fn current_context() -> Option<TraceContext> {
    STACK.with(|s| {
        s.borrow().last().map(|a| TraceContext {
            trace_id: a.trace_id,
            parent_span: a.span_id,
            flags: FLAG_SAMPLED,
        })
    })
}

/// The thread's current trace id (for log stamping).
pub fn current_trace_id() -> Option<TraceId> {
    STACK.with(|s| s.borrow().last().map(|a| a.trace_id))
}

/// Starts a child of the thread's current span, recording into the same
/// collector that owns the current span. Returns `None` when no trace is
/// active — callers on untraced paths (heartbeats, background chatter)
/// pay one thread-local read and nothing else.
pub fn child(name: impl Into<String>) -> Option<SpanGuard> {
    let (ctx, collector) = STACK.with(|s| {
        s.borrow().last().map(|a| {
            (
                TraceContext { trace_id: a.trace_id, parent_span: a.span_id, flags: FLAG_SAMPLED },
                a.collector.clone(),
            )
        })
    })?;
    Some(collector.child_of(name, ctx))
}

/// An active span; finishes (records into its collector and pops the
/// thread-local stack) on drop.
pub struct SpanGuard {
    rec: Option<SpanRecord>,
    started: Instant,
}

impl SpanGuard {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.rec.as_ref().map(|r| r.span_id).unwrap_or_default()
    }

    /// This span's trace id.
    pub fn trace_id(&self) -> TraceId {
        self.rec.as_ref().map(|r| r.trace_id).unwrap_or_default()
    }

    /// The context a request caused by this span should carry.
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id(), parent_span: self.id(), flags: FLAG_SAMPLED }
    }

    /// Attaches a `key=value` annotation.
    pub fn annotate(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        if let Some(r) = self.rec.as_mut() {
            r.annotations.push((key.into(), value.to_string()));
        }
    }

    /// Finishes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut rec) = self.rec.take() else { return };
        rec.dur_us = self.started.elapsed().as_micros() as u64;
        let span_id = rec.span_id;
        let collector = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Usually the top of the stack; tolerate out-of-order drops.
            let idx = stack.iter().rposition(|a| a.span_id == span_id);
            idx.map(|i| stack.remove(i).collector)
        });
        if let Some(c) = collector {
            c.record(rec);
        }
    }
}

/// A context continued on this thread by [`TraceCollector::enter`]; leaves
/// the thread-local stack on drop.
pub struct EnteredContext {
    span_id: SpanId,
}

impl Drop for EnteredContext {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(i) = stack.iter().rposition(|a| a.span_id == self.span_id) {
                stack.remove(i);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshots, assembly, critical path.
// ---------------------------------------------------------------------------

/// A wire-encodable batch of spans from one or more collectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The spans, in collection order.
    pub spans: Vec<SpanRecord>,
}

wire_struct!(TraceSnapshot, spans);

impl TraceSnapshot {
    /// Appends another snapshot's spans (duplicate span ids are dropped,
    /// so merging overlapping scrapes is safe).
    pub fn merge(&mut self, other: TraceSnapshot) {
        let seen: HashSet<SpanId> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans.extend(other.spans.into_iter().filter(|s| !seen.contains(&s.span_id)));
    }

    /// Groups the spans into assembled traces, most recent first.
    pub fn traces(&self) -> Vec<Trace> {
        let mut by_trace: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            by_trace.entry(s.trace_id).or_default().push(s.clone());
        }
        let mut out: Vec<Trace> = by_trace
            .into_iter()
            .map(|(trace_id, mut spans)| {
                spans.sort_by_key(|s| (s.start_us, s.span_id));
                Trace { trace_id, spans }
            })
            .collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.spans.first().map(|s| s.start_us).unwrap_or(0)));
        out
    }

    /// The assembled trace with the given id, if its spans are present.
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.traces().into_iter().find(|t| t.trace_id == id)
    }

    /// One JSON object per span, newline-separated (the JSONL dump format
    /// under `results/traces/`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

/// One assembled end-to-end request: every collected span sharing a trace
/// id, sorted by start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The trace id.
    pub trace_id: TraceId,
    /// Spans sorted by `(start_us, span_id)`.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The root span: no parent within the trace, earliest start on ties.
    /// Spans whose parent was never collected (e.g. evicted from a ring)
    /// count as roots, so partial traces still assemble.
    pub fn root(&self) -> &SpanRecord {
        let ids: HashSet<SpanId> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans
            .iter()
            .find(|s| s.parent_span == SpanId(0) || !ids.contains(&s.parent_span))
            .unwrap_or(&self.spans[0])
    }

    /// End-to-end duration: the root span's duration.
    pub fn duration_us(&self) -> u64 {
        self.root().dur_us
    }

    /// The set of node identities that contributed spans.
    pub fn nodes(&self) -> BTreeSet<String> {
        self.spans.iter().map(|s| s.node.clone()).collect()
    }

    /// Direct children of `parent`, start-ordered.
    pub fn children_of(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent_span == parent).collect()
    }

    /// Attributes the root's wall time to an exact partition of segments
    /// (see [`CriticalPath`]).
    pub fn critical_path(&self) -> CriticalPath {
        let root = self.root();
        let mut segments = Vec::new();
        let mut visited = HashSet::new();
        self.attribute(root, root.start_us, root.end_us(), &mut segments, &mut visited);
        CriticalPath { trace_id: self.trace_id, total_us: root.dur_us, segments }
    }

    fn attribute(
        &self,
        span: &SpanRecord,
        lo: u64,
        hi: u64,
        segments: &mut Vec<Segment>,
        visited: &mut HashSet<SpanId>,
    ) {
        if lo >= hi || !visited.insert(span.span_id) {
            return;
        }
        let mut cursor = lo;
        let mut attributed_child = false;
        for child in self.children_of(span.span_id) {
            let cs = child.start_us.clamp(cursor, hi);
            let ce = child.end_us().clamp(cursor, hi);
            if ce <= cursor {
                continue; // entirely before the cursor (overlapped siblings)
            }
            if cs > cursor {
                segments.push(Segment::self_time(span, cursor, cs - cursor));
            }
            self.attribute(child, cs, ce, segments, visited);
            cursor = ce;
            attributed_child = true;
        }
        if cursor < hi {
            if attributed_child {
                segments.push(Segment::self_time(span, cursor, hi - cursor));
            } else {
                // A leaf: the whole interval is the span's own work.
                segments.push(Segment {
                    name: span.name.clone(),
                    node: span.node.clone(),
                    start_us: cursor,
                    dur_us: hi - cursor,
                });
            }
        }
    }
}

/// One slice of a request's wall time, attributed to the innermost span
/// covering it (or a parent's `(self)` time for uncovered stretches —
/// retry backoff and scheduling gaps land there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The covering span's name (suffixed ` (self)` for uncovered time).
    pub name: String,
    /// Node that owned the time.
    pub node: String,
    /// Wall-clock start, µs since epoch.
    pub start_us: u64,
    /// Length in µs.
    pub dur_us: u64,
}

impl Segment {
    fn self_time(span: &SpanRecord, start_us: u64, dur_us: u64) -> Segment {
        Segment { name: format!("{} (self)", span.name), node: span.node.clone(), start_us, dur_us }
    }
}

/// A request's wall time split into an exact partition of [`Segment`]s:
/// `segments.iter().map(|s| s.dur_us).sum() == total_us` by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The trace this path describes.
    pub trace_id: TraceId,
    /// The root span's duration.
    pub total_us: u64,
    /// Time-ordered segments partitioning the root interval.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Sum of all segment durations (equals [`CriticalPath::total_us`]).
    pub fn attributed_us(&self) -> u64 {
        self.segments.iter().map(|s| s.dur_us).sum()
    }

    /// A human-readable report: one line per segment with its share of
    /// the total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {}: {} µs across {} segments",
            self.trace_id,
            self.total_us,
            self.segments.len()
        );
        let base = self.segments.first().map(|s| s.start_us).unwrap_or(0);
        for s in &self.segments {
            let pct = if self.total_us > 0 {
                s.dur_us as f64 * 100.0 / self.total_us as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  +{:>8} µs  {:>8} µs  {:>5.1}%  [{}] {}",
                s.start_us - base,
                s.dur_us,
                pct,
                s.node,
                s.name
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    fn rec(
        trace: u64,
        span: u64,
        parent: u64,
        name: &str,
        node: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(trace),
            span_id: SpanId(span),
            parent_span: SpanId(parent),
            name: name.into(),
            node: node.into(),
            start_us: start,
            dur_us: dur,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn envelope_round_trips_and_old_frames_pass_through() {
        let ctx =
            TraceContext { trace_id: TraceId(7), parent_span: SpanId(9), flags: FLAG_SAMPLED };
        let payload = vec![3u8, 1, 4, 1, 5];
        let wrapped = wrap_envelope(&ctx, &payload);
        let (got_ctx, body) = unwrap_envelope(&wrapped).unwrap();
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(body, &payload[..]);

        // A bare old-format payload (first byte is a small request tag).
        let bare = vec![2u8, 0, 0];
        let (none, body) = unwrap_envelope(&bare).unwrap();
        assert_eq!(none, None);
        assert_eq!(body, &bare[..]);

        // Unknown future version: an explicit error, not silent garbage.
        let mut v2 = wrapped.clone();
        v2[1] = 2;
        assert!(unwrap_envelope(&v2).is_err());
        // Truncated envelope: error.
        assert!(unwrap_envelope(&wrapped[..10]).is_err());
    }

    #[test]
    fn spans_nest_and_record_into_their_collector() {
        let col = TraceCollector::new("t");
        {
            let mut root = col.root("client.op");
            root.annotate("bytes", 42);
            let ctx = current_context().expect("root active");
            assert_eq!(ctx.trace_id, root.trace_id());
            assert_eq!(ctx.parent_span, root.id());
            {
                let child = child("inner").expect("child under root");
                assert_eq!(child.trace_id(), root.trace_id());
                let inner_ctx = current_context().unwrap();
                assert_eq!(inner_ctx.parent_span, child.id());
            }
            assert_eq!(current_context().unwrap().parent_span, root.id());
        }
        assert_eq!(current_context(), None);
        let snap = col.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let root = snap.spans.iter().find(|s| s.parent_span == SpanId(0)).unwrap();
        let inner = snap.spans.iter().find(|s| s.parent_span != SpanId(0)).unwrap();
        assert_eq!(inner.parent_span, root.span_id);
        assert_eq!(root.annotation("bytes"), Some("42"));
        assert_eq!(root.node, "t");
    }

    #[test]
    fn child_without_active_trace_is_free() {
        assert!(child("orphan").is_none());
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn server_spans_continue_remote_context() {
        let client = TraceCollector::new("client");
        let server = TraceCollector::new("server");
        let ctx = {
            let root = client.root("client.op");
            root.context()
        };
        {
            let _s = server.child_of("server.op", ctx);
        }
        let s = &server.snapshot().spans[0];
        assert_eq!(s.trace_id, ctx.trace_id);
        assert_eq!(s.parent_span, ctx.parent_span);
        assert_eq!(s.node, "server");
    }

    #[test]
    fn a_helper_thread_entering_a_context_records_its_children_under_it() {
        let col = TraceCollector::new("t");
        let root = col.root("op");
        let ctx = root.context();
        std::thread::scope(|s| {
            s.spawn(|| {
                let entered = col.enter(ctx);
                drop(child("helper.step"));
                drop(entered);
                assert!(child("after").is_none(), "the context left the thread");
            });
        });
        drop(root);
        let spans = col.snapshot().spans;
        assert_eq!(spans.len(), 2, "entering records no span of its own");
        assert_eq!(
            (spans[0].name.as_str(), spans[0].parent_span),
            ("helper.step", ctx.parent_span)
        );
    }

    #[test]
    fn ring_evicts_oldest() {
        let col = TraceCollector::with_capacity("t", 2);
        for i in 0..4 {
            let mut s = col.root("x");
            s.annotate("i", i);
        }
        assert_eq!(col.len(), 2);
        assert_eq!(col.dropped(), 2);
        let snap = col.snapshot();
        assert_eq!(snap.spans[0].annotation("i"), Some("2"));
        assert_eq!(snap.spans[1].annotation("i"), Some("3"));
    }

    #[test]
    fn snapshot_round_trips_over_wire_and_merge_dedups() {
        let col = TraceCollector::new("a");
        {
            let mut s = col.root("op");
            s.annotate("k", "v");
        }
        let snap = col.snapshot();
        let back: TraceSnapshot = decode(&encode(&snap)).unwrap();
        assert_eq!(back, snap);

        let mut merged = snap.clone();
        merged.merge(snap.clone()); // identical spans: deduped
        assert_eq!(merged.spans.len(), 1);
    }

    #[test]
    fn critical_path_partitions_root_exactly() {
        // root [0,100): child A [10,40), child B [40,70) with grandchild
        // [45,65); gaps 0-10, 70-100 are root self time.
        let spans = vec![
            rec(1, 10, 0, "root", "client", 0, 100),
            rec(1, 11, 10, "a", "master", 10, 30),
            rec(1, 12, 10, "b", "worker-0", 40, 30),
            rec(1, 13, 12, "b.inner", "worker-0", 45, 20),
        ];
        let snap = TraceSnapshot { spans };
        let traces = snap.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.root().span_id, SpanId(10));
        assert_eq!(t.duration_us(), 100);
        let cp = t.critical_path();
        assert_eq!(cp.attributed_us(), 100, "segments must partition the root exactly");
        let names: Vec<&str> = cp.segments.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["root (self)", "a", "b (self)", "b.inner", "b (self)", "root (self)"]
        );
        assert!(cp.render().contains("µs"));
    }

    #[test]
    fn overlapping_siblings_are_clipped_not_double_counted() {
        // Two children overlap [10,50) and [30,80) under root [0,100).
        let spans = vec![
            rec(2, 20, 0, "root", "client", 0, 100),
            rec(2, 21, 20, "x", "w0", 10, 40),
            rec(2, 22, 20, "y", "w1", 30, 50),
        ];
        let cp = TraceSnapshot { spans }.traces()[0].critical_path();
        assert_eq!(cp.attributed_us(), 100);
        // y is clipped to its non-overlapped tail [50,80).
        let y = cp.segments.iter().find(|s| s.name == "y").unwrap();
        assert_eq!((y.start_us, y.dur_us), (50, 30));
    }

    #[test]
    fn partial_trace_with_missing_parent_still_assembles() {
        // The true root was evicted; the orphan becomes the root.
        let spans = vec![rec(3, 31, 999, "worker.ReadBlock", "worker-1", 50, 10)];
        let t = &TraceSnapshot { spans }.traces()[0];
        assert_eq!(t.root().span_id, SpanId(31));
        assert_eq!(t.critical_path().attributed_us(), 10);
    }

    #[test]
    fn jsonl_escapes_and_emits_one_line_per_span() {
        let mut s = rec(4, 41, 0, "na\"me", "client", 1, 2);
        s.annotations.push(("k\\ey".into(), "line1\nline2".into()));
        let snap = TraceSnapshot { spans: vec![s] };
        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("na\\\"me"));
        assert!(jsonl.contains("k\\\\ey"));
        assert!(jsonl.contains("line1\\nline2"));
        assert!(jsonl.contains("\"node\":\"client\""));
    }
}
