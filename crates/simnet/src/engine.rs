//! The simulation engine: resources, flows, max-min fair allocation, and
//! the event loop.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Residual bytes below which a flow counts as finished (absorbs float
/// rounding from rate × time arithmetic).
const EPS_BYTES: f64 = 1e-6;

/// Identifier of a simulated resource (a device direction or NIC direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// Identifier of an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// What happened at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow transferred its last byte.
    FlowDone(FlowId),
    /// A timer scheduled with [`SimNet::schedule_at`] fired; carries the
    /// caller-supplied token.
    Timer(u64),
}

/// An event returned by [`SimNet::next_event`]. The engine's clock has been
/// advanced to `time` when the event is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event occurred.
    pub time: SimTime,
    /// What occurred.
    pub kind: EventKind,
}

#[derive(Debug)]
struct Resource {
    #[allow(dead_code)]
    name: String,
    capacity: f64,
}

#[derive(Debug)]
struct Flow {
    remaining: f64,
    path: Vec<ResourceId>,
    rate: f64,
}

/// The simulator. See the crate docs for the model.
#[derive(Debug, Default)]
pub struct SimNet {
    resources: Vec<Resource>,
    flows: BTreeMap<FlowId, Flow>,
    now: SimTime,
    next_flow: u64,
    timer_seq: u64,
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    instant_done: VecDeque<FlowId>,
}

impl SimNet {
    /// An empty simulator at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a resource with the given capacity in bytes/s.
    ///
    /// # Panics
    /// Panics if `capacity_bps` is not strictly positive and finite.
    pub fn add_resource(&mut self, name: &str, capacity_bps: f64) -> ResourceId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "resource {name:?} must have positive finite capacity, got {capacity_bps}"
        );
        let id = ResourceId(self.resources.len());
        self.resources.push(Resource { name: name.to_string(), capacity: capacity_bps });
        id
    }

    /// Starts a transfer of `bytes` through `path`. Duplicate resources in
    /// the path are deduplicated (traversing a resource twice in one flow is
    /// modelled as once; callers should use distinct ingress/egress
    /// resources instead). A zero-byte or empty-path flow completes
    /// immediately (its `FlowDone` is the next event).
    pub fn start_flow(&mut self, bytes: f64, mut path: Vec<ResourceId>) -> FlowId {
        assert!(bytes >= 0.0 && bytes.is_finite(), "flow size must be non-negative");
        for r in &path {
            assert!(r.0 < self.resources.len(), "unknown resource {r:?}");
        }
        path.sort_unstable();
        path.dedup();
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        if bytes <= EPS_BYTES || path.is_empty() {
            self.instant_done.push_back(id);
            return id;
        }
        self.advance_to(self.now); // no-op; keeps invariants obvious
        self.flows.insert(id, Flow { remaining: bytes, path, rate: 0.0 });
        self.reallocate();
        id
    }

    /// Schedules a timer event carrying `token` at absolute time `t` (which
    /// must not be in the past).
    pub fn schedule_at(&mut self, t: SimTime, token: u64) {
        assert!(t >= self.now, "cannot schedule in the past");
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((t, seq, token)));
    }

    /// Schedules a timer event `secs` from now.
    pub fn schedule_after(&mut self, secs: f64, token: u64) {
        self.schedule_at(self.now.plus_secs_f64(secs), token);
    }

    /// The current max-min fair rate of a flow in bytes/s (0 if unknown).
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        self.flows.get(&id).map_or(0.0, |f| f.rate)
    }

    /// Number of active flows traversing a resource.
    pub fn resource_flows(&self, r: ResourceId) -> usize {
        self.flows.values().filter(|f| f.path.contains(&r)).count()
    }

    /// Total rate currently allocated on a resource, bytes/s.
    pub fn resource_allocated(&self, r: ResourceId) -> f64 {
        self.flows.values().filter(|f| f.path.contains(&r)).map(|f| f.rate).sum()
    }

    /// Configured capacity of a resource, bytes/s.
    pub fn resource_capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.0].capacity
    }

    /// Number of flows currently in the system (excluding instant
    /// completions not yet delivered).
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether any event (flow completion or timer) is pending.
    pub fn has_pending(&self) -> bool {
        !self.flows.is_empty() || !self.timers.is_empty() || !self.instant_done.is_empty()
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// nothing is pending.
    pub fn next_event(&mut self) -> Option<Event> {
        if let Some(id) = self.instant_done.pop_front() {
            return Some(Event { time: self.now, kind: EventKind::FlowDone(id) });
        }

        let next_flow: Option<(SimTime, FlowId)> = self
            .flows
            .iter()
            .map(|(&id, f)| {
                let t = if f.remaining <= EPS_BYTES {
                    self.now
                } else {
                    debug_assert!(f.rate > 0.0, "active flow with zero rate");
                    self.now.plus_secs_f64(f.remaining / f.rate)
                };
                (t, id)
            })
            .min();

        let next_timer: Option<SimTime> = self.timers.peek().map(|Reverse((t, _, _))| *t);

        let flow_wins = match (next_flow, next_timer) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((tf, _)), Some(tt)) => tf <= tt,
        };
        if flow_wins {
            let (tf, id) = next_flow.expect("flow event vanished");
            self.advance_to(tf);
            let f = self.flows.remove(&id).expect("flow disappeared");
            debug_assert!(f.remaining <= 1.0, "flow finished with {} bytes left", f.remaining);
            self.reallocate();
            Some(Event { time: tf, kind: EventKind::FlowDone(id) })
        } else {
            let Reverse((t, _, token)) = self.timers.pop().expect("timer disappeared");
            self.advance_to(t);
            Some(Event { time: t, kind: EventKind::Timer(token) })
        }
    }

    /// Runs until no events remain, invoking `handler` for each. The handler
    /// may start new flows / timers via the `&mut SimNet` it receives.
    pub fn run<F: FnMut(&mut SimNet, Event)>(&mut self, mut handler: F) {
        while let Some(e) = self.next_event() {
            handler(self, e);
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        let dt = t.secs_since(self.now);
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.now = t;
    }

    /// Max-min fair allocation by progressive filling: repeatedly find the
    /// bottleneck resource (smallest fair share among resources with
    /// unfrozen flows), freeze its flows at that share, subtract their
    /// consumption everywhere, and repeat.
    fn reallocate(&mut self) {
        let nr = self.resources.len();
        let mut cap: Vec<f64> = self.resources.iter().map(|r| r.capacity).collect();
        let mut load = vec![0usize; nr];
        // Unfrozen flows, in deterministic id order.
        let mut unfrozen: Vec<FlowId> = self.flows.keys().copied().collect();
        for id in &unfrozen {
            for r in &self.flows[id].path {
                load[r.0] += 1;
            }
        }
        while !unfrozen.is_empty() {
            let mut bottleneck: Option<(f64, usize)> = None;
            for r in 0..nr {
                if load[r] > 0 {
                    let share = cap[r].max(0.0) / load[r] as f64;
                    if bottleneck.is_none_or(|(s, _)| share < s) {
                        bottleneck = Some((share, r));
                    }
                }
            }
            let (share, r) = bottleneck.expect("unfrozen flow with no loaded resource");
            let mut still = Vec::with_capacity(unfrozen.len());
            for id in unfrozen {
                let f = self.flows.get_mut(&id).expect("flow disappeared");
                if f.path.contains(&ResourceId(r)) {
                    f.rate = share;
                    for pr in &f.path {
                        cap[pr.0] -= share;
                        load[pr.0] -= 1;
                    }
                } else {
                    still.push(id);
                }
            }
            unfrozen = still;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_secs(t: SimTime, secs: f64) {
        assert!(
            (t.as_secs_f64() - secs).abs() < 1e-6,
            "expected {secs}s, got {}s",
            t.as_secs_f64()
        );
    }

    #[test]
    fn single_flow_completion_time() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let f = net.start_flow(50.0, vec![link]);
        assert_eq!(net.flow_rate(f), 100.0);
        let e = net.next_event().unwrap();
        assert_eq!(e.kind, EventKind::FlowDone(f));
        assert_secs(e.time, 0.5);
        assert!(net.next_event().is_none());
    }

    #[test]
    fn fair_sharing_two_unequal_flows() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let small = net.start_flow(100.0, vec![link]);
        let big = net.start_flow(300.0, vec![link]);
        assert_eq!(net.flow_rate(small), 50.0);
        assert_eq!(net.flow_rate(big), 50.0);
        let e1 = net.next_event().unwrap();
        assert_eq!(e1.kind, EventKind::FlowDone(small));
        assert_secs(e1.time, 2.0);
        // Survivor speeds up to full capacity: 200 bytes left / 100 B/s.
        assert_eq!(net.flow_rate(big), 100.0);
        let e2 = net.next_event().unwrap();
        assert_eq!(e2.kind, EventKind::FlowDone(big));
        assert_secs(e2.time, 4.0);
    }

    #[test]
    fn pipeline_bottlenecked_by_slowest_stage() {
        let mut net = SimNet::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 50.0);
        let c = net.add_resource("c", 200.0);
        let f = net.start_flow(100.0, vec![a, b, c]);
        assert_eq!(net.flow_rate(f), 50.0);
        assert_secs(net.next_event().unwrap().time, 2.0);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        // f1 uses only A(100); f2 uses A and B(30). f2 is bottlenecked by B
        // at 30; f1 then gets the remaining 70 on A (not 50/50).
        let mut net = SimNet::new();
        let a = net.add_resource("A", 100.0);
        let b = net.add_resource("B", 30.0);
        let f1 = net.start_flow(1000.0, vec![a]);
        let f2 = net.start_flow(1000.0, vec![a, b]);
        assert!((net.flow_rate(f2) - 30.0).abs() < 1e-9);
        assert!((net.flow_rate(f1) - 70.0).abs() < 1e-9);
        assert!((net.resource_allocated(a) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn three_flows_one_link() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 90.0);
        for _ in 0..3 {
            net.start_flow(90.0, vec![link]);
        }
        // Each runs at 30 B/s; all finish at t = 3.
        for _ in 0..3 {
            assert_secs(net.next_event().unwrap().time, 3.0);
        }
    }

    #[test]
    fn rates_rebalance_when_flow_joins() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let f1 = net.start_flow(100.0, vec![link]);
        assert_eq!(net.flow_rate(f1), 100.0);
        let f2 = net.start_flow(500.0, vec![link]);
        assert_eq!(net.flow_rate(f1), 50.0);
        assert_eq!(net.flow_rate(f2), 50.0);
    }

    #[test]
    fn joining_mid_transfer_accounts_elapsed_bytes() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let f1 = net.start_flow(100.0, vec![link]);
        // Let f1 run alone for 0.5 s via a timer, then start f2.
        net.schedule_after(0.5, 7);
        let e = net.next_event().unwrap();
        assert_eq!(e.kind, EventKind::Timer(7));
        // f1 has 50 bytes left now, shared at 50 B/s → +1 s.
        let f2 = net.start_flow(200.0, vec![link]);
        let e1 = net.next_event().unwrap();
        assert_eq!(e1.kind, EventKind::FlowDone(f1));
        assert_secs(e1.time, 1.5);
        // f2 transferred 50 bytes by then; 150 left at 100 B/s → t = 3.0.
        let e2 = net.next_event().unwrap();
        assert_eq!(e2.kind, EventKind::FlowDone(f2));
        assert_secs(e2.time, 3.0);
    }

    #[test]
    fn zero_byte_and_empty_path_flows_complete_instantly() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 10.0);
        let z = net.start_flow(0.0, vec![link]);
        let ep = net.start_flow(100.0, vec![]);
        let e1 = net.next_event().unwrap();
        let e2 = net.next_event().unwrap();
        assert_eq!(e1.kind, EventKind::FlowDone(z));
        assert_eq!(e2.kind, EventKind::FlowDone(ep));
        assert_eq!(e1.time, SimTime::ZERO);
        assert_eq!(e2.time, SimTime::ZERO);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut net = SimNet::new();
        net.schedule_after(2.0, 2);
        net.schedule_after(1.0, 1);
        net.schedule_after(2.0, 3);
        assert_eq!(net.next_event().unwrap().kind, EventKind::Timer(1));
        assert_eq!(net.next_event().unwrap().kind, EventKind::Timer(2));
        assert_eq!(net.next_event().unwrap().kind, EventKind::Timer(3));
    }

    #[test]
    fn flow_beats_timer_on_tie() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let f = net.start_flow(100.0, vec![link]); // done at t=1
        net.schedule_after(1.0, 9);
        let e = net.next_event().unwrap();
        assert_eq!(e.kind, EventKind::FlowDone(f));
        assert_eq!(net.next_event().unwrap().kind, EventKind::Timer(9));
    }

    #[test]
    fn run_drains_all_events() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        net.start_flow(100.0, vec![link]);
        net.schedule_after(5.0, 0);
        let mut count = 0;
        net.run(|_, _| count += 1);
        assert_eq!(count, 2);
        assert!(!net.has_pending());
    }

    #[test]
    fn handler_can_chain_flows() {
        // Sequential transfers: when one finishes, start the next; total
        // time is the sum.
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        net.start_flow(100.0, vec![link]);
        let mut started = 1;
        let mut last = SimTime::ZERO;
        net.run(|net, e| {
            last = e.time;
            if started < 3 {
                net.start_flow(100.0, vec![link]);
                started += 1;
            }
        });
        assert_secs(last, 3.0);
    }

    #[test]
    fn duplicate_path_entries_are_deduped() {
        let mut net = SimNet::new();
        let link = net.add_resource("link", 100.0);
        let f = net.start_flow(100.0, vec![link, link, link]);
        assert_eq!(net.flow_rate(f), 100.0);
        assert_eq!(net.resource_flows(link), 1);
    }

    #[test]
    fn resource_introspection() {
        let mut net = SimNet::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 400.0);
        net.start_flow(1e6, vec![a, b]);
        net.start_flow(1e6, vec![b]);
        assert_eq!(net.resource_flows(a), 1);
        assert_eq!(net.resource_flows(b), 2);
        assert_eq!(net.resource_capacity(b), 400.0);
        // a's flow frozen at 100; b then serves its solo flow at 300.
        assert!((net.resource_allocated(b) - 400.0).abs() < 1e-9);
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    #[should_panic(expected = "positive finite capacity")]
    fn zero_capacity_rejected() {
        SimNet::new().add_resource("bad", 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_rejected() {
        let mut net = SimNet::new();
        net.start_flow(1.0, vec![ResourceId(3)]);
    }

    #[test]
    fn many_flows_conserve_capacity_invariant() {
        // Random-ish deterministic workload; after every event, allocation
        // on every resource must not exceed capacity (within epsilon), and
        // all flows must eventually complete.
        let mut net = SimNet::new();
        let res: Vec<_> =
            (0..5).map(|i| net.add_resource(&format!("r{i}"), 50.0 + 37.0 * i as f64)).collect();
        let mut seed = 0x12345u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let bytes = (rand() % 10_000 + 1) as f64;
            let a = res[(rand() % 5) as usize];
            let b = res[(rand() % 5) as usize];
            net.start_flow(bytes, vec![a, b]);
        }
        let mut done = 0;
        while let Some(e) = net.next_event() {
            assert!(matches!(e.kind, EventKind::FlowDone(_)));
            done += 1;
            for &r in &res {
                let alloc = net.resource_allocated(r);
                assert!(alloc <= net.resource_capacity(r) + 1e-6, "over-allocated {r:?}: {alloc}");
            }
        }
        assert_eq!(done, 40);
    }
}
