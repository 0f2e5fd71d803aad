use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::{Action, Context};
use crate::counters::{Counters, TraceEntry, TraceLog};
use crate::event::{EventKind, EventQueue, TimerId};
use crate::fault::FaultModel;
use crate::latency::{ConstantLatency, LatencyModel};
use crate::node::{Message, Node, NodeId};
use crate::time::{SimDuration, SimTime};

/// Result of driving a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Events processed by this call.
    pub events: u64,
    /// `true` if the event queue drained completely.
    pub quiescent: bool,
    /// Virtual time when the call returned.
    pub now: SimTime,
}

/// Configures and constructs a [`Simulation`].
///
/// Obtained from [`Simulation::builder`]; see the crate-level example.
pub struct SimulationBuilder<N: Node> {
    nodes: Vec<N>,
    seed: u64,
    latency: Box<dyn LatencyModel>,
    fault: FaultModel,
    trace_capacity: usize,
    max_events: u64,
}

impl<N: Node> SimulationBuilder<N> {
    /// Seeds the simulation RNG (default 0). Identical seeds replay runs
    /// exactly.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency model (default: constant 10 ms).
    #[must_use]
    pub fn latency(mut self, model: impl LatencyModel + 'static) -> Self {
        self.latency = Box::new(model);
        self
    }

    /// Sets the fault model (default: lossless).
    #[must_use]
    pub fn fault(mut self, model: FaultModel) -> Self {
        self.fault = model;
        self
    }

    /// Enables event tracing with the given ring-buffer capacity
    /// (default 0 = disabled).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Caps the number of events any single `run_*` call may process
    /// (default 100 million), a guard against runaway protocols.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Builds the simulation. Nodes' `on_start` callbacks run lazily on
    /// the first `run_*`/`step` call.
    #[must_use]
    pub fn build(self) -> Simulation<N> {
        let n = self.nodes.len();
        Simulation {
            nodes: self.nodes,
            crashed: vec![false; n],
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            next_timer_id: 0,
            cancelled: BTreeSet::new(),
            rng: StdRng::seed_from_u64(self.seed),
            latency: self.latency,
            fault: self.fault,
            counters: Counters::default(),
            trace: TraceLog::new(self.trace_capacity),
            started: false,
            max_events: self.max_events,
            actions: Vec::new(),
        }
    }
}

/// A deterministic discrete-event simulation over a set of [`Node`]s.
///
/// See the crate-level documentation for the programming model and an
/// example.
pub struct Simulation<N: Node> {
    nodes: Vec<N>,
    crashed: Vec<bool>,
    queue: EventQueue<N::Msg>,
    now: SimTime,
    next_timer_id: u64,
    cancelled: BTreeSet<TimerId>,
    rng: StdRng,
    latency: Box<dyn LatencyModel>,
    fault: FaultModel,
    counters: Counters,
    trace: TraceLog,
    started: bool,
    max_events: u64,
    /// The one buffer every callback's [`Context`] records into; empty
    /// between callbacks, its capacity kept.
    actions: Vec<Action<N::Msg>>,
}

impl<N: Node> Simulation<N> {
    /// Starts configuring a simulation over `nodes`.
    #[must_use]
    pub fn builder(nodes: Vec<N>) -> SimulationBuilder<N> {
        SimulationBuilder {
            nodes,
            seed: 0,
            latency: Box::new(ConstantLatency::default()),
            fault: FaultModel::default(),
            trace_capacity: 0,
            max_events: 100_000_000,
        }
    }

    /// Number of nodes (crashed ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the simulation has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by [`NodeId::index`].
    #[must_use]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Message/timer accounting for the run so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The event trace (empty unless enabled at build time).
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the fault model, so experiments can inject
    /// faults mid-run (mark peers silent, cut region links). Mutations
    /// are part of the experiment script and replay deterministically as
    /// long as the script itself is deterministic.
    pub fn fault_mut(&mut self) -> &mut FaultModel {
        &mut self.fault
    }

    /// Crashes a node: all its pending and future messages and timers are
    /// silently discarded.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn crash(&mut self, id: NodeId) {
        self.crashed[id.index()] = true;
    }

    /// Adds a node to a (possibly running) simulation, invoking its
    /// `on_start` immediately at the current virtual time. Returns the
    /// new node's id. Spawning into a simulation that has not run yet
    /// first starts the nodes it already has, so every node starts once.
    pub fn spawn(&mut self, node: N) -> NodeId {
        self.start();
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.crashed.push(false);
        self.run_callback(id, super::node::Node::on_start);
        id
    }

    /// Injects a message from outside the simulated network (e.g. the
    /// experiment driver handing the multicast root its initial request).
    /// The message is delivered to `to` after the usual latency, with
    /// `from == to` by convention. Injections bypass the fault model —
    /// they are experiment bootstrap, not protocol traffic.
    pub fn inject(&mut self, to: NodeId, msg: N::Msg) {
        assert!(
            to.index() < self.nodes.len(),
            "message to unknown node {to}"
        );
        self.counters.record_sent(msg.tag());
        let delay = self.latency.latency(to, to, &mut self.rng);
        self.queue
            .push(self.now + delay, EventKind::Deliver { from: to, to, msg });
    }

    /// Runs every node's `on_start` if not yet started. Called implicitly
    /// by the run methods.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.run_callback(NodeId(i), super::node::Node::on_start);
        }
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.start();
        self.step_until(SimTime::from_nanos(u64::MAX))
    }

    /// Processes the earliest event if it is due at or before `deadline`.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((time, kind)) = self.queue.pop_until(deadline) else {
            return false;
        };
        debug_assert!(time >= self.now, "time must be monotone");
        self.now = time;
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if self.crashed[to.index()] {
                    self.counters.record_dropped_crashed();
                } else {
                    let tag = msg.tag();
                    self.counters.record_delivered(tag);
                    self.trace.record(TraceEntry {
                        time: self.now,
                        from,
                        to,
                        tag,
                    });
                    self.run_callback(to, |node, ctx| node.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer { node, timer } => {
                let cancelled = !self.cancelled.is_empty() && self.cancelled.remove(&timer);
                if cancelled || self.crashed[node.index()] {
                    // Lazily-cancelled or owned by a crashed node.
                } else {
                    self.counters.record_timer();
                    self.trace.record(TraceEntry {
                        time: self.now,
                        from: node,
                        to: node,
                        tag: "timer",
                    });
                    self.run_callback(node, |n, ctx| n.on_timer(ctx, timer));
                }
            }
        }
        true
    }

    /// Runs until no events remain (or the per-call event cap is hit).
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.start();
        let mut events = 0u64;
        while events < self.max_events && self.step() {
            events += 1;
        }
        RunOutcome {
            events,
            quiescent: self.queue.is_empty(),
            now: self.now,
        }
    }

    /// Processes all events scheduled at or before `deadline`, then
    /// advances the clock to `deadline`. A call stopped by the event cap
    /// with such events still queued leaves the clock at the last event
    /// it processed.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.start();
        let mut events = 0u64;
        while events < self.max_events && self.step_until(deadline) {
            events += 1;
        }
        if self.now < deadline && !self.queue.has_until(deadline) {
            self.now = deadline;
        }
        RunOutcome {
            events,
            quiescent: self.queue.is_empty(),
            now: self.now,
        }
    }

    /// Runs for `duration` of virtual time from the current clock.
    pub fn run_for(&mut self, duration: SimDuration) -> RunOutcome {
        let deadline = self.now + duration;
        self.run_until(deadline)
    }

    /// Invokes `f` on one node with a fresh context, then applies the
    /// actions it requested, in the order it requested them.
    fn run_callback<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, N::Msg>),
    {
        // Applying an action never runs a callback, so the buffer is
        // out of `self` only while nobody else could want it.
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Context::new(
                id,
                self.now,
                &mut self.rng,
                &mut self.next_timer_id,
                &mut actions,
            );
            f(&mut self.nodes[id.index()], &mut ctx);
        }
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.enqueue_send(id, to, msg),
                Action::Arm { delay, timer } => {
                    self.queue
                        .push(self.now + delay, EventKind::Timer { node: id, timer });
                }
                Action::Cancel { timer } => {
                    self.cancelled.insert(timer);
                }
            }
        }
        self.actions = actions;
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, msg: N::Msg) {
        assert!(
            to.index() < self.nodes.len(),
            "message to unknown node {to}"
        );
        self.counters.record_sent(msg.tag());
        if let Some(cause) = self.fault.drops(from, to, &mut self.rng) {
            self.counters.record_dropped_fault(cause);
            return;
        }
        let delay = self.latency.latency(from, to, &mut self.rng);
        self.queue
            .push(self.now + delay, EventKind::Deliver { from, to, msg });
    }
}

impl<N: Node> std::fmt::Debug for Simulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("counters", &self.counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Token(u32),
        Other,
    }

    impl Message for TestMsg {
        fn tag(&self) -> &'static str {
            match self {
                TestMsg::Token(_) => "token",
                TestMsg::Other => "other",
            }
        }
    }

    /// Counts everything it receives; forwards tokens with decremented
    /// TTL to a fixed next hop.
    struct Relay {
        next: NodeId,
        received: Vec<TestMsg>,
        timer_fired: u32,
        periodic: bool,
    }

    impl Relay {
        fn new(next: NodeId) -> Self {
            Relay {
                next,
                received: Vec::new(),
                timer_fired: 0,
                periodic: false,
            }
        }
    }

    impl Node for Relay {
        type Msg = TestMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            if self.periodic {
                ctx.set_timer(SimDuration::from_millis(100));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _from: NodeId, msg: TestMsg) {
            self.received.push(msg.clone());
            if let TestMsg::Token(ttl) = msg {
                if ttl > 0 {
                    ctx.send(self.next, TestMsg::Token(ttl - 1));
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, _timer: TimerId) {
            self.timer_fired += 1;
            if self.periodic {
                ctx.set_timer(SimDuration::from_millis(100));
            }
        }
    }

    fn ring(n: usize) -> Vec<Relay> {
        (0..n).map(|i| Relay::new(NodeId((i + 1) % n))).collect()
    }

    #[test]
    fn token_ring_passes_exact_message_count() {
        let mut sim = Simulation::builder(ring(5)).build();
        sim.inject(NodeId(0), TestMsg::Token(9));
        let outcome = sim.run_until_quiescent();
        assert!(outcome.quiescent);
        // 1 injected + 9 forwards.
        assert_eq!(sim.counters().sent_with_tag("token"), 10);
        assert_eq!(sim.counters().delivered(), 10);
        // Token visited nodes 0,1,2,3,4,0,1,2,3,4.
        assert_eq!(sim.node(NodeId(0)).received.len(), 2);
        assert_eq!(sim.node(NodeId(4)).received.len(), 2);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut sim = Simulation::builder(ring(4))
                .seed(seed)
                .latency(UniformLatency::new(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(20),
                ))
                .build();
            sim.inject(NodeId(0), TestMsg::Token(20));
            sim.run_until_quiescent();
            sim.now().as_nanos()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should shuffle latencies");
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let mut sim = Simulation::builder(ring(2))
            .latency(ConstantLatency(SimDuration::from_millis(10)))
            .build();
        sim.inject(NodeId(0), TestMsg::Token(3));
        sim.run_until_quiescent();
        // 4 hops à 10 ms.
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(40));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::builder(ring(2)).build();
        sim.inject(NodeId(0), TestMsg::Token(100));
        let outcome = sim.run_until(SimTime::ZERO + SimDuration::from_millis(35));
        assert!(!outcome.quiescent);
        assert_eq!(outcome.now, SimTime::ZERO + SimDuration::from_millis(35));
        // 10ms per hop: deliveries at 10, 20, 30 => 3 events.
        assert_eq!(outcome.events, 3);
    }

    #[test]
    fn crashed_nodes_swallow_messages() {
        let mut sim = Simulation::builder(ring(3)).build();
        sim.crash(NodeId(1));
        sim.inject(NodeId(0), TestMsg::Token(5));
        sim.run_until_quiescent();
        // Token reaches node 0, forwards to crashed node 1, dies there.
        assert_eq!(sim.counters().dropped_at_crashed(), 1);
        assert_eq!(sim.node(NodeId(1)).received.len(), 0);
        assert_eq!(sim.node(NodeId(2)).received.len(), 0);
    }

    #[test]
    fn full_loss_kills_all_protocol_traffic() {
        let mut sim = Simulation::builder(ring(3))
            .fault(FaultModel::with_loss(1.0))
            .build();
        sim.inject(NodeId(0), TestMsg::Token(5));
        sim.run_until_quiescent();
        // The injection bypasses faults and is delivered; the forward it
        // triggers is protocol traffic and is dropped.
        assert_eq!(sim.counters().delivered(), 1);
        assert_eq!(sim.counters().dropped_by_faults(), 1);
        assert_eq!(sim.node(NodeId(1)).received.len(), 0);
    }

    #[test]
    fn periodic_timers_fire_until_deadline() {
        let mut nodes = ring(1);
        nodes[0].periodic = true;
        let mut sim = Simulation::builder(nodes).build();
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(550));
        assert_eq!(sim.node(NodeId(0)).timer_fired, 5);
        assert_eq!(sim.counters().timers_fired(), 5);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Canceller {
            fired: bool,
        }
        impl Node for Canceller {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                let t = ctx.set_timer(SimDuration::from_millis(10));
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: NodeId, _: TestMsg) {}
            fn on_timer(&mut self, _: &mut Context<'_, TestMsg>, _: TimerId) {
                self.fired = true;
            }
        }
        let mut sim = Simulation::builder(vec![Canceller { fired: false }]).build();
        sim.run_until_quiescent();
        assert!(!sim.node(NodeId(0)).fired);
        assert_eq!(sim.counters().timers_fired(), 0);
    }

    #[test]
    fn spawn_adds_running_node() {
        let mut sim = Simulation::builder(ring(2)).build();
        sim.run_until_quiescent();
        let id = sim.spawn(Relay::new(NodeId(0)));
        assert_eq!(id, NodeId(2));
        assert_eq!(sim.len(), 3);
        sim.inject(id, TestMsg::Other);
        sim.run_until_quiescent();
        assert_eq!(sim.node(id).received, vec![TestMsg::Other]);
    }

    #[test]
    fn max_events_caps_runaway_protocols() {
        // Node that sends itself a message forever.
        struct Loopy;
        impl Node for Loopy {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                ctx.send(NodeId(0), TestMsg::Other);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _: NodeId, _: TestMsg) {
                ctx.send(NodeId(0), TestMsg::Other);
            }
        }
        let mut sim = Simulation::builder(vec![Loopy]).max_events(1000).build();
        let outcome = sim.run_until_quiescent();
        assert!(!outcome.quiescent);
        assert_eq!(outcome.events, 1000);
    }

    #[test]
    fn every_node_starts_once() {
        struct Starter {
            starts: u32,
        }
        impl Node for Starter {
            type Msg = TestMsg;
            fn on_start(&mut self, _: &mut Context<'_, TestMsg>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: NodeId, _: TestMsg) {}
        }
        // One node from the builder, two spawned before the first run,
        // one spawned into the running simulation.
        let mut sim = Simulation::builder(vec![Starter { starts: 0 }]).build();
        sim.spawn(Starter { starts: 0 });
        sim.spawn(Starter { starts: 0 });
        sim.run_until_quiescent();
        sim.spawn(Starter { starts: 0 });
        sim.step();
        let starts: Vec<u32> = sim.nodes().iter().map(|n| n.starts).collect();
        assert_eq!(starts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn a_capped_run_until_leaves_the_clock_at_its_last_event() {
        let mut nodes = ring(1);
        nodes[0].periodic = true;
        let mut sim = Simulation::builder(nodes).max_events(3).build();
        let second = SimTime::ZERO + SimDuration::from_secs(1);
        let outcome = sim.run_until(second);
        assert_eq!(outcome.events, 3);
        // Three 100 ms ticks ran; the fourth is due before the deadline.
        assert_eq!(outcome.now, SimTime::ZERO + SimDuration::from_millis(300));
        assert!(sim.step(), "the next tick is still queued");
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(400));
        // Three ticks (500, 600, 700 ms) use the cap up, and none is due
        // by the deadline after them: the clock reaches it.
        let deadline = SimTime::ZERO + SimDuration::from_millis(750);
        let outcome = sim.run_until(deadline);
        assert_eq!(outcome.events, 3);
        assert_eq!(outcome.now, deadline);
        assert_eq!(sim.node(NodeId(0)).timer_fired, 7);
    }

    #[test]
    fn trace_records_deliveries_when_enabled() {
        let mut sim = Simulation::builder(ring(2)).trace_capacity(16).build();
        sim.inject(NodeId(0), TestMsg::Token(2));
        sim.run_until_quiescent();
        assert_eq!(sim.trace().len(), 3);
        let tags: Vec<&str> = sim.trace().entries().map(|e| e.tag).collect();
        assert_eq!(tags, vec!["token", "token", "token"]);
    }

    #[test]
    fn debug_format_mentions_node_count() {
        let sim = Simulation::builder(ring(3)).build();
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("nodes: 3"), "{dbg}");
    }
}
