//! Property-based tests for the simulation kernel: clock monotonicity,
//! deterministic replay, exact message accounting, and the event queue's
//! `(time, sequence number)` pop order against a sorted reference.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;

use geocast_sim::{
    ConstantLatency, Context, FaultModel, LatencyModel, Message, Node, NodeId, RunOutcome,
    SimDuration, SimTime, Simulation, TimerId, UniformLatency,
};

#[derive(Clone, Debug)]
struct Token(u32);

impl Message for Token {
    fn tag(&self) -> &'static str {
        "token"
    }
}

/// Forwards tokens around a ring and records observation times.
struct RingNode {
    next: NodeId,
    seen_at: Vec<SimTime>,
}

impl Node for RingNode {
    type Msg = Token;

    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: NodeId, msg: Token) {
        self.seen_at.push(ctx.now());
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Token>, _timer: TimerId) {}
}

fn ring(n: usize) -> Vec<RingNode> {
    (0..n)
        .map(|i| RingNode {
            next: NodeId((i + 1) % n),
            seen_at: Vec::new(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn token_ring_sends_exactly_ttl_plus_one_messages(
        n in 1usize..8,
        ttl in 0u32..40,
        seed in 0u64..1000,
    ) {
        let mut sim = Simulation::builder(ring(n))
            .seed(seed)
            .latency(UniformLatency::new(
                SimDuration::from_millis(1),
                SimDuration::from_millis(30),
            ))
            .build();
        sim.inject(NodeId(0), Token(ttl));
        let outcome = sim.run_until_quiescent();
        prop_assert!(outcome.quiescent);
        prop_assert_eq!(sim.counters().sent_with_tag("token"), u64::from(ttl) + 1);
        prop_assert_eq!(sim.counters().delivered(), u64::from(ttl) + 1);
    }

    #[test]
    fn observation_times_are_monotone_per_node(
        n in 2usize..6,
        ttl in 1u32..30,
        seed in 0u64..1000,
    ) {
        let mut sim = Simulation::builder(ring(n))
            .seed(seed)
            .latency(UniformLatency::new(
                SimDuration::from_millis(1),
                SimDuration::from_millis(50),
            ))
            .build();
        sim.inject(NodeId(0), Token(ttl));
        sim.run_until_quiescent();
        for i in 0..n {
            let seen = &sim.node(NodeId(i)).seen_at;
            prop_assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "node {i} observed time going backwards: {seen:?}"
            );
        }
    }

    #[test]
    fn replay_is_bit_identical_per_seed(
        n in 1usize..6,
        ttl in 0u32..25,
        seed in 0u64..1000,
    ) {
        let run = |seed: u64| {
            let mut sim = Simulation::builder(ring(n))
                .seed(seed)
                .latency(UniformLatency::new(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(100),
                ))
                .build();
            sim.inject(NodeId(0), Token(ttl));
            sim.run_until_quiescent();
            (sim.now(), sim.counters().delivered())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn run_until_never_overshoots_events(
        deadline_ms in 0u64..500,
        ttl in 0u32..50,
    ) {
        let mut sim = Simulation::builder(ring(3)).build();
        sim.inject(NodeId(0), Token(ttl));
        let deadline = SimTime::ZERO + SimDuration::from_millis(deadline_ms);
        let outcome = sim.run_until(deadline);
        prop_assert_eq!(outcome.now, deadline);
        // Deliveries happen every 10 ms (default constant latency):
        // at most deadline/10ms events can have fired.
        prop_assert!(outcome.events <= deadline_ms / 10 + 1);
    }

    #[test]
    fn loss_probability_bounds_delivered_fraction(
        seed in 0u64..200,
    ) {
        // With 100% loss nothing but the injection is delivered;
        // with 0% everything is.
        for (loss, expect_all) in [(0.0, true), (1.0, false)] {
            let mut sim = Simulation::builder(ring(4))
                .seed(seed)
                .fault(FaultModel::with_loss(loss))
                .build();
            sim.inject(NodeId(0), Token(20));
            sim.run_until_quiescent();
            let delivered = sim.counters().delivered();
            if expect_all {
                prop_assert_eq!(delivered, 21);
            } else {
                prop_assert_eq!(delivered, 1, "only the fault-exempt injection");
            }
        }
    }
}

/// One action of a scripted callback.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Send `count` messages to node `to` (mod the population), each
    /// `delay` ns in flight: a same-instant burst when `count > 1`.
    Send { to: usize, delay: u64, count: usize },
    /// Arm a timer `delay` ns ahead.
    Arm { delay: u64 },
    /// Lazily cancel the caller's `back`-th newest armed timer, fired or
    /// not.
    Cancel { back: usize },
}

/// What a callback observed: node starts, deliveries (by message id) and
/// timer firings (by timer id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fired {
    Start(usize),
    Msg(u64),
    Timer(u64),
}

#[derive(Clone, Debug)]
struct Probe(u64);

impl Message for Probe {
    fn tag(&self) -> &'static str {
        "probe"
    }
}

/// State the scripted nodes and the latency model share: the script,
/// consumed one callback at a time, the in-flight delay of each send in
/// send order, and the log of what fired.
#[derive(Default)]
struct World {
    script: Vec<Vec<Op>>,
    next: usize,
    sent: u64,
    delays: VecDeque<u64>,
    log: Vec<(u64, Fired)>,
}

/// Every node runs the next entry of the shared script on each callback.
struct Scripted {
    nodes: usize,
    armed: Vec<TimerId>,
    world: Rc<RefCell<World>>,
}

impl Scripted {
    fn react(&mut self, ctx: &mut Context<'_, Probe>, fired: Fired) {
        let mut world = self.world.borrow_mut();
        world.log.push((ctx.now().as_nanos(), fired));
        let Some(ops) = world.script.get(world.next).cloned() else {
            return;
        };
        world.next += 1;
        for op in ops {
            match op {
                Op::Send { to, delay, count } => {
                    for _ in 0..count {
                        world.delays.push_back(delay);
                        ctx.send(NodeId(to % self.nodes), Probe(world.sent));
                        world.sent += 1;
                    }
                }
                Op::Arm { delay } => self
                    .armed
                    .push(ctx.set_timer(SimDuration::from_nanos(delay))),
                Op::Cancel { back } => {
                    if let Some(i) = self.armed.len().checked_sub(1 + back) {
                        ctx.cancel_timer(self.armed[i]);
                    }
                }
            }
        }
    }
}

impl Node for Scripted {
    type Msg = Probe;

    fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
        let me = ctx.self_id().index();
        self.react(ctx, Fired::Start(me));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Probe>, _from: NodeId, msg: Probe) {
        self.react(ctx, Fired::Msg(msg.0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Probe>, timer: TimerId) {
        self.react(ctx, Fired::Timer(timer.value()));
    }
}

/// Hands each send the delay its script gave it, in send order.
struct ScriptedLatency(Rc<RefCell<World>>);

impl LatencyModel for ScriptedLatency {
    fn latency(&self, _from: NodeId, _to: NodeId, _rng: &mut StdRng) -> SimDuration {
        let delay = self.0.borrow_mut().delays.pop_front();
        SimDuration::from_nanos(delay.expect("one delay per send"))
    }
}

/// `(events, quiescent, now in ns)` of one `run_*` call.
type Outcome = (u64, bool, u64);

/// The same script run over a sorted map keyed `(time, sequence number)`
/// — the order the kernel promises — returning the log and the outcome
/// of each `run_until(deadline)` and of the final drain.
fn reference(
    nodes: usize,
    script: &[Vec<Op>],
    deadlines: &[u64],
) -> (Vec<(u64, Fired)>, Vec<Outcome>) {
    #[derive(Clone, Copy)]
    enum Ev {
        Msg { to: usize, id: u64 },
        Timer { node: usize, id: u64 },
    }
    let mut queue: BTreeMap<(u64, u64), Ev> = BTreeMap::new();
    let mut cancelled: BTreeSet<u64> = BTreeSet::new();
    let mut armed: Vec<Vec<u64>> = vec![Vec::new(); nodes];
    let (mut seq, mut next, mut sent, mut timers, mut now) = (0u64, 0usize, 0u64, 0u64, 0u64);
    let mut log = Vec::new();
    let mut react = |node: usize,
                     now: u64,
                     fired: Fired,
                     queue: &mut BTreeMap<(u64, u64), Ev>,
                     cancelled: &mut BTreeSet<u64>| {
        log.push((now, fired));
        let Some(ops) = script.get(next) else {
            return;
        };
        next += 1;
        for &op in ops {
            match op {
                Op::Send { to, delay, count } => {
                    for _ in 0..count {
                        let ev = Ev::Msg {
                            to: to % nodes,
                            id: sent,
                        };
                        sent += 1;
                        queue.insert((now + delay, seq), ev);
                        seq += 1;
                    }
                }
                Op::Arm { delay } => {
                    armed[node].push(timers);
                    queue.insert((now + delay, seq), Ev::Timer { node, id: timers });
                    timers += 1;
                    seq += 1;
                }
                Op::Cancel { back } => {
                    if let Some(i) = armed[node].len().checked_sub(1 + back) {
                        cancelled.insert(armed[node][i]);
                    }
                }
            }
        }
    };
    for node in 0..nodes {
        react(node, 0, Fired::Start(node), &mut queue, &mut cancelled);
    }
    let mut outcomes = Vec::new();
    for &deadline in deadlines.iter().chain([u64::MAX].iter()) {
        let mut events = 0u64;
        while let Some(entry) = queue.first_entry() {
            let (time, _) = *entry.key();
            if time > deadline {
                break;
            }
            let ev = entry.remove();
            now = time;
            events += 1;
            match ev {
                Ev::Msg { to, id } => react(to, now, Fired::Msg(id), &mut queue, &mut cancelled),
                Ev::Timer { node, id } => {
                    if !cancelled.remove(&id) {
                        react(node, now, Fired::Timer(id), &mut queue, &mut cancelled);
                    }
                }
            }
        }
        if deadline != u64::MAX {
            now = now.max(deadline);
        }
        outcomes.push((events, queue.is_empty(), now));
    }
    (log, outcomes)
}

/// Delays from 0 ns to past the event queue's span: zero (same-instant),
/// nanoseconds, milliseconds, tens of seconds, and powers of two with
/// their neighbours (bucket and span edges of any power-of-two wheel).
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..1_000,
        0u64..50_000_000,
        0u64..60_000_000_000,
        (10u32..40, 0u64..3).prop_map(|(p, e)| (1u64 << p) + e - 1),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, delay(), 1usize..4).prop_map(|(to, delay, count)| Op::Send {
            to,
            delay,
            count
        }),
        (0usize..8, delay(), 1usize..40).prop_map(|(to, delay, count)| Op::Send {
            to,
            delay,
            count
        }),
        delay().prop_map(|delay| Op::Arm { delay }),
        delay().prop_map(|delay| Op::Arm { delay }),
        (0usize..4).prop_map(|back| Op::Cancel { back }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_follow_the_sorted_time_and_sequence_order(
        nodes in 1usize..5,
        script in proptest::collection::vec(proptest::collection::vec(op(), 0..5), 1..80),
        deadlines in proptest::collection::vec(0u64..70_000_000_000, 0..6),
    ) {
        let mut deadlines = deadlines;
        deadlines.sort_unstable();
        let world = Rc::new(RefCell::new(World { script: script.clone(), ..World::default() }));
        let members = (0..nodes)
            .map(|_| Scripted { nodes, armed: Vec::new(), world: Rc::clone(&world) })
            .collect();
        let mut sim = Simulation::builder(members)
            .latency(ScriptedLatency(Rc::clone(&world)))
            .build();
        let mut outcomes: Vec<RunOutcome> = deadlines
            .iter()
            .map(|&d| sim.run_until(SimTime::from_nanos(d)))
            .collect();
        outcomes.push(sim.run_until_quiescent());
        let got: Vec<Outcome> = outcomes
            .iter()
            .map(|o| (o.events, o.quiescent, o.now.as_nanos()))
            .collect();
        let (want_log, want) = reference(nodes, &script, &deadlines);
        prop_assert_eq!(&world.borrow().log, &want_log);
        prop_assert_eq!(got, want);
        let timers = want_log.iter().filter(|(_, f)| matches!(f, Fired::Timer(_))).count();
        prop_assert_eq!(sim.counters().timers_fired(), timers as u64);
        prop_assert_eq!(sim.counters().delivered(), world.borrow().sent);
    }
}

/// 100 000 timers due at one instant pop in the order they were armed,
/// and 1 000 more armed at that instant while they pop go after them —
/// without a pop costing more than a bounded share of the burst.
#[test]
fn a_same_instant_burst_pops_in_sequence_order() {
    const BURST: u64 = 100_000;
    struct Burst {
        fired: Vec<u64>,
    }
    impl Node for Burst {
        type Msg = Probe;
        fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
            for _ in 0..BURST {
                ctx.set_timer(SimDuration::from_millis(7));
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Probe>, _: NodeId, _: Probe) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Probe>, timer: TimerId) {
            assert_eq!(ctx.now(), SimTime::ZERO + SimDuration::from_millis(7));
            self.fired.push(timer.value());
            if timer.value() < 1_000 {
                ctx.set_timer(SimDuration::ZERO);
            }
        }
    }
    let mut sim = Simulation::builder(vec![Burst { fired: Vec::new() }])
        .latency(ConstantLatency(SimDuration::ZERO))
        .build();
    let outcome = sim.run_until_quiescent();
    assert_eq!(outcome.events, BURST + 1_000);
    let fired = &sim.node(NodeId(0)).fired;
    assert!(
        fired.iter().copied().eq(0..BURST + 1_000),
        "simultaneous events must pop in sequence order"
    );
}
