//! SWIM-style failure detection.
//!
//! The repository's repair machinery was originally driven by an
//! omniscient oracle: departures were visible to every component the
//! instant they happened. [`DetectorNode`] replaces that omniscience with
//! the standard probe/ack machinery of SWIM-family detectors, run as a
//! plane of [`crate::Node`]s over the same simulator the multicast
//! protocols use:
//!
//! 1. **Direct probe.** Every `probe_period` a node picks the next peer
//!    (round-robin over its own random permutation of the membership,
//!    drawn once at start; skipping backed-off and dead peers) and sends
//!    a `Ping`; the peer answers `Ack`. The round-robin bounds how long
//!    one prober can leave a peer unprobed (one cycle, `n − 1` periods);
//!    the per-node permutation spreads each period's probes over the
//!    membership, so with `n − 1` probers a failed peer's first missed
//!    probe comes after about one period, not half a cycle.
//! 2. **Indirect probe.** If the `Ack` misses its `probe_timeout`, the
//!    prober asks `indirect_peers` random helpers to ping the target on
//!    its behalf (`PingReq`); a helper that hears back forwards an
//!    `IndirectAck`.
//! 3. **Suspicion.** If the indirect round also times out, the target
//!    becomes *suspect* and a `suspicion_timeout` starts. Any message
//!    subsequently heard from (or indirectly about) the suspect refutes
//!    the suspicion; otherwise the suspect is declared **dead**.
//!
//! Failed probe rounds back off exponentially per peer (capped), so a
//! dead or partitioned peer is not hammered every period. Verdicts are
//! recorded as [`DetectorEvent`]s with virtual timestamps; experiment
//! harnesses (see the core crate's `detect` module) consume `Dead`
//! verdicts to drive topology removal and tree repair, and measure
//! detection latency and false-positive rates off the event log.
//!
//! Dead verdicts are deliberately sticky: the overlay treats removal as
//! crash-stop (rejoin means a fresh join), so the detector has no
//! incarnation numbers — a refutation is only possible while a peer is
//! merely suspected.

use std::collections::BTreeMap;

use rand::Rng;

use crate::context::Context;
use crate::event::TimerId;
use crate::node::{Message, Node, NodeId};
use crate::time::{SimDuration, SimTime};

/// Tuning knobs of the SWIM-style detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Interval between probe rounds of one node.
    pub probe_period: SimDuration,
    /// How long to wait for a direct `Ack` (and then again for the
    /// indirect round) before escalating.
    pub probe_timeout: SimDuration,
    /// Number of helpers asked to ping indirectly on a direct miss.
    pub indirect_peers: usize,
    /// How long a peer stays suspect before it is declared dead.
    pub suspicion_timeout: SimDuration,
    /// Cap on the exponential backoff applied to repeatedly failing
    /// peers: the probe interval for a peer with `m` consecutive misses
    /// is `probe_period << min(m, max_backoff)`.
    pub max_backoff: u32,
}

impl Default for DetectorConfig {
    /// Defaults sized for the repository's coordinate-derived latencies
    /// (RTTs well under 100 ms): 500 ms probe period, 150 ms probe
    /// timeout, 3 indirect helpers, 2 s suspicion, backoff cap 4.
    fn default() -> Self {
        DetectorConfig {
            probe_period: SimDuration::from_millis(500),
            probe_timeout: SimDuration::from_millis(150),
            indirect_peers: 3,
            suspicion_timeout: SimDuration::from_secs(2),
            max_backoff: 4,
        }
    }
}

/// Probe-plane traffic.
#[derive(Debug, Clone)]
pub enum DetectorMsg {
    /// Direct liveness probe.
    Ping {
        /// Prober-local probe sequence number, echoed by the ack.
        seq: u64,
    },
    /// Answer to a [`DetectorMsg::Ping`].
    Ack {
        /// The probe sequence number being answered.
        seq: u64,
    },
    /// "Please ping `target` for me" — the indirect probe request.
    PingReq {
        /// The peer whose liveness is in question.
        target: NodeId,
        /// The requester's probe sequence number.
        seq: u64,
    },
    /// A helper's report that `target` answered its relayed ping.
    IndirectAck {
        /// The peer confirmed alive.
        target: NodeId,
        /// The requester's probe sequence number.
        seq: u64,
    },
}

impl Message for DetectorMsg {
    fn tag(&self) -> &'static str {
        match self {
            DetectorMsg::Ping { .. } => "ping",
            DetectorMsg::Ack { .. } => "ack",
            DetectorMsg::PingReq { .. } => "ping-req",
            DetectorMsg::IndirectAck { .. } => "ind-ack",
        }
    }
}

/// Liveness verdict a node currently holds about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerStatus {
    /// No outstanding evidence of failure.
    Alive,
    /// A probe round failed; the suspicion timer is running.
    Suspect,
    /// The suspicion timer expired without refutation.
    Dead,
}

/// What a [`DetectorEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorVerdict {
    /// A peer transitioned alive → suspect.
    Suspect,
    /// A suspect was heard from again before the timeout.
    Refute,
    /// A suspect's timer expired: the peer is declared dead.
    Dead,
}

/// A timestamped state-machine transition, the detector's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The peer the verdict concerns.
    pub peer: NodeId,
    /// The transition.
    pub kind: DetectorVerdict,
}

#[derive(Debug)]
struct PeerRecord {
    status: PeerStatus,
    /// Consecutive failed probe rounds (the backoff exponent).
    misses: u32,
    /// Earliest time this peer may be probed again.
    next_probe_at: SimTime,
    suspicion_timer: Option<TimerId>,
}

impl PeerRecord {
    fn new() -> Self {
        PeerRecord {
            status: PeerStatus::Alive,
            misses: 0,
            next_probe_at: SimTime::ZERO,
            suspicion_timer: None,
        }
    }
}

/// A probe round in flight, keyed by the sequence number its acks echo.
#[derive(Debug)]
struct Probe {
    seq: u64,
    target: NodeId,
}

#[derive(Debug)]
struct RelayProbe {
    requester: NodeId,
    original_seq: u64,
    target: NodeId,
    /// When the relayed ping went out.
    made: SimTime,
}

#[derive(Debug)]
enum TimerKind {
    ProbeTick,
    ProbeTimeout { seq: u64 },
    IndirectTimeout { seq: u64 },
    Suspicion { peer: NodeId },
}

/// One participant in the failure-detection plane.
///
/// Behaviour is a pure function of the seed — a detector run replays
/// bit-for-bit like every other simulation in this repository: peer
/// records sit in a vector indexed by [`NodeId::index`] (ids are dense
/// in a [`crate::Simulation`]) and are only ever walked in ascending
/// id, in-flight probes and armed timers are found by their unique
/// keys, and every random choice draws from the simulation RNG.
#[derive(Debug)]
pub struct DetectorNode {
    config: DetectorConfig,
    /// Membership view (every node in the plane; on start self is
    /// filtered out and the rest shuffled into this node's probe order).
    peers: Vec<NodeId>,
    /// Indexed by [`NodeId::index`]; `None` for this node itself and
    /// for ids outside the membership. Read on every message and up to
    /// once per member on every probe tick.
    records: Vec<Option<PeerRecord>>,
    /// Records currently [`PeerStatus::Suspect`].
    suspect_count: usize,
    cursor: usize,
    next_seq: u64,
    /// In-flight probe rounds: a handful at most (one starts per probe
    /// period and lives two probe timeouts), so an unsorted vector.
    probes: Vec<Probe>,
    /// Pings relayed on a requester's behalf, by their sequence number —
    /// which is also the order they went out in. An entry leaves when
    /// its ack comes back, or, once it is older than a probe timeout, at
    /// the next `PingReq`: the requester has given up on it by then.
    relays: BTreeMap<u64, RelayProbe>,
    /// Armed timers, likewise a handful: the tick, a timeout per
    /// in-flight probe, a suspicion timer per suspect.
    timers: Vec<(TimerId, TimerKind)>,
    events: Vec<DetectorEvent>,
}

impl DetectorNode {
    /// Creates a detector over the given membership (the node's own id
    /// may be included; it is removed when the simulation starts).
    #[must_use]
    pub fn new(members: Vec<NodeId>, config: DetectorConfig) -> Self {
        DetectorNode {
            config,
            peers: members,
            records: Vec::new(),
            suspect_count: 0,
            cursor: 0,
            next_seq: 0,
            probes: Vec::new(),
            relays: BTreeMap::new(),
            timers: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// This node's current verdict on `peer` (`Alive` if unknown).
    #[must_use]
    pub fn status_of(&self, peer: NodeId) -> PeerStatus {
        self.record(peer).map_or(PeerStatus::Alive, |r| r.status)
    }

    /// Every state transition this node has recorded, in order.
    #[must_use]
    pub fn events(&self) -> &[DetectorEvent] {
        &self.events
    }

    /// Peers currently suspected, in ascending id, without allocating.
    /// A node that suspects nobody — the usual case — answers from its
    /// suspect count and reads no record.
    pub fn suspects(&self) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert_eq!(
            self.suspect_count,
            Self::with_status(&self.records, PeerStatus::Suspect).count()
        );
        let records = if self.suspect_count == 0 {
            &[]
        } else {
            self.records.as_slice()
        };
        Self::with_status(records, PeerStatus::Suspect)
    }

    fn with_status(
        records: &[Option<PeerRecord>],
        status: PeerStatus,
    ) -> impl Iterator<Item = NodeId> + '_ {
        records
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.as_ref().is_some_and(|r| r.status == status))
            .map(|(i, _)| NodeId(i))
    }

    fn record(&self, peer: NodeId) -> Option<&PeerRecord> {
        self.records.get(peer.index())?.as_ref()
    }

    fn record_mut(&mut self, peer: NodeId) -> Option<&mut PeerRecord> {
        self.records.get_mut(peer.index())?.as_mut()
    }

    fn arm(&mut self, ctx: &mut Context<'_, DetectorMsg>, delay: SimDuration, kind: TimerKind) {
        let id = ctx.set_timer(delay);
        self.timers.push((id, kind));
    }

    /// Forgets an armed timer, returning what it was armed for.
    fn disarm(&mut self, timer: TimerId) -> Option<TimerKind> {
        let at = self.timers.iter().position(|&(id, _)| id == timer)?;
        Some(self.timers.swap_remove(at).1)
    }

    /// Ends the probe round `seq`, returning its target if it was still
    /// in flight.
    fn finish_probe(&mut self, seq: u64) -> Option<NodeId> {
        let at = self.probes.iter().position(|p| p.seq == seq)?;
        Some(self.probes.swap_remove(at).target)
    }

    /// Picks the next probe target: round-robin over this node's probe
    /// order, skipping dead and backed-off peers.
    fn next_target(&mut self, now: SimTime) -> Option<NodeId> {
        let n = self.peers.len();
        for idx in (self.cursor..n).chain(0..self.cursor) {
            let peer = self.peers[idx];
            let record = self.record(peer).expect("records cover membership");
            if record.status != PeerStatus::Dead && record.next_probe_at <= now {
                self.cursor = if idx + 1 == n { 0 } else { idx + 1 };
                return Some(peer);
            }
        }
        None
    }

    /// Evidence that `peer` is alive: reset backoff, refute suspicion.
    fn confirm(&mut self, ctx: &mut Context<'_, DetectorMsg>, peer: NodeId) {
        let Some(record) = self.record_mut(peer) else {
            return;
        };
        record.misses = 0;
        if record.status == PeerStatus::Suspect {
            record.status = PeerStatus::Alive;
            record.next_probe_at = ctx.now();
            let timer = record.suspicion_timer.take();
            self.suspect_count -= 1;
            if let Some(timer) = timer {
                ctx.cancel_timer(timer);
                self.disarm(timer);
            }
            self.events.push(DetectorEvent {
                at: ctx.now(),
                peer,
                kind: DetectorVerdict::Refute,
            });
        }
    }

    /// A full probe round (direct + indirect) produced no answer.
    fn probe_round_failed(&mut self, ctx: &mut Context<'_, DetectorMsg>, target: NodeId) {
        let now = ctx.now();
        let (suspicion_timeout, probe_period, max_backoff) = (
            self.config.suspicion_timeout,
            self.config.probe_period,
            self.config.max_backoff,
        );
        let Some(record) = self.record_mut(target) else {
            return;
        };
        if record.status == PeerStatus::Dead {
            return;
        }
        record.misses = record.misses.saturating_add(1);
        let exponent = record.misses.min(max_backoff);
        record.next_probe_at = now + SimDuration::from_nanos(probe_period.as_nanos() << exponent);
        if record.status == PeerStatus::Alive {
            let timer = ctx.set_timer(suspicion_timeout);
            record.status = PeerStatus::Suspect;
            record.suspicion_timer = Some(timer);
            self.suspect_count += 1;
            self.events.push(DetectorEvent {
                at: now,
                peer: target,
                kind: DetectorVerdict::Suspect,
            });
            self.timers
                .push((timer, TimerKind::Suspicion { peer: target }));
        }
    }

    /// Up to `indirect_peers` helpers, drawn without replacement from the
    /// peers not currently dead and distinct from the target.
    fn pick_helpers(&self, ctx: &mut Context<'_, DetectorMsg>, target: NodeId) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| p != target && self.status_of(p) != PeerStatus::Dead)
            .collect();
        let k = self.config.indirect_peers.min(candidates.len());
        // Partial Fisher–Yates off the simulation RNG: deterministic per
        // seed, no helper picked twice.
        for i in 0..k {
            let j = ctx.rng().random_range(i..candidates.len());
            candidates.swap(i, j);
        }
        candidates.truncate(k);
        candidates
    }
}

impl Node for DetectorNode {
    type Msg = DetectorMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DetectorMsg>) {
        let me = ctx.self_id();
        self.peers.retain(|&p| p != me);
        let slots = self.peers.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        self.records.resize_with(slots, || None);
        for &p in &self.peers {
            self.records[p.index()] = Some(PeerRecord::new());
        }
        if self.peers.is_empty() {
            return;
        }
        // Two things keep the plane from probing in lockstep. Each node
        // walks its own permutation of the membership (Fisher–Yates,
        // once): were the order shared, every node would probe the same
        // peer in the same period, whatever the phase below, and a peer
        // would go unprobed for a whole cycle between two volleys.
        for i in (1..self.peers.len()).rev() {
            let j = ctx.rng().random_range(0..=i);
            self.peers.swap(i, j);
        }
        // And first probes are staggered uniformly across one period.
        let jitter = SimDuration::from_nanos(
            ctx.rng()
                .random_range(0..self.config.probe_period.as_nanos()),
        );
        self.arm(ctx, jitter, TimerKind::ProbeTick);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DetectorMsg>, from: NodeId, msg: DetectorMsg) {
        // Any delivered message is evidence the sender is alive.
        self.confirm(ctx, from);
        match msg {
            DetectorMsg::Ping { seq } => {
                ctx.send(from, DetectorMsg::Ack { seq });
            }
            DetectorMsg::Ack { seq } => {
                if let Some(target) = self.finish_probe(seq) {
                    debug_assert_eq!(target, from, "ack from unexpected peer");
                } else if let Some(relay) = self.relays.remove(&seq) {
                    // We pinged on someone's behalf; report back.
                    self.confirm(ctx, relay.target);
                    ctx.send(
                        relay.requester,
                        DetectorMsg::IndirectAck {
                            target: relay.target,
                            seq: relay.original_seq,
                        },
                    );
                }
            }
            DetectorMsg::PingReq { target, seq } => {
                // A relayed ping lost on the way, or its ack, leaves its
                // entry behind; drop the ones a probe timeout old, oldest
                // first, so they cannot pile up under loss.
                let now = ctx.now();
                while let Some(oldest) = self.relays.first_entry() {
                    if now.since(oldest.get().made) <= self.config.probe_timeout {
                        break;
                    }
                    oldest.remove();
                }
                let relay_seq = self.next_seq;
                self.next_seq += 1;
                self.relays.insert(
                    relay_seq,
                    RelayProbe {
                        requester: from,
                        original_seq: seq,
                        target,
                        made: now,
                    },
                );
                ctx.send(target, DetectorMsg::Ping { seq: relay_seq });
            }
            DetectorMsg::IndirectAck { target, seq } => {
                self.confirm(ctx, target);
                self.finish_probe(seq);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DetectorMsg>, timer: TimerId) {
        let Some(kind) = self.disarm(timer) else {
            return;
        };
        match kind {
            TimerKind::ProbeTick => {
                self.arm(ctx, self.config.probe_period, TimerKind::ProbeTick);
                if let Some(target) = self.next_target(ctx.now()) {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.probes.push(Probe { seq, target });
                    ctx.send(target, DetectorMsg::Ping { seq });
                    self.arm(
                        ctx,
                        self.config.probe_timeout,
                        TimerKind::ProbeTimeout { seq },
                    );
                }
            }
            TimerKind::ProbeTimeout { seq } => {
                let Some(probe) = self.probes.iter().find(|p| p.seq == seq) else {
                    return; // Acked in the meantime.
                };
                let target = probe.target;
                let helpers = self.pick_helpers(ctx, target);
                if helpers.is_empty() {
                    // Nobody to ask: the direct miss is the whole round.
                    self.finish_probe(seq);
                    self.probe_round_failed(ctx, target);
                    return;
                }
                for helper in helpers {
                    ctx.send(helper, DetectorMsg::PingReq { target, seq });
                }
                self.arm(
                    ctx,
                    self.config.probe_timeout,
                    TimerKind::IndirectTimeout { seq },
                );
            }
            TimerKind::IndirectTimeout { seq } => {
                if let Some(target) = self.finish_probe(seq) {
                    self.probe_round_failed(ctx, target);
                }
            }
            TimerKind::Suspicion { peer } => {
                let Some(record) = self.record_mut(peer) else {
                    return;
                };
                if record.status == PeerStatus::Suspect {
                    record.status = PeerStatus::Dead;
                    record.suspicion_timer = None;
                    self.suspect_count -= 1;
                    self.events.push(DetectorEvent {
                        at: ctx.now(),
                        peer,
                        kind: DetectorVerdict::Dead,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use crate::latency::ConstantLatency;
    use crate::sim::Simulation;

    fn plane(n: usize, config: DetectorConfig) -> Simulation<DetectorNode> {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let nodes = (0..n)
            .map(|_| DetectorNode::new(members.clone(), config))
            .collect();
        Simulation::builder(nodes)
            .seed(7)
            .latency(ConstantLatency(SimDuration::from_millis(5)))
            .trace_capacity(4096)
            .build()
    }

    fn fast_config() -> DetectorConfig {
        DetectorConfig {
            probe_period: SimDuration::from_millis(100),
            probe_timeout: SimDuration::from_millis(30),
            indirect_peers: 2,
            suspicion_timeout: SimDuration::from_millis(300),
            max_backoff: 3,
        }
    }

    #[test]
    fn healthy_plane_raises_no_verdicts() {
        let mut sim = plane(6, fast_config());
        sim.run_for(SimDuration::from_secs(10));
        for node in sim.nodes() {
            assert!(node.events().is_empty(), "events: {:?}", node.events());
        }
        assert!(sim.counters().sent_with_tag("ping") > 0);
        assert_eq!(sim.counters().sent_with_tag("ping-req"), 0);
    }

    #[test]
    fn one_period_of_probes_spreads_over_the_membership() {
        // 12 nodes send 12 pings per period. Walking one shared list
        // they would all name the same peer (its neighbour too where a
        // node skips itself, a third where a period boundary cuts the
        // volley): at most 3 distinct targets. With a permutation per
        // node a period is 12 near-uniform picks: a given peer is
        // missed with probability (10/11)^11, so about 7.8 are named.
        let config = fast_config();
        let mut sim = plane(12, config);
        let period = config.probe_period.as_nanos();
        // One full cycle of n - 1 periods after the staggered start; a
        // ping sent in period k is delivered one latency (5 ms) later.
        let start = period + SimDuration::from_millis(5).as_nanos();
        sim.run_until(SimTime::from_nanos(start + 11 * period));
        let mut named = vec![std::collections::BTreeSet::new(); 11];
        for entry in sim.trace().entries().filter(|e| e.tag == "ping") {
            if let Some(since) = entry.time.as_nanos().checked_sub(start) {
                named[((since / period) as usize).min(10)].insert(entry.to);
            }
        }
        let distinct: Vec<usize> = named.iter().map(std::collections::BTreeSet::len).collect();
        // Seeds differ (5 to 11 in a period); none comes near 3.
        assert!(distinct.iter().all(|&d| d >= 4), "per period: {distinct:?}");
        assert!(distinct.iter().any(|&d| d >= 8), "per period: {distinct:?}");
        assert!(distinct.iter().sum::<usize>() >= 6 * 11, "{distinct:?}");
    }

    #[test]
    fn crashed_peer_is_suspected_then_declared_dead_everywhere() {
        let mut sim = plane(6, fast_config());
        sim.run_for(SimDuration::from_secs(1));
        sim.crash(NodeId(2));
        let crash_time = sim.now();
        sim.run_for(SimDuration::from_secs(10));
        for (i, node) in sim.nodes().iter().enumerate() {
            if i == 2 {
                continue;
            }
            assert_eq!(
                node.status_of(NodeId(2)),
                PeerStatus::Dead,
                "node {i} verdict"
            );
            let dead = node
                .events()
                .iter()
                .find(|e| e.kind == DetectorVerdict::Dead)
                .expect("dead event");
            assert_eq!(dead.peer, NodeId(2));
            assert!(dead.at > crash_time);
            // No false verdicts about anyone else.
            assert!(node.events().iter().all(|e| e.peer == NodeId(2)));
        }
        assert!(
            sim.counters().sent_with_tag("ping-req") > 0,
            "misses must trigger indirect probes"
        );
    }

    #[test]
    fn silent_drop_peer_is_detected_like_a_crash() {
        let mut sim = plane(5, fast_config());
        sim.run_for(SimDuration::from_secs(1));
        sim.fault_mut().set_silent(NodeId(1), true);
        sim.run_for(SimDuration::from_secs(10));
        for (i, node) in sim.nodes().iter().enumerate() {
            if i == 1 {
                continue;
            }
            assert_eq!(node.status_of(NodeId(1)), PeerStatus::Dead, "node {i}");
        }
        // The silent peer itself keeps running and, hearing nothing,
        // eventually declares everyone else dead — the split-brain the
        // harness resolves by trusting the connected majority.
        assert!(sim.counters().dropped_silent() > 0);
    }

    #[test]
    fn suspect_refutes_before_suspicion_timeout() {
        let mut config = fast_config();
        // Long suspicion window so the heal lands inside it.
        config.suspicion_timeout = SimDuration::from_secs(5);
        let mut sim = plane(5, config);
        sim.run_for(SimDuration::from_secs(1));
        sim.fault_mut().set_silent(NodeId(3), true);
        // Long enough for suspicion to arise, far less than 5 s.
        sim.run_for(SimDuration::from_secs(2));
        let suspects: Vec<usize> = (0..5)
            .filter(|&i| i != 3 && sim.node(NodeId(i)).status_of(NodeId(3)) == PeerStatus::Suspect)
            .collect();
        assert!(!suspects.is_empty(), "someone must have suspected node 3");
        sim.fault_mut().set_silent(NodeId(3), false);
        sim.run_for(SimDuration::from_secs(20));
        for &i in &suspects {
            let node = sim.node(NodeId(i));
            assert_eq!(node.status_of(NodeId(3)), PeerStatus::Alive, "node {i}");
            assert!(
                node.events()
                    .iter()
                    .any(|e| e.peer == NodeId(3) && e.kind == DetectorVerdict::Refute),
                "node {i} must record a refutation"
            );
            assert!(
                node.events()
                    .iter()
                    .all(|e| !(e.peer == NodeId(3) && e.kind == DetectorVerdict::Dead)),
                "node {i} must never declare node 3 dead"
            );
        }
    }

    #[test]
    fn indirect_probes_all_lost_still_escalates_to_dead() {
        // Two healthy nodes plus a silent target: the helpers' relayed
        // pings are swallowed exactly like the direct one, so the
        // indirect round times out and the verdict still lands.
        let mut sim = plane(4, fast_config());
        sim.run_for(SimDuration::from_millis(500));
        sim.fault_mut().set_silent(NodeId(0), true);
        sim.run_for(SimDuration::from_secs(10));
        assert!(
            sim.counters().sent_with_tag("ping-req") > 0,
            "indirect probes must have been attempted"
        );
        // Relayed pings to the silent target never produced ind-acks
        // about it, yet every healthy node converged on Dead.
        for i in 1..4 {
            assert_eq!(
                sim.node(NodeId(i)).status_of(NodeId(0)),
                PeerStatus::Dead,
                "node {i}"
            );
        }
    }

    /// Under heavy loss many relayed pings, or their acks, never come
    /// back. Every helper keeps at most the relays of one probe timeout:
    /// a handful, however long the plane runs.
    #[test]
    fn a_helper_whose_relayed_pings_are_lost_stays_bounded() {
        let members: Vec<NodeId> = (0..8).map(NodeId).collect();
        let nodes = (0..8)
            .map(|_| DetectorNode::new(members.clone(), fast_config()))
            .collect();
        let mut sim = Simulation::builder(nodes)
            .seed(5)
            .latency(ConstantLatency(SimDuration::from_millis(5)))
            .fault(FaultModel::with_loss(0.3))
            .build();
        let mut most = 0;
        for _ in 0..600 {
            sim.run_for(SimDuration::from_millis(100));
            most = most.max(sim.nodes().iter().map(|n| n.relays.len()).max().unwrap());
        }
        let relayed = sim.counters().sent_with_tag("ping-req");
        assert!(relayed > 500, "only {relayed} relay requests in a minute");
        // At most 7 requesters ask for at most 2 relays a probe period
        // (100 ms); an entry lives a probe timeout (30 ms).
        assert!(most <= 14, "a helper held {most} relays");
    }

    #[test]
    fn lone_node_with_no_helpers_still_detects() {
        // A 2-node plane has no third party to ask: the direct miss alone
        // must carry the round.
        let mut sim = plane(2, fast_config());
        sim.run_for(SimDuration::from_millis(300));
        sim.crash(NodeId(1));
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.node(NodeId(0)).status_of(NodeId(1)), PeerStatus::Dead);
        assert_eq!(sim.counters().sent_with_tag("ping-req"), 0);
    }

    #[test]
    fn partitioned_region_suspects_exactly_the_far_side() {
        let config = fast_config();
        let n = 8;
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let nodes: Vec<DetectorNode> = (0..n)
            .map(|_| DetectorNode::new(members.clone(), config))
            .collect();
        // Nodes 0..4 in region 0, nodes 4..8 in region 1.
        let regions: Vec<u32> = (0..n).map(|i| u32::from(i >= 4)).collect();
        let mut sim = Simulation::builder(nodes)
            .seed(3)
            .latency(ConstantLatency(SimDuration::from_millis(5)))
            .fault(FaultModel::default().with_regions(regions))
            .build();
        sim.run_for(SimDuration::from_secs(1));
        sim.fault_mut().partition_regions(0, 1);
        sim.run_for(SimDuration::from_secs(30));
        for i in 0..n {
            let node = sim.node(NodeId(i));
            let my_region = usize::from(i >= 4);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let peer_region = usize::from(j >= 4);
                let status = node.status_of(NodeId(j));
                if my_region == peer_region {
                    assert_eq!(status, PeerStatus::Alive, "node {i} about neighbour {j}");
                } else {
                    assert_eq!(status, PeerStatus::Dead, "node {i} about far side {j}");
                }
            }
        }
        assert!(sim.counters().dropped_partitioned() > 0);
    }

    #[test]
    fn detector_plane_replays_per_seed() {
        let run = |seed: u64| {
            let members: Vec<NodeId> = (0..6).map(NodeId).collect();
            let nodes = (0..6)
                .map(|_| DetectorNode::new(members.clone(), fast_config()))
                .collect();
            let mut sim = Simulation::builder(nodes)
                .seed(seed)
                .fault(FaultModel::with_loss(0.2))
                .build();
            sim.run_for(SimDuration::from_secs(1));
            sim.crash(NodeId(4));
            sim.run_for(SimDuration::from_secs(15));
            let events: Vec<Vec<DetectorEvent>> =
                sim.nodes().iter().map(|n| n.events().to_vec()).collect();
            (sim.counters().sent(), events)
        };
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn backoff_slows_probing_of_a_dead_peer() {
        let mut sim = plane(3, fast_config());
        sim.run_for(SimDuration::from_millis(200));
        sim.crash(NodeId(2));
        sim.run_for(SimDuration::from_secs(5));
        let after_verdict = sim.counters().sent_with_tag("ping");
        sim.run_for(SimDuration::from_secs(5));
        let later = sim.counters().sent_with_tag("ping");
        // Healthy mutual probing continues; the dead peer is no longer a
        // target, so volume stays roughly linear (no runaway retries).
        let per_second = (later - after_verdict) as f64 / 5.0;
        // 2 healthy nodes, 10 probes/s each max.
        assert!(per_second <= 25.0, "probe volume {per_second}/s");
    }
}
