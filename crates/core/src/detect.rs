//! Detection-triggered repair: the failure-detection plane drives the
//! topology.
//!
//! Everywhere else in this repository, departures are *oracle* events:
//! the driver calls [`geocast_overlay::TopologyStore::remove`] the
//! instant a peer dies, and the [`GroupEngine`] repairs from the delta
//! stream. Real systems have no such oracle — a crash is only ever
//! *inferred*, after probes go unanswered. This module closes that gap:
//!
//! 1. A SWIM-style probe plane ([`geocast_sim::DetectorNode`]) runs over
//!    the simulator under the full fault matrix (loss, bursts, silent
//!    drops, partitions) with coordinate-derived latencies, so detection
//!    time is *wall-clock* virtual time.
//! 2. **Dead verdicts — and only dead verdicts — mutate the topology.**
//!    The first live observer to declare a peer dead triggers
//!    [`geocast_overlay::TopologyStore::remove_if_present`] (verdict
//!    dissemination is modelled as instantaneous); the engine absorbs
//!    the delta and re-grafts exactly the affected groups. The oracle
//!    survives only as the *referee*: [`DetectionReport::converged`]
//!    checks the detector-driven store and every group tree against a
//!    from-scratch oracle rebuild, byte for byte.
//! 3. **Suspicion degrades gracefully.** While a group's root or relay
//!    is merely suspected, the group publishes via the eager/lazy
//!    epidemic ([`GroupEngine::publish_with_failures`] over
//!    [`crate::dataplane::eager_lazy_deliver`]) instead of trusting the
//!    compromised tree — the tree still eager-pushes where it can, and
//!    IHAVE/IWANT pulls over the member region recover the rest, so
//!    availability costs a bounded number of pull round-trips until the
//!    suspicion refutes or the verdict lands.
//!
//! [`run_detection`] scripts one experiment — seed groups, run the
//! plane, fire a crash/silent-drop wave, sample payload coverage on a
//! fixed cadence — and reports detection latency per failure, false
//! positives, and the coverage-over-wall-clock timeline the figures and
//! the CI `detect --strict` gate consume.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_geom::gen::uniform_points;
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{oracle, PeerId, PeerInfo, TopologyStore};
use geocast_sim::workload::crash_wave_victims;
use geocast_sim::{
    CoordDistanceLatency, DetectorConfig, DetectorNode, DetectorVerdict, FaultModel,
    GilbertElliott, NodeId, SimDuration, SimTime, Simulation,
};

use crate::groups::{GroupEngine, GroupId};
use crate::partition::OrthantRectPartitioner;

/// Fixed per-message base delay of the coordinate-derived network, in
/// nanoseconds (2 ms).
const LATENCY_BASE_NS: u64 = 2_000_000;
/// Per-unit-of-L2-distance delay in nanoseconds: 15 µs/unit puts
/// one-way delays at 2–23 ms over a 1000×1000 space — RTTs well under
/// the default probe timeout, so a healthy plane at zero loss never
/// escalates.
const LATENCY_PER_UNIT_NS: u64 = 15_000;

/// One detection experiment: population, groups, detector tuning, fault
/// matrix, and the crash wave to fire mid-run.
#[derive(Debug, Clone)]
pub struct DetectionScenario {
    /// Overlay population.
    pub peers: usize,
    /// Coordinate dimensionality.
    pub dim: usize,
    /// Coordinate range (each axis spans `[0, vmax)`).
    pub vmax: f64,
    /// Number of concurrent multicast groups (clustered membership).
    pub groups: usize,
    /// Members per group.
    pub group_size: usize,
    /// Master seed: points, group seeding, the simulator RNG, and the
    /// wave victims all derive from it.
    pub seed: u64,
    /// SWIM detector tuning.
    pub detector: DetectorConfig,
    /// Uniform message-loss probability of the fault matrix.
    pub loss: f64,
    /// Optional Gilbert–Elliott bursty-loss channel on top of `loss`.
    pub burst: Option<GilbertElliott>,
    /// Virtual time at which the failure wave fires (applied at the
    /// first sample boundary at or after this instant).
    pub crash_at: SimDuration,
    /// Peers crash-stopped by the wave.
    pub crash_count: usize,
    /// Peers turned into silent drops by the wave (process up, all
    /// traffic discarded — the adversarial case for a detector).
    pub silent_count: usize,
    /// Total virtual run time.
    pub run_for: SimDuration,
    /// Coverage-sampling cadence (also the granularity at which dead
    /// verdicts are applied to the store).
    pub sample_every: SimDuration,
}

impl Default for DetectionScenario {
    /// Paper-scale default: 60 peers, 4 clustered groups of 12, default
    /// SWIM tuning, a 6-failure wave at t = 2 s, 60 s horizon.
    fn default() -> Self {
        DetectionScenario {
            peers: 60,
            dim: 2,
            vmax: 1000.0,
            groups: 4,
            group_size: 12,
            seed: 42,
            detector: DetectorConfig::default(),
            loss: 0.0,
            burst: None,
            crash_at: SimDuration::from_secs(2),
            crash_count: 4,
            silent_count: 2,
            run_for: SimDuration::from_secs(60),
            sample_every: SimDuration::from_millis(500),
        }
    }
}

impl DetectionScenario {
    /// A CI-sized scenario: 24 peers, aggressive detector timers, a
    /// 3-failure wave, 15 s horizon — runs in well under a second.
    #[must_use]
    pub fn quick() -> Self {
        DetectionScenario {
            peers: 24,
            groups: 2,
            group_size: 8,
            detector: DetectorConfig {
                probe_period: SimDuration::from_millis(100),
                probe_timeout: SimDuration::from_millis(50),
                indirect_peers: 2,
                suspicion_timeout: SimDuration::from_millis(400),
                max_backoff: 3,
            },
            crash_at: SimDuration::from_millis(500),
            crash_count: 2,
            silent_count: 1,
            run_for: SimDuration::from_secs(15),
            sample_every: SimDuration::from_millis(200),
            ..DetectionScenario::default()
        }
    }
}

/// One point of the coverage-over-wall-clock timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageSample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Σ delivered / Σ members across all groups for one payload per
    /// group, published against ground truth (failed peers neither
    /// receive nor forward).
    pub coverage: f64,
    /// Groups publishing in degraded epidemic mode at this instant.
    pub degraded_groups: usize,
    /// Ground-truth failures the detection plane has not yet evicted.
    pub pending_failures: usize,
}

/// What one [`run_detection`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Peers crash-stopped by the wave (sorted).
    pub crashed: Vec<usize>,
    /// Peers turned silent by the wave (sorted).
    pub silent: Vec<usize>,
    /// Per detected ground-truth failure: `(peer, latency)` from the
    /// wave instant to the first live observer's dead verdict.
    pub detected: Vec<(usize, SimDuration)>,
    /// Dead verdicts from live observers about peers that were in fact
    /// alive (each also evicted — detection drives repair, mistakes
    /// included).
    pub false_positives: usize,
    /// Alive→suspect transitions observed by live peers.
    pub suspect_events: u64,
    /// Suspicions refuted before the timeout.
    pub refute_events: u64,
    /// Every store eviction in verdict order.
    pub removed: Vec<usize>,
    /// The coverage-over-wall-clock curve.
    pub timeline: Vec<CoverageSample>,
    /// Coverage at the final sample.
    pub final_coverage: f64,
    /// Worst coverage over the whole run (the depth of the dip).
    pub min_coverage: f64,
    /// Wall-clock from the wave to the first sample with every failure
    /// evicted *and* full coverage — the recovery time. `None` if the
    /// run ended first.
    pub recovered_after: Option<SimDuration>,
    /// `true` iff, at the end of the run, the detector-driven store is
    /// fingerprint-identical to an oracle store replaying the same
    /// evictions, and every group build matches its from-scratch
    /// reference — the byte-identical convergence property.
    pub converged: bool,
    /// Eviction-horizon resyncs the repair consumer's delta cursor was
    /// forced into during the run (0 when every verdict was absorbed
    /// incrementally from the log).
    pub repair_resyncs: u64,
    /// Simulator events the probe plane processed (Σ
    /// [`geocast_sim::RunOutcome::events`] over the run) — the unit of
    /// work a wall-clock figure for this run divides by.
    pub sim_events: u64,
    /// Probe-plane messages submitted for sending
    /// ([`geocast_sim::Counters::sent`]), dropped ones included.
    pub messages_sent: u64,
}

impl DetectionReport {
    /// Mean detection latency in milliseconds (`NaN` when nothing was
    /// detected).
    #[must_use]
    pub fn mean_detection_ms(&self) -> f64 {
        let n = self.detected.len();
        self.detected
            .iter()
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum::<f64>()
            / n as f64
    }

    /// Worst-case detection latency in milliseconds (0 when nothing was
    /// detected).
    #[must_use]
    pub fn max_detection_ms(&self) -> f64 {
        self.detected
            .iter()
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// `true` iff every ground-truth failure received a dead verdict.
    #[must_use]
    pub fn all_failures_detected(&self) -> bool {
        let detected: BTreeSet<usize> = self.detected.iter().map(|&(p, _)| p).collect();
        self.crashed
            .iter()
            .chain(&self.silent)
            .all(|p| detected.contains(p))
    }

    /// The CI gate predicate: no false positives, every injected
    /// failure detected, full final coverage, and byte-identical
    /// convergence to the oracle.
    #[must_use]
    pub fn strict_ok(&self) -> bool {
        self.false_positives == 0
            && self.all_failures_detected()
            && self.final_coverage == 1.0
            && self.converged
    }
}

/// Runs one detection experiment end to end. See the module docs for
/// the script; everything is a pure function of the scenario (seeded),
/// so reports replay bit-for-bit.
///
/// # Panics
///
/// Panics if the scenario is degenerate (fewer than 2 peers, no groups,
/// a zero sampling cadence, or a wave larger than the population).
#[must_use]
pub fn run_detection(sc: &DetectionScenario) -> DetectionReport {
    assert!(sc.peers >= 2, "detection needs at least two peers");
    assert!(sc.groups > 0 && sc.group_size > 0, "scenario needs groups");
    assert!(!sc.sample_every.is_zero(), "sampling cadence must be > 0");
    assert!(
        sc.crash_count + sc.silent_count < sc.peers,
        "the wave may not kill everyone"
    );

    // The multicast state: shared store + N clustered group trees.
    let point_set = uniform_points(sc.peers, sc.dim, sc.vmax, sc.seed);
    let peers = PeerInfo::from_point_set(&point_set);
    let positions = point_set.into_points();
    let store = TopologyStore::from_peers(peers.clone(), Arc::new(EmptyRectSelection));
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = sc.seed;
    let ids: Vec<GroupId> =
        engine.seed_groups_clustered(&vec![sc.group_size; sc.groups], &mut state);

    // The detection plane, on the same indices, under the fault matrix,
    // with latencies derived from the same virtual coordinates.
    let members: Vec<NodeId> = (0..sc.peers).map(NodeId).collect();
    let nodes: Vec<DetectorNode> = (0..sc.peers)
        .map(|_| DetectorNode::new(members.clone(), sc.detector))
        .collect();
    let mut fault = FaultModel::with_loss(sc.loss);
    if let Some(burst) = sc.burst {
        fault = fault.with_burst(burst);
    }
    let mut sim = Simulation::builder(nodes)
        .seed(sc.seed)
        .latency(CoordDistanceLatency::new(
            positions,
            SimDuration::from_nanos(LATENCY_BASE_NS),
            SimDuration::from_nanos(LATENCY_PER_UNIT_NS),
        ))
        .fault(fault)
        .build();

    let mut crashed: Vec<usize> = Vec::new();
    let mut silent: Vec<usize> = Vec::new();
    let mut ground_truth: BTreeSet<usize> = BTreeSet::new();
    let mut wave_at: Option<SimTime> = None;

    // The peers whose verdicts count: not failed by the wave, not
    // evicted. Ascending, so verdicts drain in the order they always
    // did; it only ever shrinks.
    let mut observers: Vec<usize> = (0..sc.peers).collect();
    let mut cursors = vec![0usize; sc.peers];
    let mut removed_set: BTreeSet<usize> = BTreeSet::new();
    let mut removed: Vec<usize> = Vec::new();
    let mut detected: Vec<(usize, SimDuration)> = Vec::new();
    let mut false_positives = 0usize;
    let mut suspect_events = 0u64;
    let mut refute_events = 0u64;
    let mut timeline: Vec<CoverageSample> = Vec::new();
    let mut sim_events = 0u64;

    let end = SimTime::ZERO + sc.run_for;
    loop {
        sim_events += sim.run_for(sc.sample_every).events;

        if wave_at.is_none() && sim.now() >= SimTime::ZERO + sc.crash_at {
            let victims =
                crash_wave_victims(sc.peers, sc.crash_count + sc.silent_count, &[], sc.seed);
            for (k, &v) in victims.iter().enumerate() {
                if k < sc.crash_count.min(victims.len()) {
                    sim.crash(NodeId(v));
                    crashed.push(v);
                } else {
                    sim.fault_mut().set_silent(NodeId(v), true);
                    silent.push(v);
                }
            }
            ground_truth = victims.into_iter().collect();
            observers.retain(|i| !ground_truth.contains(i));
            wave_at = Some(sim.now());
        }

        // Drain verdicts from *live* observers only — failed peers'
        // detectors keep running (a silent node eventually declares the
        // whole world dead) but the connected majority is what acts.
        let mut new_dead: Vec<(usize, SimTime)> = Vec::new();
        for &i in &observers {
            let events = sim.node(NodeId(i)).events();
            for event in &events[cursors[i]..] {
                match event.kind {
                    DetectorVerdict::Suspect => suspect_events += 1,
                    DetectorVerdict::Refute => refute_events += 1,
                    DetectorVerdict::Dead => new_dead.push((event.peer.index(), event.at)),
                }
            }
            cursors[i] = events.len();
        }
        for (victim, at) in new_dead {
            if !removed_set.insert(victim) {
                continue; // Another observer got there first.
            }
            removed.push(victim);
            if ground_truth.contains(&victim) {
                let since = at.since(wave_at.unwrap_or(SimTime::ZERO));
                detected.push((victim, since));
            } else {
                false_positives += 1;
            }
            observers.retain(|&i| i != victim);
            // The verdict IS the removal: detection drives repair.
            engine.store_mut().remove_if_present(PeerId(victim as u64));
        }
        engine.sync();

        // The union of live observers' suspicions feeds degraded mode.
        let mut suspects: BTreeSet<usize> = BTreeSet::new();
        for &i in &observers {
            suspects.extend(
                sim.node(NodeId(i))
                    .suspects()
                    .map(|p| p.index())
                    .filter(|p| !removed_set.contains(p)),
            );
        }
        engine.set_suspects(suspects);

        // Payload coverage against ground truth the engine has not yet
        // absorbed: undetected failures strand their members.
        let pending: BTreeSet<usize> = ground_truth.difference(&removed_set).copied().collect();
        let (mut delivered, mut total, mut degraded) = (0usize, 0usize, 0usize);
        for &g in &ids {
            total += engine.members(g).len();
            if engine.is_degraded(g) {
                degraded += 1;
            }
            if let Some(outcome) = engine.publish_with_failures(g, &pending) {
                delivered += outcome.delivered;
            }
        }
        let coverage = if total == 0 {
            1.0
        } else {
            delivered as f64 / total as f64
        };
        timeline.push(CoverageSample {
            at: sim.now(),
            coverage,
            degraded_groups: degraded,
            pending_failures: pending.len(),
        });

        if sim.now() >= end {
            break;
        }
    }

    // Referee: the store the verdicts wrote must hold the topology the
    // survivors of the evictions define from scratch, and every group
    // must match its from-scratch reference — detection-driven
    // convergence, byte for byte.
    let mut evicted = vec![false; peers.len()];
    for &victim in &removed {
        evicted[victim] = true;
    }
    let want = oracle::equilibrium_live(&peers, &evicted, &EmptyRectSelection);
    let store = engine.store();
    let mut converged = store.graph() == want && store.fingerprint() == oracle::fingerprint(&want);
    for &g in &ids {
        converged &= engine.matches_reference(g);
    }

    let final_coverage = timeline.last().map_or(1.0, |s| s.coverage);
    let min_coverage = timeline.iter().map(|s| s.coverage).fold(1.0, f64::min);
    let recovered_after = wave_at.and_then(|wave| {
        timeline
            .iter()
            .find(|s| s.at >= wave && s.pending_failures == 0 && s.coverage >= 1.0)
            .map(|s| s.at.since(wave))
    });

    DetectionReport {
        crashed,
        silent,
        detected,
        false_positives,
        suspect_events,
        refute_events,
        removed,
        timeline,
        final_coverage,
        min_coverage,
        recovered_after,
        converged,
        repair_resyncs: engine.repair_cursor().resyncs(),
        sim_events,
        messages_sent: sim.counters().sent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_run_is_strictly_clean() {
        let sc = DetectionScenario {
            crash_count: 0,
            silent_count: 0,
            run_for: SimDuration::from_secs(8),
            ..DetectionScenario::quick()
        };
        let report = run_detection(&sc);
        assert!(report.detected.is_empty());
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.min_coverage, 1.0);
        assert!(report.converged);
        assert!(report.strict_ok());
    }

    #[test]
    fn crash_wave_is_detected_and_coverage_recovers() {
        let report = run_detection(&DetectionScenario::quick());
        assert_eq!(report.crashed.len(), 2);
        assert_eq!(report.silent.len(), 1);
        assert!(report.all_failures_detected(), "report: {report:?}");
        assert_eq!(report.false_positives, 0, "zero loss must stay clean");
        for &(victim, latency) in &report.detected {
            assert!(
                !latency.is_zero(),
                "peer {victim} cannot be detected instantly"
            );
            assert!(
                latency < SimDuration::from_secs(10),
                "peer {victim} took {latency}"
            );
        }
        assert_eq!(report.final_coverage, 1.0, "repair must restore coverage");
        assert!(report.converged, "detector store must match the oracle");
        let recovery = report.recovered_after.expect("the run must recover");
        assert!(!recovery.is_zero());
        assert!(report.strict_ok());
    }

    #[test]
    fn coverage_dips_while_failures_are_undetected() {
        // Full membership: every peer subscribes, so any failure dents
        // coverage until the plane evicts it.
        let sc = DetectionScenario {
            groups: 1,
            group_size: 24,
            ..DetectionScenario::quick()
        };
        let report = run_detection(&sc);
        assert!(
            report.min_coverage < 1.0,
            "a wave into a full-membership group must dip: {report:?}"
        );
        assert_eq!(report.final_coverage, 1.0);
        assert!(report.converged);
        // The dip happens exactly while failures are pending.
        let dip = report
            .timeline
            .iter()
            .find(|s| s.coverage < 1.0)
            .expect("a dip sample exists");
        assert!(dip.pending_failures > 0);
    }

    #[test]
    fn reports_replay_bit_for_bit() {
        let sc = DetectionScenario {
            loss: 0.05,
            ..DetectionScenario::quick()
        };
        assert_eq!(run_detection(&sc), run_detection(&sc));
    }

    /// The replay contract of the simulator kernel, pinned: an FNV-1a
    /// digest over the `Debug` text of whole reports — every verdict,
    /// latency, timeline sample, event and message count — on fixed
    /// default-size scenarios. A kernel change that moves one RNG draw,
    /// one event's order or one counter moves the digest; only a change
    /// to the protocol itself may re-pin the constant (and must say so).
    /// Re-pinned once, from 0xd85e_f7cf_21f3_6577, when each node began
    /// to probe in its own shuffled order.
    #[test]
    fn reports_are_the_parents() {
        let base = DetectionScenario::default();
        let mut scenarios: Vec<DetectionScenario> = Vec::new();
        for (k, loss) in [0.0, 0.05, 0.10].into_iter().enumerate() {
            for seed in 0..5u64 {
                scenarios.push(DetectionScenario {
                    seed: 1_000 * (k as u64 + 1) + seed,
                    loss,
                    ..base.clone()
                });
            }
        }
        scenarios.push(DetectionScenario {
            seed: 4_000,
            loss: 0.02,
            burst: Some(GilbertElliott::new(0.02, 0.3, 0.0, 0.6)),
            ..base.clone()
        });
        scenarios.push(DetectionScenario {
            seed: 5_000,
            loss: 0.05,
            ..DetectionScenario::quick()
        });
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for sc in &scenarios {
            for byte in format!("{:?}", run_detection(sc)).bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            digest, 0x9d37_1176_8906_062a,
            "a DetectionReport differs from the pinned one: {digest:#018x}"
        );
    }

    #[test]
    fn lossy_runs_still_converge_to_the_oracle() {
        // Under loss the detector may err (false positives are allowed);
        // convergence must hold regardless, because every eviction —
        // right or wrong — is replayed into the referee store.
        let sc = DetectionScenario {
            loss: 0.10,
            run_for: SimDuration::from_secs(20),
            ..DetectionScenario::quick()
        };
        let report = run_detection(&sc);
        assert!(report.converged, "convergence is unconditional");
        assert!(report.all_failures_detected(), "loss only delays verdicts");
    }

    #[test]
    fn tighter_suspicion_detects_faster() {
        let base = DetectionScenario::quick();
        let slow = DetectionScenario {
            detector: DetectorConfig {
                suspicion_timeout: SimDuration::from_secs(3),
                ..base.detector
            },
            run_for: SimDuration::from_secs(30),
            ..base.clone()
        };
        let fast_report = run_detection(&base);
        let slow_report = run_detection(&slow);
        assert!(fast_report.all_failures_detected());
        assert!(slow_report.all_failures_detected());
        assert!(
            fast_report.mean_detection_ms() < slow_report.mean_detection_ms(),
            "suspicion timeout must dominate detection latency: {} vs {}",
            fast_report.mean_detection_ms(),
            slow_report.mean_detection_ms()
        );
    }
}
