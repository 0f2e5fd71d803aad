//! The `crash_wave` workload: `core::detect::run_detection` over a list of
//! scenarios derived from the seed. It is the one workload where the
//! detector's verdicts, not the harness, write the store, and where the
//! degraded (eager/lazy epidemic) data plane runs.
//!
//! One operation is one whole wave: 60 peers, 4 clustered groups, 4 crashes
//! and 2 silent drops at t = 2 s, 5 % message loss, a 60 s virtual horizon.
//! `run_detection` is opaque, so the wall-clock metrics are per wave; what
//! happens inside is reported in virtual time by the `core.detect.*` layer
//! metrics.

use std::sync::Arc;

use geocast::core::detect::{run_detection, DetectionReport, DetectionScenario};
use geocast::core::groups::GroupEngine;
use geocast::core::OrthantRectPartitioner;
use geocast::geom::gen::uniform_points;
use geocast::overlay::select::EmptyRectSelection;
use geocast::overlay::{PeerInfo, ShardConfig, TopologyStore};

use crate::clock::{Clock, Limits, Sample, Timing};
use crate::inputs::splitmix;
use crate::trace::Tracer;
use crate::yardstick::Yardstick;

/// Scenarios per seed; a run cycles through them until the clock stops.
pub const SCENARIOS: usize = 256;

/// The scenario list of one `--seed`.
#[must_use]
pub fn scenarios(seed: u64) -> Vec<DetectionScenario> {
    let mut state = seed;
    (0..SCENARIOS)
        .map(|_| DetectionScenario {
            seed: splitmix(&mut state),
            loss: 0.05,
            groups: 4,
            ..DetectionScenario::default()
        })
        .collect()
}

/// Builds the multicast state of every scenario — the set-up work
/// `run_detection` does internally before its virtual clock starts (store
/// over the scenario's points, group engine, clustered groups). This is
/// what `setup_s` times for `crash_wave`.
#[must_use]
pub fn build_scenario_engines(scenarios: &[DetectionScenario]) -> Vec<GroupEngine> {
    scenarios
        .iter()
        .map(|sc| {
            let peers =
                PeerInfo::from_point_set(&uniform_points(sc.peers, sc.dim, sc.vmax, sc.seed));
            let store = TopologyStore::from_peers_sharded(
                peers,
                Arc::new(EmptyRectSelection),
                &ShardConfig::new(1),
            );
            let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
            let mut state = sc.seed;
            engine.seed_groups_clustered(&vec![sc.group_size; sc.groups], &mut state);
            engine
        })
        .collect()
}

/// What one measured phase of waves did.
#[derive(Debug, Clone, Default)]
pub struct WavePhase {
    /// Waves completed.
    pub waves: u64,
    /// Wall time of each wave.
    pub wave_times: Vec<Sample>,
    /// Failures injected (crashes + silent drops).
    pub injected: u64,
    /// Injected failures that never received a dead verdict.
    pub missed: u64,
    /// Live peers convicted (a cost of 5 % loss, not a harness failure).
    pub false_convictions: u64,
    /// Waves whose store or groups differ from the oracle replay.
    pub not_converged: u64,
    /// Dead verdicts applied to the store — the wave's membership events.
    pub removals: u64,
    /// Payloads published by the coverage sampler (one per group per
    /// sample).
    pub payloads: u64,
    /// Σ sample coverage.
    pub coverage_sum: f64,
    /// Coverage samples taken.
    pub samples: u64,
    /// Virtual detection latency of each detected failure, ms.
    pub detect_virtual_ms: Vec<f64>,
    /// Virtual time to full recovery of each wave that recovered, ms.
    pub recovery_virtual_ms: Vec<f64>,
    /// Σ suspicion events.
    pub suspicions: u64,
    /// Σ refutations.
    pub refutes: u64,
    /// Σ repair-cursor resyncs.
    pub repair_resyncs: u64,
    /// Σ virtual seconds simulated.
    pub virtual_s: f64,
    /// Wall time and rate windows.
    pub timing: Timing,
}

impl WavePhase {
    fn absorb(&mut self, sc: &DetectionScenario, report: &DetectionReport, time: Sample) {
        let injected = (report.crashed.len() + report.silent.len()) as u64;
        self.waves += 1;
        self.wave_times.push(time);
        self.injected += injected;
        self.missed += injected - report.detected.len() as u64;
        self.false_convictions += report.false_positives as u64;
        self.not_converged += u64::from(!report.converged);
        self.removals += report.removed.len() as u64;
        self.payloads += (report.timeline.len() * sc.groups) as u64;
        self.coverage_sum += report.timeline.iter().map(|s| s.coverage).sum::<f64>();
        self.samples += report.timeline.len() as u64;
        self.detect_virtual_ms
            .extend(report.detected.iter().map(|(_, d)| d.as_secs_f64() * 1e3));
        self.recovery_virtual_ms
            .extend(report.recovered_after.map(|d| d.as_secs_f64() * 1e3));
        self.suspicions += report.suspect_events;
        self.refutes += report.refute_events;
        self.repair_resyncs += report.repair_resyncs;
        self.virtual_s += sc.run_for.as_secs_f64();
    }

    /// Verdict-driven removals absorbed per nominal second (median window).
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        self.timing.nominal_rate(|w| w.events, self.removals)
    }

    /// Sampler payloads published per nominal second (median window).
    #[must_use]
    pub fn payloads_per_s(&self) -> f64 {
        self.timing.nominal_rate(|w| w.payloads, self.payloads)
    }

    /// Mean sampled payload coverage: 1.0 before the wave and after
    /// recovery, lower while failures are undetected.
    #[must_use]
    pub fn delivered_ratio(&self) -> f64 {
        crate::stats::ratio(self.coverage_sum, self.samples as f64)
    }
}

/// Runs waves until the limits stop the phase, continuing `phase` where it
/// stopped in the scenario cycle. With a tracer, each wave is one `op` span
/// with the `run_detection` call as its child; with a yardstick, every
/// window carries the host's slowdown.
pub fn run(
    scenarios: &[DetectionScenario],
    limits: Limits,
    mut tracer: Option<&mut Tracer>,
    yardstick: Option<&mut Yardstick>,
    phase: &mut WavePhase,
) {
    let waves_before = phase.waves;
    let mut clock = Clock::start(
        limits,
        phase.removals,
        phase.payloads,
        phase.timing.windows.len(),
        yardstick,
    );
    let resume_at = phase.waves as usize % scenarios.len();
    for (i, sc) in scenarios.iter().enumerate().cycle().skip(resume_at) {
        let done = phase.waves - waves_before;
        let Some(issued) = clock.proceed(done, phase.removals, phase.payloads) else {
            break;
        };
        let report = match tracer.as_deref_mut() {
            Some(tracer) => {
                let ev = i as u64;
                tracer.enter("op", ev);
                let report = tracer.span("core.detect.run_detection", ev, || run_detection(sc));
                tracer.exit();
                report
            }
            None => run_detection(sc),
        };
        let time = Sample {
            window: clock.window(),
            wall_ms: issued.elapsed().as_secs_f64() * 1e3,
        };
        phase.absorb(sc, &report, time);
    }
    phase.timing.absorb(clock.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_list_is_a_function_of_the_seed() {
        let a = scenarios(3);
        let b = scenarios(3);
        let c = scenarios(4);
        assert_eq!(a.len(), SCENARIOS);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed == y.seed));
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
        assert!(a
            .iter()
            .all(|sc| sc.loss == 0.05 && sc.groups == 4 && sc.peers == 60));
    }

    #[test]
    fn a_quick_wave_is_absorbed_and_repeats_exactly() {
        let quick = vec![DetectionScenario {
            seed: 11,
            ..DetectionScenario::quick()
        }];
        let limits = Limits {
            seconds: 1e6,
            max_ops: 2,
        };
        let (mut a, mut b) = (WavePhase::default(), WavePhase::default());
        run(&quick, limits, None, None, &mut a);
        let mut tracer = Tracer::default();
        run(&quick, limits, Some(&mut tracer), None, &mut b);
        assert_eq!(a.waves, 2);
        assert_eq!(a.injected, 6);
        assert_eq!(a.missed + a.not_converged, 0);
        // Virtual-time results are deterministic: traced or not, run to run.
        assert_eq!(a.detect_virtual_ms, b.detect_virtual_ms);
        assert_eq!(a.removals, b.removals);
        assert_eq!(a.coverage_sum, b.coverage_sum);
        assert_eq!(tracer.spans().len(), 4);
    }
}
