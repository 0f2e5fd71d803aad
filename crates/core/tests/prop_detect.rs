//! THE detection acceptance property: across random seeds, wave
//! compositions, and loss rates, the detector-driven topology — store
//! fingerprint and every group build — converges **byte-identical** to
//! an oracle rebuild once the churn quiesces. The detector may take
//! longer under loss, and may even evict a live peer on a bad day, but
//! the convergence referee is unconditional, because detection *is* the
//! only writer: whatever the plane decided, the oracle replays.
//!
//! At zero loss the property sharpens to the strict gate: every injected
//! failure detected, zero false positives, full final coverage — and
//! every verdict inside half a probe cycle plus the timeout chain.

use proptest::prelude::*;

use geocast_core::detect::{run_detection, DetectionScenario};
use geocast_sim::{DetectorConfig, SimDuration};

fn scenario(
    seed: u64,
    peers: usize,
    crashes: usize,
    silents: usize,
    loss: f64,
) -> DetectionScenario {
    DetectionScenario {
        peers,
        groups: 2,
        group_size: peers / 3,
        seed,
        detector: DetectorConfig {
            probe_period: SimDuration::from_millis(100),
            probe_timeout: SimDuration::from_millis(50),
            indirect_peers: 2,
            suspicion_timeout: SimDuration::from_millis(400),
            max_backoff: 3,
        },
        loss,
        crash_at: SimDuration::from_millis(500),
        crash_count: crashes,
        silent_count: silents,
        run_for: SimDuration::from_secs(15),
        sample_every: SimDuration::from_millis(250),
        ..DetectionScenario::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Convergence is unconditional: any seed, any wave, with loss.
    #[test]
    fn detector_driven_topology_converges_byte_identical(
        seed in 0u64..10_000,
        peers in 12usize..28,
        crashes in 0usize..3,
        silents in 0usize..3,
        lossy in 0u8..2,
    ) {
        let loss = if lossy == 1 { 0.08 } else { 0.0 };
        let report = run_detection(&scenario(seed, peers, crashes, silents, loss));
        prop_assert!(report.converged, "store/trees diverged from oracle: {report:?}");
        prop_assert!(
            report.all_failures_detected(),
            "undetected failures: {report:?}"
        );
    }

    /// At zero loss the detector is exact: no false positives and full
    /// recovery, every time.
    #[test]
    fn zero_loss_runs_pass_the_strict_gate(
        seed in 0u64..10_000,
        crashes in 1usize..4,
        silents in 0usize..3,
    ) {
        let report = run_detection(&scenario(seed, 24, crashes, silents, 0.0));
        prop_assert!(report.strict_ok(), "strict gate failed: {report:?}");
        prop_assert_eq!(report.detected.len(), crashes + silents);
    }

    /// At zero loss every failure is convicted inside half a probe cycle
    /// plus the timeout chain. A plane walking one shared list *averages*
    /// half a cycle before a victim's first probe, `(n − 1) ×
    /// probe_period / 2`; with a permutation per node each live peer's
    /// first probe of the victim is uniform over the cycle, so all of
    /// them miss the first half with probability 2^−(live peers).
    #[test]
    fn zero_loss_detection_lands_inside_half_a_probe_cycle(
        seed in 0u64..10_000,
        peers in 16usize..28,
        crashes in 1usize..4,
        silents in 0usize..3,
    ) {
        let sc = scenario(seed, peers, crashes, silents, 0.0);
        let d = &sc.detector;
        let half_cycle = d.probe_period.as_secs_f64() * (peers - 1) as f64 / 2.0;
        let chain = 2.0 * d.probe_timeout.as_secs_f64()
            + d.suspicion_timeout.as_secs_f64()
            + sc.sample_every.as_secs_f64();
        let report = run_detection(&sc);
        prop_assert!(report.all_failures_detected(), "undetected: {report:?}");
        prop_assert!(
            report.max_detection_ms() < (half_cycle + chain) * 1e3,
            "slowest verdict {} ms, bound {} ms",
            report.max_detection_ms(),
            (half_cycle + chain) * 1e3
        );
    }
}
