//! Detection panels: wall-clock detection latency, false positives, and
//! payload-coverage recovery during a churn storm.
//!
//! Two views of the failure-detection plane
//! ([`geocast_core::detect::run_detection`]):
//!
//! * a **suspicion-timeout sweep** — the knob every SWIM deployment
//!   tunes: shorter suspicion detects faster but (under loss) convicts
//!   innocents; the table reports mean/max detection latency, false
//!   positives, refuted suspicions, and recovery wall-clock per setting;
//! * the **coverage-over-wall-clock curve** of the base scenario — the
//!   dip when the wave hits, the degraded-epidemic floor while suspicions
//!   are pending, and the climb back to 1.0 as verdicts land and trees
//!   re-graft (x-axis: virtual milliseconds).

use geocast_core::detect::{run_detection, DetectionReport, DetectionScenario};
use geocast_metrics::{AsciiChart, Table};
use geocast_sim::runner::{map_indexed, Grain};
use geocast_sim::SimDuration;

use crate::figures::FigureReport;

/// Configuration of the detection panel.
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// The base scenario (population, groups, fault matrix, wave); the
    /// sweep varies only its suspicion timeout.
    pub scenario: DetectionScenario,
    /// Suspicion timeouts to sweep, in milliseconds.
    pub suspicion_timeouts_ms: Vec<u64>,
}

impl Default for DetectionConfig {
    /// Paper-scale base scenario with a 0.5–4 s suspicion sweep under
    /// 5% uniform loss (loss is what makes the trade-off visible).
    fn default() -> Self {
        DetectionConfig {
            scenario: DetectionScenario {
                loss: 0.05,
                ..DetectionScenario::default()
            },
            suspicion_timeouts_ms: vec![500, 1000, 2000, 4000],
        }
    }
}

impl DetectionConfig {
    /// CI scale: the quick scenario and a three-point sweep.
    #[must_use]
    pub fn quick() -> Self {
        DetectionConfig {
            scenario: DetectionScenario::quick(),
            suspicion_timeouts_ms: vec![200, 400, 800],
        }
    }
}

fn fmt_opt_ms(value: Option<SimDuration>) -> String {
    value.map_or("-".to_owned(), |d| format!("{:.0}", d.as_secs_f64() * 1e3))
}

/// The detection panel: suspicion sweep table + coverage-recovery chart.
#[must_use]
pub fn detection_panel(cfg: &DetectionConfig) -> FigureReport {
    let reports: Vec<DetectionReport> =
        map_indexed(Grain::JOBS, cfg.suspicion_timeouts_ms.len(), |j| {
            let timeout_ms = cfg.suspicion_timeouts_ms[j];
            let mut scenario = cfg.scenario.clone();
            scenario.detector.suspicion_timeout = SimDuration::from_millis(timeout_ms);
            run_detection(&scenario)
        });

    let mut table = Table::new(vec![
        "suspicion timeout (ms)".into(),
        "mean detect (ms)".into(),
        "max detect (ms)".into(),
        "detected".into(),
        "false positives".into(),
        "refutes".into(),
        "min coverage".into(),
        "recovery (ms)".into(),
    ]);
    for (&timeout_ms, report) in cfg.suspicion_timeouts_ms.iter().zip(&reports) {
        table.push_row(vec![
            timeout_ms.to_string(),
            format!("{:.0}", report.mean_detection_ms()),
            format!("{:.0}", report.max_detection_ms()),
            format!(
                "{}/{}",
                report.detected.len(),
                report.crashed.len() + report.silent.len()
            ),
            report.false_positives.to_string(),
            report.refute_events.to_string(),
            format!("{:.3}", report.min_coverage),
            fmt_opt_ms(report.recovered_after),
        ]);
    }

    // The recovery curve of the base scenario (the sweep entry closest
    // to the scenario's own suspicion timeout, or the first).
    let base_ms = cfg.scenario.detector.suspicion_timeout.as_nanos() / 1_000_000;
    let curve_idx = cfg
        .suspicion_timeouts_ms
        .iter()
        .enumerate()
        .min_by_key(|(_, &t)| t.abs_diff(base_ms))
        .map_or(0, |(i, _)| i);
    let curve = &reports[curve_idx];
    let coverage_series: Vec<(f64, f64)> = curve
        .timeline
        .iter()
        .map(|s| (s.at.as_secs_f64() * 1e3, s.coverage))
        .collect();
    let degraded_series: Vec<(f64, f64)> = curve
        .timeline
        .iter()
        .map(|s| {
            (
                s.at.as_secs_f64() * 1e3,
                s.degraded_groups as f64 / cfg.scenario.groups as f64,
            )
        })
        .collect();
    let mut chart = AsciiChart::new(56, 14);
    chart.add_series("coverage", coverage_series);
    chart.add_series("degraded groups (frac)", degraded_series);

    let sc = &cfg.scenario;
    FigureReport::new(
        "detection",
        format!(
            "detection latency & coverage recovery (N={}, {} groups, loss={})",
            sc.peers, sc.groups, sc.loss
        ),
        table,
    )
    .with_chart(chart.render())
    .with_note(format!(
        "wave at {:.0} ms: {} crash-stop + {} silent-drop peers; x-axis: virtual ms",
        sc.crash_at.as_secs_f64() * 1e3,
        sc.crash_count,
        sc.silent_count
    ))
    .with_note(format!(
        "chart shows the {} ms suspicion run; every run converged byte-identically \
         to the oracle: {}",
        cfg.suspicion_timeouts_ms[curve_idx],
        reports.iter().all(|r| r.converged)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_panel_quick_reports_the_sweep() {
        let cfg = DetectionConfig::quick();
        let report = detection_panel(&cfg);
        assert_eq!(report.table.len(), 3, "one row per suspicion timeout");
        assert!(report.chart.is_some());
        // Convergence note must confirm the referee passed everywhere.
        assert!(
            report.notes.iter().any(|n| n.ends_with("oracle: true")),
            "notes: {:?}",
            report.notes
        );
        // Detection latency grows with the suspicion timeout.
        let first: f64 = report.table.rows()[0][1].parse().unwrap();
        let last: f64 = report.table.rows()[2][1].parse().unwrap();
        assert!(
            first < last,
            "longer suspicion must detect later: {first} vs {last}"
        );
    }

    #[test]
    fn detection_panel_is_deterministic() {
        let cfg = DetectionConfig {
            suspicion_timeouts_ms: vec![300],
            ..DetectionConfig::quick()
        };
        let a = detection_panel(&cfg);
        let b = detection_panel(&cfg);
        assert_eq!(a.table.rows(), b.table.rows());
    }
}
