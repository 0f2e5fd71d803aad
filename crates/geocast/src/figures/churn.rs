//! Beyond-the-paper churn scenario: the incremental churn engine under
//! join waves, leave waves, flash crowds and sustained mixed churn.
//!
//! The paper's experimental procedure re-converges the whole overlay
//! after every single insertion, which caps churn studies at toy sizes.
//! The [`geocast_overlay::TopologyStore`] instead keeps the equilibrium
//! topology up to date incrementally — each membership event touches
//! only the peers whose candidate sets it can affect (the *dirty
//! region*). This harness replays the four canonical churn shapes of
//! [`geocast_sim::workload::ChurnPattern`] against a store, measures
//! event throughput and dirty-region locality, and cross-checks the
//! final topology against a from-scratch equilibrium rebuild.

use std::time::Instant;

use geocast_geom::VMAX;
use geocast_metrics::{AsciiChart, Table};
use geocast_overlay::churn::{run_schedule_on_store_with, ChurnSchedule};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{oracle, PeerInfo, TopologyStore};
use geocast_sim::workload::ChurnPattern;

use crate::figures::FigureReport;

/// Configuration for the churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Base population each scenario starts from.
    pub initial: usize,
    /// Size of the join/leave waves (the flash crowd surges and drains
    /// this many peers).
    pub wave: usize,
    /// Events in the sustained mixed-churn scenario.
    pub mixed_events: usize,
    /// Join weight of the mixed scenario.
    pub join_rate: u32,
    /// Leave weight of the mixed scenario.
    pub leave_rate: u32,
    /// Dimensionality.
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    /// Paper-overreach scale: a 5000-peer base absorbing thousand-peer
    /// waves.
    fn default() -> Self {
        ChurnConfig {
            initial: 5_000,
            wave: 1_000,
            mixed_events: 2_000,
            join_rate: 1,
            leave_rate: 1,
            dim: 2,
            seed: 1,
        }
    }
}

impl ChurnConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        ChurnConfig {
            initial: 300,
            wave: 80,
            mixed_events: 160,
            join_rate: 1,
            leave_rate: 1,
            dim: 2,
            seed: 1,
        }
    }
}

/// **Churn scenario** — incremental equilibrium maintenance under the
/// four canonical churn shapes, on the empty-rectangle rule.
///
/// Each scenario starts from a fresh `initial`-peer store, replays its
/// pattern through [`run_schedule_on_store_with`], and reports events/s,
/// dirty-region locality, and whether the incremental result equals a
/// from-scratch rebuild (it must — the engine is exact).
#[must_use]
pub fn churn_panel(cfg: &ChurnConfig) -> FigureReport {
    let scenarios: Vec<ChurnPattern> = vec![
        ChurnPattern::JoinWave { count: cfg.wave },
        ChurnPattern::LeaveWave { count: cfg.wave },
        ChurnPattern::FlashCrowd {
            surge: cfg.wave,
            exodus: cfg.wave,
        },
        ChurnPattern::Mixed {
            events: cfg.mixed_events,
            join_rate: cfg.join_rate,
            leave_rate: cfg.leave_rate,
        },
    ];

    let mut table = Table::new(vec![
        "scenario".into(),
        "events".into(),
        "events/s".into(),
        "touched mean".into(),
        "touched max".into(),
        "live N after".into(),
        "== rebuild".into(),
    ]);
    let mut mixed_series: Vec<(f64, f64)> = Vec::new();

    for (si, pattern) in scenarios.iter().enumerate() {
        let base = geocast_geom::gen::uniform_points(cfg.initial, cfg.dim, VMAX, cfg.seed);
        let mut store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&base),
            std::sync::Arc::new(EmptyRectSelection),
        );
        let schedule = ChurnSchedule::from_pattern(
            cfg.initial,
            pattern,
            cfg.dim,
            VMAX,
            cfg.seed ^ (si as u64 + 1),
        );
        // lint:allow(D002, reason = "feeds the wall-clock column of the churn panel only; no control flow reads the clock")
        let start = Instant::now();
        // One shared replay implementation; the observer captures the
        // mixed scenario's per-event dirty-region trace for the chart.
        let chart_this = matches!(pattern, ChurnPattern::Mixed { .. });
        let report = run_schedule_on_store_with(&mut store, &schedule, |ei, touched| {
            if chart_this {
                mixed_series.push((ei as f64, touched as f64));
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let events = report.joins + report.leaves;
        let reference =
            oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref());
        let exact = store.graph() == reference;
        let rate = if seconds > 0.0 {
            events as f64 / seconds
        } else {
            f64::INFINITY
        };
        table.push_row(vec![
            pattern.to_string(),
            events.to_string(),
            format!("{rate:.0}"),
            format!("{:.1}", report.touched_mean()),
            report.touched_max.to_string(),
            store.live_count().to_string(),
            exact.to_string(),
        ]);
    }

    let mut chart = AsciiChart::new(56, 12);
    chart.add_series("mixed-churn dirty region", mixed_series);
    FigureReport::new(
        "churn",
        format!(
            "incremental churn engine (N0={}, D={}, empty-rectangle rule)",
            cfg.initial, cfg.dim
        ),
        table,
    )
    .with_chart(chart.render())
    .with_note(
        "touched = peers whose adjacency a membership event changed \
         (the TopologyStore dirty region); every scenario must report \
         '== rebuild: true'",
    )
    .with_note(format!(
        "seed: {}, wave: {}, mixed: {} events @ {}:{}",
        cfg.seed, cfg.wave, cfg.mixed_events, cfg.join_rate, cfg.leave_rate
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_panel_reports_all_four_scenarios_exactly() {
        let cfg = ChurnConfig {
            initial: 60,
            wave: 15,
            mixed_events: 30,
            ..ChurnConfig::quick()
        };
        let report = churn_panel(&cfg);
        assert_eq!(report.table.len(), 4);
        for row in report.table.rows() {
            assert_eq!(row[6], "true", "{}: incremental != rebuild", row[0]);
        }
        assert!(report.chart.is_some());
    }

    #[test]
    fn join_wave_grows_and_leave_wave_shrinks() {
        let cfg = ChurnConfig {
            initial: 40,
            wave: 10,
            mixed_events: 10,
            ..ChurnConfig::quick()
        };
        let report = churn_panel(&cfg);
        let live_after: Vec<usize> = report
            .table
            .rows()
            .iter()
            .map(|row| row[5].parse().unwrap())
            .collect();
        assert_eq!(live_after[0], 50, "join wave adds wave peers");
        assert_eq!(live_after[1], 30, "leave wave removes wave peers");
        assert_eq!(live_after[2], 40, "flash crowd returns to base");
    }
}
