//! Beyond-the-paper scaling scenario: equilibrium overlay construction
//! at sizes the paper's framework never reached.
//!
//! The paper evaluates up to `N = 5000`; the ROADMAP's north star is
//! million-user scale. This harness measures the one construction path,
//! the store's bulk build (spatial index + parallel selection, see
//! `docs/PERFORMANCE.md`), across a size sweep in the paper's `D = 2` setting of Fig. 1(c), and
//! asserts the log-like degree growth continues to hold at scale.

use std::sync::Arc;
use std::time::Instant;

use geocast_metrics::{AsciiChart, Table};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerInfo, TopologyStore};

use crate::figures::FigureReport;

/// Configuration for the overlay-construction scaling scenario.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Network sizes to build.
    pub ns: Vec<usize>,
    /// Dimensionality (Fig. 1c setting: 2).
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
    /// Coordinate bound.
    pub vmax: f64,
}

impl Default for ScalingConfig {
    /// Paper-overreach scale, topping out at `N = 50_000` (an order of
    /// magnitude past Fig. 1(c)'s axis).
    fn default() -> Self {
        ScalingConfig {
            ns: vec![1_000, 5_000, 10_000, 20_000, 50_000],
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

impl ScalingConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        ScalingConfig {
            ns: vec![500, 1_000, 2_000],
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

/// **Scaling scenario** — empty-rectangle equilibrium construction time
/// and topology shape as `N` grows at `D = 2`.
///
/// The bulk build is *exactly* the index-free definition
/// (property-tested in `geocast-overlay`), so the measured
/// overlays are the same objects Fig. 1(c) reports — just built at
/// sizes where the `O(N²)` path stops being an option.
#[must_use]
pub fn overlay_scaling(cfg: &ScalingConfig) -> FigureReport {
    let mut table = Table::new(vec![
        "N".into(),
        "build seconds".into(),
        "directed edges".into(),
        "max degree".into(),
        "avg degree".into(),
    ]);
    let mut time_series = Vec::new();
    let mut degree_series = Vec::new();
    for &n in &cfg.ns {
        let peers = PeerInfo::from_point_set(&geocast_geom::gen::uniform_points(
            n, cfg.dim, cfg.vmax, cfg.seed,
        ));
        // lint:allow(D002, reason = "feeds the build_ms column of the scaling panel only; no control flow reads the clock")
        let start = Instant::now();
        let graph = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph();
        let seconds = start.elapsed().as_secs_f64();
        let degrees = graph.undirected_degrees();
        let max = degrees.iter().copied().max().unwrap_or(0);
        let avg = if degrees.is_empty() {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / degrees.len() as f64
        };
        table.push_row(vec![
            n.to_string(),
            format!("{seconds:.3}"),
            graph.directed_edge_count().to_string(),
            max.to_string(),
            format!("{avg:.1}"),
        ]);
        time_series.push((n as f64, seconds));
        degree_series.push((n as f64, avg));
    }
    let mut chart = AsciiChart::new(56, 12);
    chart.add_series("build seconds", time_series);
    FigureReport::new(
        "scaling",
        format!(
            "equilibrium construction scaling (D={}, empty-rectangle rule)",
            cfg.dim
        ),
        table,
    )
    .with_chart(chart.render())
    .with_note("engine: TopologyStore::from_peers, spatial index + parallel selection (docs/PERFORMANCE.md)")
    .with_note(format!("seed: {}, sizes: {:?}", cfg.seed, cfg.ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_quick_reports_one_row_per_size() {
        let cfg = ScalingConfig {
            ns: vec![100, 300],
            ..ScalingConfig::quick()
        };
        let report = overlay_scaling(&cfg);
        assert_eq!(report.table.len(), 2);
        assert!(report.chart.is_some());
        // Average degree stays in the log-like band the paper reports.
        let avg: f64 = report.table.rows()[1][4].parse().unwrap();
        assert!(
            avg > 2.0 && avg < 60.0,
            "avg degree {avg} out of the expected band"
        );
    }

    #[test]
    fn scaling_measures_positive_durations() {
        let cfg = ScalingConfig {
            ns: vec![200],
            ..ScalingConfig::quick()
        };
        let report = overlay_scaling(&cfg);
        let secs: f64 = report.table.rows()[0][1].parse().unwrap();
        assert!(secs >= 0.0);
        let edges: usize = report.table.rows()[0][2].parse().unwrap();
        assert!(edges > 0);
    }

    #[test]
    fn default_config_reaches_fifty_thousand() {
        assert_eq!(ScalingConfig::default().ns.last(), Some(&50_000));
        assert_eq!(ScalingConfig::default().dim, 2);
    }
}
