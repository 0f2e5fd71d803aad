//! Extension experiment: the cost of localized zone repair.

use std::sync::Arc;

use geocast_core::repair::repair_after_departure;
use geocast_core::{build_tree, OrthantRectPartitioner};
use geocast_geom::gen::uniform_points;
use geocast_metrics::{Summary, Table};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{OverlayGraph, PeerId, PeerInfo, TopologyStore};
use geocast_sim::runner::ParallelRunner;

use crate::figures::FigureReport;

/// Configuration for the repair-cost experiment.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Network sizes.
    pub ns: Vec<usize>,
    /// Dimensionality.
    pub dim: usize,
    /// Trials (seed per trial; each trial repairs every non-root,
    /// non-leaf peer once).
    pub seeds: Vec<u64>,
    /// Coordinate bound.
    pub vmax: f64,
    /// Maximum departures sampled per trial (repairs are independent —
    /// each starts from the intact tree).
    pub departures: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            ns: vec![100, 500, 1000],
            dim: 2,
            seeds: vec![1, 2, 3],
            vmax: 1000.0,
            departures: 50,
        }
    }
}

impl RepairConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        RepairConfig {
            ns: vec![50, 120],
            dim: 2,
            seeds: vec![1],
            vmax: 1000.0,
            departures: 10,
        }
    }
}

/// The survivor equilibrium over the original ids (the departed vertex
/// edge-less): a store over `peers` after `departed` leaves.
fn survivor_overlay(peers: &[PeerInfo], departed: usize) -> OverlayGraph {
    let mut store = TopologyStore::from_peers(peers.to_vec(), Arc::new(EmptyRectSelection));
    store.remove(PeerId(departed as u64));
    store.graph()
}

/// **Extension (E11)** — repair cost after a departure: messages needed
/// by the parent-seeded zone reconstruction versus the `N − 1` full
/// rebuild, over sampled departures. Every repair is verified to re-span
/// the survivors.
#[must_use]
pub fn repair_cost(cfg: &RepairConfig) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| cfg.seeds.iter().map(move |&s| (n, s)))
        .collect();
    let runner = ParallelRunner::default();
    // Per job: (repair message summary, all spanned?, repairs done).
    let measured = runner.map(&jobs, |&(n, seed)| {
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, cfg.dim, cfg.vmax, seed)),
            Arc::new(EmptyRectSelection),
        );
        let (peers, overlay) = (store.peers(), store.graph());
        let build = build_tree(peers, &overlay, 0, &OrthantRectPartitioner::median());
        let mut costs = Summary::new();
        let mut all_spanned = true;
        let mut victims: Vec<usize> = (1..n)
            .filter(|&i| !build.tree.children(i).is_empty())
            .collect();
        // Deterministic stride sample of internal peers.
        if victims.len() > cfg.departures {
            let stride = victims.len() / cfg.departures;
            victims = victims
                .into_iter()
                .step_by(stride.max(1))
                .take(cfg.departures)
                .collect();
        }
        for &victim in &victims {
            let live = survivor_overlay(peers, victim);
            let repaired = repair_after_departure(
                peers,
                &live,
                &build,
                victim,
                &OrthantRectPartitioner::median(),
            )
            .expect("non-root repair succeeds");
            all_spanned &= (0..n).all(|i| i == victim || repaired.tree.is_reached(i));
            costs.add(repaired.repair_messages as f64);
        }
        (costs, all_spanned, victims.len())
    });

    let mut table = Table::new(vec![
        "N".into(),
        "repairs sampled".into(),
        "mean repair msgs".into(),
        "p95 repair msgs".into(),
        "max repair msgs".into(),
        "full rebuild (N-1)".into(),
        "all re-spanned".into(),
    ]);
    for &n in &cfg.ns {
        let trials: Vec<&(Summary, bool, usize)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((nn, _), m)| (*nn == n).then_some(m))
            .collect();
        let mut merged = Summary::new();
        let mut repairs = 0usize;
        let mut spanned = true;
        for (s, ok, count) in &trials {
            // Aggregate across trials: mean of per-trial means, worst
            // p95/max across trials.
            merged.add(s.mean());
            spanned &= *ok;
            repairs += count;
        }
        let per_trial_p95: f64 = trials
            .iter()
            .map(|(s, _, _)| s.percentile(95.0))
            .fold(0.0, f64::max);
        let per_trial_max: f64 = trials.iter().map(|(s, _, _)| s.max()).fold(0.0, f64::max);
        table.push_row(vec![
            n.to_string(),
            repairs.to_string(),
            format!("{:.1}", merged.mean()),
            format!("{per_trial_p95:.0}"),
            format!("{per_trial_max:.0}"),
            (n - 1).to_string(),
            spanned.to_string(),
        ]);
    }
    FigureReport::new(
        "repair-cost",
        format!("localized zone repair vs full rebuild (D={})", cfg.dim),
        table,
    )
    .with_note("repair = parent re-runs the §2 delegation on the orphaned zone over the survivor equilibrium")
    .with_note("cost is proportional to the orphaned subtree, not to N")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_cost_quick_respans_everything_cheaply() {
        let report = repair_cost(&RepairConfig::quick());
        assert_eq!(report.table.len(), 2);
        for row in report.table.rows() {
            assert_eq!(row[6], "true", "{row:?}");
            let mean: f64 = row[2].parse().unwrap();
            let rebuild: f64 = row[5].parse().unwrap();
            assert!(
                mean < rebuild / 2.0,
                "repair should be far below rebuild: {row:?}"
            );
        }
    }
}
