//! Extension experiment: what one departure changes of the §2 tree.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_core::groups::build_group_tree_on_store;
use geocast_core::{BuildResult, OrthantRectPartitioner};
use geocast_geom::gen::uniform_points;
use geocast_geom::VMAX;
use geocast_metrics::{Summary, Table};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};
use geocast_sim::runner::{map_indexed, Grain};

use crate::figures::FigureReport;

/// Configuration for the repair-cost experiment.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Network sizes.
    pub ns: Vec<usize>,
    /// Dimensionality.
    pub dim: usize,
    /// Trials (seed per trial; each trial samples interior peers of the
    /// intact tree to depart).
    pub seeds: Vec<u64>,
    /// Maximum departures sampled per trial (departures are independent
    /// — each starts from the intact tree).
    pub departures: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            ns: vec![100, 500, 1000],
            dim: 2,
            seeds: vec![1, 2, 3],
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
            departures: 10,
        }
    }
}

/// What `after` changed of `before`: the peers whose tree parent
/// differs (links changed), and the peers whose parent or zone differs
/// (zones re-delegated — the tree nodes a rebuild that replays `before`
/// touches). A peer that left or joined the tree counts in both.
fn changed(before: &BuildResult, after: &BuildResult, n: usize) -> (usize, usize) {
    let link = |b: &BuildResult, p| (b.tree.is_reached(p), b.tree.parent(p));
    let (mut links, mut zones) = (0, 0);
    for p in 0..n {
        let relinked = link(before, p) != link(after, p);
        links += usize::from(relinked);
        zones += usize::from(relinked || before.zones.get(p) != after.zones.get(p));
    }
    (links, zones)
}

/// **Extension (E11)** — repair cost after a departure: how much of the
/// §2 tree the departure changes, versus the `N − 1` messages of a full
/// rebuild, over sampled departures of interior peers. Both trees are
/// the definition's — every live peer a member, root 0 — before and
/// after the store removes the peer; every tree after is verified to
/// re-span the survivors.
#[must_use]
pub fn repair_cost(cfg: &RepairConfig) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| cfg.seeds.iter().map(move |&s| (n, s)))
        .collect();
    let median = OrthantRectPartitioner::median();
    // Per job: (links changed, zones re-delegated) per departure, and
    // whether every tree after one spans the survivors.
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (n, seed) = jobs[j];
        let peers = PeerInfo::from_point_set(&uniform_points(n, cfg.dim, VMAX, seed));
        let store = TopologyStore::from_peers(peers.clone(), Arc::new(EmptyRectSelection));
        let everyone: BTreeSet<usize> = (0..n).collect();
        let before = build_group_tree_on_store(&store, 0, &everyone, &median);
        let mut victims: Vec<usize> = (1..n)
            .filter(|&i| !before.tree.children(i).is_empty())
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
        let mut all_spanned = true;
        let costs: Vec<(usize, usize)> = victims
            .iter()
            .map(|&victim| {
                let mut store =
                    TopologyStore::from_peers(peers.clone(), Arc::new(EmptyRectSelection));
                store.remove(PeerId(victim as u64));
                let mut survivors = everyone.clone();
                survivors.remove(&victim);
                let after = build_group_tree_on_store(&store, 0, &survivors, &median);
                all_spanned &= after.stranded.is_empty() && after.messages == n - 2;
                changed(&before, &after, n)
            })
            .collect();
        (costs, all_spanned)
    });

    let mut table = Table::new(vec![
        "N".into(),
        "departures sampled".into(),
        "mean links changed".into(),
        "p95 links changed".into(),
        "max links changed".into(),
        "mean zones re-delegated".into(),
        "p95 zones re-delegated".into(),
        "max zones re-delegated".into(),
        "full rebuild (N-1)".into(),
        "all re-spanned".into(),
    ]);
    for &n in &cfg.ns {
        // Departures pooled across the trials of this N.
        let mut links = Summary::new();
        let mut zones = Summary::new();
        let mut spanned = true;
        let trials = jobs.iter().zip(&measured).filter(|((nn, _), _)| *nn == n);
        for (_, (costs, ok)) in trials {
            for &(l, z) in costs {
                links.add(l as f64);
                zones.add(z as f64);
            }
            spanned &= *ok;
        }
        table.push_row(vec![
            n.to_string(),
            links.count().to_string(),
            format!("{:.2}", links.mean()),
            format!("{:.0}", links.percentile(95.0)),
            format!("{:.0}", links.max()),
            format!("{:.2}", zones.mean()),
            format!("{:.0}", zones.percentile(95.0)),
            format!("{:.0}", zones.max()),
            (n - 1).to_string(),
            spanned.to_string(),
        ]);
    }
    FigureReport::new(
        "repair-cost",
        format!("what a departure changes of the §2 tree vs full rebuild (D={})", cfg.dim),
        table,
    )
    .with_note("both trees are the definition's: every live peer a member, root 0, before and after the store removes the departed peer")
    .with_note("links changed: peers whose tree parent differs, the departed one included; zones re-delegated: peers whose parent or zone differs, the nodes the engine's replayed rebuild touches")
    .with_note("full rebuild (N-1): the requests a construction from scratch sends")
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocast_core::groups::GroupEngine;

    /// Zones re-delegated are what the engine's replayed rebuild of one
    /// group of every peer touches when a peer leaves.
    #[test]
    fn zones_re_delegated_are_the_nodes_the_engine_touches() {
        let n = 80;
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 4));
        let median = OrthantRectPartitioner::median();
        let store = TopologyStore::from_peers(peers.clone(), Arc::new(EmptyRectSelection));
        let everyone: BTreeSet<usize> = (0..n).collect();
        let before = build_group_tree_on_store(&store, 0, &everyone, &median);
        for victim in (1..n).step_by(7) {
            let store = TopologyStore::from_peers(peers.clone(), Arc::new(EmptyRectSelection));
            let mut engine = GroupEngine::new(store, Arc::new(median));
            let g = engine.create_group(PeerId(0));
            for p in 1..n {
                engine.subscribe(g, PeerId(p as u64));
            }
            let touched = engine.totals().tree_nodes_touched;
            engine.leave(PeerId(victim as u64));
            let after = engine.tree(g).expect("the root stays");
            assert_eq!(
                engine.totals().tree_nodes_touched - touched,
                changed(&before, after, n).1 as u64,
                "departure of {victim}"
            );
        }
    }

    #[test]
    fn repair_cost_quick_respans_everything_cheaply() {
        let report = repair_cost(&RepairConfig::quick());
        assert_eq!(report.table.len(), 2);
        for row in report.table.rows() {
            assert_eq!(row[9], "true", "{row:?}");
            let rebuild: f64 = row[8].parse().unwrap();
            for mean in [&row[2], &row[5]] {
                let mean: f64 = mean.parse().unwrap();
                assert!(
                    mean < rebuild / 2.0,
                    "a departure should change far less than a rebuild: {row:?}"
                );
            }
        }
    }
}
