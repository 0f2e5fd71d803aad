//! Ablations and baselines beyond the paper's own figures.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_core::groups::build_group_tree_on_store;
use geocast_core::{baseline, stability, OrthantRectPartitioner};
use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
use geocast_geom::VMAX;
use geocast_metrics::{Summary, Table};
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
use geocast_overlay::{PeerInfo, TopologyStore};
use geocast_sim::runner::{map_indexed, Grain};

use crate::figures::FigureReport;

/// Configuration for the partitioner ablation.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Number of peers.
    pub n: usize,
    /// Dimensionalities.
    pub dims: Vec<usize>,
    /// Trials.
    pub seeds: Vec<u64>,
    /// Roots sampled per trial.
    pub roots: usize,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            n: 1000,
            dims: vec![2, 3, 4, 5],
            seeds: vec![1, 2, 3],
            roots: 100,
        }
    }
}

impl AblationConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        AblationConfig {
            n: 120,
            dims: vec![2, 3],
            seeds: vec![1],
            roots: 20,
        }
    }
}

/// **Ablation** — why does the paper pick the *median*-distance
/// neighbour per orthant? Compares median / closest / farthest child
/// picks on root-to-leaf path length and tree diameter. (All three span
/// with `N − 1` messages; the pick rule only shapes the tree.)
#[must_use]
pub fn ablation_partitioner(cfg: &AblationConfig) -> FigureReport {
    let partitioners = [
        ("median (paper)", OrthantRectPartitioner::median()),
        ("closest", OrthantRectPartitioner::closest()),
        ("farthest", OrthantRectPartitioner::farthest()),
    ];
    let jobs: Vec<(usize, u64)> = cfg
        .dims
        .iter()
        .flat_map(|&d| cfg.seeds.iter().map(move |&s| (d, s)))
        .collect();
    // Per job: per partitioner (avg longest path, avg diameter, spanning).
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (dim, seed) = jobs[j];
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(cfg.n, dim, VMAX, seed)),
            Arc::new(EmptyRectSelection),
        );
        let everyone: BTreeSet<usize> = (0..cfg.n).collect();
        let stride = (cfg.n / cfg.roots.max(1)).max(1);
        let roots: Vec<usize> = (0..cfg.n).step_by(stride).take(cfg.roots).collect();
        partitioners
            .iter()
            .map(|(_, p)| {
                let mut paths = Summary::new();
                let mut diameters = Summary::new();
                let mut all_span = true;
                for &root in &roots {
                    let result = build_group_tree_on_store(&store, root, &everyone, p);
                    all_span &= result.tree.is_spanning();
                    paths.add(result.tree.longest_root_to_leaf() as f64);
                    diameters.add(result.tree.diameter() as f64);
                }
                (paths.mean(), diameters.mean(), all_span)
            })
            .collect::<Vec<_>>()
    });

    let mut table = Table::new(vec![
        "D".into(),
        "pick rule".into(),
        "avg longest path".into(),
        "avg diameter".into(),
        "all spanning".into(),
    ]);
    for &dim in &cfg.dims {
        for (pi, (name, _)) in partitioners.iter().enumerate() {
            let trials: Vec<&(f64, f64, bool)> = jobs
                .iter()
                .zip(&measured)
                .filter(|&((d, _), _rows)| *d == dim)
                .map(|((_d, _), rows)| &rows[pi])
                .collect();
            let path = trials.iter().map(|t| t.0).sum::<f64>() / trials.len() as f64;
            let diam = trials.iter().map(|t| t.1).sum::<f64>() / trials.len() as f64;
            let span = trials.iter().all(|t| t.2);
            table.push_row(vec![
                dim.to_string(),
                (*name).to_owned(),
                format!("{path:.2}"),
                format!("{diam:.2}"),
                span.to_string(),
            ]);
        }
    }
    FigureReport::new(
        "ablation-pick",
        format!(
            "child-pick ablation (N={}, {} roots/trial)",
            cfg.n, cfg.roots
        ),
        table,
    )
    .with_note("all rules satisfy the §2 invariants; the pick only shapes depth/diameter")
}

/// Configuration for the baseline comparisons.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Network sizes.
    pub ns: Vec<usize>,
    /// Dimensionality.
    pub dim: usize,
    /// Trials.
    pub seeds: Vec<u64>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            ns: vec![100, 500, 1000, 2000],
            dim: 2,
            seeds: vec![1, 2, 3],
        }
    }
}

impl BaselineConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        BaselineConfig {
            ns: vec![60, 150],
            dim: 2,
            seeds: vec![1],
        }
    }
}

/// **Baseline: message cost** — the intro claims existing solutions
/// "send many messages for constructing the tree". Compares flooding's
/// message count against the §2 construction's `N − 1` on the same
/// overlay.
#[must_use]
pub fn baseline_messages(cfg: &BaselineConfig) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| cfg.seeds.iter().map(move |&s| (n, s)))
        .collect();
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (n, seed) = jobs[j];
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, cfg.dim, VMAX, seed)),
            Arc::new(EmptyRectSelection),
        );
        let flood = baseline::flood(&store.graph(), 0);
        let everyone = (0..n).collect();
        let median = OrthantRectPartitioner::median();
        let ours = build_group_tree_on_store(&store, 0, &everyone, &median);
        (
            ours.messages as f64,
            flood.messages as f64,
            flood.duplicates as f64,
        )
    });

    let mut table = Table::new(vec![
        "N".into(),
        "space-partitioning msgs".into(),
        "flooding msgs".into(),
        "flooding duplicates".into(),
        "overhead factor".into(),
    ]);
    for &n in &cfg.ns {
        let trials: Vec<&(f64, f64, f64)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((nn, _), m)| (*nn == n).then_some(m))
            .collect();
        let ours = trials.iter().map(|t| t.0).sum::<f64>() / trials.len() as f64;
        let flood = trials.iter().map(|t| t.1).sum::<f64>() / trials.len() as f64;
        let dups = trials.iter().map(|t| t.2).sum::<f64>() / trials.len() as f64;
        table.push_row(vec![
            n.to_string(),
            format!("{ours:.0}"),
            format!("{flood:.0}"),
            format!("{dups:.0}"),
            format!("{:.2}x", flood / ours.max(1.0)),
        ]);
    }
    FigureReport::new(
        "baseline-msgs",
        format!("construction message cost vs flooding (D={})", cfg.dim),
        table,
    )
    .with_note("both run on the identical empty-rectangle equilibrium overlay")
}

/// **Baseline: departure sensitivity** — the intro claims existing trees
/// are "very sensitive to node departures". Replays the full departure
/// schedule on the §3 stability tree, the BFS tree and a random-parent
/// tree, counting departures that disconnect live peers.
#[must_use]
pub fn baseline_stability(cfg: &BaselineConfig) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| cfg.seeds.iter().map(move |&s| (n, s)))
        .collect();
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (n, seed) = jobs[j];
        let base = uniform_points(n, cfg.dim, VMAX, seed);
        let times = lifetimes(n, VMAX, seed ^ 0x1234_5678);
        let sel = HyperplanesSelection::orthogonal(cfg.dim, 2);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&embed_lifetimes(&base, &times)),
            Arc::new(sel),
        );
        let (peers, overlay) = (store.peers(), store.graph());
        let t: Vec<f64> = peers.iter().map(PeerInfo::departure_time).collect();

        let stability_tree =
            stability::preferred_links(peers, &overlay, stability::PreferredPolicy::MaxT)
                .to_multicast_tree()
                .expect("equilibrium forms a tree");
        let bfs = baseline::bfs_tree(&overlay, stability_tree.root());
        let random = baseline::random_parent_tree(&overlay, stability_tree.root(), seed);
        (
            stability::non_leaf_departures(&stability_tree, &t) as f64,
            stability::non_leaf_departures(&bfs, &t) as f64,
            stability::non_leaf_departures(&random, &t) as f64,
        )
    });

    let mut table = Table::new(vec![
        "N".into(),
        "stability tree (§3)".into(),
        "BFS tree".into(),
        "random-parent tree".into(),
    ]);
    for &n in &cfg.ns {
        let trials: Vec<&(f64, f64, f64)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((nn, _), m)| (*nn == n).then_some(m))
            .collect();
        let s = trials.iter().map(|t| t.0).sum::<f64>() / trials.len() as f64;
        let b = trials.iter().map(|t| t.1).sum::<f64>() / trials.len() as f64;
        let r = trials.iter().map(|t| t.2).sum::<f64>() / trials.len() as f64;
        table.push_row(vec![
            n.to_string(),
            format!("{s:.1}"),
            format!("{b:.1}"),
            format!("{r:.1}"),
        ]);
    }
    FigureReport::new(
        "baseline-stability",
        "disconnecting departures per full departure schedule".to_owned(),
        table,
    )
    .with_note(
        "cell = departures that split live peers apart (lower is better; §3 tree is provably 0)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_quick_spans_for_all_rules() {
        let report = ablation_partitioner(&AblationConfig::quick());
        assert_eq!(report.table.len(), 6); // 2 dims × 3 rules
        for row in report.table.rows() {
            assert_eq!(row[4], "true", "{row:?}");
        }
    }

    #[test]
    fn baseline_messages_shows_flooding_overhead() {
        let report = baseline_messages(&BaselineConfig::quick());
        for row in report.table.rows() {
            let ours: f64 = row[1].parse().unwrap();
            let flood: f64 = row[2].parse().unwrap();
            assert!(flood > ours, "flooding must cost more: {row:?}");
        }
    }

    #[test]
    fn baseline_stability_shows_zero_for_section3_tree() {
        let report = baseline_stability(&BaselineConfig::quick());
        for row in report.table.rows() {
            let ours: f64 = row[1].parse().unwrap();
            assert_eq!(ours, 0.0, "§3 tree must never disconnect: {row:?}");
            let random: f64 = row[3].parse().unwrap();
            assert!(
                random > 0.0,
                "random tree should disconnect sometimes: {row:?}"
            );
        }
    }
}
