//! The five panels of the paper's Figure 1.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_core::groups::build_group_tree_on_store;
use geocast_core::{stability, OrthantRectPartitioner};
use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
use geocast_geom::VMAX;
use geocast_metrics::{AsciiChart, Table};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{oracle, PeerInfo, TopologyStore};
use geocast_sim::runner::ParallelRunner;

use crate::figures::FigureReport;

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Configuration for Fig. 1(a) and 1(b): the empty-rectangle overlay and
/// §2 multicast trees as dimensionality varies.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// Number of peers (paper: 1000).
    pub n: usize,
    /// Dimensionalities to sweep (paper: 2..=5).
    pub dims: Vec<usize>,
    /// Trials; results are averaged across seeds (the paper averaged
    /// "multiple tests" without reporting the count).
    pub seeds: Vec<u64>,
    /// For Fig. 1(b): construct a tree from every peer (the paper's
    /// procedure) or from a sample of this many roots.
    pub roots: Option<usize>,
    /// For Fig. 1(b): how many of the sampled roots also get a
    /// message-passing build under coordinate-derived latencies, to
    /// report construction *wall-clock* (virtual ms) alongside hop
    /// counts. Zero disables the wall-clock columns.
    pub latency_roots: usize,
}

impl Default for Fig1Config {
    /// Paper scale: `N = 1000`, `D = 2..5`, three seeds, all roots.
    fn default() -> Self {
        Fig1Config {
            n: 1000,
            dims: (2..=5).collect(),
            seeds: vec![1, 2, 3],
            roots: None,
            latency_roots: 5,
        }
    }
}

impl Fig1Config {
    /// Reduced scale for CI: `N = 150`, `D = 2..4`, one seed, 40 roots.
    #[must_use]
    pub fn quick() -> Self {
        Fig1Config {
            n: 150,
            dims: (2..=4).collect(),
            seeds: vec![1],
            roots: Some(40),
            latency_roots: 3,
        }
    }
}

/// **Fig. 1(a)** — maximum and average peer degree of the converged
/// empty-rectangle overlay, for each dimensionality.
///
/// The paper reports degrees growing steeply with `D` (max ≈ hundreds at
/// `D = 5` for `N = 1000`) — the per-orthant Pareto frontiers grow with
/// both the orthant count `2^D` and the frontier size per orthant.
#[must_use]
pub fn fig1a(cfg: &Fig1Config) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .dims
        .iter()
        .flat_map(|&d| cfg.seeds.iter().map(move |&s| (d, s)))
        .collect();
    let runner = ParallelRunner::default();
    let measured = runner.map(&jobs, |&(dim, seed)| {
        let peers = PeerInfo::from_point_set(&uniform_points(cfg.n, dim, VMAX, seed));
        let graph = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph();
        let degrees = graph.undirected_degrees();
        let max = degrees.iter().copied().max().unwrap_or(0) as f64;
        let avg = mean(degrees.iter().map(|&d| d as f64));
        (max, avg)
    });

    let mut table = Table::new(vec!["D".into(), "max degree".into(), "avg degree".into()]);
    let mut max_series = Vec::new();
    let mut avg_series = Vec::new();
    for &dim in &cfg.dims {
        let rows: Vec<&(f64, f64)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((d, _), m)| (*d == dim).then_some(m))
            .collect();
        let max = mean(rows.iter().map(|r| r.0));
        let avg = mean(rows.iter().map(|r| r.1));
        table.push_row(vec![
            dim.to_string(),
            format!("{max:.1}"),
            format!("{avg:.1}"),
        ]);
        max_series.push((dim as f64, max));
        avg_series.push((dim as f64, avg));
    }
    let mut chart = AsciiChart::new(48, 12);
    chart.add_series("max degree", max_series);
    chart.add_series("avg degree", avg_series);
    FigureReport::new(
        "fig1a",
        format!("overlay degree vs D (N={}, empty-rectangle rule)", cfg.n),
        table,
    )
    .with_chart(chart.render())
    .with_note(format!("seeds averaged: {:?}", cfg.seeds))
}

/// **Fig. 1(b)** — longest root-to-leaf path of the §2 multicast tree:
/// the maximum over initiating peers and the average of the per-root
/// maxima, for each dimensionality — plus, beyond the paper, the
/// construction **wall-clock** under coordinate-derived latencies: for
/// [`Fig1Config::latency_roots`] of the sampled roots the tree is built
/// by actual message passing ([`geocast_core::protocol::build_distributed`])
/// over a [`geocast_sim::CoordDistanceLatency`] network, and the virtual time from
/// injection to quiescence is reported in milliseconds. Hops say how
/// *deep* the tree is; the ms columns say how long a subscriber actually
/// waits for the build to reach everyone.
#[must_use]
pub fn fig1b(cfg: &Fig1Config) -> FigureReport {
    use geocast_core::protocol::build_distributed;
    use geocast_sim::{CoordDistanceLatency, FaultModel, SimDuration};

    let jobs: Vec<(usize, u64)> = cfg
        .dims
        .iter()
        .flat_map(|&d| cfg.seeds.iter().map(move |&s| (d, s)))
        .collect();
    let runner = ParallelRunner::default();
    let measured = runner.map(&jobs, |&(dim, seed)| {
        let point_set = uniform_points(cfg.n, dim, VMAX, seed);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&point_set),
            Arc::new(EmptyRectSelection),
        );
        let (peers, graph) = (store.peers(), store.graph());
        let everyone: BTreeSet<usize> = (0..cfg.n).collect();
        let positions = point_set.into_points();
        let partitioner = OrthantRectPartitioner::median();
        let roots: Vec<usize> = match cfg.roots {
            // Deterministic stride sample when not using every root.
            Some(r) if r < cfg.n => {
                let stride = cfg.n / r;
                (0..r).map(|i| i * stride).collect()
            }
            _ => (0..cfg.n).collect(),
        };
        let lengths: Vec<f64> = roots
            .iter()
            .map(|&root| {
                build_group_tree_on_store(&store, root, &everyone, &partitioner)
                    .tree
                    .longest_root_to_leaf() as f64
            })
            .collect();
        let max = lengths.iter().copied().fold(0.0, f64::max);
        // Wall-clock: message-passing builds over the coordinate-derived
        // network for a sample of roots (virtual ms, deterministic).
        let clock_ms: Vec<f64> = roots
            .iter()
            .take(cfg.latency_roots)
            .map(|&root| {
                build_distributed(
                    peers,
                    &graph,
                    root,
                    partitioner,
                    CoordDistanceLatency::new(
                        positions.clone(),
                        SimDuration::from_millis(2),
                        SimDuration::from_nanos(15_000),
                    ),
                    FaultModel::default(),
                    seed,
                )
                .elapsed
                .as_secs_f64()
                    * 1e3
            })
            .collect();
        let clock_max = clock_ms.iter().copied().fold(0.0, f64::max);
        (max, mean(lengths), clock_max, mean(clock_ms))
    });

    let mut table = Table::new(vec![
        "D".into(),
        "max root-to-leaf length".into(),
        "avg max root-to-leaf length".into(),
        "max build wall-clock (ms)".into(),
        "avg build wall-clock (ms)".into(),
    ]);
    let mut max_series = Vec::new();
    let mut avg_series = Vec::new();
    for &dim in &cfg.dims {
        let rows: Vec<&(f64, f64, f64, f64)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((d, _), m)| (*d == dim).then_some(m))
            .collect();
        let max = mean(rows.iter().map(|r| r.0));
        let avg = mean(rows.iter().map(|r| r.1));
        let clock_max = mean(rows.iter().map(|r| r.2));
        let clock_avg = mean(rows.iter().map(|r| r.3));
        table.push_row(vec![
            dim.to_string(),
            format!("{max:.1}"),
            format!("{avg:.1}"),
            format!("{clock_max:.1}"),
            format!("{clock_avg:.1}"),
        ]);
        max_series.push((dim as f64, max));
        avg_series.push((dim as f64, avg));
    }
    let mut chart = AsciiChart::new(48, 12);
    chart.add_series("max length", max_series);
    chart.add_series("avg max length", avg_series);
    let roots_note = match cfg.roots {
        Some(r) if r < cfg.n => format!("{r} sampled roots"),
        _ => "every peer as root (paper procedure)".to_owned(),
    };
    FigureReport::new(
        "fig1b",
        format!("multicast-tree root-to-leaf paths vs D (N={})", cfg.n),
        table,
    )
    .with_chart(chart.render())
    .with_note(roots_note)
    .with_note(format!(
        "wall-clock: message-passing builds for {} roots over a \
         coordinate-distance network (2 ms base + 15 µs/unit)",
        cfg.latency_roots
    ))
    .with_note(format!("seeds averaged: {:?}", cfg.seeds))
}

/// Configuration for Fig. 1(c): degree scaling with network size at
/// `D = 2`.
#[derive(Debug, Clone)]
pub struct Fig1cConfig {
    /// Network sizes (paper axis: 100..5000).
    pub ns: Vec<usize>,
    /// Dimensionality (paper: 2).
    pub dim: usize,
    /// Trials per size.
    pub seeds: Vec<u64>,
}

impl Default for Fig1cConfig {
    fn default() -> Self {
        Fig1cConfig {
            ns: vec![100, 250, 400, 700, 1000, 2000, 4000, 5000],
            dim: 2,
            seeds: vec![1, 2, 3],
        }
    }
}

impl Fig1cConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        Fig1cConfig {
            ns: vec![50, 100, 200, 400],
            dim: 2,
            seeds: vec![1],
        }
    }
}

/// **Fig. 1(c)** — maximum and average overlay degree as `N` grows at
/// `D = 2`, against the paper's `10·log10(N)` reference curve (its claim:
/// both "seem to be proportional to log(N)").
#[must_use]
pub fn fig1c(cfg: &Fig1cConfig) -> FigureReport {
    let jobs: Vec<(usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| cfg.seeds.iter().map(move |&s| (n, s)))
        .collect();
    let runner = ParallelRunner::default();
    let measured = runner.map(&jobs, |&(n, seed)| {
        let peers = PeerInfo::from_point_set(&uniform_points(n, cfg.dim, VMAX, seed));
        let graph = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph();
        let degrees = graph.undirected_degrees();
        let max = degrees.iter().copied().max().unwrap_or(0) as f64;
        let avg = mean(degrees.iter().map(|&d| d as f64));
        (max, avg)
    });

    let mut table = Table::new(vec![
        "N".into(),
        "max degree".into(),
        "avg degree".into(),
        "10*log10(N)".into(),
    ]);
    let mut max_series = Vec::new();
    let mut avg_series = Vec::new();
    let mut log_series = Vec::new();
    for &n in &cfg.ns {
        let rows: Vec<&(f64, f64)> = jobs
            .iter()
            .zip(&measured)
            .filter_map(|((nn, _), m)| (*nn == n).then_some(m))
            .collect();
        let max = mean(rows.iter().map(|r| r.0));
        let avg = mean(rows.iter().map(|r| r.1));
        let reference = 10.0 * (n as f64).log10();
        table.push_row(vec![
            n.to_string(),
            format!("{max:.1}"),
            format!("{avg:.1}"),
            format!("{reference:.1}"),
        ]);
        max_series.push((n as f64, max));
        avg_series.push((n as f64, avg));
        log_series.push((n as f64, reference));
    }
    let mut chart = AsciiChart::new(56, 14);
    chart.add_series("max degree", max_series);
    chart.add_series("avg degree", avg_series);
    chart.add_series("10*log10(N)", log_series);
    FigureReport::new(
        "fig1c",
        format!("overlay degree vs N (D={}, empty-rectangle rule)", cfg.dim),
        table,
    )
    .with_chart(chart.render())
    .with_note(format!("seeds averaged: {:?}", cfg.seeds))
}

/// Configuration for Fig. 1(d)/(e): §3 stability trees over the
/// Orthogonal Hyperplanes overlay.
#[derive(Debug, Clone)]
pub struct StabilityConfig {
    /// Number of peers (paper: 1000).
    pub n: usize,
    /// Dimensionalities (paper: 2..=10).
    pub dims: Vec<usize>,
    /// `K` values (paper: 1..=50).
    pub ks: Vec<usize>,
    /// Trials.
    pub seeds: Vec<u64>,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            n: 1000,
            dims: (2..=10).collect(),
            ks: (1..=50).collect(),
            seeds: vec![1],
        }
    }
}

impl StabilityConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        StabilityConfig {
            n: 120,
            dims: vec![2, 3, 5],
            ks: vec![1, 2, 5, 10],
            seeds: vec![1],
        }
    }
}

/// One measured point of the stability sweep (averaged across seeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityRow {
    /// Dimensionality.
    pub d: usize,
    /// Per-orthant selection budget.
    pub k: usize,
    /// Multicast-tree diameter (Fig. 1d).
    pub diameter: f64,
    /// Maximum tree degree of a peer (Fig. 1e).
    pub max_degree: f64,
    /// Preferred links formed a single tree in every trial (§3 claim).
    pub tree_ok: bool,
    /// Heap property held in every trial (§3 claim).
    pub heap_ok: bool,
}

/// The full §3 sweep, from which both Fig. 1(d) and Fig. 1(e) are
/// formatted. Compute once, render twice.
#[derive(Debug, Clone)]
pub struct StabilitySweep {
    /// Measured points, ordered by (dim, k).
    pub rows: Vec<StabilityRow>,
    /// The config that produced them.
    pub config: StabilityConfig,
}

/// Runs the §3 experiment: for each `(D, seed)`, embed random lifetimes
/// as the first coordinate, build the Orthogonal-Hyperplanes equilibrium
/// for every `K`, select preferred neighbours (largest `T`), and measure
/// the resulting tree.
#[must_use]
pub fn stability_sweep(cfg: &StabilityConfig) -> StabilitySweep {
    let jobs: Vec<(usize, u64)> = cfg
        .dims
        .iter()
        .flat_map(|&d| cfg.seeds.iter().map(move |&s| (d, s)))
        .collect();
    let runner = ParallelRunner::default();
    // Per job: one row per K, in cfg.ks order.
    let measured: Vec<Vec<(f64, f64, bool, bool)>> = runner.map(&jobs, |&(dim, seed)| {
        let base = uniform_points(cfg.n, dim, VMAX, seed);
        let times = lifetimes(cfg.n, VMAX, seed ^ 0x5747_4142);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let mut rows = Vec::with_capacity(cfg.ks.len());
        oracle::orthogonal_k_sweep_with(&peers, &cfg.ks, |_k, graph| {
            let forest =
                stability::preferred_links(&peers, graph, stability::PreferredPolicy::MaxT);
            let tree_ok = forest.is_tree();
            let heap_ok = forest.heap_property_holds(&peers);
            match forest.to_multicast_tree() {
                Some(tree) => {
                    let diameter = tree.diameter() as f64;
                    let max_degree = tree.degrees().into_iter().max().unwrap_or(0) as f64;
                    rows.push((diameter, max_degree, tree_ok, heap_ok));
                }
                None => rows.push((f64::NAN, f64::NAN, tree_ok, heap_ok)),
            }
        });
        rows
    });

    let mut rows = Vec::new();
    for &dim in &cfg.dims {
        for (ki, &k) in cfg.ks.iter().enumerate() {
            let trials: Vec<&(f64, f64, bool, bool)> = jobs
                .iter()
                .zip(&measured)
                .filter(|&((d, _), _per_k)| *d == dim)
                .map(|((_d, _), per_k)| &per_k[ki])
                .collect();
            rows.push(StabilityRow {
                d: dim,
                k,
                diameter: mean(trials.iter().map(|t| t.0)),
                max_degree: mean(trials.iter().map(|t| t.1)),
                tree_ok: trials.iter().all(|t| t.2),
                heap_ok: trials.iter().all(|t| t.3),
            });
        }
    }
    StabilitySweep {
        rows,
        config: cfg.clone(),
    }
}

impl StabilitySweep {
    fn panel(
        &self,
        id: &'static str,
        title: &str,
        value: impl Fn(&StabilityRow) -> f64,
        value_name: &str,
    ) -> FigureReport {
        let cfg = &self.config;
        let mut headers = vec!["K".to_owned()];
        headers.extend(cfg.dims.iter().map(|d| format!("D={d}")));
        let mut table = Table::new(headers);
        for &k in &cfg.ks {
            let mut row = vec![k.to_string()];
            for &d in &cfg.dims {
                let cell = self
                    .rows
                    .iter()
                    .find(|r| r.d == d && r.k == k)
                    .map_or("-".to_owned(), |r| format!("{:.1}", value(r)));
                row.push(cell);
            }
            table.push_row(row);
        }
        let mut chart = AsciiChart::new(52, 14);
        for &d in &cfg.dims {
            let series: Vec<(f64, f64)> = self
                .rows
                .iter()
                .filter(|r| r.d == d)
                .map(|r| (r.k as f64, value(r)))
                .collect();
            chart.add_series(format!("D={d}"), series);
        }
        let all_trees = self.rows.iter().all(|r| r.tree_ok && r.heap_ok);
        FigureReport::new(id, format!("{title} (N={})", cfg.n), table)
            .with_chart(chart.render())
            .with_note(format!(
                "preferred links formed a tree with the heap property in all cases: {all_trees}"
            ))
            .with_note(format!("seeds: {:?}, y = {value_name}", cfg.seeds))
    }

    /// Formats the Fig. 1(d) panel (tree diameter vs `K`).
    #[must_use]
    pub fn fig1d_report(&self) -> FigureReport {
        self.panel(
            "fig1d",
            "stability-tree diameter vs K",
            |r| r.diameter,
            "diameter",
        )
    }

    /// Formats the Fig. 1(e) panel (max tree degree vs `K`).
    #[must_use]
    pub fn fig1e_report(&self) -> FigureReport {
        self.panel(
            "fig1e",
            "stability-tree max degree vs K",
            |r| r.max_degree,
            "max degree",
        )
    }
}

/// **Fig. 1(d)** — variation of the multicast-tree diameter with `K` for
/// each `D`. Convenience wrapper over [`stability_sweep`].
#[must_use]
pub fn fig1d(cfg: &StabilityConfig) -> FigureReport {
    stability_sweep(cfg).fig1d_report()
}

/// **Fig. 1(e)** — variation of the maximum tree degree with `K` for
/// each `D`. Convenience wrapper over [`stability_sweep`].
#[must_use]
pub fn fig1e(cfg: &StabilityConfig) -> FigureReport {
    stability_sweep(cfg).fig1e_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_quick_produces_rows_per_dim() {
        let cfg = Fig1Config {
            n: 60,
            dims: vec![2, 3],
            seeds: vec![1],
            ..Fig1Config::quick()
        };
        let report = fig1a(&cfg);
        assert_eq!(report.table.len(), 2);
        assert!(report.chart.is_some());
        // Degrees grow with D.
        let d2: f64 = report.table.rows()[0][1].parse().unwrap();
        let d3: f64 = report.table.rows()[1][1].parse().unwrap();
        assert!(d3 >= d2, "degree should not shrink with D ({d2} vs {d3})");
    }

    #[test]
    fn fig1b_quick_reports_sane_path_lengths() {
        let cfg = Fig1Config {
            n: 50,
            dims: vec![2],
            seeds: vec![1],
            roots: Some(10),
            ..Fig1Config::quick()
        };
        let report = fig1b(&cfg);
        let max: f64 = report.table.rows()[0][1].parse().unwrap();
        let avg: f64 = report.table.rows()[0][2].parse().unwrap();
        assert!(max >= avg, "max must dominate the average of maxima");
        assert!((1.0..50.0).contains(&max));
        // The wall-clock satellite: virtual build time under the
        // coordinate-distance network, in sane milliseconds.
        let clock_max: f64 = report.table.rows()[0][3].parse().unwrap();
        let clock_avg: f64 = report.table.rows()[0][4].parse().unwrap();
        assert!(clock_max >= clock_avg);
        assert!(
            clock_avg > 2.0,
            "a multi-hop build cannot beat the base delay: {clock_avg}"
        );
        assert!(
            clock_max < 2_000.0,
            "build must settle quickly: {clock_max}"
        );
    }

    #[test]
    fn fig1b_wall_clock_columns_can_be_disabled() {
        let cfg = Fig1Config {
            n: 40,
            dims: vec![2],
            seeds: vec![1],
            roots: Some(8),
            latency_roots: 0,
        };
        let report = fig1b(&cfg);
        assert_eq!(report.table.rows()[0][3], "0.0", "no sampled builds");
    }

    #[test]
    fn fig1c_quick_includes_reference_curve() {
        let cfg = Fig1cConfig {
            ns: vec![50, 100, 300],
            seeds: vec![1],
            ..Fig1cConfig::quick()
        };
        let report = fig1c(&cfg);
        assert_eq!(report.table.len(), 3);
        let reference: f64 = report.table.rows()[1][3].parse().unwrap();
        assert!((reference - 20.0).abs() < 1e-9, "10*log10(100) = 20");
        // Average degree stays in the log-like band the paper reports.
        let avg: f64 = report.table.rows()[2][2].parse().unwrap();
        assert!(
            avg > 2.0 && avg < 60.0,
            "avg degree {avg} out of the expected band"
        );
    }

    #[test]
    fn stability_sweep_quick_always_forms_trees() {
        let cfg = StabilityConfig {
            n: 60,
            dims: vec![2, 4],
            ks: vec![1, 3],
            seeds: vec![1, 2],
        };
        let sweep = stability_sweep(&cfg);
        assert_eq!(sweep.rows.len(), 4);
        for row in &sweep.rows {
            assert!(row.tree_ok, "D={} K={}", row.d, row.k);
            assert!(row.heap_ok, "D={} K={}", row.d, row.k);
            assert!(row.diameter >= 1.0);
            assert!(row.max_degree >= 1.0);
        }
        let d_report = sweep.fig1d_report();
        let e_report = sweep.fig1e_report();
        assert_eq!(d_report.table.len(), 2, "one row per K");
        assert_eq!(d_report.table.headers().len(), 3, "K column + one per D");
        assert!(e_report.notes.iter().any(|n| n.contains("true")));
    }

    #[test]
    fn fig1d_and_fig1e_wrappers_agree_with_sweep() {
        let cfg = StabilityConfig {
            n: 40,
            dims: vec![2],
            ks: vec![1, 2],
            seeds: vec![7],
        };
        let sweep = stability_sweep(&cfg);
        assert_eq!(fig1d(&cfg).table, sweep.fig1d_report().table);
        assert_eq!(fig1e(&cfg).table, sweep.fig1e_report().table);
    }
}
