//! Structural analysis of converged overlays.
//!
//! Beyond the degree measurements of Fig. 1a/1c, an overlay's usefulness
//! for multicast embedding depends on its hop distances, clustering and
//! how faithfully hops track geometric distance. This module computes
//! those properties; the CLI and the analysis example report them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::{Metric, MetricKind};

use crate::graph::OverlayGraph;
use crate::peer::PeerInfo;

/// A structural profile of an overlay topology.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayProfile {
    /// Number of peers.
    pub peers: usize,
    /// Directed edges (selections).
    pub directed_edges: usize,
    /// Undirected links (mutual closure).
    pub undirected_edges: usize,
    /// Minimum / mean / maximum undirected degree.
    pub degree_min: usize,
    /// Mean undirected degree.
    pub degree_mean: f64,
    /// Maximum undirected degree.
    pub degree_max: usize,
    /// Fraction of selections that are mutual.
    pub link_symmetry: f64,
    /// `true` if all peers are mutually reachable.
    pub connected: bool,
    /// Mean hop distance over sampled pairs.
    pub mean_hop_distance: f64,
    /// Largest hop distance observed over sampled sources (lower bound
    /// on the diameter; exact when every source is sampled).
    pub hop_eccentricity_max: usize,
    /// Mean local clustering coefficient.
    pub clustering_coefficient: f64,
}

/// Computes an overlay profile. `sample_sources` bounds the number of
/// BFS sources used for distance statistics (all peers when `None`),
/// chosen deterministically from `seed`.
///
/// # Panics
///
/// Panics if the graph is empty.
#[must_use]
pub fn profile(graph: &OverlayGraph, sample_sources: Option<usize>, seed: u64) -> OverlayProfile {
    assert!(!graph.is_empty(), "cannot profile an empty overlay");
    let n = graph.len();
    let adj = graph.undirected_closure();
    let degrees: Vec<usize> = (0..n).map(|i| adj.out_neighbors(i).len()).collect();
    let undirected_edges = degrees.iter().sum::<usize>() / 2;

    // Symmetry: fraction of directed selections whose reverse exists.
    let mut mutual = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for &j in graph.out_neighbors(i) {
            total += 1;
            if graph.out_neighbors(j).binary_search(&i).is_ok() {
                mutual += 1;
            }
        }
    }
    let link_symmetry = if total == 0 {
        1.0
    } else {
        mutual as f64 / total as f64
    };

    // Hop distances over sampled sources.
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<usize> = match sample_sources {
        Some(k) if k < n => {
            let mut picked: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.random_range(i..n);
                picked.swap(i, j);
            }
            picked.truncate(k);
            picked
        }
        _ => (0..n).collect(),
    };
    let mut connected = true;
    let mut hop_sum = 0u64;
    let mut hop_count = 0u64;
    let mut ecc_max = 0usize;
    for &s in &sources {
        let dist = graph.bfs_distances(s);
        for (i, d) in dist.iter().enumerate() {
            match d {
                Some(d) => {
                    if i != s {
                        hop_sum += *d as u64;
                        hop_count += 1;
                        ecc_max = ecc_max.max(*d);
                    }
                }
                None => connected = false,
            }
        }
    }
    let mean_hop_distance = if hop_count == 0 {
        0.0
    } else {
        hop_sum as f64 / hop_count as f64
    };

    // Local clustering: fraction of a peer's neighbour pairs that are
    // themselves linked.
    let mut clustering_sum = 0.0;
    let mut clustering_count = 0usize;
    for i in 0..n {
        let nbrs = adj.out_neighbors(i);
        if nbrs.len() < 2 {
            continue;
        }
        let mut closed = 0usize;
        let mut pairs = 0usize;
        for (a_idx, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[a_idx + 1..] {
                pairs += 1;
                if adj.out_neighbors(a).binary_search(&b).is_ok() {
                    closed += 1;
                }
            }
        }
        clustering_sum += closed as f64 / pairs as f64;
        clustering_count += 1;
    }
    let clustering_coefficient = if clustering_count == 0 {
        0.0
    } else {
        clustering_sum / clustering_count as f64
    };

    OverlayProfile {
        peers: n,
        directed_edges: graph.directed_edge_count(),
        undirected_edges,
        degree_min: degrees.iter().copied().min().unwrap_or(0),
        degree_mean: degrees.iter().sum::<usize>() as f64 / n as f64,
        degree_max: degrees.iter().copied().max().unwrap_or(0),
        link_symmetry,
        connected,
        mean_hop_distance,
        hop_eccentricity_max: ecc_max,
        clustering_coefficient,
    }
}

/// Geometric stretch: for sampled peer pairs, the ratio between the
/// overlay hop distance and the (normalised) geometric distance —
/// quantifying how well hops track the virtual coordinates. Returns the
/// mean ratio of hop distance to `dist / mean_link_length` (values near
/// 1 mean hops are geometrically efficient).
///
/// # Panics
///
/// Panics if sizes disagree or fewer than 2 peers exist.
#[must_use]
pub fn geometric_stretch(
    peers: &[PeerInfo],
    graph: &OverlayGraph,
    metric: MetricKind,
    pairs: usize,
    seed: u64,
) -> f64 {
    assert_eq!(peers.len(), graph.len(), "peer/overlay size mismatch");
    assert!(peers.len() >= 2, "stretch needs at least two peers");
    let adj = graph.undirected_closure();

    // Mean geometric length of an overlay link, the natural yardstick.
    let mut link_len_sum = 0.0;
    let mut link_count = 0usize;
    for i in 0..peers.len() {
        for &j in adj.out_neighbors(i) {
            if j > i {
                link_len_sum += metric.dist(peers[i].point(), peers[j].point());
                link_count += 1;
            }
        }
    }
    if link_count == 0 {
        return f64::INFINITY;
    }
    let mean_link = link_len_sum / link_count as f64;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut ratio_sum = 0.0;
    let mut measured = 0usize;
    for _ in 0..pairs {
        let a = rng.random_range(0..peers.len());
        let b = rng.random_range(0..peers.len());
        if a == b {
            continue;
        }
        let Some(hops) = graph.bfs_distances(a)[b] else {
            continue;
        };
        let geo = metric.dist(peers[a].point(), peers[b].point());
        if geo > 0.0 {
            ratio_sum += hops as f64 / (geo / mean_link);
            measured += 1;
        }
    }
    if measured == 0 {
        f64::INFINITY
    } else {
        ratio_sum / measured as f64
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::select::EmptyRectSelection;
    use crate::TopologyStore;
    use geocast_geom::gen::uniform_points;

    fn overlay(n: usize, seed: u64) -> TopologyStore {
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
    }

    #[test]
    fn profile_of_equilibrium_overlay_is_sane() {
        let graph = overlay(80, 1).graph();
        let p = profile(&graph, None, 0);
        assert_eq!(p.peers, 80);
        assert!(p.connected);
        assert_eq!(p.link_symmetry, 1.0, "empty-rect equilibrium is symmetric");
        assert!(p.degree_min >= 1);
        assert!(p.degree_mean > 1.0);
        assert!(p.degree_max >= p.degree_min);
        assert!(p.mean_hop_distance >= 1.0);
        assert!(p.hop_eccentricity_max >= p.mean_hop_distance as usize);
        assert!((0.0..=1.0).contains(&p.clustering_coefficient));
    }

    #[test]
    fn sampled_profile_matches_exhaustive_on_connectivity() {
        let graph = overlay(60, 3).graph();
        let full = profile(&graph, None, 0);
        let sampled = profile(&graph, Some(10), 7);
        assert_eq!(full.connected, sampled.connected);
        assert_eq!(full.degree_max, sampled.degree_max);
        // Sampled mean hop distance approximates the exhaustive one.
        assert!((full.mean_hop_distance - sampled.mean_hop_distance).abs() < 1.5);
    }

    #[test]
    fn profile_detects_disconnection() {
        let graph = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0], vec![]]);
        let p = profile(&graph, None, 0);
        assert!(!p.connected);
    }

    #[test]
    fn path_graph_statistics_are_exact() {
        // 0 - 1 - 2: mean hops = (1+2+1+1+2+1)/6 = 4/3, ecc 2, clustering 0.
        let graph = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0, 2], vec![1]]);
        let p = profile(&graph, None, 0);
        assert!((p.mean_hop_distance - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.hop_eccentricity_max, 2);
        assert_eq!(p.clustering_coefficient, 0.0);
        assert_eq!(p.undirected_edges, 2);
    }

    #[test]
    fn triangle_has_full_clustering() {
        let graph = OverlayGraph::from_out_neighbors(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        let p = profile(&graph, None, 0);
        assert_eq!(p.clustering_coefficient, 1.0);
        assert_eq!(p.mean_hop_distance, 1.0);
    }

    #[test]
    fn stretch_is_finite_and_reasonable_on_equilibrium() {
        let store = overlay(100, 5);
        let graph = store.graph();
        let s = geometric_stretch(store.peers(), &graph, MetricKind::L1, 200, 11);
        assert!(s.is_finite());
        // Hops should track geometry within a small constant factor on
        // the frontier overlay.
        assert!(s > 0.3 && s < 10.0, "stretch {s}");
    }

    #[test]
    fn stretch_of_linkless_graph_is_infinite() {
        let peers = PeerInfo::from_point_set(&uniform_points(3, 2, 100.0, 7));
        let graph = OverlayGraph::from_out_neighbors(vec![vec![], vec![], vec![]]);
        assert_eq!(
            geometric_stretch(&peers, &graph, MetricKind::L1, 10, 0),
            f64::INFINITY
        );
    }

    #[test]
    fn stretch_is_seed_deterministic() {
        let store = overlay(50, 9);
        let graph = store.graph();
        let a = geometric_stretch(store.peers(), &graph, MetricKind::L2, 100, 3);
        let b = geometric_stretch(store.peers(), &graph, MetricKind::L2, 100, 3);
        assert_eq!(a, b);
    }
}
