//! Baseline multicast strategies.
//!
//! The paper's introduction motivates the contribution by two failure
//! modes of existing solutions: they "send many messages for
//! constructing the tree" and are "very sensitive to node departures".
//! These baselines make both claims measurable:
//!
//! * [`flood`] — blind overlay flooding: every reached peer forwards to
//!   all neighbours except the sender. Reaches everyone a connected
//!   overlay can reach, but with `Θ(E)` messages instead of `N − 1`.
//! * [`bfs_tree`] — the first-receipt tree flooding induces (what
//!   unstructured protocols typically keep as their dissemination tree).
//! * [`random_parent_tree`] — a random spanning tree: peers attach to a
//!   uniformly random already-reached overlay neighbour, modelling
//!   join-order trees with no structural discipline.
//!
//! All baselines produce [`MulticastTree`]s, so every §2/§3 analysis
//! (path lengths, diameter, degree, [`crate::stability::non_leaf_departures`])
//! applies to them unchanged.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_overlay::OverlayGraph;

use crate::tree::MulticastTree;

/// Outcome of a flooding dissemination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodResult {
    /// The first-receipt (BFS) tree.
    pub tree: MulticastTree,
    /// Total messages sent: the root forwards to all its neighbours,
    /// every other reached peer to all neighbours except its parent.
    pub messages: usize,
    /// Deliveries beyond the first per peer (`messages − (reached − 1)`).
    pub duplicates: usize,
}

/// Floods a message from `root` over the undirected overlay and accounts
/// for the traffic.
///
/// # Panics
///
/// Panics if `root` is out of range.
#[must_use]
pub fn flood(overlay: &OverlayGraph, root: usize) -> FloodResult {
    let adj = overlay.undirected_closure();
    assert!(root < adj.len(), "root out of range");
    let n = adj.len();
    let mut parent = vec![None; n];
    let mut reached = vec![false; n];
    reached[root] = true;
    let mut messages = 0usize;
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for &v in adj.out_neighbors(u) {
            if Some(v) == parent[u] {
                continue; // nobody echoes straight back to the sender
            }
            messages += 1;
            if !reached[v] {
                reached[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    let tree = MulticastTree::from_parents(root, parent, reached);
    let duplicates = messages - (tree.reached_count() - 1);
    FloodResult {
        tree,
        messages,
        duplicates,
    }
}

/// The breadth-first spanning tree of the undirected overlay from
/// `root` — flooding's first-receipt tree without the traffic
/// accounting.
///
/// # Panics
///
/// Panics if `root` is out of range.
#[must_use]
pub fn bfs_tree(overlay: &OverlayGraph, root: usize) -> MulticastTree {
    flood(overlay, root).tree
}

/// A random spanning tree: processes peers in random frontier order and
/// attaches each newly reached peer to a uniformly random already-reached
/// overlay neighbour.
///
/// Models trees produced by uncoordinated join order. Reproducible per
/// seed.
///
/// # Panics
///
/// Panics if `root` is out of range.
#[must_use]
pub fn random_parent_tree(overlay: &OverlayGraph, root: usize, seed: u64) -> MulticastTree {
    let adj = overlay.undirected_closure();
    assert!(root < adj.len(), "root out of range");
    let n = adj.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parent = vec![None; n];
    let mut reached = vec![false; n];
    reached[root] = true;
    // Frontier of (unreached) peers adjacent to the reached set.
    let mut frontier: Vec<usize> = Vec::new();
    let mut in_frontier = vec![false; n];
    for &v in adj.out_neighbors(root) {
        frontier.push(v);
        in_frontier[v] = true;
    }
    while !frontier.is_empty() {
        let pick = rng.random_range(0..frontier.len());
        let v = frontier.swap_remove(pick);
        in_frontier[v] = false;
        let reached_nbrs: Vec<usize> = adj
            .out_neighbors(v)
            .iter()
            .copied()
            .filter(|&u| reached[u])
            .collect();
        let p = reached_nbrs[rng.random_range(0..reached_nbrs.len())];
        parent[v] = Some(p);
        reached[v] = true;
        for &w in adj.out_neighbors(v) {
            if !reached[w] && !in_frontier[w] {
                frontier.push(w);
                in_frontier[w] = true;
            }
        }
    }
    MulticastTree::from_parents(root, parent, reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::{select::EmptyRectSelection, PeerInfo, TopologyStore};
    use std::sync::Arc;

    fn overlay(n: usize, seed: u64) -> OverlayGraph {
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph()
    }

    #[test]
    fn flood_reaches_everyone_with_duplicates() {
        let g = overlay(60, 1);
        let result = flood(&g, 0);
        assert!(result.tree.is_spanning());
        assert!(
            result.messages > 59,
            "flooding must cost more than the N-1 optimum, got {}",
            result.messages
        );
        assert_eq!(result.duplicates, result.messages - 59);
        assert_eq!(result.tree.validate(), Ok(()));
    }

    #[test]
    fn flood_message_count_matches_degree_formula() {
        // Root sends deg(root); every other reached peer sends deg(v)-1.
        let g = overlay(40, 3);
        let result = flood(&g, 5);
        let expected: usize = g
            .undirected_degrees()
            .into_iter()
            .enumerate()
            .map(|(v, deg)| if v == 5 { deg } else { deg.saturating_sub(1) })
            .sum();
        assert_eq!(result.messages, expected);
    }

    #[test]
    fn bfs_tree_depths_are_graph_distances() {
        let g = overlay(50, 5);
        let tree = bfs_tree(&g, 2);
        let depths = tree.depths();
        let dists = g.bfs_distances(2);
        for i in 0..g.len() {
            assert_eq!(depths[i], dists[i], "peer {i}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index is a peer id across several tables
    fn random_tree_spans_and_validates() {
        let g = overlay(70, 7);
        for seed in 0..5 {
            let tree = random_parent_tree(&g, 0, seed);
            assert!(tree.is_spanning(), "seed {seed}");
            assert_eq!(tree.validate(), Ok(()), "seed {seed}");
            // Tree edges are overlay edges.
            let adj = g.undirected_closure();
            for v in 0..g.len() {
                if let Some(p) = tree.parent(v) {
                    assert!(
                        adj.out_neighbors(v).contains(&p),
                        "non-overlay edge {v}-{p}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_tree_is_reproducible_and_seed_sensitive() {
        let g = overlay(40, 9);
        assert_eq!(random_parent_tree(&g, 0, 4), random_parent_tree(&g, 0, 4));
        // Two seeds agreeing everywhere is vanishingly unlikely.
        assert_ne!(random_parent_tree(&g, 0, 4), random_parent_tree(&g, 0, 5));
    }

    #[test]
    fn disconnected_overlay_floods_partially() {
        let g = OverlayGraph::from_out_neighbors(vec![vec![1], vec![], vec![3], vec![]]);
        let result = flood(&g, 0);
        assert!(!result.tree.is_spanning());
        assert_eq!(result.tree.reached_count(), 2);
        assert_eq!(result.messages, 1);
        let tree = random_parent_tree(&g, 2, 0);
        assert_eq!(tree.reached_count(), 2);
        assert!(tree.is_reached(3));
    }

    #[test]
    fn singleton_graph_baselines() {
        let g = OverlayGraph::from_out_neighbors(vec![vec![]]);
        let result = flood(&g, 0);
        assert_eq!(result.messages, 0);
        assert!(result.tree.is_spanning());
        let tree = random_parent_tree(&g, 0, 0);
        assert!(tree.is_spanning());
    }
}
