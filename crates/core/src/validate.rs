//! Executable checks for the paper's in-text claims.
//!
//! Each function verifies one claim from §2 or §3 against a concrete run
//! and returns a structured verdict; the `claims` benchmark and the
//! integration suites print/assert them. Keeping the claims as library
//! code (rather than ad-hoc test assertions) lets the benchmark harness
//! regenerate the claims table (`geocast figures --panel claims`).

use geocast_overlay::{OverlayGraph, PeerInfo};

use crate::builder::BuildResult;
use crate::stability::{non_leaf_departures, preferred_links, PreferredPolicy, StabilityForest};

/// Verdict for the §2 claims on one construction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section2Verdict {
    /// "The algorithm sends N − 1 messages."
    pub messages_are_n_minus_one: bool,
    /// Every peer received the request (spanning tree).
    pub all_peers_reached: bool,
    /// The §2 partitioner delegates at most one child per orthant, so
    /// the number of children never exceeds `2^D`.
    pub children_within_orthant_bound: bool,
    /// The tree passed structural validation.
    pub tree_is_consistent: bool,
}

impl Section2Verdict {
    /// `true` when every §2 claim held.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.messages_are_n_minus_one
            && self.all_peers_reached
            && self.children_within_orthant_bound
            && self.tree_is_consistent
    }
}

/// Checks the §2 claims against a build result.
#[must_use]
pub fn check_section2(result: &BuildResult, n: usize, dim: usize) -> Section2Verdict {
    Section2Verdict {
        messages_are_n_minus_one: result.messages == n.saturating_sub(1),
        all_peers_reached: result.tree.is_spanning(),
        children_within_orthant_bound: result.tree.max_children() <= 1usize << dim,
        tree_is_consistent: result.tree.validate().is_ok(),
    }
}

/// Verdict for the §3 claims on one overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section3Verdict {
    /// "The preferred neighbour links indeed formed a tree."
    pub links_form_tree: bool,
    /// "T(A) > T(B) for every parent A of B."
    pub heap_property: bool,
    /// Replaying all departures disconnects nothing.
    pub departures_never_disconnect: bool,
}

impl Section3Verdict {
    /// `true` when every §3 claim held.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.links_form_tree && self.heap_property && self.departures_never_disconnect
    }
}

/// Runs the §3 selection on `overlay` and checks the section's claims.
#[must_use]
pub fn check_section3(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    policy: PreferredPolicy,
) -> Section3Verdict {
    let forest = preferred_links(peers, overlay, policy);
    verdict_from_forest(&forest, peers)
}

fn verdict_from_forest(forest: &StabilityForest, peers: &[PeerInfo]) -> Section3Verdict {
    let links_form_tree = forest.is_tree();
    let heap_property = forest.heap_property_holds(peers);
    let departures_never_disconnect = match forest.to_multicast_tree() {
        Some(tree) => {
            let times: Vec<f64> = peers.iter().map(PeerInfo::departure_time).collect();
            non_leaf_departures(&tree, &times) == 0
        }
        None => false,
    };
    Section3Verdict {
        links_form_tree,
        heap_property,
        departures_never_disconnect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::build_group_tree_on_store;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
    use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
    use geocast_overlay::TopologyStore;
    use std::sync::Arc;

    #[test]
    fn section2_claims_hold_at_equilibrium() {
        // (N, D, seed): the last seven are the sizes the paper's Fig. 1(b),
        // §2 claims, flooding baseline and child-pick ablation build at.
        for (n, dim, seed) in [
            (80usize, 3usize, 2u64),
            (200, 2, 1),
            (500, 2, 1),
            (200, 5, 1),
            (100, 2, 1),
            (300, 2, 1),
            (400, 2, 1),
        ] {
            let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
            let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
            let everyone = (0..store.len()).collect();
            for partitioner in [
                OrthantRectPartitioner::median(),
                OrthantRectPartitioner::closest(),
                OrthantRectPartitioner::farthest(),
            ] {
                let result = build_group_tree_on_store(&store, 0, &everyone, &partitioner);
                let verdict = check_section2(&result, n, dim);
                assert!(verdict.all_hold(), "N={n} D={dim}: {verdict:?}");
            }
        }
    }

    #[test]
    fn section2_verdict_detects_partial_delivery() {
        // A tree over the root and one neighbour of it, of 40 peers.
        let peers = PeerInfo::from_point_set(&uniform_points(40, 2, 1000.0, 3));
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let pair = [0, store.out_neighbors(0)[0]].into();
        let median = OrthantRectPartitioner::median();
        let result = build_group_tree_on_store(&store, 0, &pair, &median);
        assert_eq!(result.messages, 1);
        let verdict = check_section2(&result, store.len(), 2);
        assert!(!verdict.all_hold());
        assert!(!verdict.all_peers_reached);
        assert!(!verdict.messages_are_n_minus_one);
        assert!(
            verdict.tree_is_consistent,
            "partial trees are still consistent"
        );
    }

    #[test]
    fn section3_claims_hold_on_orthogonal_overlay() {
        let base = uniform_points(90, 4, 1000.0, 5);
        let times = lifetimes(90, 1000.0, 6);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let sel = HyperplanesSelection::orthogonal(4, 2);
        let store = TopologyStore::from_peers(peers, Arc::new(sel));
        let verdict = check_section3(store.peers(), &store.graph(), PreferredPolicy::MaxT);
        assert!(verdict.all_hold(), "{verdict:?}");
    }

    #[test]
    fn section3_verdict_detects_broken_overlay() {
        let base = uniform_points(4, 2, 1000.0, 7);
        let times = vec![1.0, 2.0, 3.0, 4.0];
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        // Max-T peer isolated.
        let overlay = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0], vec![0], vec![]]);
        let verdict = check_section3(&peers, &overlay, PreferredPolicy::MaxT);
        assert!(!verdict.links_form_tree);
        assert!(!verdict.departures_never_disconnect);
        assert!(
            verdict.heap_property,
            "heap property holds vacuously per link"
        );
    }
}
