//! §3 — multicast trees with improved stability properties.
//!
//! Every peer `P` knows the moment `T(P)` it will leave the system
//! (cloud lease expiry, sensor battery death) and embeds it as its first
//! coordinate: `x(P,1) = T(P)`. Among its overlay neighbours with
//! strictly larger `T`, each peer periodically selects one **preferred
//! tree neighbour** ([`PreferredPolicy`]; the paper's experiments use the
//! largest-`T` neighbour).
//!
//! Properties (verified by [`StabilityForest`] checks and property
//! tests):
//!
//! * Preferred links never cycle (`T` strictly increases along them), so
//!   the links form a forest; with `N − 1` links (every peer except the
//!   global maximum finds a higher-`T` neighbour) the forest is a
//!   **tree**.
//! * Rooted at the maximum-`T` peer, `T` decreases towards the leaves
//!   (`T(parent) > T(child)` — the heap property).
//! * Consequently a departing peer is always a leaf of the live tree:
//!   departures never disconnect it
//!   ([`non_leaf_departures`] measures exactly this, for §3 trees and
//!   baselines alike).
//!
//! With the Orthogonal Hyperplanes overlay (`K ≥ 1`) the "every non-max
//! peer finds a higher-`T` neighbour" premise holds at equilibrium:
//! peers with larger `T` occupy orthants positive in dimension 1, and
//! every populated orthant contributes at least one selected neighbour.

use geocast_geom::l1;
use geocast_overlay::{OverlayGraph, PeerInfo, TopologyStore};

use crate::tree::MulticastTree;

/// How a peer picks its preferred tree neighbour among overlay
/// neighbours with strictly larger `T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreferredPolicy {
    /// The neighbour with the **largest** `T` — the paper's experimental
    /// configuration ("the overlay neighbour Q with the largest value
    /// T(Q)").
    MaxT,
    /// The neighbour with the **smallest** `T` still above `T(P)`
    /// (a "secondary selection criteria" instance; yields deeper,
    /// thinner trees).
    MinHigherT,
    /// The closest higher-`T` neighbour in L1 (ties by peer id).
    ClosestHigherT,
}

impl PreferredPolicy {
    fn pick(&self, who: &PeerInfo, candidates: &[&PeerInfo]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let best = match self {
            PreferredPolicy::MaxT => candidates
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.departure_time()
                        .total_cmp(&b.departure_time())
                        .then_with(|| b.id().cmp(&a.id()))
                })
                .map(|(i, _)| i),
            PreferredPolicy::MinHigherT => candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.departure_time()
                        .total_cmp(&b.departure_time())
                        .then_with(|| a.id().cmp(&b.id()))
                })
                .map(|(i, _)| i),
            PreferredPolicy::ClosestHigherT => candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = l1(who.point().coords(), a.point().coords());
                    da.total_cmp(&l1(who.point().coords(), b.point().coords()))
                        .then_with(|| a.id().cmp(&b.id()))
                })
                .map(|(i, _)| i),
        };
        best
    }
}

impl std::fmt::Display for PreferredPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreferredPolicy::MaxT => write!(f, "max-T"),
            PreferredPolicy::MinHigherT => write!(f, "min-higher-T"),
            PreferredPolicy::ClosestHigherT => write!(f, "closest-higher-T"),
        }
    }
}

/// The preferred-neighbour links selected by every peer.
///
/// A forest by construction; [`StabilityForest::is_tree`] checks the
/// paper's claim that it is in fact a single tree.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityForest {
    preferred: Vec<Option<usize>>,
}

impl StabilityForest {
    /// The preferred neighbour of each peer (`None` when no overlay
    /// neighbour has larger `T`).
    #[must_use]
    pub fn preferred(&self) -> &[Option<usize>] {
        &self.preferred
    }

    /// Peers with no preferred neighbour (roots of the forest).
    #[must_use]
    pub fn roots(&self) -> Vec<usize> {
        (0..self.preferred.len())
            .filter(|&i| self.preferred[i].is_none())
            .collect()
    }

    /// `true` if the links form a single tree: exactly one root. (Links
    /// are acyclic by `T`-monotonicity, so one root ⇔ `N − 1` edges ⇔
    /// spanning tree.)
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.roots().len() == 1
    }

    /// Converts to a rooted [`MulticastTree`] (parents = preferred
    /// links).
    ///
    /// Returns `None` unless the forest is a single tree.
    #[must_use]
    pub fn to_multicast_tree(&self) -> Option<MulticastTree> {
        let roots = self.roots();
        let [root] = roots[..] else {
            return None;
        };
        Some(MulticastTree::from_parents(
            root,
            self.preferred.clone(),
            vec![true; self.preferred.len()],
        ))
    }

    /// Verifies the heap property: every preferred neighbour has a
    /// strictly larger `T` than the peer pointing at it.
    #[must_use]
    pub fn heap_property_holds(&self, peers: &[PeerInfo]) -> bool {
        self.preferred
            .iter()
            .enumerate()
            .all(|(i, pref)| match pref {
                Some(p) => peers[*p].departure_time() > peers[i].departure_time(),
                None => true,
            })
    }

    /// Incrementally refreshes the forest after a membership change on
    /// `store`: only the peers in `delta` (the store's dirty region —
    /// exactly the peers whose undirected neighbourhood changed) re-run
    /// their preferred-neighbour pick. New peers extend the forest;
    /// departed peers drop their link.
    ///
    /// Equivalent to re-running [`preferred_links_on_store`] from
    /// scratch (property-tested), at `O(|delta| · deg)` instead of
    /// `O(N · deg)` per event.
    ///
    /// # Panics
    ///
    /// Panics if any delta index exceeds the store's peer count.
    pub fn refresh_on_store(
        &mut self,
        store: &TopologyStore,
        policy: PreferredPolicy,
        delta: &[usize],
    ) {
        self.preferred.resize(store.len(), None);
        for &i in delta {
            self.preferred[i] = pick(store.peers(), i, store.neighbors(i), policy);
        }
    }
}

/// Peer `i`'s preferred pick among its undirected `neighbors`: `None`
/// when none of them outlives it, so a departed peer, whose row is
/// empty, picks nobody.
fn pick(
    peers: &[PeerInfo],
    i: usize,
    neighbors: impl IntoIterator<Item = usize>,
    policy: PreferredPolicy,
) -> Option<usize> {
    let who = &peers[i];
    let higher: Vec<&PeerInfo> = (neighbors.into_iter())
        .map(|j| &peers[j])
        .filter(|q| q.departure_time() > who.departure_time())
        .collect();
    policy.pick(who, &higher).map(|ci| higher[ci].id().index())
}

/// Runs the §3 selection: every peer picks a preferred tree neighbour
/// among its (undirected) overlay neighbours with strictly larger `T`.
///
/// # Panics
///
/// Panics if `peers` and `overlay` sizes disagree.
#[must_use]
pub fn preferred_links(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    policy: PreferredPolicy,
) -> StabilityForest {
    assert_eq!(peers.len(), overlay.len(), "peer/overlay size mismatch");
    let adj = overlay.undirected_closure();
    let preferred = (0..peers.len())
        .map(|i| pick(peers, i, adj.out_neighbors(i).iter().copied(), policy))
        .collect();
    StabilityForest { preferred }
}

/// [`preferred_links`] over a [`TopologyStore`]'s
/// incrementally-maintained equilibrium: neighbourhoods come straight
/// from the store's forward + reverse adjacency, no graph or closure is
/// materialized. Departed peers get no preferred link (and, having no
/// edges, are nobody's).
#[must_use]
pub fn preferred_links_on_store(store: &TopologyStore, policy: PreferredPolicy) -> StabilityForest {
    let preferred = (0..store.len())
        .map(|i| pick(store.peers(), i, store.neighbors(i), policy))
        .collect();
    StabilityForest { preferred }
}

/// Replays the full departure schedule (every peer leaves at its `T`)
/// against a tree and counts the departures that disconnect it: nodes
/// whose *live* tree degree (live parent plus live children) is ≥ 2 at
/// the moment they leave.
///
/// For §3 stability trees this is provably zero; for baseline trees it
/// quantifies the introduction's claim that existing structures are
/// "very sensitive to node departures".
///
/// # Panics
///
/// Panics if `times.len() != tree.len()`.
#[must_use]
pub fn non_leaf_departures(tree: &MulticastTree, times: &[f64]) -> usize {
    assert_eq!(
        times.len(),
        tree.len(),
        "one departure time per peer required"
    );
    let n = tree.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let mut departed = vec![false; n];
    let mut disconnections = 0usize;
    for &v in &order {
        if !tree.is_reached(v) {
            departed[v] = true;
            continue;
        }
        let live_parent = tree.parent(v).is_some_and(|p| !departed[p]);
        let live_children = tree.children(v).iter().filter(|&&c| !departed[c]).count();
        if usize::from(live_parent) + live_children >= 2 {
            disconnections += 1;
        }
        departed[v] = true;
    }
    disconnections
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
    use geocast_overlay::select::HyperplanesSelection;
    use geocast_overlay::PeerId;
    use std::sync::Arc;

    /// The §3 experimental setup: uniform coordinates, random distinct
    /// lifetimes embedded as x1, Orthogonal Hyperplanes overlay.
    fn setup(n: usize, dim: usize, k: usize, seed: u64) -> TopologyStore {
        let base = uniform_points(n, dim, 1000.0, seed);
        let times = lifetimes(n, 1000.0, seed ^ 0xabcdef);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let sel = HyperplanesSelection::orthogonal(dim, k);
        TopologyStore::from_peers(peers, Arc::new(sel))
    }

    #[test]
    fn preferred_links_form_a_tree_with_heap_property() {
        for (dim, k) in [(2usize, 1usize), (3, 2), (5, 1), (2, 5)] {
            let store = setup(80, dim, k, dim as u64 * 31 + k as u64);
            let (peers, overlay) = (store.peers(), store.graph());
            let forest = preferred_links(peers, &overlay, PreferredPolicy::MaxT);
            assert!(forest.is_tree(), "D={dim} K={k}: not a tree");
            assert!(
                forest.heap_property_holds(peers),
                "D={dim} K={k}: heap violated"
            );
            let tree = forest.to_multicast_tree().expect("single tree");
            assert_eq!(tree.validate(), Ok(()));
            assert!(tree.is_spanning());
        }
    }

    #[test]
    fn the_root_is_the_longest_lived_peer() {
        let store = setup(60, 2, 2, 7);
        let (peers, overlay) = (store.peers(), store.graph());
        let forest = preferred_links(peers, &overlay, PreferredPolicy::MaxT);
        let tree = forest.to_multicast_tree().unwrap();
        let max_t = (0..peers.len())
            .max_by(|&a, &b| {
                peers[a]
                    .departure_time()
                    .total_cmp(&peers[b].departure_time())
            })
            .unwrap();
        assert_eq!(tree.root(), max_t);
    }

    #[test]
    fn departures_never_disconnect_stability_trees() {
        for policy in [
            PreferredPolicy::MaxT,
            PreferredPolicy::MinHigherT,
            PreferredPolicy::ClosestHigherT,
        ] {
            let store = setup(100, 3, 1, 13);
            let (peers, overlay) = (store.peers(), store.graph());
            let forest = preferred_links(peers, &overlay, policy);
            assert!(forest.is_tree(), "{policy}");
            let tree = forest.to_multicast_tree().unwrap();
            let times: Vec<f64> = peers.iter().map(PeerInfo::departure_time).collect();
            assert_eq!(non_leaf_departures(&tree, &times), 0, "{policy}");
        }
    }

    #[test]
    fn alternative_policies_also_satisfy_heap_property() {
        let store = setup(70, 2, 3, 17);
        let (peers, overlay) = (store.peers(), store.graph());
        for policy in [PreferredPolicy::MinHigherT, PreferredPolicy::ClosestHigherT] {
            let forest = preferred_links(peers, &overlay, policy);
            assert!(forest.heap_property_holds(peers), "{policy}");
        }
    }

    #[test]
    fn min_higher_t_yields_deeper_trees_than_max_t() {
        // Chaining through the next-higher T produces long chains; going
        // straight to the maximum produces shallow stars. Not a theorem,
        // but robust on uniform workloads — treat as a smoke test of the
        // policies actually differing.
        let store = setup(150, 2, 10, 23);
        let (peers, overlay) = (store.peers(), store.graph());
        let max_t = preferred_links(peers, &overlay, PreferredPolicy::MaxT)
            .to_multicast_tree()
            .unwrap();
        let min_t = preferred_links(peers, &overlay, PreferredPolicy::MinHigherT)
            .to_multicast_tree()
            .unwrap();
        assert!(
            min_t.longest_root_to_leaf() > max_t.longest_root_to_leaf(),
            "min {} vs max {}",
            min_t.longest_root_to_leaf(),
            max_t.longest_root_to_leaf()
        );
    }

    #[test]
    fn store_backed_preferred_links_match_graph_backed() {
        use std::sync::Arc;
        let base = uniform_points(60, 3, 1000.0, 33);
        let times = lifetimes(60, 1000.0, 34);
        let points = embed_lifetimes(&base, &times);
        let sel = Arc::new(HyperplanesSelection::orthogonal(3, 2));
        let mut store = TopologyStore::new(sel);
        for p in points.into_points() {
            store.insert(p);
        }
        // Every policy, on the full population and after each of a few
        // departures: a departed peer's empty row picks nobody.
        let policies = [
            PreferredPolicy::MaxT,
            PreferredPolicy::MinHigherT,
            PreferredPolicy::ClosestHigherT,
        ];
        for departed in [None, Some(7u64), Some(21), Some(40), Some(59)] {
            if let Some(victim) = departed {
                store.remove(PeerId(victim));
            }
            for policy in policies {
                let via_store = preferred_links_on_store(&store, policy);
                let via_graph = preferred_links(store.peers(), &store.graph(), policy);
                assert_eq!(via_store, via_graph, "{policy} after {departed:?}");
            }
        }
    }

    #[test]
    fn incremental_forest_refresh_equals_from_scratch_under_churn() {
        use std::sync::Arc;
        let base = uniform_points(50, 2, 1000.0, 35);
        let times = lifetimes(50, 1000.0, 36);
        let points = embed_lifetimes(&base, &times).into_points();
        let sel = Arc::new(HyperplanesSelection::orthogonal(2, 1));
        let mut store = TopologyStore::new(Arc::clone(&sel) as _);
        let mut forest = preferred_links_on_store(&store, PreferredPolicy::MaxT);
        // Joins: refresh after each event with that event's delta.
        for p in &points {
            store.insert(p.clone());
            let dirty = &store.delta_log().newest().unwrap().dirty;
            forest.refresh_on_store(&store, PreferredPolicy::MaxT, dirty);
            assert_eq!(
                forest,
                preferred_links_on_store(&store, PreferredPolicy::MaxT),
                "forest diverged after join {}",
                store.len()
            );
        }
        // Leaves: same contract.
        for victim in [8u64, 19, 42] {
            store.remove(PeerId(victim));
            let dirty = &store.delta_log().newest().unwrap().dirty;
            forest.refresh_on_store(&store, PreferredPolicy::MaxT, dirty);
            assert_eq!(
                forest,
                preferred_links_on_store(&store, PreferredPolicy::MaxT),
                "forest diverged after leave {victim}"
            );
        }
    }

    #[test]
    fn non_leaf_departures_counts_bad_trees_honestly() {
        // A star rooted at the *shortest*-lived peer: its departure
        // (first) severs everyone.
        let n = 5;
        let tree = MulticastTree::from_parents(
            0,
            vec![None, Some(0), Some(0), Some(0), Some(0)],
            vec![true; n],
        );
        let times = vec![1.0, 2.0, 3.0, 4.0, 5.0]; // root leaves first
        assert_eq!(non_leaf_departures(&tree, &times), 1);

        // Same star, root leaves last: every other departure is a leaf,
        // and by the root's turn only it remains.
        let times = vec![9.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(non_leaf_departures(&tree, &times), 0);
    }

    #[test]
    fn chain_tree_departure_order_matters() {
        // Chain 0-1-2-3 (0 root). Departing 1 while 0,2 live disconnects.
        let tree =
            MulticastTree::from_parents(0, vec![None, Some(0), Some(1), Some(2)], vec![true; 4]);
        let inner_first = vec![2.0, 1.0, 3.0, 4.0];
        assert_eq!(non_leaf_departures(&tree, &inner_first), 1);
        let leaf_first = vec![4.0, 3.0, 2.0, 1.0];
        assert_eq!(non_leaf_departures(&tree, &leaf_first), 0);
    }

    #[test]
    fn isolated_max_t_breaks_tree_but_is_detected() {
        // Overlay where the max-T peer is unreachable: peer 3 (largest T)
        // has no links, so peers can't chain to it; the forest has >1
        // root and is_tree() reports it.
        let base = uniform_points(4, 2, 1000.0, 31);
        let times = vec![10.0, 20.0, 30.0, 40.0];
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let overlay = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0], vec![0], vec![]]);
        let forest = preferred_links(&peers, &overlay, PreferredPolicy::MaxT);
        assert!(!forest.is_tree());
        assert!(forest.to_multicast_tree().is_none());
        assert!(forest.roots().contains(&3));
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(PreferredPolicy::MaxT.to_string(), "max-T");
        assert_eq!(PreferredPolicy::MinHigherT.to_string(), "min-higher-T");
        assert_eq!(
            PreferredPolicy::ClosestHigherT.to_string(),
            "closest-higher-T"
        );
    }
}
