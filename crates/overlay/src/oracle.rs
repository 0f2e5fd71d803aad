//! Equilibrium topologies computed with full knowledge.
//!
//! The paper defines the target of gossip convergence as the topology
//! "obtained when every peer P knows all the other peers in the system
//! (i.e. when I(P) contains all the peers except P)". This module
//! computes that topology from the definition: it is the reference the
//! incremental store and the gossip protocol are compared against, not a
//! way to build an overlay — [`crate::TopologyStore::from_peers`] is the
//! one construction path.
//!
//! # The reference for the incremental store
//!
//! [`crate::TopologyStore`] maintains the same topology under churn
//! without ever recomputing it. What it must hold after any sequence of
//! joins and leaves is defined here, from scratch and with no index:
//! [`equilibrium_live`] (the adjacency), [`fingerprint`] (the rolling
//! hash a store reports) and [`dirty_region`] (what one event's delta
//! must list). They are what tests and strict gates compare a store
//! against, never a way to run one.

use std::collections::BTreeSet;

use geocast_geom::{l1, GridIndex};
use geocast_sim::runner::{map_indexed, Grain};

use crate::graph::OverlayGraph;
use crate::peer::PeerInfo;
use crate::select::{ids_in_slice_order, NeighborSelection, SelectContext};
use crate::store::topology_hash;

/// The equilibrium of a population some of whose peers have departed,
/// from the definition: every live peer selects among all other live
/// peers with no index; departed peers keep their vertex, edge-less.
/// What a [`crate::TopologyStore`] over `peers` with this `departed`
/// mask must hold, whatever sequence of events led there. An all-`false`
/// mask gives the equilibrium of the whole population, and peer `i` of
/// the slice is graph vertex `i` whatever its id.
///
/// # Panics
///
/// Panics if `departed` is shorter than `peers`.
#[must_use]
pub fn equilibrium_live<S>(peers: &[PeerInfo], departed: &[bool], selection: &S) -> OverlayGraph
where
    S: NeighborSelection + Sync + ?Sized,
{
    let ctx = SelectContext::without_index().masked(departed);
    OverlayGraph::from_out_neighbors(map_indexed(Grain::PEERS, peers.len(), |i| {
        if departed[i] {
            Vec::new()
        } else {
            selection.select_in(peers, i, &ctx)
        }
    }))
}

/// The fingerprint a [`crate::TopologyStore`] holding `graph` reports:
/// XOR of every vertex's [`topology_hash`], recomputed from scratch.
#[must_use]
pub fn fingerprint(graph: &OverlayGraph) -> u64 {
    (0..graph.len()).fold(0, |acc, i| acc ^ topology_hash(i, graph.out_neighbors(i)))
}

/// The dirty region of the membership event of `peer` that turned the
/// topology `before` into `after`, by definition: the event peer, every
/// peer whose out-list changed, and every peer whose reverse list
/// changed (it entered or left a changed out-list), sorted ascending.
/// A joining peer has no row in `before`; that counts as an empty one.
#[must_use]
// lint:allow(D006, reason = "oracle: the dirty region by definition, which prop_store and prop_shard hold every store delta against")
pub fn dirty_region(before: &OverlayGraph, after: &OverlayGraph, peer: usize) -> Vec<usize> {
    fn row(g: &OverlayGraph, i: usize) -> &[usize] {
        if i < g.len() {
            g.out_neighbors(i)
        } else {
            &[]
        }
    }
    let mut dirty = BTreeSet::from([peer]);
    for i in 0..before.len().max(after.len()) {
        let (old, new) = (row(before, i), row(after, i));
        if old != new {
            dirty.insert(i);
            dirty.extend(old.iter().filter(|j| !new.contains(j)));
            dirty.extend(new.iter().filter(|j| !old.contains(j)));
        }
    }
    dirty.into_iter().collect()
}

/// Equilibrium topologies of the *Orthogonal Hyperplanes* method for a
/// whole sweep of `K` values at once.
///
/// The §3 experiments vary `K` from 1 to 50 for each dimensionality;
/// ranking each peer's orthant groups once (truncated to the largest
/// requested `K`) and taking prefixes makes the sweep one ranking pass
/// plus `O(N·Σk)` assembly instead of 50 independent selections. The
/// result pairs each requested `K` with its topology, in input order.
///
/// Equivalence with the store's bulk build over
/// [`crate::select::HyperplanesSelection::orthogonal`] is asserted by
/// tests, coordinate ties included.
///
/// # Panics
///
/// Panics if any `k == 0` or peers disagree on dimensionality.
#[must_use]
// lint:allow(D006, reason = "the tests' handle on orthogonal_k_sweep_with, the sweep of Fig. 1d / 1e: collects what it streams")
pub fn orthogonal_k_sweep(peers: &[PeerInfo], ks: &[usize]) -> Vec<(usize, OverlayGraph)> {
    let mut out = Vec::with_capacity(ks.len());
    orthogonal_k_sweep_with(peers, ks, |k, graph| out.push((k, graph.clone())));
    out
}

/// Streaming variant of [`orthogonal_k_sweep`]: invokes `visit` with each
/// `(K, topology)` pair in input order, holding only one topology in
/// memory at a time. Use this for large sweeps (e.g. `D = 10`,
/// `K = 1..50` would otherwise hold hundreds of MB of adjacency lists).
///
/// # Panics
///
/// Panics if any `k == 0` or peers disagree on dimensionality.
pub fn orthogonal_k_sweep_with(
    peers: &[PeerInfo],
    ks: &[usize],
    mut visit: impl FnMut(usize, &OverlayGraph),
) {
    assert!(ks.iter().all(|&k| k > 0), "K must be at least 1");
    if peers.is_empty() {
        let empty = OverlayGraph::from_out_neighbors(Vec::new());
        for &k in ks {
            visit(k, &empty);
        }
        return;
    }
    let Some(kmax) = ks.iter().copied().max() else {
        return; // an empty sweep visits nothing
    };
    let sorted_groups = ranked_orthant_groups(peers, kmax);

    for &k in ks {
        let out: Vec<Vec<usize>> = sorted_groups
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .flat_map(|group| group.iter().copied().take(k))
                    .collect()
            })
            .collect();
        let graph = OverlayGraph::from_out_neighbors(out);
        visit(k, &graph);
    }
}

/// For each peer: per-orthant candidate indices ranked by
/// `(distance, id)` ascending, truncated to the best `kmax`, orthants in
/// ascending order (the flattened rows are what the sweep reads). Uses a
/// spatial index when distance ties broken by id and by slice position
/// coincide — it ranks a shared coordinate on the positive side, as the
/// brute ranking does; falls back to the full ranking pass otherwise,
/// and where the index declines (beyond `MAX_INDEX_DIM`).
fn ranked_orthant_groups(peers: &[PeerInfo], kmax: usize) -> Vec<Vec<Vec<usize>>> {
    let dim = peers[0].point().dim();
    assert!(
        peers.iter().all(|p| p.point().dim() == dim),
        "population dimensionality is fixed per overlay"
    );
    let index = ids_in_slice_order(peers).then(|| GridIndex::build(peers));
    map_indexed(Grain::PEERS, peers.len(), |i| {
        if let Some(ix) = &index {
            if let Some(groups) = ix.k_nearest_per_orthant(i, kmax) {
                return groups;
            }
        }
        ranked_orthant_groups_brute(peers, i, dim, kmax)
    })
}

/// The definitional ranking for one peer: classify every other peer
/// into an orthant, sort by orthant and then `(distance, id)`, truncate
/// each orthant's run. A coordinate tie goes to the positive side, as
/// [`geocast_geom::Arrangement::classify`] puts a point on a plane.
/// Only occupied orthants are returned, in ascending order, from one
/// sort — as [`geocast_geom::dominance::group_by_orthant`] does — so
/// the cost does not grow with `2^D`.
fn ranked_orthant_groups_brute(
    peers: &[PeerInfo],
    i: usize,
    dim: usize,
    kmax: usize,
) -> Vec<Vec<usize>> {
    let who = peers[i].point();
    let mut order: Vec<(u64, f64, usize)> = (peers.iter().enumerate())
        .filter(|&(j, _)| j != i)
        .map(|(j, cand)| {
            let orthant = (0..dim)
                .filter(|&d| cand.point()[d] >= who[d])
                .fold(0u64, |bits, d| bits | 1 << d);
            (orthant, l1(who.coords(), cand.point().coords()), j)
        })
        .collect();
    order.sort_unstable_by(|a, b| {
        (a.0.cmp(&b.0))
            .then(a.1.total_cmp(&b.1))
            .then_with(|| peers[a.2].id().cmp(&peers[b.2].id()))
            .then(a.2.cmp(&b.2))
    });
    order
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| run.iter().take(kmax).map(|&(_, _, j)| j).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::peer::PeerId;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use crate::TopologyStore;
    use geocast_geom::gen::uniform_points;
    use geocast_geom::Point;

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    /// The equilibrium of the whole population, from the definition.
    fn definition<S: NeighborSelection + Sync + ?Sized>(
        peers: &[PeerInfo],
        selection: &S,
    ) -> OverlayGraph {
        equilibrium_live(peers, &vec![false; peers.len()], selection)
    }

    /// The store's bulk build over `peers` under `selection`.
    fn bulk_build<S: NeighborSelection + Send + Sync + 'static>(
        peers: &[PeerInfo],
        selection: S,
    ) -> OverlayGraph {
        TopologyStore::from_peers(peers.to_vec(), Arc::new(selection)).graph()
    }

    #[test]
    fn empty_rect_equilibrium_is_symmetric_and_connected() {
        let mut graphs = vec![definition(&peers(120, 2, 3), &EmptyRectSelection)];
        // The store's bulk build at the sizes of the paper's Fig. 1(a)
        // and Fig. 1(c) sweeps.
        for (n, dim) in [(200, 2), (200, 4), (500, 2), (100, 2), (250, 2), (1000, 2)] {
            graphs.push(bulk_build(&peers(n, dim, 1), EmptyRectSelection));
        }
        for g in &graphs {
            assert!(
                g.is_symmetric(),
                "empty-rect links are mutual at equilibrium"
            );
            assert!(g.is_connected_undirected());
        }
    }

    #[test]
    fn empty_k_sweep_is_a_no_op() {
        let population = peers(20, 2, 3);
        assert!(orthogonal_k_sweep(&population, &[]).is_empty());
        assert!(orthogonal_k_sweep(&[], &[]).is_empty());
    }

    #[test]
    fn orthogonal_equilibrium_is_connected() {
        let population = peers(100, 3, 5);
        let sel = HyperplanesSelection::orthogonal(3, 1);
        let g = definition(&population, &sel);
        assert!(g.is_connected_undirected());
    }

    #[test]
    fn equilibrium_indices_skip_self_correctly() {
        // Regression guard for the candidate-position table: no peer may
        // be its own neighbour, and all indices must be valid.
        let population = peers(30, 2, 9);
        let g = definition(&population, &EmptyRectSelection);
        for i in 0..g.len() {
            assert!(!g.out_neighbors(i).contains(&i));
        }
    }

    #[test]
    fn engine_equals_brute_force_on_both_rules() {
        // The store's indexed bulk build against the definition. The
        // last size is the empty-rectangle rule alone, four digits of
        // N: about what a debug build's definition does in 2 s.
        let both: &[usize] = &[1, 3];
        for &(n, dim, seed, ks) in &[
            (60usize, 2usize, 21u64, both),
            (80, 3, 22, both),
            (40, 4, 23, both),
            (1000, 2, 1, &[]),
        ] {
            let population = peers(n, dim, seed);
            assert_eq!(
                bulk_build(&population, EmptyRectSelection),
                definition(&population, &EmptyRectSelection),
                "empty-rect n={n} dim={dim}"
            );
            for &k in ks {
                let sel = HyperplanesSelection::orthogonal(dim, k);
                assert_eq!(
                    bulk_build(&population, sel.clone()),
                    definition(&population, &sel),
                    "orthogonal K={k} n={n} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn engine_handles_non_dense_peer_ids() {
        // Shuffled / sparse ids must not break the sweep: its id-order
        // gate routes the ranking to the brute path, which breaks
        // distance ties by peer id as the rule does.
        let mut population = peers(50, 2, 31);
        population.reverse(); // ids now descend: 49, 48, ...
        for (k, graph) in orthogonal_k_sweep(&population, &[1, 2]) {
            let sel = HyperplanesSelection::orthogonal(2, k);
            assert_eq!(graph, definition(&population, &sel), "K={k}");
        }
    }

    #[test]
    fn k_sweep_matches_generic_equilibrium() {
        let population = peers(40, 3, 13);
        for &k in &[1usize, 2, 5, 40] {
            let generic = bulk_build(&population, HyperplanesSelection::orthogonal(3, k));
            let swept = orthogonal_k_sweep(&population, &[k]);
            assert_eq!(swept.len(), 1);
            assert_eq!(swept[0].0, k);
            assert_eq!(swept[0].1, generic, "K={k}");
        }
    }

    #[test]
    fn k_sweep_classifies_ties_like_the_rule() {
        // The index and the brute ranking both put a tied peer on the
        // positive side, as the orthogonal arrangement does. Three peers
        // sharing x = 1 first, then 36 points of the 6 × 7 integer
        // lattice.
        let at = |i: u64, x: u64, y: u64| {
            PeerInfo::new(PeerId(i), Point::new(vec![x as f64, y as f64]).unwrap())
        };
        let three = vec![at(0, 1, 1), at(1, 1, 5), at(2, 3, 2)];
        let swept = orthogonal_k_sweep(&three, &[1]);
        let want: Vec<&[usize]> = vec![&[2], &[0], &[0, 1]];
        let got: Vec<&[usize]> = (0..3).map(|i| swept[0].1.out_neighbors(i)).collect();
        assert_eq!(got, want);
        let lattice: Vec<PeerInfo> = (0..36).map(|i| at(i, (i * 7) % 6, (i * 5) % 7)).collect();
        for (k, graph) in orthogonal_k_sweep(&lattice, &[1, 2, 3]) {
            let sel = HyperplanesSelection::orthogonal(2, k);
            assert_eq!(graph, bulk_build(&lattice, sel), "K={k}");
        }
    }

    /// Where the index declines for dimensionality the ranking still
    /// answers, without a table of `2^D` orthants: a 32-D sweep at small N
    /// (2^32 vectors per peer before), held against the definition.
    #[test]
    fn k_sweep_runs_at_the_dimension_ceiling() {
        let dim = geocast_geom::MAX_ORTHANT_DIM;
        let population = peers(24, dim, 29);
        for (k, graph) in orthogonal_k_sweep(&population, &[1, 2]) {
            let sel = HyperplanesSelection::orthogonal(dim, k);
            assert_eq!(graph, definition(&population, &sel), "K={k}");
        }
    }

    /// The one-sort ranking returns occupied orthants only, ascending,
    /// and its flattened rows are the index's (which answers a peer that
    /// shares a coordinate too): a tie lattice plus uniform
    /// points, D = 1..=5, every K up to 3.
    #[test]
    fn brute_ranking_matches_the_index_on_a_tie_lattice() {
        for dim in 1..=5usize {
            let side = 3u64;
            let lattice = (0..side.pow(dim as u32)).map(|i| {
                let coords = (0..dim)
                    .map(|d| 100.0 * ((i / side.pow(d as u32)) % side) as f64)
                    .collect();
                Point::new(coords).unwrap()
            });
            let uniform = uniform_points(40, dim, 300.0, 37).into_points();
            let population: Vec<PeerInfo> = (lattice.chain(uniform).enumerate())
                .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p))
                .collect();
            let index = GridIndex::build(&population);
            let mut answered = 0;
            for k in 1..=3 {
                for i in 0..population.len() {
                    let brute = ranked_orthant_groups_brute(&population, i, dim, k);
                    assert!(brute.iter().all(|group| !group.is_empty()));
                    let orthant = |j: usize| {
                        (0..dim)
                            .filter(|&d| population[j].point()[d] >= population[i].point()[d])
                            .fold(0u64, |bits, d| bits | 1 << d)
                    };
                    assert!(brute
                        .windows(2)
                        .all(|w| orthant(w[0][0]) < orthant(w[1][0])));
                    if let Some(groups) = index.k_nearest_per_orthant(i, k) {
                        answered += 1;
                        let flat = |g: Vec<Vec<usize>>| g.into_iter().flatten().collect::<Vec<_>>();
                        assert_eq!(flat(brute), flat(groups), "dim={dim} K={k} peer {i}");
                    }
                }
            }
            assert!(answered > 0, "dim={dim}: the index must answer somewhere");
            for (k, graph) in orthogonal_k_sweep(&population, &[1, 3]) {
                let sel = HyperplanesSelection::orthogonal(dim, k);
                assert_eq!(graph, definition(&population, &sel), "dim={dim} K={k}");
            }
        }
    }

    #[test]
    fn k_sweep_returns_requested_ks_in_order() {
        let population = peers(20, 2, 17);
        let ks = [3usize, 1, 2];
        let swept = orthogonal_k_sweep(&population, &ks);
        let got: Vec<usize> = swept.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, ks);
    }

    #[test]
    fn k_sweep_monotone_in_k() {
        // Larger K can only add neighbours.
        let population = peers(50, 2, 19);
        let swept = orthogonal_k_sweep(&population, &[1, 3, 10]);
        for i in 0..population.len() {
            let d1 = swept[0].1.out_neighbors(i).len();
            let d3 = swept[1].1.out_neighbors(i).len();
            let d10 = swept[2].1.out_neighbors(i).len();
            assert!(d1 <= d3 && d3 <= d10);
        }
    }

    #[test]
    fn k_sweep_handles_empty_population() {
        let swept = orthogonal_k_sweep(&[], &[1, 2]);
        assert_eq!(swept.len(), 2);
        assert!(swept[0].1.is_empty());
    }

    #[test]
    fn equilibrium_is_insertion_order_independent() {
        // The equilibrium is a function of the point set only: permuting
        // peer order permutes the graph accordingly.
        let population = peers(25, 2, 23);
        let g1 = definition(&population, &EmptyRectSelection);
        let mut reversed: Vec<PeerInfo> = population.clone();
        reversed.reverse();
        let g2 = definition(&reversed, &EmptyRectSelection);
        let n = population.len();
        for i in 0..n {
            let mapped: Vec<usize> = g2
                .out_neighbors(n - 1 - i)
                .iter()
                .map(|&j| n - 1 - j)
                .rev()
                .collect();
            assert_eq!(g1.out_neighbors(i), &mapped[..], "peer {i}");
        }
    }
}
