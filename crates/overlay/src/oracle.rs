//! Equilibrium topologies computed with full knowledge.
//!
//! The paper defines the target of gossip convergence as the topology
//! "obtained when every peer P knows all the other peers in the system
//! (i.e. when I(P) contains all the peers except P)". This module
//! computes that topology directly, which is how the figure-scale
//! experiments stay tractable; the integration tests cross-validate it
//! against the actual gossip protocol on small networks.
//!
//! # The construction engine
//!
//! [`equilibrium`] is the hot path of every figure sweep and bench. It
//! builds a [`geocast_geom::GridIndex`] over the population once
//! and lets each selection method answer from it through the batch
//! [`NeighborSelection::select_in`] API — no `O(N)` candidate vector
//! per peer, no `O(N²)` aggregate allocation — and fans the per-peer
//! selection out across CPU cores (the `parallel` feature, on by
//! default). Results are **exactly** the brute-force topology:
//! [`equilibrium_brute_force`] keeps the definitional path alive, and
//! property tests assert graph equality between the two on every
//! selection rule. See `docs/PERFORMANCE.md` for the numbers.
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

use geocast_geom::{GridIndex, Metric, MetricKind, Orthant};

use crate::graph::OverlayGraph;
use crate::par;
use crate::peer::PeerInfo;
use crate::select::{ids_in_slice_order, NeighborSelection, SelectContext};
use crate::store::topology_hash;

/// Builds the shared spatial index when the population shape supports
/// it (at least two peers, indexable dimensionality, uniform `dim`).
fn build_shared_index(peers: &[PeerInfo]) -> Option<GridIndex> {
    let dim = peers.first()?.point().dim();
    if peers.len() < 2
        || dim > geocast_geom::index::MAX_INDEX_DIM
        || peers.iter().any(|p| p.point().dim() != dim)
    {
        return None;
    }
    Some(GridIndex::build(peers))
}

/// The equilibrium overlay: every peer applies `selection` to the full
/// candidate set (everyone but itself), accelerated by a spatial index
/// and per-peer parallelism.
///
/// Peer `i` of the slice becomes graph vertex `i`. Exactly equivalent
/// to [`equilibrium_brute_force`] (property-tested).
#[must_use]
pub fn equilibrium<S>(peers: &[PeerInfo], selection: &S) -> OverlayGraph
where
    S: NeighborSelection + Sync + ?Sized,
{
    let index = build_shared_index(peers);
    let ctx = match &index {
        Some(ix) => SelectContext::with_index(ix, ids_in_slice_order(peers)),
        None => SelectContext::without_index(),
    };
    OverlayGraph::from_out_neighbors(par::map_indexed(peers.len(), |i| {
        selection.select_in(peers, i, &ctx)
    }))
}

/// The equilibrium of a population some of whose peers have departed,
/// from the definition: every live peer selects among all other live
/// peers with no index; departed peers keep their vertex, edge-less.
/// What a [`crate::TopologyStore`] over `peers` with this `departed`
/// mask must hold, whatever sequence of events led there.
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
    OverlayGraph::from_out_neighbors(par::map_indexed(peers.len(), |i| {
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

/// The definitional equilibrium: sequential, no index — each peer runs
/// plain [`NeighborSelection::select`] over a materialized candidate
/// slice. Kept as the executable specification the engine is
/// property-tested against, and as the baseline the scaling bench
/// measures speedups over.
#[must_use]
// lint:allow(D006, reason = "oracle: the index-free definition prop_overlay holds the indexed engine against")
pub fn equilibrium_brute_force(
    peers: &[PeerInfo],
    selection: &dyn NeighborSelection,
) -> OverlayGraph {
    let ctx = SelectContext::without_index();
    let out = (0..peers.len())
        .map(|i| selection.select_in(peers, i, &ctx))
        .collect();
    OverlayGraph::from_out_neighbors(out)
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
/// Equivalence with [`equilibrium`] over
/// [`crate::select::HyperplanesSelection::orthogonal`] is asserted by
/// tests.
///
/// # Panics
///
/// Panics if any `k == 0` or peers disagree on dimensionality.
#[must_use]
// lint:allow(D006, reason = "the tests' handle on orthogonal_k_sweep_with, the sweep of Fig. 1d / 1e: collects what it streams")
pub fn orthogonal_k_sweep(
    peers: &[PeerInfo],
    metric: MetricKind,
    ks: &[usize],
) -> Vec<(usize, OverlayGraph)> {
    let mut out = Vec::with_capacity(ks.len());
    orthogonal_k_sweep_with(peers, metric, ks, |k, graph| out.push((k, graph.clone())));
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
    metric: MetricKind,
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
    let sorted_groups = ranked_orthant_groups(peers, metric, kmax);

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
/// `(distance, id)` ascending, truncated to the best `kmax`. Uses the
/// spatial index when distance ties broken by id and by slice position
/// coincide; falls back to the full ranking pass otherwise.
fn ranked_orthant_groups(
    peers: &[PeerInfo],
    metric: MetricKind,
    kmax: usize,
) -> Vec<Vec<Vec<usize>>> {
    let dim = peers[0].point().dim();
    let index = if ids_in_slice_order(peers) {
        build_shared_index(peers)
    } else {
        None
    };
    par::map_indexed(peers.len(), |i| {
        if let Some(ix) = &index {
            if let Some(groups) = ix.k_nearest_per_orthant(i, kmax, metric) {
                return groups;
            }
        }
        ranked_orthant_groups_brute(peers, i, dim, metric, kmax)
    })
}

/// The definitional ranking for one peer: classify every other peer
/// into an orthant, sort each group by `(distance, id)`, truncate.
fn ranked_orthant_groups_brute(
    peers: &[PeerInfo],
    i: usize,
    dim: usize,
    metric: MetricKind,
    kmax: usize,
) -> Vec<Vec<usize>> {
    let who = &peers[i];
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); Orthant::count(dim)];
    for (j, cand) in peers.iter().enumerate() {
        if j == i {
            continue;
        }
        let o = Orthant::classify(who.point(), cand.point())
            .expect("distinct coordinates classify totally");
        groups[o.index()].push(j);
    }
    for group in &mut groups {
        group.sort_by(|&a, &b| {
            let da = metric.dist(who.point(), peers[a].point());
            let db = metric.dist(who.point(), peers[b].point());
            da.total_cmp(&db)
                .then_with(|| peers[a].id().cmp(&peers[b].id()))
        });
        group.truncate(kmax);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use geocast_geom::gen::uniform_points;

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    #[test]
    fn empty_rect_equilibrium_is_symmetric_and_connected() {
        let population = peers(120, 2, 3);
        let g = equilibrium(&population, &EmptyRectSelection);
        assert!(
            g.is_symmetric(),
            "empty-rect links are mutual at equilibrium"
        );
        assert!(g.is_connected_undirected());
    }

    #[test]
    fn empty_k_sweep_is_a_no_op() {
        let population = peers(20, 2, 3);
        assert!(orthogonal_k_sweep(&population, MetricKind::L1, &[]).is_empty());
        assert!(orthogonal_k_sweep(&[], MetricKind::L1, &[]).is_empty());
    }

    #[test]
    fn orthogonal_equilibrium_is_connected() {
        let population = peers(100, 3, 5);
        let sel = HyperplanesSelection::orthogonal(3, 1, MetricKind::L1);
        let g = equilibrium(&population, &sel);
        assert!(g.is_connected_undirected());
    }

    #[test]
    fn equilibrium_indices_skip_self_correctly() {
        // Regression guard for the self-gap re-indexing: no peer may be
        // its own neighbour, and all indices must be valid.
        let population = peers(30, 2, 9);
        let g = equilibrium(&population, &EmptyRectSelection);
        for i in 0..g.len() {
            assert!(!g.out_neighbors(i).contains(&i));
        }
    }

    #[test]
    fn engine_equals_brute_force_on_both_rules() {
        // The last size is the empty-rectangle rule alone, four digits
        // of N: about what a debug build's brute force does in 2 s.
        let both: &[usize] = &[1, 3];
        for &(n, dim, seed, ks) in &[
            (60usize, 2usize, 21u64, both),
            (80, 3, 22, both),
            (40, 4, 23, both),
            (1000, 2, 1, &[]),
        ] {
            let population = peers(n, dim, seed);
            assert_eq!(
                equilibrium(&population, &EmptyRectSelection),
                equilibrium_brute_force(&population, &EmptyRectSelection),
                "empty-rect n={n} dim={dim}"
            );
            for &k in ks {
                let sel = HyperplanesSelection::orthogonal(dim, k, MetricKind::L1);
                assert_eq!(
                    equilibrium(&population, &sel),
                    equilibrium_brute_force(&population, &sel),
                    "orthogonal K={k} n={n} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn engine_handles_non_dense_peer_ids() {
        // Shuffled / sparse ids must not break the accelerated paths:
        // the id-order gate routes Hyperplanes to the brute path while
        // empty-rect (id-independent) still uses the index.
        let mut population = peers(50, 2, 31);
        population.reverse(); // ids now descend: 49, 48, ...
        assert_eq!(
            equilibrium(&population, &EmptyRectSelection),
            equilibrium_brute_force(&population, &EmptyRectSelection),
        );
        let sel = HyperplanesSelection::orthogonal(2, 2, MetricKind::L2);
        assert_eq!(
            equilibrium(&population, &sel),
            equilibrium_brute_force(&population, &sel),
        );
    }

    #[test]
    fn k_sweep_matches_generic_equilibrium() {
        let population = peers(40, 3, 13);
        for &k in &[1usize, 2, 5, 40] {
            let generic = equilibrium(
                &population,
                &HyperplanesSelection::orthogonal(3, k, MetricKind::L1),
            );
            let swept = orthogonal_k_sweep(&population, MetricKind::L1, &[k]);
            assert_eq!(swept.len(), 1);
            assert_eq!(swept[0].0, k);
            assert_eq!(swept[0].1, generic, "K={k}");
        }
    }

    #[test]
    fn k_sweep_returns_requested_ks_in_order() {
        let population = peers(20, 2, 17);
        let ks = [3usize, 1, 2];
        let swept = orthogonal_k_sweep(&population, MetricKind::L1, &ks);
        let got: Vec<usize> = swept.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, ks);
    }

    #[test]
    fn k_sweep_monotone_in_k() {
        // Larger K can only add neighbours.
        let population = peers(50, 2, 19);
        let swept = orthogonal_k_sweep(&population, MetricKind::L1, &[1, 3, 10]);
        for i in 0..population.len() {
            let d1 = swept[0].1.out_neighbors(i).len();
            let d3 = swept[1].1.out_neighbors(i).len();
            let d10 = swept[2].1.out_neighbors(i).len();
            assert!(d1 <= d3 && d3 <= d10);
        }
    }

    #[test]
    fn k_sweep_handles_empty_population() {
        let swept = orthogonal_k_sweep(&[], MetricKind::L1, &[1, 2]);
        assert_eq!(swept.len(), 2);
        assert!(swept[0].1.is_empty());
    }

    #[test]
    fn equilibrium_is_insertion_order_independent() {
        // The equilibrium is a function of the point set only: permuting
        // peer order permutes the graph accordingly.
        let population = peers(25, 2, 23);
        let g1 = equilibrium(&population, &EmptyRectSelection);
        let mut reversed: Vec<PeerInfo> = population.clone();
        reversed.reverse();
        let g2 = equilibrium(&reversed, &EmptyRectSelection);
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
