//! Greedy geometric routing over the overlay.
//!
//! Peers forward a message to whichever overlay neighbour is closest to
//! a target point, stopping when no neighbour improves (a *local
//! minimum*). On the empty-rectangle overlay this comes with a delivery
//! guarantee the same rectangle argument provides (property-tested):
//!
//! > If the target is a peer's coordinate, every peer that is not the
//! > target has an overlay neighbour strictly closer to it.
//!
//! *Why:* for current peer `P` and target peer `T`, consider the open
//! rectangle spanned by `P` and `T`. If it contains no peer, `T` itself
//! is `P`'s neighbour (empty-rectangle rule). Otherwise pick the peer
//! `X` inside it with the fewest blockers: `X` is a frontier neighbour
//! of `P`, and being strictly between `P` and `T` in every dimension it
//! is strictly closer to `T` (in L1, as in any `L_p` distance). Greedy therefore
//! always progresses and delivers in finitely many hops.
//!
//! For non-peer targets greedy can stop early at a local minimum; the
//! result reports where.
//!
//! Every walk here reads a live [`TopologyStore`]'s forward + reverse
//! adjacency without building a closure, so departed peers are
//! unreachable by construction. The group layer's relay grafting
//! (`geocast_core::graft`) uses the single hop [`greedy_step_on_store`],
//! the one decision every walk here iterates and the one the group
//! engine re-runs when a walked peer's row changes, and the region route [`greedy_route_to_rect_on_store`] of
//! its fallback tier.

use geocast_geom::{l1, Point, Rect};

use crate::peer::PeerId;
use crate::store::TopologyStore;

/// Outcome of a greedy route.
///
/// The fields are private so the structural invariant — the path always
/// starts with the source and is therefore never empty — holds for
/// every value of this type, making [`RouteResult::last`] genuinely
/// panic-free (it used to be documentation-only, violable by literal
/// construction).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    /// The peers visited, starting with the source.
    path: Vec<usize>,
    /// `true` if the walk ended because the final peer satisfied the
    /// target (exact coordinates, or inside the region).
    delivered: bool,
    /// `true` if the walk ended at a local minimum (no neighbour closer
    /// than the final peer).
    local_minimum: bool,
}

impl RouteResult {
    /// Assembles a result, upholding the non-empty-path invariant.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty — a route always contains its source.
    #[must_use]
    pub fn new(path: Vec<usize>, delivered: bool, local_minimum: bool) -> Self {
        assert!(!path.is_empty(), "a route always contains its source");
        RouteResult {
            path,
            delivered,
            local_minimum,
        }
    }

    /// The peers visited, starting with the source (never empty).
    #[must_use]
    pub fn path(&self) -> &[usize] {
        &self.path
    }

    /// `true` if the walk ended because the final peer satisfied the
    /// target (exact coordinates, or inside the region).
    #[must_use]
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// `true` if the walk ended at a local minimum (no neighbour closer
    /// than the final peer).
    #[must_use]
    pub fn local_minimum(&self) -> bool {
        self.local_minimum
    }

    /// The peer where the walk ended. Never panics: construction
    /// guarantees the path contains the source.
    #[must_use]
    pub fn last(&self) -> usize {
        *self.path.last().expect("construction rejects empty paths")
    }

    /// Number of hops taken.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// One greedy hop, the decision every walk in this module is made of:
/// among `neighbors`, the one minimising `score` **strictly below**
/// `current_score`, ties broken by the smaller peer index; `None` at a
/// local minimum. Returns the chosen neighbour with its score.
fn greedy_step(
    neighbors: &[usize],
    mut score: impl FnMut(usize) -> f64,
    current_score: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &nbr in neighbors {
        let d = score(nbr);
        if d < current_score {
            let better = match best {
                None => true,
                Some((bi, bd)) => d < bd || (d == bd && nbr < bi),
            };
            if better {
                best = Some((nbr, d));
            }
        }
    }
    best
}

/// The single greedy hop from live peer `from` towards `target` over the
/// store's undirected row of `from` (read into `nbuf`): the neighbour
/// strictly closer to `target` than `from` (L1), nearest
/// first, ties broken by peer index; `None` when `from` is a local
/// minimum. [`greedy_route`] is exactly this step iterated, so a caller
/// that walks hop by hop (relay grafting, which stops at the first
/// on-tree node) or re-runs one recorded hop against a changed row
/// (the group engine's replay of a graft walk) decides what the full route
/// would have decided. Undirected rows come straight from the store's
/// forward + reverse tables, so no closure is materialized and departed
/// peers are unreachable by construction (they appear in no row).
///
/// # Panics
///
/// Panics if `from` is out of range.
#[must_use]
pub fn greedy_step_on_store(
    store: &TopologyStore,
    from: usize,
    target: &Point,
    nbuf: &mut Vec<usize>,
) -> Option<usize> {
    let peers = store.peers();
    let score = |i: usize| l1(peers[i].point().coords(), target.coords());
    store.undirected_neighbors_into(from, nbuf);
    greedy_step(nbuf, score, score(from)).map(|(next, _)| next)
}

/// The shared greedy walk over the store's undirected rows: iterate
/// [`greedy_step`] (nearest strictly improving neighbour, ties broken
/// by peer index), stop once `arrived`, at a local minimum, or after
/// `max_hops`. The peer and the region routes differ only in `arrived`
/// and `score`.
fn greedy_walk(
    store: &TopologyStore,
    mut arrived: impl FnMut(usize) -> bool,
    mut score: impl FnMut(usize) -> f64,
    from: usize,
    max_hops: usize,
) -> RouteResult {
    let mut path = vec![from];
    let mut current = from;
    let mut current_score = score(current);
    let mut nbuf: Vec<usize> = Vec::new();

    for _ in 0..max_hops {
        if arrived(current) {
            return RouteResult::new(path, true, false);
        }
        store.undirected_neighbors_into(current, &mut nbuf);
        match greedy_step(&nbuf, &mut score, current_score) {
            Some((nbr, d)) => {
                path.push(nbr);
                current = nbr;
                current_score = d;
            }
            None => {
                let delivered = arrived(current);
                return RouteResult::new(path, delivered, true);
            }
        }
    }
    let delivered = arrived(current);
    RouteResult::new(path, delivered, false)
}

/// Routes greedily from `from` towards `target`, taking at each step the
/// neighbour strictly closest to `target` in L1 (ties broken by
/// peer index for determinism).
///
/// Stops on exact arrival (`delivered`), at a local minimum, or after
/// `max_hops` (whichever comes first; `max_hops` exhaustion sets neither
/// flag — except when the source itself is already at the target, which
/// is a delivery even with `max_hops == 0`).
///
/// # Panics
///
/// Panics if `from` is out of range or the target's dimensionality
/// differs.
#[must_use]
pub fn greedy_route(
    store: &TopologyStore,
    from: usize,
    target: &Point,
    max_hops: usize,
) -> RouteResult {
    let peers = store.peers();
    assert!(from < peers.len(), "source out of range");
    assert_eq!(
        peers[from].point().dim(),
        target.dim(),
        "target dimensionality mismatch"
    );
    // A peer has arrived when its score — distance to the target — is
    // zero, so the source-at-target edge case is a zero-hop delivery,
    // `max_hops` included.
    let score = |i: usize| l1(peers[i].point().coords(), target.coords());
    if score(from) == 0.0 {
        return RouteResult::new(vec![from], true, false);
    }
    greedy_walk(store, |i| score(i) == 0.0, score, from, max_hops)
}

/// Routes greedily from live peer `from` towards a **region** over a
/// [`TopologyStore`] (see [`greedy_step_on_store`] for the adjacency
/// semantics), minimising at each hop the distance between the
/// candidate peer and its own clamp into the region (= its distance to
/// the box). Stops as soon as the current peer lies inside the region
/// (`delivered` — zero hops when the source already is), at a local
/// minimum, or after `max_hops`.
///
/// On empty-rectangle equilibria this never stalls outside a populated
/// region: for any member `X`, the spanned rectangle between the current
/// peer and `X` contains a frontier neighbour that is component-wise
/// closer to the box, hence strictly closer in distance-to-region
/// (property-tested). This is the totality the graft pass's tier-2
/// fallback rests on.
///
/// # Panics
///
/// Panics if `from` is out of range or departed, the region is empty,
/// or dimensionalities differ (a zero-dimensional rectangle is
/// unconstructible, so the dimensionality check also rules that out).
#[must_use]
pub fn greedy_route_to_rect_on_store(
    store: &TopologyStore,
    from: usize,
    region: &Rect,
    max_hops: usize,
) -> RouteResult {
    assert!(from < store.len(), "source out of range");
    assert!(
        !store.is_departed(PeerId(from as u64)),
        "source has departed"
    );
    let peers = store.peers();
    assert!(!region.is_empty(), "region must be non-empty");
    assert_eq!(
        peers[from].point().dim(),
        region.dim(),
        "region dimensionality mismatch"
    );
    let arrived = |i: usize| region.contains(peers[i].point());
    if arrived(from) {
        return RouteResult::new(vec![from], true, false);
    }
    greedy_walk(
        store,
        arrived,
        |i: usize| {
            let p = peers[i].point();
            l1(p.coords(), region.clamp(p).coords())
        },
        from,
        max_hops,
    )
}

/// Routes from `from` to the peer `to` (target = that peer's
/// coordinates). On empty-rectangle equilibria this always delivers;
/// see the module docs for the argument. `from == to` is a zero-hop
/// delivery.
///
/// # Example
///
/// ```
/// use geocast_geom::gen::uniform_points;
/// use geocast_overlay::routing::route_to_peer;
/// use geocast_overlay::{select::EmptyRectSelection, PeerInfo, TopologyStore};
/// use std::sync::Arc;
///
/// let peers = PeerInfo::from_point_set(&uniform_points(50, 2, 1000.0, 7));
/// let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
/// let route = route_to_peer(&store, 0, 42);
/// assert!(route.delivered());
/// assert_eq!(route.last(), 42);
/// ```
///
/// # Panics
///
/// Panics if indices are out of range.
#[must_use]
pub fn route_to_peer(store: &TopologyStore, from: usize, to: usize) -> RouteResult {
    assert!(to < store.len(), "destination out of range");
    // n hops always suffice when every hop strictly progresses through
    // distinct peers.
    greedy_route(store, from, store.peers()[to].point(), store.len())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::peer::PeerInfo;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use geocast_geom::gen::uniform_points;

    #[test]
    fn greedy_always_delivers_between_peers_on_empty_rect() {
        let store = store_setup(80, 2, 3);
        let peers = store.peers();
        for from in [0usize, 17, 42] {
            for to in 0..peers.len() {
                let route = route_to_peer(&store, from, to);
                assert!(
                    route.delivered(),
                    "{from} -> {to} stuck at {}",
                    route.last()
                );
                assert_eq!(route.last(), to);
            }
        }
    }

    #[test]
    fn delivery_holds_in_higher_dimensions() {
        let store = store_setup(60, 4, 5);
        let peers = store.peers();
        for to in 0..peers.len() {
            let route = route_to_peer(&store, 0, to);
            assert!(route.delivered(), "0 -> {to}");
        }
    }

    #[test]
    fn distances_strictly_decrease_along_path() {
        let store = store_setup(70, 2, 7);
        let peers = store.peers();
        let route = route_to_peer(&store, 3, 55);
        let target = peers[55].point();
        let dists: Vec<f64> = route
            .path()
            .iter()
            .map(|&i| l1(peers[i].point().coords(), target.coords()))
            .collect();
        for w in dists.windows(2) {
            assert!(w[1] < w[0], "non-decreasing step: {dists:?}");
        }
    }

    #[test]
    fn route_to_self_is_trivial() {
        let store = store_setup(10, 2, 9);
        let peers = store.peers();
        let route = route_to_peer(&store, 4, 4);
        assert!(route.delivered());
        assert_eq!(route.hops(), 0);
        assert_eq!(route.path(), &[4]);
        // Even with a zero hop budget, standing at the target delivers.
        let zero = greedy_route(&store, 4, peers[4].point(), 0);
        assert!(zero.delivered());
        assert_eq!(zero.path(), &[4]);
    }

    #[test]
    fn hop_count_is_bounded_by_network_size() {
        let store = store_setup(100, 2, 11);
        let peers = store.peers();
        for to in [10usize, 50, 99] {
            let route = route_to_peer(&store, 0, to);
            assert!(route.hops() < peers.len());
        }
    }

    #[test]
    fn non_peer_target_ends_at_local_minimum_near_target() {
        let store = store_setup(120, 2, 13);
        let peers = store.peers();
        let target = Point::new(vec![500.0, 500.0]).unwrap();
        let route = greedy_route(&store, 0, &target, peers.len());
        assert!(route.local_minimum() || route.delivered());
        // The stopping peer is closer to the target than the source was.
        let d_end = l1(peers[route.last()].point().coords(), target.coords());
        let d_start = l1(peers[0].point().coords(), target.coords());
        assert!(d_end <= d_start);
        // And reasonably close in absolute terms for a 120-peer overlay
        // over a 1000x1000 space (mean spacing ~90 units).
        assert!(d_end < 200.0, "stopped {d_end} away");
    }

    #[test]
    fn non_peer_local_minimum_is_reported_deterministically() {
        // Three mutually-linked peers; target (9,9) is nobody's
        // coordinate. From (0,0) greedy moves to (10,0) (L1 distance 10,
        // tie with (0,10) broken by index) where no neighbour is
        // *strictly* closer — a certified local minimum, not a loop or
        // hop exhaustion.
        let peers = PeerInfo::from_point_set(
            &geocast_geom::PointSet::new(vec![
                Point::new(vec![0.0, 0.0]).unwrap(),
                Point::new(vec![10.0, 0.0]).unwrap(),
                Point::new(vec![0.0, 10.0]).unwrap(),
            ])
            .unwrap(),
        );
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let target = Point::new(vec![9.0, 9.0]).unwrap();
        let route = greedy_route(&store, 0, &target, 10);
        assert_eq!(route.path(), &[0, 1]);
        assert!(route.local_minimum(), "stall must be declared");
        assert!(!route.delivered());
        assert_eq!(route.last(), 1);
    }

    #[test]
    fn non_peer_targets_always_terminate_with_a_verdict() {
        // Routing onto arbitrary non-peer coordinates must end in a
        // declared state — delivered (coordinate collision aside,
        // impossible here) or local_minimum — never silent hop
        // exhaustion, across sources and targets.
        let store = store_setup(90, 2, 21);
        let peers = store.peers();
        for (tx, ty) in [(500.0, 500.0), (1.0, 999.0), (250.0, 750.0), (999.0, 1.0)] {
            let target = Point::new(vec![tx, ty]).unwrap();
            for from in [0usize, 30, 60] {
                let route = greedy_route(&store, from, &target, peers.len());
                assert!(
                    route.local_minimum() && !route.delivered(),
                    "({tx},{ty}) from {from}: expected a declared local minimum, got {route:?}"
                );
                // The verdict peer is a true local minimum: no overlay
                // neighbour improves on it.
                let last = route.last();
                let d_last = l1(peers[last].point().coords(), target.coords());
                let mut nbrs = Vec::new();
                store.undirected_neighbors_into(last, &mut nbrs);
                for &nbr in &nbrs {
                    assert!(
                        l1(peers[nbr].point().coords(), target.coords()) >= d_last,
                        "neighbour {nbr} of {last} disproves the minimum"
                    );
                }
            }
        }
    }

    #[test]
    fn max_hops_truncates_walks() {
        let store = store_setup(100, 2, 15);
        let peers = store.peers();
        // Find a pair needing more than 2 hops.
        let (from, to) = (0usize, {
            let mut best = (0usize, 0usize);
            for to in 1..peers.len() {
                let r = route_to_peer(&store, 0, to);
                if r.hops() > best.1 {
                    best = (to, r.hops());
                }
            }
            assert!(best.1 > 2, "workload too small");
            best.0
        });
        let truncated = greedy_route(&store, from, peers[to].point(), 2);
        assert_eq!(truncated.hops(), 2);
        assert!(!truncated.delivered());
        assert!(!truncated.local_minimum());
    }

    #[test]
    fn sparse_overlays_can_strand_greedy_routes() {
        // On a K-closest overlay greedy can hit a local minimum even for
        // peer targets — documenting that the guarantee is specific to
        // the empty-rectangle rule.
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(60, 2, 1000.0, 17)),
            Arc::new(HyperplanesSelection::k_closest(2, 2)),
        );
        let peers = store.peers();
        let mut stuck = 0usize;
        for to in 0..peers.len() {
            let route = route_to_peer(&store, 0, to);
            if !route.delivered() {
                stuck += 1;
                assert!(route.local_minimum());
            }
        }
        // Not asserting stuck > 0 (depends on the workload), but every
        // non-delivery must be a declared local minimum, never a loop.
        let _ = stuck;
    }

    #[test]
    fn routes_are_deterministic() {
        let store = store_setup(50, 3, 19);
        let a = route_to_peer(&store, 1, 40);
        let b = route_to_peer(&store, 1, 40);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "a route always contains its source")]
    fn empty_path_construction_is_rejected() {
        let _ = RouteResult::new(Vec::new(), false, false);
    }

    #[test]
    fn rect_route_source_inside_region_is_a_zero_hop_delivery() {
        use geocast_geom::Interval;
        let store = store_setup(40, 2, 23);
        let p = store.peers()[7].point();
        let region = Rect::new(vec![
            Interval::new(p[0] - 1.0, p[0] + 1.0),
            Interval::new(p[1] - 1.0, p[1] + 1.0),
        ])
        .unwrap();
        // Even with a zero hop budget: standing inside delivers.
        for max_hops in [0usize, 5] {
            let walk = greedy_route_to_rect_on_store(&store, 7, &region, max_hops);
            assert!(walk.delivered());
            assert!(!walk.local_minimum());
            assert_eq!(walk.path(), &[7]);
        }
    }

    #[test]
    fn zero_dimensional_rects_are_unconstructible_and_degenerate_ones_rejected() {
        // The zero-dim edge case cannot reach routing: Rect::new refuses
        // dimension zero outright…
        assert!(Rect::new(Vec::new()).is_err());
        // …and a zero-extent (open, therefore empty) rectangle trips the
        // non-empty-region assert rather than producing a bogus walk.
        let store = store_setup(10, 2, 25);
        let corner = store.peers()[0].point();
        let degenerate = Rect::spanned_open(corner, corner).unwrap();
        assert!(degenerate.is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            greedy_route_to_rect_on_store(&store, 1, &degenerate, 10)
        }));
        assert!(result.is_err(), "empty region must be rejected");
    }

    fn store_setup(n: usize, dim: usize, seed: u64) -> TopologyStore {
        TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed)),
            Arc::new(EmptyRectSelection),
        )
    }

    /// [`greedy_step_on_store`] iterated from `from` to a local minimum.
    fn step_path(store: &TopologyStore, from: usize, target: &Point) -> Vec<usize> {
        let mut nbuf = Vec::new();
        let mut path = vec![from];
        while let Some(next) = greedy_step_on_store(store, path[path.len() - 1], target, &mut nbuf)
        {
            path.push(next);
        }
        path
    }

    #[test]
    fn single_steps_iterate_to_the_full_route() {
        let store = store_setup(70, 2, 27);
        let mut cases: Vec<(usize, Point)> = [1usize, 23, 69]
            .map(|to| (0, store.peers()[to].point().clone()))
            .into();
        cases.push((5, Point::new(vec![400.0, 600.0]).unwrap()));
        for &(from, ref target) in &cases {
            let route = greedy_route(&store, from, target, store.len());
            assert_eq!(
                step_path(&store, from, target),
                route.path(),
                "{from} -> {target:?}"
            );
        }
    }

    #[test]
    fn store_routes_avoid_departed_peers_and_still_deliver() {
        let mut store = store_setup(80, 2, 29);
        for gone in [11u64, 37, 53] {
            store.remove(PeerId(gone));
        }
        for to in 0..store.len() {
            if store.is_departed(PeerId(to as u64)) {
                continue;
            }
            let target = store.peers()[to].point();
            let path = step_path(&store, 0, target);
            assert_eq!(path.last(), Some(&to), "0 -> {to} must deliver");
            let route = greedy_route(&store, 0, target, store.len());
            assert_eq!(path, route.path(), "0 -> {to}");
            for &hop in &path {
                assert!(
                    !store.is_departed(PeerId(hop as u64)),
                    "route passed through departed {hop}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "source has departed")]
    fn routing_from_a_departed_source_is_rejected() {
        let mut store = store_setup(20, 2, 35);
        store.remove(PeerId(3));
        let region = Rect::full(2);
        let _ = greedy_route_to_rect_on_store(&store, 3, &region, 10);
    }
}
