//! Property tests for the incremental churn engine.
//!
//! THE churn-engine guarantee: a [`TopologyStore`] maintained through
//! arbitrary interleavings of joins and leaves holds **exactly** the
//! equilibrium topology a from-scratch rebuild over the surviving
//! population would produce ([`oracle::equilibrium_live`]), reports the
//! fingerprint of that topology, and lists as each event's dirty region
//! the diff between two such rebuilds — for the §2 empty-rectangle rule
//! and every Hyperplanes instance (orthogonal, signed, K-closest).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::{chain, clustered_points, cross, hub, uniform_points};
use geocast_geom::index::MAX_INDEX_DIM;
use geocast_geom::{GridIndex, Point, PointSet, MAX_ORTHANT_DIM};
use geocast_overlay::select::{
    EmptyRectSelection, HyperplanesSelection, NeighborSelection, SelectContext,
};
use geocast_overlay::{oracle, OverlayGraph, PeerId, PeerInfo, TopologyStore};

fn selection_for(variant: usize, dim: usize, k: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match variant {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, k)),
        2 => Arc::new(HyperplanesSelection::signed(dim, k)),
        _ => Arc::new(HyperplanesSelection::k_closest(dim, k)),
    }
}

/// The definitional from-scratch rebuild: every live peer re-runs the
/// plain candidate-slice selection over all other live peers. No index,
/// no incremental state — the executable specification.
fn from_scratch(store: &TopologyStore) -> OverlayGraph {
    oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref())
}

/// The store against the specification: adjacency, the fingerprint of
/// it, and — when `before` is the rebuild from before the newest event
/// — that event's dirty region. Returns the rebuild.
fn assert_from_scratch(
    store: &TopologyStore,
    before: Option<&OverlayGraph>,
    what: &str,
) -> OverlayGraph {
    let rebuilt = from_scratch(store);
    assert_eq!(store.graph(), rebuilt, "{what}: adjacency");
    assert_eq!(
        store.fingerprint(),
        oracle::fingerprint(&rebuilt),
        "{what}: fingerprint"
    );
    if let Some(before) = before {
        let delta = store.delta_log().newest().expect("an event was applied");
        assert_eq!(delta.epoch, store.epoch(), "{what}: epoch");
        assert_eq!(
            delta.dirty,
            oracle::dirty_region(before, &rebuilt, delta.kind.peer()),
            "{what}: dirty region"
        );
    }
    rebuilt
}

/// Applies one event — the departure of `leave`, or else the join of
/// the next point — and returns the moving peer's row (the one it had
/// on a leave, the one it got on a join) plus itself, ascending.
fn apply_event(
    store: &mut TopologyStore,
    leave: Option<usize>,
    joins: &mut impl Iterator<Item = Point>,
) -> Vec<usize> {
    let (peer, mut moved) = match leave {
        Some(v) => {
            let row = store.out_neighbors(v);
            store.remove(PeerId(v as u64));
            (v, row)
        }
        None => {
            let id = store.insert(joins.next().expect("one point per op suffices"));
            (id.index(), store.out_neighbors(id.index()))
        }
    };
    moved.push(peer);
    moved.sort_unstable();
    moved
}

/// The two facts the empty-rectangle store edits edges on: links are
/// mutual — which is why it keeps one adjacency table — and an event
/// dirties the moving peer's row and itself, nothing else.
fn assert_mutual_and_local(store: &TopologyStore, moved: &[usize], what: &str) {
    for i in 0..store.len() {
        for j in store.out_neighbors(i) {
            assert!(
                store.out_neighbors(j).contains(&i),
                "{what}: link {i} -> {j} is not mutual"
            );
        }
    }
    let delta = store.delta_log().newest().expect("an event was applied");
    assert_eq!(delta.dirty, moved, "{what}: dirty == the moving peer's row");
}

/// A reproducible churn trace: joins draw fresh points, leaves pick a
/// random live peer (never emptying the population). `check` gets the
/// store, the event's number and [`apply_event`]'s list.
fn churn_trace(
    store: &mut TopologyStore,
    ops: usize,
    dim: usize,
    seed: u64,
    mut check: impl FnMut(&TopologyStore, usize, &[usize]),
) {
    let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
    let mut joins = points.into_iter();
    let mut rng = StdRng::seed_from_u64(seed);
    for op in 0..ops {
        let live: Vec<usize> = (0..store.len())
            .filter(|&i| !store.is_departed(PeerId(i as u64)))
            .collect();
        let leave = (live.len() > 1 && rng.random_range(0..3) == 0)
            .then(|| live[rng.random_range(0..live.len())]);
        let moved = apply_event(store, leave, &mut joins);
        check(store, op, &moved);
    }
}

/// The populations the empty-rectangle join walk is held to, in their
/// insertion order, by `family`: uniform at 1 to 6 dimensions; the full
/// integer lattice at 2 to 4, shuffled (every coordinate is shared);
/// clustered at 2 to 4; and small ones at `MAX_INDEX_DIM + 1` and at
/// `MAX_ORTHANT_DIM` dimensions. `pick` chooses the dimensionality.
fn walk_population(family: usize, pick: usize, seed: u64) -> Vec<Point> {
    match family {
        0 => uniform_points(60, 1 + pick % 6, 1000.0, seed).into_points(),
        1 => {
            let (dim, side): (u32, usize) = [(2, 8), (3, 4), (4, 3)][pick % 3];
            let mut lattice: Vec<Point> = (0..side.pow(dim))
                .map(|mut i| {
                    let coords = (0..dim)
                        .map(|_| {
                            let c = i % side;
                            i /= side;
                            c as f64
                        })
                        .collect();
                    Point::new(coords).unwrap()
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for k in (1..lattice.len()).rev() {
                lattice.swap(k, rng.random_range(0..=k));
            }
            lattice
        }
        2 => clustered_points(80, 2 + pick % 3, 1000.0, 3, 25.0, seed).into_points(),
        _ => {
            let dim = [MAX_INDEX_DIM + 1, MAX_ORTHANT_DIM][pick % 2];
            uniform_points(20, dim, 1000.0, seed).into_points()
        }
    }
}

/// The definition's row of peer `x`: the rule run over every other live
/// peer, with no index and no store row.
fn definition_row(store: &TopologyStore, x: usize) -> Vec<usize> {
    let live: Vec<usize> = (0..store.len())
        .filter(|&j| j != x && !store.is_departed(PeerId(j as u64)))
        .collect();
    let refs: Vec<&PeerInfo> = live.iter().map(|&j| &store.peers()[j]).collect();
    EmptyRectSelection
        .select(&store.peers()[x], &refs)
        .into_iter()
        .map(|c| live[c])
        .collect()
}

/// `store` after `ops` random events of `churn_trace`'s kind — joins of
/// `points` in order, one leave in four — with each newcomer's row held
/// against the definition's; returns the joins' rows' total length.
fn grow_with_walks(store: &mut TopologyStore, points: Vec<Point>, seed: u64, what: &str) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_total = 0;
    for p in points {
        if store.live_count() > 2 && rng.random_range(0..4) == 0 {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            store.remove(PeerId(live[rng.random_range(0..live.len())] as u64));
        }
        let x = store.insert(p).index();
        let row = store.out_neighbors(x);
        assert_eq!(row, definition_row(store, x), "{what}: join of {x}");
        row_total += row.len();
    }
    row_total
}

#[test]
fn join_walk_reads_about_one_row_per_neighbour() {
    // Locality: at N = 5 000 uniform 2-D, a join reads its own row's
    // members and hardly anything else — the descent starts from a peer
    // of the newcomer's cell, almost always a neighbour already.
    let peers = PeerInfo::from_point_set(&uniform_points(5000, 2, 1000.0, 91));
    let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let joins = uniform_points(300, 2, 1000.0, 92).into_points();
    let row_total = grow_with_walks(&mut store, joins, 93, "N = 5 000");
    let walked = store.join_walk_stats();
    assert_eq!(walked.joins, 300);
    let rows_per_join = walked.rows_read as f64 / 300.0;
    let row_mean = row_total as f64 / 300.0;
    assert!(
        rows_per_join <= 1.1 * row_mean,
        "{rows_per_join:.2} rows read per join against rows of {row_mean:.2}"
    );
}

/// The leave kernel's hostile rows: a hub leaves a chain of 19 999
/// peers, its whole row in one orthant, so no pair straddles it; and
/// the centre of a cross leaves, its row of 2 026 two opposite arms of
/// 900 with 113 blockers in each of the other two orthants, so 822 769
/// pairs straddle it and a blocker closes all but 5 610. After each
/// departure of that last id, every row and the fingerprint equal the
/// bulk build over the survivors, the departed peer keeping its
/// edge-less vertex. Debug builds run a tenth of each (they also
/// re-select every edited row on the index); CI runs the full size in
/// release.
#[test]
fn a_hostile_row_departs_into_the_bulk_build_over_the_survivors() {
    let (chain, arm) = if cfg!(debug_assertions) {
        (1_999, 90)
    } else {
        (19_999, 900)
    };
    for (what, points) in [("hub", hub(chain)), ("cross", cross(arm, 8))] {
        let peers = PeerInfo::from_point_set(&points);
        let last = peers.len() - 1;
        let survivors =
            TopologyStore::from_peers(peers[..last].to_vec(), Arc::new(EmptyRectSelection));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        assert_eq!(
            store.out_neighbors(last).len(),
            last,
            "{what}: the departing peer neighbours every other"
        );
        store.remove(PeerId(last as u64));
        let mut rows: Vec<Vec<usize>> = (0..last).map(|i| survivors.out_neighbors(i)).collect();
        rows.push(Vec::new());
        let want = OverlayGraph::from_out_neighbors(rows);
        assert_eq!(store.graph(), want, "{what}: adjacency");
        assert_eq!(
            store.fingerprint(),
            oracle::fingerprint(&want),
            "{what}: fingerprint"
        );
    }
}

/// Asserts the store's bulk build over `peers` — the plane sweep, at
/// `D = 2` — equals one selection per peer on the index, rows and
/// fingerprint.
fn assert_sweep_equals_selection(what: &str, peers: &[PeerInfo]) {
    let store = TopologyStore::from_peers(peers.to_vec(), Arc::new(EmptyRectSelection));
    let index = GridIndex::build(peers);
    let ctx = SelectContext::with_index(&index, true);
    let rows = (0..peers.len()).map(|i| EmptyRectSelection.select_in(peers, i, &ctx));
    let want = OverlayGraph::from_out_neighbors(rows.collect());
    assert_eq!(store.graph(), want, "{what}: adjacency");
    assert_eq!(
        store.fingerprint(),
        oracle::fingerprint(&want),
        "{what}: fingerprint"
    );
}

/// The bulk build's plane sweep against one selection per peer on the
/// index — the path a bulk build takes off the plane — on 2-D
/// populations with coordinates distinct per axis: uniform, clustered, a
/// chain (rows of two), a hub (one row of everyone) and a cross (one row
/// of two opposite arms). Release runs N up to 20 000 (CI does); debug
/// builds a tenth.
#[test]
fn the_bulk_build_sweep_equals_one_selection_per_peer() {
    let n = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let families: [(&str, PointSet); 5] = [
        ("uniform", uniform_points(n, 2, 1000.0, 101)),
        ("clustered", clustered_points(n, 2, 1000.0, 12, 30.0, 102)),
        ("chain", chain(n)),
        ("hub", hub(n - 1)),
        ("cross", cross(2 * n / 5, 8)),
    ];
    for (what, points) in families {
        assert!(points.ensure_distinct().is_ok(), "{what}: distinct");
        assert_sweep_equals_selection(what, &PeerInfo::from_point_set(&points));
    }
}

/// The same on a shuffled square integer lattice, where every
/// coordinate is shared by a whole row or column of peers and peer ids
/// follow no axis: the sweep orders each axis by `(coordinate, id)` as
/// the selection does. Release runs the 141 × 141 lattice (19 881
/// peers; CI does), debug builds a 45 × 45 one.
#[test]
fn the_bulk_build_sweep_equals_one_selection_per_peer_on_a_shuffled_lattice() {
    let side: u32 = if cfg!(debug_assertions) { 45 } else { 141 };
    let mut lattice: Vec<Point> = (0..side * side)
        .map(|i| Point::new(vec![f64::from(i % side), f64::from(i / side)]).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(141);
    for k in (1..lattice.len()).rev() {
        lattice.swap(k, rng.random_range(0..=k));
    }
    let peers: Vec<PeerInfo> = (0..lattice.len() as u64)
        .zip(lattice)
        .map(|(i, p)| PeerInfo::new(PeerId(i), p))
        .collect();
    assert_sweep_equals_selection(&format!("{side} × {side} lattice"), &peers);
}

/// A 2-D population of `n` for the bulk-build property, by `grid`:
/// uniform reals (distinct per axis); integers below `n / 2` on both
/// axes; or integer `x` and real `y`. The two integer kinds share
/// coordinates almost always, and even identical points.
fn plane_population(n: usize, grid: usize, seed: u64) -> Vec<PeerInfo> {
    let reals = uniform_points(n, 2, 1000.0, seed).into_points();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut integer = || f64::from(rng.random_range(0..(n as u32 / 2).max(1)));
    let points: Vec<Point> = reals
        .into_iter()
        .map(|p| match grid {
            0 => p,
            1 => Point::new(vec![integer(), integer()]).unwrap(),
            _ => Point::new(vec![integer(), p.coords()[1]]).unwrap(),
        })
        .collect();
    (0..n as u64)
        .zip(points)
        .map(|(i, p)| PeerInfo::new(PeerId(i), p))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bulk build on the plane — the sweep — equals the definition,
    /// rows and fingerprint, on distinct coordinates and on shared ones.
    #[test]
    fn a_bulk_build_on_the_plane_equals_the_definition(
        n in 1usize..90,
        grid in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let peers = plane_population(n, grid, seed);
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        assert_from_scratch(&store, None, &format!("N = {n}, population {grid}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The empty-rectangle join walk — locate, descend, grow over the
    /// store's rows — finds exactly the definition's row for every
    /// newcomer of a store grown from empty with interleaved leaves:
    /// uniform, lattice (ties everywhere), clustered, and past both
    /// `MAX_INDEX_DIM` and up to `MAX_ORTHANT_DIM`. No join queries the
    /// index, so none declines or runs a brute selection, and the store
    /// equals the from-scratch equilibrium at the end.
    #[test]
    fn join_walk_finds_the_definitions_row_on_every_population(
        family in 0usize..4,
        pick in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let points = walk_population(family, pick, seed);
        let what = format!("family {family}, {} dimensions", points[0].dim());
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        grow_with_walks(&mut store, points, seed, &what);
        assert_from_scratch(&store, None, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Incremental join/leave == from-scratch rebuild, all rules, after
    /// every single membership event.
    #[test]
    fn incremental_store_equals_from_scratch_rebuild(
        initial in 0usize..25,
        ops in 1usize..25,
        dim in 1usize..4,
        k in 1usize..4,
        variant in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let selection = selection_for(variant, dim, k);
        let mut store = TopologyStore::new(selection);
        for p in uniform_points(initial, dim, 1000.0, seed).into_points() {
            store.insert(p);
        }
        let mut rebuilt = assert_from_scratch(&store, None, &format!("initial build, variant {variant}"));
        churn_trace(&mut store, ops, dim, seed, |store, op, moved| {
            let what = format!("variant {variant}, op {op}");
            rebuilt = assert_from_scratch(store, Some(&rebuilt), &what);
            if variant == 0 {
                assert_mutual_and_local(store, moved, &what);
            }
        });
    }

    /// Remove-heavy churn under the empty-rectangle rule — where a
    /// departure is *edge edits* computed from the departed peer's row
    /// alone (no selector's row read, no index asked) instead of
    /// re-selections — equals the from-scratch rebuild after every
    /// event, in 2-D and 3-D.
    #[test]
    fn remove_heavy_churn_equals_from_scratch_rebuild(
        initial in 12usize..70,
        ops in 4usize..30,
        dim in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let mut rebuilt = assert_from_scratch(&store, None, "bulk build");
        let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
        let mut joins = points.into_iter();
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            // Two departures in three events.
            let leave = (live.len() > 2 && rng.random_range(0..3) != 0)
                .then(|| live[rng.random_range(0..live.len())]);
            let moved = apply_event(&mut store, leave, &mut joins);
            let what = format!("dim {dim}, op {op}");
            rebuilt = assert_from_scratch(&store, Some(&rebuilt), &what);
            assert_mutual_and_local(&store, &moved, &what);
        }
    }

    /// Shared coordinates under churn, every rule family: a bulk build
    /// over the first half of a tied population, then joins of the rest
    /// interleaved with leaves, equals the from-scratch rebuild after
    /// every event. Family 0 draws integers below 6 on every axis (a
    /// dense lattice, with identical points), family 1 copies four
    /// points over and over (identical points only), family 2 spreads
    /// coordinates exponentially (`±2^e`, `e < 20`, many shared).
    #[test]
    fn tied_populations_churn_equals_from_scratch_rebuild(
        n in 4usize..50,
        family in 0usize..3,
        dim in 1usize..4,
        variant in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coordinate = |i: usize| match family {
            0 => f64::from(rng.random_range(0..6u8)),
            1 => (i % 4 * 10) as f64,
            _ => {
                let e = rng.random_range(0..20);
                if rng.random_range(0..2) == 0 { 2f64.powi(e) } else { -(2f64.powi(e)) }
            }
        };
        let points: Vec<Point> = (0..n)
            .map(|i| Point::new((0..dim).map(|_| coordinate(i)).collect()).unwrap())
            .collect();
        let (seeded, joining) = points.split_at(n / 2);
        let peers: Vec<PeerInfo> = (0..seeded.len() as u64)
            .zip(seeded.iter().cloned())
            .map(|(i, p)| PeerInfo::new(PeerId(i), p))
            .collect();
        let mut store = TopologyStore::from_peers(peers, selection_for(variant, dim, 2));
        let mut rebuilt = assert_from_scratch(&store, None, "bulk build");
        let mut joins = joining.iter().cloned();
        for op in 0..joining.len() + n / 4 {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            let leave = (live.len() > 1 && (op % 3 == 2 || joins.len() == 0))
                .then(|| live[rng.random_range(0..live.len())]);
            let moved = apply_event(&mut store, leave, &mut joins);
            let what = format!("family {family}, variant {variant}, op {op}");
            rebuilt = assert_from_scratch(&store, Some(&rebuilt), &what);
            if variant == 0 {
                assert_mutual_and_local(&store, &moved, &what);
            }
        }
    }

    /// A departure removes no empty-rectangle link between two
    /// survivors: a rectangle that held no third peer cannot gain one
    /// when a peer leaves. So every link of a §2 tree between two
    /// survivors is still an overlay link after the departure.
    #[test]
    fn a_departure_removes_no_link_between_two_survivors(
        initial in 2usize..60,
        departures in 1usize..6,
        dim in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..departures.min(initial - 1) {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            let before: Vec<Vec<usize>> = (0..store.len())
                .map(|i| store.neighbors(i).collect())
                .collect();
            let leaver = live[rng.random_range(0..live.len())];
            store.remove(PeerId(leaver as u64));
            for &i in live.iter().filter(|&&i| i != leaver) {
                let row: Vec<usize> = store.neighbors(i).collect();
                for &j in before[i].iter().filter(|&&j| j != leaver) {
                    prop_assert!(row.contains(&j), "link {}-{} cut by the departure of {}", i, j, leaver);
                }
            }
        }
    }
}
