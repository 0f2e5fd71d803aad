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

use geocast_geom::gen::uniform_points;
use geocast_geom::{MetricKind, Point};
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{oracle, OverlayGraph, PeerId, PeerInfo, ShardConfig, TopologyStore};

fn selection_for(variant: usize, dim: usize, k: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match variant {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, k, MetricKind::L1)),
        2 => Arc::new(HyperplanesSelection::signed(dim, k, MetricKind::L1)),
        _ => Arc::new(HyperplanesSelection::k_closest(dim, k, MetricKind::L2)),
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
            let row = store.out_neighbors(v).to_vec();
            store.remove(PeerId(v as u64));
            (v, row)
        }
        None => {
            let id = store.insert(joins.next().expect("one point per op suffices"));
            (id.index(), store.out_neighbors(id.index()).to_vec())
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
        for &j in store.out_neighbors(i) {
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
    /// alone (no selector's row read, no index and no shard asked)
    /// instead of re-selections — equals the from-scratch rebuild after
    /// every event, at 1, 4 and 16 shards, in 2-D and 3-D.
    #[test]
    fn sharded_remove_heavy_churn_equals_from_scratch_rebuild(
        initial in 12usize..70,
        ops in 4usize..30,
        dim in 2usize..4,
        shards_pick in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let shards = [1usize, 4, 16][shards_pick];
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut store = TopologyStore::from_peers_sharded(
            peers,
            Arc::new(EmptyRectSelection),
            &ShardConfig::new(shards),
        );
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
            let what = format!("{shards} shards, dim {dim}, op {op}");
            rebuilt = assert_from_scratch(&store, Some(&rebuilt), &what);
            assert_mutual_and_local(&store, &moved, &what);
        }
    }
}
