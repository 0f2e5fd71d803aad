//! Property tests for the incremental churn engine.
//!
//! THE churn-engine guarantee: a [`TopologyStore`] maintained through
//! arbitrary interleavings of joins and leaves holds **exactly** the
//! equilibrium topology a from-scratch rebuild over the surviving
//! population would produce — for the §2 empty-rectangle rule and every
//! Hyperplanes instance (orthogonal, signed, K-closest). The localized
//! live-network path must track the same topology without ever running
//! global convergence.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::uniform_points;
use geocast_geom::MetricKind;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{
    NetworkConfig, OverlayGraph, OverlayNetwork, PeerId, PeerInfo, ShardConfig, TopologyStore,
};

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
    let peers = store.peers();
    let selection = store.selection();
    let out: Vec<Vec<usize>> = (0..peers.len())
        .map(|i| {
            if store.is_departed(PeerId(i as u64)) {
                return Vec::new();
            }
            let cand_ids: Vec<usize> = (0..peers.len())
                .filter(|&j| j != i && !store.is_departed(PeerId(j as u64)))
                .collect();
            let candidates: Vec<&PeerInfo> = cand_ids.iter().map(|&j| &peers[j]).collect();
            selection
                .select(&peers[i], &candidates)
                .into_iter()
                .map(|ci| cand_ids[ci])
                .collect()
        })
        .collect();
    OverlayGraph::from_out_neighbors(out)
}

/// A reproducible churn trace: joins draw fresh points, leaves pick a
/// random live peer (never emptying the population).
fn churn_trace(
    store: &mut TopologyStore,
    ops: usize,
    dim: usize,
    seed: u64,
    mut check: impl FnMut(&TopologyStore, usize),
) {
    let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
    let mut joins = points.into_iter();
    let mut rng = StdRng::seed_from_u64(seed);
    for op in 0..ops {
        let live: Vec<usize> = (0..store.len())
            .filter(|&i| !store.is_departed(PeerId(i as u64)))
            .collect();
        if live.len() > 1 && rng.random_range(0..3) == 0 {
            store.remove(PeerId(live[rng.random_range(0..live.len())] as u64));
        } else {
            store.insert(joins.next().expect("one point per op suffices"));
        }
        check(store, op);
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
        prop_assert_eq!(store.graph(), from_scratch(&store), "initial build, variant {}", variant);
        churn_trace(&mut store, ops, dim, seed, |store, op| {
            assert_eq!(
                store.graph(),
                from_scratch(store),
                "variant {variant} diverged after op {op}"
            );
        });
    }

    /// Remove-heavy churn on the sharded engine — where a departure
    /// *repairs* each selector's row (old row + shadow query, merged
    /// across the shards the shadow reaches) instead of re-selecting —
    /// equals the from-scratch rebuild after every event, at 1, 4 and
    /// 16 shards, in 2-D and 3-D.
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
        prop_assert_eq!(store.graph(), from_scratch(&store), "bulk build");
        let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
        let mut joins = points.into_iter();
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            // Two departures in three events.
            if live.len() > 2 && rng.random_range(0..3) != 0 {
                store.remove(PeerId(live[rng.random_range(0..live.len())] as u64));
            } else {
                store.insert(joins.next().expect("one point per op suffices"));
            }
            prop_assert_eq!(
                store.graph(),
                from_scratch(&store),
                "{} shards, dim {}: diverged after op {}", shards, dim, op
            );
        }
    }

    /// The localized live-network path tracks the store's equilibrium
    /// (and therefore the from-scratch rebuild) without any global
    /// convergence call.
    #[test]
    fn localized_live_path_tracks_equilibrium(
        initial in 1usize..12,
        ops in 1usize..12,
        dim in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let mut net = OverlayNetwork::new(
            Arc::new(EmptyRectSelection),
            NetworkConfig { seed, ..NetworkConfig::default() },
        );
        for p in uniform_points(initial, dim, 1000.0, seed).into_points() {
            net.add_peer_localized(p);
        }
        // Drive the same trace through the network; its embedded store is
        // the source of truth.
        let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
        let mut joins = points.into_iter();
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..net.len())
                .filter(|&i| !net.has_departed(PeerId(i as u64)))
                .collect();
            if live.len() > 1 && rng.random_range(0..3) == 0 {
                net.remove_peer_localized(PeerId(live[rng.random_range(0..live.len())] as u64));
            } else {
                net.add_peer_localized(joins.next().expect("one point per op"));
            }
            prop_assert_eq!(
                net.topology(),
                net.reference_topology(),
                "live topology diverged from store after op {}", op
            );
            prop_assert_eq!(
                net.reference_topology(),
                from_scratch(net.store()),
                "store diverged from rebuild after op {}", op
            );
        }
    }
}
