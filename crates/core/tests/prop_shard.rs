//! Property tests for the tiled topology engine.
//!
//! THE store guarantee: a [`TopologyStore`] on any tiling — parallel
//! bulk build, halo mirroring, cross-shard shortlist folds,
//! profile-specialised churn — holds **byte-identical** state to the
//! from-scratch definition ([`oracle::equilibrium_live`], no index):
//! same adjacency, the fingerprint recomputed from it, per-event dirty
//! regions equal to the diff of two from-scratch graphs, and identical
//! group-tree builds over it. Across the §2 empty-rectangle rule and
//! every Hyperplanes instance, random shard counts, random halo widths,
//! arbitrary join/leave interleavings, and joins outside the seed
//! population's bounding box.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::uniform_points;
use geocast_geom::MetricKind;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{
    oracle, DeltaKind, OverlayGraph, PeerId, PeerInfo, ShardConfig, TopologyDelta, TopologyStore,
};

fn selection_for(variant: usize, dim: usize, k: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match variant {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, k, MetricKind::L1)),
        2 => Arc::new(HyperplanesSelection::signed(dim, k, MetricKind::L1)),
        _ => Arc::new(HyperplanesSelection::k_closest(dim, k, MetricKind::L2)),
    }
}

/// Everything an external consumer can see must be what the definition
/// says: adjacency and fingerprint from scratch, and — after `event`,
/// which must have taken the store to `epoch` — a newest delta whose
/// dirty region is the diff between the reference graph `before` it and
/// the one after. Returns the latter.
fn assert_is_definition(
    store: &TopologyStore,
    before: &OverlayGraph,
    epoch: u64,
    event: Option<DeltaKind>,
    what: &str,
) -> OverlayGraph {
    let after =
        oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref());
    assert_eq!(store.graph(), after, "{what}: adjacency");
    assert_eq!(
        store.fingerprint(),
        oracle::fingerprint(&after),
        "{what}: fingerprint"
    );
    let delta = event.map(|kind| TopologyDelta {
        epoch,
        kind,
        dirty: oracle::dirty_region(before, &after, kind.peer()),
    });
    assert_eq!(
        store.delta_log().newest(),
        delta.as_ref(),
        "{what}: newest delta"
    );
    assert_eq!(store.epoch(), epoch, "{what}: epoch");
    let live = store.departed().iter().filter(|&&gone| !gone).count();
    assert_eq!(store.live_count(), live, "{what}: live");
    after
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bulk build + arbitrary churn == the definition, event for event,
    /// for every rule family and shard geometry — with `outside` set,
    /// joins are drawn from a range three times the seed population's,
    /// so most land outside every tile, clamp to the nearest one and
    /// grow its cover box.
    #[test]
    fn sharded_store_is_byte_identical_to_single_shard(
        initial in 2usize..60,
        ops in 1usize..20,
        dim in 1usize..4,
        k in 1usize..4,
        variant in 0usize..4,
        shards in 1usize..24,
        halo in 0.0f64..250.0,
        use_halo in 0usize..2,
        outside in 0usize..2,
        seed in 0u64..10_000,
    ) {
        use geocast_geom::Point;

        let selection = selection_for(variant, dim, k);
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut config = ShardConfig::new(shards);
        if use_halo == 1 {
            config = config.with_halo_width(halo);
        }
        let mut store = TopologyStore::from_peers_sharded(peers, selection, &config);
        let empty = OverlayGraph::from_out_neighbors(Vec::new());
        let mut reference = assert_is_definition(&store, &empty, 0, None, "bulk build");

        let (range, shift) = if outside == 1 { (3000.0, 1000.0) } else { (1000.0, 0.0) };
        let points = uniform_points(ops, dim, range, seed ^ 0x6a6f_696e).into_points();
        let mut joins = points.into_iter().map(|p| {
            Point::new(p.coords().iter().map(|x| x - shift).collect()).expect("finite")
        });
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            let kind = if live.len() > 1 && rng.random_range(0..3) == 0 {
                let gone = live[rng.random_range(0..live.len())];
                store.remove(PeerId(gone as u64));
                DeltaKind::Leave(gone)
            } else {
                let p = joins.next().expect("one point per op suffices");
                DeltaKind::Join(store.insert(p).index())
            };
            let what = format!("op {op}");
            reference = assert_is_definition(&store, &reference, op as u64 + 1, Some(kind), &what);
        }
    }

    /// Integer-lattice populations with round halo widths drive exact
    /// band-edge ties — a peer sitting precisely at `tile_hi + halo` of
    /// a foreign tile — through the halo mirroring and skip tests.
    /// The uniform-float generator above almost never produces that
    /// geometry; this one hits it constantly (bbox corner peers tie at
    /// every round halo). Regression for the closed-band boundary fix
    /// in `Tiling::shards_near`.
    #[test]
    fn lattice_populations_with_round_halos_stay_byte_identical(
        cells in 2usize..9,
        initial in 3usize..40,
        ops in 1usize..12,
        variant in 0usize..4,
        k in 1usize..3,
        shards in 1usize..17,
        halo_cells in 0usize..4,
        seed in 0u64..10_000,
    ) {
        use geocast_geom::Point;

        let dim = 2;
        let step = 100.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let lattice_point = |rng: &mut StdRng| {
            let coords: Vec<f64> = (0..dim)
                .map(|_| rng.random_range(0..=cells) as f64 * step)
                .collect();
            Point::new(coords).expect("lattice coordinates are finite")
        };
        let infos: Vec<PeerInfo> = (0..initial)
            .map(|i| PeerInfo::new(PeerId(i as u64), lattice_point(&mut rng)))
            .collect();
        let selection = selection_for(variant, dim, k);
        let config = ShardConfig::new(shards).with_halo_width(halo_cells as f64 * step);
        let mut store = TopologyStore::from_peers_sharded(infos, selection, &config);
        let empty = OverlayGraph::from_out_neighbors(Vec::new());
        let mut reference = assert_is_definition(&store, &empty, 0, None, "lattice bulk build");

        for op in 0..ops {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            let kind = if live.len() > 1 && rng.random_range(0..3) == 0 {
                let gone = live[rng.random_range(0..live.len())];
                store.remove(PeerId(gone as u64));
                DeltaKind::Leave(gone)
            } else {
                DeltaKind::Join(store.insert(lattice_point(&mut rng)).index())
            };
            let what = format!("lattice op {op}");
            reference = assert_is_definition(&store, &reference, op as u64 + 1, Some(kind), &what);
        }
    }

    /// Remove-heavy churn over a **collision-free** integer lattice
    /// (every coordinate value used once per dimension, so the indexes
    /// answer instead of declining) whose tile and halo edges fall on
    /// lattice values: peers sit exactly on band edges while the folds
    /// of the joins in between test the foreign shards' uncovered
    /// boxes, and every departure's closed-form repair has to agree
    /// with them. Byte-identical to the from-scratch definition after
    /// every event; a few joins deliberately reuse a coordinate to
    /// drive the decline fallback through the same geometry.
    #[test]
    fn remove_heavy_lattice_churn_on_band_edges_stays_byte_identical(
        initial in 10usize..40,
        ops in 4usize..24,
        shards_pick in 0usize..3,
        halo_cells in 0usize..5,
        collide_every in 0usize..6,
        seed in 0u64..10_000,
    ) {
        use geocast_geom::Point;

        let shards = [1usize, 4, 16][shards_pick];
        let (cells, step) = (48usize, 25.0);
        let mut rng = StdRng::seed_from_u64(seed);
        // Per dimension, a shuffled pool of unused lattice values; the
        // two anchors pin the domain to [0, 48·step]², which 4×4 tiles
        // cut at multiples of 12·step.
        let mut pools: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let mut pool: Vec<usize> = (1..cells).collect();
                for i in (1..pool.len()).rev() {
                    pool.swap(i, rng.random_range(0..=i));
                }
                pool
            })
            .collect();
        let at = |x: usize, y: usize| {
            Point::new(vec![x as f64 * step, y as f64 * step]).expect("finite")
        };
        let fresh = |pools: &mut Vec<Vec<usize>>| {
            Some(at(pools[0].pop()?, pools[1].pop()?))
        };
        let mut points = vec![at(0, 0), at(cells, cells)];
        while points.len() < initial {
            points.push(fresh(&mut pools).expect("47 values cover 40 peers"));
        }
        let infos: Vec<PeerInfo> = points
            .iter()
            .enumerate()
            .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p.clone()))
            .collect();
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let config = ShardConfig::new(shards).with_halo_width(halo_cells as f64 * step);
        let mut store = TopologyStore::from_peers_sharded(infos, selection, &config);
        let empty = OverlayGraph::from_out_neighbors(Vec::new());
        let mut reference = assert_is_definition(&store, &empty, 0, None, "lattice bulk build");

        for op in 0..ops {
            let live: Vec<usize> = (0..store.len())
                .filter(|&i| !store.is_departed(PeerId(i as u64)))
                .collect();
            let kind = if live.len() > 3 && rng.random_range(0..3) != 0 {
                let gone = live[rng.random_range(0..live.len())];
                store.remove(PeerId(gone as u64));
                DeltaKind::Leave(gone)
            } else {
                let Some(mut p) = fresh(&mut pools) else {
                    break;
                };
                if collide_every > 0 && op % collide_every == 0 {
                    // Share x with a live peer: its re-selections decline.
                    let twin = store.peers()[live[rng.random_range(0..live.len())]].point();
                    p = Point::new(vec![twin[0], p[1]]).expect("finite");
                }
                DeltaKind::Join(store.insert(p).index())
            };
            let what = format!("{shards} shards, op {op}");
            reference = assert_is_definition(&store, &reference, op as u64 + 1, Some(kind), &what);
        }
    }

    /// Every group tree built over a tiled store equals the same build
    /// over the one-tile store — the downstream consumers' view of the
    /// adjacency does not depend on the tiling.
    #[test]
    fn group_builds_agree_across_store_engines(
        n in 8usize..50,
        shards in 1usize..17,
        members in 2usize..8,
        variant in 0usize..2,
        seed in 0u64..10_000,
    ) {
        use geocast_core::groups::build_group_tree_grafted;
        use geocast_core::OrthantRectPartitioner;

        let selection = selection_for(variant, 2, 2);
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        let one_tile = TopologyStore::from_peers(peers.clone(), selection.clone());
        let tiled = TopologyStore::from_peers_sharded(peers, selection, &ShardConfig::new(shards));

        let mut rng = StdRng::seed_from_u64(seed);
        let member_set: BTreeSet<usize> =
            (0..members).map(|_| rng.random_range(0..n)).collect();
        let root = *member_set.iter().next().expect("at least one member");
        let partitioner = OrthantRectPartitioner::median();
        let a = build_group_tree_grafted(&one_tile, root, &member_set, &partitioner);
        let b = build_group_tree_grafted(&tiled, root, &member_set, &partitioner);
        prop_assert_eq!(a, b, "group build diverged between tilings");
    }
}
