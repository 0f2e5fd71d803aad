//! Property tests for the region-sharded topology engine.
//!
//! THE sharding guarantee: a [`TopologyStore`] built through
//! [`TopologyStore::from_peers_sharded`] — parallel per-shard builds,
//! halo mirroring, cross-shard shortlist folds, profile-specialised
//! churn — holds **byte-identical** state to the plain single-shard
//! store: same adjacency, same fingerprint, same per-event dirty
//! regions, and identical group-tree builds over it. Across the §2
//! empty-rectangle rule and every Hyperplanes instance, random shard
//! counts, random halo widths, and arbitrary join/leave interleavings.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::uniform_points;
use geocast_geom::MetricKind;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{PeerId, PeerInfo, ShardConfig, TopologyStore};

fn selection_for(variant: usize, dim: usize, k: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match variant {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, k, MetricKind::L1)),
        2 => Arc::new(HyperplanesSelection::signed(dim, k, MetricKind::L1)),
        _ => Arc::new(HyperplanesSelection::k_closest(dim, k, MetricKind::L2)),
    }
}

/// Both stores must agree on everything an external consumer can see.
fn assert_identical(single: &TopologyStore, sharded: &TopologyStore, what: &str) {
    assert_eq!(single.graph(), sharded.graph(), "{what}: adjacency");
    assert_eq!(
        single.fingerprint(),
        sharded.fingerprint(),
        "{what}: fingerprint"
    );
    assert_eq!(
        single.delta_log().newest(),
        sharded.delta_log().newest(),
        "{what}: newest delta"
    );
    assert_eq!(single.epoch(), sharded.epoch(), "{what}: epoch");
    assert_eq!(single.live_count(), sharded.live_count(), "{what}: live");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded bulk build + arbitrary churn == the single-shard store,
    /// event for event, for every rule family and shard geometry.
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
        seed in 0u64..10_000,
    ) {
        let selection = selection_for(variant, dim, k);
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut config = ShardConfig::new(shards);
        if use_halo == 1 {
            config = config.with_halo_width(halo);
        }
        let mut single = TopologyStore::from_peers(peers.clone(), selection.clone());
        let mut sharded = TopologyStore::from_peers_sharded(peers, selection, &config);
        assert_identical(&single, &sharded, "bulk build");

        let points = uniform_points(ops, dim, 1000.0, seed ^ 0x6a6f_696e).into_points();
        let mut joins = points.into_iter();
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..single.len())
                .filter(|&i| !single.is_departed(PeerId(i as u64)))
                .collect();
            if live.len() > 1 && rng.random_range(0..3) == 0 {
                let gone = PeerId(live[rng.random_range(0..live.len())] as u64);
                single.remove(gone);
                sharded.remove(gone);
            } else {
                let p = joins.next().expect("one point per op suffices");
                prop_assert_eq!(single.insert(p.clone()), sharded.insert(p));
            }
            assert_identical(&single, &sharded, &format!("op {op}"));
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
        let mut single = TopologyStore::from_peers(infos.clone(), selection.clone());
        let mut sharded = TopologyStore::from_peers_sharded(infos, selection, &config);
        assert_identical(&single, &sharded, "lattice bulk build");

        for op in 0..ops {
            let live: Vec<usize> = (0..single.len())
                .filter(|&i| !single.is_departed(PeerId(i as u64)))
                .collect();
            if live.len() > 1 && rng.random_range(0..3) == 0 {
                let gone = PeerId(live[rng.random_range(0..live.len())] as u64);
                single.remove(gone);
                sharded.remove(gone);
            } else {
                let p = lattice_point(&mut rng);
                prop_assert_eq!(single.insert(p.clone()), sharded.insert(p));
            }
            assert_identical(&single, &sharded, &format!("lattice op {op}"));
        }
    }

    /// Remove-heavy churn over a **collision-free** integer lattice
    /// (every coordinate value used once per dimension, so the
    /// departure repair runs instead of declining) whose tile and halo
    /// edges fall on lattice values: peers sit exactly on band edges
    /// while their selectors' shadow boxes are tested against the
    /// foreign shards' uncovered boxes. Byte-identical to the single
    /// store and to the from-scratch selection after every event; a
    /// few joins deliberately reuse a coordinate to drive the decline
    /// fallback through the same geometry.
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
        let mut single = TopologyStore::from_peers(infos.clone(), selection.clone());
        let mut sharded = TopologyStore::from_peers_sharded(infos, selection, &config);
        assert_identical(&single, &sharded, "lattice bulk build");

        for op in 0..ops {
            let live: Vec<usize> = (0..single.len())
                .filter(|&i| !single.is_departed(PeerId(i as u64)))
                .collect();
            if live.len() > 3 && rng.random_range(0..3) != 0 {
                let gone = PeerId(live[rng.random_range(0..live.len())] as u64);
                single.remove(gone);
                sharded.remove(gone);
            } else {
                let Some(mut p) = fresh(&mut pools) else {
                    break;
                };
                if collide_every > 0 && op % collide_every == 0 {
                    // Share x with a live peer: its re-selections decline.
                    let twin = single.peers()[live[rng.random_range(0..live.len())]].point();
                    p = Point::new(vec![twin[0], p[1]]).expect("finite");
                }
                prop_assert_eq!(single.insert(p.clone()), sharded.insert(p));
            }
            assert_identical(&single, &sharded, &format!("{shards} shards, op {op}"));
            // …and to the definition: every live row from scratch.
            let peers = sharded.peers();
            for &i in live.iter().filter(|&&i| !sharded.is_departed(PeerId(i as u64))) {
                let ids: Vec<usize> = (0..peers.len())
                    .filter(|&j| j != i && !sharded.is_departed(PeerId(j as u64)))
                    .collect();
                let candidates: Vec<&PeerInfo> = ids.iter().map(|&j| &peers[j]).collect();
                let row: Vec<usize> = EmptyRectSelection
                    .select(&peers[i], &candidates)
                    .into_iter()
                    .map(|ci| ids[ci])
                    .collect();
                prop_assert_eq!(sharded.out_neighbors(i), &row[..], "row {} after op {}", i, op);
            }
        }
    }

    /// Every group tree built over the sharded store equals the same
    /// build over the single-shard store — the downstream consumers'
    /// view of the adjacency is interchangeable.
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
        let single = TopologyStore::from_peers(peers.clone(), selection.clone());
        let sharded = TopologyStore::from_peers_sharded(peers, selection, &ShardConfig::new(shards));

        let mut rng = StdRng::seed_from_u64(seed);
        let member_set: BTreeSet<usize> =
            (0..members).map(|_| rng.random_range(0..n)).collect();
        let root = *member_set.iter().next().expect("at least one member");
        let partitioner = OrthantRectPartitioner::median();
        let a = build_group_tree_grafted(&single, root, &member_set, &partitioner);
        let b = build_group_tree_grafted(&sharded, root, &member_set, &partitioner);
        prop_assert_eq!(a, b, "group build diverged between store engines");
    }
}
