//! Property tests for the store against the definition.
//!
//! THE store guarantee: a [`TopologyStore`] — parallel bulk build on
//! one index, profile-specialised churn — holds **byte-identical** state
//! to the from-scratch definition ([`oracle::equilibrium_live`], no
//! index): same adjacency, the fingerprint recomputed from it, and
//! per-event dirty regions equal to the diff of two from-scratch graphs.
//! Across the §2 empty-rectangle rule and every Hyperplanes instance,
//! 1- to 3-D populations, arbitrary join/leave interleavings, joins
//! outside the seed population's bounding box, and integer lattices
//! with and without coordinate collisions.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::uniform_points;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{
    oracle, DeltaKind, OverlayGraph, PeerId, PeerInfo, TopologyDelta, TopologyStore,
};

fn selection_for(variant: usize, dim: usize, k: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match variant {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, k)),
        2 => Arc::new(HyperplanesSelection::signed(dim, k)),
        _ => Arc::new(HyperplanesSelection::k_closest(dim, k)),
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
    /// for every rule family — with `outside` set, joins are drawn from
    /// a range three times the seed population's, so most land outside
    /// the box the index was built over, in its clamped edge cells.
    #[test]
    fn store_is_byte_identical_to_the_definition(
        initial in 2usize..60,
        ops in 1usize..20,
        dim in 1usize..4,
        k in 1usize..4,
        variant in 0usize..4,
        outside in 0usize..2,
        seed in 0u64..10_000,
    ) {
        use geocast_geom::Point;

        let selection = selection_for(variant, dim, k);
        let peers = PeerInfo::from_point_set(&uniform_points(initial, dim, 1000.0, seed));
        let mut store = TopologyStore::from_peers(peers, selection);
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

    /// Populations on a small round integer lattice: shared
    /// coordinates and whole duplicate points everywhere. The
    /// uniform-float generator above almost never produces that
    /// geometry; this one hits it on nearly every event, so the index's
    /// tied answers and the walk's tied sets are on every path.
    #[test]
    fn round_lattice_populations_stay_byte_identical(
        cells in 2usize..9,
        initial in 3usize..40,
        ops in 1usize..12,
        variant in 0usize..4,
        k in 1usize..3,
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
        let mut store = TopologyStore::from_peers(infos, selection);
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
    /// (every coordinate value used once per dimension): every
    /// departure's closed-form repair and every join's walk land on round
    /// coordinates.
    /// Byte-identical to the from-scratch definition after every event;
    /// a few joins deliberately reuse a coordinate to drive the tied
    /// set and the index's tied answers through the same geometry.
    #[test]
    fn remove_heavy_collision_free_lattice_churn_stays_byte_identical(
        initial in 10usize..40,
        ops in 4usize..24,
        collide_every in 0usize..6,
        seed in 0u64..10_000,
    ) {
        use geocast_geom::Point;

        let (cells, step) = (48usize, 25.0);
        let mut rng = StdRng::seed_from_u64(seed);
        // Per dimension, a shuffled pool of unused lattice values; the
        // two anchors pin the domain to [0, 48·step]².
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
        let mut store = TopologyStore::from_peers(infos, selection);
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
                    // Share x with a live peer: its re-selections are ties.
                    let twin = store.peers()[live[rng.random_range(0..live.len())]].point();
                    p = Point::new(vec![twin[0], p[1]]).expect("finite");
                }
                DeltaKind::Join(store.insert(p).index())
            };
            let what = format!("collision-free lattice op {op}");
            reference = assert_is_definition(&store, &reference, op as u64 + 1, Some(kind), &what);
        }
    }
}
