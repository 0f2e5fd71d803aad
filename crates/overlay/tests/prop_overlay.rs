//! Property-based tests for neighbour selection and the equilibrium
//! topology, driven by seeded workloads.

use std::sync::Arc;

use proptest::prelude::*;

use geocast_geom::gen::uniform_points;
use geocast_geom::{l1, Interval, Orthant, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, route_to_peer};
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{oracle, OverlayGraph, PeerInfo, TopologyStore};

fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
    PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
}

/// The store's bulk build over `population` under `selection`.
fn bulk_build<S: NeighborSelection + Send + Sync + 'static>(
    population: &[PeerInfo],
    selection: S,
) -> OverlayGraph {
    TopologyStore::from_peers(population.to_vec(), Arc::new(selection)).graph()
}

/// The equilibrium of the whole population, from the definition.
fn definition(population: &[PeerInfo], selection: &(dyn NeighborSelection + Sync)) -> OverlayGraph {
    oracle::equilibrium_live(population, &vec![false; population.len()], selection)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE engine guarantee: the store's spatially-indexed, parallel
    /// bulk build is bit-identical to the definition, for the
    /// empty-rectangle rule.
    #[test]
    fn indexed_equilibrium_equals_brute_force_empty_rect(
        n in 2usize..120,
        dim in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let engine = bulk_build(&population, EmptyRectSelection);
        prop_assert_eq!(engine, definition(&population, &EmptyRectSelection));
    }

    /// Same engine guarantee for the Hyperplanes family: orthogonal
    /// instances take the per-orthant index path, signed and K-closest
    /// instances the fallback — all must equal the definition.
    #[test]
    fn indexed_equilibrium_equals_brute_force_hyperplanes(
        n in 2usize..80,
        dim in 1usize..4,
        k in 1usize..5,
        seed in 0u64..10_000,
        variant in 0usize..3,
    ) {
        let population = peers(n, dim, seed);
        let sel = match variant {
            0 => HyperplanesSelection::orthogonal(dim, k),
            1 => HyperplanesSelection::signed(dim, k),
            _ => HyperplanesSelection::k_closest(dim, k),
        };
        let brute = definition(&population, &sel);
        prop_assert_eq!(bulk_build(&population, sel), brute, "variant {}", variant);
    }

    /// The batch selection API is position-for-position the same as the
    /// candidate-slice API with the self-gap re-indexing applied.
    #[test]
    fn select_in_matches_select_with_reindexing(
        n in 2usize..60,
        dim in 1usize..4,
        seed in 0u64..10_000,
        who_pick in 0usize..1000,
    ) {
        use geocast_overlay::select::SelectContext;
        let population = peers(n, dim, seed);
        let i = who_pick % n;
        let cands: Vec<&PeerInfo> = population
            .iter()
            .enumerate()
            .filter_map(|(j, p)| (j != i).then_some(p))
            .collect();
        let ctx = SelectContext::without_index();
        for sel in [
            Box::new(EmptyRectSelection) as Box<dyn NeighborSelection>,
            Box::new(HyperplanesSelection::orthogonal(dim, 2)),
        ] {
            let direct: Vec<usize> = sel
                .select(&population[i], &cands)
                .into_iter()
                .map(|ci| if ci < i { ci } else { ci + 1 })
                .collect();
            prop_assert_eq!(sel.select_in(&population, i, &ctx), direct);
        }
    }

    /// CSR round-trip: whatever lists go into `from_out_neighbors` come
    /// back out of `out_neighbors` sorted, deduplicated and
    /// self-loop-free — and the graph equals a rebuild from its own
    /// neighbour lists.
    #[test]
    fn csr_graph_round_trips(
        n in 1usize..40,
        seed in 0u64..10_000,
        density in 1usize..8,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let out: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..density).map(|_| rng.random_range(0..n)).collect())
            .collect();
        let g = geocast_overlay::OverlayGraph::from_out_neighbors(out.clone());
        for (i, lists) in out.iter().enumerate() {
            let mut want: Vec<usize> = lists.iter().copied().filter(|&j| j != i).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(g.out_neighbors(i), &want[..], "peer {}", i);
        }
        let rebuilt = geocast_overlay::OverlayGraph::from_out_neighbors(
            (0..n).map(|i| g.out_neighbors(i).to_vec()).collect(),
        );
        prop_assert_eq!(&rebuilt, &g);
        prop_assert_eq!(
            g.directed_edge_count(),
            (0..n).map(|i| g.out_neighbors(i).len()).sum::<usize>()
        );
    }

    /// The CSR `undirected()` closure is unchanged versus the seed's
    /// per-list construction, and `undirected_closure()` agrees with it.
    #[test]
    fn undirected_closure_matches_seed_reference(
        n in 1usize..50,
        seed in 0u64..10_000,
        density in 1usize..6,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc5);
        let out: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..density).map(|_| rng.random_range(0..n)).collect())
            .collect();
        let g = geocast_overlay::OverlayGraph::from_out_neighbors(out);

        // Seed representation of the closure: push both directions into
        // per-peer Vecs, then sort + dedup.
        let mut reference: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for &j in g.out_neighbors(i) {
                reference[i].push(j);
                reference[j].push(i);
            }
        }
        for list in &mut reference {
            list.sort_unstable();
            list.dedup();
        }

        let closure = g.undirected_closure();
        for (i, list) in reference.iter().enumerate() {
            prop_assert_eq!(closure.out_neighbors(i), &list[..], "peer {}", i);
        }
        prop_assert!(closure.is_symmetric());
        let degrees: Vec<usize> = reference.iter().map(Vec::len).collect();
        prop_assert_eq!(g.undirected_degrees(), degrees);
    }

    /// The empty-rectangle equilibrium is symmetric and connected for any
    /// population — the §2 construction's substrate guarantees.
    #[test]
    fn empty_rect_equilibrium_symmetric_connected(
        n in 2usize..80,
        dim in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let g = bulk_build(&population, EmptyRectSelection);
        prop_assert!(g.is_symmetric());
        prop_assert!(g.is_connected_undirected());
    }

    /// Selected empty-rect neighbours have empty spanned rectangles;
    /// non-selected ones are blocked by a witness peer.
    #[test]
    fn empty_rect_selection_matches_definition(
        n in 2usize..40,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, 2, seed);
        let cands: Vec<&PeerInfo> = population[1..].iter().collect();
        let picked = EmptyRectSelection.select(&population[0], &cands);
        for (ci, cand) in cands.iter().enumerate() {
            let rect = Rect::spanned_open(population[0].point(), 0, cand.point(), cand.id().index())
                .unwrap();
            let blocked = cands
                .iter()
                .enumerate()
                .any(|(oi, o)| oi != ci && rect.contains_id(o.point(), o.id().index()));
            prop_assert_eq!(picked.contains(&ci), !blocked, "candidate {}", ci);
        }
    }

    /// Orthogonal selection keeps at most K per orthant and covers every
    /// populated orthant.
    #[test]
    fn orthogonal_selection_contract(
        n in 2usize..60,
        dim in 1usize..5,
        k in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let cands: Vec<&PeerInfo> = population[1..].iter().collect();
        let sel = HyperplanesSelection::orthogonal(dim, k);
        let picked = sel.select(&population[0], &cands);
        let mut per_orthant = vec![0usize; Orthant::count(dim)];
        for &ci in &picked {
            let o = Orthant::classify(population[0].point(), 0, cands[ci].point(), cands[ci].id().index())
                .unwrap();
            per_orthant[o.index()] += 1;
        }
        prop_assert!(per_orthant.iter().all(|&c| c <= k));
        // Populated orthants are represented.
        for (i, cand) in cands.iter().enumerate() {
            let o = Orthant::classify(population[0].point(), 0, cand.point(), cand.id().index()).unwrap();
            if per_orthant[o.index()] == 0 {
                prop_assert!(
                    !picked.is_empty() || cands.is_empty(),
                    "candidate {i} in unrepresented orthant"
                );
                prop_assert!(false, "orthant {} populated but empty", o.index());
            }
        }
    }

    /// The K-sweep equals the store's bulk build for every K.
    #[test]
    fn k_sweep_equals_generic(
        n in 2usize..40,
        dim in 1usize..4,
        k in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let generic = bulk_build(
            &population,
            HyperplanesSelection::orthogonal(dim, k),
        );
        let swept = oracle::orthogonal_k_sweep(&population, &[k]);
        prop_assert_eq!(&swept[0].1, &generic);
    }

    /// Out-neighbour sets grow monotonically with K.
    #[test]
    fn selection_monotone_in_k(
        n in 3usize..40,
        dim in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let sweep = oracle::orthogonal_k_sweep(&population, &[1, 2, 4]);
        for i in 0..n {
            let a = sweep[0].1.out_neighbors(i);
            let b = sweep[1].1.out_neighbors(i);
            let c = sweep[2].1.out_neighbors(i);
            prop_assert!(a.iter().all(|x| b.contains(x)), "K=1 ⊄ K=2 at peer {i}");
            prop_assert!(b.iter().all(|x| c.contains(x)), "K=2 ⊄ K=4 at peer {i}");
        }
    }

    /// Orthogonal equilibrium with K ≥ 1 always connects the overlay
    /// (every populated orthant is linked, and orthants tile space).
    #[test]
    fn orthogonal_equilibrium_connected(
        n in 2usize..60,
        dim in 1usize..5,
        k in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let g = bulk_build(
            &population,
            HyperplanesSelection::orthogonal(dim, k),
        );
        prop_assert!(g.is_connected_undirected());
    }

    /// The signed arrangement refines orthants: with K=1 it selects a
    /// superset-or-equal neighbour count.
    #[test]
    fn signed_selects_at_least_as_many_as_orthogonal(
        n in 2usize..50,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, 2, seed);
        let cands: Vec<&PeerInfo> = population[1..].iter().collect();
        let orth = HyperplanesSelection::orthogonal(2, 1)
            .select(&population[0], &cands);
        let signed = HyperplanesSelection::signed(2, 1)
            .select(&population[0], &cands);
        prop_assert!(signed.len() >= orth.len());
    }

    /// THE routing theorem: greedy routing between peers always delivers
    /// on empty-rectangle equilibria, with strictly decreasing distance.
    #[test]
    fn greedy_peer_routing_always_delivers(
        n in 2usize..60,
        dim in 1usize..5,
        seed in 0u64..10_000,
        src_pick in 0usize..1000,
        dst_pick in 0usize..1000,
    ) {
        let store = TopologyStore::from_peers(peers(n, dim, seed), Arc::new(EmptyRectSelection));
        let population = store.peers();
        let src = src_pick % n;
        let dst = dst_pick % n;
        let route = route_to_peer(&store, src, dst);
        prop_assert!(route.delivered(), "{src} -> {dst} stuck at {}", route.last());
        prop_assert_eq!(route.last(), dst);
        let target = population[dst].point();
        let dists: Vec<f64> = route
            .path()
            .iter()
            .map(|&i| l1(population[i].point().coords(), target.coords()))
            .collect();
        prop_assert!(dists.windows(2).all(|w| w[1] < w[0]));
    }

    /// THE region-entry theorem: distance-to-box greedy routing always
    /// enters a populated region on empty-rectangle equilibria — the
    /// totality the graft pass's tier-2 fallback rests on, over the
    /// store adjacency it walks.
    #[test]
    fn greedy_region_routing_enters_populated_regions(
        n in 2usize..60,
        seed in 0u64..10_000,
        src_pick in 0usize..1000,
        member_pick in 0usize..1000,
        half_width in 1.0f64..200.0,
    ) {
        let population = peers(n, 2, seed);
        let src = src_pick % n;
        // A region guaranteed populated: a box around some member.
        let member = member_pick % n;
        let c = population[member].point();
        let region = Rect::new(vec![
            Interval::new(c[0] - half_width, c[0] + half_width),
            Interval::new(c[1] - half_width, c[1] + half_width),
        ]).unwrap();
        let store = TopologyStore::from_peers(population, Arc::new(EmptyRectSelection));
        let walk = greedy_route_to_rect_on_store(&store, src, &region, n);
        prop_assert!(
            walk.delivered(),
            "stuck at {} outside a region containing peer {member}",
            walk.last()
        );
        prop_assert!(region.contains(store.peers()[walk.last()].point()));
    }
}
