//! Property-based tests for the §2 construction and §3 stability trees,
//! driven by seeded workloads over the full parameter space.

#![allow(clippy::needless_range_loop)] // indices are peer ids across several tables

use proptest::prelude::*;

use geocast_core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast_core::{baseline, build_tree, OrthantRectPartitioner, PickRule, ZonePartitioner};
use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
use geocast_geom::{MetricKind, Rect};
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
use geocast_overlay::{oracle, PeerInfo};

fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
    PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// THE §2 theorem, exercised across the parameter space: at the
    /// empty-rectangle equilibrium, the construction spans with exactly
    /// N−1 messages, respects the orthant bound, and validates.
    #[test]
    fn section2_invariants_hold_everywhere(
        n in 1usize..70,
        dim in 1usize..5,
        root_pick in 0usize..1000,
        seed in 0u64..10_000,
        pick in prop_oneof![
            Just(PickRule::Median),
            Just(PickRule::Closest),
            Just(PickRule::Farthest),
        ],
    ) {
        let population = peers(n, dim, seed);
        let overlay = oracle::equilibrium(&population, &EmptyRectSelection);
        let root = root_pick % n;
        let partitioner = OrthantRectPartitioner::new(pick, MetricKind::L1);
        let result = build_tree(&population, &overlay, root, &partitioner);
        prop_assert!(result.tree.is_spanning());
        prop_assert_eq!(result.messages, n - 1);
        prop_assert!(result.tree.max_children() <= 1 << dim);
        prop_assert_eq!(result.tree.validate(), Ok(()));
        prop_assert_eq!(result.tree.root(), root);
    }

    /// Partitioner contract on arbitrary restricted zones (not just the
    /// full space): disjoint sub-zones inside the parent, each child in
    /// its own zone, every in-zone neighbour covered exactly once.
    #[test]
    fn partitioner_contract_on_restricted_zones(
        n in 1usize..60,
        seed in 0u64..10_000,
        (lo0, hi0) in (0.0f64..500.0, 500.0f64..1000.0),
        (lo1, hi1) in (0.0f64..500.0, 500.0f64..1000.0),
    ) {
        let population = peers(n + 1, 2, seed);
        let p = &population[0];
        let zone = Rect::new(vec![
            geocast_geom::Interval::new(lo0, hi0),
            geocast_geom::Interval::new(lo1, hi1),
        ]).unwrap();
        let in_zone: Vec<&PeerInfo> = population[1..]
            .iter()
            .filter(|q| zone.contains(q.point()))
            .collect();
        let parts = OrthantRectPartitioner::median().partition(p, &zone, &in_zone);
        for (i, (ci, z)) in parts.iter().enumerate() {
            prop_assert!(z.contains(in_zone[*ci].point()));
            prop_assert!(zone.contains_rect(z));
            prop_assert!(!z.contains(p.point()));
            for (_cj, zj) in parts.iter().take(i) {
                prop_assert!(z.is_disjoint(zj));
            }
        }
        for q in &in_zone {
            let covering = parts.iter().filter(|(_, z)| z.contains(q.point())).count();
            prop_assert_eq!(covering, 1);
        }
    }

    /// THE §3 theorem: on any Orthogonal-Hyperplanes equilibrium with
    /// embedded lifetimes, preferred links form a heap-ordered tree and
    /// replaying all departures never disconnects anyone.
    #[test]
    fn section3_invariants_hold_everywhere(
        n in 2usize..70,
        dim in 1usize..6,
        k in 1usize..4,
        seed in 0u64..10_000,
        policy in prop_oneof![
            Just(PreferredPolicy::MaxT),
            Just(PreferredPolicy::MinHigherT),
            Just(PreferredPolicy::ClosestHigherT(MetricKind::L1)),
        ],
    ) {
        let base = uniform_points(n, dim, 1000.0, seed);
        let times = lifetimes(n, 1000.0, seed ^ 0xf00d);
        let population = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let overlay = oracle::equilibrium(
            &population,
            &HyperplanesSelection::orthogonal(dim, k, MetricKind::L1),
        );
        let forest = preferred_links(&population, &overlay, policy);
        prop_assert!(forest.is_tree());
        prop_assert!(forest.heap_property_holds(&population));
        let tree = forest.to_multicast_tree().unwrap();
        let t: Vec<f64> = population.iter().map(geocast_overlay::PeerInfo::departure_time).collect();
        prop_assert_eq!(non_leaf_departures(&tree, &t), 0);
    }

    /// Degree accounting identity: in a spanning tree the degrees sum to
    /// 2(N−1), and the diameter never exceeds twice the height.
    #[test]
    fn tree_metric_identities(
        n in 1usize..60,
        dim in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, dim, seed);
        let overlay = oracle::equilibrium(&population, &EmptyRectSelection);
        let tree = build_tree(&population, &overlay, 0, &OrthantRectPartitioner::median()).tree;
        let degree_sum: usize = tree.degrees().iter().sum();
        prop_assert_eq!(degree_sum, 2 * (n - 1));
        prop_assert!(tree.diameter() <= 2 * tree.longest_root_to_leaf());
        prop_assert!(tree.diameter() >= tree.longest_root_to_leaf());
    }

    /// Flooding accounting identity: messages = Σ deg(v) − (reached − 1)
    /// duplicates, and the flood tree's depths are BFS distances.
    #[test]
    fn flooding_identities(
        n in 1usize..60,
        seed in 0u64..10_000,
    ) {
        let population = peers(n, 2, seed);
        let overlay = oracle::equilibrium(&population, &EmptyRectSelection);
        let result = baseline::flood(&overlay, 0);
        prop_assert!(result.tree.is_spanning());
        prop_assert_eq!(result.duplicates, result.messages - (n - 1));
        let depths = result.tree.depths();
        let dists = overlay.bfs_distances(0);
        for i in 0..n {
            prop_assert_eq!(depths[i], dists[i]);
        }
    }

    /// Random spanning trees use only overlay edges and span whatever is
    /// reachable.
    #[test]
    fn random_tree_edges_are_overlay_edges(
        n in 1usize..50,
        seed in 0u64..10_000,
        tree_seed in 0u64..100,
    ) {
        let population = peers(n, 2, seed);
        let overlay = oracle::equilibrium(&population, &EmptyRectSelection);
        let tree = baseline::random_parent_tree(&overlay, 0, tree_seed);
        prop_assert!(tree.is_spanning());
        let adj = overlay.undirected_closure();
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                prop_assert!(adj.out_neighbors(v).contains(&p));
            }
        }
    }

    /// Repair after any single non-root departure re-spans the survivors
    /// at cost = live members of the orphaned zone.
    #[test]
    fn repair_is_total_and_local(
        n in 3usize..50,
        dim in 1usize..4,
        seed in 0u64..10_000,
        victim_pick in 0usize..1000,
    ) {
        use geocast_core::repair::{repair_after_departure, RepairError};

        let population = peers(n, dim, seed);
        let overlay = oracle::equilibrium(&population, &EmptyRectSelection);
        let build = build_tree(&population, &overlay, 0, &OrthantRectPartitioner::median());
        let victim = 1 + victim_pick % (n - 1); // never the root

        // Survivor equilibrium over original indices.
        let live: Vec<usize> = (0..n).filter(|&i| i != victim).collect();
        let live_peers: Vec<PeerInfo> = live
            .iter()
            .enumerate()
            .map(|(d, &o)| PeerInfo::new(
                geocast_overlay::PeerId(d as u64),
                population[o].point().clone(),
            ))
            .collect();
        let dense = oracle::equilibrium(&live_peers, &EmptyRectSelection);
        let mut out = vec![Vec::new(); n];
        for (di, &oi) in live.iter().enumerate() {
            out[oi] = dense.out_neighbors(di).iter().map(|&dj| live[dj]).collect();
        }
        let live_overlay = geocast_overlay::OverlayGraph::from_out_neighbors(out);

        match repair_after_departure(
            &population,
            &live_overlay,
            &build,
            victim,
            &OrthantRectPartitioner::median(),
        ) {
            Ok(repaired) => {
                for &i in &live {
                    prop_assert!(repaired.tree.is_reached(i), "live {} lost", i);
                }
                prop_assert!(!repaired.tree.is_reached(victim));
                prop_assert_eq!(repaired.tree.validate(), Ok(()));
                let zone = build.zones.get(victim).unwrap();
                let zone_members =
                    live.iter().filter(|&&i| zone.contains(population[i].point())).count();
                prop_assert_eq!(repaired.repair_messages, zone_members);
            }
            Err(RepairError::RootDeparted { .. }) => prop_assert!(false, "victim is not root"),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}
