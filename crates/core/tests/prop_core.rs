//! Property-based tests for the §2 construction and §3 stability trees,
//! driven by seeded workloads over the full parameter space.

#![allow(clippy::needless_range_loop)] // indices are peer ids across several tables

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use geocast_core::groups::build_group_tree_on_store;
use geocast_core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast_core::{baseline, BuildResult, OrthantRectPartitioner, PickRule};
use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
use geocast_geom::Rect;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};

/// The store's bulk build over `n` uniform peers under the §2 rule.
fn empty_rect_store(n: usize, dim: usize, seed: u64) -> TopologyStore {
    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
    TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
}

/// The §2 construction from `root` with every live peer of `store` a
/// member.
fn build_all(
    store: &TopologyStore,
    root: usize,
    partitioner: &OrthantRectPartitioner,
) -> BuildResult {
    let live: BTreeSet<usize> = (0..store.len())
        .filter(|&i| !store.is_departed(PeerId(i as u64)))
        .collect();
    build_group_tree_on_store(store, root, &live, partitioner)
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
        let store = empty_rect_store(n, dim, seed);
        let root = root_pick % n;
        let partitioner = match pick {
            PickRule::Median => OrthantRectPartitioner::median(),
            PickRule::Closest => OrthantRectPartitioner::closest(),
            PickRule::Farthest => OrthantRectPartitioner::farthest(),
        };
        let result = build_all(&store, root, &partitioner);
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
        let population = PeerInfo::from_point_set(&uniform_points(n + 1, 2, 1000.0, seed));
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
            Just(PreferredPolicy::ClosestHigherT),
        ],
    ) {
        let base = uniform_points(n, dim, 1000.0, seed);
        let times = lifetimes(n, 1000.0, seed ^ 0xf00d);
        let population = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let sel = HyperplanesSelection::orthogonal(dim, k);
        let store = TopologyStore::from_peers(population, Arc::new(sel));
        let (population, overlay) = (store.peers(), store.graph());
        let forest = preferred_links(population, &overlay, policy);
        prop_assert!(forest.is_tree());
        prop_assert!(forest.heap_property_holds(population));
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
        let store = empty_rect_store(n, dim, seed);
        let tree = build_all(&store, 0, &OrthantRectPartitioner::median()).tree;
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
        let overlay = empty_rect_store(n, 2, seed).graph();
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
        let overlay = empty_rect_store(n, 2, seed).graph();
        let tree = baseline::random_parent_tree(&overlay, 0, tree_seed);
        prop_assert!(tree.is_spanning());
        let adj = overlay.undirected_closure();
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                prop_assert!(adj.out_neighbors(v).contains(&p));
            }
        }
    }

    /// After any departure, the §2 construction over the survivors'
    /// store with every survivor a member spans exactly the survivors,
    /// from any surviving root, at one message each.
    #[test]
    fn the_all_member_build_spans_every_survivor_of_a_departure(
        n in 2usize..50,
        dim in 1usize..5,
        seed in 0u64..10_000,
        victim_pick in 0usize..1000,
        root_pick in 0usize..1000,
    ) {
        let mut store = empty_rect_store(n, dim, seed);
        let victim = victim_pick % n;
        store.remove(PeerId(victim as u64));
        let live: Vec<usize> = (0..n).filter(|&i| i != victim).collect();
        let root = live[root_pick % live.len()];
        let result = build_all(&store, root, &OrthantRectPartitioner::median());
        prop_assert_eq!(result.tree.reached(), &live[..]);
        prop_assert!(result.stranded.is_empty());
        prop_assert_eq!(result.messages, live.len() - 1);
        prop_assert_eq!(result.tree.validate(), Ok(()));
    }
}
