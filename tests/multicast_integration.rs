//! Cross-crate integration: the §2 space-partitioning construction on
//! full workload pipelines (generators → overlay → tree → metrics).

#![allow(clippy::needless_range_loop)] // indices are peer ids across several tables

use std::sync::Arc;

use geocast::geom::gen::{clustered_points, grid_points_jittered, uniform_points};
use geocast::prelude::*;

fn equilibrium_for(points: &PointSet) -> TopologyStore {
    TopologyStore::from_peers(
        PeerInfo::from_point_set(points),
        Arc::new(EmptyRectSelection),
    )
}

/// The §2 construction from `root` with every peer a member.
fn spanning_build(
    store: &TopologyStore,
    root: usize,
    partitioner: &OrthantRectPartitioner,
) -> BuildResult {
    let everyone = (0..store.len()).collect();
    build_group_tree_on_store(store, root, &everyone, partitioner)
}

#[test]
fn n_minus_one_messages_across_workloads() {
    let workloads: Vec<(&str, PointSet)> = vec![
        ("uniform-2d", uniform_points(200, 2, 1000.0, 1)),
        ("uniform-5d", uniform_points(120, 5, 1000.0, 2)),
        ("clustered", clustered_points(150, 2, 1000.0, 5, 30.0, 3)),
        ("grid", grid_points_jittered(12, 2, 1000.0, 4)),
    ];
    for (name, points) in workloads {
        let store = equilibrium_for(&points);
        let peers = store.peers();
        let result = spanning_build(&store, 0, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning(), "{name}: not spanning");
        assert_eq!(result.messages, peers.len() - 1, "{name}: message count");
        assert_eq!(result.tree.validate(), Ok(()), "{name}: inconsistent tree");
    }
}

#[test]
fn all_roots_produce_valid_spanning_trees_and_metrics() {
    let points = uniform_points(80, 3, 1000.0, 7);
    let store = equilibrium_for(&points);
    let peers = store.peers();
    let mut path_lengths = Summary::new();
    for root in 0..peers.len() {
        let result = spanning_build(&store, root, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning(), "root {root}");
        assert!(result.tree.max_children() <= 8, "root {root}: 2^3 bound");
        path_lengths.add(result.tree.longest_root_to_leaf() as f64);
    }
    // Paths are short relative to N (the paper's Fig. 1b is ~10-25 for
    // N=1000): for 80 peers anything near N would mean degenerate chains.
    assert!(
        path_lengths.max() < 40.0,
        "suspicious path length {}",
        path_lengths.max()
    );
    assert!(path_lengths.mean() >= 1.0);
}

#[test]
fn zone_disjointness_makes_delivery_exactly_once() {
    // With disjoint zones each peer has exactly one parent (except the
    // root, which receives implicitly).
    let points = uniform_points(150, 4, 1000.0, 9);
    let store = equilibrium_for(&points);
    let peers = store.peers();
    let result = spanning_build(&store, 5, &OrthantRectPartitioner::median());
    let mut delivered = vec![0usize; peers.len()];
    delivered[5] += 1;
    for i in 0..peers.len() {
        if result.tree.parent(i).is_some() {
            delivered[i] += 1;
        }
    }
    assert!(
        delivered.iter().all(|&d| d == 1),
        "some peer delivered != once"
    );
}

#[test]
fn tree_edges_are_overlay_edges() {
    let points = uniform_points(100, 2, 1000.0, 11);
    let store = equilibrium_for(&points);
    let (peers, overlay) = (store.peers(), store.graph());
    let adj = overlay.undirected_closure();
    let result = spanning_build(&store, 0, &OrthantRectPartitioner::median());
    for i in 0..peers.len() {
        if let Some(p) = result.tree.parent(i) {
            assert!(
                adj.out_neighbors(i).contains(&p),
                "tree edge {i}-{p} not in overlay"
            );
        }
    }
}

#[test]
fn deeper_dimensions_shrink_paths_but_grow_overlay_degree() {
    // The trade-off the paper reports between Fig. 1a and Fig. 1b.
    let n = 150;
    let mut prev_avg_degree = 0.0;
    let mut depths = Vec::new();
    for dim in [2usize, 4] {
        let points = uniform_points(n, dim, 1000.0, 13);
        let store = equilibrium_for(&points);
        let overlay = store.graph();
        let degrees = overlay.undirected_degrees();
        let avg_degree = degrees.iter().sum::<usize>() as f64 / n as f64;
        assert!(
            avg_degree > prev_avg_degree,
            "degree must grow with D: {avg_degree} after {prev_avg_degree}"
        );
        prev_avg_degree = avg_degree;
        let result = spanning_build(&store, 0, &OrthantRectPartitioner::median());
        depths.push(result.tree.longest_root_to_leaf());
    }
    assert!(
        depths[1] <= depths[0],
        "higher D should not deepen trees ({depths:?})"
    );
}

#[test]
fn clustered_workloads_respect_all_section2_claims() {
    let points = clustered_points(120, 3, 1000.0, 4, 25.0, 17);
    let store = equilibrium_for(&points);
    let peers = store.peers();
    for root in [0usize, 60, 119] {
        let result = spanning_build(&store, root, &OrthantRectPartitioner::median());
        let verdict = validate::check_section2(&result, peers.len(), 3);
        assert!(verdict.all_hold(), "root {root}: {verdict:?}");
    }
}

#[test]
fn ablation_partitioners_only_change_tree_shape() {
    let points = uniform_points(130, 2, 1000.0, 19);
    let store = equilibrium_for(&points);
    let peers = store.peers();
    let median = spanning_build(&store, 0, &OrthantRectPartitioner::median());
    let closest = spanning_build(&store, 0, &OrthantRectPartitioner::closest());
    let farthest = spanning_build(&store, 0, &OrthantRectPartitioner::farthest());
    for (name, r) in [
        ("median", &median),
        ("closest", &closest),
        ("farthest", &farthest),
    ] {
        assert!(r.tree.is_spanning(), "{name}");
        assert_eq!(r.messages, peers.len() - 1, "{name}");
    }
    // The rules genuinely differ on this workload.
    assert!(
        median.tree != closest.tree || median.tree != farthest.tree,
        "pick rules collapsed to the same tree"
    );
}

#[test]
fn flooding_baseline_costs_more_than_space_partitioning() {
    let points = uniform_points(200, 2, 1000.0, 23);
    let store = equilibrium_for(&points);
    let (peers, overlay) = (store.peers(), store.graph());
    let ours = spanning_build(&store, 0, &OrthantRectPartitioner::median());
    let flooded = baseline::flood(&overlay, 0);
    assert!(flooded.tree.is_spanning());
    assert!(
        flooded.messages > ours.messages,
        "flooding {} must exceed N-1 {}",
        flooded.messages,
        ours.messages
    );
    assert_eq!(ours.messages, peers.len() - 1);
    // Flooding trees are depth-optimal (BFS) — that optimality is what
    // the duplicate traffic buys.
    assert!(flooded.tree.longest_root_to_leaf() <= ours.tree.longest_root_to_leaf());
}

#[test]
fn build_on_gossip_converged_overlay_matches_oracle_build() {
    use geocast::overlay::gossip::GossipConfig;

    // End-to-end: real protocol overlay, then the §2 construction on it.
    let points = uniform_points(12, 2, 1000.0, 29);
    let config = NetworkConfig {
        gossip: GossipConfig {
            br: 8,
            ..GossipConfig::default()
        },
        seed: 29,
        stable_checks: 4,
        ..NetworkConfig::default()
    };
    let mut net = OverlayNetwork::new(Arc::new(EmptyRectSelection), config);
    for p in &points {
        net.add_peer(p.clone());
        net.converge();
    }
    // The gossip settles on the oracle's equilibrium, and the §2
    // construction reads nothing but the overlay: the build over it is
    // the oracle build.
    let peers = PeerInfo::from_point_set(&points);
    assert_eq!(
        net.topology(),
        oracle::equilibrium_live(&peers, &[false; 12], &EmptyRectSelection)
    );
    let oracle_build = spanning_build(
        &equilibrium_for(&points),
        0,
        &OrthantRectPartitioner::median(),
    );
    assert!(oracle_build.tree.is_spanning());
}
