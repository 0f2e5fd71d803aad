//! Cross-crate integration: the distributed §2 protocol under varied
//! network conditions (latency models, loss, crashes) versus the offline
//! builder.

use std::sync::Arc;

use geocast::core::protocol::{self, BuildMsg};
use geocast::prelude::*;
use geocast::sim::{ConstantLatency, CoordDistanceLatency, UniformLatency};

fn setup(n: usize, dim: usize, seed: u64) -> TopologyStore {
    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
    TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
}

#[test]
fn offline_and_distributed_agree_across_latency_models() {
    let store = setup(70, 2, 1);
    let (peers, overlay) = (store.peers(), store.graph());
    let everyone = (0..store.len()).collect();
    let offline =
        build_group_tree_on_store(&store, 0, &everyone, &OrthantRectPartitioner::median());

    // Constant latency.
    let constant = protocol::build_distributed(
        peers,
        &overlay,
        0,
        OrthantRectPartitioner::median(),
        ConstantLatency(SimDuration::from_millis(5)),
        FaultModel::default(),
        1,
    );
    assert_eq!(constant.tree, offline.tree, "constant latency");

    // Heavily jittered latency (maximal reordering).
    let jittered = protocol::build_distributed(
        peers,
        &overlay,
        0,
        OrthantRectPartitioner::median(),
        UniformLatency::new(SimDuration::from_millis(1), SimDuration::from_millis(500)),
        FaultModel::default(),
        2,
    );
    assert_eq!(jittered.tree, offline.tree, "jittered latency");

    // Coordinate-distance latency (geographically realistic).
    let positions: Vec<Point> = peers.iter().map(|p| p.point().clone()).collect();
    let coord = protocol::build_distributed(
        peers,
        &overlay,
        0,
        OrthantRectPartitioner::median(),
        CoordDistanceLatency::new(
            positions,
            SimDuration::from_millis(1),
            SimDuration::from_nanos(20_000),
        ),
        FaultModel::default(),
        3,
    );
    assert_eq!(coord.tree, offline.tree, "coordinate latency");
}

#[test]
fn construction_time_scales_with_tree_depth_not_size() {
    // With constant latency L, quiescence time = (longest root-leaf path
    // + 1 injection hop) × L: the construction is fully parallel along
    // branches.
    let store = setup(120, 3, 5);
    let (peers, overlay) = (store.peers(), store.graph());
    let everyone = (0..store.len()).collect();
    let offline =
        build_group_tree_on_store(&store, 4, &everyone, &OrthantRectPartitioner::median());
    let result = protocol::build_distributed(
        peers,
        &overlay,
        4,
        OrthantRectPartitioner::median(),
        ConstantLatency(SimDuration::from_millis(10)),
        FaultModel::default(),
        5,
    );
    let expected = SimDuration::from_millis(10) * (offline.tree.longest_root_to_leaf() as u64 + 1);
    assert_eq!(result.elapsed, expected);
}

#[test]
fn loss_free_runs_are_duplicate_free_for_every_seed() {
    // (N, D, population seed, run seeds): the last two populations are
    // the §2 claims' message-count sizes.
    for (n, dim, population, runs) in [
        (50usize, 4usize, 7u64, 0..8u64),
        (100, 2, 1, 7..8),
        (300, 2, 1, 7..8),
    ] {
        let store = setup(n, dim, population);
        let (peers, overlay) = (store.peers(), store.graph());
        for seed in runs {
            let result = protocol::build_distributed_default(
                peers,
                &overlay,
                0,
                OrthantRectPartitioner::median(),
                seed,
            );
            assert_eq!(result.duplicates, 0, "N={n} seed {seed}");
            assert_eq!(result.messages as usize, n - 1, "N={n} seed {seed}");
        }
    }
}

#[test]
fn message_loss_degrades_coverage_gracefully() {
    let store = setup(100, 2, 9);
    let (peers, overlay) = (store.peers(), store.graph());
    let mut last_reached = peers.len() + 1;
    for loss in [0.0, 0.2, 0.6] {
        let result = protocol::build_distributed(
            peers,
            &overlay,
            0,
            OrthantRectPartitioner::median(),
            ConstantLatency(SimDuration::from_millis(5)),
            FaultModel::with_loss(loss),
            11,
        );
        let reached = result.tree.reached_count();
        assert!(
            reached <= last_reached,
            "coverage should not improve with more loss ({reached} > {last_reached})"
        );
        assert_eq!(result.tree.validate(), Ok(()), "loss {loss}");
        // Lost subtree = the child's entire zone: reached + every peer
        // under a lost request must still account for all peers.
        assert!(reached >= 1);
        last_reached = reached;
    }
}

#[test]
fn crashed_subtree_is_exactly_the_lost_zone() {
    // Crash one peer before construction: exactly the peers whose path
    // runs through it are unreached (zones are exclusive).
    let store = setup(80, 2, 13);
    let (peers, overlay) = (store.peers(), store.graph());
    let everyone = (0..store.len()).collect();
    let offline =
        build_group_tree_on_store(&store, 0, &everyone, &OrthantRectPartitioner::median());
    // Pick an internal node with a non-trivial subtree.
    let victim = (0..peers.len())
        .find(|&i| !offline.tree.children(i).is_empty() && i != 0)
        .expect("some internal node");
    // Expected unreached: victim's whole subtree.
    let mut expected_unreached = std::collections::HashSet::new();
    let mut stack = vec![victim];
    while let Some(v) = stack.pop() {
        expected_unreached.insert(v);
        stack.extend(offline.tree.children(v).iter().copied());
    }

    let adj = overlay.undirected_closure();
    let shared = Arc::new(peers.to_vec());
    // Build via the protocol and crash the victim first.
    let partitioner = OrthantRectPartitioner::median();
    let build_nodes: Vec<protocol::BuildNode> = (0..peers.len())
        .map(|i| {
            protocol::BuildNode::new(
                peers[i].clone(),
                adj.out_neighbors(i).to_vec(),
                partitioner,
                Arc::clone(&shared),
            )
        })
        .collect();
    let mut sim = Simulation::builder(build_nodes).seed(13).build();
    sim.crash(NodeId(victim));
    sim.inject(
        NodeId(0),
        BuildMsg::Request {
            zone: Rect::full(2),
        },
    );
    sim.run_until_quiescent();

    for i in 0..peers.len() {
        let reached = sim.node(NodeId(i)).is_reached();
        assert_eq!(
            reached,
            !expected_unreached.contains(&i),
            "peer {i}: reached={reached}, expected_unreached={}",
            expected_unreached.contains(&i)
        );
    }
}

#[test]
fn distributed_build_works_from_every_root_on_small_network() {
    let store = setup(25, 3, 17);
    let (peers, overlay) = (store.peers(), store.graph());
    for root in 0..peers.len() {
        let result = protocol::build_distributed_default(
            peers,
            &overlay,
            root,
            OrthantRectPartitioner::median(),
            root as u64,
        );
        assert!(result.tree.is_spanning(), "root {root}");
        assert_eq!(result.duplicates, 0, "root {root}");
    }
}
