//! Integration of the extension features — repair, routing — composed
//! end-to-end, including over gossip-converged (not oracle) topologies.

use std::sync::Arc;

use geocast::core::repair::repair_after_departure;
use geocast::overlay::gossip::GossipConfig;
use geocast::overlay::routing::route_to_peer;
use geocast::prelude::*;

#[test]
fn repair_then_multicast_delivers_to_survivors() {
    let n = 60;
    let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 5));
    let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let median = OrthantRectPartitioner::median();
    let build = build_tree(store.peers(), &store.graph(), 0, &median);
    let victim = (1..n)
        .find(|&i| !build.tree.children(i).is_empty())
        .unwrap();

    // Survivor equilibrium.
    store.remove(PeerId(victim as u64));
    let repaired =
        repair_after_departure(store.peers(), &store.graph(), &build, victim, &median).unwrap();

    // The repaired tree reaches exactly the survivors, each over one
    // parent link.
    assert_eq!(repaired.tree.validate(), Ok(()));
    assert_eq!(repaired.tree.reached_count(), n - 1);
    assert!(!repaired.tree.is_reached(victim));
}

#[test]
fn routing_works_on_gossip_converged_topology() {
    // End-to-end: real gossip protocol to equilibrium, then greedy
    // routing over the resulting topology.
    let points = uniform_points(14, 2, 1000.0, 7);
    let config = NetworkConfig {
        gossip: GossipConfig {
            br: 8,
            ..GossipConfig::default()
        },
        seed: 7,
        stable_checks: 4,
        ..NetworkConfig::default()
    };
    let mut net = OverlayNetwork::new(Arc::new(EmptyRectSelection), config);
    for p in &points {
        net.add_peer(p.clone());
        net.converge();
    }
    let peers = PeerInfo::from_point_set(&points);
    let topo = net.topology();
    for from in 0..peers.len() {
        for to in 0..peers.len() {
            let route = route_to_peer(&peers, &topo, from, to, MetricKind::L1);
            assert!(route.delivered(), "{from} -> {to} on gossip topology");
        }
    }
}

#[test]
fn repeated_repairs_keep_dissemination_exact() {
    // Alternate departures and dissemination: after each repair the
    // session tree still reaches every survivor exactly once.
    let n = 50;
    let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 11));
    let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let median = OrthantRectPartitioner::median();
    let mut build = build_tree(store.peers(), &store.graph(), 0, &median);

    for victim in [9usize, 27, 33] {
        if build.tree.parent(victim).is_none() || store.is_departed(PeerId(victim as u64)) {
            continue;
        }
        store.remove(PeerId(victim as u64));
        let repaired =
            repair_after_departure(store.peers(), &store.graph(), &build, victim, &median).unwrap();

        // Exactly-once delivery over the repaired tree.
        assert_eq!(repaired.tree.validate(), Ok(()));
        assert_eq!(repaired.tree.reached_count(), store.live_count());

        build = geocast::core::BuildResult {
            tree: repaired.tree,
            zones: repaired.zones,
            messages: build.messages + repaired.repair_messages,
            stranded: Vec::new(),
            relays: Vec::new(),
        };
    }
}
