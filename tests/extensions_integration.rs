//! Integration of greedy routing, end-to-end over a gossip-converged
//! (not oracle) topology.

use std::sync::Arc;

use geocast::overlay::gossip::GossipConfig;
use geocast::overlay::routing::route_to_peer;
use geocast::prelude::*;

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
    // Greedy routing reads the store; the gossip converged to its topology.
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&points),
        Arc::new(EmptyRectSelection),
    );
    assert_eq!(net.topology(), store.graph());
    for from in 0..store.len() {
        for to in 0..store.len() {
            let route = route_to_peer(&store, from, to);
            assert!(route.delivered(), "{from} -> {to} on gossip topology");
        }
    }
}
