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
    let overlay = oracle::equilibrium(&peers, &EmptyRectSelection);
    let build = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
    let victim = (1..n)
        .find(|&i| !build.tree.children(i).is_empty())
        .unwrap();

    // Survivor equilibrium.
    let live: Vec<usize> = (0..n).filter(|&i| i != victim).collect();
    let live_peers: Vec<PeerInfo> = live
        .iter()
        .enumerate()
        .map(|(d, &o)| PeerInfo::new(PeerId(d as u64), peers[o].point().clone()))
        .collect();
    let dense = oracle::equilibrium(&live_peers, &EmptyRectSelection);
    let mut out = vec![Vec::new(); n];
    for (di, &oi) in live.iter().enumerate() {
        out[oi] = dense.out_neighbors(di).iter().map(|&dj| live[dj]).collect();
    }
    let live_overlay = OverlayGraph::from_out_neighbors(out);

    let repaired = repair_after_departure(
        &peers,
        &live_overlay,
        &build,
        victim,
        &OrthantRectPartitioner::median(),
    )
    .unwrap();

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
    let mut departed = vec![false; n];
    let overlay = oracle::equilibrium(&peers, &EmptyRectSelection);
    let mut build = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());

    for victim in [9usize, 27, 33] {
        if build.tree.parent(victim).is_none() || departed[victim] {
            continue;
        }
        departed[victim] = true;
        let live: Vec<usize> = (0..n).filter(|&i| !departed[i]).collect();
        let live_peers: Vec<PeerInfo> = live
            .iter()
            .enumerate()
            .map(|(d, &o)| PeerInfo::new(PeerId(d as u64), peers[o].point().clone()))
            .collect();
        let dense = oracle::equilibrium(&live_peers, &EmptyRectSelection);
        let mut out = vec![Vec::new(); n];
        for (di, &oi) in live.iter().enumerate() {
            out[oi] = dense.out_neighbors(di).iter().map(|&dj| live[dj]).collect();
        }
        let live_overlay = OverlayGraph::from_out_neighbors(out);
        let repaired = repair_after_departure(
            &peers,
            &live_overlay,
            &build,
            victim,
            &OrthantRectPartitioner::median(),
        )
        .unwrap();

        // Exactly-once delivery over the repaired tree.
        assert_eq!(repaired.tree.validate(), Ok(()));
        assert_eq!(repaired.tree.reached_count(), live.len());

        build = geocast::core::BuildResult {
            tree: repaired.tree,
            zones: repaired.zones,
            messages: build.messages + repaired.repair_messages,
            stranded: Vec::new(),
            relays: Vec::new(),
        };
    }
}
