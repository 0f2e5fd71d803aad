//! Cross-crate integration: the gossip protocol versus the oracle.
//!
//! The paper defines convergence as reaching the topology "obtained when
//! every peer P knows all the other peers". These tests drive the real
//! message-passing protocol (geocast-sim + geocast-overlay) and check it
//! against `oracle::equilibrium` — the central justification for using
//! the oracle in figure-scale sweeps.

use std::sync::Arc;

use geocast::overlay::gossip::GossipConfig;
use geocast::overlay::select::NeighborSelection;
use geocast::prelude::*;

fn converged_network(
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    points: &PointSet,
    seed: u64,
) -> OverlayNetwork {
    let config = NetworkConfig {
        // Generous BR so existence floods cover the whole (small) overlay
        // and I(P) converges to full knowledge.
        gossip: GossipConfig {
            br: 8,
            ..GossipConfig::default()
        },
        seed,
        stable_checks: 4,
        ..NetworkConfig::default()
    };
    let mut net = OverlayNetwork::new(selection, config);
    for p in points {
        net.add_peer(p.clone());
        assert!(net.converge().converged, "insertion failed to converge");
    }
    net
}

#[test]
fn gossip_fixpoint_matches_oracle_for_empty_rect() {
    let points = uniform_points(12, 2, 1000.0, 3);
    let net = converged_network(Arc::new(EmptyRectSelection), &points, 3);
    let peers = PeerInfo::from_point_set(&points);
    let expected = oracle::equilibrium(&peers, &EmptyRectSelection);
    let actual = net.topology();
    for i in 0..peers.len() {
        assert_eq!(
            actual.out_neighbors(i),
            expected.out_neighbors(i),
            "peer {i}: gossip fixpoint differs from full-knowledge equilibrium"
        );
    }
}

#[test]
fn gossip_fixpoint_matches_oracle_for_orthogonal_hyperplanes() {
    let points = uniform_points(12, 3, 1000.0, 7);
    let selection = HyperplanesSelection::orthogonal(3, 1, MetricKind::L1);
    let net = converged_network(Arc::new(selection.clone()), &points, 7);
    let peers = PeerInfo::from_point_set(&points);
    let expected = oracle::equilibrium(&peers, &selection);
    let actual = net.topology();
    for i in 0..peers.len() {
        assert_eq!(
            actual.out_neighbors(i),
            expected.out_neighbors(i),
            "peer {i}"
        );
    }
}

#[test]
fn gossip_fixpoint_matches_oracle_for_k_closest() {
    let points = uniform_points(10, 2, 1000.0, 11);
    let selection = HyperplanesSelection::k_closest(2, 3, MetricKind::L2);
    let net = converged_network(Arc::new(selection.clone()), &points, 11);
    let peers = PeerInfo::from_point_set(&points);
    let expected = oracle::equilibrium(&peers, &selection);
    assert_eq!(net.topology(), expected);
}

#[test]
fn gossip_fixpoint_matches_oracle_for_signed_hyperplanes() {
    let points = uniform_points(10, 2, 1000.0, 13);
    let selection = HyperplanesSelection::signed(2, 1, MetricKind::L1);
    let net = converged_network(Arc::new(selection.clone()), &points, 13);
    let peers = PeerInfo::from_point_set(&points);
    let expected = oracle::equilibrium(&peers, &selection);
    assert_eq!(net.topology(), expected);
}

#[test]
fn equilibrium_is_stable_under_continued_gossip() {
    // Once converged, more virtual time must not change the topology
    // (the selection methods are deterministic functions of I(P)).
    let points = uniform_points(10, 2, 1000.0, 17);
    let mut net = converged_network(Arc::new(EmptyRectSelection), &points, 17);
    let before = net.topology();
    let report = net.converge(); // run a further convergence window
    assert!(report.converged);
    assert_eq!(net.topology(), before, "converged topology drifted");
}

#[test]
fn departed_peer_is_forgotten_and_overlay_heals() {
    let points = uniform_points(12, 2, 1000.0, 19);
    let mut net = converged_network(Arc::new(EmptyRectSelection), &points, 19);
    net.remove_peer(PeerId(4));
    assert!(
        net.converge().converged,
        "overlay must re-converge after departure"
    );

    let topo = net.topology();
    for i in 0..topo.len() {
        assert!(
            !topo.out_neighbors(i).contains(&4),
            "peer {i} kept the departed neighbour"
        );
    }
    // Healed equilibrium equals the oracle over the survivors.
    let peers = PeerInfo::from_point_set(&points);
    let survivors: Vec<PeerInfo> = peers
        .iter()
        .filter(|p| p.id().index() != 4)
        .enumerate()
        .map(|(dense, p)| PeerInfo::new(PeerId(dense as u64), p.point().clone()))
        .collect();
    let expected = oracle::equilibrium(&survivors, &EmptyRectSelection);
    let original_of: Vec<usize> = (0..peers.len()).filter(|&i| i != 4).collect();
    for (si, &oi) in original_of.iter().enumerate() {
        let mut expected_nbrs: Vec<usize> = expected
            .out_neighbors(si)
            .iter()
            .map(|&sj| original_of[sj])
            .collect();
        expected_nbrs.sort_unstable();
        assert_eq!(topo.out_neighbors(oi), &expected_nbrs[..], "survivor {oi}");
    }
    // And the gossip landed on the rows the embedded store maintains.
    assert_eq!(topo, net.reference_topology());
}

#[test]
fn churn_schedule_keeps_live_overlay_at_oracle_equilibrium() {
    use geocast::overlay::churn::{run_schedule, ChurnSchedule};

    let points = uniform_points(8, 2, 1000.0, 23);
    let mut net = converged_network(Arc::new(EmptyRectSelection), &points, 23);
    let schedule = ChurnSchedule::random(8, 4, 4, 2, 1000.0, 29);
    let report = run_schedule(&mut net, &schedule);
    assert_eq!(report.convergence_failures, 0);

    // The live peers' topology equals the oracle over exactly those peers.
    let live: Vec<usize> = (0..net.len())
        .filter(|&i| !net.has_departed(PeerId(i as u64)))
        .collect();
    let live_peers: Vec<PeerInfo> = live
        .iter()
        .enumerate()
        .map(|(dense, &orig)| {
            PeerInfo::new(PeerId(dense as u64), net.peers()[orig].point().clone())
        })
        .collect();
    let expected = oracle::equilibrium(&live_peers, &EmptyRectSelection);
    let topo = net.topology();
    for (dense, &orig) in live.iter().enumerate() {
        let mut expected_nbrs: Vec<usize> = expected
            .out_neighbors(dense)
            .iter()
            .map(|&dj| live[dj])
            .collect();
        expected_nbrs.sort_unstable();
        assert_eq!(
            topo.out_neighbors(orig),
            &expected_nbrs[..],
            "live peer {orig}"
        );
    }
    assert_eq!(topo, net.reference_topology());
}

#[test]
fn gossip_message_volume_is_bounded_per_round() {
    // Sanity cap: announcements are BR-hop bounded and deduplicated, so
    // per announce round each origin generates at most ~N forwards.
    let points = uniform_points(10, 2, 1000.0, 31);
    let net = converged_network(Arc::new(EmptyRectSelection), &points, 31);
    let announces = net.counters().sent_with_tag("announce");
    let virtual_secs = net.sim().now().as_secs_f64();
    let rounds = virtual_secs.ceil() as u64 + 1;
    let bound = rounds * 10 * 10 * 4; // rounds × origins × reach × slack
    assert!(
        announces <= bound,
        "gossip used {announces} messages over {virtual_secs:.0}s (bound {bound})"
    );
}
