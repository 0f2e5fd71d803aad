//! Cross-crate integration: §3 stability trees across policies,
//! dimensions and overlay parameters, plus the baseline comparison the
//! paper's introduction implies.

use std::sync::Arc;

use geocast::core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast::prelude::*;

fn embedded_peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
    let base = uniform_points(n, dim, 1000.0, seed);
    let times = lifetimes(n, 1000.0, seed ^ 0xdead_beef);
    PeerInfo::from_point_set(&embed_lifetimes(&base, &times))
}

/// The store's bulk build over `peers` under `selection`.
fn overlay_of(
    peers: &[PeerInfo],
    selection: impl NeighborSelection + Send + Sync + 'static,
) -> OverlayGraph {
    TopologyStore::from_peers(peers.to_vec(), Arc::new(selection)).graph()
}

#[test]
fn paper_grid_sample_always_forms_heap_trees() {
    // A sample of the paper's (D, K) grid: D ∈ 2..10, K ∈ 1..50.
    for &(dim, k) in &[(2usize, 1usize), (2, 50), (5, 7), (7, 3), (10, 1), (10, 10)] {
        let peers = embedded_peers(120, dim, dim as u64 * 100 + k as u64);
        let overlay = overlay_of(&peers, HyperplanesSelection::orthogonal(dim, k));
        let forest = preferred_links(&peers, &overlay, PreferredPolicy::MaxT);
        assert!(forest.is_tree(), "D={dim} K={k}: not a tree");
        assert!(
            forest.heap_property_holds(&peers),
            "D={dim} K={k}: heap violated"
        );
        let tree = forest.to_multicast_tree().unwrap();
        assert_eq!(tree.validate(), Ok(()), "D={dim} K={k}");
        let times: Vec<f64> = peers
            .iter()
            .map(geocast::prelude::PeerInfo::departure_time)
            .collect();
        assert_eq!(non_leaf_departures(&tree, &times), 0, "D={dim} K={k}");
    }
    // The populations of the paper's Fig. 1(d) and 1(e) sweeps and of
    // the departure baseline: (N, D, the K values).
    for (n, dim, ks) in [
        (300usize, 2usize, &[1usize, 5, 10, 25, 50][..]),
        (300, 5, &[1, 5, 10, 25, 50]),
        (400, 3, &[1, 10, 50]),
        (500, 2, &[2]),
    ] {
        let base = uniform_points(n, dim, 1000.0, 1);
        let times = lifetimes(n, 1000.0, 2);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        oracle::orthogonal_k_sweep_with(&peers, ks, |k, overlay| {
            let forest = preferred_links(&peers, overlay, PreferredPolicy::MaxT);
            assert!(
                forest.is_tree() && forest.heap_property_holds(&peers),
                "N={n} D={dim} K={k}"
            );
        });
    }
}

#[test]
fn diameter_shrinks_and_degree_grows_with_k() {
    // The qualitative shape of Fig. 1d/1e: more neighbours per orthant
    // (larger K) means shortcuts to high-T peers — shallower but more
    // concentrated trees.
    let n = 200;
    let dim = 3;
    let peers = embedded_peers(n, dim, 5);
    let measure = |k: usize| {
        let overlay = overlay_of(&peers, HyperplanesSelection::orthogonal(dim, k));
        let tree = preferred_links(&peers, &overlay, PreferredPolicy::MaxT)
            .to_multicast_tree()
            .unwrap();
        (tree.diameter(), tree.degrees().into_iter().max().unwrap())
    };
    let (diam_k1, deg_k1) = measure(1);
    let (diam_k20, deg_k20) = measure(20);
    assert!(
        diam_k20 <= diam_k1,
        "diameter should shrink with K ({diam_k1} -> {diam_k20})"
    );
    assert!(
        deg_k20 >= deg_k1,
        "max degree should grow with K ({deg_k1} -> {deg_k20})"
    );
}

#[test]
fn stability_tree_beats_baselines_under_departures() {
    let n = 150;
    let peers = embedded_peers(n, 2, 11);
    let overlay = overlay_of(&peers, HyperplanesSelection::orthogonal(2, 2));
    let times: Vec<f64> = peers
        .iter()
        .map(geocast::prelude::PeerInfo::departure_time)
        .collect();

    let stable = preferred_links(&peers, &overlay, PreferredPolicy::MaxT)
        .to_multicast_tree()
        .unwrap();
    let bfs = baseline::bfs_tree(&overlay, stable.root());
    let random = baseline::random_parent_tree(&overlay, stable.root(), 42);

    let ours = non_leaf_departures(&stable, &times);
    let bfs_disc = non_leaf_departures(&bfs, &times);
    let random_disc = non_leaf_departures(&random, &times);
    assert_eq!(ours, 0, "§3 tree must never disconnect");
    assert!(bfs_disc > 0, "BFS tree should disconnect under churn");
    assert!(random_disc > 0, "random tree should disconnect under churn");
}

#[test]
fn all_policies_produce_leaf_only_departures() {
    let peers = embedded_peers(100, 4, 13);
    let overlay = overlay_of(&peers, HyperplanesSelection::orthogonal(4, 3));
    let times: Vec<f64> = peers
        .iter()
        .map(geocast::prelude::PeerInfo::departure_time)
        .collect();
    for policy in [
        PreferredPolicy::MaxT,
        PreferredPolicy::MinHigherT,
        PreferredPolicy::ClosestHigherT,
    ] {
        let forest = preferred_links(&peers, &overlay, policy);
        assert!(forest.is_tree(), "{policy}");
        let tree = forest.to_multicast_tree().unwrap();
        assert_eq!(non_leaf_departures(&tree, &times), 0, "{policy}");
    }
}

#[test]
fn empty_rect_overlay_also_supports_stability_trees() {
    // §3 only needs *some* overlay with higher-T reachability; the §2
    // empty-rectangle overlay provides it too (any higher-T peer's
    // orthant keeps a frontier member). Cross-section composition test.
    let peers = embedded_peers(150, 3, 17);
    let overlay = overlay_of(&peers, EmptyRectSelection);
    let forest = preferred_links(&peers, &overlay, PreferredPolicy::MaxT);
    assert!(forest.is_tree(), "empty-rect overlay failed to support §3");
    assert!(forest.heap_property_holds(&peers));
}

#[test]
fn departure_replay_on_live_simulation() {
    use geocast::core::protocol;

    // End-to-end: build the §2 tree distributed, then crash peers in
    // T-order in the *simulator* and verify tree-age accounting matches
    // the offline replay.
    let peers = embedded_peers(60, 2, 19);
    let overlay = overlay_of(&peers, HyperplanesSelection::orthogonal(2, 2));
    let stable = preferred_links(&peers, &overlay, PreferredPolicy::MaxT)
        .to_multicast_tree()
        .unwrap();
    // Offline invariant.
    let times: Vec<f64> = peers
        .iter()
        .map(geocast::prelude::PeerInfo::departure_time)
        .collect();
    assert_eq!(non_leaf_departures(&stable, &times), 0);

    // The §2 construction's *spanning* guarantee is specific to the
    // empty-rectangle overlay (per-orthant frontier coverage); on the §3
    // Orthogonal-Hyperplanes overlay it stays duplicate-free and
    // consistent but may strand peers whose zone-orthants hold no
    // in-zone neighbour. Both halves of that statement are checked.
    let dist = protocol::build_distributed_default(
        &peers,
        &overlay,
        stable.root(),
        OrthantRectPartitioner::median(),
        19,
    );
    assert_eq!(dist.duplicates, 0);
    assert_eq!(dist.tree.validate(), Ok(()));
    assert!(
        dist.tree.reached_count() >= peers.len() / 2,
        "coverage collapsed entirely"
    );

    // On the §2 empty-rectangle overlay over the same peers, spanning is
    // guaranteed.
    let er_overlay = overlay_of(&peers, EmptyRectSelection);
    let er = protocol::build_distributed_default(
        &peers,
        &er_overlay,
        stable.root(),
        OrthantRectPartitioner::median(),
        19,
    );
    assert!(er.tree.is_spanning());
    assert_eq!(er.duplicates, 0);
}
