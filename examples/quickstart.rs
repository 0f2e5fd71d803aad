//! Quickstart: build a geometric overlay and a multicast tree in ~30
//! lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use geocast::prelude::*;

fn main() {
    // 1. 500 peers with self-generated 2-D virtual coordinates.
    let n = 500;
    let points = uniform_points(n, 2, 1000.0, 42);
    let peers = PeerInfo::from_point_set(&points);
    println!("population: {n} peers in 2-D, coordinates in [0, 1000)");

    // 2. The converged overlay under the paper's empty-rectangle rule
    //    (equivalently: per-orthant Pareto frontiers).
    let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let (peers, overlay) = (store.peers(), store.graph());
    let degree_summary: Summary = overlay
        .undirected_degrees()
        .iter()
        .map(|&d| d as f64)
        .collect();
    println!(
        "overlay:    {} directed edges, degree {}",
        overlay.directed_edge_count(),
        degree_summary
    );
    assert!(overlay.is_connected_undirected());

    // 3. A multicast tree rooted at peer 0 reaching every peer, zones
    //    split per the paper (orthant regions, median-distance child).
    let everyone = (0..n).collect();
    let result = build_group_tree_on_store(&store, 0, &everyone, &OrthantRectPartitioner::median());
    println!(
        "multicast:  {} messages for {} peers (N-1 = {}), height {}, max children {}",
        result.messages,
        n,
        n - 1,
        result.tree.longest_root_to_leaf(),
        result.tree.max_children(),
    );
    assert!(result.tree.is_spanning());
    assert_eq!(result.messages, n - 1);

    // 4. The same construction as real messages over the simulator.
    let dist = geocast::core::protocol::build_distributed_default(
        peers,
        &overlay,
        0,
        OrthantRectPartitioner::median(),
        42,
    );
    println!(
        "simulated:  {} build messages, 0 duplicates ({}), finished in {} of virtual time",
        dist.messages,
        if dist.duplicates == 0 {
            "verified"
        } else {
            "VIOLATED"
        },
        dist.elapsed,
    );
    assert_eq!(
        dist.tree, result.tree,
        "offline and distributed builds agree"
    );

    println!("\nevery §2 claim checked: N-1 messages, full coverage, no duplicates ✓");
}
