//! Cloud-computing scenario from the paper's introduction: peers are
//! applications on leased virtual machines, so every peer *knows* the
//! moment its lease expires. Embedding `T(P)` as the first coordinate
//! (§3) yields a multicast tree in which lease expiries never disconnect
//! the remaining tenants — compared here against a random tree over the
//! same overlay.
//!
//! ```text
//! cargo run --release --example cloud_scheduler
//! ```

use std::sync::Arc;

use geocast::core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast::prelude::*;

fn main() {
    let n = 400;
    let horizon_secs = 3600.0; // leases expire within the next hour

    // Tenant VMs: coordinates model rack/zone locality; the first
    // coordinate is overwritten with the lease expiry per §3.
    let locality = uniform_points(n, 3, 1000.0, 7);
    let leases = lifetimes(n, horizon_secs, 99);
    let peers = PeerInfo::from_point_set(&embed_lifetimes(&locality, &leases));
    println!("{n} tenant VMs, lease expiries within {horizon_secs}s");

    // The §3 overlay: Orthogonal Hyperplanes, K=2 closest per orthant.
    let mut store =
        TopologyStore::from_peers(peers, Arc::new(HyperplanesSelection::orthogonal(3, 2)));
    let (peers, overlay) = (store.peers(), store.graph());
    println!(
        "overlay:  Orthogonal Hyperplanes (K=2), {} directed edges",
        overlay.directed_edge_count()
    );

    // Every tenant picks its longest-lease neighbour as preferred parent.
    let forest = preferred_links(peers, &overlay, PreferredPolicy::MaxT);
    assert!(forest.is_tree(), "preferred links must form a tree");
    assert!(forest.heap_property_holds(peers));
    let tree = forest.to_multicast_tree().expect("single tree");
    println!(
        "tree:     rooted at the longest lease (peer {}), height {}, diameter {}",
        tree.root(),
        tree.longest_root_to_leaf(),
        tree.diameter()
    );

    // Replay the full lease schedule.
    let times: Vec<f64> = peers
        .iter()
        .map(geocast::prelude::PeerInfo::departure_time)
        .collect();
    let ours = non_leaf_departures(&tree, &times);
    let random = non_leaf_departures(
        &baseline::random_parent_tree(&overlay, tree.root(), 1),
        &times,
    );
    let bfs = non_leaf_departures(&baseline::bfs_tree(&overlay, tree.root()), &times);

    println!("\ndisconnecting lease expiries over the full schedule:");
    println!("  §3 stability tree : {ours}");
    println!("  BFS tree          : {bfs}");
    println!("  random tree       : {random}");
    assert_eq!(
        ours, 0,
        "lease expiries must never split the stability tree"
    );
    assert!(
        bfs > 0 || random > 0,
        "baselines show the sensitivity the paper criticises"
    );

    // When a new VM is leased it joins the store and slots in below
    // longer leases.
    let newcomer_lease = horizon_secs * 0.5;
    let mut coords = locality[0].coords().to_vec();
    coords[0] = newcomer_lease;
    coords[1] += 0.5; // distinct locality
    let newcomer = store.insert(Point::new(coords).expect("valid point"));
    assert_eq!(newcomer, PeerId(n as u64));
    let (extended, overlay2) = (store.peers(), store.graph());
    let forest2 = preferred_links(extended, &overlay2, PreferredPolicy::MaxT);
    assert!(forest2.is_tree());
    let parent = forest2.preferred()[n].expect("newcomer found a parent");
    println!(
        "\nnewcomer with a {newcomer_lease:.0}s lease attached below peer {parent} \
         (lease {:.0}s > its own) — tree property preserved",
        extended[parent].departure_time()
    );
}
