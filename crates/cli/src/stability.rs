use super::*;

/// How a peer picks its preferred neighbour among later leavers.
pub(crate) const POLICIES: Choices<PreferredPolicy> = &[
    ("max-t", PreferredPolicy::MaxT),
    ("min-higher-t", PreferredPolicy::MinHigherT),
    ("closest", PreferredPolicy::ClosestHigherT),
];

pub(crate) fn cmd_stability(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let k: usize = a.get("k")?;
    let &(policy_name, policy) = a.choice("policy", POLICIES)?;
    let times = lifetimes(n, VMAX, seed ^ 0x57_4a);
    let points = embed_lifetimes(&uniform_points(n, dim, VMAX, seed), &times);
    let selection = Arc::new(HyperplanesSelection::orthogonal(dim, k));
    let store = TopologyStore::from_peers(PeerInfo::from_point_set(&points), selection);
    let (peers, overlay) = (store.peers(), store.graph());
    let forest = preferred_links(peers, &overlay, policy);
    let title = format!("§3 stability tree: {n} peers, D={dim}, K={k}, policy {policy_name}");
    let mut out = Report::new(18, title);
    out.row("links form a tree", forest.is_tree());
    out.row("heap property", forest.heap_property_holds(peers));
    if let Some(tree) = forest.to_multicast_tree() {
        let t: Vec<f64> = peers.iter().map(PeerInfo::departure_time).collect();
        out.row("height", tree.longest_root_to_leaf());
        out.row("diameter", tree.diameter());
        let degree = tree.degrees().into_iter().max().unwrap_or(0);
        out.row("max tree degree", degree);
        let cuts = non_leaf_departures(&tree, &t);
        out.row("disconnecting departures (full schedule)", cuts);
    }
    Ok(out.text)
}
