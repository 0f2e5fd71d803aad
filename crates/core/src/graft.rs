//! Routing-based group join: graft stranded members through relay
//! paths, closing delivery coverage to 100%.
//!
//! The member-induced §2 construction ([`crate::groups`]) delegates
//! only through member-to-member overlay links, so scattered groups
//! strand subscribers whose member subgraph has no path to the root.
//! The fix follows the *locating-first* approach (Kaafar et al.): route
//! the stranded member's join request over the **full** overlay to the
//! nearest on-tree node, then graft the discovered path into the tree
//! as non-member **relay** nodes that forward traffic without being
//! part of the audience.
//!
//! Discovery is tiered, cheapest first:
//!
//! 1. **Greedy point routing** ([`route_to_peer_on_store`]) towards the
//!    nearest on-tree node (the [`TopologyStore::nearest_live_where`]
//!    query — `GridIndex`-answered when the tree is dense, linear over
//!    the tree otherwise; both exact). On empty-rectangle equilibria
//!    this always delivers, so tiers 2–3 never engage there.
//! 2. **Region fallback** ([`greedy_route_to_rect_on_store`]) for local
//!    minima on sparser rules: retarget to a shrinking box around the
//!    target — the distance-to-box walk of region multicast
//!    ([`crate::region`]) escapes point-greedy minima because entering
//!    the box at all halves the remaining distance.
//! 3. **Flood discovery** (bounded BFS over the overlay), the
//!    unstructured-substrate fallback in the spirit of Ripeanu et al.'s
//!    self-organizing graft/repair: guaranteed to find the tree
//!    whenever the member's overlay component contains it. A member
//!    only stays stranded when it is overlay-disconnected from the
//!    root — provably undeliverable.
//!
//! Every discovery is a pure function of (a) the on-tree set and peer
//! coordinates and (b) the undirected adjacency rows of the nodes it
//! *consulted* (walked path nodes and BFS-expanded nodes). The consulted
//! set is returned as the graft's **support**: the incremental engine
//! re-grafts a group exactly when a churn delta dirties a member or a
//! support node, which keeps the maintained tree byte-identical to a
//! from-scratch rebuild (property-tested in `tests/prop_groups.rs`).

use std::collections::{BTreeSet, VecDeque};

use geocast_geom::{Interval, Metric, MetricKind, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, route_to_peer_on_store};
use geocast_overlay::TopologyStore;

use crate::bits::PeerBits;
use crate::builder::BuildResult;

/// Rounds of tier-1/tier-2 alternation before flood discovery takes
/// over. Each successful round at least halves the distance to the
/// target, so the cap is only reachable on pathological topologies.
const MAX_ROUTING_ROUNDS: usize = 32;

/// Accounting of one graft pass (all stranded members of one group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraftReport {
    /// Stranded members connected by routing-based join.
    pub grafted: usize,
    /// Relay nodes added to carry them.
    pub relays: usize,
    /// Join-request messages: overlay hops walked by tiers 1–2.
    pub route_hops: usize,
    /// Times the region fallback engaged (tier 2).
    pub rect_fallbacks: usize,
    /// Times flood discovery engaged (tier 3).
    pub flood_fallbacks: usize,
    /// Join-request messages spent by flood discovery (edges expanded).
    pub flood_messages: usize,
    /// Members with no overlay path to the tree at all (still stranded).
    pub unreachable: usize,
}

/// Grafts every stranded member of `build` into its tree via relay
/// paths over `store`'s full overlay. Mutates `build` in place —
/// attaching relay chains, filling [`BuildResult::relays`], and
/// shrinking [`BuildResult::stranded`] to the provably unreachable
/// members — and returns the report plus the **support set**: every
/// peer whose adjacency row the discovery consulted, sorted.
///
/// Deterministic: stranded members are processed in ascending order and
/// every tier breaks ties by peer index.
///
/// # Panics
///
/// Panics if `build`'s tree universe disagrees with the store.
pub fn graft_stranded_members(
    store: &TopologyStore,
    build: &mut BuildResult,
    metric: MetricKind,
) -> (GraftReport, Vec<usize>) {
    assert_eq!(store.len(), build.tree.len(), "store/tree size mismatch");
    let mut report = GraftReport::default();
    let mut support: BTreeSet<usize> = BTreeSet::new();
    if build.stranded.is_empty() {
        return (report, Vec::new());
    }

    // The on-tree set while paths are being discovered: a list (for
    // the nearest-node scan) and a bit mask (for the per-hop tests),
    // both growing as paths are found. The tree itself absorbs every
    // discovered link in one merge at the end.
    let mut tree_nodes = build.tree.reached().to_vec();
    let mut on_tree = PeerBits::from_peers(store.len(), &tree_nodes);
    let stranded = std::mem::take(&mut build.stranded);
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut relays: BTreeSet<usize> = BTreeSet::new();

    for &s in &stranded {
        if on_tree.contains(s) {
            // An earlier graft path already routed through this member.
            continue;
        }
        let found = discover_path(
            store,
            &on_tree,
            &tree_nodes,
            s,
            metric,
            &mut support,
            &mut report,
        );
        match found {
            Some(path) => {
                // path[0] = s, path[last] on-tree; everything before it
                // is new. A new node that is not itself a stranded
                // member (the list is sorted) only forwards: a relay.
                for hop in path.windows(2) {
                    links.push((hop[0], hop[1]));
                    on_tree.insert(hop[0]);
                    tree_nodes.push(hop[0]);
                    if stranded.binary_search(&hop[0]).is_err() {
                        relays.insert(hop[0]);
                    }
                }
                report.grafted += 1;
            }
            None => report.unreachable += 1,
        }
    }

    build.tree.attach_all(links);
    build.stranded = stranded
        .into_iter()
        .filter(|&m| !on_tree.contains(m))
        .collect();
    report.relays = relays.len();
    build.relays = relays.into_iter().collect();
    (report, support.into_iter().collect())
}

/// Discovers an overlay path from stranded member `s` to the tree:
/// `[s, …relays…, on-tree node]`, loop-free. `None` when `s`'s overlay
/// component does not contain the tree.
fn discover_path(
    store: &TopologyStore,
    on_tree: &PeerBits,
    tree: &[usize],
    s: usize,
    metric: MetricKind,
    support: &mut BTreeSet<usize>,
    report: &mut GraftReport,
) -> Option<Vec<usize>> {
    let target = nearest_on_tree(store, on_tree, tree, s, metric)?;
    let mut walked: Vec<usize> = vec![s];
    let mut cur = s;

    for _ in 0..MAX_ROUTING_ROUNDS {
        // Tier 1: greedy point routing towards the target peer. The
        // walk's prefix up to the first on-tree node is all we use, so
        // only those rows enter the support set. Hop accounting is
        // incremental — each tier adds exactly the nodes it appended to
        // the walk, so multi-tier discoveries are not double-counted.
        let before = walked.len();
        let route = route_to_peer_on_store(store, cur, target, metric);
        if let Some(path) = splice_until_on_tree(&mut walked, route.path(), on_tree, support) {
            report.route_hops += path.len() - before;
            return Some(compress_loops(path));
        }
        report.route_hops += walked.len() - before;
        cur = route.last();
        debug_assert!(route.local_minimum(), "undelivered greedy must stall");

        // Tier 2: region fallback — retarget to a box around the target
        // small enough that the stall point lies outside it (max axis
        // offset ≥ d/D > half-width), so entering it strictly shrinks
        // the remaining distance.
        let tp = store.peers()[target].point();
        let cp = store.peers()[cur].point();
        let d = metric.dist(cp, tp);
        debug_assert!(d > 0.0, "stall at the target would have delivered");
        let half = d / (2.0 * tp.dim() as f64);
        let sides = (0..tp.dim())
            .map(|k| Interval::new(tp[k] - half, tp[k] + half))
            .collect();
        let region = Rect::new(sides).expect("target points have dimensions");
        report.rect_fallbacks += 1;
        let before = walked.len();
        let walk = greedy_route_to_rect_on_store(store, cur, &region, metric, store.len());
        if let Some(path) = splice_until_on_tree(&mut walked, walk.path(), on_tree, support) {
            report.route_hops += path.len() - before;
            return Some(compress_loops(path));
        }
        report.route_hops += walked.len() - before;
        cur = walk.last();
        if !walk.delivered() {
            // Both greedy tiers are stuck; flood from here.
            break;
        }
    }

    // Tier 3: flood discovery (deterministic BFS) from the last stall.
    report.flood_fallbacks += 1;
    flood_to_tree(store, on_tree, &mut walked, support, report).map(compress_loops)
}

/// The nearest on-tree node to `s` by `(distance, index)` — through the
/// store's spatial index when the tree is dense enough for ring search
/// to win, by linear scan over the tree otherwise. Both are exact, so
/// the choice never changes the answer.
fn nearest_on_tree(
    store: &TopologyStore,
    on_tree: &PeerBits,
    tree: &[usize],
    s: usize,
    metric: MetricKind,
) -> Option<usize> {
    let sp = store.peers()[s].point();
    if store.has_spatial_index() && tree.len().saturating_mul(tree.len()) >= store.len() {
        return store.nearest_live_where(sp, metric, |j| on_tree.contains(j));
    }
    tree.iter()
        .map(|&j| (metric.dist(store.peers()[j].point(), sp), j))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, j)| j)
}

/// Appends `path[1..]` to `walked`, truncating at (and including) the
/// first on-tree node. Returns the completed path on a tree hit, `None`
/// otherwise. Every appended node's row was consulted, so it joins the
/// support set (nodes beyond the truncation were walked by the router
/// but do not influence the result — they stay out).
fn splice_until_on_tree(
    walked: &mut Vec<usize>,
    path: &[usize],
    on_tree: &PeerBits,
    support: &mut BTreeSet<usize>,
) -> Option<Vec<usize>> {
    support.insert(path[0]);
    for &hop in &path[1..] {
        walked.push(hop);
        if on_tree.contains(hop) {
            // The terminal's own row was never read; it stays out.
            return Some(std::mem::take(walked));
        }
        support.insert(hop);
    }
    None
}

/// Deterministic BFS from the end of `walked` to the first on-tree node
/// (FIFO over sorted adjacency rows ⇒ unique answer). Expanded nodes'
/// rows are consulted, so they all enter the support set.
fn flood_to_tree(
    store: &TopologyStore,
    on_tree: &PeerBits,
    walked: &mut Vec<usize>,
    support: &mut BTreeSet<usize>,
    report: &mut GraftReport,
) -> Option<Vec<usize>> {
    let start = *walked.last().expect("walked starts at the member");
    let mut parent: Vec<Option<usize>> = vec![None; store.len()];
    let mut seen = vec![false; store.len()];
    seen[start] = true;
    let mut queue = VecDeque::from([start]);
    let mut nbuf: Vec<usize> = Vec::new();
    while let Some(u) = queue.pop_front() {
        if on_tree.contains(u) {
            // Reconstruct start → u and splice onto the walked prefix.
            let mut tail = Vec::new();
            let mut cur = u;
            while cur != start {
                tail.push(cur);
                cur = parent[cur].expect("BFS tree reaches u");
            }
            walked.extend(tail.into_iter().rev());
            return Some(std::mem::take(walked));
        }
        support.insert(u);
        store.undirected_neighbors_into(u, &mut nbuf);
        for &v in &nbuf {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                report.flood_messages += 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// Removes loops from a walked path (tier transitions can revisit a
/// node): keeps the first occurrence of each node and splices out the
/// cycle, preserving overlay adjacency between consecutive survivors.
fn compress_loops(path: Vec<usize>) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(path.len());
    for node in path {
        if let Some(pos) = out.iter().position(|&x| x == node) {
            out.truncate(pos);
        }
        out.push(node);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::build_group_tree_on_store;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_geom::Point;
    use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
    use geocast_overlay::PeerInfo;
    use std::sync::Arc;

    fn store_from(points: Vec<Point>) -> TopologyStore {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in points {
            store.insert(p);
        }
        store
    }

    /// A diagonal line: consecutive peers are overlay neighbours, far
    /// pairs are not, so a two-ended group must graft through the
    /// middle.
    fn diagonal(n: usize) -> TopologyStore {
        store_from(
            (0..n)
                .map(|i| Point::new(vec![10.0 * i as f64, 10.0 * i as f64]).unwrap())
                .collect(),
        )
    }

    #[test]
    fn grafts_a_relay_chain_through_the_middle() {
        let store = diagonal(5);
        let members = BTreeSet::from([0usize, 4]);
        let mut build =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        assert_eq!(build.stranded, vec![4], "far member starts stranded");
        let (report, support) = graft_stranded_members(&store, &mut build, MetricKind::L1);
        assert!(build.stranded.is_empty());
        assert_eq!(build.relays, vec![1, 2, 3]);
        assert_eq!(report.grafted, 1);
        assert_eq!(report.relays, 3);
        assert_eq!(report.route_hops, 4, "4 overlay hops from 4 down to 0");
        assert_eq!(report.flood_fallbacks, 0);
        // The consulted rows: the walked path (member + relays).
        assert_eq!(support, vec![1, 2, 3, 4]);
        // The grafted chain hangs off the root in path order.
        assert_eq!(build.tree.parent(4), Some(3));
        assert_eq!(build.tree.parent(3), Some(2));
        assert_eq!(build.tree.parent(2), Some(1));
        assert_eq!(build.tree.parent(1), Some(0));
        assert_eq!(build.tree.validate(), Ok(()));
    }

    #[test]
    fn graft_is_a_no_op_on_fully_covered_groups() {
        let store = diagonal(4);
        let members: BTreeSet<usize> = (0..4).collect();
        let mut build =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        assert!(build.stranded.is_empty());
        let before = build.clone();
        let (report, support) = graft_stranded_members(&store, &mut build, MetricKind::L1);
        assert_eq!(build, before);
        assert_eq!(report, GraftReport::default());
        assert!(support.is_empty());
    }

    #[test]
    fn scattered_members_reach_full_coverage_on_empty_rect() {
        let store = store_from(uniform_points(150, 2, 1000.0, 7).into_points());
        // A deliberately scattered group: every 14th peer.
        let members: BTreeSet<usize> = (0..150).step_by(14).collect();
        let mut build =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        assert!(
            !build.stranded.is_empty(),
            "scattered membership should strand without grafting"
        );
        let (report, _) = graft_stranded_members(&store, &mut build, MetricKind::L1);
        assert!(build.stranded.is_empty(), "empty-rect graft is total");
        assert_eq!(report.unreachable, 0);
        assert_eq!(
            report.flood_fallbacks, 0,
            "empty-rect routing never needs the flood tier"
        );
        for &m in &members {
            assert!(build.tree.is_reached(m), "member {m} unreached");
        }
        for &r in &build.relays {
            assert!(!members.contains(&r), "member misclassified as relay");
            assert!(build.tree.is_reached(r));
        }
        assert_eq!(build.tree.validate(), Ok(()));
    }

    #[test]
    fn sparse_rules_fall_back_but_still_cover_connected_members() {
        // K-closest overlays stall point-greedy routing; the fallback
        // tiers must still connect every member that shares the root's
        // overlay component.
        let peers = PeerInfo::from_point_set(&uniform_points(120, 2, 1000.0, 11));
        let store = TopologyStore::from_peers(
            peers,
            Arc::new(HyperplanesSelection::k_closest(2, 2, MetricKind::L1)),
        );
        let members: BTreeSet<usize> = (0..120).step_by(11).collect();
        let root = 0usize;
        let mut build =
            build_group_tree_on_store(&store, root, &members, &OrthantRectPartitioner::median());
        let (report, _) = graft_stranded_members(&store, &mut build, MetricKind::L1);
        // Reference connectivity: BFS over the full overlay from root.
        let dist = store.graph().bfs_distances(root);
        for &m in &members {
            assert_eq!(
                build.tree.is_reached(m),
                dist[m].is_some(),
                "member {m}: reached iff overlay-connected to the root"
            );
        }
        assert_eq!(
            report.unreachable,
            members.iter().filter(|&&m| dist[m].is_none()).count()
        );
        assert_eq!(build.tree.validate(), Ok(()));
    }

    #[test]
    fn disconnected_members_stay_stranded_and_expand_support() {
        // Two clusters far apart under a 1-closest rule: the far
        // cluster's member is unreachable, must be reported, and the
        // flood's consulted component must land in the support set so
        // a bridging join later triggers a re-graft.
        let mut points: Vec<Point> = (0..4)
            .map(|i| Point::new(vec![10.0 + f64::from(i), 10.0 + 2.0 * f64::from(i)]).unwrap())
            .collect();
        points.extend((0..3).map(|i| {
            Point::new(vec![5000.0 + f64::from(i), 5000.0 + 2.0 * f64::from(i)]).unwrap()
        }));
        let peers = PeerInfo::from_point_set(&geocast_geom::PointSet::new(points).unwrap());
        let store = TopologyStore::from_peers(
            peers,
            Arc::new(HyperplanesSelection::k_closest(2, 1, MetricKind::L1)),
        );
        // Confirm the workload really is split: no overlay path 0 → 5.
        let dist = store.graph().bfs_distances(0);
        if dist[5].is_some() {
            // Topology happens to connect; nothing to test here.
            return;
        }
        let members = BTreeSet::from([0usize, 5]);
        let mut build =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        let (report, support) = graft_stranded_members(&store, &mut build, MetricKind::L1);
        assert_eq!(build.stranded, vec![5]);
        assert_eq!(report.unreachable, 1);
        assert!(report.flood_fallbacks >= 1);
        // The stranded member's whole component was consulted, so a
        // later bridging join would mark the group delta-affected.
        assert!(
            support.contains(&6),
            "component peer 6 missing from support: {support:?}"
        );
    }

    #[test]
    fn graft_is_deterministic() {
        let store = store_from(uniform_points(100, 2, 1000.0, 13).into_points());
        let members: BTreeSet<usize> = (0..100).step_by(9).collect();
        let run = || {
            let mut build =
                build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
            let out = graft_stranded_members(&store, &mut build, MetricKind::L1);
            (build, out)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compress_loops_splices_revisits() {
        assert_eq!(compress_loops(vec![1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(compress_loops(vec![1, 2, 3, 2, 4]), vec![1, 2, 4]);
        assert_eq!(compress_loops(vec![1, 2, 1, 3]), vec![1, 3]);
    }
}
