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
//! 1. **Greedy point routing** ([`greedy_step_on_store`], hop by hop)
//!    towards the nearest on-tree node, stopping at the first on-tree
//!    node the walk meets. The target is the exact `(distance, index)`
//!    minimum over the on-tree set, answered by a grid that holds only
//!    the on-tree nodes and grows as paths attach (`OnTreeIndex`), so
//!    a query costs the few cells around the member whatever the
//!    population around the tree is. On empty-rectangle equilibria the
//!    walk always delivers, so tiers 2–3 never engage there.
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
//! set is returned as the graft's **support**, and for a pass that
//! never left tier 1 each support node's row was read for exactly one
//! decision — the greedy hop towards its walk's target, which became
//! its tree parent. The pass returns those targets next to the support
//! set; the incremental engine keeps a group's build across a churn
//! delta exactly when every dirtied support node still takes the same
//! hop (the repair certificate of [`crate::groups`], where the
//! induction is written out), and re-grafts otherwise — which keeps the
//! maintained tree byte-identical to a from-scratch rebuild
//! (property-tested in `tests/prop_groups.rs`).

use std::collections::{BTreeMap, VecDeque};

use geocast_geom::{Interval, Metric, MetricKind, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, greedy_step_on_store};
use geocast_overlay::{PeerInfo, TopologyStore};

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

impl GraftReport {
    /// `true` when every discovery of the pass was a plain greedy walk:
    /// no region fallback, no flood. Only then is each support node's
    /// row read for one hop decision, which is what a repair
    /// certificate can re-check.
    #[must_use]
    pub fn greedy_only(&self) -> bool {
        self.rect_fallbacks == 0 && self.flood_fallbacks == 0
    }
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
    let (report, support, _targets) = graft_with_targets(store, build, metric);
    (report, support)
}

/// [`graft_stranded_members`] plus, parallel to the support set, the
/// on-tree node each support node's walk was heading for when its row
/// was read. The targets are empty unless the pass was
/// [`GraftReport::greedy_only`] (a fallback tier reads rows for other
/// decisions than a hop towards one target).
pub(crate) fn graft_with_targets(
    store: &TopologyStore,
    build: &mut BuildResult,
    metric: MetricKind,
) -> (GraftReport, Vec<usize>, Vec<u32>) {
    assert_eq!(store.len(), build.tree.len(), "store/tree size mismatch");
    let mut report = GraftReport::default();
    if build.stranded.is_empty() {
        return (report, Vec::new(), Vec::new());
    }

    // The on-tree set while paths are being discovered: a grid (for the
    // nearest-node query) and a bit mask (for the per-hop tests), both
    // growing as paths are found. The tree itself absorbs every
    // discovered link in one merge at the end.
    let stranded = std::mem::take(&mut build.stranded);
    let mut index = OnTreeIndex::new(store.peers(), metric, build.tree.reached(), &stranded);
    let mut on_tree = PeerBits::from_peers(store.len(), build.tree.reached());
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut relays: Vec<usize> = Vec::new();
    let mut walk = Walk::default();

    for &s in &stranded {
        if on_tree.contains(s) {
            // An earlier graft path already routed through this member.
            continue;
        }
        if !discover_path(store, &on_tree, &mut index, s, &mut walk, &mut report) {
            report.unreachable += 1;
            continue;
        }
        // path[0] = s, path[last] on-tree; everything before it is new.
        // A new node that is not itself a stranded member (the list is
        // sorted) only forwards: a relay.
        for hop in walk.path.windows(2) {
            links.push((hop[0], hop[1]));
            on_tree.insert(hop[0]);
            index.insert(hop[0]);
            if stranded.binary_search(&hop[0]).is_err() {
                relays.push(hop[0]);
            }
        }
        report.grafted += 1;
    }

    build.tree.attach_all(links);
    build.stranded = stranded
        .into_iter()
        .filter(|&m| !on_tree.contains(m))
        .collect();
    // Each path node joins the tree once, so the relays are distinct.
    relays.sort_unstable();
    report.relays = relays.len();
    build.relays = relays;

    // A greedy-only pass reads each row once (a walk stops at the first
    // on-tree node and everything it walked is on-tree afterwards); the
    // fallback tiers can revisit.
    let mut consulted = walk.consulted;
    consulted.sort_unstable();
    consulted.dedup_by_key(|&mut (node, _)| node);
    let support = consulted.iter().map(|&(node, _)| node).collect();
    let targets = if report.greedy_only() {
        consulted.iter().map(|&(_, target)| target).collect()
    } else {
        Vec::new()
    };
    (report, support, targets)
}

/// Scratch and output of the discoveries of one graft pass.
#[derive(Default)]
struct Walk {
    /// The last discovered path `[s, …relays…, on-tree node]`.
    path: Vec<usize>,
    /// Every `(peer, target)` whose adjacency row some discovery of the
    /// pass read, with the on-tree node that discovery was locating.
    consulted: Vec<(usize, u32)>,
    nbuf: Vec<usize>,
}

/// Discovers an overlay path from stranded member `s` to the tree into
/// `walk.path`: `[s, …relays…, on-tree node]`, loop-free. `false` when
/// `s`'s overlay component does not contain the tree.
fn discover_path(
    store: &TopologyStore,
    on_tree: &PeerBits,
    index: &mut OnTreeIndex,
    s: usize,
    walk: &mut Walk,
    report: &mut GraftReport,
) -> bool {
    let metric = index.metric;
    let Some(target) = index.nearest(s) else {
        return false;
    };
    let tag = u32::try_from(target).expect("peer ids fit u32");
    let tp = store.peers()[target].point();
    walk.path.clear();
    walk.path.push(s);
    walk.consulted.push((s, tag));
    let mut cur = s;

    for round in 0..MAX_ROUTING_ROUNDS {
        // Tier 1: greedy point routing towards the target peer, one hop
        // at a time, ending at the first on-tree node — only rows that
        // decide the used path are read, so only they enter the support
        // set. Every hop is strictly closer to the target than the
        // last, so a path that never left this tier has no loop.
        while let Some(next) = greedy_step_on_store(store, cur, tp, metric, &mut walk.nbuf) {
            walk.path.push(next);
            report.route_hops += 1;
            if on_tree.contains(next) {
                // The terminal's own row was never read; it stays out.
                if round > 0 {
                    compress_loops(&mut walk.path);
                }
                return true;
            }
            walk.consulted.push((next, tag));
            cur = next;
        }

        // Tier 2: region fallback — retarget to a box around the target
        // small enough that the stall point lies outside it (max axis
        // offset ≥ d/D > half-width), so entering it strictly shrinks
        // the remaining distance.
        let cp = store.peers()[cur].point();
        let d = metric.dist(cp, tp);
        debug_assert!(d > 0.0, "stall at the target would have delivered");
        let half = d / (2.0 * tp.dim() as f64);
        let sides = (0..tp.dim())
            .map(|k| Interval::new(tp[k] - half, tp[k] + half))
            .collect();
        let region = Rect::new(sides).expect("target points have dimensions");
        report.rect_fallbacks += 1;
        let route = greedy_route_to_rect_on_store(store, cur, &region, metric, store.len());
        for &hop in &route.path()[1..] {
            walk.path.push(hop);
            report.route_hops += 1;
            if on_tree.contains(hop) {
                compress_loops(&mut walk.path);
                return true;
            }
            walk.consulted.push((hop, tag));
        }
        cur = route.last();
        if !route.delivered() {
            // Both greedy tiers are stuck; flood from here.
            break;
        }
    }

    // Tier 3: flood discovery (deterministic BFS) from the last stall.
    report.flood_fallbacks += 1;
    let found = flood_to_tree(store, on_tree, walk, tag, report);
    if found {
        compress_loops(&mut walk.path);
    }
    found
}

/// The on-tree nodes of one graft pass, bucketed on a uniform grid so
/// the nearest one to a stranded member is found from the few cells
/// around it.
///
/// The store's own spatial index answers the same question by ranking
/// the **whole population** and filtering: on-tree nodes are sparse
/// among `N` peers, so most of its work is rejected candidates. This
/// grid holds only what can be the answer. It is built per pass over
/// the bounding box of everything that starts on the tree or wants to
/// join it (cells sized for about two such peers each), grows by one
/// entry per attached path node, and dies with the pass; path nodes
/// outside the box clamp onto border cells.
///
/// [`OnTreeIndex::nearest`] is exact: it scans the cells ring by ring
/// outwards from the query's cell and stops once the best candidate is
/// closer than any face of the scanned block that still has cells
/// beyond it — every unscanned node lies beyond such a face, and every
/// `L_p` distance is at least the offset along one axis. Ties go to the
/// smaller peer index wherever the tied nodes sit, because a tie is
/// never closer than the face bound.
struct OnTreeIndex<'a> {
    peers: &'a [PeerInfo],
    metric: MetricKind,
    /// Cells per dimension.
    side: usize,
    lo: Vec<f64>,
    cell: Vec<f64>,
    /// Absolute slack on the face bound: cell assignment divides where
    /// the face positions multiply, so the two can disagree by a few
    /// ulps of the extent.
    slack: f64,
    /// Per cell (row-major, dimension 0 outermost): its newest entry.
    head: Vec<u32>,
    /// `(peer, older entry of the same cell)` per indexed node.
    entries: Vec<(u32, u32)>,
    /// The query's cell coordinates (scratch).
    center: Vec<usize>,
}

/// End of a cell's entry chain.
const NO_ENTRY: u32 = u32::MAX;

impl<'a> OnTreeIndex<'a> {
    /// Indexes `on_tree` over a grid sized for `on_tree` and `joining`
    /// together (the latter, and relays between them, arrive through
    /// [`OnTreeIndex::insert`] as their paths attach).
    fn new(
        peers: &'a [PeerInfo],
        metric: MetricKind,
        on_tree: &[usize],
        joining: &[usize],
    ) -> Self {
        let dim = peers[on_tree[0]].point().dim();
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &p in on_tree.iter().chain(joining) {
            for (d, &x) in peers[p].point().coords().iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let expected = on_tree.len() + joining.len();
        let side = ((expected as f64 / 2.0).powf(1.0 / dim as f64).floor() as usize).max(1);
        let cell: Vec<f64> = (0..dim)
            .map(|d| {
                let span = hi[d] - lo[d];
                if span > 0.0 {
                    span / side as f64
                } else {
                    1.0
                }
            })
            .collect();
        let extent = (0..dim).map(|d| hi[d] - lo[d]).fold(1.0, f64::max);
        let mut index = OnTreeIndex {
            peers,
            metric,
            side,
            lo,
            cell,
            slack: extent * 1e-9,
            head: vec![NO_ENTRY; side.pow(dim as u32)],
            entries: Vec::with_capacity(expected),
            center: vec![0; dim],
        };
        for &p in on_tree {
            index.insert(p);
        }
        index
    }

    /// The cell coordinate of `x` along dimension `d`, clamped onto the
    /// grid (monotone in `x`, which is all exactness needs).
    fn cell_coord(&self, d: usize, x: f64) -> usize {
        // Negative quotients saturate to cell 0.
        (((x - self.lo[d]) / self.cell[d]).floor() as usize).min(self.side - 1)
    }

    fn insert(&mut self, peer: usize) {
        let flat = self.peers[peer]
            .point()
            .coords()
            .iter()
            .enumerate()
            .fold(0, |flat, (d, &x)| flat * self.side + self.cell_coord(d, x));
        let entry = u32::try_from(self.entries.len()).expect("entry count fits u32");
        let peer = u32::try_from(peer).expect("peer ids fit u32");
        self.entries.push((peer, self.head[flat]));
        self.head[flat] = entry;
    }

    /// The indexed node nearest to peer `s` by `(distance, index)`;
    /// `None` when nothing is indexed.
    fn nearest(&mut self, s: usize) -> Option<usize> {
        let peers = self.peers;
        let q = peers[s].point().coords();
        for (d, &x) in q.iter().enumerate() {
            self.center[d] = self.cell_coord(d, x);
        }
        let mut best: Option<(f64, usize)> = None;
        for ring in 0..self.side {
            self.scan_ring(0, ring, 0, false, s, &mut best);
            let clearance = self.clearance(q, ring);
            if best.is_some_and(|(dist, _)| dist < clearance - self.slack)
                || clearance == f64::INFINITY
            {
                break;
            }
        }
        best.map(|(_, peer)| peer)
    }

    /// Distance from `q` to the nearest face of the block of cells
    /// within `ring` rings of its cell, among the faces with cells
    /// beyond them — a lower bound on the distance of every node in a
    /// farther ring. Infinite when the block covers the grid.
    fn clearance(&self, q: &[f64], ring: usize) -> f64 {
        let mut nearest = f64::INFINITY;
        for (d, &x) in q.iter().enumerate() {
            let c = self.center[d];
            if c > ring {
                nearest = nearest.min(x - (self.lo[d] + (c - ring) as f64 * self.cell[d]));
            }
            if c + ring + 1 < self.side {
                nearest = nearest.min(self.lo[d] + (c + ring + 1) as f64 * self.cell[d] - x);
            }
        }
        nearest
    }

    /// Scans the cells exactly `ring` rings from the query's cell:
    /// dimension by dimension, a prefix that already sits `ring` cells
    /// out in some dimension ranges over the whole block in the rest,
    /// any other prefix only reaches the shell through the last
    /// dimension's two extreme layers.
    fn scan_ring(
        &self,
        d: usize,
        ring: usize,
        flat: usize,
        on_shell: bool,
        s: usize,
        best: &mut Option<(f64, usize)>,
    ) {
        if d == self.center.len() {
            self.scan_cell(flat, s, best);
            return;
        }
        let c = self.center[d];
        let below = c.checked_sub(ring);
        let above = Some(c + ring).filter(|&i| i < self.side);
        if d + 1 == self.center.len() && !on_shell {
            for i in [below, above.filter(|_| ring > 0)].into_iter().flatten() {
                self.scan_ring(d + 1, ring, flat * self.side + i, true, s, best);
            }
            return;
        }
        for i in below.unwrap_or(0)..=above.unwrap_or(self.side - 1) {
            let shell = on_shell || Some(i) == below || Some(i) == above;
            self.scan_ring(d + 1, ring, flat * self.side + i, shell, s, best);
        }
    }

    fn scan_cell(&self, flat: usize, s: usize, best: &mut Option<(f64, usize)>) {
        let sp = self.peers[s].point();
        let mut entry = self.head[flat];
        while entry != NO_ENTRY {
            let (peer, older) = self.entries[entry as usize];
            let peer = peer as usize;
            let dist = self.metric.dist(self.peers[peer].point(), sp);
            let better = match *best {
                None => true,
                Some((bd, bi)) => dist < bd || (dist == bd && peer < bi),
            };
            if better {
                *best = Some((dist, peer));
            }
            entry = older;
        }
    }
}

/// Deterministic BFS from the end of `walk.path` to the first on-tree
/// node (FIFO over sorted adjacency rows ⇒ unique answer), appended to
/// the path. Expanded nodes' rows are consulted, so they all enter the
/// support set. Holds one transient bit per peer and a parent entry per
/// *discovered* node — nothing else that scales with the overlay.
fn flood_to_tree(
    store: &TopologyStore,
    on_tree: &PeerBits,
    walk: &mut Walk,
    tag: u32,
    report: &mut GraftReport,
) -> bool {
    let start = *walk.path.last().expect("the path starts at the member");
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen = PeerBits::from_peers(store.len(), &[start]);
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        if on_tree.contains(u) {
            // Reconstruct start → u and splice onto the walked prefix.
            let from = walk.path.len();
            let mut cur = u;
            while cur != start {
                walk.path.push(cur);
                cur = parent[&cur];
            }
            walk.path[from..].reverse();
            return true;
        }
        walk.consulted.push((u, tag));
        store.undirected_neighbors_into(u, &mut walk.nbuf);
        for &v in &walk.nbuf {
            if !seen.contains(v) {
                seen.insert(v);
                parent.insert(v, u);
                report.flood_messages += 1;
                queue.push_back(v);
            }
        }
    }
    false
}

/// Removes loops from a walked path (tier transitions can revisit a
/// node): keeps the first occurrence of each node and splices out the
/// cycle, preserving overlay adjacency between consecutive survivors.
fn compress_loops(path: &mut Vec<usize>) {
    let mut kept = 0;
    for at in 0..path.len() {
        let node = path[at];
        if let Some(pos) = path[..kept].iter().position(|&x| x == node) {
            kept = pos;
        }
        path[kept] = node;
        kept += 1;
    }
    path.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{build_group_tree_on_store, splitmix as next};
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_geom::Point;
    use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
    use std::collections::BTreeSet;
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
        // The consulted rows: the walked path (member + relays), each
        // read for the hop towards the one on-tree node.
        assert_eq!(support, vec![1, 2, 3, 4]);
        let mut again =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        let (_, same_support, targets) = graft_with_targets(&store, &mut again, MetricKind::L1);
        assert_eq!(same_support, support);
        assert_eq!(targets, vec![0, 0, 0, 0]);
        assert_eq!(again, build);
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
        for (walked, want) in [
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![1, 2, 3, 2, 4], vec![1, 2, 4]),
            (vec![1, 2, 1, 3], vec![1, 3]),
        ] {
            let mut path = walked;
            compress_loops(&mut path);
            assert_eq!(path, want);
        }
    }

    /// The graft-local nearest is the exhaustive `(distance, index)`
    /// minimum over whatever is on the tree: random on-tree sets of
    /// every density, grown by inserts (some outside the box the grid
    /// was sized for), queried from inside and outside that box — on an
    /// integer lattice, where equal distances and shared coordinates
    /// are the rule, and on uniform points.
    #[test]
    fn on_tree_nearest_matches_the_exhaustive_scan() {
        let lattice = |dim: usize, side: usize| -> Vec<PeerInfo> {
            let points = (0..side.pow(dim as u32))
                .map(|i| {
                    let coords = (0..dim)
                        .map(|d| (i / side.pow(d as u32) % side) as f64)
                        .collect();
                    Point::new(coords).unwrap()
                })
                .collect();
            PeerInfo::from_point_set(&geocast_geom::PointSet::new(points).unwrap())
        };
        let populations = [
            lattice(2, 12),
            lattice(3, 5),
            lattice(1, 40),
            PeerInfo::from_point_set(&uniform_points(300, 2, 1000.0, 5)),
            PeerInfo::from_point_set(&uniform_points(200, 4, 1000.0, 6)),
        ];
        let mut state = 0x0dd_ba11u64;
        for peers in &populations {
            let n = peers.len();
            for metric in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
                for on_tree_count in [1usize, 2, 7, n / 4, n / 2] {
                    // Shuffled ids: a prefix starts on the tree, the next
                    // stretch sizes the grid as joiners, the tail only
                    // ever arrives through insert or as a query.
                    let mut ids: Vec<usize> = (0..n).collect();
                    for k in 0..n {
                        let j = k + (next(&mut state) as usize) % (n - k);
                        ids.swap(k, j);
                    }
                    let joiners = on_tree_count + (next(&mut state) as usize) % (n / 4);
                    let mut on_tree = ids[..on_tree_count].to_vec();
                    on_tree.sort_unstable();
                    let mut index =
                        OnTreeIndex::new(peers, metric, &on_tree, &ids[on_tree_count..joiners]);
                    for (step, &q) in ids[on_tree_count..].iter().enumerate() {
                        let want = on_tree
                            .iter()
                            .map(|&j| (metric.dist(peers[j].point(), peers[q].point()), j))
                            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                            .map(|(_, j)| j);
                        assert_eq!(
                            index.nearest(q),
                            want,
                            "n={n} {metric:?} on-tree {} query {q}",
                            on_tree.len()
                        );
                        if step % 3 == 0 {
                            index.insert(q);
                            on_tree.push(q);
                        }
                    }
                }
            }
        }
    }

    /// The flood tier holds a bit per peer and an entry per discovered
    /// node; a member the overlay cannot connect reports unreachable
    /// with its whole component consulted, and one it can connect gets
    /// the BFS-shortest path.
    #[test]
    fn flood_finds_the_fifo_first_tree_node_and_reports_the_component() {
        // A path 0-1-2-3-4: only consecutive peers are linked.
        let store = diagonal(5);
        let mut walk = Walk::default();
        walk.path.push(4);
        let on_tree = PeerBits::from_peers(store.len(), &[0]);
        let mut report = GraftReport::default();
        assert!(flood_to_tree(&store, &on_tree, &mut walk, 0, &mut report));
        assert_eq!(walk.path, vec![4, 3, 2, 1, 0]);
        assert_eq!(report.flood_messages, 4, "one message per discovered peer");
        let consulted: Vec<usize> = walk.consulted.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            consulted,
            vec![4, 3, 2, 1],
            "the terminal's row is not read"
        );
        // Nothing on the tree is reachable: the whole component is read.
        let mut walk = Walk::default();
        walk.path.push(4);
        let nowhere = PeerBits::from_peers(store.len(), std::iter::empty());
        assert!(!flood_to_tree(&store, &nowhere, &mut walk, 0, &mut report));
        assert_eq!(walk.consulted.len(), 5);
        assert_eq!(walk.path, vec![4]);
    }
}
