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
//!    target — the distance-to-box walk escapes point-greedy minima
//!    because entering the box at all halves the remaining distance.
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
//! set, together with the stranded member whose walk attached each
//! support node; the incremental engine keeps a group's build across a
//! churn delta exactly when every dirtied support node still takes the
//! same hop (the repair certificate of [`crate::groups`], where the
//! induction is written out), and re-grafts otherwise — which keeps the
//! maintained tree byte-identical to a from-scratch rebuild
//! (property-tested in `tests/prop_groups.rs`).
//!
//! A re-graft costs what changed, not the group: the same pass, handed
//! the previous build's recorded decisions as a `GraftMemo`, takes a
//! walk's target from the record whenever the recorded target is still
//! on the tree and nothing the old pass did not have there is nearer,
//! and takes a hop from the old tree whenever the node's row has not
//! changed since — and searches or steps as above otherwise. It returns
//! exactly what it returns without a memo; `GraftMemo` carries the
//! argument.

use std::collections::{BTreeMap, VecDeque};

use geocast_geom::{Interval, Metric, MetricKind, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, greedy_step_on_store};
use geocast_overlay::{PeerInfo, TopologyStore};

use crate::bits::PeerBits;
use crate::builder::BuildResult;
use crate::tree::MulticastTree;

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
    let pass = graft_pass(store, build, metric, None);
    (pass.report, pass.support)
}

/// What one graft pass returns besides the grafted `build`.
#[derive(Default)]
pub(crate) struct GraftPass {
    pub report: GraftReport,
    /// Every peer whose adjacency row the pass consulted, sorted.
    pub support: Vec<usize>,
    /// Parallel to `support`: the on-tree node each support node's walk
    /// was heading for when its row was read. Empty, like `joined`,
    /// unless the pass was [`GraftReport::greedy_only`] (a fallback tier
    /// reads rows for other decisions than a hop towards one target).
    pub targets: Vec<u32>,
    /// Parallel to `support`: the stranded member whose walk attached
    /// the node (itself, for a member that led its own walk).
    pub joined: Vec<u32>,
    /// Walks whose target was the memo's recorded one.
    pub walks_replayed: u64,
    /// Walks whose target was searched for ([`OnTreeIndex::nearest`]).
    pub walks_recomputed: u64,
}

/// The decisions the previous, greedy-only pass over the same group
/// recorded, in the form the next pass replays them. A pass given a memo
/// returns exactly what it returns without one; the memo only tells it
/// which answers it need not search for:
///
/// * **A hop.** A greedy hop is a function of one adjacency row and one
///   target point. A support node that is not `dirty` has the row it had
///   when its hop was last taken or re-checked, so towards its recorded
///   target it takes the hop it took — its parent in the old tree.
/// * **A target.** The target of stranded member `s` is the
///   `(distance, index)` minimum over the nodes on the tree when the
///   pass reaches `s`. Split that set into the nodes the old pass also
///   had on its tree at that point and the rest (`fresh`). If `s` led
///   its own walk last time, its recorded target was the minimum over
///   the whole old set, so once it is seen to be on the tree now it is
///   the minimum over the shared part — and the new target is the
///   better of it and the best `fresh` node.
pub(crate) struct GraftMemo<'a> {
    /// The old pass's support set, sorted; `targets` and `joined` are
    /// parallel to it.
    pub support: &'a [usize],
    pub targets: &'a [u32],
    pub joined: &'a [u32],
    /// The old grafted tree.
    pub tree: &'a MulticastTree,
    /// Every old support node whose adjacency row may have changed
    /// since its recorded hop was last known to stand, sorted.
    pub dirty: &'a [usize],
}

impl GraftMemo<'_> {
    fn slot(&self, p: usize) -> Option<usize> {
        self.support.binary_search(&p).ok()
    }

    /// `true` if `p` was on the old tree once the old pass was done
    /// with stranded member `after` — before any walk, for `None`. (A
    /// greedy-only pass attaches every node it consults, so the walks'
    /// share of the old tree is its support and the rest of it is what
    /// the old §2 construction reached.)
    fn on_tree_after(&self, p: usize, after: Option<usize>) -> bool {
        match self.slot(p) {
            Some(at) => after.is_some_and(|s| self.joined[at] as usize <= s),
            None => self.tree.is_reached(p),
        }
    }

    /// The recorded hop of `p` towards `target`, if `p` recorded one
    /// and its row still reads as it did then.
    fn hop(&self, p: usize, target: u32) -> Option<usize> {
        let at = self.slot(p)?;
        if self.targets[at] != target || self.dirty.binary_search(&p).is_ok() {
            return None;
        }
        self.tree.parent(p)
    }
}

/// Past this many `fresh` nodes a pass stops replaying targets: each
/// replayed target costs one distance per fresh node, a searched one a
/// few grid cells.
const MAX_FRESH: usize = 32;

/// A memo plus what the running pass has put on its tree that the old
/// pass did not have there at the same point.
struct Replay<'a> {
    memo: &'a GraftMemo<'a>,
    fresh: Vec<usize>,
}

impl Replay<'_> {
    /// Notes that `p` is on the tree from now on — the pass is about to
    /// walk (`after == None`, §2-reached nodes) or has just attached a
    /// path of stranded member `after`.
    fn note_on_tree(&mut self, p: usize, after: Option<usize>) {
        if !self.memo.on_tree_after(p, after) && self.fresh.len() <= MAX_FRESH {
            self.fresh.push(p);
        }
    }

    /// The target of stranded member `s`, when the memo decides it.
    fn target(
        &self,
        peers: &[PeerInfo],
        metric: MetricKind,
        on_tree: &PeerBits,
        s: usize,
    ) -> Option<usize> {
        let memo = self.memo;
        if self.fresh.len() > MAX_FRESH {
            return None;
        }
        let at = memo.slot(s).filter(|&at| memo.joined[at] as usize == s)?;
        let recorded = memo.targets[at] as usize;
        if !on_tree.contains(recorded) {
            return None;
        }
        let sp = peers[s].point();
        let best = metric.dist(peers[recorded].point(), sp);
        let beaten = self.fresh.iter().any(|&f| {
            let dist = metric.dist(peers[f].point(), sp);
            dist < best || (dist == best && f < recorded)
        });
        (!beaten).then_some(recorded)
    }
}

/// The one graft pass: [`graft_stranded_members`] plus what the
/// incremental engine records about it, optionally replaying the
/// decisions of the group's previous pass (see [`GraftMemo`]).
pub(crate) fn graft_pass(
    store: &TopologyStore,
    build: &mut BuildResult,
    metric: MetricKind,
    memo: Option<&GraftMemo>,
) -> GraftPass {
    assert_eq!(store.len(), build.tree.len(), "store/tree size mismatch");
    let mut pass = GraftPass::default();
    if build.stranded.is_empty() {
        return pass;
    }

    // The on-tree set while paths are being discovered: a grid (for the
    // nearest-node query) and a bit mask (for the per-hop tests), both
    // growing as paths are found. The tree itself absorbs every
    // discovered link in one merge at the end.
    let stranded = std::mem::take(&mut build.stranded);
    let mut index = OnTreeIndex::new(store.peers(), metric, build.tree.reached(), &stranded);
    let mut on_tree = PeerBits::from_peers(store.len(), build.tree.reached());
    let mut replay = memo.map(|memo| {
        let mut replay = Replay {
            memo,
            fresh: Vec::new(),
        };
        for &p in build.tree.reached() {
            replay.note_on_tree(p, None);
        }
        replay
    });
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut relays: Vec<usize> = Vec::new();
    let mut walk = Walk::default();
    let discovery = Discovery {
        store,
        metric,
        memo,
    };
    let report = &mut pass.report;

    for &s in &stranded {
        if on_tree.contains(s) {
            // An earlier graft path already routed through this member.
            continue;
        }
        let target = match replay
            .as_ref()
            .and_then(|r| r.target(store.peers(), metric, &on_tree, s))
        {
            Some(recorded) => {
                pass.walks_replayed += 1;
                Some(recorded)
            }
            None => {
                pass.walks_recomputed += 1;
                index.nearest(s)
            }
        };
        let found = target
            .is_some_and(|target| discover_path(discovery, &on_tree, s, target, &mut walk, report));
        if !found {
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
            if let Some(replay) = &mut replay {
                replay.note_on_tree(hop[0], Some(s));
            }
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
    consulted.dedup_by_key(|c| c.node);
    pass.support = consulted.iter().map(|c| c.node).collect();
    // On every tier a path node's row was read by the walk that attached
    // it: the engine finds a group's relays among its support nodes.
    debug_assert!(
        build
            .relays
            .iter()
            .all(|r| pass.support.binary_search(r).is_ok()),
        "a relay outside the support set"
    );
    if pass.report.greedy_only() {
        pass.targets = consulted.iter().map(|c| c.target).collect();
        pass.joined = consulted.iter().map(|c| c.joined).collect();
    }
    pass
}

/// One adjacency row some discovery of the pass read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Consulted {
    node: usize,
    /// The on-tree node that discovery was locating.
    target: u32,
    /// The stranded member that discovery started from.
    joined: u32,
}

/// Scratch and output of the discoveries of one graft pass.
#[derive(Default)]
struct Walk {
    /// The last discovered path `[s, …relays…, on-tree node]`.
    path: Vec<usize>,
    consulted: Vec<Consulted>,
    nbuf: Vec<usize>,
}

/// What every discovery of one pass reads and none of them changes.
#[derive(Clone, Copy)]
struct Discovery<'a> {
    store: &'a TopologyStore,
    metric: MetricKind,
    memo: Option<&'a GraftMemo<'a>>,
}

/// Discovers an overlay path from stranded member `s` to the tree into
/// `walk.path`: `[s, …relays…, on-tree node]`, loop-free, heading for
/// on-tree node `target`. `false` when `s`'s overlay component does not
/// contain the tree.
fn discover_path(
    discovery: Discovery,
    on_tree: &PeerBits,
    s: usize,
    target: usize,
    walk: &mut Walk,
    report: &mut GraftReport,
) -> bool {
    let Discovery {
        store,
        metric,
        memo,
    } = discovery;
    let consulted = |node: usize| Consulted {
        node,
        target: u32::try_from(target).expect("peer ids fit u32"),
        joined: u32::try_from(s).expect("peer ids fit u32"),
    };
    let tag = consulted(s).target;
    let tp = store.peers()[target].point();
    walk.path.clear();
    walk.path.push(s);
    walk.consulted.push(consulted(s));
    let mut cur = s;

    for round in 0..MAX_ROUTING_ROUNDS {
        // Tier 1: greedy point routing towards the target peer, one hop
        // at a time, ending at the first on-tree node — only rows that
        // decide the used path are read, so only they enter the support
        // set. Every hop is strictly closer to the target than the
        // last, so a path that never left this tier has no loop. A hop
        // the memo recorded is the hop the row would give.
        while let Some(next) = memo
            .and_then(|m| m.hop(cur, tag))
            .or_else(|| greedy_step_on_store(store, cur, tp, metric, &mut walk.nbuf))
        {
            walk.path.push(next);
            report.route_hops += 1;
            if on_tree.contains(next) {
                // The terminal's own row was never read; it stays out.
                if round > 0 {
                    compress_loops(&mut walk.path);
                }
                return true;
            }
            walk.consulted.push(consulted(next));
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
            walk.consulted.push(consulted(hop));
        }
        cur = route.last();
        if !route.delivered() {
            // Both greedy tiers are stuck; flood from here.
            break;
        }
    }

    // Tier 3: flood discovery (deterministic BFS) from the last stall.
    report.flood_fallbacks += 1;
    let found = flood_to_tree(store, on_tree, walk, consulted(s), report);
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
    of: Consulted,
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
        walk.consulted.push(Consulted { node: u, ..of });
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
    fn diagonal(n: i32) -> TopologyStore {
        store_from(line(&(0..n).collect::<Vec<_>>()))
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
        let pass = graft_pass(&store, &mut again, MetricKind::L1, None);
        assert_eq!(pass.support, support);
        assert_eq!(pass.targets, vec![0, 0, 0, 0]);
        assert_eq!(pass.joined, vec![4, 4, 4, 4], "one walk attached them all");
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (0, 1));
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

    /// One group build the way `crate::groups` makes it — the §2 member
    /// tree rooted at peer 0, then the graft pass, replaying `memo` if
    /// given.
    fn grafted(
        store: &TopologyStore,
        members: &[usize],
        memo: Option<&GraftMemo>,
    ) -> (BuildResult, GraftPass) {
        let members: BTreeSet<usize> = members.iter().copied().collect();
        let mut build =
            build_group_tree_on_store(store, 0, &members, &OrthantRectPartitioner::median());
        let pass = graft_pass(store, &mut build, MetricKind::L1, memo);
        (build, pass)
    }

    /// Builds `members` over `store` replaying `old` — a build of the
    /// same group over an earlier state of the store, `dirty` being the
    /// peers whose rows changed since — and from scratch: same tree,
    /// same relays, same support, same recorded decisions, same report.
    /// Returns the replayed one.
    fn replayed(
        store: &TopologyStore,
        members: &[usize],
        old: &(BuildResult, GraftPass),
        dirty: &[usize],
    ) -> (BuildResult, GraftPass) {
        let (old_build, old_pass) = old;
        assert!(
            old_pass.report.greedy_only(),
            "only such passes are replayed"
        );
        let dirty: Vec<usize> = dirty
            .iter()
            .copied()
            .filter(|p| old_pass.support.binary_search(p).is_ok())
            .collect();
        let memo = GraftMemo {
            support: &old_pass.support,
            targets: &old_pass.targets,
            joined: &old_pass.joined,
            tree: &old_build.tree,
            dirty: &dirty,
        };
        let (build, pass) = grafted(store, members, Some(&memo));
        let (scratch, reference) = grafted(store, members, None);
        assert_eq!(build, scratch);
        assert_eq!(pass.report, reference.report);
        assert_eq!(pass.support, reference.support);
        assert_eq!(pass.targets, reference.targets);
        assert_eq!(pass.joined, reference.joined);
        assert_eq!(
            pass.walks_replayed + pass.walks_recomputed,
            reference.walks_recomputed,
            "the same walks, however their targets were found"
        );
        (build, pass)
    }

    /// Peers on the diagonal, `positions[id]` steps of (10, 10) from the
    /// origin: peers at consecutive positions are overlay neighbours,
    /// no others, so a walk runs along the line.
    fn line(positions: &[i32]) -> Vec<Point> {
        positions
            .iter()
            .map(|&at| Point::new(vec![10.0 * f64::from(at), 10.0 * f64::from(at)]).unwrap())
            .collect()
    }

    /// The target recorded for support node `p`.
    fn target_of(pass: &GraftPass, p: usize) -> usize {
        pass.targets[pass.support.binary_search(&p).expect("a support node")] as usize
    }

    /// Peers 0..=9 along the line, and member 10 just off it next to
    /// position 5: adjacent to positions 4, 5 and 6.
    fn line_with_a_member_beside_it() -> TopologyStore {
        let mut points = line(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        points.push(Point::new(vec![52.0, 48.0]).unwrap());
        store_from(points)
    }

    #[test]
    fn replay_a_new_members_path_becomes_a_later_members_target() {
        let store = line_with_a_member_beside_it();
        let old = grafted(&store, &[0, 10], None);
        assert_eq!(old.1.support, vec![1, 2, 3, 4, 10]);
        assert_eq!(target_of(&old.1, 10), 0, "the root is all there is");
        // Member 9 subscribes at the far end and walks first (smaller
        // id): its path 9→8→…→0 passes member 10, whose recorded target
        // still stands but is no longer the nearest on-tree node.
        let (build, pass) = replayed(&store, &[0, 9, 10], &old, &[]);
        assert_eq!(target_of(&pass, 10), 5, "a relay of the new path");
        assert_eq!(build.tree.parent(10), Some(5));
        assert_eq!(target_of(&pass, 4), 0, "walked by 9 now, still towards 0");
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (0, 2));
    }

    #[test]
    fn replay_an_unsubscribed_members_path_no_longer_carries_later_walks() {
        let store = line_with_a_member_beside_it();
        let old = grafted(&store, &[0, 9, 10], None);
        assert_eq!(target_of(&old.1, 10), 5);
        // Member 9 unsubscribes: relay 5 is off the tree when member 10
        // walks, so its recorded target cannot be taken.
        let (build, pass) = replayed(&store, &[0, 10], &old, &[]);
        assert_eq!(target_of(&pass, 10), 0);
        assert_eq!(build.tree.parent(10), Some(4));
        assert_eq!(build.relays, vec![1, 2, 3, 4]);
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (0, 1));
        // With nothing changed, every target is the recorded one.
        let (_, same) = replayed(&store, &[0, 9, 10], &old, &[]);
        assert_eq!((same.walks_replayed, same.walks_recomputed), (2, 0));
    }

    #[test]
    fn replay_a_member_that_was_walked_through_leads_its_own_walk() {
        // Ids in walking order: member 1 sits at the far end (position
        // 9) and walks first, through member 6 at position 5.
        let store = store_from(line(&[0, 9, 1, 2, 3, 4, 5, 6, 7, 8]));
        let old = grafted(&store, &[0, 1, 6], None);
        assert_eq!(old.1.report.grafted, 1, "member 6 was on member 1's path");
        let at = old.1.support.binary_search(&6).unwrap();
        assert_eq!(old.1.joined[at], 1);
        // Member 1 unsubscribes: member 6 recorded no target of its own.
        let (build, pass) = replayed(&store, &[0, 6], &old, &[]);
        assert_eq!(pass.report.grafted, 1);
        assert_eq!(pass.joined[pass.support.binary_search(&6).unwrap()], 6);
        assert_eq!(build.tree.parent(6), Some(5), "position 4");
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (0, 1));
    }

    #[test]
    fn replay_routes_around_a_relay_that_departed_mid_path() {
        // The line 0..=5 plus a detour peer beside position 2.
        let mut points = line(&[0, 1, 2, 3, 4, 5]);
        points.push(Point::new(vec![21.0, 19.0]).unwrap());
        let mut store = store_from(points);
        let old = grafted(&store, &[0, 5], None);
        assert_eq!(old.0.relays, vec![1, 2, 3, 4]);
        store.remove(geocast_overlay::PeerId(2));
        let dirty = store.delta_log().newest().unwrap().dirty.clone();
        assert!(dirty.contains(&3), "the departure rewires its neighbours");
        let (build, pass) = replayed(&store, &[0, 5], &old, &dirty);
        assert_eq!(build.relays, vec![1, 3, 4, 6]);
        assert_eq!(build.tree.parent(4), Some(3), "a clean node's recorded hop");
        assert_eq!(
            build.tree.parent(3),
            Some(6),
            "the dirty node's hop, re-taken"
        );
        assert_eq!(target_of(&pass, 6), 0);
        assert_eq!(
            (pass.walks_replayed, pass.walks_recomputed),
            (1, 0),
            "the root is still the target"
        );
    }

    #[test]
    fn replay_retakes_the_hop_of_a_dirty_node() {
        let mut store = store_from(line(&[0, 1, 2, 3, 4]));
        let old = grafted(&store, &[0, 4], None);
        // A joiner strictly closer to the root than node 4's recorded
        // hop (position 3 is 60 away in L1, the joiner 59).
        let joiner = store.insert(Point::new(vec![31.0, 28.0]).unwrap()).index();
        let dirty = store.delta_log().newest().unwrap().dirty.clone();
        assert!(dirty.contains(&4));
        let (build, pass) = replayed(&store, &[0, 4], &old, &dirty);
        assert_eq!(build.tree.parent(4), Some(joiner));
        assert_eq!(target_of(&pass, joiner), 0);
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (1, 0));
    }

    #[test]
    fn replay_stops_deciding_targets_once_fresh_outgrows_its_bound() {
        // Member `far` sits `reach` positions up the line and walks
        // first; member `near` sits two positions down it, nearest to
        // the root whatever attaches up there.
        let build = |reach: i32| {
            let mut positions = vec![0, reach];
            positions.extend(1..reach);
            positions.extend([-1, -2]);
            let near = positions.len() - 1;
            let store = store_from(line(&positions));
            let old = grafted(&store, &[0, near], None);
            assert_eq!(target_of(&old.1, near), 0);
            let (_, pass) = replayed(&store, &[0, 1, near], &old, &[]);
            assert_eq!(target_of(&pass, near), 0);
            (pass.walks_replayed, pass.walks_recomputed)
        };
        let within = i32::try_from(MAX_FRESH).unwrap();
        assert_eq!(
            build(within),
            (1, 1),
            "the far member's path is all fresh, and none of it beats the root"
        );
        assert_eq!(
            build(within + 2),
            (0, 2),
            "past the bound the target is searched for"
        );
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
        let of = Consulted {
            node: 4,
            target: 0,
            joined: 4,
        };
        assert!(flood_to_tree(&store, &on_tree, &mut walk, of, &mut report));
        assert_eq!(walk.path, vec![4, 3, 2, 1, 0]);
        assert_eq!(report.flood_messages, 4, "one message per discovered peer");
        let consulted: Vec<usize> = walk.consulted.iter().map(|c| c.node).collect();
        assert_eq!(
            consulted,
            vec![4, 3, 2, 1],
            "the terminal's row is not read"
        );
        // Nothing on the tree is reachable: the whole component is read.
        let mut walk = Walk::default();
        walk.path.push(4);
        let nowhere = PeerBits::from_peers(store.len(), std::iter::empty());
        assert!(!flood_to_tree(&store, &nowhere, &mut walk, of, &mut report));
        assert_eq!(walk.consulted.len(), 5);
        assert_eq!(walk.path, vec![4]);
    }
}
