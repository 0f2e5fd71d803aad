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
//!    minimum over the on-tree set: a scan of the on-tree nodes for the
//!    first few searches of a pass, and for a pass that keeps searching
//!    a grid that holds only the on-tree nodes and grows as paths attach
//!    (`OnTreeIndex`), so a query costs the few cells around the member
//!    whatever the population around the tree is. On empty-rectangle
//!    equilibria the walk always delivers, so tiers 2–3 never engage
//!    there.
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
//! set is returned as the graft's **support**. For a pass that never
//! left tier 1 each support node's row was read for exactly one
//! decision — the greedy hop towards its walk's target, which became its
//! tree parent — and the pass also returns its walks as a `WalkLog`:
//! per walk, in pass order, the stranded member, its target and its
//! path, with the walk of each support node next to the support set.
//! The incremental engine keeps a group's build across a churn delta
//! exactly when every dirtied support node still takes the same hop (the
//! repair certificate of [`crate::groups`], where the induction is
//! written out), and re-grafts otherwise — which keeps the maintained
//! tree byte-identical to a from-scratch rebuild (property-tested in
//! `tests/prop_groups.rs`).
//!
//! A re-graft costs the walks that changed, not the group. The same
//! pass, handed the previous build's log as a `GraftMemo`, takes a
//! walk's target from the log whenever the logged target is still on
//! the tree and nothing the old pass did not have there is nearer. It
//! then copies the walk's logged path whole when no node of it is dirty,
//! none is on the tree yet and its logged terminal is: one bit test per
//! node. A walk that fails a check follows its logged path up to where
//! it diverges and steps greedily from there, and a walk whose target
//! was searched for steps greedily throughout. The pass returns exactly
//! what it returns without a memo; `GraftMemo` carries the argument.
//!
//! Nor does a re-graft look at the walks its change cannot reach. The
//! old pass's on-tree set and the new one start equal up to what the §2
//! edit changed, and a walk copied whole puts the same nodes on both, so
//! a logged walk can only differ where the change reaches it: its
//! member's stranding changed, a node of its path is dirty, its target
//! or terminal left the tree, a node of its path joined the tree before
//! its turn, or a fresh node beats its target (`GraftMemo` states the
//! rules). The pass finds those walks from the change — the §2 part's
//! stranding change, the support index, an index of the walks by their
//! ends — and visits them in ascending member order; every other walk
//! is carried over from the log as part of a run, unvisited.
//!
//! Nor does a re-graft rebuild the tree. The pass grafts onto the §2
//! construction's tree in the same `MulticastTree::edited` that makes
//! it; when that edit starts from the group's previous tree with its
//! grafts kept, a walk copied whole is on it already. Then only the
//! nodes of the logged walks the pass did not copy are dropped and only
//! the paths it stepped or searched are added, and one merge of those
//! with the previous support set gives the new support, relays and walk
//! keys. A support node is keyed by the member whose walk attached it,
//! which names the same walk in every pass.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;

use geocast_geom::{Interval, Metric, MetricKind, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, greedy_step_on_store};
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};

use crate::bits::PeerBits;
use crate::builder::{BuildResult, Zones};
use crate::member_tree::{Section2, Stranded};
use crate::tree::{MulticastTree, TreeEdit};

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

/// Grafts every stranded member of `build`, a §2 construction (whose
/// zones name its tree's nodes), into its tree via relay paths over
/// `store`'s full overlay. Mutates `build` in place — attaching relay
/// chains, filling [`BuildResult::relays`], and shrinking
/// [`BuildResult::stranded`] to the provably unreachable members — and
/// returns the report plus the **support set**: every peer whose
/// adjacency row the discovery consulted, sorted.
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
    let stranded = std::mem::take(&mut build.stranded);
    let section2 = Section2 {
        root: build.tree.root(),
        len: build.tree.len(),
        base: Some(&build.tree),
        edit: TreeEdit::default(),
        grafts: false,
        zones: std::mem::take(&mut build.zones),
        // A path node off the §2 tree is a member exactly when it is
        // stranded.
        members: PeerBits::from_peers(store.len(), &stranded),
        stranded: Stranded::All(stranded),
    };
    let (grafted, pass) = graft_pass(store, section2, metric, None);
    *build = grafted;
    (pass.report, pass.support)
}

/// A peer id, or a walk index (walks are never more than peers), in the
/// compact form the log and the certificate keep.
fn id(p: usize) -> u32 {
    u32::try_from(p).expect("peer ids fit u32")
}

/// The walks of one graft pass in pass order, which is ascending
/// stranded member: each with the on-tree node it headed for and its
/// path `[member, …relays…, terminal]` as one contiguous run of
/// `nodes`. Every node of a path but the terminal joined the tree under
/// the node after it, so the log holds the pass's links; for a
/// greedy-only pass it also holds every row the pass read and the one
/// decision each row was read for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WalkLog {
    walks: Vec<LoggedWalk>,
    nodes: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoggedWalk {
    member: u32,
    target: u32,
    /// One past the walk's last node in [`WalkLog::nodes`].
    end: u32,
}

impl WalkLog {
    fn push(&mut self, member: usize, target: usize, path: &[usize]) {
        self.nodes.extend(path.iter().map(|&p| id(p)));
        self.walks.push(LoggedWalk {
            member: id(member),
            target: id(target),
            end: id(self.nodes.len()),
        });
    }

    /// Appends walks `walks` of `from`, paths and all, as one run.
    fn extend_from(&mut self, from: &WalkLog, walks: Range<usize>) {
        let Some(last) = walks.end.checked_sub(1) else {
            return;
        };
        let start = from.start(walks.start);
        let base = id(self.nodes.len());
        self.nodes
            .extend_from_slice(&from.nodes[start..from.walks[last].end as usize]);
        let start = id(start);
        self.walks
            .extend(from.walks[walks].iter().map(|walk| LoggedWalk {
                end: walk.end - start + base,
                ..*walk
            }));
    }

    fn len(&self) -> usize {
        self.walks.len()
    }

    /// The stranded member walk `w` started from.
    fn member(&self, w: usize) -> usize {
        self.walks[w].member as usize
    }

    /// The on-tree node walk `w` headed for.
    fn target(&self, w: usize) -> usize {
        self.walks[w].target as usize
    }

    /// The walk of stranded member `m`, if the log holds one.
    fn walk(&self, m: usize) -> Option<usize> {
        (self.walks)
            .binary_search_by_key(&id(m), |walk| walk.member)
            .ok()
    }

    /// The on-tree node the walk of stranded member `m` headed for.
    ///
    /// # Panics
    ///
    /// Panics if the log holds no walk of `m`.
    pub(crate) fn target_of(&self, m: usize) -> usize {
        self.target(self.walk(m).expect("a logged walk's member"))
    }

    /// Where walk `w`'s path starts in `nodes`.
    fn start(&self, w: usize) -> usize {
        w.checked_sub(1).map_or(0, |v| self.walks[v].end as usize)
    }

    /// Walk `w`'s path, `[member, …relays…, terminal]`.
    fn path(&self, w: usize) -> &[u32] {
        &self.nodes[self.start(w)..self.walks[w].end as usize]
    }

    /// Walk `w`'s ends as entries of the index of walks by end: `(node,
    /// member)` for its target and for its terminal, once when they are
    /// the same node.
    fn ends(&self, w: usize) -> impl Iterator<Item = (u32, u32)> {
        let walk = self.walks[w];
        let terminal = self.nodes[walk.end as usize - 1];
        let (a, b) = (walk.target.min(terminal), walk.target.max(terminal));
        std::iter::once((a, walk.member)).chain((a != b).then_some((b, walk.member)))
    }

    /// The places in `nodes` of every node that walks `from..` attached
    /// (all but the terminals), walk by walk.
    fn attached(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        (from..self.len()).flat_map(|w| self.start(w)..self.walks[w].end as usize - 1)
    }
}

/// What one graft pass returns besides the grafted build.
#[derive(Default)]
pub(crate) struct GraftPass {
    pub report: GraftReport,
    /// Every peer whose adjacency row the pass consulted, sorted.
    pub support: Vec<usize>,
    /// Parallel to `support`: the stranded member whose walk of `log`
    /// attached each support node — a key that names the same walk in
    /// the next pass, wherever it falls in that pass's log. Empty, like
    /// `log` and `ends`, unless the pass was
    /// [`GraftReport::greedy_only`] (a fallback tier reads rows for other
    /// decisions than a hop towards one target).
    pub walk_of: Vec<u32>,
    pub log: WalkLog,
    /// The walks of `log` by their ends: `(node, member)` for each
    /// walk's target and terminal, sorted — the walks a node that leaves
    /// the tree can change in the next pass.
    pub ends: Vec<(u32, u32)>,
    /// The support nodes that left the memo's support set and those that
    /// entered it, both sorted, when the pass edited a tree that kept the
    /// memo's grafts and stayed greedy-only; `None` leaves the comparison
    /// to the caller.
    pub support_change: Option<(Vec<usize>, Vec<usize>)>,
    /// Tree nodes the build's edit touched ([`MulticastTree::edited`]);
    /// every node when the tree was built up from its root.
    pub touched: usize,
    /// Walks whose target was the memo's logged one.
    pub walks_replayed: u64,
    /// Walks whose target was not the memo's logged one: searched for
    /// over the on-tree set, or a node fresh on the tree that beats it.
    pub walks_recomputed: u64,
    /// Walks copied whole from the memo's log: some of `walks_replayed`.
    pub walks_spliced: u64,
    /// Walks the pass stepped through, deciding their target: the rest
    /// of `walks_replayed` and `walks_recomputed` were carried over from
    /// the memo's log whole, unvisited.
    pub walks_examined: u64,
    /// The members of those walks, in pass order.
    #[cfg(test)]
    pub examined: Vec<usize>,
}

/// The previous greedy-only pass over the same group, in the form the
/// next pass replays it. A pass given a memo returns exactly what it
/// returns without one; the memo only tells it which answers it need not
/// search or step for:
///
/// * **A target.** The target of stranded member `s` is the
///   `(distance, index)` minimum over the nodes on the tree when the
///   pass reaches `s`. Split that set into the nodes the old pass also
///   had on its tree at that point and the rest (`fresh`). If the log
///   holds a walk of `s`, its target was the minimum over the whole old
///   set, so once it is seen to be on the tree now it is the minimum
///   over the shared part — and the new target is the better of it and
///   the best `fresh` node.
/// * **A walk.** A greedy hop is a function of one adjacency row and one
///   target point, and a walk ends at the first on-tree node it meets.
///   Let `s`'s target be the logged one. A node of the logged path that
///   is not `dirty` has the row it had when its hop was last taken or
///   re-checked, so it takes the hop it took: to the next node of the
///   path. So the walk is the logged path up to the first node that is
///   dirty, that is on the tree now, or that is the logged terminal —
///   and it is the logged path, whole, exactly when that node is the
///   terminal and the terminal is on the tree.
///
/// **Which walks a pass visits.** A pass given a memo edits a tree that
/// keeps the memo's grafts, so it does not step through the log: a
/// logged walk is copied whole, unvisited, unless the change reaches it. Both sets
/// start equal — the old pass's tree and the new one, before any walk,
/// are the two §2 trees — and a walk copied whole puts the same nodes on
/// both, so they differ only by what the §2 edit changed and by the
/// walks the pass visited. A logged walk of `s` can therefore be other
/// than the one above only if
///
/// 1. `s` became or stopped being stranded (the §2 construction names
///    these members), or is on the tree before its turn — which rule 4
///    finds, `s` being a support node of its own walk;
/// 2. a node of its path is `dirty` (its support entry names the walk);
/// 3. its target or terminal left the tree: a §2 node the edit dropped,
///    or a node of a visited walk's logged path that its new walk did
///    not take again — the walks by end (`ends`) name every walk such a
///    node can reach;
/// 4. a node of its path joined the tree before its turn: a `fresh`
///    node, from the §2 edit or from a walk visited earlier in the same
///    pass, that is a support node of the walk;
/// 5. a `fresh` node beats its target, which is tested for every walk
///    while `fresh` is non-empty, and every walk is visited once `fresh`
///    outgrows its bound.
///
/// A stranded member without a logged walk of its own — one that became
/// stranded, or one an old walk ran through that is off the tree at its
/// turn (rule 3 names it with the node) — is visited too. Every rule
/// names a later member, so one ascending pass over the memo's log and
/// the members named as it goes visits all of them; the log's other
/// walks, their support entries, their links and their entries by end
/// are carried over as runs.
pub(crate) struct GraftMemo<'a> {
    /// The old pass's support set, sorted; `walk_of` is parallel to it.
    pub support: &'a [usize],
    /// The stranded member whose walk of `log` attached each support
    /// node.
    pub walk_of: &'a [u32],
    pub log: &'a WalkLog,
    /// The walks of `log` by their ends (`GraftPass::ends`).
    pub ends: &'a [(u32, u32)],
    /// The old grafted tree.
    pub tree: &'a MulticastTree,
    /// Every old support node whose adjacency row may have changed
    /// since its recorded hop was last known to stand, sorted.
    pub dirty: &'a [usize],
}

/// Past this many `fresh` nodes a pass stops replaying targets: each
/// replayed target costs one distance per fresh node, a searched one a
/// scan of the on-tree nodes or a few grid cells.
const MAX_FRESH: usize = 32;

/// How the running pass takes the target of a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// The memo's logged target.
    Logged(usize),
    /// A fresh node that beats the logged target: the nearest on-tree
    /// node, since no node the old pass had on its tree does.
    Fresh(usize),
    /// Nothing the memo decides: the on-tree set is searched.
    Search,
}

/// A memo plus what the running pass has put on its tree that the old
/// pass did not have there at the same point.
struct Replay<'a> {
    memo: &'a GraftMemo<'a>,
    /// `memo.dirty`, one bit per peer.
    dirty: PeerBits,
    fresh: Vec<usize>,
    /// The members whose walks the pass must visit that it has not
    /// reached yet; it carries the memo's other walks over.
    pending: BinaryHeap<Reverse<usize>>,
}

impl<'a> Replay<'a> {
    fn new(memo: &'a GraftMemo<'a>, n: usize) -> Self {
        Replay {
            memo,
            dirty: PeerBits::from_peers(n, memo.dirty),
            fresh: Vec::new(),
            pending: BinaryHeap::new(),
        }
    }

    /// Notes that `p` is on the tree from now on — from the start
    /// (`after == None`, §2 nodes) or since the walk of stranded member
    /// `after`. It is fresh unless the old tree had it there too: a
    /// greedy-only pass attaches every node it consults, so the walks'
    /// share of the old tree is its support and the rest of it is what
    /// the old §2 construction reached. A fresh support node crosses the
    /// walk that attached it, which is to come: rule 4.
    fn note_on_tree(&mut self, p: usize, after: Option<usize>) {
        let crossed = match self.memo.support.binary_search(&p) {
            Ok(at) => {
                let walk = self.memo.walk_of[at] as usize;
                if after.is_some_and(|s| walk <= s) {
                    return;
                }
                Some(walk)
            }
            Err(_) if self.memo.tree.is_reached(p) => return,
            Err(_) => None,
        };
        if self.fresh.len() <= MAX_FRESH {
            self.fresh.push(p);
        }
        if let Some(walk) = crossed {
            self.pending.push(Reverse(walk));
        }
    }

    /// Notes that `p`, on the old tree since the walk of `after` (or
    /// from the start), is not on the new one now: rule 3. The walks it
    /// ended are to be visited, and so is `p` when it is a stranded
    /// member the old pass walked through.
    fn note_gone(&mut self, p: usize, after: Option<usize>, stranded: bool) {
        let ends = self.memo.ends;
        let from = ends.partition_point(|&(node, _)| node < id(p));
        let reached = ends[from..].iter().take_while(|&&(node, _)| node == id(p));
        for &(_, m) in reached {
            let m = m as usize;
            if after.is_none_or(|s| m > s) {
                self.pending.push(Reverse(m));
            }
        }
        if stranded && after.is_some_and(|s| p > s) {
            self.pending.push(Reverse(p));
        }
    }

    /// How stranded member `s`, whose logged walk is `w` if the log holds
    /// one, takes its target. The logged target stands when it is on the
    /// tree and no fresh node beats it (see [`Replay::beating`]).
    fn target(
        &self,
        peers: &[PeerInfo],
        metric: MetricKind,
        on_tree: &PeerBits,
        w: Option<usize>,
        s: usize,
    ) -> Target {
        let Some(w) = w.filter(|_| self.fresh.len() <= MAX_FRESH) else {
            return Target::Search;
        };
        let recorded = self.memo.log.target(w);
        if !on_tree.contains(recorded) {
            return Target::Search;
        }
        match self.beating(peers, metric, recorded, s) {
            Some(fresh) => Target::Fresh(fresh),
            None => Target::Logged(recorded),
        }
    }

    /// The fresh node nearest to `s` if it beats `recorded`, the logged
    /// target of `s`'s walk, which is on the tree: then it is the
    /// target. A stale fresh node — on the old tree by now too — never
    /// beats the logged target, the minimum over that tree.
    fn beating(
        &self,
        peers: &[PeerInfo],
        metric: MetricKind,
        recorded: usize,
        s: usize,
    ) -> Option<usize> {
        if self.fresh.is_empty() {
            return None;
        }
        let sp = peers[s].point();
        let logged = (metric.dist(peers[recorded].point(), sp), recorded);
        let best = (self.fresh.iter())
            .map(|&f| (metric.dist(peers[f].point(), sp), f))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
        (best < logged).then_some(best.1)
    }

    /// Walks logged walk `w`, whose target the pass has just taken, as
    /// far as the log decides it: appends each hop to `path`, which
    /// holds the walk's member.
    fn follow(
        &self,
        w: usize,
        on_tree: &PeerBits,
        path: &mut Vec<usize>,
        report: &mut GraftReport,
    ) -> Followed {
        let logged = self.memo.log.path(w);
        for (at, hop) in logged.windows(2).enumerate() {
            if self.dirty.contains(hop[0] as usize) {
                return Followed::Diverged;
            }
            let next = hop[1] as usize;
            path.push(next);
            report.route_hops += 1;
            if on_tree.contains(next) {
                return if at + 2 == logged.len() {
                    Followed::Whole
                } else {
                    Followed::Sooner
                };
            }
        }
        // The logged terminal has left the tree: its own row, which the
        // old pass never read, decides the next hop.
        Followed::Diverged
    }
}

/// How far a logged walk carried the running pass's walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Followed {
    /// To its logged terminal, on the tree: the logged walk, whole.
    Whole,
    /// To an earlier node of its path that has joined the tree since:
    /// the walk ends there.
    Sooner,
    /// To a node whose hop the log does not decide — a dirty one, or the
    /// logged terminal, now off the tree — or nowhere, for a walk the
    /// log does not hold: the walk steps on from there.
    Diverged,
}

/// The one graft pass: [`graft_stranded_members`] plus what the
/// incremental engine records about it, optionally replaying the
/// walks of the group's previous pass (see [`GraftMemo`]). It grafts in
/// the edit that makes `section2`'s tree. A memo comes exactly when that
/// edit starts from the previous tree with its grafts kept
/// ([`Section2::grafts`]): the pass then visits only the walks the
/// change reaches, and only what they changed is dropped and added.
/// Without one it walks every stranded member.
pub(crate) fn graft_pass(
    store: &TopologyStore,
    section2: Section2,
    metric: MetricKind,
    memo: Option<&GraftMemo>,
) -> (BuildResult, GraftPass) {
    let Section2 {
        root,
        len,
        base,
        mut edit,
        grafts,
        zones,
        members,
        stranded,
    } = section2;
    assert_eq!(store.len(), len, "store/tree size mismatch");
    debug_assert!(
        grafts == memo.is_some() && grafts == matches!(stranded, Stranded::Changed(_)),
        "a base keeps the grafts of the walks a memo replays, and only then is the stranding a change"
    );

    // The on-tree set while paths are being discovered, one bit per
    // peer, growing as paths are found. It starts as the §2 tree's
    // nodes, the peers holding a zone; the tree takes the log's links in
    // one edit at the end.
    let mut on_tree = PeerBits::from_peers(store.len(), std::iter::empty());
    for p in zones.peers() {
        on_tree.insert(p);
    }
    let (changed, stranded) = match stranded {
        Stranded::Changed(changed) => (Some(changed), Vec::new()),
        Stranded::All(stranded) => (None, stranded),
    };
    let mut pass = Pass {
        store,
        metric,
        zones: &zones,
        section2: on_tree.clone(),
        on_tree,
        replay: memo.map(|memo| Replay::new(memo, store.len())),
        // About the memo's walks again, as a rule.
        log: memo.map_or_else(WalkLog::default, |memo| WalkLog {
            walks: Vec::with_capacity(memo.log.walks.len() + 8),
            nodes: Vec::with_capacity(memo.log.nodes.len() + 32),
        }),
        added: Vec::new(),
        added_ends: Vec::new(),
        walk: Walk::default(),
        unreachable: Vec::new(),
        searches: 0,
        index: None,
        joining: &stranded,
        out: GraftPass::default(),
    };
    let refused = match (changed, memo) {
        (Some(changed), Some(memo)) => pass.replay_reached(memo, &edit, &members, changed),
        (None, None) => {
            for &s in &stranded {
                pass.visit(s, None);
            }
            Vec::new()
        }
        _ => unreachable!("a stranding change comes with a memo, and only it"),
    };
    let Pass {
        log,
        mut added,
        added_ends,
        walk,
        unreachable,
        out: mut pass,
        ..
    } = pass;

    // The grafts join the tree in one edit of the base, with the §2
    // construction's changes. A base that keeps the memo's grafts holds
    // every walk the pass did not refuse already, and loses the nodes of
    // the memo's walks it refused; any other base takes every walk. Each
    // added node is keyed by id, with its walk's member and its parent,
    // the node after it on its path.
    added.sort_unstable();
    let (kept, kept_walk_of, dropped) = match memo {
        Some(memo) => {
            let mut dropped: Vec<usize> = (refused.iter())
                .flat_map(|&w| {
                    let path = memo.log.path(w);
                    path[..path.len() - 1].iter().map(|&p| p as usize)
                })
                .collect();
            dropped.sort_unstable();
            (memo.support, memo.walk_of, dropped)
        }
        None => (&[][..], &[][..], Vec::new()),
    };
    let merged = Merged::of(kept, kept_walk_of, &dropped, &added);
    // A support node holds no zone, so it is a relay unless it is a
    // member.
    let mut relays = Vec::with_capacity(merged.support.len());
    relays.extend((merged.support.iter().copied()).filter(|&p| !members.contains(p)));
    pass.report.relays = relays.len();
    edit.links.extend(
        added
            .iter()
            .map(|&(node, _, up)| (node as usize, up as usize)),
    );
    if !dropped.is_empty() {
        edit.dropped.extend_from_slice(&dropped);
        edit.dropped.sort_unstable();
    }
    let (tree, touched) = match base {
        Some(base) => base.edited(len, edit),
        None => {
            let tree = MulticastTree::from_links(root, len, edit.links);
            let touched = tree.reached_count();
            (tree, touched)
        }
    };
    pass.touched = touched;

    if pass.report.greedy_only() {
        // Tier 1 reads the row of each node it attaches, once (a walk
        // stops at the first on-tree node, and everything it walked is
        // on the tree afterwards), and no other row.
        pass.ends = match memo {
            Some(memo) => {
                let mut gone: Vec<(u32, u32)> =
                    refused.iter().flat_map(|&w| memo.log.ends(w)).collect();
                gone.sort_unstable();
                let mut came = added_ends;
                came.sort_unstable();
                splice_sorted(memo.ends, &gone, &came)
            }
            None => {
                let mut ends: Vec<(u32, u32)> = (0..log.len()).flat_map(|w| log.ends(w)).collect();
                ends.sort_unstable();
                ends
            }
        };
        pass.support = merged.support;
        pass.walk_of = merged.walk_of;
        pass.log = log;
        if memo.is_some() {
            pass.support_change = Some((merged.retired, merged.entered));
        }
    } else {
        // The fallback tiers read rows off the final paths too, and may
        // read one twice.
        let mut consulted = walk.consulted;
        consulted.extend_from_slice(&merged.support);
        consulted.sort_unstable();
        consulted.dedup();
        pass.support = consulted;
    }
    let build = BuildResult {
        messages: zones.len() - 1,
        tree,
        stranded: unreachable,
        zones,
        relays,
    };
    // On every tier a path node's row was read by the walk that attached
    // it: the engine finds a group's relays among its support nodes.
    debug_assert!(
        build
            .relays
            .iter()
            .all(|r| pass.support.binary_search(r).is_ok()),
        "a relay outside the support set"
    );
    (build, pass)
}

/// One graft pass under way.
struct Pass<'a> {
    store: &'a TopologyStore,
    metric: MetricKind,
    /// The §2 construction's zones: their peers are its tree's nodes.
    zones: &'a Zones,
    on_tree: PeerBits,
    /// The §2 tree's nodes: `on_tree` before any walk.
    section2: PeerBits,
    replay: Option<Replay<'a>>,
    log: WalkLog,
    /// `(node, member, parent)` of every link the pass adds to its base.
    /// A walk copied whole adds none: the base keeps the memo's grafts.
    added: Vec<(u32, u32, u32)>,
    /// The entries by end of the walks whose links those are.
    added_ends: Vec<(u32, u32)>,
    walk: Walk,
    /// Stranded members with no overlay path to the tree, ascending.
    unreachable: Vec<usize>,
    /// Target searches so far, and the grid of the on-tree nodes once
    /// they are many, with the number of `log`'s walks it holds.
    searches: usize,
    index: Option<(OnTreeIndex<'a>, usize)>,
    /// The stranded members, when the pass is handed them all: the grid
    /// is sized for them to join it.
    joining: &'a [usize],
    out: GraftPass,
}

impl Pass<'_> {
    /// Walks stranded member `s` to the tree as the pass without a memo
    /// does, taking its target and as much of its path as the memo
    /// decides from `s`'s logged walk `w`, if the log holds one. Returns
    /// how far the logged walk carried it; `None` when no walk was made:
    /// `s` was on the tree already (an earlier graft path routed through
    /// it), or cannot reach it.
    fn visit(&mut self, s: usize, w: Option<usize>) -> Option<Followed> {
        if self.on_tree.contains(s) {
            return None;
        }
        let peers = self.store.peers();
        let decided = (self.replay.as_ref()).map_or(Target::Search, |r| {
            r.target(peers, self.metric, &self.on_tree, w, s)
        });
        self.out.walks_examined += 1;
        #[cfg(test)]
        self.out.examined.push(s);
        let target = match decided {
            Target::Logged(target) => {
                self.out.walks_replayed += 1;
                Some(target)
            }
            Target::Fresh(target) => {
                self.out.walks_recomputed += 1;
                Some(target)
            }
            Target::Search => {
                self.out.walks_recomputed += 1;
                self.nearest(s)
            }
        };
        let Some(target) = target else {
            self.out.report.unreachable += 1;
            self.unreachable.push(s);
            return None;
        };
        let walk = &mut self.walk;
        walk.path.clear();
        walk.path.push(s);
        let followed = match (decided, &self.replay, w) {
            (Target::Logged(_), Some(replay), Some(w)) => {
                replay.follow(w, &self.on_tree, &mut walk.path, &mut self.out.report)
            }
            _ => Followed::Diverged,
        };
        let found = match followed {
            Followed::Whole => {
                self.out.walks_spliced += 1;
                true
            }
            Followed::Sooner => true,
            Followed::Diverged => {
                let report = &mut self.out.report;
                discover_path(self.store, self.metric, &self.on_tree, target, walk, report)
            }
        };
        if !found {
            self.out.report.unreachable += 1;
            self.unreachable.push(s);
            return None;
        }
        // path[0] = s, path[last] on-tree; everything before it is new.
        let grafted = &walk.path[..walk.path.len() - 1];
        for &p in grafted {
            self.on_tree.insert(p);
        }
        if let (Followed::Diverged, Some(replay)) = (followed, &mut self.replay) {
            // A node of `s`'s logged path was on the old tree after `s`
            // too; only a stepped one can be fresh.
            for &p in grafted {
                replay.note_on_tree(p, Some(s));
            }
        }
        self.log.push(s, target, &walk.path);
        if followed != Followed::Whole {
            let member = id(s);
            (self.added).extend(
                walk.path
                    .windows(2)
                    .map(|hop| (id(hop[0]), member, id(hop[1]))),
            );
            self.added_ends.extend(self.log.ends(self.log.len() - 1));
        }
        self.out.report.grafted += 1;
        Some(followed)
    }

    /// Copies walks `walks` of `from`, none of which the change reaches,
    /// whole: their nodes join the tree, and the walks the log.
    fn carry(&mut self, from: &WalkLog, walks: Range<usize>) {
        if walks.is_empty() {
            return;
        }
        let nodes = from.start(walks.start)..from.walks[walks.end - 1].end as usize;
        if cfg!(debug_assertions) {
            let replay = self.replay.as_ref().expect("a memo to replay");
            for w in walks.clone() {
                let (attached, terminal) = from.path(w).split_at(from.path(w).len() - 1);
                let on_tree = &mut self.on_tree;
                assert!(
                    on_tree.contains(from.target(w))
                        && on_tree.contains(terminal[0] as usize)
                        && (attached.iter()).all(|&p| {
                            !on_tree.contains(p as usize) && !replay.dirty.contains(p as usize)
                        }),
                    "walk of {} carried whole, yet the change reaches it",
                    from.member(w)
                );
                for &p in attached {
                    on_tree.insert(p as usize);
                }
            }
        }
        for &p in &from.nodes[nodes.clone()] {
            self.on_tree.insert(p as usize);
        }
        let count = walks.len();
        self.out.report.grafted += count;
        self.out.report.route_hops += nodes.len() - count;
        self.out.walks_replayed += count as u64;
        self.out.walks_spliced += count as u64;
        self.log.extend_from(from, walks);
    }

    /// The pass over a base that keeps `memo`'s grafts: every walk the
    /// change reaches visited, in ascending member order, every other
    /// one carried whole (see [`GraftMemo`]). `edit` is the §2
    /// construction's, `changed` the members whose stranding it changed.
    /// Returns the memo's walks the pass refused, ascending.
    fn replay_reached(
        &mut self,
        memo: &GraftMemo,
        edit: &TreeEdit,
        members: &PeerBits,
        changed: Vec<usize>,
    ) -> Vec<usize> {
        let replay = self.replay.as_mut().expect("a memo to replay");
        // Rule 1: the members whose stranding changed.
        replay.pending.extend(changed.into_iter().map(Reverse));
        // Rule 2: walks through a dirty node.
        for &d in memo.dirty {
            if let Ok(at) = memo.support.binary_search(&d) {
                replay.pending.push(Reverse(memo.walk_of[at] as usize));
            }
        }
        // The §2 edit. A node it links is new on the §2 tree or relinked
        // on it: only a new one can be fresh (rules 4, 5). A node it
        // drops and does not link again has left the tree (rule 3); were
        // it a stranded member now, it would be among `changed`.
        for &(c, _) in &edit.links {
            replay.note_on_tree(c, None);
        }
        for &p in &edit.dropped {
            if !self.section2.contains(p) {
                replay.note_gone(p, None, false);
            }
        }

        let log = memo.log;
        let mut refused = Vec::new();
        let mut w = 0;
        loop {
            let replay = self.replay.as_ref().expect("a memo to replay");
            let bound = replay.pending.peek().map_or(usize::MAX, |&Reverse(m)| m);
            debug_assert!(
                w == 0 || log.member(w - 1) < bound,
                "every rule names a member the pass has yet to reach"
            );
            let from = w;
            if replay.fresh.is_empty() {
                w += log.walks[w..].partition_point(|walk| (walk.member as usize) < bound);
            } else {
                while w < log.len() && log.member(w) < bound && self.carries(w) {
                    w += 1;
                }
            }
            self.carry(log, from..w);
            let s = match (w < log.len()).then(|| log.member(w)) {
                Some(m) if m < bound => m,
                _ if bound == usize::MAX => break,
                _ => bound,
            };
            let replay = self.replay.as_mut().expect("a memo to replay");
            while replay.pending.peek() == Some(&Reverse(s)) {
                replay.pending.pop();
            }
            let at = (w < log.len() && log.member(w) == s).then(|| {
                w += 1;
                w - 1
            });
            let stranded = members.contains(s)
                && !self.section2.contains(s)
                && !self.store.is_departed(PeerId(s as u64));
            let followed = if stranded { self.visit(s, at) } else { None };
            let Some(at) = at.filter(|_| followed != Some(Followed::Whole)) else {
                continue;
            };
            refused.push(at);
            let path = log.path(at);
            let replay = self.replay.as_mut().expect("a memo to replay");
            for &p in &path[..path.len() - 1] {
                let p = p as usize;
                if !self.on_tree.contains(p) {
                    let stranded = members.contains(p) && !self.store.is_departed(PeerId(p as u64));
                    replay.note_gone(p, Some(s), stranded);
                }
            }
        }
        refused
    }

    /// `true` if logged walk `w`, which no other rule names, is copied
    /// whole: `fresh` is within its bound and none of it beats the
    /// walk's target (rule 5).
    fn carries(&self, w: usize) -> bool {
        let replay = self.replay.as_ref().expect("a memo to replay");
        let log = replay.memo.log;
        replay.fresh.len() <= MAX_FRESH
            && (replay.beating(
                self.store.peers(),
                self.metric,
                log.target(w),
                log.member(w),
            ))
            .is_none()
    }

    /// The target of stranded member `s`'s walk, searched for: the
    /// on-tree node nearest to it by `(distance, index)`. The first few
    /// searches of a pass scan the on-tree nodes; a pass that keeps
    /// searching — one that replays nothing, as a rule — builds a grid of
    /// them once ([`OnTreeIndex`]) and brings it up to date with the
    /// log's walks at each search after.
    fn nearest(&mut self, s: usize) -> Option<usize> {
        let peers = self.store.peers();
        self.searches += 1;
        if self.index.is_none() && self.searches <= SCANNED_SEARCHES {
            // A terminal is on the tree, so listed twice: no matter.
            let sp = peers[s].point();
            let nodes = (self.zones.peers()).chain(self.log.nodes.iter().map(|&p| p as usize));
            return nodes
                .map(|p| (self.metric.dist(peers[p].point(), sp), p))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, p)| p);
        }
        let (index, indexed) = self.index.get_or_insert_with(|| {
            let reached: Vec<usize> = self.zones.peers().collect();
            let index = OnTreeIndex::new(peers, self.metric, &reached, self.joining);
            (index, 0)
        });
        for at in self.log.attached(*indexed) {
            index.insert(self.log.nodes[at] as usize);
        }
        *indexed = self.log.len();
        index.nearest(s)
    }
}

/// Searches a pass makes by scanning its on-tree nodes before it builds
/// a grid of them: a scan costs a distance per node, the grid about as
/// much as this many scans, and a search in it a few cells.
const SCANNED_SEARCHES: usize = 8;

/// `old`, sorted, without the entries of `gone` (sorted, each in `old`)
/// and with those of `came` (sorted, none in what stays), merged: the
/// runs of `old` between two changes are copied whole.
fn splice_sorted<T: Ord + Copy>(old: &[T], gone: &[T], came: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(old.len() + came.len() - gone.len().min(old.len()));
    let (mut gone, mut came) = (gone.iter().peekable(), came.iter().peekable());
    let mut slot = 0;
    loop {
        let next = match (gone.peek(), came.peek()) {
            (Some(&&g), Some(&&c)) => Some(g.min(c)),
            (g, c) => g.or(c).copied().copied(),
        };
        let end = next.map_or(old.len(), |next| {
            slot + old[slot..].partition_point(|&e| e < next)
        });
        out.extend_from_slice(&old[slot..end]);
        slot = end;
        let Some(next) = next else {
            return out;
        };
        if gone.next_if(|&&g| g == next).is_some() {
            debug_assert!(old.get(slot) == Some(&next), "a gone entry is not there");
            slot += 1;
        }
        if let Some(&c) = came.next_if(|&&c| c == next) {
            out.push(c);
        }
    }
}

/// A pass's grafts merged with those its base tree keeps.
#[derive(Default)]
struct Merged {
    /// Every node on a graft path but the terminals, ascending, and,
    /// parallel, the member whose walk attached it.
    support: Vec<usize>,
    walk_of: Vec<u32>,
    /// The dropped nodes no walk attached again, and the added nodes
    /// that were not kept: what leaves the support set and what enters.
    retired: Vec<usize>,
    entered: Vec<usize>,
}

impl Merged {
    /// Merges `kept` — the grafts the base tree holds, ascending, each
    /// with the member of its walk in `kept_walk_of` — less `dropped`
    /// (sorted, each kept) with `added`, sorted by node: the runs of kept
    /// entries between two changes are copied whole.
    fn of(
        kept: &[usize],
        kept_walk_of: &[u32],
        dropped: &[usize],
        added: &[(u32, u32, u32)],
    ) -> Self {
        let capacity = kept.len() + added.len();
        let mut merged = Merged {
            support: Vec::with_capacity(capacity),
            walk_of: Vec::with_capacity(capacity),
            ..Merged::default()
        };
        let mut gone = dropped.iter().copied().peekable();
        let mut new = (added.iter())
            .map(|&(node, member, _)| (node as usize, member))
            .peekable();
        let mut slot = 0;
        loop {
            let next = match (gone.peek(), new.peek()) {
                (Some(&g), Some(&(n, _))) => Some(g.min(n)),
                (g, n) => g.copied().or(n.map(|&(n, _)| n)),
            };
            let end = next.map_or(kept.len(), |next| {
                slot + kept[slot..].partition_point(|&k| k < next)
            });
            merged.support.extend_from_slice(&kept[slot..end]);
            merged.walk_of.extend_from_slice(&kept_walk_of[slot..end]);
            slot = end;
            let Some(next) = next else {
                return merged;
            };
            let was = gone.next_if_eq(&next).is_some();
            if was {
                debug_assert!(kept.get(slot) == Some(&next), "a dropped node is not kept");
                slot += 1;
            } else {
                debug_assert!(kept.get(slot) != Some(&next), "a kept graft attached again");
            }
            match new.next_if(|&(n, _)| n == next) {
                Some((node, member)) => {
                    if !was {
                        merged.entered.push(node);
                    }
                    merged.support.push(node);
                    merged.walk_of.push(member);
                }
                None => merged.retired.push(next),
            }
        }
    }
}

/// Scratch and output of the discoveries of one graft pass.
#[derive(Default)]
struct Walk {
    /// The walk under way: `[s, …relays…, on-tree node]` once it is done.
    path: Vec<usize>,
    /// Rows the fallback tiers read, over the whole pass (tier 1 reads
    /// only the rows of the path it attaches).
    consulted: Vec<usize>,
    nbuf: Vec<usize>,
}

impl Walk {
    /// Ends a walk that reached the tree after a fallback: the row of
    /// every node before the terminal was read, loops included, and then
    /// the loops are spliced out.
    fn settle(&mut self) {
        let read = &self.path[..self.path.len() - 1];
        self.consulted.extend_from_slice(read);
        compress_loops(&mut self.path);
    }
}

/// Continues the walk in `walk.path` — stranded member `path[0]` and the
/// hops it has taken so far, none of them on the tree — on to the tree,
/// heading for on-tree node `target`: `[s, …relays…, on-tree node]`,
/// loop-free. `false` when `s`'s overlay component does not contain the
/// tree.
fn discover_path(
    store: &TopologyStore,
    metric: MetricKind,
    on_tree: &PeerBits,
    target: usize,
    walk: &mut Walk,
    report: &mut GraftReport,
) -> bool {
    let tp = store.peers()[target].point();
    let mut cur = *walk.path.last().expect("a walk starts at its member");

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
                    walk.settle();
                }
                return true;
            }
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
                walk.settle();
                return true;
            }
        }
        cur = route.last();
        if !route.delivered() {
            // Both greedy tiers are stuck; flood from here.
            break;
        }
    }

    // Tier 3: flood discovery (deterministic BFS) from the last stall,
    // every node walked so far having been read.
    report.flood_fallbacks += 1;
    walk.consulted.extend_from_slice(&walk.path);
    let found = flood_to_tree(store, on_tree, walk, report);
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
        walk.consulted.push(u);
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
    use crate::member_tree::{member_tree, MemberRows, Recorded};
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
        let (again, pass, _) = grafted(&store, &[0, 4], None);
        assert_eq!(pass.support, support);
        assert_eq!(
            pass.walk_of,
            vec![4, 4, 4, 4],
            "member 4's walk attached them all"
        );
        assert_eq!(pass.log.len(), 1);
        assert_eq!((pass.log.member(0), pass.log.target(0)), (4, 0));
        assert_eq!(pass.log.target_of(4), 0);
        assert_eq!(pass.log.path(0), &[4, 3, 2, 1, 0]);
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (0, 1));
        assert_eq!(
            pass.touched, 5,
            "a tree built from its root touches every node"
        );
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

    /// A group build, its graft pass and the member rows its §2 part
    /// read.
    type Built = (BuildResult, GraftPass, MemberRows);

    /// One group build the way `crate::groups` makes it — the §2 member
    /// tree rooted at peer 0, then the graft pass — from scratch, or
    /// replaying `old`, a build of the same group over an earlier state
    /// of the store: its §2 record with every peer touched, and the
    /// memo of its walks, whose grafts its tree keeps for the pass.
    fn grafted(
        store: &TopologyStore,
        members: &[usize],
        old: Option<(&Built, &GraftMemo)>,
    ) -> Built {
        let members: BTreeSet<usize> = members.iter().copied().collect();
        let touched: Vec<usize> = (0..store.len()).collect();
        let recorded = old.map(|(built, _)| Recorded {
            tree: &built.0.tree,
            zones: built.0.zones.clone(),
            rows: built.2.clone(),
            touched: &touched,
            grafts_stay: true,
            support: &built.1.support,
            relays: &built.0.relays,
        });
        let section2 = member_tree(
            store,
            0,
            &members,
            &OrthantRectPartitioner::median(),
            recorded,
        );
        let memo = old
            .map(|(_, memo)| memo)
            .filter(|_| section2.section2.grafts);
        let (build, pass) = graft_pass(store, section2.section2, MetricKind::L1, memo);
        (build, pass, section2.rows)
    }

    /// Builds `members` over `store` replaying `old` — a build of the
    /// same group over an earlier state of the store, `dirty` being the
    /// peers whose rows changed since — and from scratch: same tree,
    /// same relays, same support, same recorded decisions, same report.
    /// Returns the replayed one.
    fn replayed(
        store: &TopologyStore,
        members: &[usize],
        old: &Built,
        dirty: &[usize],
    ) -> (BuildResult, GraftPass) {
        let (old_build, old_pass, _) = old;
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
            walk_of: &old_pass.walk_of,
            log: &old_pass.log,
            ends: &old_pass.ends,
            tree: &old_build.tree,
            dirty: &dirty,
        };
        let (build, pass, _) = grafted(store, members, Some((old, &memo)));
        let (scratch, reference, _) = grafted(store, members, None);
        assert_eq!(build, scratch);
        // What the edit says left and entered the support set is the
        // difference of the two sets.
        if let Some((retired, entered)) = &pass.support_change {
            let before: BTreeSet<usize> = old_pass.support.iter().copied().collect();
            let after: BTreeSet<usize> = pass.support.iter().copied().collect();
            assert!(retired
                .iter()
                .copied()
                .eq(before.difference(&after).copied()));
            assert!(entered
                .iter()
                .copied()
                .eq(after.difference(&before).copied()));
        }
        assert_eq!(pass.report, reference.report);
        assert_eq!(pass.support, reference.support);
        assert_eq!(pass.walk_of, reference.walk_of);
        assert_eq!(pass.log, reference.log);
        assert_eq!(
            pass.walks_replayed + pass.walks_recomputed,
            reference.walks_recomputed,
            "the same walks, however their targets were found"
        );
        assert!(pass.walks_spliced <= pass.walks_replayed);
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

    /// The stranded member whose walk attached support node `p`.
    fn joined(pass: &GraftPass, p: usize) -> usize {
        pass.walk_of[pass.support.binary_search(&p).expect("a support node")] as usize
    }

    /// The target recorded for support node `p`.
    fn target_of(pass: &GraftPass, p: usize) -> usize {
        pass.log.target_of(joined(pass, p))
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
        // With nothing changed, every walk is the logged one, whole, and
        // the tree is not touched.
        let (_, same) = replayed(&store, &[0, 9, 10], &old, &[]);
        assert_eq!(
            (
                same.walks_replayed,
                same.walks_recomputed,
                same.walks_spliced
            ),
            (2, 0, 2)
        );
        assert_eq!(same.touched, 0);
        assert_eq!(same.support_change, Some((Vec::new(), Vec::new())));
    }

    #[test]
    fn replay_a_member_that_was_walked_through_leads_its_own_walk() {
        // Ids in walking order: member 1 sits at the far end (position
        // 9) and walks first, through member 6 at position 5.
        let store = store_from(line(&[0, 9, 1, 2, 3, 4, 5, 6, 7, 8]));
        let old = grafted(&store, &[0, 1, 6], None);
        assert_eq!(old.1.report.grafted, 1, "member 6 was on member 1's path");
        assert_eq!(joined(&old.1, 6), 1);
        // Member 1 unsubscribes: member 6 recorded no target of its own.
        let (build, pass) = replayed(&store, &[0, 6], &old, &[]);
        assert_eq!(pass.report.grafted, 1);
        assert_eq!(joined(&pass, 6), 6);
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
            (
                pass.walks_replayed,
                pass.walks_recomputed,
                pass.walks_spliced
            ),
            (1, 0, 0),
            "the root is still the target, and the path runs through dirty nodes"
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
        assert_eq!(
            (
                pass.walks_replayed,
                pass.walks_recomputed,
                pass.walks_spliced
            ),
            (1, 0, 0)
        );
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
            (
                pass.walks_replayed,
                pass.walks_recomputed,
                pass.walks_spliced,
            )
        };
        let within = i32::try_from(MAX_FRESH).unwrap();
        assert_eq!(
            build(within),
            (1, 1, 1),
            "the far member's path is all fresh, and none of it beats the root"
        );
        assert_eq!(
            build(within + 2),
            (0, 2, 0),
            "past the bound the target is searched for, and the walk stepped"
        );
    }

    /// Seven peers where a walk curves away from its member. From member
    /// 2 at the origin the greedy hop towards the root at (10, 10) is
    /// peer 3 at (15, 6): 21 from the member, where the root is 20, so a
    /// path through peer 3 does not make it member 2's target. Member 1
    /// at (25, 2) walks 1→3→0, and member 6 at (6, 30) walks 6→4→0
    /// through peer 4 at (2, 8), away from both.
    fn a_walk_that_curves_away() -> TopologyStore {
        let coords = [
            (10.0, 10.0),
            (25.0, 2.0),
            (0.0, 0.0),
            (15.0, 6.0),
            (2.0, 8.0),
            (8.0, 20.0),
            (6.0, 30.0),
        ];
        store_from(
            coords
                .iter()
                .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
                .collect(),
        )
    }

    /// `(replayed, searched, spliced)` walks of a pass.
    fn walks(pass: &GraftPass) -> (u64, u64, u64) {
        (
            pass.walks_replayed,
            pass.walks_recomputed,
            pass.walks_spliced,
        )
    }

    #[test]
    fn splice_refuses_a_walk_through_a_dirty_node() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        assert_eq!(old.1.log.path(0), &[2, 3, 0]);
        assert_eq!(old.1.log.path(1), &[6, 4, 0]);
        let (_, pass) = replayed(&store, &[0, 2, 6], &old, &[]);
        assert_eq!(walks(&pass), (2, 0, 2), "nothing changed");
        // Peer 4's row may have changed (it has not): member 6's walk
        // steps on from there, member 2's is copied whole.
        let (_, pass) = replayed(&store, &[0, 2, 6], &old, &[4]);
        assert_eq!(walks(&pass), (2, 0, 1));
        assert_eq!(pass.report.route_hops, 4);
    }

    #[test]
    fn splice_refuses_a_walk_an_earlier_path_now_crosses() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        // Member 1 subscribes and walks first. Peer 3 is on the tree
        // when member 2's turn comes, yet the root stays its target: the
        // logged walk stops at peer 3, one hop short of its terminal.
        let (build, pass) = replayed(&store, &[0, 1, 2, 6], &old, &[]);
        assert_eq!(pass.log.path(0), &[1, 3, 0]);
        assert_eq!((pass.log.path(1), pass.log.target(1)), (&[2, 3][..], 0));
        assert_eq!(build.tree.parent(2), Some(3));
        assert_eq!(
            walks(&pass),
            (2, 1, 1),
            "member 1 searched, member 6 spliced"
        );
    }

    #[test]
    fn splice_refuses_a_walk_whose_terminal_left_the_tree() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 1, 2, 6], None);
        assert_eq!(old.1.log.path(1), &[2, 3], "it ended on member 1's path");
        // Member 1 unsubscribes: peer 3, the logged terminal of member
        // 2's walk, is off the tree, and the walk steps on from it.
        let (build, pass) = replayed(&store, &[0, 2, 6], &old, &[]);
        assert_eq!(pass.log.path(0), &[2, 3, 0]);
        assert_eq!(build.relays, vec![3, 4]);
        assert_eq!(walks(&pass), (2, 0, 1));
    }

    /// `(spliced, examined members)` of a replayed pass.
    fn reached(pass: &GraftPass) -> (u64, &[usize]) {
        (pass.walks_spliced, &pass.examined)
    }

    #[test]
    fn reach_a_dirty_path_node_visits_its_walk_alone() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        assert_eq!(old.1.log.path(1), &[6, 4, 0]);
        let (_, pass) = replayed(&store, &[0, 2, 6], &old, &[4]);
        assert_eq!(reached(&pass), (1, &[6][..]), "member 2's walk carried");
    }

    #[test]
    fn reach_a_terminal_the_section2_edit_dropped() {
        let store = line_with_a_member_beside_it();
        // Members 0, 1 and 2 form the §2 tree; member 9 walks down the
        // line to 2, member 10 from beside position 5 onto that path.
        let old = grafted(&store, &[0, 1, 2, 9, 10], None);
        assert_eq!(old.0.relays, vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(old.1.log.path(0), &[9, 8, 7, 6, 5, 4, 3, 2]);
        assert_eq!(old.1.log.path(1), &[10, 5]);
        // Member 2 unsubscribes: the §2 edit drops the terminal of
        // member 9's walk, which steps on to 1; member 10's walk stands.
        let (build, pass) = replayed(&store, &[0, 1, 9, 10], &old, &[]);
        assert_eq!(pass.log.path(0), &[9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(build.relays, vec![2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(reached(&pass), (1, &[9][..]));
    }

    #[test]
    fn reach_a_target_that_left_the_tree() {
        let store = line_with_a_member_beside_it();
        let old = grafted(&store, &[0, 9, 10], None);
        assert_eq!(old.1.log.path(1), &[10, 5]);
        // Member 9 unsubscribes: its walk goes, and with it position 5,
        // the target and terminal of member 10's walk. Member 9 is
        // visited without a walk to decide.
        let (_, pass) = replayed(&store, &[0, 10], &old, &[]);
        assert_eq!(reached(&pass), (0, &[10][..]));
    }

    #[test]
    fn reach_the_walks_an_earlier_walk_crosses() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        // Member 1 subscribes; its walk 1→3→0 puts peer 3, a node of
        // member 2's walk, on the tree first. Member 2's walk ends there
        // now; member 6's, whose target no fresh node beats, is carried.
        let (_, pass) = replayed(&store, &[0, 1, 2, 6], &old, &[]);
        assert_eq!(pass.log.path(1), &[2, 3]);
        assert_eq!(reached(&pass), (1, &[1, 2][..]));
    }

    #[test]
    fn reach_a_member_that_is_no_longer_stranded() {
        // Member 6 unsubscribes: only its own change names its walk,
        // which goes with nothing to step; member 2's walk is carried.
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        let (build, pass) = replayed(&store, &[0, 2], &old, &[]);
        assert_eq!(build.relays, vec![3]);
        assert_eq!(pass.support_change, Some((vec![4, 6], Vec::new())));
        assert_eq!(reached(&pass), (1, &[][..]));

        let store = store_from(line(&[0, 1, 2, 3, 4, 5, 6]));
        let old = grafted(&store, &[0, 2, 6], None);
        assert_eq!(old.1.log.path(0), &[2, 1, 0]);
        assert_eq!(old.1.log.path(1), &[6, 5, 4, 3, 2]);
        // Member 1 subscribes and bridges member 2 onto the §2 tree: the
        // walk of member 2 goes, nothing is stepped, and member 6's walk,
        // which ends at 2, is carried.
        let (build, pass) = replayed(&store, &[0, 1, 2, 6], &old, &[]);
        assert_eq!(build.relays, vec![3, 4, 5]);
        assert_eq!(pass.log.len(), 1);
        assert_eq!(reached(&pass), (1, &[][..]));
    }

    #[test]
    fn reach_a_later_walk_whose_target_a_fresh_node_beats() {
        let store = store_from(uniform_points(14, 2, 100.0, 0).into_points());
        let members = [0, 3, 5, 7, 8, 9, 11];
        let old = grafted(&store, &members, None);
        assert_eq!(old.1.log.path(0), &[8, 5]);
        assert_eq!(old.1.log.path(1), &[11, 7]);
        // Peer 2 subscribes and walks to 5. Fresh on the tree, it is
        // nearer to member 8 than 8's logged target 5, which still
        // stands, and it crosses no logged walk; member 11's target it
        // does not beat.
        let (_, pass) = replayed(&store, &[0, 2, 3, 5, 7, 8, 9, 11], &old, &[]);
        assert_eq!(pass.log.path(0), &[2, 5]);
        assert_eq!((pass.log.path(1), pass.log.target(1)), (&[8, 2][..], 2));
        assert_eq!(reached(&pass), (1, &[2, 8][..]));
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
        assert!(flood_to_tree(&store, &on_tree, &mut walk, &mut report));
        assert_eq!(walk.path, vec![4, 3, 2, 1, 0]);
        assert_eq!(report.flood_messages, 4, "one message per discovered peer");
        assert_eq!(
            walk.consulted,
            vec![4, 3, 2, 1],
            "the terminal's row is not read"
        );
        // Nothing on the tree is reachable: the whole component is read.
        let mut walk = Walk::default();
        walk.path.push(4);
        let nowhere = PeerBits::from_peers(store.len(), std::iter::empty());
        assert!(!flood_to_tree(&store, &nowhere, &mut walk, &mut report));
        assert_eq!(walk.consulted.len(), 5);
        assert_eq!(walk.path, vec![4]);
    }
}
