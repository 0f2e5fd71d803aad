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
//!    a [`GridIndex`] that holds only the on-tree nodes and grows as
//!    paths attach, asked for [`GridIndex::nearest`] with each slot's
//!    peer as its rank, so a query costs the few cells around the member
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
//! # One replay rule
//!
//! A walk is one step of its group's build, and a pure function of what
//! it read:
//!
//! * the rows of the nodes it stepped from — its path but the terminal,
//!   and for a fallback walk also the rows its region and flood tiers
//!   read off that path;
//! * the on-tree state of every node it touched: its path nodes were off
//!   the tree at its turn, its terminal and its target on it;
//! * the **ball** its target bounds. The target is the `(distance,
//!   index)` minimum over the on-tree set, so it stands while it is on
//!   the tree and no node that joined the tree since the walk was made
//!   lies nearer. This is the one read no peer names, and `Replay` is
//!   the one place that checks it: against the nodes on the tree now
//!   that were not at the same point of the previous pass (`fresh`, a
//!   list bounded by `MAX_FRESH`, past which every target is searched
//!   for).
//!
//! A region or flood walk tests the on-tree state of every node it
//! expands, so it counts as having read everything before it in its
//! pass: it stands only while nothing earlier in the pass changed.
//!
//! The pass records every walk with its reads (`WalkLog`). Handed the
//! group's previous log and the walks that read a row that may have
//! changed since (`Previous`), it goes through the stranded members in
//! ascending order as it does from scratch — which replays an empty
//! log — and re-runs a walk only when one of its reads changed; every
//! other walk is carried over from the log, unvisited. A re-run greedy
//! walk follows its logged path for as long as each hop it re-takes
//! lands on the logged next node, and a re-run walk whose path comes
//! out as logged changes nothing for the walks after it (early cutoff,
//! as in Acar's self-adjusting computation): the on-tree set they read
//! is the one they read before. So the pass returns exactly what it
//! returns without a log, at the cost of the walks whose reads changed.
//! The engine applies the same rule one level up ([`crate::groups`]).
//!
//! Nor does a re-graft rebuild the tree. The pass grafts onto the §2
//! construction's tree in the same `MulticastTree::edited` that makes
//! it; a replayed construction keeps the previous build's grafts, so
//! only the paths of the walks that changed are dropped and added.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;

use geocast_geom::{l1, GridIndex, Interval, MetricKind, Rect};
use geocast_overlay::routing::{greedy_route_to_rect_on_store, greedy_step_on_store};
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};

use crate::bits::PeerBits;
use crate::member_tree::{BuildResult, Section2, Zones};
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

/// Grafts every stranded member of `build`, a §2 construction (whose
/// zones name its tree's nodes), into its tree via relay paths over
/// `store`'s full overlay. Mutates `build` in place — attaching relay
/// chains, filling [`BuildResult::relays`], and shrinking
/// [`BuildResult::stranded`] to the provably unreachable members — and
/// returns the report plus the **support set**: every peer whose
/// adjacency row the discovery consulted, sorted.
///
/// Deterministic: stranded members are processed in ascending order and
/// every tier breaks ties by peer index. Every tier ranks by L1; the
/// third argument is the benchmark harness's [`MetricKind`] shim, read
/// by nothing.
///
/// # Panics
///
/// Panics if `build`'s tree universe disagrees with the store.
pub fn graft_stranded_members(
    store: &TopologyStore,
    build: &mut BuildResult,
    _metric: MetricKind,
) -> (GraftReport, Vec<usize>) {
    let stranded = std::mem::take(&mut build.stranded);
    let section2 = Section2 {
        root: build.tree.root(),
        len: build.tree.len(),
        base: Some(&build.tree),
        edit: TreeEdit::default(),
        zones: std::mem::take(&mut build.zones),
        // A path node off the §2 tree is a member exactly when it is
        // stranded.
        members: PeerBits::from_peers(store.len(), &stranded),
        stranded,
    };
    let (grafted, pass) = graft_pass(store, section2, None);
    *build = grafted;
    (pass.report, pass.support)
}

/// A peer id in the compact form the log keeps.
fn id(p: usize) -> u32 {
    u32::try_from(p).expect("peer ids fit u32")
}

/// One walk's share of its pass's report: its route hops, region
/// fallbacks, floods and flood messages.
type Tally = [u32; 4];

fn tally_of(report: &GraftReport) -> Tally {
    let counts = [
        report.route_hops,
        report.rect_fallbacks,
        report.flood_fallbacks,
        report.flood_messages,
    ];
    counts.map(|n| u32::try_from(n).expect("a walk's counts fit u32"))
}

fn add_tally(report: &mut GraftReport, tally: Tally) {
    report.route_hops += tally[0] as usize;
    report.rect_fallbacks += tally[1] as usize;
    report.flood_fallbacks += tally[2] as usize;
    report.flood_messages += tally[3] as usize;
}

/// The walks of one graft pass in pass order, which is ascending
/// stranded member, each with what it read (see the module doc): its
/// target, its path `[member, …relays…, terminal]` — empty for a member
/// the flood proved unreachable — and, for a fallback walk, the rows it
/// read off that path and its share of the report. Every node of a path
/// but the terminal joined the tree under the node after it, so the log
/// holds the pass's links too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WalkLog {
    walks: Vec<LoggedWalk>,
    /// The walks' paths, back to back.
    nodes: Vec<u32>,
    /// Per fallback walk, back to back: the peers off its path whose
    /// rows it read, ascending, and its `Tally`.
    fallen: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoggedWalk {
    member: u32,
    target: u32,
    /// One past the walk's path in [`WalkLog::nodes`].
    path_end: u32,
    /// One past the walk's reads off its path in [`WalkLog::fallen`].
    fallen_end: u32,
}

/// The words of a fallback walk's tally at the end of its `fallen` run.
const TALLY_WORDS: usize = 4;

impl WalkLog {
    fn push(
        &mut self,
        member: usize,
        target: usize,
        path: &[usize],
        off_path: &[usize],
        tally: Tally,
    ) {
        self.nodes.extend(path.iter().map(|&p| id(p)));
        if tally[1] + tally[2] > 0 {
            self.fallen.extend(off_path.iter().map(|&p| id(p)));
            self.fallen.extend(tally);
        }
        self.walks.push(LoggedWalk {
            member: id(member),
            target: id(target),
            path_end: id(self.nodes.len()),
            fallen_end: id(self.fallen.len()),
        });
    }

    /// Walk `w`'s share of its pass's report: a greedy walk's is its
    /// hops.
    fn tally(&self, w: usize) -> Tally {
        let fallen = self.fallen_run(w);
        match fallen.len().checked_sub(TALLY_WORDS) {
            Some(at) => fallen[at..].try_into().expect("a fallback walk's tally"),
            None => [id(self.path(w).len() - 1), 0, 0, 0],
        }
    }

    /// Appends walks `walks` of `from` as they are, in one run.
    fn extend_from(&mut self, from: &WalkLog, walks: Range<usize>) {
        let (start, fallen_start) = from.starts(walks.start);
        let (end, fallen_end) = from.starts(walks.end);
        let (base, fallen_base) = (self.nodes.len(), self.fallen.len());
        self.walks
            .extend(from.walks[walks].iter().map(|walk| LoggedWalk {
                path_end: walk.path_end - id(start) + id(base),
                fallen_end: walk.fallen_end - id(fallen_start) + id(fallen_base),
                ..*walk
            }));
        self.nodes.extend_from_slice(&from.nodes[start..end]);
        (self.fallen).extend_from_slice(&from.fallen[fallen_start..fallen_end]);
    }

    pub(crate) fn len(&self) -> usize {
        self.walks.len()
    }

    /// `true` if some walk of the log left tier 1.
    fn has_fallbacks(&self) -> bool {
        !self.fallen.is_empty()
    }

    /// The stranded member walk `w` started from.
    pub(crate) fn member(&self, w: usize) -> usize {
        self.walks[w].member as usize
    }

    /// The on-tree node walk `w` headed for.
    pub(crate) fn target(&self, w: usize) -> usize {
        self.walks[w].target as usize
    }

    /// The walk of stranded member `m`, if the log holds one.
    pub(crate) fn walk(&self, m: usize) -> Option<usize> {
        (self.walks)
            .binary_search_by_key(&id(m), |walk| walk.member)
            .ok()
    }

    /// `true` if walk `w` left tier 1: it read what its pass put on the
    /// tree before it.
    pub(crate) fn fallback(&self, w: usize) -> bool {
        !self.fallen_run(w).is_empty()
    }

    /// Where walk `w`'s path and `fallen` run start: where walk `w - 1`'s
    /// end.
    fn starts(&self, w: usize) -> (usize, usize) {
        w.checked_sub(1).map_or((0, 0), |v| {
            let walk = self.walks[v];
            (walk.path_end as usize, walk.fallen_end as usize)
        })
    }

    /// Walk `w`'s path, `[member, …relays…, terminal]`.
    fn path(&self, w: usize) -> &[u32] {
        self.paths(w..w + 1)
    }

    /// The paths of walks `walks`, back to back.
    fn paths(&self, walks: Range<usize>) -> &[u32] {
        &self.nodes[self.starts(walks.start).0..self.starts(walks.end).0]
    }

    /// Walk `w`'s run of `fallen`: empty for a greedy walk.
    fn fallen_run(&self, w: usize) -> &[u32] {
        &self.fallen[self.starts(w).1..self.walks[w].fallen_end as usize]
    }

    /// The nodes walk `w` attached: its path but the terminal.
    fn attached(&self, w: usize) -> &[u32] {
        self.path(w)
            .split_last()
            .map_or(&[], |(_, attached)| attached)
    }

    /// The peers whose rows walk `w` read off its path.
    fn off_path(&self, w: usize) -> &[u32] {
        let fallen = self.fallen_run(w);
        &fallen[..fallen.len().saturating_sub(TALLY_WORDS)]
    }

    /// Every peer whose row walk `w` read: its attached nodes, then the
    /// rows it read off its path.
    pub(crate) fn reads(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (self.attached(w).iter())
            .chain(self.off_path(w))
            .map(|&p| p as usize)
    }
}

/// What one graft pass returns besides the grafted build.
#[derive(Default)]
pub(crate) struct GraftPass {
    pub report: GraftReport,
    /// Every peer whose adjacency row the pass consulted, sorted.
    pub support: Vec<usize>,
    pub log: WalkLog,
    /// The previous log's walks whose reads the pass did not carry over
    /// as they were, and the walks of `log` it recorded with new reads:
    /// the steps the engine's reverse index moves. Without a previous
    /// log every walk is new.
    pub retired: Vec<usize>,
    pub entered: Vec<usize>,
    /// Tree nodes the build's edit touched ([`MulticastTree::edited`]);
    /// every node when the tree was built up from its root.
    pub touched: usize,
    /// Walks whose target was the previous log's.
    pub walks_replayed: u64,
    /// Walks whose target was not the previous log's: searched for over
    /// the on-tree set, or a fresh node that beats it.
    pub walks_recomputed: u64,
    /// Walks whose path came out as logged, with no hop stepped for
    /// them: some of `walks_replayed`.
    pub walks_spliced: u64,
    /// Walks the pass re-ran: the rest of `walks_replayed` and
    /// `walks_recomputed` were carried over from the log, unvisited.
    pub walks_examined: u64,
}

/// The group's previous graft pass, as the next one replays it. A pass
/// from scratch replays an empty one.
pub(crate) struct Previous<'a> {
    pub log: &'a WalkLog,
    /// Every peer whose row may have changed since the log read it, or
    /// since its hop was last re-taken — sorted, and read only for the
    /// walks of `dirty_walks`, the logged walks that read such a row.
    pub dirty: &'a [usize],
    pub dirty_walks: &'a [usize],
    /// Its support set.
    pub support: &'a [usize],
}

/// Past this many `fresh` nodes a pass stops replaying targets: each
/// replayed target costs one distance per fresh node, a searched one a
/// scan of the on-tree nodes or a few grid cells.
const MAX_FRESH: usize = 32;

/// A previous pass while the running one replays it.
struct Replay<'a> {
    log: &'a WalkLog,
    dirty: &'a [usize],
    dirty_walks: &'a [usize],
    support: &'a [usize],
    /// The nodes the previous pass had on its tree that the running one
    /// dropped so far: the §2 nodes the edit dropped, and the nodes of
    /// the previous walks it refused.
    gone: PeerBits,
    /// Nodes the running pass put on its tree that the previous one did
    /// not have there at the same point (entries it has since caught up
    /// with are harmless: they never beat a logged target).
    fresh: Vec<usize>,
    /// Something before the current walk changed what it put on the tree.
    changed: bool,
    /// The next previous walk.
    next: usize,
}

impl<'a> Replay<'a> {
    /// The replay of `previous` by a pass grafting onto a §2 tree of `n`
    /// peers whose zones are `zones`, reached from the previous one by
    /// `edit`.
    fn new(previous: Previous<'a>, n: usize, edit: &TreeEdit, zones: &Zones) -> Self {
        let mut replay = Replay {
            log: previous.log,
            dirty: previous.dirty,
            dirty_walks: previous.dirty_walks,
            support: previous.support,
            gone: PeerBits::from_peers(n, &edit.dropped),
            fresh: Vec::new(),
            changed: false,
            next: 0,
        };
        // A node the edit links was on the previous §2 tree exactly when
        // the edit drops its recorded zone; a node it drops has left the
        // tree unless it is linked again.
        for &(c, _) in &edit.links {
            replay.note_on_tree(c);
        }
        replay.changed |= edit.dropped.iter().any(|&p| zones.get(p).is_none());
        replay
    }

    /// Notes that `p`, off the running pass's tree so far, is on it from
    /// now on: fresh unless the previous pass had it there at this point.
    /// It had, exactly when the running pass dropped it: a node that was
    /// on the previous tree and is off the running one here left it with
    /// a dropped §2 node or a refused walk, which the running pass has
    /// gone past; any other was attached by a previous walk yet to come.
    fn note_on_tree(&mut self, p: usize) {
        if !self.gone.contains(p) {
            self.changed = true;
            if self.fresh.len() <= MAX_FRESH {
                self.fresh.push(p);
            }
        }
    }

    /// The target of stranded member `s`, whose logged walk is `w`, when
    /// the log decides it: the logged one while it is on the tree and no
    /// fresh node beats it, else the fresh node that does — the nearest
    /// on-tree node, since no node the previous pass had does.
    fn target(&self, peers: &[PeerInfo], on_tree: &PeerBits, w: usize, s: usize) -> Option<usize> {
        let logged = self.log.target(w);
        (self.fresh.len() <= MAX_FRESH && on_tree.contains(logged))
            .then(|| self.beating(peers, logged, s).unwrap_or(logged))
    }

    /// The ball read: the fresh node nearest to `s` if it beats
    /// `logged`, `s`'s logged target, which is on the tree.
    fn beating(&self, peers: &[PeerInfo], logged: usize, s: usize) -> Option<usize> {
        let sp = peers[s].point();
        let logged = (l1(peers[logged].point().coords(), sp.coords()), logged);
        let best = (self.fresh.iter())
            .map(|&f| (l1(peers[f].point().coords(), sp.coords()), f))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
        (best < logged).then_some(best.1)
    }

    /// Walks greedy logged walk `w`, whose target the pass has just
    /// taken, as far as the log decides it, re-taking the hop of each
    /// dirty node when the walk read a dirty row (`retake`): appends each
    /// hop to `walk.path`,
    /// which holds the walk's member. `Some(true)` when it reaches the
    /// logged terminal, on the tree — the logged walk, whole; `Some(false)`
    /// when an earlier node of the path has joined the tree since, where
    /// the walk ends; `None` at a node whose hop the log does not decide
    /// (a dirty one whose hop changed, or the logged terminal, now off the
    /// tree), from which the walk steps on.
    fn follow(
        &self,
        store: &TopologyStore,
        w: usize,
        retake: bool,
        on_tree: &PeerBits,
        walk: &mut Walk,
    ) -> Option<bool> {
        let logged = self.log.path(w);
        let target = store.peers()[self.log.target(w)].point();
        for (at, hop) in logged.windows(2).enumerate() {
            let (from, next) = (hop[0] as usize, hop[1] as usize);
            let dirty = retake && self.dirty.binary_search(&from).is_ok();
            if dirty && greedy_step_on_store(store, from, target) != Some(next) {
                return None;
            }
            walk.path.push(next);
            if on_tree.contains(next) {
                return Some(at + 2 == logged.len());
            }
        }
        None
    }
}

/// The one graft pass: [`graft_stranded_members`] plus what the engine
/// records about it, replaying the group's `previous` pass (see the
/// module doc). It grafts in the edit that makes `section2`'s tree,
/// whose base keeps the previous pass's grafts, if it had any. From
/// scratch it replays an empty pass: `section2` strands every member it
/// names, and no walk is logged.
pub(crate) fn graft_pass(
    store: &TopologyStore,
    section2: Section2,
    previous: Option<Previous>,
) -> (BuildResult, GraftPass) {
    let nothing = WalkLog::default();
    let (log, dirty, dirty_walks, support) = (&nothing, &[][..], &[][..], &[][..]);
    let previous = previous.unwrap_or(Previous {
        log,
        dirty,
        dirty_walks,
        support,
    });
    let Section2 {
        root,
        len,
        base,
        mut edit,
        zones,
        members,
        stranded,
    } = section2;
    assert_eq!(store.len(), len, "store/tree size mismatch");

    // The on-tree set while paths are being discovered, one bit per
    // peer, growing as paths are found. It starts as the §2 tree's
    // nodes, the peers holding a zone; the tree takes the pass's links
    // in one edit at the end.
    let mut on_tree = PeerBits::from_peers(store.len(), std::iter::empty());
    for p in zones.peers() {
        on_tree.insert(p);
    }
    let replay = Replay::new(previous, store.len(), &edit, &zones);
    let mut pass = Pass {
        store,
        zones: &zones,
        on_tree,
        // About the previous walks again, as a rule.
        log: WalkLog {
            walks: Vec::with_capacity(replay.log.walks.len() + 8),
            nodes: Vec::with_capacity(replay.log.nodes.len() + 32),
            fallen: Vec::new(),
        },
        replay,
        links: Vec::new(),
        dropped: Vec::new(),
        walk: Walk::default(),
        unreachable: Vec::new(),
        searches: 0,
        index: None,
        members: &members,
        pending: BinaryHeap::new(),
        out: GraftPass::default(),
    };
    pass.replay_walks(&stranded, pass.replay.dirty_walks);
    let (old_log, old_support) = (pass.replay.log, pass.replay.support);
    let Pass {
        on_tree,
        log,
        links,
        mut dropped,
        unreachable,
        mut out,
        ..
    } = pass;

    dropped.sort_unstable();
    let mut came: Vec<usize> = links.iter().map(|&(child, _)| child).collect();
    came.sort_unstable();
    edit.links.extend(links);
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
    out.touched = touched;
    // A relay is an attached node that is no member. Without fallback
    // walks the support is the attached nodes: the previous support less
    // the nodes of the paths that went, plus those of the paths that
    // came. Otherwise it is the tree's nodes off the §2 tree (both
    // ascend: one merge walk) and the rows fallback walks read off
    // their paths.
    if !old_log.has_fallbacks() && !log.has_fallbacks() {
        out.support = merged(old_support, &dropped, &came);
    } else {
        let mut on_section2 = zones.peers().peekable();
        let attached =
            (tree.reached().iter().copied()).filter(|&p| on_section2.next_if_eq(&p).is_none());
        let off_path = (0..log.len()).flat_map(|w| log.off_path(w).iter().map(|&p| p as usize));
        out.support = attached.chain(off_path).collect();
        out.support.sort_unstable();
        out.support.dedup();
    }
    // A support node is off the §2 tree, and on the tree only if a walk
    // attached it.
    let relays: Vec<usize> = (out.support.iter().copied())
        .filter(|&p| !members.contains(p) && on_tree.contains(p))
        .collect();
    out.report.relays = relays.len();
    out.log = log;
    let build = BuildResult {
        messages: zones.len() - 1,
        tree,
        stranded: unreachable,
        zones,
        relays,
    };
    (build, out)
}

/// One graft pass under way.
struct Pass<'a> {
    store: &'a TopologyStore,
    /// The §2 construction's zones: their peers are its tree's nodes.
    zones: &'a Zones,
    on_tree: PeerBits,
    replay: Replay<'a>,
    log: WalkLog,
    /// `(child, parent)` of every link the pass adds to its base.
    links: Vec<(usize, usize)>,
    /// The nodes of previous walks the pass did not keep.
    dropped: Vec<usize>,
    walk: Walk,
    /// Stranded members with no overlay path to the tree, ascending.
    unreachable: Vec<usize>,
    /// Target searches so far, and once they are many a grid of the
    /// on-tree nodes, with the peer in each of its slots and the number
    /// of `log`'s walks it holds.
    searches: usize,
    index: Option<(GridIndex, Vec<usize>, usize)>,
    members: &'a PeerBits,
    /// The members the replay is to decide one by one that it has not
    /// reached yet.
    pending: BinaryHeap<Reverse<usize>>,
    out: GraftPass,
}

impl Pass<'_> {
    /// The pass over a previous one. Its walks are carried over in
    /// order, unvisited, up to the next member whose stranding may have
    /// changed (`candidates`, and the members a dropped path exposes) or
    /// whose walk read a dirty row (`dirty_walks`); the pass decides
    /// those one by one, and once something before a walk changed, the
    /// walk too (see [`Pass::stands`]).
    fn replay_walks(&mut self, candidates: &[usize], dirty_walks: &[usize]) {
        // A candidate neither stranded now nor walked from before has
        // nothing to decide.
        let log = self.replay.log;
        let decided = (candidates.iter().copied())
            .filter(|&c| self.is_stranded(c) || log.walk(c).is_some())
            .map(Reverse)
            .collect::<Vec<_>>();
        self.pending.extend(decided);
        let mut dirty_walks = dirty_walks.iter().copied().peekable();
        loop {
            let r = &self.replay;
            let log = r.log;
            let pending = self.pending.peek().map_or(usize::MAX, |&Reverse(m)| m);
            let bound = pending.min(dirty_walks.peek().copied().unwrap_or(usize::MAX));
            let mut w = r.next;
            if !r.changed {
                // The tree is the previous pass's: every walk below the
                // bound stands.
                w += log.walks[w..].partition_point(|walk| (walk.member as usize) < bound);
                self.carry(r.next..w, true);
            }
            let from = w;
            while w < log.len() && log.member(w) < bound && self.stands(w) {
                // Its terminal is on the tree already.
                for &p in log.attached(w) {
                    self.on_tree.insert(p as usize);
                }
                w += 1;
            }
            self.carry(from..w, false);
            let s = match (w < log.len()).then(|| log.member(w)) {
                Some(m) if m < bound => m,
                _ if bound == usize::MAX => break,
                _ => bound,
            };
            while self.pending.peek() == Some(&Reverse(s)) {
                self.pending.pop();
            }
            let dirty = dirty_walks.next_if_eq(&s).is_some();
            let logged = (w < log.len() && log.member(w) == s).then_some(w);
            self.replay.next = w + usize::from(logged.is_some());
            let stranded = self.is_stranded(s) && !self.on_tree.contains(s);
            match logged {
                Some(w) if !stranded => self.refuse(w),
                Some(w) if !dirty && self.stands(w) => self.carry(w..w + 1, true),
                _ if stranded => self.visit(s, logged, dirty),
                _ => {}
            }
        }
    }

    /// `true` if `s` is a live member off the §2 tree.
    fn is_stranded(&self, s: usize) -> bool {
        self.members.contains(s)
            && self.zones.get(s).is_none()
            && !self.store.is_departed(PeerId(s as u64))
    }

    /// Drops previous walk `w`'s path: its nodes leave the tree unless a
    /// walk attaches them again, and a stranded member among them that
    /// its walk went through takes a turn of its own.
    fn refuse(&mut self, w: usize) {
        let attached = self.replay.log.attached(w);
        self.replay.changed |= !attached.is_empty();
        for &p in attached {
            self.replay.gone.insert(p as usize);
            self.dropped.push(p as usize);
        }
        for &p in attached.iter().skip(1) {
            if self.is_stranded(p as usize) {
                self.pending.push(Reverse(p as usize));
            }
        }
        self.out.retired.push(w);
    }

    /// `true` if previous walk `w`, none of whose rows is dirty, read
    /// nothing that changed (see the module doc): while nothing before
    /// it changed, trivially; after, a fallback walk never, and a greedy
    /// one when its terminal and target are on the tree and — once some
    /// node is on it that was not at this point of the previous pass —
    /// its path nodes are off it and no such node beats its target.
    fn stands(&self, w: usize) -> bool {
        let r = &self.replay;
        let log = r.log;
        if !r.changed {
            return true;
        }
        if log.fallback(w) || r.fresh.len() > MAX_FRESH {
            return false;
        }
        let Some((&terminal, attached)) = log.path(w).split_last() else {
            unreachable!("a walk that stayed in tier 1 reached the tree");
        };
        let target = log.target(w);
        self.on_tree.contains(terminal as usize)
            && self.on_tree.contains(target)
            && (r.fresh.is_empty()
                || (attached.iter()).all(|&p| !self.on_tree.contains(p as usize))
                    && (r.beating(self.store.peers(), target, log.member(w))).is_none())
    }

    /// Carries previous walks `walks` over as they are, in one copy: their
    /// nodes join the tree, unless `put` is off (they are on it already).
    fn carry(&mut self, walks: Range<usize>, put: bool) {
        let log = self.replay.log;
        if put {
            for &p in log.paths(walks.clone()) {
                self.on_tree.insert(p as usize);
            }
        }
        for w in walks.clone() {
            self.count(log.member(w), log.path(w).is_empty(), log.tally(w));
        }
        self.out.walks_replayed += walks.len() as u64;
        self.out.walks_spliced += walks.len() as u64;
        self.log.extend_from(log, walks);
    }

    /// Adds a walk of `s` to the report.
    fn count(&mut self, s: usize, unreachable: bool, tally: Tally) {
        add_tally(&mut self.out.report, tally);
        if unreachable {
            self.out.report.unreachable += 1;
            self.unreachable.push(s);
        } else {
            self.out.report.grafted += 1;
        }
    }

    /// Re-runs the walk of stranded member `s`, whose previous walk is
    /// `logged` (`dirty` when it read a dirty row), taking its target and
    /// as much of its path as the log decides.
    fn visit(&mut self, s: usize, logged: Option<usize>, dirty: bool) {
        let store = self.store;
        let r = &self.replay;
        let decided = logged.and_then(|w| r.target(store.peers(), &self.on_tree, w, s));
        let kept = logged.filter(|&w| decided == Some(r.log.target(w)));
        self.out.walks_examined += 1;
        self.out.walks_replayed += u64::from(kept.is_some());
        self.out.walks_recomputed += u64::from(kept.is_none());
        let target = (decided.or_else(|| self.nearest(s))).expect("the root is on the tree");
        let mut report = GraftReport::default();
        let walk = &mut self.walk;
        walk.path.clear();
        walk.consulted.clear();
        walk.path.push(s);
        let r = &self.replay;
        let followed = match kept {
            Some(w) if !r.log.fallback(w) => r.follow(store, w, dirty, &self.on_tree, walk),
            _ => None,
        };
        report.route_hops = walk.path.len() - 1;
        let found =
            followed.is_some() || discover_path(store, &self.on_tree, target, walk, &mut report);
        if !found {
            walk.path.clear();
        }
        // path[0] = s, path[last] on-tree; everything before it is new.
        let attached = walk.path.len().saturating_sub(1);
        for &p in &walk.path[..attached] {
            self.on_tree.insert(p);
        }
        // Every other row the walk read was off the tree, and still is.
        walk.consulted.retain(|&p| !self.on_tree.contains(p));
        walk.consulted.sort_unstable();
        walk.consulted.dedup();
        let tally = tally_of(&report);
        self.log.push(s, target, &walk.path, &walk.consulted, tally);
        self.count(s, !found, tally);
        if followed == Some(true) {
            self.out.walks_spliced += 1;
        }
        let new = self.log.len() - 1;

        // Early cutoff: a walk whose path comes out as logged changes
        // nothing the walks after it read.
        let old = self.replay.log;
        if let Some(w) = logged.filter(|&w| old.path(w) == self.log.path(new)) {
            if !old.reads(w).eq(self.log.reads(new)) || old.tally(w) != tally {
                self.out.retired.push(w);
                self.out.entered.push(new);
            }
            return;
        }
        if let Some(w) = logged {
            self.refuse(w);
        }
        self.out.entered.push(new);
        let path = &self.walk.path;
        self.links
            .extend(path.windows(2).map(|hop| (hop[0], hop[1])));
        for &p in &path[..attached] {
            self.replay.note_on_tree(p);
        }
    }

    /// The target of stranded member `s`'s walk, searched for: the
    /// on-tree node nearest to it by `(distance, index)`. The first few
    /// searches of a pass scan the on-tree nodes; a pass that keeps
    /// searching — one that replays nothing, as a rule — builds a grid of
    /// them once ([`GridIndex::nearest`], the peers as ranks) and brings
    /// it up to date with the log's walks at each search after.
    fn nearest(&mut self, s: usize) -> Option<usize> {
        let peers = self.store.peers();
        self.searches += 1;
        let log = &self.log;
        if self.index.is_none() && self.searches <= SCANNED_SEARCHES {
            // A terminal is on the tree, so listed twice: no matter.
            let sp = peers[s].point();
            return (self.zones.peers())
                .chain(log.nodes.iter().map(|&p| p as usize))
                .map(|p| (l1(peers[p].point().coords(), sp.coords()), p))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, p)| p);
        }
        let (index, slots, indexed) = self.index.get_or_insert_with(|| {
            let slots: Vec<usize> = self.zones.peers().collect();
            let points: Vec<&PeerInfo> = slots.iter().map(|&p| &peers[p]).collect();
            (GridIndex::build(&points), slots, 0)
        });
        for w in *indexed..log.len() {
            for &p in log.attached(w) {
                index.insert(peers[p as usize].point());
                slots.push(p as usize);
            }
        }
        *indexed = log.len();
        let rank = |slot: usize| slots[slot];
        index.nearest(peers[s].point(), rank).map(rank)
    }
}

/// `old`, sorted, without `gone` and with `came` (both sorted; a node in
/// both stays): the runs of `old` between two changes are copied whole.
fn merged(old: &[usize], gone: &[usize], came: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(old.len() + came.len());
    let (mut gone, mut came) = (
        gone.iter().copied().peekable(),
        came.iter().copied().peekable(),
    );
    let mut at = 0;
    while let Some(next) = [gone.peek(), came.peek()]
        .into_iter()
        .flatten()
        .min()
        .copied()
    {
        let end = at + old[at..].partition_point(|&p| p < next);
        out.extend_from_slice(&old[at..end]);
        at = end + usize::from(gone.next_if_eq(&next).is_some());
        out.extend(came.next_if_eq(&next));
    }
    out.extend_from_slice(&old[at..]);
    out
}

/// Searches a pass makes by scanning its on-tree nodes before it builds
/// a grid of them: a scan costs a distance per node, the grid about as
/// much as this many scans, and a search in it a few cells.
const SCANNED_SEARCHES: usize = 8;

/// Scratch and output of the discovery of one walk.
#[derive(Default)]
struct Walk {
    /// The walk under way: `[s, …relays…, on-tree node]` once it is done.
    path: Vec<usize>,
    /// Rows the fallback tiers read (tier 1 reads only the rows of the
    /// path it attaches).
    consulted: Vec<usize>,
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
        while let Some(next) = greedy_step_on_store(store, cur, tp) {
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
        let d = l1(cp.coords(), tp.coords());
        debug_assert!(d > 0.0, "stall at the target would have delivered");
        let half = d / (2.0 * tp.dim() as f64);
        let sides = (0..tp.dim())
            .map(|k| Interval::new(tp[k] - half, tp[k] + half))
            .collect();
        let region = Rect::new(sides).expect("target points have dimensions");
        report.rect_fallbacks += 1;
        let route = greedy_route_to_rect_on_store(store, cur, &region, store.len());
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
        for v in store.neighbors(u) {
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
    use crate::groups::build_group_tree_on_store;
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
        assert_eq!(pass.log.len(), 1);
        assert_eq!((pass.log.member(0), pass.log.target(0)), (4, 0));
        assert_eq!(pass.log.walk(4), Some(0));
        assert_eq!(pass.log.path(0), &[4, 3, 2, 1, 0]);
        assert_eq!(pass.log.reads(0).collect::<Vec<_>>(), [4, 3, 2, 1]);
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
        let store =
            TopologyStore::from_peers(peers, Arc::new(HyperplanesSelection::k_closest(2, 2)));
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
        let store =
            TopologyStore::from_peers(peers, Arc::new(HyperplanesSelection::k_closest(2, 1)));
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
    /// of the store, every peer touched and the `dirty` ones' rows
    /// changed since.
    fn grafted(store: &TopologyStore, members: &[usize], old: Option<(&Built, &[usize])>) -> Built {
        let members: BTreeSet<usize> = members.iter().copied().collect();
        let touched: Vec<usize> = (0..store.len()).collect();
        let recorded = old.map(|((build, _, rows), _)| Recorded {
            tree: &build.tree,
            zones: build.zones.clone(),
            rows: rows.clone(),
            touched: &touched,
        });
        let partitioner = OrthantRectPartitioner::median();
        let built = member_tree(store, 0, &members, &partitioner, recorded);
        let dirty_walks: Vec<usize> = old.map_or(Vec::new(), |((_, pass, _), dirty)| {
            let log = &pass.log;
            (0..log.len())
                .filter(|&w| log.reads(w).any(|p| dirty.contains(&p)))
                .map(|w| log.member(w))
                .collect()
        });
        let previous =
            (old.filter(|_| built.section2.base.is_some())).map(|((_, pass, _), dirty)| Previous {
                log: &pass.log,
                dirty,
                dirty_walks: &dirty_walks,
                support: &pass.support,
            });
        let (build, pass) = graft_pass(store, built.section2, previous);
        (build, pass, built.rows)
    }

    /// Builds `members` over `store` replaying `old` with `dirty` rows
    /// and from scratch: the same tree, relays, support, log and report.
    /// Returns the replayed pass.
    fn replayed(
        store: &TopologyStore,
        members: &[usize],
        old: &Built,
        dirty: &[usize],
    ) -> GraftPass {
        let (build, pass, _) = grafted(store, members, Some((old, dirty)));
        let (scratch, reference, _) = grafted(store, members, None);
        assert_eq!(build, scratch);
        assert_eq!(
            (pass.report, &pass.support, &pass.log),
            (reference.report, &reference.support, &reference.log)
        );
        assert_eq!(
            pass.walks_replayed + pass.walks_recomputed,
            reference.walks_recomputed,
            "the same walks, however their targets were found"
        );
        pass
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

    /// Peers 0..=9 along the line, and member 10 just off it next to
    /// position 5: adjacent to positions 4, 5 and 6.
    fn line_with_a_member_beside_it() -> TopologyStore {
        let mut points = line(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        points.push(Point::new(vec![52.0, 48.0]).unwrap());
        store_from(points)
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
        let points = coords.iter().map(|&(x, y)| Point::new(vec![x, y]).unwrap());
        store_from(points.collect())
    }

    /// A line whose far member 1 walks first and attaches `reach` fresh
    /// nodes before the turn of the near member, `reach + 2`, which the
    /// root still targets.
    fn a_far_member_then_a_near_one(reach: usize) -> TopologyStore {
        let reach = i32::try_from(reach).unwrap();
        let mut positions = vec![0, reach];
        positions.extend(1..reach);
        positions.extend([-1, -2]);
        store_from(line(&positions))
    }

    /// A membership change as an input to the replay's exactness check:
    /// the build of `before` over `store`, replayed for `after` (see
    /// `replayed`), and for `before` again, which re-runs nothing and
    /// leaves the tree untouched. Returns the pass for `after`.
    fn replays(store: &TopologyStore, before: &[usize], after: &[usize]) -> GraftPass {
        let old = grafted(store, before, None);
        let same = replayed(store, before, &old, &[]);
        assert_eq!((same.walks_examined, same.touched), (0, 0));
        replayed(store, after, &old, &[])
    }

    /// Membership changes as inputs to the replay's exactness check, one
    /// test per way a change reaches a logged walk: `name: store, members
    /// before => members after, |pass| what the scenario exercises`.
    macro_rules! replays_exactly {
        ($($name:ident: $store:expr, $before:expr => $after:expr, |$pass:ident| $check:expr;)*) => {$(
            #[test]
            fn $name() {
                let $pass = replays(&$store, &$before, &$after);
                $check;
            }
        )*};
    }

    replays_exactly! {
        // Member 9's new path puts relay 5 nearer to member 10 than 0.
        replay_a_new_members_path_becomes_a_later_members_target:
            line_with_a_member_beside_it(), [0, 10] => [0, 9, 10],
            |pass| assert_eq!(pass.log.target(1), 5);
        replay_an_unsubscribed_members_path_no_longer_carries_later_walks:
            line_with_a_member_beside_it(), [0, 9, 10] => [0, 10],
            |pass| assert_eq!(pass.log.target(0), 0);
        // Member 1 walked through member 6, which now walks itself.
        replay_a_member_that_was_walked_through_leads_its_own_walk:
            store_from(line(&[0, 9, 1, 2, 3, 4, 5, 6, 7, 8])), [0, 1, 6] => [0, 6],
            |pass| assert_eq!(pass.log.path(0), [6, 5, 4, 3, 2, 0]);
        // Member 1's walk puts peer 3 of member 2's path on the tree.
        splice_refuses_a_walk_an_earlier_path_now_crosses:
            a_walk_that_curves_away(), [0, 2, 6] => [0, 1, 2, 6],
            |pass| assert_eq!((pass.log.path(1), pass.log.target(1)), (&[2, 3][..], 0));
        splice_refuses_a_walk_whose_terminal_left_the_tree:
            a_walk_that_curves_away(), [0, 1, 2, 6] => [0, 2, 6],
            |pass| assert_eq!(pass.log.path(0), [2, 3, 0]);
        reach_a_terminal_the_section2_edit_dropped:
            line_with_a_member_beside_it(), [0, 1, 2, 9, 10] => [0, 1, 9, 10],
            |pass| assert_eq!(pass.log.path(0), [9, 8, 7, 6, 5, 4, 3, 2, 1]);
        reach_a_target_that_left_the_tree:
            line_with_a_member_beside_it(), [0, 9, 10] => [0, 10],
            |pass| assert_eq!(pass.walks_examined, 1);
        reach_the_walks_an_earlier_walk_crosses:
            a_walk_that_curves_away(), [0, 2, 6] => [0, 1, 2, 6],
            |pass| assert_eq!((pass.walks_examined, pass.walks_spliced), (2, 1));
        // Member 6's walk goes alone; member 1 bridges member 2 onto the
        // §2 tree, and member 2's walk goes.
        reach_a_member_that_is_no_longer_stranded:
            a_walk_that_curves_away(), [0, 2, 6] => [0, 2],
            |pass| assert_eq!((pass.walks_examined, pass.walks_spliced), (0, 1));
        reach_a_member_that_is_bridged_onto_the_section2_tree:
            store_from(line(&[0, 1, 2, 3, 4, 5, 6])), [0, 2, 6] => [0, 1, 2, 6],
            |pass| assert_eq!((pass.log.len(), pass.walks_examined), (1, 0));
        // Peer 2's new path is nearer to member 8 than 8's logged target.
        reach_a_later_walk_whose_target_a_fresh_node_beats:
            store_from(uniform_points(14, 2, 100.0, 0).into_points()),
            [0, 3, 5, 7, 8, 9, 11] => [0, 2, 3, 5, 7, 8, 9, 11],
            |pass| assert_eq!((pass.log.path(1), pass.log.target(1)), (&[8, 2][..], 2));
        // A membership change reads no row: member 9's walk down the
        // line runs past member 10, which unsubscribes, and is carried.
        replay_carries_a_walk_past_an_unsubscribed_neighbour:
            line_with_a_member_beside_it(), [0, 9, 10] => [0, 9],
            |pass| assert_eq!((pass.walks_examined, pass.walks_spliced, pass.touched), (0, 1, 1));
        // Past the bound on fresh nodes the near member's target is
        // searched for; within it, the logged one is kept.
        replay_stops_deciding_targets_once_fresh_outgrows_its_bound:
            a_far_member_then_a_near_one(MAX_FRESH + 2),
            [0, MAX_FRESH + 4] => [0, 1, MAX_FRESH + 4],
            |pass| assert_eq!(pass.walks_recomputed, 2);
        replay_keeps_deciding_targets_within_the_bound_on_fresh_nodes:
            a_far_member_then_a_near_one(MAX_FRESH), [0, MAX_FRESH + 2] => [0, 1, MAX_FRESH + 2],
            |pass| assert_eq!(pass.walks_recomputed, 1);
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
        let pass = replayed(&store, &[0, 5], &old, &dirty);
        assert_eq!((pass.walks_replayed, pass.walks_recomputed), (1, 0));
    }

    #[test]
    fn replay_retakes_the_hop_of_a_dirty_node() {
        let mut store = store_from(line(&[0, 1, 2, 3, 4]));
        let old = grafted(&store, &[0, 4], None);
        // A joiner strictly closer to the root than node 4's recorded
        // hop (position 3 is 60 away in L1, the joiner 59).
        let joiner = store.insert(Point::new(vec![31.0, 28.0]).unwrap()).index();
        let dirty = store.delta_log().newest().unwrap().dirty.clone();
        let pass = replayed(&store, &[0, 4], &old, &dirty);
        assert_eq!(pass.log.path(0)[..2], [4, joiner as u32]);
    }

    /// A dirty node whose re-taken hop stands: its walk comes out as
    /// logged, and nothing after it is re-run.
    #[test]
    fn splice_refuses_a_walk_through_a_dirty_node() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        assert_eq!(old.1.log.path(1), &[6, 4, 0]);
        let pass = replayed(&store, &[0, 2, 6], &old, &[4]);
        assert_eq!(
            (pass.walks_examined, pass.walks_spliced, pass.touched),
            (1, 2, 0)
        );
    }

    #[test]
    fn reach_a_dirty_path_node_visits_its_walk_alone() {
        let store = a_walk_that_curves_away();
        let old = grafted(&store, &[0, 2, 6], None);
        let pass = replayed(&store, &[0, 2, 6], &old, &[3, 4]);
        assert_eq!(pass.walks_examined, 2, "each walk through a dirty node");
    }

    /// Fallback walks follow the same rule: on a sparse rule whose grafts
    /// take the region and flood tiers, membership and row changes
    /// replay exactly, and a change after which nothing earlier in the
    /// pass differs carries the fallback walks over.
    #[test]
    fn a_replayed_pass_equals_the_pass_from_scratch_on_fallback_walks() {
        let peers = PeerInfo::from_point_set(&uniform_points(120, 2, 1000.0, 11));
        let mut store =
            TopologyStore::from_peers(peers, Arc::new(HyperplanesSelection::k_closest(2, 2)));
        let members: Vec<usize> = (0..120).step_by(11).collect();
        let old = grafted(&store, &members, None);
        assert!(old.1.report.rect_fallbacks + old.1.report.flood_fallbacks > 0);
        let last = *members.last().unwrap();
        let fewer: Vec<usize> = members.iter().copied().filter(|&m| m != last).collect();
        let pass = replayed(&store, &fewer, &old, &[]);
        assert!(
            pass.walks_spliced > 0,
            "the walks before the change are carried"
        );
        let more: Vec<usize> = members.iter().copied().chain([119]).collect();
        replayed(&store, &more, &old, &[]);
        let relay = old.0.relays[old.0.relays.len() / 2];
        store.remove(geocast_overlay::PeerId(relay as u64));
        let dirty = store.delta_log().newest().unwrap().dirty.clone();
        replayed(&store, &members, &old, &dirty);

        // Two clusters far apart under a 1-closest rule: only the flood
        // tells that member 5 is unreachable. A join inside its cluster
        // dirties the rows the flood read.
        let mut store = TopologyStore::new(Arc::new(HyperplanesSelection::k_closest(2, 1)));
        for (base, count) in [(10.0, 4), (5000.0, 3)] {
            for i in 0..count {
                store.insert(
                    Point::new(vec![base + f64::from(i), base + 2.0 * f64::from(i)]).unwrap(),
                );
            }
        }
        let old = grafted(&store, &[0, 5], None);
        assert_eq!((old.1.report.unreachable, old.1.log.len()), (1, 1));
        store.insert(Point::new(vec![5001.5, 5003.0]).unwrap());
        let dirty = store.delta_log().newest().unwrap().dirty.clone();
        replayed(&store, &[0, 5], &old, &dirty);
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
