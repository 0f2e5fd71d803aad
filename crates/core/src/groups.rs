//! Multi-group sessions: N concurrent multicast trees over one shared
//! [`TopologyStore`].
//!
//! The paper's overlay exists to embed multicast *trees* — plural. A
//! production deployment serves many concurrent groups (topics,
//! channels, sensor clusters), each a tree rooted at its own source,
//! all sharing one overlay. The [`GroupEngine`] owns that arrangement:
//!
//! * **One substrate.** A single [`TopologyStore`] carries the peer
//!   population and the incrementally-maintained equilibrium adjacency.
//! * **N group trees, 100% coverage.** Each group is a subscriber set
//!   plus a §2 space-partitioning tree over the **member-induced
//!   subgraph** of the shared overlay ([`build_group_tree_on_store`]):
//!   a member delegates sub-zones only to overlay neighbours that are
//!   fellow members. Members the member subgraph cannot reach are then
//!   **relay-grafted** ([`crate::graft`]): their join request greedy-
//!   routes over the full overlay to the nearest on-tree node and the
//!   discovered path joins the tree as non-member relay nodes
//!   ([`build_group_tree_grafted`]). Only members overlay-disconnected
//!   from the root remain stranded — provably undeliverable.
//! * **Delta-driven repair, certificate-gated.** The engine is a
//!   registered consumer of the store's epoch-numbered delta stream
//!   ([`geocast_overlay::DeltaLog`]). Per churn event it *examines* only
//!   the groups whose members **or graft-support nodes** (relay paths
//!   and every adjacency row the discovery consulted) intersect the
//!   event's dirty region — a group's grafted tree is a pure function of
//!   exactly those rows plus membership and liveness, so a group
//!   untouched by every delta is provably unchanged. Two exact reverse
//!   relations answer "which groups does this dirty peer touch": who
//!   subscribes (`member_of`) and whose current build read the peer's
//!   row (`support_of`, moved by every rebuild from the old support set
//!   to the new in one merge walk). An examined group
//!   is rebuilt only if a **recorded decision changed**: every build
//!   carries a [`RepairCertificate`] (the member-induced rows the §2
//!   construction read, and the target each graft walk was heading for
//!   at each support node), and the group keeps its build, its rebuild
//!   counter and its cached delivery plan when no member or support
//!   node departed, every dirtied reached member's member-induced row
//!   reads as recorded, and every dirtied support node still takes the
//!   same greedy hop — the induction that makes this exact is written
//!   at [`GroupBuild::still_holds`]. Anything else (a failed
//!   clause, a graft that used the region or flood tier, a membership
//!   operation) goes through the one rebuild path, tearing down and
//!   re-routing relays whose underlying peers churned — and that
//!   rebuild replays the decisions the replaced build recorded, so it
//!   costs what the change reaches, not the group: the §2 construction
//!   re-partitions only below the delegations whose inputs differ and
//!   moves every other link, zone and row over from the old build
//!   (`crate::member_tree`;
//!   [`EngineTotals::zone_splits_replayed`] counts it), and the graft
//!   pass searches and walks only where its on-tree set or a support
//!   row changed ([`crate::graft`];
//!   [`EngineTotals::graft_walks_replayed`]). Consumers that fall
//!   behind the log's retention window resync from the full store
//!   state, replaying nothing.
//! * **A batched, plan-cached data plane.** Publishing is decoupled
//!   from tree walking ([`crate::dataplane`]): each group's delivery
//!   edges are flattened once into a [`DeliveryPlan`] cached against
//!   the group's rebuild counter, so steady-state [`GroupEngine::publish`]
//!   is O(1); [`GroupEngine::enqueue`] + [`GroupEngine::flush_tick`]
//!   batch a tick's payloads so one frame per delivery edge carries the
//!   whole batch; and while a group's root or relay is merely
//!   *suspected* ([`GroupEngine::set_suspects`]) delivery degrades to a
//!   Plumtree-style eager/lazy epidemic — tree pushes plus IHAVE/IWANT
//!   recovery over the member region — with the same reachable set as
//!   the tree-plus-grafts at a bounded duplicate cost.
//!
//! The multi-tree analogue of PR 3's incremental guarantee, property
//! tested (`tests/prop_groups.rs`): after any churn interleaving, every
//! registered group's build — relay grafts included — is byte-identical
//! to a from-scratch [`build_group_tree_grafted`] rebuild on the
//! surviving members — whether the engine rebuilt it, certified it
//! unchanged or never looked at it — while the engine pays a full
//! rebuild only for delta-affected groups in which a recorded decision
//! changed.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use geocast_core::groups::GroupEngine;
//! use geocast_core::OrthantRectPartitioner;
//! use geocast_geom::gen::uniform_points;
//! use geocast_overlay::{select::EmptyRectSelection, PeerId, PeerInfo, TopologyStore};
//!
//! let peers = PeerInfo::from_point_set(&uniform_points(40, 2, 1000.0, 7));
//! let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
//! let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
//!
//! let g = engine.create_group(PeerId(0));
//! for peer in [3u64, 11, 29] {
//!     engine.subscribe(g, PeerId(peer));
//! }
//! assert_eq!(engine.members(g).len(), 4);
//! // A member departs; the engine absorbs the delta and repairs.
//! engine.leave(PeerId(11));
//! assert_eq!(engine.members(g).len(), 3);
//! assert!(engine.tree(g).is_some());
//! ```

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use geocast_geom::{MetricKind, Point};
use geocast_overlay::delta::DeltaKind;
use geocast_overlay::routing::greedy_step_on_store;
use geocast_overlay::{CursorCatchUp, DeltaCursor, PeerId, TopologyStore};
use geocast_sim::workload::{GroupOp, MembershipPlacement};

use crate::builder::BuildResult;
use crate::dataplane::{
    eager_lazy_deliver, DeliveryPlan, EpidemicReport, PlanCache, PlanStats, PublishBatch,
};
use crate::graft::{graft_pass, GraftMemo, GraftReport};
use crate::member_tree::{member_tree, same_row, MemberRows, Recorded};
use crate::partition::ZonePartitioner;
use crate::stability::{preferred_links_on_store, PreferredPolicy, StabilityForest};

/// The metric relay grafting routes under — the paper's §2 choice.
const GRAFT_METRIC: MetricKind = MetricKind::L1;

/// Identifier of a multicast group (dense creation index within one
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group#{}", self.0)
    }
}

/// Builds one group's §2 tree from scratch: the space-partitioning
/// work-queue seeded at `root` over the **member-induced subgraph** of
/// the store's undirected equilibrium adjacency. Departed members are
/// excluded (the "surviving members" semantics); `stranded` lists the
/// surviving members the member subgraph could not reach — *not* the
/// non-members, which are simply outside the session.
///
/// This is the definitional reference the [`GroupEngine`] must match
/// after any churn interleaving.
///
/// # Panics
///
/// Panics if `root` is out of range, departed, or not in `members`.
#[must_use]
pub fn build_group_tree_on_store(
    store: &TopologyStore,
    root: usize,
    members: &BTreeSet<usize>,
    partitioner: &dyn ZonePartitioner,
) -> BuildResult {
    member_tree(store, root, members, partitioner, None).build
}

/// The decisions a [`GroupBuild`] rests on, recorded in the form
/// [`GroupEngine::sync`] re-checks them after churn (see
/// [`GroupBuild::still_holds`]) and the next rebuild replays them (see
/// [`crate::graft`]). `O(members + support)` `u32`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairCertificate {
    /// What the §2 construction read.
    member_rows: MemberRows,
    /// Parallel to [`GroupBuild::support`]: the on-tree node each
    /// support node's walk was heading for (the hop it chose is its
    /// tree parent). Empty when the graft left tier 1.
    targets: Vec<u32>,
    /// Parallel to [`GroupBuild::support`]: the stranded member whose
    /// walk attached the node. Empty when the graft left tier 1.
    joined: Vec<u32>,
}

/// A group's complete delivery structure: the (grafted) tree plus the
/// graft bookkeeping the incremental engine repairs by.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBuild {
    /// The member-induced §2 tree **with relay grafts attached**:
    /// `build.relays` lists the non-member forwarders,
    /// `build.stranded` only the provably overlay-disconnected members.
    pub build: BuildResult,
    /// What the graft pass did (routing hops, fallback tiers, …).
    pub graft: GraftReport,
    /// Every peer whose adjacency row the graft discovery consulted —
    /// relays, flood-expanded nodes, and the stranded members the walks
    /// started from — sorted. A churn delta dirtying any of these can
    /// reroute a relay path, so the engine treats support nodes exactly
    /// like members when deciding which groups to examine — this is
    /// what tears relays down and re-routes them when their underlying
    /// peers churn.
    pub support: Vec<usize>,
    /// What the build read and decided, so that a dirtied member or
    /// support node can be shown not to have changed it.
    pub certificate: RepairCertificate,
}

impl GroupBuild {
    /// Decides, without rebuilding, whether this build — made for
    /// `members` over an earlier state of `store` — is still what
    /// [`build_group_tree_grafted`] returns now, given `dirty`: every
    /// member or support node of the group whose adjacency row (or
    /// liveness) may have changed since, the member set itself being
    /// unchanged. `true` is a proof; `false` only means "rebuild to
    /// find out". Costs `O(|dirty| × degree)`.
    ///
    /// The three clauses, and why they suffice:
    ///
    /// 1. *No dirty peer has departed.* Then `members` is the live
    ///    member set the old build saw, and every recorded target is
    ///    still a live peer.
    /// 2. *Every dirty §2-reached member's member-induced row reads as
    ///    recorded.* The §2 work-queue pops the root, reads its row,
    ///    partitions, enqueues children, and repeats; if every row it
    ///    reads is unchanged (clean rows are, dirty ones by this
    ///    clause) each pop makes the same delegation, so by induction
    ///    over the queue it reaches the same members with the same
    ///    zones, and strands the same ones. An unreached member whose
    ///    links changed is visible here from the other end: the reached
    ///    member it now touches has a dirty, different row.
    /// 3. *Every dirty support node's greedy hop over its new row
    ///    towards its recorded target is still its tree parent.* The
    ///    graft pass handles the stranded members in ascending order.
    ///    Assume the on-tree set before member `s` is what it was. Its
    ///    target — the `(distance, index)`-nearest on-tree node — is a
    ///    function of that set and of coordinates, so it is the
    ///    recorded one. The walk from `s` reads the row of each node it
    ///    stands on for one decision, the hop towards that target, and
    ///    ends at the first on-tree node: every node it stood on is a
    ///    support node recorded with this target, so each hop is the
    ///    old hop (clean row, or this clause), the path is the old
    ///    path, and the on-tree set after `s` is what it was. By
    ///    induction over the stranded members the whole pass — links,
    ///    relays, support, report — repeats.
    ///
    /// A graft that used the region or flood tier read rows for other
    /// decisions than one hop; it is never certified. A dirty peer that
    /// is neither a recorded member nor a support node cannot occur for
    /// a greedy-only graft (an unreached member is either grafted, and
    /// then walked from or through, or unreachable, which takes the
    /// flood tier to establish) and is refused all the same.
    #[must_use]
    pub fn still_holds(
        &self,
        store: &TopologyStore,
        members: &BTreeSet<usize>,
        dirty: impl Iterator<Item = usize>,
        nbuf: &mut Vec<usize>,
    ) -> bool {
        if !self.graft.greedy_only() {
            return false;
        }
        let cert = &self.certificate;
        for p in dirty {
            if store.is_departed(PeerId(p as u64)) {
                return false;
            }
            let unchanged = if let Some(row) = cert.member_rows.row(p) {
                store.undirected_neighbors_into(p, nbuf);
                nbuf.retain(|j| members.contains(j));
                same_row(row, nbuf)
            } else if let Ok(at) = self.support.binary_search(&p) {
                let target = store.peers()[cert.targets[at] as usize].point();
                let hop = greedy_step_on_store(store, p, target, GRAFT_METRIC, nbuf);
                hop.is_some() && hop == self.build.tree.parent(p)
            } else {
                false
            };
            if !unchanged {
                return false;
            }
        }
        true
    }

    /// This build's graft decisions as the memo of the group's next
    /// graft pass, given `dirty`: a sorted list holding every support
    /// node whose adjacency row may have changed since its hop was
    /// recorded or last re-checked by [`GroupBuild::still_holds`].
    /// `None` when the pass left tier 1 — it recorded no decisions to
    /// replay.
    fn graft_memo<'a>(&'a self, dirty: &'a [usize]) -> Option<GraftMemo<'a>> {
        self.graft.greedy_only().then_some(GraftMemo {
            support: &self.support,
            targets: &self.certificate.targets,
            joined: &self.certificate.joined,
            tree: &self.build.tree,
            dirty,
        })
    }
}

/// The full group-build reference: the member-induced §2 construction
/// ([`build_group_tree_on_store`]) followed by relay grafting
/// ([`crate::graft`]) of every stranded member over the full overlay.
/// This is the definitional function the [`GroupEngine`] must match
/// byte-for-byte after any churn interleaving.
///
/// # Panics
///
/// Panics if `root` is out of range, departed, or not in `members`.
#[must_use]
pub fn build_group_tree_grafted(
    store: &TopologyStore,
    root: usize,
    members: &BTreeSet<usize>,
    partitioner: &dyn ZonePartitioner,
) -> GroupBuild {
    build_group(store, root, members, partitioner, None, None).0
}

/// How much of one group build was taken from the build it replaces.
#[derive(Debug, Clone, Copy, Default)]
struct Replayed {
    splits_replayed: u64,
    splits_recomputed: u64,
    walks_replayed: u64,
    walks_recomputed: u64,
}

/// [`build_group_tree_grafted`], optionally replaying the decisions of
/// the group's previous build — the §2 delegations it `recorded`
/// ([`crate::member_tree`]) and the graft walks of its `memo`
/// ([`crate::graft`]) — plus how much of either it took from there. The
/// build is the same with and without them.
fn build_group(
    store: &TopologyStore,
    root: usize,
    members: &BTreeSet<usize>,
    partitioner: &dyn ZonePartitioner,
    recorded: Option<Recorded>,
    memo: Option<&GraftMemo>,
) -> (GroupBuild, Replayed) {
    let section2 = member_tree(store, root, members, partitioner, recorded);
    let mut build = section2.build;
    let pass = graft_pass(store, &mut build, GRAFT_METRIC, memo);
    let group_build = GroupBuild {
        build,
        graft: pass.report,
        support: pass.support,
        certificate: RepairCertificate {
            member_rows: section2.rows,
            targets: pass.targets,
            joined: pass.joined,
        },
    };
    let replayed = Replayed {
        splits_replayed: section2.splits_replayed,
        splits_recomputed: section2.splits_recomputed,
        walks_replayed: pass.walks_replayed,
        walks_recomputed: pass.walks_recomputed,
    };
    (group_build, replayed)
}

/// One registered group: subscriber set, session root, current tree.
#[derive(Debug, Clone)]
struct Group {
    /// Current session root; `None` while the group has no members.
    root: Option<usize>,
    /// Subscribed live peers (the engine prunes departures), root
    /// included.
    members: BTreeSet<usize>,
    /// The current grafted build; `None` while the group has no
    /// members.
    build: Option<GroupBuild>,
    /// Times this group's tree was recomputed (the locality metric the
    /// bench asserts on: untouched groups stay at their old count).
    rebuilds: u64,
}

/// What one [`GroupEngine::sync`] absorbed and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Deltas replayed from the store's log.
    pub deltas: usize,
    /// Groups examined: those whose members or graft-support nodes
    /// intersected some dirty region. Each was either certified
    /// unchanged or rebuilt exactly once.
    pub affected_groups: usize,
    /// Of which kept their build, rebuild counter and cached delivery
    /// plan because their repair certificate still held.
    pub certified_groups: usize,
    /// Σ member-set sizes over the groups actually rebuilt
    /// (`affected_groups − certified_groups` of them) — the work paid,
    /// versus Σ over *all* groups for a naive engine.
    pub rebuilt_members: usize,
    /// `true` when the engine had fallen out of the delta log's
    /// retention window and resynchronised from full store state.
    pub resynced: bool,
}

/// Cumulative engine counters (for benches and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Store deltas absorbed.
    pub deltas: u64,
    /// Subscribe/unsubscribe operations applied.
    pub membership_ops: u64,
    /// Group-tree rebuilds performed (any cause).
    pub tree_rebuilds: u64,
    /// Σ member-set sizes over all rebuilds.
    pub rebuilt_members: u64,
    /// Delivery *operations* performed: single publishes and flushed
    /// batches each count once (a batch walks its delivery edges once,
    /// however many payloads it carries).
    pub publishes: u64,
    /// Payload copies delivered end-to-end: a single publish adds 1, a
    /// flushed batch adds its queue depth — the throughput numerator
    /// that keeps batched and sequential accounting comparable.
    pub payloads: u64,
    /// Full resyncs forced by delta-log truncation.
    pub full_resyncs: u64,
    /// Graft walks, over all rebuilds, whose target was the one the
    /// group's previous build recorded (see [`crate::graft`]).
    pub graft_walks_replayed: u64,
    /// Graft walks, over all rebuilds, that searched for their target.
    pub graft_walks_recomputed: u64,
    /// §2-reached members, over all rebuilds, whose delegation was the
    /// one the group's previous build recorded: nothing was read or
    /// partitioned for them.
    pub zone_splits_replayed: u64,
    /// §2-reached members, over all rebuilds, whose zone was
    /// partitioned.
    pub zone_splits_recomputed: u64,
}

/// What binding one abstract [`GroupOp`] to the population did (see
/// [`GroupEngine::apply_workload_op`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppliedOp {
    /// A live non-member was subscribed.
    Subscribed(GroupId, PeerId),
    /// A member was unsubscribed.
    Unsubscribed(GroupId, PeerId),
    /// A payload was published.
    Published(GroupId, PublishOutcome),
    /// The op had no valid binding (no candidate peer, dormant group).
    Skipped(GroupId),
}

/// splitmix64 — the deterministic peer picker behind workload binding,
/// so the facade crates need no RNG dependency.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Delivery accounting of one published payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Members the tree delivered to (root included).
    pub delivered: usize,
    /// Surviving members no overlay path could reach (0 whenever the
    /// members share the root's overlay component — relay grafting
    /// covers everything else).
    pub stranded: usize,
    /// Data messages actually sent: tree edges traversed on the union
    /// of root→member delivery paths, **relay hops included** (the old
    /// `delivered − 1` accounting undercounted every payload that rode
    /// a relay).
    pub messages: usize,
    /// The relay share of `messages`: extra edges beyond the one-per-
    /// delivered-member floor — the per-payload overhead of 100%
    /// coverage.
    pub relay_messages: usize,
    /// Payloads this outcome accounts for. Always 1 on the sequential
    /// paths ([`GroupEngine::publish`] and friends); batched delivery
    /// reports through [`crate::dataplane::PublishBatch`] instead, and
    /// this field is what keeps the two accountings comparable.
    pub payloads: usize,
}

impl PublishOutcome {
    /// Data messages per payload carried — 1:1 on sequential publishes,
    /// the batching win otherwise.
    #[must_use]
    pub fn messages_per_payload(&self) -> f64 {
        self.messages as f64 / self.payloads.max(1) as f64
    }
}

/// Copies of the plan numbers one delivery needs — lets the borrow of
/// the plan cache end before the totals are bumped.
#[derive(Debug, Clone, Copy)]
struct PlanMetrics {
    delivered: usize,
    stranded: usize,
    messages: usize,
    relay_messages: usize,
}

/// N concurrent multicast trees kept current over one shared
/// [`TopologyStore`] by consuming its epoch-numbered delta stream.
///
/// All membership mutation goes through the engine ([`GroupEngine::join`]
/// / [`GroupEngine::leave`]) or — for external drivers — through
/// [`GroupEngine::store_mut`] followed by [`GroupEngine::sync`]; either
/// way the engine repairs exactly the groups whose members intersect the
/// absorbed dirty regions.
pub struct GroupEngine {
    store: TopologyStore,
    partitioner: Arc<dyn ZonePartitioner + Send + Sync>,
    groups: Vec<Group>,
    /// Peer index → sorted group ids the peer subscribes to.
    member_of: Vec<Vec<u32>>,
    /// Peer index → sorted ids of the groups whose **current build**
    /// lists the peer in [`GroupBuild::support`] (relays and every other
    /// row the graft discovery consulted). Dirtying a support peer can
    /// reroute a relay path, so support hits trigger repair exactly like
    /// membership hits — relay teardown rides the same delta stream.
    /// Exact: [`GroupEngine::rebuild_group`] moves a group between the
    /// lists of its old and new support in one merge walk, so every
    /// entry is a true hit and `sync` reads it without confirmation.
    /// Relays are support nodes, which makes this the suspects' lookup
    /// too ([`GroupEngine::set_suspects`]).
    support_of: Vec<Vec<u32>>,
    /// Live peers, ascending — the maintained list workload binding
    /// draws from (replacing the per-op O(N) departed-scan).
    live_peers: Vec<usize>,
    /// Repair consumer: cursor over the store's delta log tracking the
    /// last epoch this engine's group/tree state absorbed.
    repair: DeltaCursor,
    /// Flush consumer: cursor advanced by [`GroupEngine::flush_tick`],
    /// letting the data plane observe its own lag behind the store
    /// independently of repair cadence.
    flush: DeltaCursor,
    /// Optional §3 stability forest, refreshed from the same deltas.
    stability: Option<(PreferredPolicy, StabilityForest)>,
    /// Peers currently *suspected* (but not yet declared dead) by the
    /// failure-detection plane. Groups whose root or relays appear here
    /// publish in degraded eager/lazy epidemic mode until the suspicion
    /// resolves (refuted, or dead → removed → re-grafted).
    suspects: BTreeSet<usize>,
    /// Per-group degraded flags, maintained incrementally from
    /// `support_of` on [`GroupEngine::set_suspects`] and per-group on
    /// rebuild — [`GroupEngine::is_degraded`] is an O(1) lookup instead
    /// of a per-publish relay scan.
    degraded: Vec<bool>,
    /// Epoch-keyed delivery plans: steady-state publish is a lookup
    /// plus counter math, invalidated by the `rebuilds` bump every
    /// repair already performs.
    plans: PlanCache,
    /// Per-group queued payload counts awaiting the next flush tick.
    pending: Vec<usize>,
    /// Groups with `pending > 0`, in enqueue order (sorted at flush).
    queued: Vec<u32>,
    /// Control-plane accounting of the most recent epidemic delivery.
    last_epidemic: Option<EpidemicReport>,
    last_sync: SyncReport,
    totals: EngineTotals,
}

impl GroupEngine {
    /// Adopts a store (empty or populated) as the shared substrate.
    #[must_use]
    pub fn new(store: TopologyStore, partitioner: Arc<dyn ZonePartitioner + Send + Sync>) -> Self {
        let member_of = vec![Vec::new(); store.len()];
        let support_of = vec![Vec::new(); store.len()];
        let live_peers: Vec<usize> = (0..store.len())
            .filter(|&i| !store.is_departed(PeerId(i as u64)))
            .collect();
        let repair = DeltaCursor::at("group-repair", store.epoch());
        let flush = DeltaCursor::at("dataplane-flush", store.epoch());
        GroupEngine {
            store,
            partitioner,
            groups: Vec::new(),
            member_of,
            support_of,
            live_peers,
            repair,
            flush,
            stability: None,
            suspects: BTreeSet::new(),
            degraded: Vec::new(),
            plans: PlanCache::default(),
            pending: Vec::new(),
            queued: Vec::new(),
            last_epidemic: None,
            last_sync: SyncReport::default(),
            totals: EngineTotals::default(),
        }
    }

    /// Maintains a §3 stability forest alongside the group trees,
    /// refreshed from the same delta stream (computed from scratch
    /// now).
    // lint:allow(D006, reason = "ROADMAP item 6 names it: that trial decides whether the §3 forest stays in the engine")
    pub fn enable_stability(&mut self, policy: PreferredPolicy) {
        self.stability = Some((policy, preferred_links_on_store(&self.store, policy)));
    }

    /// The shared substrate.
    #[must_use]
    pub fn store(&self) -> &TopologyStore {
        &self.store
    }

    /// Mutable access to the substrate for external churn drivers.
    /// After mutating, call [`GroupEngine::sync`] — the engine catches
    /// up through the delta log exactly as if the mutation had gone
    /// through [`GroupEngine::join`] / [`GroupEngine::leave`].
    pub fn store_mut(&mut self) -> &mut TopologyStore {
        &mut self.store
    }

    /// A group's subscriber set (live peers only; the engine prunes
    /// departures on sync).
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn members(&self, g: GroupId) -> &BTreeSet<usize> {
        &self.groups[g.index()].members
    }

    /// A group's current session root (`None` while it has no members).
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn root(&self, g: GroupId) -> Option<usize> {
        self.groups[g.index()].root
    }

    /// A group's current tree (`None` while it has no members). Relay
    /// grafts are part of the tree; `BuildResult::relays` names them.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn tree(&self, g: GroupId) -> Option<&BuildResult> {
        self.groups[g.index()].build.as_ref().map(|gb| &gb.build)
    }

    /// A group's full build — tree plus graft report and support set
    /// (`None` while it has no members).
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn group_build(&self, g: GroupId) -> Option<&GroupBuild> {
        self.groups[g.index()].build.as_ref()
    }

    /// The group's current relay nodes (empty while dormant or when the
    /// member subgraph alone spans the audience).
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn relays(&self, g: GroupId) -> &[usize] {
        self.groups[g.index()]
            .build
            .as_ref()
            .map_or(&[], |gb| gb.build.relays.as_slice())
    }

    /// How many times a group's tree has been recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn rebuild_count(&self, g: GroupId) -> u64 {
        self.groups[g.index()].rebuilds
    }

    /// Fraction of surviving members the group tree reaches (1.0 for
    /// empty groups — nothing is missing). With relay grafting this is
    /// 1.0 whenever every member shares the root's overlay component.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn coverage(&self, g: GroupId) -> f64 {
        let group = &self.groups[g.index()];
        if group.members.is_empty() {
            return 1.0;
        }
        let build = &group
            .build
            .as_ref()
            .expect("non-empty groups have trees")
            .build;
        let reached = group
            .members
            .iter()
            .filter(|&&m| build.tree.is_reached(m))
            .count();
        reached as f64 / group.members.len() as f64
    }

    /// The maintained stability forest, when enabled.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 6: the reader of what enable_stability maintains; the same trial decides both")
    pub fn stability_forest(&self) -> Option<&StabilityForest> {
        self.stability.as_ref().map(|(_, forest)| forest)
    }

    /// Audits one group against the definitional reference: `true` iff
    /// the incrementally-maintained build — relay grafts included — is
    /// byte-identical to a from-scratch [`build_group_tree_grafted`]
    /// rebuild with the engine's partitioner (dormant groups must have
    /// no tree). The single exactness check every harness reports.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn matches_reference(&self, g: GroupId) -> bool {
        let group = &self.groups[g.index()];
        match group.root {
            Some(root) => {
                let reference = build_group_tree_grafted(
                    &self.store,
                    root,
                    &group.members,
                    self.partitioner.as_ref(),
                );
                group.build.as_ref() == Some(&reference)
            }
            None => group.build.is_none(),
        }
    }

    /// What the last [`GroupEngine::sync`] absorbed.
    #[must_use]
    pub fn last_sync(&self) -> &SyncReport {
        &self.last_sync
    }

    /// Cumulative counters.
    #[must_use]
    pub fn totals(&self) -> &EngineTotals {
        &self.totals
    }

    /// The repair consumer's cursor over the store's delta log
    /// (absorbed deltas and eviction-horizon resync count).
    #[must_use]
    pub fn repair_cursor(&self) -> &DeltaCursor {
        &self.repair
    }

    /// The flush consumer's cursor, advanced once per
    /// [`GroupEngine::flush_tick`].
    #[must_use]
    pub fn flush_cursor(&self) -> &DeltaCursor {
        &self.flush
    }

    /// Registers a new group rooted at (and subscribed by) `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or departed.
    // lint:allow(D006, reason = "the tests' handle on register_group with a chosen root and a one-member audience, the state every subscribe / unsubscribe test starts from; production seeds whole audiences through seed_groups_*")
    pub fn create_group(&mut self, root: PeerId) -> GroupId {
        self.sync();
        self.register_group(root.index(), BTreeSet::from([root.index()]))
    }

    /// Registers a group with its whole initial audience (`root`
    /// included, everyone live) and builds its tree once — what
    /// [`GroupEngine::create_group`] plus one [`GroupEngine::subscribe`]
    /// per further member ends on, without the intermediate trees.
    fn register_group(&mut self, root: usize, members: BTreeSet<usize>) -> GroupId {
        assert!(root < self.store.len(), "root out of range");
        assert!(
            !self.store.is_departed(PeerId(root as u64)),
            "root has departed"
        );
        debug_assert!(members.contains(&root), "the root subscribes");
        let id = GroupId(u32::try_from(self.groups.len()).expect("group count fits u32"));
        for &m in &members {
            // The newest id is the largest: the lists stay sorted.
            self.member_of[m].push(id.0);
        }
        self.totals.membership_ops += members.len() as u64 - 1;
        self.groups.push(Group {
            root: Some(root),
            members,
            build: None,
            rebuilds: 0,
        });
        self.rebuild_group(id.index(), None);
        id
    }

    /// Subscribes a live peer to a group. Returns `false` (and changes
    /// nothing) if it already is a member.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown or `peer` is out of range or departed.
    pub fn subscribe(&mut self, g: GroupId, peer: PeerId) -> bool {
        self.sync();
        let p = peer.index();
        assert!(p < self.store.len(), "peer out of range");
        assert!(!self.store.is_departed(peer), "{peer} has departed");
        let group = &mut self.groups[g.index()];
        if !group.members.insert(p) {
            return false;
        }
        if group.root.is_none() {
            // First subscriber of a dormant group becomes the root.
            group.root = Some(p);
        }
        let ids = &mut self.member_of[p];
        let pos = ids.partition_point(|&x| x < g.0);
        ids.insert(pos, g.0);
        self.totals.membership_ops += 1;
        self.rebuild_group(g.index(), Some(&self.touched_by_membership_of(p)));
        true
    }

    /// Unsubscribes a peer from a group. Returns `false` (and changes
    /// nothing) if it was not a member. When the session root
    /// unsubscribes, the smallest-index surviving member is promoted;
    /// the last member leaving makes the group dormant.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown or `peer` is out of range.
    pub fn unsubscribe(&mut self, g: GroupId, peer: PeerId) -> bool {
        self.sync();
        let p = peer.index();
        assert!(p < self.store.len(), "peer out of range");
        if !self.groups[g.index()].members.remove(&p) {
            return false;
        }
        self.member_of[p].retain(|&x| x != g.0);
        self.totals.membership_ops += 1;
        let group = &mut self.groups[g.index()];
        if group.root == Some(p) {
            group.root = group.members.first().copied();
        }
        self.rebuild_group(g.index(), Some(&self.touched_by_membership_of(p)));
        true
    }

    /// What a subscribe or unsubscribe of `p` touches under a group's
    /// build (sorted): `p` and its overlay neighbours — the
    /// member-induced rows `p` enters or leaves. The engine synced just
    /// before, so no adjacency row has changed under any build.
    fn touched_by_membership_of(&self, p: usize) -> Vec<usize> {
        let mut touched = Vec::new();
        self.store.undirected_neighbors_into(p, &mut touched);
        let at = touched.partition_point(|&q| q < p);
        touched.insert(at, p);
        touched
    }

    /// Inserts a peer into the shared overlay and repairs the affected
    /// groups (a newcomer subscribes to nothing, but its arrival can
    /// rewire member-to-member overlay links).
    pub fn join(&mut self, point: Point) -> PeerId {
        let id = self.store.insert(point);
        self.sync();
        id
    }

    /// Removes a peer from the shared overlay (crash-stop), prunes it
    /// from every group it subscribed to, and repairs the affected
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already departed.
    pub fn leave(&mut self, id: PeerId) {
        self.store.remove(id);
        self.sync();
    }

    /// Publishes one payload over a group's tree and reports delivery.
    /// Returns `None` for dormant (member-less) groups.
    ///
    /// Message cost is the number of tree edges the payload actually
    /// traverses — the union of root→member paths, relay hops included
    /// — read from the group's epoch-keyed [`DeliveryPlan`]: the tree
    /// is walked only when the plan is stale (the group was repaired
    /// since), so steady-state publish is an O(1) lookup plus counter
    /// math however hot the group is.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    pub fn publish(&mut self, g: GroupId) -> Option<PublishOutcome> {
        self.sync();
        let (plan, _hit) = self.plan_metrics(g.index())?;
        self.totals.publishes += 1;
        self.totals.payloads += 1;
        Some(PublishOutcome {
            delivered: plan.delivered,
            stranded: plan.stranded,
            messages: plan.messages,
            relay_messages: plan.relay_messages,
            payloads: 1,
        })
    }

    /// Queues `payloads` copies on a group's per-tick queue; the next
    /// [`GroupEngine::flush_tick`] delivers them as one batch. A no-op
    /// for `payloads == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    pub fn enqueue(&mut self, g: GroupId, payloads: usize) {
        let gi = g.index();
        assert!(gi < self.groups.len(), "unknown {g}");
        if payloads == 0 {
            return;
        }
        if self.pending.len() <= gi {
            self.pending.resize(gi + 1, 0);
        }
        if self.pending[gi] == 0 {
            self.queued.push(g.0);
        }
        self.pending[gi] += payloads;
    }

    /// Payloads currently queued on a group.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn pending(&self, g: GroupId) -> usize {
        assert!(g.index() < self.groups.len(), "unknown {g}");
        self.pending.get(g.index()).copied().unwrap_or(0)
    }

    /// Flushes every group with queued payloads: one [`PublishBatch`]
    /// per group, walking that group's delivery edges **once** — each
    /// frame carries the whole batch, so messages/payload shrinks by
    /// the queue depth. Groups flushed in ascending id order; payloads
    /// queued on groups that went dormant in the meantime are dropped
    /// (there is no audience left to deliver to).
    pub fn flush_tick(&mut self) -> Vec<PublishBatch> {
        // The flush consumer runs at its own cadence: advance its
        // cursor first so `flush_cursor()` reports how many deltas (or
        // resyncs) each data-plane tick absorbed, independently of how
        // often repair ran in between.
        let _ = self.flush.catch_up(self.store.delta_log());
        self.sync();
        let mut due = std::mem::take(&mut self.queued);
        due.sort_unstable();
        let mut batches = Vec::with_capacity(due.len());
        for gid in due {
            let gi = gid as usize;
            let payloads = std::mem::take(&mut self.pending[gi]);
            if payloads == 0 {
                continue;
            }
            if let Some(batch) = self.deliver_batch(gi, payloads) {
                batches.push(batch);
            }
        }
        batches
    }

    /// One batch delivery: plan-driven over the tree, or an eager/lazy
    /// epidemic while the group is degraded (the frames still carry
    /// the whole batch either way).
    fn deliver_batch(&mut self, gi: usize, payloads: usize) -> Option<PublishBatch> {
        let g = GroupId(gi as u32);
        if self.is_degraded(g) {
            let (outcome, report) = self.epidemic_outcome(gi, &BTreeSet::new())?;
            self.last_epidemic = Some(report);
            self.totals.publishes += 1;
            self.totals.payloads += payloads as u64;
            return Some(PublishBatch {
                group: g,
                payloads,
                delivered: outcome.delivered,
                stranded: outcome.stranded,
                messages: outcome.messages,
                relay_messages: outcome.relay_messages,
                cache_hit: false,
            });
        }
        let (plan, cache_hit) = self.plan_metrics(gi)?;
        self.totals.publishes += 1;
        self.totals.payloads += payloads as u64;
        Some(PublishBatch {
            group: g,
            payloads,
            delivered: plan.delivered,
            stranded: plan.stranded,
            messages: plan.messages,
            relay_messages: plan.relay_messages,
            cache_hit,
        })
    }

    /// Plan lookup/compute for one group; `None` while dormant. The
    /// returned metrics are copies (the plan itself stays cached).
    fn plan_metrics(&mut self, gi: usize) -> Option<(PlanMetrics, bool)> {
        let group = &self.groups[gi];
        let gb = group.build.as_ref()?;
        let epoch = group.rebuilds;
        let (plan, hit) = self.plans.get_or_compute(gi, epoch, || {
            DeliveryPlan::compute(&gb.build, &group.members, epoch)
        });
        Some((
            PlanMetrics {
                delivered: plan.delivered,
                stranded: plan.stranded(),
                messages: plan.messages(),
                relay_messages: plan.relay_messages,
            },
            hit,
        ))
    }

    /// Delivery-plan cache hit/miss counters.
    #[must_use]
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.stats()
    }

    /// Control-plane accounting of the most recent epidemic (degraded-
    /// mode) delivery, if any ran.
    #[must_use]
    pub fn last_epidemic(&self) -> Option<&EpidemicReport> {
        self.last_epidemic.as_ref()
    }

    /// Replaces the suspected-peer set supplied by the failure-detection
    /// plane. Suspicion is *soft* state: it changes how groups publish
    /// ([`GroupEngine::is_degraded`]) but not the topology — only a dead
    /// verdict (store removal + [`GroupEngine::sync`]) rewires trees.
    ///
    /// Degraded flags are recomputed here from the suspects' own group
    /// lists — a relay is a support node, so a suspect relays for the
    /// groups of its `support_of` list whose sorted relay set holds it —
    /// O(Σ suspects' group lists), not O(groups × relays), so the
    /// per-publish degradation check stays O(1).
    pub fn set_suspects<I: IntoIterator<Item = usize>>(&mut self, suspects: I) {
        let suspects: BTreeSet<usize> = suspects.into_iter().collect();
        // Every rebuild refreshes its group's flag against the standing
        // set, so the flags already are what the same set would give —
        // and a detection plane reports ∅ after ∅ on most samples.
        if suspects == self.suspects {
            return;
        }
        self.suspects = suspects;
        self.degraded.clear();
        self.degraded.resize(self.groups.len(), false);
        for &s in &self.suspects {
            if let Some(ids) = self.support_of.get(s) {
                for &gid in ids {
                    let build = self.groups[gid as usize].build.as_ref();
                    if build.is_some_and(|gb| gb.build.relays.binary_search(&s).is_ok()) {
                        self.degraded[gid as usize] = true;
                    }
                }
            }
            if let Some(ids) = self.member_of.get(s) {
                for &gid in ids {
                    if self.groups[gid as usize].root == Some(s) {
                        self.degraded[gid as usize] = true;
                    }
                }
            }
        }
    }

    /// The peers currently flagged suspect by the detection plane.
    #[must_use]
    pub fn suspects(&self) -> &BTreeSet<usize> {
        &self.suspects
    }

    /// `true` while `g` must publish in degraded mode: its session root
    /// or one of its relay nodes is currently suspected, so the tree
    /// cannot be trusted to forward. Cleared when the suspicion resolves
    /// — refutation drops the suspect flag, a dead verdict removes the
    /// peer and re-grafts the tree around it.
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    #[must_use]
    pub fn is_degraded(&self, g: GroupId) -> bool {
        assert!(g.index() < self.groups.len(), "unknown {g}");
        self.degraded.get(g.index()).copied().unwrap_or(false)
    }

    /// Publishes like [`GroupEngine::publish`], but measured against
    /// ground truth the engine has *not* yet absorbed: peers in `failed`
    /// neither receive nor forward, so payloads die at crashed interior
    /// nodes exactly as they would on the wire. Groups in degraded mode
    /// ([`GroupEngine::is_degraded`]) switch to the eager/lazy epidemic
    /// ([`crate::dataplane::eager_lazy_deliver`]) instead of trusting
    /// the compromised tree: the tree stays the eager path, and members
    /// it misses recover the payload via IWANT pulls over member-region
    /// overlay links.
    ///
    /// `delivered` counts surviving members only; members in `failed`
    /// count as stranded until the detection plane removes them.
    /// `messages` counts payload-carrying edges that actually succeed.
    ///
    /// With an empty `failed` set and no suspects this is exactly
    /// [`GroupEngine::publish`].
    ///
    /// # Panics
    ///
    /// Panics if `g` is unknown.
    pub fn publish_with_failures(
        &mut self,
        g: GroupId,
        failed: &BTreeSet<usize>,
    ) -> Option<PublishOutcome> {
        self.sync();
        if self.is_degraded(g) {
            let (outcome, report) = self.epidemic_outcome(g.index(), failed)?;
            self.last_epidemic = Some(report);
            self.totals.publishes += 1;
            self.totals.payloads += 1;
            return Some(outcome);
        }
        if failed.is_empty() {
            // Nothing cuts the tree: the walk below would reach what
            // the group's cached delivery plan already counted.
            return self.publish(g);
        }
        let group = &self.groups[g.index()];
        let build = &group.build.as_ref()?.build;
        self.totals.publishes += 1;
        self.totals.payloads += 1;
        let root = group.root?;
        if failed.contains(&root) {
            // The publisher itself is down: nothing leaves the root.
            return Some(PublishOutcome {
                delivered: 0,
                stranded: group.members.len(),
                messages: 0,
                relay_messages: 0,
                payloads: 1,
            });
        }
        // Forwarding stops at failed nodes: walk the tree from the root
        // through surviving nodes only.
        let tree = &build.tree;
        let mut alive_reach = BTreeSet::from([root]);
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &c in tree.children(u) {
                if !failed.contains(&c) {
                    alive_reach.insert(c);
                    queue.push_back(c);
                }
            }
        }
        let live_targets: Vec<usize> = group.members.intersection(&alive_reach).copied().collect();
        let delivered = live_targets.len();
        let messages = tree.delivery_messages(live_targets);
        Some(PublishOutcome {
            delivered,
            stranded: group.members.len() - delivered,
            messages,
            relay_messages: messages - delivered.saturating_sub(1),
            payloads: 1,
        })
    }

    /// Degraded delivery: the Plumtree-shaped eager/lazy epidemic over
    /// the member region ([`crate::dataplane::eager_lazy_deliver`]).
    /// Returns `None` for dormant groups; counters are the caller's
    /// job (batch vs single accounting differs).
    fn epidemic_outcome(
        &self,
        gi: usize,
        failed: &BTreeSet<usize>,
    ) -> Option<(PublishOutcome, EpidemicReport)> {
        let group = &self.groups[gi];
        if group.members.is_empty() {
            return None;
        }
        let gb = group.build.as_ref()?;
        let root = group.root?;
        Some(eager_lazy_deliver(
            &self.store,
            &gb.build,
            &group.members,
            root,
            &self.suspects,
            failed,
        ))
    }

    /// Registers `sizes.len()` groups with Zipf-shaped sizes (see
    /// [`geocast_sim::workload::zipf_group_sizes`]): each group gets
    /// `sizes[g]` distinct live members picked deterministically from
    /// `state` (splitmix64 stream; groups may overlap). The first pick
    /// roots the group. Sizes are capped at the live population. Each
    /// group's tree is built once, over its whole sample.
    ///
    /// # Panics
    ///
    /// Panics if the store has no live peers or a size is zero.
    pub fn seed_groups(&mut self, sizes: &[usize], state: &mut u64) -> Vec<GroupId> {
        self.sync();
        assert!(
            !self.live_peers.is_empty(),
            "cannot seed groups over an empty overlay"
        );
        let mut ids = Vec::with_capacity(sizes.len());
        let mut scratch = self.live_peers.clone();
        for &size in sizes {
            assert!(size > 0, "groups start with at least one member");
            let size = size.min(scratch.len());
            // Partial Fisher–Yates: the first `size` slots become the
            // member sample.
            for k in 0..size {
                let j = k + (splitmix(state) as usize) % (scratch.len() - k);
                scratch.swap(k, j);
            }
            let members = scratch[..size].iter().copied().collect();
            ids.push(self.register_group(scratch[0], members));
        }
        ids
    }

    /// [`GroupEngine::seed_groups`] with **spatially clustered**
    /// membership: each group picks a deterministic random center peer
    /// and subscribes that peer plus its `size − 1` nearest live peers
    /// (L1) — the sensor-cluster / regional-channel shape. The center
    /// roots the group. Clustered members sit densely interconnected in
    /// the overlay, so the member-induced subgraph stays well connected.
    ///
    /// # Panics
    ///
    /// Panics if the store has no live peers or a size is zero.
    pub fn seed_groups_clustered(&mut self, sizes: &[usize], state: &mut u64) -> Vec<GroupId> {
        use geocast_geom::{Metric, MetricKind};
        self.sync();
        assert!(
            !self.live_peers.is_empty(),
            "cannot seed groups over an empty overlay"
        );
        let mut ids = Vec::with_capacity(sizes.len());
        for &size in sizes {
            assert!(size > 0, "groups start with at least one member");
            let live = &self.live_peers;
            let size = size.min(live.len());
            let center = live[(splitmix(state) as usize) % live.len()];
            let cp = self.store.peers()[center].point();
            // The `size` nearest by (distance, index): a selection, not
            // a sort — only the set matters.
            let mut by_dist: Vec<(f64, usize)> = live
                .iter()
                .map(|&i| (MetricKind::L1.dist(self.store.peers()[i].point(), cp), i))
                .collect();
            if size < by_dist.len() {
                by_dist
                    .select_nth_unstable_by(size, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            let mut members: BTreeSet<usize> = by_dist[..size].iter().map(|&(_, i)| i).collect();
            members.insert(center);
            ids.push(self.register_group(center, members));
        }
        ids
    }

    /// [`GroupEngine::seed_groups`] / [`GroupEngine::seed_groups_clustered`]
    /// behind a [`MembershipPlacement`] selector — the scenario knob the
    /// scattered-vs-clustered coverage sweeps turn.
    ///
    /// # Panics
    ///
    /// Panics if the store has no live peers or a size is zero.
    pub fn seed_groups_placed(
        &mut self,
        placement: MembershipPlacement,
        sizes: &[usize],
        state: &mut u64,
    ) -> Vec<GroupId> {
        match placement {
            MembershipPlacement::Scattered => self.seed_groups(sizes, state),
            MembershipPlacement::Clustered => self.seed_groups_clustered(sizes, state),
        }
    }

    /// Binds one abstract workload operation to the population and
    /// applies it: `Subscribe` picks a deterministic live non-member,
    /// `Unsubscribe` a deterministic member, `Publish` publishes.
    /// Unbindable operations (everyone already subscribed, dormant
    /// group) are reported as [`AppliedOp::Skipped`].
    ///
    /// # Panics
    ///
    /// Panics if the op names an unknown group.
    pub fn apply_workload_op(&mut self, op: GroupOp, state: &mut u64) -> AppliedOp {
        let gi = op.group();
        assert!(gi < self.groups.len(), "unknown group {gi}");
        let g = GroupId(gi as u32);
        match op {
            GroupOp::Subscribe { .. } => {
                self.sync();
                let members = &self.groups[gi].members;
                let candidates = self.live_peers.len() - members.len();
                if candidates == 0 {
                    return AppliedOp::Skipped(g);
                }
                let pick = (splitmix(state) as usize) % candidates;
                // Order-statistics over the maintained live list: the
                // pick-th live non-member is live[pick + k] where k
                // counts the members at or below the answer. Members are
                // ascending and always live, so one pass with binary
                // ranks computes it in O(|members| log live) — replacing
                // the old O(N) full-store departed-scan per op while
                // binding byte-identically (asserted by a regression
                // test).
                let mut idx = pick;
                for &m in members {
                    let rank = self.live_peers.partition_point(|&x| x < m);
                    debug_assert_eq!(self.live_peers.get(rank), Some(&m), "members stay live");
                    if rank <= idx {
                        idx += 1;
                    } else {
                        break;
                    }
                }
                let peer = self.live_peers[idx];
                self.subscribe(g, PeerId(peer as u64));
                AppliedOp::Subscribed(g, PeerId(peer as u64))
            }
            GroupOp::Unsubscribe { .. } => {
                self.sync();
                let members = &self.groups[gi].members;
                if members.is_empty() {
                    return AppliedOp::Skipped(g);
                }
                let pick = (splitmix(state) as usize) % members.len();
                let peer = *members.iter().nth(pick).expect("non-empty member set");
                self.unsubscribe(g, PeerId(peer as u64));
                AppliedOp::Unsubscribed(g, PeerId(peer as u64))
            }
            GroupOp::Publish { .. } => match self.publish(g) {
                Some(outcome) => AppliedOp::Published(g, outcome),
                None => AppliedOp::Skipped(g),
            },
        }
    }

    /// Catches up with the store's delta stream: replays every delta
    /// recorded since the engine's last absorbed epoch, prunes departed
    /// members, examines exactly the groups whose members or graft
    /// support intersect the union of dirty regions, and rebuilds those
    /// of them whose [`RepairCertificate`] no longer holds. Falls back
    /// to a full resync when the log has evicted a needed delta.
    ///
    /// Idempotent; called automatically by every mutating engine entry
    /// point.
    pub fn sync(&mut self) {
        let deltas = match self.repair.catch_up(self.store.delta_log()) {
            CursorCatchUp::UpToDate => return,
            CursorCatchUp::Resync => {
                self.full_resync();
                return;
            }
            CursorCatchUp::Deltas(deltas) => deltas,
        };

        // Every (group, dirty peer) pair where the peer is a member or a
        // graft-support node of the group, as of the last sync (a
        // membership op syncs first, so neither relation moves while
        // deltas are replayed — except by the departures below).
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for delta in &deltas {
            self.member_of.resize(self.store.len(), Vec::new());
            self.support_of.resize(self.store.len(), Vec::new());
            for &p in &delta.dirty {
                let peer = p as u32;
                hits.extend(self.member_of[p].iter().map(|&g| (g, peer)));
                // A dirty support node can reroute a relay path. (A
                // grafted member sits in both lists; the dedup below
                // absorbs the repeat.)
                hits.extend(self.support_of[p].iter().map(|&g| (g, peer)));
            }
            match delta.kind {
                DeltaKind::Join(v) => {
                    debug_assert!(self.live_peers.last().is_none_or(|&l| l < v));
                    self.live_peers.push(v);
                }
                DeltaKind::Leave(v) => {
                    debug_assert!(
                        delta.dirty.binary_search(&v).is_ok(),
                        "a departure dirties the departed peer itself"
                    );
                    if let Ok(pos) = self.live_peers.binary_search(&v) {
                        self.live_peers.remove(pos);
                    }
                    // Crash-stop implies unsubscription from everything.
                    for gi in std::mem::take(&mut self.member_of[v]) {
                        let group = &mut self.groups[gi as usize];
                        group.members.remove(&v);
                        if group.root == Some(v) {
                            group.root = group.members.first().copied();
                        }
                    }
                }
            }
            if let Some((policy, forest)) = &mut self.stability {
                forest.refresh_on_store(&self.store, *policy, &delta.dirty);
            }
        }

        // Joins grow the peer universe, but a cached build stores only
        // the peers it reached and answers "unreached" for everyone
        // else, so untouched groups need no upkeep at all. An examined
        // group is rebuilt unless its certificate shows, from the dirty
        // peers' current rows alone, that the rebuild would return the
        // build it already has; a certified group keeps its rebuild
        // counter, and with it its cached delivery plan.
        hits.sort_unstable();
        hits.dedup();
        let mut report = SyncReport {
            deltas: deltas.len(),
            ..SyncReport::default()
        };
        let mut nbuf: Vec<usize> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        for of_group in hits.chunk_by(|a, b| a.0 == b.0) {
            let gi = of_group[0].0 as usize;
            let group = &self.groups[gi];
            report.affected_groups += 1;
            dirty.clear();
            dirty.extend(of_group.iter().map(|&(_, p)| p as usize));
            let certified = group.build.as_ref().is_some_and(|gb| {
                gb.still_holds(
                    &self.store,
                    &group.members,
                    dirty.iter().copied(),
                    &mut nbuf,
                )
            });
            if certified {
                report.certified_groups += 1;
                debug_assert!(
                    self.matches_reference(GroupId(gi as u32)),
                    "group {gi}: certified, yet its from-scratch rebuild differs"
                );
            } else {
                report.rebuilt_members += group.members.len();
                self.rebuild_group(gi, Some(&dirty));
            }
        }
        self.totals.deltas += deltas.len() as u64;
        self.last_sync = report;
    }

    /// The laggard path: reconcile every group against the full store
    /// state (prune departures, rebuild all trees, re-pick the forest).
    /// The repair cursor has already been advanced (and its resync
    /// counted) by [`DeltaCursor::catch_up`]. Nothing says which rows
    /// changed under the old builds, so none of them is replayed.
    fn full_resync(&mut self) {
        self.member_of.resize(self.store.len(), Vec::new());
        self.support_of.resize(self.store.len(), Vec::new());
        self.live_peers = (0..self.store.len())
            .filter(|&i| !self.store.is_departed(PeerId(i as u64)))
            .collect();
        let mut rebuilt_members = 0usize;
        for gi in 0..self.groups.len() {
            let departed: Vec<usize> = self.groups[gi]
                .members
                .iter()
                .copied()
                .filter(|&m| self.store.is_departed(PeerId(m as u64)))
                .collect();
            for v in departed {
                self.groups[gi].members.remove(&v);
                self.member_of[v].retain(|&x| x as usize != gi);
                if self.groups[gi].root == Some(v) {
                    self.groups[gi].root = self.groups[gi].members.first().copied();
                }
            }
            rebuilt_members += self.groups[gi].members.len();
            self.rebuild_group(gi, None);
        }
        if let Some((policy, forest)) = &mut self.stability {
            *forest = preferred_links_on_store(&self.store, *policy);
        }
        self.totals.full_resyncs += 1;
        self.last_sync = SyncReport {
            deltas: 0,
            affected_groups: self.groups.len(),
            certified_groups: 0,
            rebuilt_members,
            resynced: true,
        };
    }

    /// Replaces group `gi`'s build with the one its current members and
    /// the current store define. `touched` lists every peer whose
    /// adjacency row, or whose share of it among the members, may read
    /// differently than under the old build (sorted): the group's dirty
    /// members and support nodes since `sync` last examined it, or the
    /// peer of a membership operation and its neighbours. With it the
    /// §2 construction and the graft pass replay the old build's
    /// decisions ([`crate::member_tree`], [`crate::graft`]); without it
    /// (`None`: no record of what changed) both start from nothing. The
    /// build is the same either way.
    fn rebuild_group(&mut self, gi: usize, touched: Option<&[usize]>) {
        // What coexists while the new build is made, and why. The old
        // tree, support set and graft targets stay until the new graft
        // pass is done: it replays them, and the support index below
        // moves from the old set to the new. The old zones and member
        // rows stay only while the new §2 part is assembled — zones
        // that stand move into the new table (their rectangles are not
        // copied), dropped ones are freed on the way, the old rows go
        // once the new ones are laid out — and are gone before the
        // graft pass allocates. Without `touched` neither is read: both
        // go before anything is built.
        let mut old = self.groups[gi].build.take();
        let section2 = old.as_mut().map(|gb| {
            (
                std::mem::take(&mut gb.build.zones),
                std::mem::take(&mut gb.certificate.member_rows),
            )
        });
        let old_support = old.as_ref().map_or(&[][..], |gb| &gb.support);
        let group = &mut self.groups[gi];
        let Some(root) = group.root else {
            Self::reindex_support(&mut self.support_of, gi, old_support, &[]);
            self.plans.evict(gi);
            self.refresh_degraded(gi);
            return;
        };
        let replay = old.as_ref().zip(touched);
        let memo = replay.and_then(|(gb, touched)| gb.graft_memo(touched));
        let recorded = replay
            .zip(section2)
            .map(|((gb, touched), (zones, rows))| Recorded {
                tree: &gb.build.tree,
                zones,
                rows,
                touched,
            });
        let (build, replayed) = build_group(
            &self.store,
            root,
            &group.members,
            self.partitioner.as_ref(),
            recorded,
            memo.as_ref(),
        );
        debug_assert!(
            replay.is_none()
                || build
                    == build_group_tree_grafted(
                        &self.store,
                        root,
                        &group.members,
                        self.partitioner.as_ref()
                    ),
            "group {gi}: the replayed build differs from its from-scratch rebuild"
        );
        // Support nodes (relays among them) the rebuild no longer reads
        // leave the index, the ones it re-routed through enter it.
        Self::reindex_support(&mut self.support_of, gi, old_support, &build.support);
        let group = &mut self.groups[gi];
        group.build = Some(build);
        group.rebuilds += 1;
        let totals = &mut self.totals;
        totals.tree_rebuilds += 1;
        totals.rebuilt_members += group.members.len() as u64;
        totals.graft_walks_replayed += replayed.walks_replayed;
        totals.graft_walks_recomputed += replayed.walks_recomputed;
        totals.zone_splits_replayed += replayed.splits_replayed;
        totals.zone_splits_recomputed += replayed.splits_recomputed;
        // The rebuilds bump above is exactly what invalidates this
        // group's cached delivery plan; only the degraded flag needs a
        // refresh (the root or relay set may have changed).
        self.refresh_degraded(gi);
    }

    /// Moves group `gi` from the `support_of` lists of `old` to those
    /// of `new` (both sorted): one merge walk that touches only the
    /// peers on one side.
    fn reindex_support(support_of: &mut [Vec<u32>], gi: usize, old: &[usize], new: &[usize]) {
        use std::cmp::Ordering;
        let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
        loop {
            let order = match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(retired), Some(added)) => retired.cmp(added),
            };
            match order {
                Ordering::Equal => {
                    old.next();
                    new.next();
                }
                Ordering::Less => {
                    let ids = &mut support_of[*old.next().expect("peeked")];
                    ids.retain(|&x| x as usize != gi);
                    if ids.is_empty() {
                        // Release the capacity too: most ex-support
                        // nodes (every departed one) never serve again.
                        *ids = Vec::new();
                    }
                }
                Ordering::Greater => {
                    let ids = &mut support_of[*new.next().expect("peeked")];
                    let pos = ids.partition_point(|&x| (x as usize) < gi);
                    ids.insert(pos, gi as u32);
                }
            }
        }
    }

    /// Recomputes one group's degraded flag against the current suspect
    /// set — O(relays) for this group only, called on rebuild.
    fn refresh_degraded(&mut self, gi: usize) {
        if self.degraded.len() <= gi {
            self.degraded.resize(gi + 1, false);
        }
        if self.suspects.is_empty() {
            self.degraded[gi] = false;
            return;
        }
        let group = &self.groups[gi];
        self.degraded[gi] = match group.root {
            Some(root) => {
                self.suspects.contains(&root)
                    || group
                        .build
                        .as_ref()
                        .is_some_and(|gb| gb.build.relays.iter().any(|r| self.suspects.contains(r)))
            }
            None => false,
        };
    }
}

impl std::fmt::Debug for GroupEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupEngine")
            .field("groups", &self.groups.len())
            .field("peers", &self.store.len())
            .field("live", &self.store.live_count())
            .field("repair_epoch", &self.repair.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::OrthantRectPartitioner;
    use crate::stability::preferred_links_on_store;
    use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
    use geocast_overlay::select::EmptyRectSelection;
    use geocast_overlay::PeerInfo;

    fn engine(n: usize, seed: u64) -> GroupEngine {
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()))
    }

    /// Every group's engine-maintained build — relay grafts included —
    /// equals the from-scratch reference, and the support index is the
    /// reverse map of the groups' support sets: every entry a true hit,
    /// no hit missing, dormant groups contributing nothing.
    fn assert_exact(engine: &GroupEngine) {
        let mut support_of = vec![Vec::new(); engine.support_of.len()];
        for gi in 0..engine.groups.len() {
            let g = GroupId(gi as u32);
            for &p in engine.group_build(g).map_or(&[][..], |gb| &gb.support) {
                support_of[p].push(g.0);
            }
            match engine.root(g) {
                Some(root) => {
                    let reference = build_group_tree_grafted(
                        engine.store(),
                        root,
                        engine.members(g),
                        &OrthantRectPartitioner::median(),
                    );
                    assert_eq!(engine.group_build(g), Some(&reference), "{g} diverged");
                }
                None => assert!(engine.tree(g).is_none(), "dormant {g} has a tree"),
            }
        }
        assert_eq!(engine.support_of, support_of);
    }

    /// The merge walk that keeps `support_of`: peers on both sides are
    /// left alone, old-only ones lose the group (and an emptied list its
    /// capacity), new-only ones gain it in id order.
    #[test]
    fn reindex_support_moves_a_group_between_the_lists_of_two_supports() {
        let mut support_of: Vec<Vec<u32>> = vec![Vec::new(); 6];
        // Empty → non-empty, next to other groups' entries.
        support_of[1] = vec![2, 9];
        support_of[3] = vec![9];
        GroupEngine::reindex_support(&mut support_of, 5, &[], &[1, 2, 3]);
        assert_eq!(support_of[1], [2, 5, 9], "inserted in id order");
        assert_eq!(support_of[2], [5]);
        assert_eq!(support_of[3], [5, 9]);
        // 2 is kept, 1 and 3 retire, 0 and 4 enter.
        GroupEngine::reindex_support(&mut support_of, 5, &[1, 2, 3], &[0, 2, 4]);
        let expected: [&[u32]; 6] = [&[5], &[2, 9], &[5], &[9], &[5], &[]];
        assert_eq!(support_of, expected);
        // Non-empty → empty: emptied lists release their allocation.
        GroupEngine::reindex_support(&mut support_of, 5, &[0, 2, 4], &[]);
        let expected: [&[u32]; 6] = [&[], &[2, 9], &[], &[9], &[], &[]];
        assert_eq!(support_of, expected);
        for p in [0, 2, 4] {
            assert_eq!(support_of[p].capacity(), 0, "peer {p}");
        }
    }

    /// Count-based regression (no clock): what a 20-member group's
    /// build retains is bounded by the group, not by the overlay —
    /// members + relays nodes and zones at N = 2k and N = 20k alike —
    /// and a departure leaves nothing behind in the engine's per-peer
    /// tables. (An unoptimised 20k-peer bulk build takes ~15 s, so
    /// debug runs stop at 5k; the release test jobs run the full size.)
    #[test]
    fn a_group_build_retains_members_plus_relays_whatever_the_overlay_size() {
        let large = if cfg!(debug_assertions) {
            5_000
        } else {
            20_000
        };
        for n in [2_000usize, large] {
            let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 9));
            let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
            let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
            let mut state = 0x5eed;
            for placement in [
                MembershipPlacement::Clustered,
                MembershipPlacement::Scattered,
            ] {
                let g = eng.seed_groups_placed(placement, &[20], &mut state)[0];
                let gb = eng.group_build(g).expect("seeded groups have builds");
                let bound = eng.members(g).len() + gb.build.relays.len();
                assert_eq!(eng.members(g).len(), 20);
                assert!(gb.build.stranded.is_empty(), "empty-rect grafts are total");
                assert_eq!(gb.build.tree.reached_count(), bound, "n={n} {placement:?}");
                assert!(gb.build.zones.len() <= bound, "n={n} {placement:?}");
                assert_eq!(gb.build.tree.len(), n, "the universe is a number");
            }
            // A relay that departs releases its per-peer table entries.
            let g = GroupId(1);
            let relay = eng.relays(g)[0];
            assert!(!eng.support_of[relay].is_empty());
            eng.leave(PeerId(relay as u64));
            assert_eq!(eng.support_of[relay].capacity(), 0);
            assert_eq!(eng.member_of[relay].capacity(), 0);
            assert!(eng.matches_reference(g));
        }
    }

    #[test]
    fn full_membership_group_tree_spans_like_the_global_build() {
        let mut eng = engine(50, 3);
        let g = eng.create_group(PeerId(0));
        for p in 1..50u64 {
            eng.subscribe(g, PeerId(p));
        }
        // Every peer is a member: the member-induced subgraph IS the
        // overlay, so the group tree equals the global §2 build.
        let global = crate::builder::build_tree(
            eng.store().peers(),
            &eng.store().graph(),
            0,
            &OrthantRectPartitioner::median(),
        );
        assert_eq!(eng.tree(g), Some(&global));
        assert_eq!(eng.coverage(g), 1.0);
        assert_eq!(eng.tree(g).unwrap().messages, 49);
    }

    #[test]
    fn churn_repairs_only_intersecting_groups() {
        let mut eng = engine(80, 5);
        // Two disjoint groups far apart in id space.
        let a = eng.create_group(PeerId(1));
        for p in [2u64, 3, 4, 5] {
            eng.subscribe(a, PeerId(p));
        }
        let b = eng.create_group(PeerId(70));
        for p in [71u64, 72, 73] {
            eng.subscribe(b, PeerId(p));
        }
        // Churn until some event's dirty region misses one group.
        let mut saw_partial_repair = false;
        for seed in 0..10u64 {
            let p = uniform_points(1, 2, 1000.0, 1000 + seed).into_points();
            eng.join(p.into_iter().next().unwrap());
            assert_exact(&eng);
            if eng.last_sync().affected_groups < 2 {
                saw_partial_repair = true;
            }
        }
        assert!(
            saw_partial_repair,
            "ten joins never spared either group: locality is broken"
        );
    }

    #[test]
    fn member_departure_prunes_and_repairs() {
        let mut eng = engine(60, 7);
        let g = eng.create_group(PeerId(10));
        for p in [20u64, 30, 40] {
            eng.subscribe(g, PeerId(p));
        }
        eng.leave(PeerId(30));
        assert!(!eng.members(g).contains(&30));
        assert_eq!(eng.members(g).len(), 3);
        assert_exact(&eng);
        // The group that lost a member was necessarily affected.
        assert!(eng.last_sync().affected_groups >= 1);
    }

    #[test]
    fn root_departure_promotes_the_smallest_member() {
        let mut eng = engine(40, 9);
        let g = eng.create_group(PeerId(5));
        for p in [17u64, 23] {
            eng.subscribe(g, PeerId(p));
        }
        eng.leave(PeerId(5));
        assert_eq!(eng.root(g), Some(17));
        assert_exact(&eng);
    }

    #[test]
    fn unsubscribing_everyone_makes_the_group_dormant_and_revivable() {
        let mut eng = engine(30, 11);
        let g = eng.create_group(PeerId(2));
        eng.subscribe(g, PeerId(8));
        assert!(eng.unsubscribe(g, PeerId(2)));
        assert_eq!(eng.root(g), Some(8), "root unsubscription promotes");
        assert!(eng.unsubscribe(g, PeerId(8)));
        assert_eq!(eng.root(g), None);
        assert!(eng.tree(g).is_none());
        assert_eq!(eng.coverage(g), 1.0);
        assert!(eng.publish(g).is_none());
        // Revival: the first new subscriber roots the group.
        assert!(eng.subscribe(g, PeerId(4)));
        assert_eq!(eng.root(g), Some(4));
        assert_exact(&eng);
    }

    #[test]
    fn duplicate_membership_ops_are_no_ops() {
        let mut eng = engine(20, 13);
        let g = eng.create_group(PeerId(0));
        assert!(eng.subscribe(g, PeerId(7)));
        let rebuilds = eng.rebuild_count(g);
        assert!(!eng.subscribe(g, PeerId(7)));
        assert!(!eng.unsubscribe(g, PeerId(19)));
        assert_eq!(eng.rebuild_count(g), rebuilds, "no-ops must not rebuild");
    }

    #[test]
    fn external_store_mutation_is_absorbed_on_sync() {
        let mut eng = engine(50, 15);
        let g = eng.create_group(PeerId(0));
        for p in 1..25u64 {
            eng.subscribe(g, PeerId(p));
        }
        // An external driver mutates the store directly.
        eng.store_mut().remove(PeerId(12));
        let p = uniform_points(1, 2, 1000.0, 999).into_points();
        eng.store_mut().insert(p.into_iter().next().unwrap());
        eng.sync();
        assert!(!eng.members(g).contains(&12));
        assert_exact(&eng);
        assert_eq!(eng.last_sync().deltas, 2);
    }

    #[test]
    fn laggards_fall_back_to_full_resync() {
        let mut eng = engine(40, 17);
        let g = eng.create_group(PeerId(0));
        for p in 1..10u64 {
            eng.subscribe(g, PeerId(p));
        }
        eng.store_mut().set_delta_capacity(2);
        // More external events than the log retains.
        for seed in 0..5u64 {
            let p = uniform_points(1, 2, 1000.0, 2000 + seed).into_points();
            eng.store_mut().insert(p.into_iter().next().unwrap());
        }
        eng.store_mut().remove(PeerId(3));
        eng.sync();
        assert!(eng.last_sync().resynced, "truncated log must force resync");
        assert!(!eng.members(g).contains(&3));
        assert_eq!(eng.totals().full_resyncs, 1);
        assert_exact(&eng);
    }

    /// A full resync knows no dirty set — the deltas that would name it
    /// were evicted — so none of its rebuilds replays the build it
    /// replaces, whereas the membership operation after it does.
    #[test]
    fn a_full_resync_replays_nothing() {
        let mut eng = engine(200, 23);
        let g = eng.create_group(PeerId(0));
        for p in [57u64, 113, 181] {
            eng.subscribe(g, PeerId(p));
        }
        assert!(!eng.group_build(g).unwrap().support.is_empty());
        eng.store_mut().set_delta_capacity(2);
        for seed in 0..5u64 {
            let p = uniform_points(1, 2, 1000.0, 3000 + seed).into_points();
            eng.store_mut().insert(p.into_iter().next().unwrap());
        }
        let before = *eng.totals();
        eng.sync();
        assert!(eng.last_sync().resynced);
        let after = *eng.totals();
        assert_eq!(after.tree_rebuilds, before.tree_rebuilds + 1);
        assert_eq!(after.graft_walks_replayed, before.graft_walks_replayed);
        assert_eq!(after.zone_splits_replayed, before.zone_splits_replayed);
        let reached = eng.group_build(g).unwrap().build.zones.len() as u64;
        assert_eq!(
            after.zone_splits_recomputed,
            before.zone_splits_recomputed + reached
        );
        let walks = eng.group_build(g).unwrap().graft.grafted as u64;
        assert!(walks > 0, "the group still needs its grafts");
        assert_eq!(
            after.graft_walks_recomputed,
            before.graft_walks_recomputed + walks
        );
        assert_exact(&eng);

        eng.subscribe(g, PeerId(150));
        let replayed = eng.totals().graft_walks_replayed - after.graft_walks_replayed;
        assert!(replayed > 0, "a membership rebuild replays the old build");
        assert!(eng.totals().zone_splits_replayed > after.zone_splits_replayed);
        assert_exact(&eng);
    }

    /// How many §2 delegations the rebuilds made by `op` took from the
    /// builds they replaced, and how many zones they partitioned.
    fn splits(eng: &mut GroupEngine, op: impl FnOnce(&mut GroupEngine)) -> (u64, u64) {
        let before = *eng.totals();
        op(eng);
        let after = eng.totals();
        (
            after.zone_splits_replayed - before.zone_splits_replayed,
            after.zone_splits_recomputed - before.zone_splits_recomputed,
        )
    }

    /// Peers `0..n` on a diagonal, `extra` after them, everyone
    /// subscribed to one group rooted at peer 0. Consecutive diagonal
    /// peers are each other's only diagonal neighbours, so the §2 tree
    /// over the diagonal is the chain `0 → 1 → … → n − 1`, peer `k`
    /// holding the zone north-east of peer `k − 1`.
    fn subscribed_diagonal(n: u32, extra: &[(f64, f64)]) -> (GroupEngine, GroupId) {
        let mut coords: Vec<(f64, f64)> = (0..n)
            .map(|i| (10.0 * f64::from(i), 10.0 * f64::from(i)))
            .collect();
        coords.extend_from_slice(extra);
        let mut eng = engine_at(&coords);
        let g = eng.create_group(PeerId(0));
        for p in 1..coords.len() {
            eng.subscribe(g, PeerId(p as u64));
        }
        assert_exact(&eng);
        (eng, g)
    }

    fn parents(eng: &GroupEngine, g: GroupId, peers: &[usize]) -> Vec<Option<usize>> {
        let tree = &eng.tree(g).unwrap().tree;
        peers.iter().map(|&p| tree.parent(p)).collect()
    }

    /// The root is every recorded zone's ancestor: when it changes —
    /// the root unsubscribes or departs — nothing of the old §2 tree is
    /// replayed, and the build is still the from-scratch one.
    #[test]
    fn a_changed_root_replays_no_delegation() {
        let (mut eng, g) = subscribed_diagonal(5, &[]);
        let counts = splits(&mut eng, |eng| {
            eng.unsubscribe(g, PeerId(0));
        });
        assert_eq!(eng.root(g), Some(1));
        assert_eq!(counts, (0, 4), "four members, four partitions");
        assert_exact(&eng);
        let counts = splits(&mut eng, |eng| eng.leave(PeerId(1)));
        assert_eq!(eng.root(g), Some(2));
        assert_eq!(counts, (0, 3));
        assert_exact(&eng);
    }

    /// An unsubscribed interior member leaves its recorded subtree
    /// without a delegator. Without another member link the subtree is
    /// stranded (and grafted back through the ex-member as a relay);
    /// with one, the subtree is delegated to from there — the peers
    /// whose zone changed are partitioned again, and a peer that gets
    /// its recorded zone from its recorded parent keeps what it had.
    #[test]
    fn unsubscribing_an_interior_member_strands_or_rehomes_its_subtree() {
        let (mut eng, g) = subscribed_diagonal(5, &[]);
        assert_eq!(
            parents(&eng, g, &[1, 2, 3, 4]),
            [Some(0), Some(1), Some(2), Some(3)]
        );
        let counts = splits(&mut eng, |eng| {
            eng.unsubscribe(g, PeerId(2));
        });
        // 0 replays; 1 lost its only in-zone neighbour; 3 and 4 are
        // reached by no delegation and dropped unvisited.
        assert_eq!(counts, (1, 1));
        let build = eng.tree(g).unwrap();
        assert_eq!(build.zones.len(), 2, "the §2 tree ends at member 1");
        assert_eq!(build.relays, [2]);
        assert_exact(&eng);

        // Peer 5 at (21, 19) is adjacent to 1, 2 and 3 and south-east
        // of 2: the recorded tree is 0 → 1 → 2 → {3 → 4, 5}.
        let (mut eng, g) = subscribed_diagonal(5, &[(21.0, 19.0)]);
        assert_eq!(
            parents(&eng, g, &[1, 2, 3, 4, 5]),
            [Some(0), Some(1), Some(2), Some(3), Some(2)]
        );
        let old_zone_of_4 = eng.tree(g).unwrap().zones.get(4).cloned();
        let counts = splits(&mut eng, |eng| {
            eng.unsubscribe(g, PeerId(2));
        });
        // 1 now delegates to 5, 5 to 3 (a narrower zone than 2 gave
        // it), and 3 to 4 exactly what it delegated before.
        assert_eq!(
            parents(&eng, g, &[1, 3, 4, 5]),
            [Some(0), Some(5), Some(3), Some(1)]
        );
        assert_eq!(counts, (2, 3), "0 and 4 replay; 1, 5 and 3 partition");
        assert_eq!(eng.tree(g).unwrap().zones.get(4).cloned(), old_zone_of_4);
        assert_exact(&eng);
    }

    /// A subscribe that bridges a stranded component: the relay becomes
    /// a member, and the members grafted behind it — support nodes of
    /// the old build, on its tree without a zone — become §2-reached.
    #[test]
    fn a_bridging_subscribe_turns_grafted_members_into_reached_ones() {
        let mut eng = engine_at(&[
            (0.0, 0.0),
            (10.0, 10.0),
            (20.0, 20.0),
            (30.0, 30.0),
            (40.0, 40.0),
        ]);
        let g = eng.create_group(PeerId(0));
        for p in [1u64, 3, 4] {
            eng.subscribe(g, PeerId(p));
        }
        let gb = eng.group_build(g).unwrap();
        assert_eq!(gb.build.zones.len(), 2);
        assert_eq!(
            (&gb.build.relays[..], &gb.support[..]),
            (&[2][..], &[2, 3, 4][..])
        );
        let counts = splits(&mut eng, |eng| {
            eng.subscribe(g, PeerId(2));
        });
        assert_eq!(
            counts,
            (1, 4),
            "0 replays; 1 and the three newcomers partition"
        );
        let gb = eng.group_build(g).unwrap();
        assert_eq!(gb.build.zones.len(), 5);
        assert!(gb.support.is_empty() && gb.build.relays.is_empty());
        assert_exact(&eng);
    }

    /// A join between two members cuts their link. Both are suspects;
    /// the lower one is dropped with its recorded subtree when its
    /// parent stops delegating to it, and is never partitioned.
    #[test]
    fn a_join_that_cuts_a_member_link_drops_the_subtree_below_it() {
        use geocast_geom::Point;
        let (mut eng, g) = subscribed_diagonal(5, &[]);
        let counts = splits(&mut eng, |eng| {
            eng.join(Point::new(vec![15.0, 15.0]).unwrap());
        });
        assert_eq!(
            neighbors(&eng, 1),
            vec![0, 5],
            "1 and 2 are no longer linked"
        );
        assert_eq!(counts, (1, 1), "0 replays, 1 partitions, 2 is not visited");
        let build = eng.tree(g).unwrap();
        assert_eq!(build.zones.len(), 2);
        assert_eq!(build.relays, [5], "the newcomer carries the rest");
        assert_exact(&eng);
    }

    /// A departed leaf costs its parent one partition. A departed
    /// interior member re-links its neighbours: its child is delegated
    /// to by its grandparent with a wider zone — a suspect inside the
    /// orphaned subtree, visited once, through the new delegation — and
    /// the grandchild, delegated what it had, is not visited at all.
    #[test]
    fn a_departed_leaf_and_a_departed_interior_member() {
        let (mut eng, g) = subscribed_diagonal(5, &[]);
        let counts = splits(&mut eng, |eng| eng.leave(PeerId(4)));
        assert_eq!(counts, (3, 1), "only 3 reads a different row");
        assert_exact(&eng);

        let counts = splits(&mut eng, |eng| eng.leave(PeerId(2)));
        assert_eq!(neighbors(&eng, 1), vec![0, 3], "the store re-links 1 and 3");
        assert_eq!(parents(&eng, g, &[1, 3]), [Some(0), Some(1)]);
        assert_eq!(counts, (1, 2), "0 replays; 1 and 3 partition");
        assert_exact(&eng);

        let (mut eng, g) = subscribed_diagonal(5, &[]);
        let counts = splits(&mut eng, |eng| eng.leave(PeerId(2)));
        assert_eq!(parents(&eng, g, &[1, 3, 4]), [Some(0), Some(1), Some(3)]);
        assert_eq!(counts, (2, 2), "0 and 4 replay; 1 and 3 partition");
        assert_exact(&eng);
    }

    #[test]
    fn publish_reports_member_delivery() {
        let mut eng = engine(60, 19);
        let g = eng.create_group(PeerId(0));
        for p in 1..60u64 {
            eng.subscribe(g, PeerId(p));
        }
        let outcome = eng.publish(g).unwrap();
        assert_eq!(outcome.delivered, 60);
        assert_eq!(outcome.stranded, 0);
        assert_eq!(outcome.messages, 59);
    }

    #[test]
    fn stability_forest_tracks_deltas_exactly() {
        let base = uniform_points(40, 2, 1000.0, 21);
        let times = lifetimes(40, 1000.0, 22);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        eng.enable_stability(PreferredPolicy::MaxT);
        for victim in [4u64, 19, 33] {
            eng.leave(PeerId(victim));
            assert_eq!(
                eng.stability_forest().unwrap(),
                &preferred_links_on_store(eng.store(), PreferredPolicy::MaxT),
                "forest diverged after leave {victim}"
            );
        }
    }

    #[test]
    fn scattered_members_are_relay_grafted_to_full_coverage() {
        // A tiny group of far-apart members in a large overlay: their
        // member subgraph is almost surely disconnected, so before the
        // graft layer these members were stranded. Routing-based join
        // must now connect every one (empty-rect overlays are
        // routing-connected) through relay nodes, and the engine must
        // stay byte-identical to the from-scratch grafted reference.
        let mut eng = engine(200, 23);
        let g = eng.create_group(PeerId(0));
        for p in [57u64, 113, 181] {
            eng.subscribe(g, PeerId(p));
        }
        assert_exact(&eng);
        let gb = eng.group_build(g).unwrap();
        assert!(gb.build.stranded.is_empty(), "graft must close coverage");
        assert!(
            !gb.build.relays.is_empty(),
            "far-apart members need relays to connect"
        );
        assert_eq!(eng.coverage(g), 1.0);
        for &r in eng.relays(g) {
            assert!(!eng.members(g).contains(&r), "relays are non-members");
        }
        let outcome = eng.publish(g).unwrap();
        assert_eq!(outcome.delivered, 4);
        assert_eq!(outcome.stranded, 0);
        assert!(
            outcome.relay_messages > 0,
            "relay hops must be accounted in the payload cost"
        );
        assert_eq!(
            outcome.messages,
            outcome.relay_messages + outcome.delivered - 1
        );
    }

    /// The satellite regression: publish cost on a hand-built relay
    /// tree counts actual edges traversed, not `delivered − 1`.
    #[test]
    fn publish_messages_count_relay_edges_on_a_relay_chain() {
        use geocast_geom::Point;
        // A diagonal line: consecutive peers are mutual empty-rect
        // neighbours, the two ends are not. A two-ended group grafts
        // the three middle peers as a relay chain.
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for i in 0..5 {
            store.insert(Point::new(vec![10.0 * f64::from(i), 10.0 * f64::from(i)]).unwrap());
        }
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(4));
        assert_eq!(eng.relays(g), &[1, 2, 3]);
        let outcome = eng.publish(g).unwrap();
        assert_eq!(outcome.delivered, 2);
        assert_eq!(outcome.stranded, 0);
        // Pinned: 4 edges (0-1, 1-2, 2-3, 3-4) carry the payload; the
        // old accounting would have claimed delivered − 1 = 1.
        assert_eq!(outcome.messages, 4);
        assert_eq!(outcome.relay_messages, 3);
        assert_exact(&eng);
    }

    /// Relay teardown: churn under a relay's feet must re-route the
    /// graft (the support index makes the group delta-affected) and
    /// keep the engine byte-identical to the from-scratch reference.
    #[test]
    fn relay_departure_tears_down_and_reroutes_the_graft() {
        use geocast_geom::Point;
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for i in 0..6 {
            store.insert(Point::new(vec![10.0 * f64::from(i), 10.0 * f64::from(i)]).unwrap());
        }
        // An off-diagonal detour peer the reroute can use.
        store.insert(Point::new(vec![21.0, 19.0]).unwrap());
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(5));
        assert_eq!(eng.coverage(g), 1.0);
        let relays: Vec<usize> = eng.relays(g).to_vec();
        assert!(!relays.is_empty());
        // Kill a relay; the group must be repaired (support hit), the
        // relay dropped from the tree, and coverage restored.
        let victim = relays[relays.len() / 2];
        eng.leave(PeerId(victim as u64));
        assert!(
            eng.last_sync().affected_groups >= 1,
            "relay churn must mark the group affected"
        );
        assert!(!eng.relays(g).contains(&victim), "dead relay lingers");
        assert!(!eng.tree(g).unwrap().tree.is_reached(victim));
        assert_eq!(eng.coverage(g), 1.0, "reroute must restore coverage");
        assert_exact(&eng);
    }

    /// Peers at explicit 2-D coordinates under the empty-rectangle rule,
    /// indexed in the order given.
    fn engine_at(coords: &[(f64, f64)]) -> GroupEngine {
        use geocast_geom::Point;
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for &(x, y) in coords {
            store.insert(Point::new(vec![x, y]).unwrap());
        }
        GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()))
    }

    /// `0 —1—2—3— 4` on a diagonal (consecutive peers are overlay
    /// neighbours, no others) with members `{0, 4}`: member 4's join
    /// walks `4→3→2→1→0`, every hop heading for on-tree node 0.
    fn two_ended_diagonal() -> (GroupEngine, GroupId) {
        let coords: Vec<(f64, f64)> = (0..5)
            .map(|i| (10.0 * f64::from(i), 10.0 * f64::from(i)))
            .collect();
        let mut eng = engine_at(&coords);
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(4));
        let gb = eng.group_build(g).unwrap();
        assert_eq!(gb.support, vec![1, 2, 3, 4]);
        assert_eq!(gb.certificate.targets, vec![0, 0, 0, 0]);
        (eng, g)
    }

    fn neighbors(eng: &GroupEngine, p: usize) -> Vec<usize> {
        let mut row = Vec::new();
        eng.store().undirected_neighbors_into(p, &mut row);
        row
    }

    /// Certificate clause 3, both sides of it. A joiner that becomes a
    /// neighbour of a support node changes that node's row; the group
    /// keeps its build, its rebuild counter and its cached plan when the
    /// recorded hop still wins — including on a distance tie, which the
    /// smaller index (never the newcomer) takes — and is re-grafted
    /// through the joiner when the joiner is strictly closer.
    #[test]
    fn a_joiner_next_to_a_support_node_regrafts_only_if_it_wins_the_hop() {
        use geocast_geom::Point;
        // Recorded hop of node 4 is node 3 at (30, 30): 60 from the
        // target in L1. (32, 28) is 60 away too; (31, 28) is 59.
        let (mut eng, g) = two_ended_diagonal();
        eng.publish(g).unwrap();
        let (rebuilds, misses) = (eng.rebuild_count(g), eng.plan_stats().misses);
        let tie = eng.join(Point::new(vec![32.0, 28.0]).unwrap()).index();
        assert!(
            neighbors(&eng, 4).contains(&tie),
            "the joiner must dirty node 4"
        );
        let sync = *eng.last_sync();
        assert_eq!((sync.affected_groups, sync.certified_groups), (1, 1));
        assert_eq!(sync.rebuilt_members, 0);
        assert_eq!(eng.rebuild_count(g), rebuilds);
        assert_eq!(eng.tree(g).unwrap().tree.parent(4), Some(3));
        eng.publish(g).unwrap();
        assert_eq!(
            eng.plan_stats().misses,
            misses,
            "a certified group keeps its plan"
        );
        assert_exact(&eng);

        let (mut eng, g) = two_ended_diagonal();
        let rebuilds = eng.rebuild_count(g);
        let closer = eng.join(Point::new(vec![31.0, 28.0]).unwrap()).index();
        assert!(neighbors(&eng, 4).contains(&closer));
        let sync = *eng.last_sync();
        assert_eq!((sync.affected_groups, sync.certified_groups), (1, 0));
        assert_eq!(sync.rebuilt_members, 2);
        assert_eq!(eng.rebuild_count(g), rebuilds + 1);
        assert_eq!(eng.tree(g).unwrap().tree.parent(4), Some(closer));
        assert_exact(&eng);
    }

    /// Certificate clause 1: a departed member or support node is never
    /// certified around — whether it was a relay in the middle of a
    /// path or the on-tree member a path ended at.
    #[test]
    fn a_departed_hop_or_support_node_always_regrafts() {
        // A support node (relay 2) departs.
        let (mut eng, g) = two_ended_diagonal();
        let rebuilds = eng.rebuild_count(g);
        eng.leave(PeerId(2));
        let sync = *eng.last_sync();
        assert_eq!((sync.affected_groups, sync.certified_groups), (1, 0));
        assert_eq!(eng.rebuild_count(g), rebuilds + 1);
        assert_eq!(eng.relays(g), &[1, 3]);
        assert_exact(&eng);

        // The next hop that departs is the member the walk ended at:
        // with member 1 on the tree, 4 walks 4→3→2→1.
        let (mut eng, g) = two_ended_diagonal();
        eng.subscribe(g, PeerId(1));
        let gb = eng.group_build(g).unwrap();
        assert_eq!(
            (&gb.support[..], &gb.certificate.targets[..]),
            (&[2, 3, 4][..], &[1, 1, 1][..])
        );
        assert_eq!(gb.build.tree.parent(2), Some(1));
        let rebuilds = eng.rebuild_count(g);
        eng.leave(PeerId(1));
        assert_eq!(eng.last_sync().certified_groups, 0);
        assert_eq!(eng.rebuild_count(g), rebuilds + 1);
        assert_eq!(eng.tree(g).unwrap().tree.parent(2), Some(0));
        assert_exact(&eng);
    }

    /// Certificate clause 2: a departure elsewhere makes the store
    /// re-select two members into adjacency. No member or support node
    /// departed and every graft hop still stands, yet the §2
    /// construction now reaches the member directly.
    #[test]
    fn a_reselection_that_links_two_members_rebuilds_the_member_tree() {
        // A = 0 at the origin roots the group; B = 2 sits behind the
        // non-member blocker 1; C = 3 is adjacent to both A and B but
        // lies in another orthant of A than B, so the member tree
        // reaches C only and B is grafted, one hop, onto C.
        let mut eng = engine_at(&[(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (-5.0, 25.0)]);
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(2));
        eng.subscribe(g, PeerId(3));
        let old = eng.group_build(g).unwrap().clone();
        assert_eq!(
            (&old.support[..], &old.certificate.targets[..]),
            (&[2][..], &[3][..])
        );
        assert_eq!(old.certificate.member_rows.row(0), Some(&[3u32][..]));
        assert_eq!(
            old.certificate.member_rows.row(2),
            None,
            "B was not reached"
        );
        let rebuilds = eng.rebuild_count(g);

        eng.store_mut().remove(PeerId(1));
        assert_eq!(neighbors(&eng, 0), vec![2, 3], "A and B are now linked");
        let holds = |dirty: &[usize]| {
            old.still_holds(
                eng.store(),
                eng.members(g),
                dirty.iter().copied(),
                &mut Vec::new(),
            )
        };
        assert!(holds(&[2, 3]), "B's hop and C's row stand");
        assert!(!holds(&[0]), "A's member-induced row gained B");
        eng.sync();
        let sync = *eng.last_sync();
        assert_eq!((sync.affected_groups, sync.certified_groups), (1, 0));
        assert_eq!(eng.rebuild_count(g), rebuilds + 1);
        assert!(
            eng.group_build(g).unwrap().support.is_empty(),
            "no graft needed"
        );
        assert_exact(&eng);
    }

    /// A graft that left tier 1 read rows for other decisions than one
    /// greedy hop: its build is never certified, whatever is dirty.
    #[test]
    fn a_graft_that_used_a_fallback_tier_is_never_certified() {
        use geocast_geom::{Point, PointSet};
        use geocast_overlay::select::HyperplanesSelection;
        // Two clusters far apart under a 1-closest rule: the far member
        // is overlay-disconnected, which only the flood tier can tell.
        let mut points: Vec<Point> = (0..4)
            .map(|i| Point::new(vec![10.0 + f64::from(i), 10.0 + 2.0 * f64::from(i)]).unwrap())
            .collect();
        points.extend((0..3).map(|i| {
            Point::new(vec![5000.0 + f64::from(i), 5000.0 + 2.0 * f64::from(i)]).unwrap()
        }));
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&PointSet::new(points).unwrap()),
            Arc::new(HyperplanesSelection::k_closest(2, 1, MetricKind::L1)),
        );
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(5));
        let gb = eng.group_build(g).unwrap();
        assert!(gb.graft.flood_fallbacks > 0 && !gb.graft.greedy_only());
        assert!(gb.certificate.targets.is_empty());
        assert!(!gb.still_holds(
            eng.store(),
            eng.members(g),
            std::iter::empty(),
            &mut Vec::new(),
        ));
        // Through the engine: every sync that examines the group
        // rebuilds it.
        let mut examined = 0;
        for i in 0..6 {
            let near = Point::new(vec![12.5 + f64::from(i), 11.0 + 3.0 * f64::from(i)]).unwrap();
            eng.join(near);
            examined += eng.last_sync().affected_groups;
            assert_eq!(eng.last_sync().certified_groups, 0);
            assert_exact(&eng);
        }
        assert!(examined > 0, "some join must have touched the group");
    }

    /// The affected-group lookup (`member_of` ∪ `support_of`) examines
    /// exactly the groups the definitional scan over every group's
    /// members ∪ support finds, across join and leave churn — and
    /// rebuilds none outside them.
    #[test]
    fn affected_groups_match_the_reference_scan() {
        let mut eng = engine(200, 49);
        // Clustered groups (support close to the members) plus a
        // scattered group whose relay grafts spread support across the
        // whole domain.
        let mut state = 11u64;
        eng.seed_groups_clustered(&[15, 10, 8], &mut state);
        let wide = eng.create_group(PeerId(2));
        for p in [61u64, 119, 190] {
            eng.subscribe(wide, PeerId(p));
        }
        for step in 0..30u64 {
            // One store event per sync keeps the engine's replay state
            // equal to the pre-sync snapshot the reference scan reads.
            let before: Vec<u64> = (0..eng.groups.len())
                .map(|gi| eng.rebuild_count(GroupId(gi as u32)))
                .collect();
            let snapshot: Vec<(BTreeSet<usize>, Vec<usize>)> = (0..eng.groups.len())
                .map(|gi| {
                    let g = GroupId(gi as u32);
                    (
                        eng.members(g).clone(),
                        eng.group_build(g)
                            .map_or(Vec::new(), |gb| gb.support.clone()),
                    )
                })
                .collect();
            if step % 3 == 2 {
                let victim = PeerId((step * 13) % 200);
                if eng.store().is_departed(victim) {
                    continue;
                }
                eng.store_mut().remove(victim);
            } else {
                let p = uniform_points(1, 2, 1000.0, 4000 + step).into_points();
                eng.store_mut().insert(p.into_iter().next().unwrap());
            }
            let dirty = eng.store().delta_log().newest().unwrap().dirty.clone();
            let expected: BTreeSet<usize> = snapshot
                .iter()
                .enumerate()
                .filter(|(_, (members, support))| {
                    dirty
                        .iter()
                        .any(|p| members.contains(p) || support.binary_search(p).is_ok())
                })
                .map(|(gi, _)| gi)
                .collect();
            eng.sync();
            let rebuilt: BTreeSet<usize> = (0..eng.groups.len())
                .filter(|&gi| eng.rebuild_count(GroupId(gi as u32)) > before[gi])
                .collect();
            let sync = *eng.last_sync();
            assert_eq!(sync.affected_groups, expected.len(), "step {step}");
            assert!(
                rebuilt.is_subset(&expected),
                "step {step}: rebuilt an untouched group"
            );
            assert_eq!(rebuilt.len() + sync.certified_groups, expected.len());
            assert_exact(&eng);
        }
    }

    /// The satellite regression: workload Subscribe binding from the
    /// maintained live-peer list picks byte-identically to the old
    /// O(N) full-store departed-scan, for a fixed splitmix seed.
    #[test]
    fn subscribe_binding_matches_the_reference_scan() {
        use geocast_sim::workload::GroupOp;
        let mut eng = engine(120, 41);
        let g = eng.create_group(PeerId(3));
        for p in [10u64, 20, 30, 40, 50] {
            eng.subscribe(g, PeerId(p));
        }
        // Interleave churn so live ≠ 0..N and tombstones exist.
        for gone in [7u64, 45, 90] {
            eng.leave(PeerId(gone));
        }
        let mut state = 0xfeed_5eedu64;
        let mut reference_state = state;
        for step in 0..40 {
            // Reference: the pre-satellite binding, replicated verbatim
            // over the store (O(N) scan with departed checks).
            let members = eng.members(g).clone();
            let candidates = eng.store().live_count() - members.len();
            let expected = if candidates == 0 {
                None
            } else {
                let pick = (splitmix(&mut reference_state) as usize) % candidates;
                (0..eng.store().len())
                    .filter(|&i| {
                        !eng.store().is_departed(PeerId(i as u64)) && !members.contains(&i)
                    })
                    .nth(pick)
            };
            let got = eng.apply_workload_op(GroupOp::Subscribe { group: 0 }, &mut state);
            match (expected, got) {
                (Some(peer), AppliedOp::Subscribed(_, bound)) => {
                    assert_eq!(bound, PeerId(peer as u64), "step {step} diverged");
                }
                (None, AppliedOp::Skipped(_)) => {}
                (want, got) => panic!("step {step}: want {want:?}, got {got:?}"),
            }
            assert_eq!(state, reference_state, "step {step}: RNG streams diverged");
        }
    }

    #[test]
    fn seeded_workloads_bind_deterministically() {
        use geocast_sim::workload::{zipf_group_sizes, GroupOp, GroupWorkload};
        let build = |seed: u64| {
            let mut eng = engine(60, 29);
            let mut state = seed;
            let ids = eng.seed_groups(&zipf_group_sizes(6, 60, 1.0), &mut state);
            assert_eq!(ids.len(), 6);
            let wl = GroupWorkload {
                groups: 6,
                exponent: 1.0,
                events: 40,
                subscribe_weight: 2,
                unsubscribe_weight: 1,
                publish_weight: 1,
            };
            for op in wl.ops(seed) {
                eng.apply_workload_op(op, &mut state);
            }
            (0..6)
                .map(|gi| eng.members(GroupId(gi)).clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(3), build(3), "same seed, same memberships");
        assert_ne!(build(3), build(4), "different seed, different run");

        // Zipf head outweighs the tail at seeding time.
        let mut eng = engine(80, 31);
        let mut state = 1u64;
        let ids = eng.seed_groups(&zipf_group_sizes(8, 160, 1.2), &mut state);
        assert!(eng.members(ids[0]).len() > eng.members(ids[7]).len());
        assert_exact(&eng);
        // Workload binding skips gracefully when everyone subscribed.
        let mut eng = engine(3, 33);
        let g = eng.create_group(PeerId(0));
        for p in [1u64, 2] {
            eng.subscribe(g, PeerId(p));
        }
        let got = eng.apply_workload_op(GroupOp::Subscribe { group: 0 }, &mut state);
        assert_eq!(got, AppliedOp::Skipped(g));
    }

    #[test]
    fn clustered_seeding_yields_well_connected_groups() {
        let mut eng = engine(150, 35);
        let mut state = 7u64;
        let ids = eng.seed_groups_clustered(&[20, 20, 20], &mut state);
        assert_exact(&eng);
        for &g in &ids {
            assert_eq!(eng.members(g).len(), 20);
            assert_eq!(
                eng.coverage(g),
                1.0,
                "{g}: relay grafting must close clustered coverage"
            );
        }
        // Placement dispatch drives the same seeders.
        use geocast_sim::workload::MembershipPlacement;
        let mut eng2 = engine(150, 35);
        let mut state2 = 7u64;
        let scattered =
            eng2.seed_groups_placed(MembershipPlacement::Scattered, &[10, 10], &mut state2);
        for &g in &scattered {
            assert_eq!(eng2.coverage(g), 1.0, "{g}: scattered coverage must close");
        }
        assert_exact(&eng2);
    }

    #[test]
    fn publish_with_failures_degenerates_to_publish_when_healthy() {
        let mut eng = engine(50, 37);
        let g = eng.create_group(PeerId(0));
        for p in [5u64, 12, 33, 44] {
            eng.subscribe(g, PeerId(p));
        }
        let plain = eng.publish(g).unwrap();
        let mut want = *eng.totals();
        let with = eng.publish_with_failures(g, &BTreeSet::new()).unwrap();
        assert_eq!(plain, with, "empty failure set must change nothing");
        want.publishes += 1;
        want.payloads += 1;
        assert_eq!(*eng.totals(), want, "and must count as one publish");
        // The walk over a cut tree and the cached plan agree where they
        // meet: a failure outside the tree cuts nothing.
        let outsider = (0..50)
            .find(|p| !eng.group_build(g).unwrap().build.tree.is_reached(*p))
            .expect("a 5-member tree leaves peers out");
        let walked = eng.publish_with_failures(g, &BTreeSet::from([outsider]));
        assert_eq!(walked, Some(plain));
    }

    #[test]
    fn re_announcing_the_same_suspects_changes_no_flag() {
        let mut eng = engine(60, 41);
        let mut state = 7u64;
        let ids = eng.seed_groups_clustered(&[10, 10, 10, 10], &mut state);
        let flags =
            |eng: &GroupEngine| -> Vec<bool> { ids.iter().map(|&g| eng.is_degraded(g)).collect() };
        // A root and a relay, so both ways into degraded mode are live.
        let root = eng.root(ids[0]).unwrap();
        let relay = ids.iter().find_map(|&g| eng.relays(g).first().copied());
        let suspects: BTreeSet<usize> = [root].into_iter().chain(relay).collect();
        eng.set_suspects(suspects.iter().copied());
        let first = flags(&eng);
        assert!(first[0], "a suspected root degrades its group");
        eng.set_suspects(suspects.iter().copied());
        assert_eq!(flags(&eng), first, "same set, same flags");
        // Across a repair too: the rebuilds refreshed their own flags,
        // so the same set announced again finds nothing to correct —
        // what a from-scratch recomputation (∅, then the set) confirms.
        eng.store_mut().remove_if_present(PeerId(root as u64));
        eng.sync();
        let repaired = flags(&eng);
        eng.set_suspects(suspects.iter().copied());
        assert_eq!(flags(&eng), repaired);
        eng.set_suspects(std::iter::empty());
        assert!(flags(&eng).iter().all(|&d| !d));
        eng.set_suspects(suspects.iter().copied());
        assert_eq!(flags(&eng), repaired, "the standing flags were exact");
    }

    #[test]
    fn failed_interior_node_strands_its_downstream_members() {
        use geocast_geom::Point;
        // The diagonal relay chain again: 0 —1—2—3— 4 with members
        // {0, 4}. Failing relay 2 kills every payload before it reaches
        // member 4, and no message past the break is charged.
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for i in 0..5 {
            store.insert(Point::new(vec![10.0 * f64::from(i), 10.0 * f64::from(i)]).unwrap());
        }
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(4));
        assert_eq!(eng.relays(g), &[1, 2, 3]);
        let outcome = eng.publish_with_failures(g, &BTreeSet::from([2])).unwrap();
        assert_eq!(outcome.delivered, 1, "only the root still hears itself");
        assert_eq!(outcome.stranded, 1, "the far member is cut off");
        // A failed *root* delivers nothing at all.
        let outcome = eng.publish_with_failures(g, &BTreeSet::from([0])).unwrap();
        assert_eq!((outcome.delivered, outcome.messages), (0, 0));
        assert_eq!(outcome.stranded, 2);
    }

    #[test]
    fn suspected_root_flips_the_group_into_degraded_epidemic() {
        let mut eng = engine(40, 39);
        let g = eng.create_group(PeerId(0));
        for p in 1..40u64 {
            eng.subscribe(g, PeerId(p));
        }
        assert!(!eng.is_degraded(g));
        eng.set_suspects([0usize]);
        assert!(eng.is_degraded(g), "a suspected root degrades the group");
        // The suspected root is not trusted to forward: the eager phase
        // parks immediately and lazy IWANT pulls must carry everyone —
        // full coverage at one payload copy per member, far below the
        // old region flood's every-eligible-edge cost.
        let outcome = eng.publish_with_failures(g, &BTreeSet::new()).unwrap();
        assert_eq!(outcome.delivered, 40);
        assert_eq!(outcome.stranded, 0);
        let report = *eng
            .last_epidemic()
            .expect("degraded publish ran the epidemic");
        assert_eq!(report.eager_messages, 0, "a suspect root pushes nothing");
        assert_eq!(report.iwant_pulls, 39, "every other member pulls once");
        assert!(report.ihave_digests > 0, "digests are the control cost");
        let flood =
            crate::dataplane::flood_deliver(eng.store(), eng.members(g), Some(0), &BTreeSet::new());
        assert_eq!(flood.delivered, 40, "same reachable set as the old flood");
        assert!(
            outcome.messages < flood.messages,
            "epidemic payload copies ({}) must undercut the flood ({})",
            outcome.messages,
            flood.messages
        );
        // Refutation clears the flag and restores tree publishing.
        eng.set_suspects(std::iter::empty());
        assert!(!eng.is_degraded(g));
        let outcome = eng.publish_with_failures(g, &BTreeSet::new()).unwrap();
        assert_eq!(outcome.messages, 39);
    }

    #[test]
    fn degraded_epidemic_survives_a_failed_root() {
        let mut eng = engine(40, 43);
        let g = eng.create_group(PeerId(0));
        for p in 1..40u64 {
            eng.subscribe(g, PeerId(p));
        }
        // Ground truth: the root is actually down, and the detector has
        // it suspected but not yet declared dead.
        eng.set_suspects([0usize]);
        let failed = BTreeSet::from([0]);
        let outcome = eng.publish_with_failures(g, &failed).unwrap();
        assert_eq!(
            outcome.delivered, 39,
            "the epidemic re-seeds at a surviving member"
        );
        assert_eq!(outcome.stranded, 1, "only the dead root is missing");
        // All members down: nothing can be published.
        let everyone: BTreeSet<usize> = (0..40).collect();
        let outcome = eng.publish_with_failures(g, &everyone).unwrap();
        assert_eq!((outcome.delivered, outcome.messages), (0, 0));
    }

    /// The satellite regression: a batch of one is byte-identical to a
    /// plain publish, and the plan cache serves steady-state repeats.
    #[test]
    fn batch_of_one_equals_publish_and_the_plan_cache_serves_repeats() {
        let mut eng = engine(60, 45);
        let g = eng.create_group(PeerId(0));
        for p in (1..60u64).step_by(2) {
            eng.subscribe(g, PeerId(p));
        }
        let single = eng.publish(g).unwrap();
        eng.enqueue(g, 1);
        let batch = eng.flush_tick().pop().unwrap();
        assert_eq!(batch.delivered, single.delivered);
        assert_eq!(batch.stranded, single.stranded);
        assert_eq!(batch.messages, single.messages);
        assert_eq!(batch.relay_messages, single.relay_messages);
        assert_eq!(batch.payloads, single.payloads);
        assert!((batch.messages_per_payload() - single.messages_per_payload()).abs() < 1e-12);
        assert!(batch.cache_hit, "the publish above warmed the plan");
        // Steady state: no churn between publishes → only the first
        // lookup computes.
        let stats = eng.plan_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        for _ in 0..10 {
            eng.publish(g).unwrap();
        }
        assert_eq!(eng.plan_stats().hits, 11);
        // A repair invalidates: the next publish recomputes, and its
        // numbers match the definitional tree walk.
        eng.subscribe(g, PeerId(2));
        let fresh = eng.publish(g).unwrap();
        assert_eq!(eng.plan_stats().misses, 2);
        let build = eng.tree(g).unwrap();
        assert_eq!(
            fresh.messages,
            build.tree.delivery_messages(eng.members(g).iter().copied())
        );
        // Accounting: publishes counts operations, payloads counts copies.
        assert_eq!(eng.totals().publishes, 13);
        assert_eq!(eng.totals().payloads, 13);
    }

    #[test]
    fn flush_tick_batches_queued_payloads_per_group() {
        let mut eng = engine(80, 47);
        let mut state = 5u64;
        let ids = eng.seed_groups_clustered(&[30, 12, 6], &mut state);
        eng.enqueue(ids[0], 64);
        eng.enqueue(ids[2], 3);
        eng.enqueue(ids[0], 6); // coalesces with the earlier 64
        assert_eq!(eng.pending(ids[0]), 70);
        let singles: Vec<PublishOutcome> = ids.iter().map(|&g| eng.publish(g).unwrap()).collect();
        let batches = eng.flush_tick();
        assert_eq!(batches.len(), 2, "only queued groups flush");
        assert_eq!(eng.pending(ids[0]), 0, "flushing drains the queue");
        let b0 = batches.iter().find(|b| b.group == ids[0]).unwrap();
        assert_eq!(b0.payloads, 70);
        assert_eq!(b0.delivered, singles[0].delivered, "same member set");
        assert_eq!(b0.messages, singles[0].messages, "edges walked once");
        assert!(
            b0.messages_per_payload() < singles[0].messages_per_payload() / 50.0,
            "a 70-deep batch must collapse messages/payload"
        );
        let b2 = batches.iter().find(|b| b.group == ids[2]).unwrap();
        assert_eq!(b2.payloads, 3);
        assert_eq!(b2.messages, singles[2].messages);
        assert!(eng.flush_tick().is_empty(), "nothing left queued");
        use crate::dataplane::FlushReport;
        let mut report = FlushReport::default();
        for b in &batches {
            report.absorb(b);
        }
        assert_eq!(report.payloads, 73);
        assert_eq!(report.batches, 2);
        assert!(report.reduction() > 10.0);
        assert!(
            report.cache_hit_rate() > 0.99,
            "publishes warmed both plans"
        );
    }

    /// Lazy recovery during a suspicion window: payloads published while
    /// a relay is suspected reach 100% of the members via IWANT pulls,
    /// batched flushes included.
    #[test]
    fn flush_during_suspicion_recovers_full_coverage_via_pulls() {
        let mut eng = engine(200, 23);
        let g = eng.create_group(PeerId(0));
        for p in [57u64, 113, 181] {
            eng.subscribe(g, PeerId(p));
        }
        let relay = eng.relays(g)[0];
        eng.set_suspects([relay]);
        assert!(eng.is_degraded(g), "a suspected relay degrades the group");
        eng.enqueue(g, 16);
        let batches = eng.flush_tick();
        assert_eq!(batches.len(), 1);
        let batch = batches[0];
        assert_eq!(batch.payloads, 16);
        assert_eq!(batch.delivered, 4, "coverage stays 100% while degraded");
        assert_eq!(batch.stranded, 0);
        assert!(!batch.cache_hit, "epidemic delivery bypasses the plan");
        let report = eng.last_epidemic().unwrap();
        assert!(
            report.iwant_pulls > 0,
            "members past the suspect recover via pulls"
        );
    }

    #[test]
    fn suspected_relay_also_degrades_and_dead_verdict_recovers() {
        use geocast_geom::Point;
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for i in 0..5 {
            store.insert(Point::new(vec![10.0 * f64::from(i), 10.0 * f64::from(i)]).unwrap());
        }
        // A detour peer so the re-graft can route around a dead relay.
        store.insert(Point::new(vec![21.0, 19.0]).unwrap());
        let mut eng = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(4));
        let relay = eng.relays(g)[1];
        eng.set_suspects([relay]);
        assert!(eng.is_degraded(g), "a suspected relay degrades the group");
        // The dead verdict lands: the store removes the peer, the group
        // re-grafts around it, and the suspicion is retired — the group
        // publishes over the repaired tree again.
        eng.store_mut().remove_if_present(PeerId(relay as u64));
        eng.set_suspects(std::iter::empty());
        eng.sync();
        assert!(!eng.is_degraded(g));
        assert!(!eng.relays(g).contains(&relay));
        assert_eq!(eng.coverage(g), 1.0, "repair must restore coverage");
        assert_exact(&eng);
    }

    /// Suspects find their groups through `support_of`, which lists the
    /// grafted members next to the relays that carry them: only a
    /// support node that is a relay degrades the group.
    #[test]
    fn suspected_grafted_member_does_not_degrade_but_a_suspected_relay_does() {
        // The diagonal chain plus a detour peer for the re-graft.
        let mut eng = engine_at(&[
            (0.0, 0.0),
            (10.0, 10.0),
            (20.0, 20.0),
            (30.0, 30.0),
            (40.0, 40.0),
            (21.0, 19.0),
        ]);
        let g = eng.create_group(PeerId(0));
        eng.subscribe(g, PeerId(4));
        let gb = eng.group_build(g).unwrap();
        assert!(gb.support.contains(&4) && !gb.build.relays.contains(&4));
        eng.set_suspects([4usize]);
        assert!(!eng.is_degraded(g), "a grafted member forwards for no one");
        let relay = eng.relays(g)[1];
        eng.set_suspects([4, relay]);
        assert!(eng.is_degraded(g), "a suspected relay degrades the group");
        // The relay's dead verdict lands while both are still suspected:
        // the re-graft routes around it, and re-announcing the suspects
        // finds it in no support set any more.
        eng.store_mut().remove_if_present(PeerId(relay as u64));
        eng.sync();
        assert!(!eng.is_degraded(g));
        assert!(eng.support_of[relay].is_empty());
        eng.set_suspects([4, relay]);
        assert!(!eng.is_degraded(g));
        // The member's dead verdict: crash-stop unsubscribes it.
        eng.store_mut().remove_if_present(PeerId(4));
        eng.sync();
        eng.set_suspects([4usize]);
        assert!(!eng.is_degraded(g));
        assert_exact(&eng);
    }

    #[test]
    #[should_panic(expected = "has departed")]
    fn subscribing_a_departed_peer_is_rejected() {
        let mut eng = engine(10, 25);
        let g = eng.create_group(PeerId(0));
        eng.leave(PeerId(5));
        eng.subscribe(g, PeerId(5));
    }

    #[test]
    #[should_panic(expected = "root must be a member")]
    fn reference_build_rejects_non_member_roots() {
        let eng = engine(10, 27);
        let members = BTreeSet::from([1usize, 2]);
        let _ =
            build_group_tree_on_store(eng.store(), 0, &members, &OrthantRectPartitioner::median());
    }
}
