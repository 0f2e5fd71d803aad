//! The data plane: batched, cache-aware payload delivery over group
//! trees, plus the eager/lazy epidemic fallback for suspicion windows.
//!
//! The control plane ([`crate::groups::GroupEngine`]) keeps N grafted
//! trees byte-identical to their from-scratch references; this module
//! makes *publishing over them* cheap:
//!
//! * **[`DeliveryPlan`]** — a group's delivery structure reduced to the
//!   numbers publish needs: the reached-member count and the number of
//!   delivery edges (the union of root→member paths, relay hops
//!   included). The engine reads them off counts its build already
//!   holds (members less the stranded, reached nodes less the root);
//!   [`DeliveryPlan::compute`], one walk of the tree, is their
//!   definition. Publishing from a plan walks nothing.
//! * **[`PlanCache`]** — plans keyed by the group's *rebuild epoch*
//!   (`Group::rebuilds`). `rebuild_group` increments that counter on
//!   exactly the events that can change a delivery path — membership
//!   change, churn repair, relay re-route — so a plan is valid iff its
//!   stored epoch still matches, and steady-state publish is an O(1)
//!   lookup. No explicit invalidation hooks to forget.
//! * **[`PublishBatch`]** — the one delivery record. A flush sends
//!   **one frame per delivery edge carrying all K queued payloads**, so
//!   `messages` stays at the plan's edge count while `payloads` scales
//!   with the batch: messages/payload drops by the batch factor. A
//!   single [`crate::groups::GroupEngine::publish`] is a batch of one
//!   through the same delivery path.
//! * **[`eager_lazy_deliver`]** — the Plumtree-shaped degraded mode.
//!   The grafted tree is the *eager* push path; overlay links among
//!   peers in the member region carry *lazy* IHAVE digests; nodes the
//!   eager push missed (payload parked at a suspect, or cut by a
//!   not-yet-detected failure) recover the payload with an IWANT pull
//!   from the first digest they hear. Same reachable set as the old
//!   flood-within-region — at a payload cost of one copy per recovered
//!   node instead of one copy per region edge.

use std::collections::{BTreeSet, VecDeque};

use geocast_geom::{Interval, Rect};
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};

use crate::groups::GroupId;
use crate::member_tree::BuildResult;

/// A group's delivery structure, precomputed as counts: everything a
/// publish needs to account for itself without touching the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// The group's rebuild count when this plan was computed. The plan
    /// is valid exactly while the group's `rebuilds` counter still
    /// equals this — any tree or graft repair bumps it.
    pub epoch: u64,
    /// Member-set size at computation time (changes force a rebuild,
    /// so this is current whenever `epoch` matches).
    pub members: usize,
    /// Members the tree reaches (root included).
    pub delivered: usize,
    /// Delivery edges: one per node on the union of root→member paths
    /// (the edge to its parent carries the payload) — the per-payload
    /// message cost.
    pub messages: usize,
}

impl DeliveryPlan {
    /// The plan of a group build from counts the build already holds:
    /// every member it does not strand is delivered to, and every
    /// reached node but the root carries the payload, since a relay is
    /// on the path of the member it was grafted for. What
    /// [`DeliveryPlan::compute`] walks the tree for, on every build of
    /// [`crate::groups::GroupEngine`]; debug builds assert the two equal.
    pub(crate) fn counted(build: &BuildResult, members: usize, epoch: u64) -> Self {
        DeliveryPlan {
            epoch,
            members,
            delivered: members - build.stranded.len(),
            messages: build.tree.reached_count() - 1,
        }
    }

    /// The definition of a plan: walks the build once, marks the union
    /// of root→member delivery paths and counts its edges.
    #[must_use]
    pub fn compute(build: &BuildResult, members: &BTreeSet<usize>, epoch: u64) -> Self {
        let tree = &build.tree;
        let root = tree.root();
        // One mark per *reached* peer: plan computation costs by the
        // tree's size, not the overlay's.
        let reached = tree.reached();
        let mut on_path = vec![false; reached.len()];
        let mut delivered = 0usize;
        let mut messages = 0usize;
        // Members and reached peers both ascend: one merge walk finds
        // every member's slot, and parents are slots already.
        let mut next = 0usize;
        for &m in members {
            while reached.get(next).is_some_and(|&r| r < m) {
                next += 1;
            }
            if reached.get(next) != Some(&m) {
                continue;
            }
            delivered += 1;
            let mut slot = next;
            while reached[slot] != root && !on_path[slot] {
                on_path[slot] = true;
                messages += 1;
                slot = tree
                    .parent_slot(slot)
                    .expect("reached non-root nodes have parents");
            }
        }
        DeliveryPlan {
            epoch,
            members: members.len(),
            delivered,
            messages,
        }
    }
}

/// Hit/miss counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Lookups answered by a still-valid cached plan.
    pub hits: u64,
    /// Lookups that had to (re)compute the plan.
    pub misses: u64,
}

/// Per-group [`DeliveryPlan`]s keyed by rebuild epoch.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    plans: Vec<Option<DeliveryPlan>>,
    stats: PlanStats,
}

impl PlanCache {
    /// Returns the cached plan for group `gi` if its epoch still
    /// matches; otherwise computes, stores, and returns a fresh one.
    /// The `bool` is `true` on a cache hit.
    pub fn get_or_compute(
        &mut self,
        gi: usize,
        epoch: u64,
        compute: impl FnOnce() -> DeliveryPlan,
    ) -> (&DeliveryPlan, bool) {
        if self.plans.len() <= gi {
            self.plans.resize_with(gi + 1, || None);
        }
        let hit = self.plans[gi].as_ref().is_some_and(|p| p.epoch == epoch);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let plan = compute();
            debug_assert_eq!(plan.epoch, epoch, "computed plan must carry its epoch");
            self.plans[gi] = Some(plan);
        }
        (self.plans[gi].as_ref().expect("just ensured"), hit)
    }

    /// Drops a group's cached plan (dormant groups hold no plan).
    pub fn evict(&mut self, gi: usize) {
        if let Some(slot) = self.plans.get_mut(gi) {
            *slot = None;
        }
    }

    /// Cumulative hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// What one delivery reached and what it sent — the counts every
/// delivery mode computes, which the engine wraps into a
/// [`PublishBatch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Members the payload reached (root included).
    pub delivered: usize,
    /// Payload-carrying messages sent.
    pub messages: usize,
}

/// Delivery accounting of K payloads over one group — a flushed batch,
/// or a single publish with K = 1: **one** frame per delivery edge
/// (each frame carries the whole batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishBatch {
    /// The group delivered to.
    pub group: GroupId,
    /// Payloads the batch carried.
    pub payloads: usize,
    /// Members each payload reached (identical for every payload in
    /// the batch — they ride the same frames).
    pub delivered: usize,
    /// Members no payload reached.
    pub stranded: usize,
    /// Frames sent: the plan's delivery-edge count (the epidemic's
    /// payload messages in a suspicion window, the surviving paths'
    /// edges under undetected failures) — **not** multiplied by the
    /// batch size.
    pub messages: usize,
    /// The relay share of `messages`: copies beyond the one-per-
    /// delivered-member floor.
    pub relay_messages: usize,
    /// `true` when the delivery plan came from the cache.
    pub cache_hit: bool,
}

impl PublishBatch {
    /// `payloads` payloads over `group`, whose `members` members the
    /// delivery `reach` reports on.
    pub(crate) fn new(
        group: GroupId,
        payloads: usize,
        members: usize,
        reach: Delivery,
        cache_hit: bool,
    ) -> Self {
        PublishBatch {
            group,
            payloads,
            delivered: reach.delivered,
            stranded: members - reach.delivered,
            messages: reach.messages,
            relay_messages: reach
                .messages
                .saturating_sub(reach.delivered.saturating_sub(1)),
            cache_hit,
        }
    }

    /// Member-payload deliveries this batch completed.
    #[must_use]
    pub fn payload_deliveries(&self) -> u64 {
        self.delivered as u64 * self.payloads as u64
    }

    /// Member-payload deliveries this batch missed.
    #[must_use]
    pub fn payload_strandings(&self) -> u64 {
        self.stranded as u64 * self.payloads as u64
    }
}

/// Aggregate accounting over the batches of one or more flush ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Batches flushed (one per group with queued payloads).
    pub batches: u64,
    /// Payloads delivered across all batches.
    pub payloads: u64,
    /// Σ delivered × payloads — member-payload deliveries completed.
    pub payload_deliveries: u64,
    /// Σ stranded × payloads — member-payload deliveries missed.
    pub payload_strandings: u64,
    /// Frames sent across all batches.
    pub messages: u64,
    /// The relay share of `messages`.
    pub relay_messages: u64,
    /// What the same payloads would have cost published one at a time:
    /// Σ messages × payloads. `sequential_messages / messages` is the
    /// batching reduction factor.
    pub sequential_messages: u64,
    /// Batches served by a cached delivery plan.
    pub cache_hits: u64,
    /// Batches that had to compute their plan (or went epidemic).
    pub cache_misses: u64,
}

impl FlushReport {
    /// Folds one batch into the aggregate.
    pub fn absorb(&mut self, batch: &PublishBatch) {
        self.batches += 1;
        self.payloads += batch.payloads as u64;
        self.payload_deliveries += batch.payload_deliveries();
        self.payload_strandings += batch.payload_strandings();
        self.messages += batch.messages as u64;
        self.relay_messages += batch.relay_messages as u64;
        self.sequential_messages += batch.messages as u64 * batch.payloads as u64;
        if batch.cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }

    /// Frames per payload across the aggregate.
    #[must_use]
    pub fn messages_per_payload(&self) -> f64 {
        self.messages as f64 / self.payloads.max(1) as f64
    }

    /// How many× cheaper batching was than one-payload-at-a-time
    /// publishing of the same workload (1.0 when nothing was sent).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.sequential_messages as f64 / self.messages as f64
        }
    }

    /// Fraction of batches served by a cached plan.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Control-plane accounting of one [`eager_lazy_deliver`] run; the
/// payload-carrying accounting is the [`Delivery`] it returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpidemicReport {
    /// Payload copies pushed along trusted tree edges (the eager path).
    pub eager_messages: usize,
    /// IHAVE digests sent on member-region overlay links. Control
    /// traffic: a digest names the payload, it does not carry it.
    pub ihave_digests: usize,
    /// IWANT pulls answered — each recovers the payload at one node
    /// the eager push missed (one control request + the one payload
    /// copy counted in [`Delivery::messages`]).
    pub iwant_pulls: usize,
    /// Members that held the payload only thanks to a lazy pull.
    pub recovered_members: usize,
}

/// The padded axis-aligned bounding box of the members' coordinates —
/// the region whose overlay links carry lazy digests (and that the old
/// degraded mode flooded). Intervals are open, so the box is padded to
/// keep boundary members inside.
///
/// # Panics
///
/// Panics if `members` is empty.
#[must_use]
pub fn member_region(peers: &[PeerInfo], members: &BTreeSet<usize>) -> Rect {
    let first = *members.iter().next().expect("member region needs members");
    let dim = peers[first].point().dim();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for &m in members {
        for (d, &c) in peers[m].point().coords().iter().enumerate() {
            lo[d] = lo[d].min(c);
            hi[d] = hi[d].max(c);
        }
    }
    let sides: Vec<Interval> = (0..dim)
        .map(|d| {
            let pad = (hi[d] - lo[d]).abs() * 0.01 + 1e-6;
            Interval::new(lo[d] - pad, hi[d] + pad)
        })
        .collect();
    Rect::new(sides).expect("padded member box is a valid rect")
}

/// Plumtree-shaped degraded delivery: eager push over the grafted
/// tree, lazy IHAVE/IWANT recovery over member-region overlay links.
///
/// **Eager phase.** The payload starts at `root` (the publisher) and
/// follows delivery-path tree edges. Suspected nodes *receive* but are
/// not trusted to *forward* — their subtrees go dark on the eager
/// path. Nodes in `failed` (ground truth the detector has not absorbed
/// yet) receive nothing. If the root itself failed, the smallest
/// surviving member seeds the epidemic with no eager phase at all.
///
/// **Lazy phase.** Every payload holder advertises an IHAVE digest to
/// each eligible overlay neighbour except the peer it got the payload
/// from; an eligible node hearing its first digest answers with an
/// IWANT pull and receives one payload copy, then advertises onward.
/// Eligibility is exactly the old flood rule — live, not failed, and a
/// member or inside the padded member region — so the reachable set is
/// **identical to the flood's** (both are closures over the same
/// edges), while the payload cost is one copy per recovered node
/// instead of one per region edge. Suspects participate in the lazy
/// phase: pulls are receiver-driven, so a slow-but-alive suspect only
/// adds latency, never a delivery hole.
///
/// The returned [`Delivery::messages`] counts payload-carrying
/// messages only (eager pushes + answered pulls); digests and pull
/// requests are control traffic, reported in the [`EpidemicReport`].
#[must_use]
pub fn eager_lazy_deliver(
    store: &TopologyStore,
    build: &BuildResult,
    members: &BTreeSet<usize>,
    root: usize,
    suspects: &BTreeSet<usize>,
    failed: &BTreeSet<usize>,
) -> (Delivery, EpidemicReport) {
    let tree = &build.tree;
    let n = store.len();
    let peers = store.peers();
    debug_assert_eq!(tree.root(), root, "epidemic seeds at the group root");

    if members.is_empty() {
        return Default::default();
    }

    let region = member_region(peers, members);
    let eligible = |i: usize| -> bool {
        !failed.contains(&i)
            && !store.is_departed(PeerId(i as u64))
            && (members.contains(&i) || region.contains(peers[i].point()))
    };

    // The delivery-path mask: eager push only follows edges on some
    // root→member path (exactly what a plan-driven publish would send).
    let mut on_path = vec![false; n];
    for &m in members {
        if !tree.is_reached(m) {
            continue;
        }
        let mut cur = m;
        while cur != root && !on_path[cur] {
            on_path[cur] = true;
            cur = tree
                .parent(cur)
                .expect("reached non-root nodes have parents");
        }
    }

    // Who got the payload, and from whom (holders never re-pull; a
    // holder skips digesting back to its own payload source).
    let mut holder = vec![false; n];
    let mut source = vec![usize::MAX; n];
    let mut report = EpidemicReport::default();

    if failed.contains(&root) {
        // The publisher is down: the smallest surviving member re-seeds
        // the epidemic (it already holds the payload from the session
        // layer); everything spreads lazily from there.
        match members.iter().copied().find(|m| !failed.contains(m)) {
            Some(seed) => holder[seed] = true,
            None => return Default::default(),
        }
    } else {
        // Eager push down the tree, cut at failures, parked at suspects.
        holder[root] = true;
        let mut queue = VecDeque::new();
        if !suspects.contains(&root) {
            queue.push_back(root);
        }
        while let Some(u) = queue.pop_front() {
            for &c in tree.children(u) {
                if !on_path[c] || failed.contains(&c) {
                    continue;
                }
                holder[c] = true;
                source[c] = u;
                report.eager_messages += 1;
                if !suspects.contains(&c) {
                    queue.push_back(c);
                }
            }
        }
    }

    // Lazy rounds: holders advertise, first-digest receivers pull.
    // Deterministic order: initial holders ascending, then FIFO.
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| holder[i]).collect();
    let mut iwant_pulls = 0usize;
    let mut recovered = 0usize;
    while let Some(u) = queue.pop_front() {
        for v in store.neighbors(u) {
            if v == source[u] || !eligible(v) {
                continue;
            }
            report.ihave_digests += 1;
            if !holder[v] {
                holder[v] = true;
                source[v] = u;
                iwant_pulls += 1;
                if members.contains(&v) {
                    recovered += 1;
                }
                queue.push_back(v);
            }
        }
    }
    report.iwant_pulls = iwant_pulls;
    report.recovered_members = recovered;

    let delivered = members.iter().filter(|&&m| holder[m]).count();
    let messages = report.eager_messages + iwant_pulls;
    (
        Delivery {
            delivered,
            messages,
        },
        report,
    )
}

/// The pre-epidemic degraded mode, kept as the cost baseline: flood
/// within the padded member region, every eligible neighbour of every
/// visited node getting a payload copy, duplicates included. Same
/// reachable set as [`eager_lazy_deliver`] (both close over the same
/// eligible edges) at a far higher payload cost — the comparison the
/// publish figure reports.
#[must_use]
pub fn flood_deliver(
    store: &TopologyStore,
    members: &BTreeSet<usize>,
    root: Option<usize>,
    failed: &BTreeSet<usize>,
) -> Delivery {
    if members.is_empty() {
        return Delivery::default();
    }
    let alive = |m: &usize| !failed.contains(m);
    let Some(seed) = root
        .filter(alive)
        .or_else(|| members.iter().copied().find(alive))
    else {
        return Delivery::default();
    };
    let peers = store.peers();
    let region = member_region(peers, members);
    let eligible = |i: usize| -> bool {
        !failed.contains(&i)
            && !store.is_departed(PeerId(i as u64))
            && (members.contains(&i) || region.contains(peers[i].point()))
    };
    let mut visited = vec![false; store.len()];
    visited[seed] = true;
    let mut queue = VecDeque::from([seed]);
    let mut messages = 0usize;
    while let Some(u) = queue.pop_front() {
        for v in store.neighbors(u) {
            if !eligible(v) {
                continue;
            }
            // Naive flood: every eligible neighbour gets a copy,
            // duplicates included — the honest cost of the mode.
            messages += 1;
            if !visited[v] {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    Delivery {
        delivered: members.iter().filter(|&&m| visited[m]).count(),
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::build_group_tree_grafted;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::select::EmptyRectSelection;
    use std::sync::Arc;

    fn store(n: usize, seed: u64) -> TopologyStore {
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
    }

    #[test]
    fn plan_matches_the_definitional_tree_walk() {
        let store = store(60, 5);
        let members: BTreeSet<usize> = (0..60).step_by(3).collect();
        let gb = build_group_tree_grafted(&store, 0, &members, &OrthantRectPartitioner::median());
        let plan = DeliveryPlan::compute(&gb.build, &members, 7);
        let delivered = members
            .iter()
            .filter(|&&m| gb.build.tree.is_reached(m))
            .count();
        assert_eq!(plan.delivered, delivered);
        assert_eq!(plan.members, members.len());
        assert_eq!(
            plan.messages,
            gb.build.tree.delivery_messages(members.iter().copied()),
            "plan edges must equal the per-publish tree walk"
        );
        assert_eq!(DeliveryPlan::counted(&gb.build, members.len(), 7), plan);
    }

    #[test]
    fn plan_cache_hits_on_matching_epoch_and_recomputes_on_bump() {
        let store = store(40, 9);
        let members: BTreeSet<usize> = (0..40).collect();
        let gb = build_group_tree_grafted(&store, 0, &members, &OrthantRectPartitioner::median());
        let mut cache = PlanCache::default();
        let (_, hit) = cache.get_or_compute(0, 1, || DeliveryPlan::compute(&gb.build, &members, 1));
        assert!(!hit, "cold cache must miss");
        let (_, hit) = cache.get_or_compute(0, 1, || unreachable!("epoch unchanged"));
        assert!(hit);
        let (plan, hit) =
            cache.get_or_compute(0, 2, || DeliveryPlan::compute(&gb.build, &members, 2));
        assert!(!hit, "an epoch bump must invalidate");
        assert_eq!(plan.epoch, 2);
        assert_eq!(cache.stats(), PlanStats { hits: 1, misses: 2 });
        cache.evict(0);
        let (_, hit) = cache.get_or_compute(0, 2, || DeliveryPlan::compute(&gb.build, &members, 2));
        assert!(!hit, "eviction must force a recompute");
    }

    #[test]
    fn epidemic_reaches_the_flood_set_with_fewer_payload_copies() {
        let store = store(80, 11);
        let members: BTreeSet<usize> = (0..80).collect();
        let gb = build_group_tree_grafted(&store, 0, &members, &OrthantRectPartitioner::median());
        // Suspected root: the eager phase is parked immediately and the
        // lazy phase must still reach every member.
        let suspects = BTreeSet::from([0usize]);
        let failed = BTreeSet::new();
        let (outcome, report) =
            eager_lazy_deliver(&store, &gb.build, &members, 0, &suspects, &failed);
        let flood = flood_deliver(&store, &members, Some(0), &failed);
        assert_eq!(outcome.delivered, flood.delivered, "same reachable set");
        assert_eq!(outcome.delivered, 80);
        assert!(report.iwant_pulls > 0, "recovery must run through pulls");
        assert!(
            outcome.messages < flood.messages,
            "epidemic payload copies ({}) must undercut the flood ({})",
            outcome.messages,
            flood.messages
        );
        // Payload copies: at most one per node that holds the payload.
        assert!(outcome.messages <= store.len());
    }

    #[test]
    fn epidemic_recovers_members_cut_by_an_undetected_failure() {
        let store = store(80, 13);
        let members: BTreeSet<usize> = (0..80).collect();
        let gb = build_group_tree_grafted(&store, 0, &members, &OrthantRectPartitioner::median());
        // Fail an interior tree node without telling the tree: the eager
        // push loses its subtree, the lazy phase must win it back.
        let interior = (0..80)
            .find(|&i| i != 0 && !gb.build.tree.children(i).is_empty())
            .expect("a spanning tree over 80 nodes has interior nodes");
        let failed = BTreeSet::from([interior]);
        let (outcome, report) =
            eager_lazy_deliver(&store, &gb.build, &members, 0, &BTreeSet::new(), &failed);
        assert_eq!(
            outcome.delivered, 79,
            "everyone but the crashed node is recovered"
        );
        assert!(
            report.recovered_members > 0,
            "the cut subtree must come back via IWANT pulls"
        );
    }

    #[test]
    fn epidemic_handles_failed_root_and_total_loss() {
        let store = store(40, 17);
        let members: BTreeSet<usize> = (0..40).collect();
        let gb = build_group_tree_grafted(&store, 0, &members, &OrthantRectPartitioner::median());
        let (outcome, report) = eager_lazy_deliver(
            &store,
            &gb.build,
            &members,
            0,
            &BTreeSet::from([0usize]),
            &BTreeSet::from([0usize]),
        );
        assert_eq!(outcome.delivered, 39, "a surviving member re-seeds");
        assert_eq!(report.eager_messages, 0, "no eager phase without the root");
        let everyone: BTreeSet<usize> = (0..40).collect();
        let (outcome, _) =
            eager_lazy_deliver(&store, &gb.build, &members, 0, &BTreeSet::new(), &everyone);
        assert_eq!((outcome.delivered, outcome.messages), (0, 0));
    }

    #[test]
    fn flush_report_aggregates_and_reduces() {
        let batch = |payloads: usize, messages: usize, hit: bool| PublishBatch {
            group: GroupId(0),
            payloads,
            delivered: 10,
            stranded: 0,
            messages,
            relay_messages: 0,
            cache_hit: hit,
        };
        let mut report = FlushReport::default();
        report.absorb(&batch(8, 12, false));
        report.absorb(&batch(4, 12, true));
        assert_eq!(report.batches, 2);
        assert_eq!(report.payloads, 12);
        assert_eq!(report.messages, 24);
        assert_eq!(report.sequential_messages, 8 * 12 + 4 * 12);
        assert_eq!(report.payload_deliveries, 120);
        assert!((report.reduction() - 6.0).abs() < 1e-12);
        assert!((report.messages_per_payload() - 2.0).abs() < 1e-12);
        assert!((report.cache_hit_rate() - 0.5).abs() < 1e-12);
    }
}
