//! THE multi-group acceptance property: across random churn
//! interleavings (overlay joins/leaves mixed with group
//! subscribe/unsubscribe), every group build maintained incrementally by
//! the `GroupEngine` — relay grafts included — stays byte-identical to a
//! from-scratch `build_group_tree_grafted` rebuild on the surviving
//! members (so relay teardown keeps incremental == from-scratch), for
//! the empty-rectangle rule and a Hyperplanes instance, while the
//! engine examines exactly the delta-affected groups and rebuilds only
//! those of them whose repair certificate failed — rebuilt ⊆ examined,
//! rebuilt + certified = examined, and every group, whichever of the
//! three happened to it, equals the from-scratch build. Syncs lag the
//! store by up to three events, so certificates are checked against the
//! union of several deltas at once. Every rebuild of a group that has a
//! build replays that build's graft decisions, so the same equality is
//! the replay's exactness — checked after every operation, together with
//! the one case in which the old decisions must not be used: a build
//! whose graft left tier 1 recorded none. The §2 part of a rebuild
//! replays the old build's delegations the same way; the interleavings
//! run over scattered groups (where the graft pass is most of a build)
//! and over clustered ones (where the §2 tree is), and a count-based
//! gate bounds how much of a large clustered group churn next to it
//! re-partitions.
//!
//! Plus the coverage theorem routing-based join buys: after every step,
//! each live member is reached **iff** the full overlay connects it to
//! the group root — 100% coverage on every connected workload, with the
//! only permissible exceptions being provably undeliverable members on
//! the sparse Hyperplanes rules (on the empty-rectangle rule the
//! overlay stays routing-connected, so coverage is simply 100%).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_core::groups::{build_group_tree_grafted, GroupEngine, GroupId};
use geocast_core::OrthantRectPartitioner;
use geocast_geom::gen::uniform_points;
use geocast_geom::MetricKind;
use geocast_overlay::delta::DeltaKind;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection, NeighborSelection};
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};
use geocast_sim::workload::{zipf_group_sizes, ConsumerCadence, MembershipPlacement};

/// One step of a churn interleaving; raw indices are bound to live
/// peers / groups modulo the current state, so every generated sequence
/// is valid by construction.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join,
    Leave(usize),
    Subscribe(usize),
    Unsubscribe(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Join),
        (0usize..1000).prop_map(Step::Leave),
        (0usize..1000).prop_map(Step::Subscribe),
        (0usize..1000).prop_map(Step::Unsubscribe),
    ]
}

fn selection_for(rule: u8, dim: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    if rule == 0 {
        Arc::new(EmptyRectSelection)
    } else {
        Arc::new(HyperplanesSelection::orthogonal(dim, 2, MetricKind::L1))
    }
}

/// Asserts every group equals its from-scratch grafted reference and
/// returns how many groups' rebuild counters moved since `counts`.
fn check_exact_and_count_rebuilds(
    engine: &GroupEngine,
    ids: &[GroupId],
    counts: &mut [u64],
) -> usize {
    let mut moved = 0usize;
    for (i, &g) in ids.iter().enumerate() {
        match engine.root(g) {
            Some(root) => {
                let reference = build_group_tree_grafted(
                    engine.store(),
                    root,
                    engine.members(g),
                    &OrthantRectPartitioner::median(),
                );
                assert_eq!(
                    engine.group_build(g),
                    Some(&reference),
                    "{g} diverged from the from-scratch grafted rebuild"
                );
            }
            None => assert!(engine.tree(g).is_none(), "dormant {g} kept a tree"),
        }
        let now = engine.rebuild_count(g);
        if now != counts[i] {
            moved += 1;
            counts[i] = now;
        }
    }
    moved
}

/// The coverage theorem: every live member is reached iff the overlay
/// connects it to the root, and on the empty-rectangle rule (always
/// routing-connected) that means plain 100% coverage.
fn check_full_coverage(engine: &GroupEngine, ids: &[GroupId], rule: u8) {
    let graph = engine.store().graph();
    for &g in ids {
        let Some(root) = engine.root(g) else {
            continue;
        };
        let build = engine.tree(g).expect("rooted groups have trees");
        let dist = graph.bfs_distances(root);
        for &m in engine.members(g) {
            assert_eq!(
                build.tree.is_reached(m),
                dist[m].is_some(),
                "{g}: member {m} reached iff overlay-connected to root {root}"
            );
            if rule == 0 {
                assert!(
                    build.tree.is_reached(m),
                    "{g}: empty-rect member {m} must always be covered"
                );
            }
        }
        // Relays are live non-members that really sit on the tree.
        for &r in &build.relays {
            assert!(build.tree.is_reached(r), "{g}: relay {r} off-tree");
            assert!(
                !engine.members(g).contains(&r),
                "{g}: member {r} misclassified as relay"
            );
            assert!(
                !engine.store().is_departed(PeerId(r as u64)),
                "{g}: departed relay {r} still grafted"
            );
        }
    }
}

/// What the engine's groups looked like at some store epoch: the
/// definitional side of the locality contract. The groups a later sync
/// must examine are those whose members or graft support, as of then,
/// intersect the union of the dirty regions recorded since.
struct Laggard {
    epoch: u64,
    members_and_support: Vec<BTreeSet<usize>>,
    replayable: Replayable,
}

/// Which groups hold a build the next rebuild may replay (its graft
/// never left tier 1), and how many walks the engine has replayed so far.
struct Replayable {
    greedy_only: Vec<bool>,
    walks_replayed: u64,
}

impl Replayable {
    fn of(engine: &GroupEngine, ids: &[GroupId]) -> Self {
        Replayable {
            greedy_only: ids
                .iter()
                .map(|&g| {
                    engine
                        .group_build(g)
                        .is_some_and(|gb| gb.graft.greedy_only())
                })
                .collect(),
            walks_replayed: engine.totals().graft_walks_replayed,
        }
    }

    /// Checks the rebuilds made since the snapshot — the groups whose
    /// counter moved from `before` to `after` — and returns how many of
    /// them had to refuse their old build: walks can only have been
    /// replayed if some rebuilt group's old graft was greedy-only.
    fn check_rebuilds(&self, engine: &GroupEngine, before: &[u64], after: &[u64]) -> usize {
        let rebuilt = || (0..before.len()).filter(|&i| after[i] != before[i]);
        if !rebuilt().any(|i| self.greedy_only[i]) {
            assert_eq!(
                engine.totals().graft_walks_replayed,
                self.walks_replayed,
                "a graft that left tier 1 recorded no decisions to replay"
            );
        }
        rebuilt().filter(|&i| !self.greedy_only[i]).count()
    }
}

impl Laggard {
    fn of(engine: &GroupEngine, ids: &[GroupId]) -> Self {
        Laggard {
            epoch: engine.store().epoch(),
            members_and_support: ids
                .iter()
                .map(|&g| {
                    let mut touched = engine.members(g).clone();
                    touched.extend(engine.group_build(g).into_iter().flat_map(|gb| &gb.support));
                    touched
                })
                .collect(),
            replayable: Replayable::of(engine, ids),
        }
    }

    /// Peers that departed between the snapshot and now.
    fn departed_since(&self, engine: &GroupEngine) -> Vec<usize> {
        let log = engine.store().delta_log();
        log.deltas_since(self.epoch)
            .expect("the test never outruns the log")
            .filter_map(|d| match d.kind {
                DeltaKind::Leave(v) => Some(v),
                DeltaKind::Join(_) => None,
            })
            .collect()
    }

    /// Checks the sync that just absorbed everything since the snapshot.
    fn check_sync(&self, engine: &GroupEngine, ids: &[GroupId], counts: &mut [u64]) {
        let log = engine.store().delta_log();
        let dirty: BTreeSet<usize> = log
            .deltas_since(self.epoch)
            .expect("the test never outruns the log")
            .flat_map(|d| d.dirty.iter().copied())
            .collect();
        let examined: Vec<bool> = self
            .members_and_support
            .iter()
            .map(|touched| !touched.is_disjoint(&dirty))
            .collect();
        let before = counts.to_vec();
        let rebuilt = check_exact_and_count_rebuilds(engine, ids, counts);
        self.replayable.check_rebuilds(engine, &before, counts);
        for (i, &g) in ids.iter().enumerate() {
            assert!(
                examined[i] || counts[i] == before[i],
                "{g} rebuilt though no delta touched it"
            );
        }
        // A group whose last member departed is repaired to "no tree";
        // that repair does not move its rebuild counter.
        let emptied = (ids.iter().zip(&self.members_and_support))
            .filter(|(&g, touched)| !touched.is_empty() && engine.root(g).is_none())
            .count();
        let sync = engine.last_sync();
        assert_eq!(
            sync.affected_groups,
            examined.iter().filter(|&&e| e).count()
        );
        assert_eq!(
            rebuilt + emptied + sync.certified_groups,
            sync.affected_groups
        );
    }
}

/// The count-based locality gate (no clock): on the shape of the
/// end-to-end benchmark's repair-bound workload — 3 000 uniform 2-D
/// peers, 256 scattered Zipf-1.0 groups, 100 mixed churn events — at
/// most a quarter of the groups a churn event makes the engine examine
/// may be rebuilt; the rest must be certified unchanged, and all of
/// them must equal their from-scratch builds. Debug builds run a
/// smaller instance of the same shape (they also re-derive every
/// certified group inside `sync`); CI runs the full size in release.
#[test]
fn churn_rebuilds_at_most_a_quarter_of_the_groups_it_examines() {
    let (n, groups, events) = if cfg!(debug_assertions) {
        (800, 64, 40)
    } else {
        (3_000, 256, 100)
    };
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 13)),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = 0x010c_a1e5_u64;
    let ids = engine.seed_groups(&zipf_group_sizes(groups, 2 * n, 1.0), &mut state);

    let (mut examined, mut certified) = (0usize, 0usize);
    let joins = uniform_points(events, 2, 1000.0, 14).into_points();
    for (event, point) in joins.into_iter().enumerate() {
        if event % 2 == 0 {
            engine.join(point);
        } else {
            let live: Vec<usize> = (0..engine.store().len())
                .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                .collect();
            let victim = live[event * 7919 % live.len()];
            engine.leave(PeerId(victim as u64));
        }
        let sync = engine.last_sync();
        assert!(!sync.resynced);
        examined += sync.affected_groups;
        certified += sync.certified_groups;
        if event % 10 == 9 {
            for &g in &ids {
                assert!(engine.matches_reference(g), "event {event}: {g} diverged");
            }
        }
    }
    let rebuilt = examined - certified;
    assert!(
        examined >= 10 * events,
        "the workload must exercise the check: {examined} groups examined"
    );
    assert!(
        4 * rebuilt <= examined,
        "{rebuilt} of {examined} examined groups were rebuilt"
    );
}

/// The replay's count-based locality gate (no clock): a subscribe into
/// a scattered group of ≥ 150 members — the size of the groups the
/// repair-bound benchmark workload rebuilds — searches for the target of
/// at most a tenth of the group's graft walks; the rest take the target
/// the previous build recorded. Twenty subscribes: at most a tenth of
/// all their walks searched, and at least three in four of them held to
/// a twentieth each. (The rest may be the subscribes that reshape the §2
/// tree or attach a path longer than the pass's `fresh` bound, which
/// fall back to searching by design.)
#[test]
fn a_subscribe_into_a_large_scattered_group_recomputes_a_tenth_of_its_walks() {
    let n = 1_500;
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 21)),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let g = engine.seed_groups(&[160], &mut 0x5ca7_7e2ed_u64)[0];
    let subscribes = 20usize;
    let (mut walks, mut searched, mut local) = (0u64, 0u64, 0usize);
    for k in 0..subscribes {
        let peer = (0..n)
            .map(|i| (k * 73 + i * 7) % n)
            .find(|p| !engine.members(g).contains(p))
            .expect("a non-member");
        let before = *engine.totals();
        assert!(engine.subscribe(g, PeerId(peer as u64)));
        let after = *engine.totals();
        let replayed = after.graft_walks_replayed - before.graft_walks_replayed;
        let recomputed = after.graft_walks_recomputed - before.graft_walks_recomputed;
        assert!(engine.members(g).len() > 150);
        assert!(
            replayed + recomputed >= 100,
            "subscribe {k}: the group must strand most of its members, {} walks",
            replayed + recomputed
        );
        walks += replayed + recomputed;
        searched += recomputed;
        local += usize::from(20 * recomputed <= replayed + recomputed);
        assert!(engine.matches_reference(g), "subscribe {k} diverged");
    }
    assert!(
        10 * searched <= walks,
        "{searched} of {walks} walks searched for their target"
    );
    assert!(
        4 * local >= 3 * subscribes,
        "only {local} of {subscribes} subscribes searched for under a twentieth of their walks"
    );
}

/// The §2 replay's count-based locality gate (no clock): in a clustered
/// group of ≥ 800 members over 2 000 peers — the shape of the publish
/// benchmark's head group, where the §2 tree is the whole build — twenty
/// alternating joins and leaves next to the group partition at most a
/// tenth of the zones its rebuilds hand out; the rest are the
/// delegations the replaced build recorded. Every build exact.
#[test]
fn churn_next_to_a_large_clustered_group_repartitions_a_tenth_of_it() {
    let n = 2_000;
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 41)),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let g = engine.seed_groups_clustered(&[850], &mut 0xc1u64)[0];
    let root = engine.root(g).expect("seeded groups are rooted");
    let center = engine.store().peers()[root].point().clone();
    let seeded = *engine.totals();
    let mut rebuilds = 0u64;
    for event in 0..20usize {
        let before = engine.rebuild_count(g);
        if event % 2 == 0 {
            // Inside the cluster, a little off its centre each time.
            let offset = 3.0 * (event + 1) as f64;
            let coords = vec![center[0] + offset, center[1] - 0.7 * offset];
            engine.join(geocast_geom::Point::new(coords).expect("finite coordinates"));
        } else {
            let others: Vec<usize> = (engine.members(g).iter().copied())
                .filter(|&m| m != root)
                .collect();
            engine.leave(PeerId(others[event * 7919 % others.len()] as u64));
        }
        rebuilds += engine.rebuild_count(g) - before;
        assert!(engine.members(g).len() >= 800);
        assert!(engine.matches_reference(g), "event {event}: {g} diverged");
    }
    let totals = engine.totals();
    let replayed = totals.zone_splits_replayed - seeded.zone_splits_replayed;
    let recomputed = totals.zone_splits_recomputed - seeded.zone_splits_recomputed;
    assert!(
        rebuilds >= 10,
        "only {rebuilds} of 20 events rebuilt the group"
    );
    assert!(
        replayed + recomputed >= 800 * rebuilds,
        "the §2 tree must reach the group: {replayed} + {recomputed} over {rebuilds} rebuilds"
    );
    assert!(
        10 * recomputed <= replayed + recomputed,
        "{recomputed} of {} reached members were partitioned again",
        replayed + recomputed
    );
}

/// The replay on both sides of its one refusal, deterministically: a
/// long seeded interleaving of joins, leaves, subscribes and
/// unsubscribes over 8 scattered and over 8 clustered groups, every
/// build compared with its from-scratch reference after every operation
/// (and every rebuilt one inside the engine, in debug builds). On the empty-rectangle
/// rule no graft leaves tier 1, so every rebuild replays; on a sparse
/// Hyperplanes rule tiers 2–3 engage in about two rebuilds of three, and
/// a build they touched must be refused as a memo (and is, by the check
/// on the replay counter) while the others replay.
#[test]
fn rebuilds_replay_greedy_builds_and_refuse_the_others() {
    use MembershipPlacement::{Clustered, Scattered};
    for (rule, placement) in [
        (0u8, Scattered),
        (1, Scattered),
        (0, Clustered),
        (1, Clustered),
    ] {
        let selection: Arc<dyn NeighborSelection + Send + Sync> = if rule == 0 {
            Arc::new(EmptyRectSelection)
        } else {
            Arc::new(HyperplanesSelection::orthogonal(2, 1, MetricKind::L1))
        };
        let n = 150;
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 31)),
            selection,
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = 0x0dd_5eed_u64;
        let sizes = zipf_group_sizes(8, 2 * n, 1.0);
        let ids = engine.seed_groups_placed(placement, &sizes, &mut state);
        let mut counts: Vec<u64> = ids.iter().map(|&g| engine.rebuild_count(g)).collect();
        let mut next = move || {
            // xorshift64: all the test needs is a fixed, mixed sequence.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let seeded = *engine.totals();
        let (mut rebuilds, mut refused) = (0usize, 0usize);
        let joins = uniform_points(120, 2, 1000.0, 32).into_points();
        for (op, point) in joins.into_iter().enumerate() {
            let old = Replayable::of(&engine, &ids);
            let before = counts.clone();
            let live: Vec<usize> = (0..engine.store().len())
                .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                .collect();
            let g = ids[next() % ids.len()];
            match op % 4 {
                0 => {
                    engine.join(point);
                }
                1 => engine.leave(PeerId(live[next() % live.len()] as u64)),
                2 => {
                    let outsiders: Vec<usize> = live
                        .iter()
                        .copied()
                        .filter(|p| !engine.members(g).contains(p))
                        .collect();
                    engine.subscribe(g, PeerId(outsiders[next() % outsiders.len()] as u64));
                }
                _ => {
                    let members: Vec<usize> = engine.members(g).iter().copied().collect();
                    if let Some(&p) = members.get(next() % members.len().max(1)) {
                        engine.unsubscribe(g, PeerId(p as u64));
                    }
                }
            }
            rebuilds += check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
            refused += old.check_rebuilds(&engine, &before, &counts);
        }
        let totals = engine.totals();
        let replayed = totals.graft_walks_replayed - seeded.graft_walks_replayed;
        let case = format!("rule {rule}, {placement:?}");
        assert!(rebuilds >= 100, "{case}: {rebuilds} rebuilds");
        // The §2 record does not depend on the graft tiers: every
        // rebuild of a group that kept its root replays it.
        let splits_replayed = totals.zone_splits_replayed - seeded.zone_splits_replayed;
        let splits_recomputed = totals.zone_splits_recomputed - seeded.zone_splits_recomputed;
        assert!(
            splits_replayed > splits_recomputed,
            "{case}: {splits_replayed} delegations replayed, {splits_recomputed} zones partitioned"
        );
        if rule == 0 {
            assert_eq!(refused, 0, "empty-rectangle grafts never leave tier 1");
            assert!(replayed > 0);
        } else {
            assert!(
                refused >= 10,
                "{case}: only {refused} of {rebuilds} rebuilds met a fallback-tier build"
            );
            assert!(replayed > 0, "the greedy-only builds among them replay");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_group_build_equals_from_scratch_grafted_rebuild_under_churn(
        n in 25usize..55,
        dim in 2usize..4,
        seed in 0u64..10_000,
        rule in 0u8..2,
        clustered in 0u8..2,
        lag in 1usize..4,
        steps in proptest::collection::vec(step_strategy(), 10..18),
    ) {
        let points = uniform_points(n, dim, 1000.0, seed);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&points),
            selection_for(rule, dim),
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));

        // ≥ 8 concurrent groups, Zipf-sized, overlapping membership.
        let mut state = seed ^ 0x5eed;
        let sizes = zipf_group_sizes(8, (2 * n).max(8), 1.0);
        let placement = if clustered == 1 {
            MembershipPlacement::Clustered
        } else {
            MembershipPlacement::Scattered
        };
        let ids = engine.seed_groups_placed(placement, &sizes, &mut state);
        prop_assert!(ids.len() >= 8);
        let seeded = *engine.totals();
        let mut counts: Vec<u64> = ids.iter().map(|&g| engine.rebuild_count(g)).collect();
        check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
        check_full_coverage(&engine, &ids, rule);

        let join_pool = uniform_points(steps.len(), dim, 1000.0, seed ^ 0x101)
            .into_points();
        let mut joins = join_pool.into_iter();
        // What every group looked like when the first store event the
        // engine has not absorbed yet landed, and how many have since.
        let mut pending: Option<Laggard> = None;
        let mut behind = 0usize;

        for step in steps {
            let churned = match step {
                Step::Join => {
                    pending.get_or_insert_with(|| Laggard::of(&engine, &ids));
                    let p = joins.next().expect("pool sized to steps");
                    engine.store_mut().insert(p);
                    true
                }
                Step::Leave(raw) => {
                    let live: Vec<usize> = (0..engine.store().len())
                        .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                        .collect();
                    if live.len() <= 1 {
                        continue;
                    }
                    pending.get_or_insert_with(|| Laggard::of(&engine, &ids));
                    engine.store_mut().remove(PeerId(live[raw % live.len()] as u64));
                    true
                }
                Step::Subscribe(_) | Step::Unsubscribe(_) => false,
            };
            if churned {
                behind += 1;
                if behind < lag {
                    continue;
                }
            }
            // The locality contract, on every sync: exactly the
            // delta-affected groups were examined, only examined groups
            // were recomputed, and each examined group was either
            // recomputed or certified — with every group exact whichever
            // it was. (Membership ops sync first, so the lag is flushed
            // through the same check before them.)
            if let Some(before) = pending.take() {
                behind = 0;
                engine.sync();
                before.check_sync(&engine, &ids, &mut counts);
                for gone in before.departed_since(&engine) {
                    for &g in &ids {
                        prop_assert!(!engine.members(g).contains(&gone), "{} lingers in {}", gone, g);
                        prop_assert!(!engine.relays(g).contains(&gone), "relay {} lingers in {}", gone, g);
                    }
                }
            }
            match step {
                Step::Join | Step::Leave(_) => {}
                Step::Subscribe(raw) => {
                    let g = ids[raw % ids.len()];
                    let members: BTreeSet<usize> = engine.members(g).clone();
                    let candidate = (0..engine.store().len())
                        .filter(|&i| {
                            !engine.store().is_departed(PeerId(i as u64))
                                && !members.contains(&i)
                        })
                        .nth(raw % engine.store().len().max(1));
                    if let Some(p) = candidate {
                        let (old, before) = (Replayable::of(&engine, &ids), counts.clone());
                        engine.subscribe(g, PeerId(p as u64));
                        check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
                        old.check_rebuilds(&engine, &before, &counts);
                    }
                }
                Step::Unsubscribe(raw) => {
                    let g = ids[raw % ids.len()];
                    let members: Vec<usize> = engine.members(g).iter().copied().collect();
                    if members.is_empty() {
                        continue;
                    }
                    let p = members[raw % members.len()];
                    let (old, before) = (Replayable::of(&engine, &ids), counts.clone());
                    engine.unsubscribe(g, PeerId(p as u64));
                    check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
                    old.check_rebuilds(&engine, &before, &counts);
                }
            }
            // Post-graft coverage holds after every sync — the
            // relay-teardown/re-route path included.
            check_full_coverage(&engine, &ids, rule);
        }
        if let Some(before) = pending.take() {
            engine.sync();
            before.check_sync(&engine, &ids, &mut counts);
            check_full_coverage(&engine, &ids, rule);
        }

        // A rebuild of a group that keeps its root replays the §2
        // delegations of the build it replaces (a silently disabled
        // record would pass every equality above).
        if engine.totals().tree_rebuilds > seeded.tree_rebuilds {
            prop_assert!(
                engine.totals().zone_splits_replayed > seeded.zone_splits_replayed,
                "{} rebuilds replayed no delegation",
                engine.totals().tree_rebuilds - seeded.tree_rebuilds
            );
        }

        // End-state structural sanity: every non-dormant tree validates
        // and strands only overlay-disconnected members.
        for &g in &ids {
            if let Some(build) = engine.tree(g) {
                prop_assert_eq!(build.tree.validate(), Ok(()));
                for &m in engine.members(g) {
                    prop_assert_eq!(
                        build.stranded.contains(&m),
                        !build.tree.is_reached(m),
                        "stranded bookkeeping wrong for member {} of {}", m, g
                    );
                }
                // Publish accounting: edges = member floor + relay share.
                let delivered = engine
                    .members(g)
                    .iter()
                    .filter(|&&m| build.tree.is_reached(m))
                    .count();
                let messages = build.tree.delivery_messages(engine.members(g).iter().copied());
                prop_assert!(messages >= delivered.saturating_sub(1));
            }
        }
    }

    /// Joins grow the peer universe under every cached build. A build
    /// stores only the peers it reached, so a join must leave the build
    /// (and rebuild counter) of every group it did not touch, or touched
    /// without changing a recorded decision, exactly as it was — no
    /// padding, no upkeep — and that kept build must still be what a
    /// from-scratch rebuild over the grown population gives.
    #[test]
    fn joins_leave_untouched_groups_builds_and_counters_untouched(
        n in 25usize..55,
        seed in 0u64..10_000,
        joins in 4usize..14,
    ) {
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed)),
            Arc::new(EmptyRectSelection),
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = seed ^ 0x5eed;
        let ids = engine.seed_groups(&zipf_group_sizes(8, 40, 1.0), &mut state);

        let mut untouched_checks = 0usize;
        for p in uniform_points(joins, 2, 1000.0, seed ^ 0x101).into_points() {
            let before: Vec<_> = ids
                .iter()
                .map(|&g| (engine.group_build(g).cloned(), engine.rebuild_count(g)))
                .collect();
            engine.join(p);
            let mut moved = 0usize;
            for (&g, (build, count)) in ids.iter().zip(&before) {
                if engine.rebuild_count(g) == *count {
                    prop_assert_eq!(engine.group_build(g), build.as_ref(), "{} changed", g);
                    untouched_checks += 1;
                } else {
                    moved += 1;
                }
                prop_assert!(engine.matches_reference(g), "{} diverged", g);
            }
            let sync = engine.last_sync();
            prop_assert_eq!(moved + sync.certified_groups, sync.affected_groups);
        }
        prop_assert!(untouched_checks > 0, "some group sat out some join");
    }

    /// The data-plane acceptance property: after every churn step, a
    /// flushed batch of K payloads delivers to the exact member set of
    /// K sequential `publish` calls — byte-identical delivered/stranded
    /// — while its message cost is the single-publish edge count, i.e.
    /// ≤ the K-fold sequential total. Plans are also re-checked against
    /// the definitional tree walk, so a stale cache cannot hide behind
    /// the comparison.
    #[test]
    fn flushed_batches_match_sequential_publish_under_churn(
        n in 30usize..60,
        dim in 2usize..4,
        seed in 0u64..10_000,
        k in 2usize..12,
        rule in 0u8..2,
        steps in proptest::collection::vec(step_strategy(), 4..9),
    ) {
        let points = uniform_points(n, dim, 1000.0, seed);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&points),
            selection_for(rule, dim),
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = seed ^ 0xda7a;
        let sizes = zipf_group_sizes(6, (2 * n).max(6), 1.0);
        let ids = engine.seed_groups(&sizes, &mut state);

        let join_pool = uniform_points(steps.len(), dim, 1000.0, seed ^ 0x202).into_points();
        let mut joins = join_pool.into_iter();

        for step in steps {
            match step {
                Step::Join => {
                    engine.join(joins.next().expect("pool sized to steps"));
                }
                Step::Leave(raw) => {
                    let live: Vec<usize> = (0..engine.store().len())
                        .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                        .collect();
                    if live.len() <= 1 {
                        continue;
                    }
                    engine.leave(PeerId(live[raw % live.len()] as u64));
                }
                Step::Subscribe(raw) => {
                    let g = ids[raw % ids.len()];
                    let members: BTreeSet<usize> = engine.members(g).clone();
                    let candidate = (0..engine.store().len())
                        .filter(|&i| {
                            !engine.store().is_departed(PeerId(i as u64))
                                && !members.contains(&i)
                        })
                        .nth(raw % engine.store().len().max(1));
                    if let Some(p) = candidate {
                        engine.subscribe(g, PeerId(p as u64));
                    }
                }
                Step::Unsubscribe(raw) => {
                    let g = ids[raw % ids.len()];
                    let members: Vec<usize> = engine.members(g).iter().copied().collect();
                    if members.is_empty() {
                        continue;
                    }
                    engine.unsubscribe(g, PeerId(members[raw % members.len()] as u64));
                }
            }

            // Sequential reference: K identical publishes per group.
            let mut dormant = Vec::new();
            for &g in &ids {
                let seq: Vec<_> = (0..k).filter_map(|_| engine.publish(g)).collect();
                if seq.is_empty() {
                    // Dormant: batching must refuse identically.
                    engine.enqueue(g, k);
                    dormant.push(g);
                    continue;
                }
                prop_assert_eq!(seq.len(), k);
                prop_assert!(
                    seq.windows(2).all(|w| w[0] == w[1]),
                    "sequential publishes must be identical with no churn between them"
                );
                engine.enqueue(g, k);
            }

            let batches = engine.flush_tick();
            for batch in batches {
                prop_assert!(!dormant.contains(&batch.group), "a dormant group flushed");
                let single = engine
                    .publish(batch.group)
                    .expect("flushed groups are live");
                prop_assert_eq!(batch.payloads, k);
                prop_assert_eq!(
                    batch.delivered, single.delivered,
                    "batched delivery must hit the exact sequential member set"
                );
                prop_assert_eq!(batch.stranded, single.stranded);
                prop_assert_eq!(
                    batch.messages, single.messages,
                    "a batch walks the delivery edges exactly once"
                );
                prop_assert_eq!(batch.relay_messages, single.relay_messages);
                prop_assert!(
                    batch.messages <= k * single.messages,
                    "batch cost must not exceed the sequential total"
                );
                // The plan behind both must match the definitional walk.
                let build = engine.tree(batch.group).expect("live group has a tree");
                let definitional = build
                    .tree
                    .delivery_messages(engine.members(batch.group).iter().copied());
                prop_assert_eq!(batch.messages, definitional, "plan diverged from tree");
            }
            prop_assert!(engine.flush_tick().is_empty(), "flush must drain the queues");
        }
    }

    /// Lazy recovery: while a group's root or a relay is suspected (but
    /// everything is actually alive), eager/lazy epidemic delivery must
    /// close coverage to 100% of the members — the payloads parked at
    /// the suspect are recovered via IWANT pulls, never lost.
    #[test]
    fn iwant_pulls_close_coverage_during_a_suspicion_window(
        n in 60usize..140,
        seed in 0u64..10_000,
        group_size in 8usize..20,
    ) {
        let points = uniform_points(n, 2, 1000.0, seed);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&points),
            Arc::new(EmptyRectSelection),
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = seed ^ 0x1a27;
        let ids = engine.seed_groups_clustered(&[group_size], &mut state);
        let g = ids[0];
        prop_assert_eq!(engine.coverage(g), 1.0);

        // Suspect a relay when the graft produced one, the root
        // otherwise — either way the group degrades.
        let suspect = engine
            .relays(g)
            .first()
            .copied()
            .unwrap_or_else(|| engine.root(g).expect("seeded group is rooted"));
        engine.set_suspects([suspect]);
        prop_assert!(engine.is_degraded(g));

        let outcome = engine
            .publish_with_failures(g, &BTreeSet::new())
            .expect("live group publishes");
        prop_assert_eq!(
            outcome.delivered,
            engine.members(g).len(),
            "suspicion must not cost coverage: the epidemic recovers everyone"
        );
        prop_assert_eq!(outcome.stranded, 0);
        let report = *engine.last_epidemic().expect("degraded publish is epidemic");
        prop_assert!(
            report.iwant_pulls > 0,
            "nodes past the suspect must recover via IWANT pulls"
        );
        // Refutation restores plan-driven tree publishing untouched.
        engine.set_suspects(std::iter::empty());
        let healthy = engine.publish_with_failures(g, &BTreeSet::new()).unwrap();
        let plain = engine.publish(g).unwrap();
        prop_assert_eq!(healthy, plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cursor consumer syncing every K-th event (with arbitrary
    /// phase) lands on the same group state as a lock-step engine, and
    /// when a small delta log evicts its history the full resyncs are
    /// counted on the repair cursor — never silently absorbed.
    #[test]
    fn cadence_driven_engine_sync_counts_eviction_resyncs(
        n in 10usize..40,
        ops in 4usize..20,
        every in 1usize..7,
        offset in 0usize..7,
        capacity in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, seed));
        let store = TopologyStore::from_peers(peers, selection);
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        engine.store_mut().set_delta_capacity(capacity);
        let mut state = seed ^ 0x6361_6465;
        let ids = engine.seed_groups(&[5, 3], &mut state);

        let cadence = ConsumerCadence { every, offset };
        let joins = uniform_points(ops, 2, 1000.0, seed ^ 0x6a6f_696e).into_points();
        let mut joins = joins.into_iter();
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..ops {
            let live: Vec<usize> = (0..engine.store().len())
                .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                .collect();
            if live.len() > 3 && rng.random_range(0..3) == 0 {
                let gone = PeerId(live[rng.random_range(0..live.len())] as u64);
                engine.store_mut().remove(gone);
            } else {
                let p = joins.next().expect("one point per op suffices");
                engine.store_mut().insert(p);
            }
            if cadence.fires_at(op) {
                engine.sync();
            }
        }
        engine.sync();

        // The laggard consumer converged to the exact store state: every
        // group tree equals its from-scratch reference build.
        for &g in &ids {
            prop_assert!(
                engine.matches_reference(g),
                "cadence-synced group diverged from reference"
            );
        }
        prop_assert_eq!(engine.repair_cursor().epoch(), engine.store().epoch());
        // Every eviction-horizon fallback is a counted event on the
        // repair cursor, and nothing else increments it.
        prop_assert_eq!(
            engine.repair_cursor().resyncs(),
            engine.totals().full_resyncs,
            "cursor resync count must equal the engine's full resyncs"
        );
        // Lock-step consumption (cadence 1, capacity ample) never
        // resyncs; gaps wider than the log capacity must.
        if every == 1 && offset == 0 {
            prop_assert_eq!(engine.repair_cursor().resyncs(), 0);
        }
    }
}
