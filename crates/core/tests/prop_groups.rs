//! THE multi-group acceptance property: across random churn
//! interleavings (overlay joins/leaves mixed with group
//! subscribe/unsubscribe), every group build maintained incrementally by
//! the `GroupEngine` — relay grafts included — stays byte-identical to a
//! from-scratch `build_group_tree_grafted` rebuild on the surviving
//! members (so relay teardown keeps incremental == from-scratch), for
//! the empty-rectangle rule and a Hyperplanes instance, while the
//! engine examines exactly the delta-affected groups and rebuilds only
//! those of them in which a step that read a dirty row came out
//! differently — rebuilt ⊆ examined, rebuilt + kept = examined, and
//! every group, whichever of the three happened to it, equals the
//! from-scratch build. Syncs lag the store by up to three events, so
//! the steps are re-run against the union of several deltas at once.
//! Every rebuild of a group that has a build replays that build's graft
//! walks, fallback walks included, so the same equality is the replay's
//! exactness — checked after every operation, on a third, sparsest rule
//! too, where most grafts leave tier 1. The §2 part of a rebuild
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

use geocast_core::dataplane::{DeliveryPlan, PublishBatch};
use geocast_core::groups::{build_group_tree_grafted, GroupEngine, GroupId};
use geocast_core::OrthantRectPartitioner;
use geocast_geom::gen::{chain, cross, hub, uniform_points};
use geocast_geom::Point;
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

/// Rule 0 is the empty rectangle, rule 1 a Hyperplanes instance with two
/// planes per axis, and rule 2 the sparsest one, a single plane per axis,
/// on which most grafts need the region or the flood fallback.
fn selection_for(rule: u8, dim: usize) -> Arc<dyn NeighborSelection + Send + Sync> {
    match rule {
        0 => Arc::new(EmptyRectSelection),
        1 => Arc::new(HyperplanesSelection::orthogonal(dim, 2)),
        _ => Arc::new(HyperplanesSelection::orthogonal(dim, 1)),
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

/// The delivery plan the engine publishes by, for every rooted group, is
/// the definitional tree walk's and the build's own counts: every member
/// the build does not strand is delivered to, and every reached node but
/// the root carries the payload. (Publishing syncs, so call this only
/// on a synced engine.)
fn check_plans(engine: &mut GroupEngine, ids: &[GroupId]) {
    for &g in ids {
        let Some(outcome) = engine.publish(g, &BTreeSet::new()) else {
            continue;
        };
        let members = engine.members(g);
        let build = engine.tree(g).expect("a publishing group has a tree");
        let plan = DeliveryPlan::compute(build, members, 0);
        let counts = (
            members.len() - build.stranded.len(),
            build.tree.reached_count() - 1,
        );
        assert_eq!(
            (outcome.delivered, outcome.messages),
            (plan.delivered, plan.messages),
            "{g}: the plan is not the tree walk's"
        );
        assert_eq!(
            (outcome.delivered, outcome.messages),
            counts,
            "{g}: the plan is not the build's counts"
        );
    }
}

/// What the engine's groups looked like at some store epoch: the
/// definitional side of the locality contract. The groups a later sync
/// must examine are those whose members or graft support, as of then,
/// intersect the union of the dirty regions recorded since.
struct Laggard {
    epoch: u64,
    members_and_support: Vec<BTreeSet<usize>>,
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
/// fall back to searching by design.) And at least three in four of all
/// their walks are copied whole from the walk log, with no hop taken,
/// and the rebuilds edit their trees: the nodes they touch are at most a
/// quarter of the nodes of the trees they leave.
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
    let (mut walks, mut searched, mut spliced, mut local) = (0u64, 0u64, 0u64, 0usize);
    let (mut touched, mut reached) = (0u64, 0u64);
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
        spliced += after.graft_walks_spliced - before.graft_walks_spliced;
        touched += after.tree_nodes_touched - before.tree_nodes_touched;
        reached += engine.tree(g).expect("a rooted group").tree.reached_count() as u64;
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
    assert!(
        4 * spliced >= 3 * walks,
        "only {spliced} of {walks} walks were spliced whole"
    );
    assert!(
        4 * touched <= reached,
        "{touched} tree nodes touched, over trees of {reached} nodes"
    );
}

/// The re-graft's count-based reach gate (no clock): a churn event that
/// rebuilds a scattered group of ≥ 150 members steps through at most a
/// tenth of the graft walks it replays; the rest are copied over from
/// the previous build's walk log whole, unvisited. Twenty joins and
/// leaves next to the group's relay paths, every build exact: at most a
/// tenth of all the walks their rebuilds replay examined, and at least
/// three in four of the rebuilding events held to a tenth each.
#[test]
fn churn_next_to_a_large_scattered_group_examines_a_tenth_of_its_walks() {
    let n = 1_500;
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 23)),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let g = engine.seed_groups(&[160], &mut 0x5ca7_7e2ed_u64)[0];
    let (mut replayed, mut examined, mut events, mut local) = (0u64, 0u64, 0usize, 0usize);
    for event in 0..20usize {
        let relays = engine.relays(g).to_vec();
        let before = *engine.totals();
        let rebuilds = engine.rebuild_count(g);
        if event % 2 == 0 {
            // Next to a relay, a little off it each time.
            let relay = engine.store().peers()[relays[event * 37 % relays.len()]].point();
            let offset = 1.0 + event as f64;
            let coords = vec![relay[0] + offset, relay[1] - 0.6 * offset];
            engine.join(Point::new(coords).expect("finite coordinates"));
        } else {
            engine.leave(PeerId(relays[event * 53 % relays.len()] as u64));
        }
        assert!(engine.members(g).len() > 150);
        assert!(engine.matches_reference(g), "event {event}: {g} diverged");
        if engine.rebuild_count(g) == rebuilds {
            continue;
        }
        let after = *engine.totals();
        let walks = after.graft_walks_replayed - before.graft_walks_replayed;
        let stepped = after.graft_walks_examined - before.graft_walks_examined;
        assert!(
            walks >= 100,
            "event {event}: the group must strand most of its members, {walks} walks replayed"
        );
        events += 1;
        local += usize::from(10 * stepped <= walks);
        replayed += walks;
        examined += stepped;
    }
    assert!(events >= 10, "only {events} of 20 events rebuilt the group");
    assert!(
        10 * examined <= replayed,
        "{examined} of {replayed} replayed walks examined"
    );
    assert!(
        4 * local >= 3 * events,
        "only {local} of {events} rebuilding events examined under a tenth of their walks"
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

/// The hostile families of "an operation costs what it changes"
/// (`geocast_geom::gen`) as referee inputs: a chain of 200 peers
/// (degree 2, §2 trees about 195 deep); a hub (the same chain plus one
/// peer below and left of all of it, which neighbours every chain
/// peer); and a cross (two opposite arms of 48 peers, a blocker per four
/// arm positions in each of the other two quadrants, and a centre that
/// neighbours all of them). The hub and the centre leave mid-run. Each
/// family runs with scattered and with clustered groups: a seeded
/// interleaving of joins between two neighbours on the chain or the
/// first arm, leaves, subscribes and unsubscribes; after every
/// operation every group equals its from-scratch grafted rebuild.
#[test]
fn hostile_chain_and_hub_builds_equal_from_scratch_after_every_op() {
    use MembershipPlacement::{Clustered, Scattered};
    for (family, set, line, offset) in [
        (0u64, chain(200), 200, 0.5),
        (1, hub(200), 200, 0.5),
        (2, cross(48, 4), 48, 0.25),
    ] {
        // The hub and the centre are the last id, and neighbour every
        // other peer.
        let hostile = family > 0;
        let last = set.len() - 1;
        for placement in [Scattered, Clustered] {
            let store = TopologyStore::from_peers(
                PeerInfo::from_point_set(&set),
                Arc::new(EmptyRectSelection),
            );
            if hostile {
                let mut row = Vec::new();
                store.undirected_neighbors_into(last, &mut row);
                assert_eq!(row.len(), last, "the hub neighbours every other peer");
            }
            let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
            let mut state = 0xc4a1_u64 + family;
            let sizes = zipf_group_sizes(8, set.len() - usize::from(hostile), 1.0);
            let ids = engine.seed_groups_placed(placement, &sizes, &mut state);
            let mut counts: Vec<u64> = ids.iter().map(|&g| engine.rebuild_count(g)).collect();
            check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
            let case = format!("family {family}, {placement:?}");
            for op in 0..48usize {
                let live: Vec<usize> = (0..engine.store().len())
                    .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                    .collect();
                let g = ids[op * 5 % ids.len()];
                match op % 4 {
                    0 => {
                        // Between two neighbours on the line: the chain
                        // stays a chain, the arm an arm.
                        let i = (op / 4 * 37) % (line - 1);
                        let (a, b) = (set[i].coords(), set[i + 1].coords());
                        let p = a.iter().zip(b).map(|(&a, &b)| a + (b - a) * offset);
                        engine.join(Point::new(p.collect()).expect("finite"));
                    }
                    1 if hostile && op == 21 => engine.leave(PeerId(last as u64)),
                    1 => engine.leave(PeerId(live[op * 7919 % live.len()] as u64)),
                    2 => {
                        let outsiders: Vec<usize> = (live.iter().copied())
                            .filter(|p| !engine.members(g).contains(p))
                            .collect();
                        engine.subscribe(g, PeerId(outsiders[op * 31 % outsiders.len()] as u64));
                    }
                    _ => {
                        let members: Vec<usize> = engine.members(g).iter().copied().collect();
                        if !members.is_empty() {
                            engine.unsubscribe(g, PeerId(members[op * 13 % members.len()] as u64));
                        }
                    }
                }
                check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
                if hostile && op >= 21 {
                    assert!(
                        engine.store().is_departed(PeerId(last as u64)),
                        "{case}: the hub left"
                    );
                }
            }
        }
    }
}

/// The replay's locality gate on the §3 profile (no clock): Hyperplanes
/// with two planes per axis at D = 3, the first coordinate a lifetime,
/// 2 000 peers, 64 scattered Zipf groups and 400 alternating joins and
/// leaves. The region fallback engages on this input, and a build that
/// used it is replayed like any other: the churn's rebuilds step through
/// at most a quarter of the graft walks they make. Seeding is excluded
/// from every count, and every group is exact at the end. Debug builds
/// run a smaller instance of the same profile; CI runs the full size in
/// release.
#[test]
fn churn_on_the_section3_profile_examines_a_quarter_of_its_walks() {
    use geocast_geom::gen::{embed_lifetimes, lifetimes};
    let (n, events) = if cfg!(debug_assertions) {
        (1_000, 60)
    } else {
        (2_000, 400)
    };
    let with_lifetimes = |count: usize, seed: u64| {
        embed_lifetimes(
            &uniform_points(count, 3, 1000.0, seed),
            &lifetimes(count, 1000.0, seed ^ 0x71),
        )
    };
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&with_lifetimes(n, 11)),
        Arc::new(HyperplanesSelection::orthogonal(3, 2)),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let ids = engine.seed_groups(&zipf_group_sizes(64, 2 * n, 1.0), &mut 2);
    let seeded = *engine.totals();
    let mut counts: Vec<u64> = ids.iter().map(|&g| engine.rebuild_count(g)).collect();
    let mut region_fallbacks = 0usize;
    for (event, point) in with_lifetimes(events, 12)
        .into_points()
        .into_iter()
        .enumerate()
    {
        if event % 2 == 0 {
            engine.join(point);
        } else {
            let live: Vec<usize> = (0..engine.store().len())
                .filter(|&i| !engine.store().is_departed(PeerId(i as u64)))
                .collect();
            engine.leave(PeerId(live[event * 7919 % live.len()] as u64));
        }
        for (i, &g) in ids.iter().enumerate() {
            let now = engine.rebuild_count(g);
            if now != counts[i] {
                counts[i] = now;
                region_fallbacks += engine
                    .group_build(g)
                    .map_or(0, |gb| gb.graft.rect_fallbacks);
            }
        }
    }
    for &g in &ids {
        assert!(engine.matches_reference(g), "{g} diverged");
    }
    let totals = engine.totals();
    let walks = (totals.graft_walks_replayed + totals.graft_walks_recomputed)
        - (seeded.graft_walks_replayed + seeded.graft_walks_recomputed);
    let examined = totals.graft_walks_examined - seeded.graft_walks_examined;
    eprintln!("{region_fallbacks} region fallbacks; {examined} of {walks} walks examined");
    assert!(
        region_fallbacks > 0,
        "the profile must engage the region fallback"
    );
    assert!(
        4 * examined <= walks,
        "{examined} of {walks} graft walks examined"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_group_build_equals_from_scratch_grafted_rebuild_under_churn(
        n in 25usize..55,
        dim in 2usize..4,
        seed in 0u64..10_000,
        rule in 0u8..3,
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
                        engine.subscribe(g, PeerId(p as u64));
                        check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
                    }
                }
                Step::Unsubscribe(raw) => {
                    let g = ids[raw % ids.len()];
                    let members: Vec<usize> = engine.members(g).iter().copied().collect();
                    if members.is_empty() {
                        continue;
                    }
                    let p = members[raw % members.len()];
                    engine.unsubscribe(g, PeerId(p as u64));
                    check_exact_and_count_rebuilds(&engine, &ids, &mut counts);
                }
            }
            // Post-graft coverage holds after every sync — the
            // relay-teardown/re-route path included — and so does the
            // plan every publish reads.
            check_full_coverage(&engine, &ids, rule);
            check_plans(&mut engine, &ids);
        }
        if let Some(before) = pending.take() {
            engine.sync();
            before.check_sync(&engine, &ids, &mut counts);
            check_full_coverage(&engine, &ids, rule);
            check_plans(&mut engine, &ids);
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
                let seq: Vec<_> = (0..k)
                    .filter_map(|_| engine.publish(g, &BTreeSet::new()))
                    .collect();
                if seq.is_empty() {
                    // Dormant: batching must refuse identically.
                    engine.enqueue(g, k);
                    dormant.push(g);
                    continue;
                }
                prop_assert_eq!(seq.len(), k);
                let warm = PublishBatch {
                    cache_hit: true,
                    ..seq[0]
                };
                prop_assert!(
                    seq[1..].iter().all(|s| *s == warm),
                    "sequential publishes must be identical with no churn between them, \
                     apart from the first one's plan lookup"
                );
                engine.enqueue(g, k);
            }

            let batches = engine.flush_tick();
            for batch in batches {
                prop_assert!(!dormant.contains(&batch.group), "a dormant group flushed");
                let single = engine
                    .publish(batch.group, &BTreeSet::new())
                    .expect("flushed groups are live");
                prop_assert_eq!(
                    batch,
                    PublishBatch {
                        payloads: k,
                        ..single
                    },
                    "a batch reaches the sequential member set and sends its frames once"
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
        let before = engine.publish(g, &BTreeSet::new()).expect("live group publishes");

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
            .publish(g, &BTreeSet::new())
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
        // Refutation restores plan-driven tree publishing untouched: the
        // plan computed before the suspicion serves it.
        engine.set_suspects(std::iter::empty());
        let healthy = engine.publish(g, &BTreeSet::new()).unwrap();
        prop_assert_eq!(healthy, PublishBatch { cache_hit: true, ..before });
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
