//! Multi-group session engine: per-event repair cost versus the number
//! of concurrent groups, plus the scattered-membership coverage gate,
//! with a machine-readable summary.
//!
//! Two claims under test:
//!
//! 1. **Locality.** The `GroupEngine` examines per churn event only the
//!    **delta-affected** groups (those whose members or graft-support
//!    nodes intersect the event's dirty region) and rebuilds only those
//!    of them whose repair certificate failed — not the total group
//!    count. Holding the population and the total subscription
//!    count fixed while sweeping the number of groups, the
//!    affected-group mean must grow sublinearly in the group count —
//!    while a naive rebuild-everything engine would scale linearly.
//! 2. **Coverage.** With routing-based join, a scattered-membership
//!    workload (uniform-random members — the adversarial placement for
//!    member-to-member delegation) must report **zero stranded members
//!    on every publish**, paying a measured relay overhead (extra
//!    payload-carrying edges per payload).
//!
//! The final state of every group is asserted byte-identical to a
//! from-scratch `build_group_tree_grafted` rebuild. Results land in
//! `crates/bench/BENCH_groups.json` (quick scale by default; set
//! `GEOCAST_FULL=1` for the 2000-peer sweep with 256 scattered groups).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::groups::GroupEngine;
use geocast::overlay::churn::{ChurnEvent, ChurnSchedule};
use geocast::prelude::*;
use geocast::sim::workload::zipf_group_sizes;
use geocast_bench::full_scale;

struct Measurement {
    num_groups: usize,
    placement: MembershipPlacement,
    memberships: usize,
    churn_events: usize,
    affected_groups_mean: f64,
    affected_groups_max: usize,
    repaired_members_mean: f64,
    naive_members_per_event: usize,
    events_per_s: f64,
    coverage_mean: f64,
    relay_nodes: usize,
    publishes: usize,
    publish_stranded: usize,
    publish_messages: usize,
    publish_relay_messages: usize,
    exact: bool,
}

fn measure(
    n: usize,
    num_groups: usize,
    subscriptions: usize,
    churn_events: usize,
    placement: MembershipPlacement,
) -> Measurement {
    let points = uniform_points(n, 2, 1000.0, 1);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&points),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = 0x6265_6e63_6821_0000u64 ^ num_groups as u64;
    let sizes = zipf_group_sizes(num_groups, subscriptions.max(num_groups), 1.0);
    let ids = engine.seed_groups_placed(placement, &sizes, &mut state);
    let naive_members_per_event: usize = ids.iter().map(|&g| engine.members(g).len()).sum();

    let schedule = ChurnSchedule::from_pattern(
        n,
        &ChurnPattern::Mixed {
            events: churn_events,
            join_rate: 1,
            leave_rate: 1,
        },
        2,
        1000.0,
        7,
    );

    let mut affected_sum = 0usize;
    let mut affected_max = 0usize;
    let mut repaired_sum = 0usize;
    let start = Instant::now();
    for event in schedule.events() {
        match event {
            ChurnEvent::Join(p) => {
                engine.join(p.clone());
            }
            ChurnEvent::Leave(id) => engine.leave(*id),
        }
        let sync = *engine.last_sync();
        affected_sum += sync.affected_groups;
        affected_max = affected_max.max(sync.affected_groups);
        repaired_sum += sync.rebuilt_members;
    }
    let seconds = start.elapsed().as_secs_f64();

    // The coverage gate: every group publishes once post-churn; with
    // relay grafting no payload may strand a member.
    let mut publishes = 0usize;
    let mut publish_stranded = 0usize;
    let mut publish_messages = 0usize;
    let mut publish_relay_messages = 0usize;
    for &g in &ids {
        if let Some(outcome) = engine.publish(g) {
            publishes += 1;
            publish_stranded += outcome.stranded;
            publish_messages += outcome.messages;
            publish_relay_messages += outcome.relay_messages;
            assert_eq!(
                outcome.stranded,
                0,
                "{g} ({placement}): publish stranded {} of {} members",
                outcome.stranded,
                outcome.delivered + outcome.stranded,
            );
        }
    }

    let mut exact = true;
    let mut memberships = 0usize;
    let mut relay_nodes = 0usize;
    let mut coverage_sum = 0.0;
    for &g in &ids {
        memberships += engine.members(g).len();
        relay_nodes += engine.relays(g).len();
        coverage_sum += engine.coverage(g);
        exact &= engine.matches_reference(g);
    }
    let events = schedule.len().max(1);
    Measurement {
        num_groups,
        placement,
        memberships,
        churn_events: schedule.len(),
        affected_groups_mean: affected_sum as f64 / events as f64,
        affected_groups_max: affected_max,
        repaired_members_mean: repaired_sum as f64 / events as f64,
        naive_members_per_event,
        events_per_s: events as f64 / seconds.max(1e-9),
        coverage_mean: coverage_sum / ids.len().max(1) as f64,
        relay_nodes,
        publishes,
        publish_stranded,
        publish_messages,
        publish_relay_messages,
        exact,
    }
}

fn row_json(m: &Measurement) -> String {
    format!(
        "    {{\n      \"num_groups\": {},\n      \"placement\": \"{}\",\n      \
         \"memberships\": {},\n      \"churn_events\": {},\n      \
         \"affected_groups_mean\": {:.2},\n      \"affected_groups_max\": {},\n      \
         \"repaired_members_mean\": {:.1},\n      \"naive_members_per_event\": {},\n      \
         \"events_per_second\": {:.0},\n      \"coverage\": {:.4},\n      \
         \"relay_nodes\": {},\n      \"publishes\": {},\n      \
         \"publish_stranded\": {},\n      \"publish_messages\": {},\n      \
         \"relay_messages_per_payload\": {:.2},\n      \"exact\": {}\n    }}",
        m.num_groups,
        m.placement,
        m.memberships,
        m.churn_events,
        m.affected_groups_mean,
        m.affected_groups_max,
        m.repaired_members_mean,
        m.naive_members_per_event,
        m.events_per_s,
        m.coverage_mean,
        m.relay_nodes,
        m.publishes,
        m.publish_stranded,
        m.publish_messages,
        m.publish_relay_messages as f64 / m.publishes.max(1) as f64,
        m.exact,
    )
}

fn write_summary(n: usize, subscriptions: usize, rows: &[Measurement], scattered: &Measurement) {
    let entries: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"multi_group_sessions\",\n  \"dim\": 2,\n  \"n\": {n},\n  \
         \"subscriptions\": {subscriptions},\n  \"sweep\": [\n{}\n  ],\n  \
         \"scattered_coverage\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        row_json(scattered),
    );
    // Anchor at this crate's manifest dir — cargo gives bench binaries a
    // package-relative cwd, which varies by invocation.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_groups.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

fn group_sessions(c: &mut Criterion) {
    let (n, subscriptions, churn_events, scattered_groups, sweep): (
        usize,
        usize,
        usize,
        usize,
        Vec<usize>,
    ) = if full_scale() {
        (2_000, 4_000, 200, 256, vec![8, 32, 128, 512])
    } else {
        (500, 1_000, 80, 64, vec![4, 16, 64])
    };

    let rows: Vec<Measurement> = sweep
        .iter()
        .map(|&g| {
            let m = measure(n, g, subscriptions, churn_events, MembershipPlacement::Clustered);
            println!(
                "G={} ({}): affected {:.2}/{} groups per event (max {}), repaired {:.1}/{} members, \
                 {:.0} events/s, coverage {:.1}%, {} relays, exact={}",
                m.num_groups,
                m.placement,
                m.affected_groups_mean,
                m.num_groups,
                m.affected_groups_max,
                m.repaired_members_mean,
                m.naive_members_per_event,
                m.events_per_s,
                m.coverage_mean * 100.0,
                m.relay_nodes,
                m.exact,
            );
            assert!(m.exact, "G={}: engine diverged from rebuild", m.num_groups);
            m
        })
        .collect();

    // The locality claim: at the largest sweep point the engine repairs
    // well under half the groups (and member-work) a naive engine would.
    let last = rows.last().expect("non-empty sweep");
    assert!(
        last.affected_groups_mean < last.num_groups as f64 / 2.0,
        "affected {:.2} of {} groups: repair cost is scaling with the total",
        last.affected_groups_mean,
        last.num_groups,
    );
    assert!(
        last.repaired_members_mean < last.naive_members_per_event as f64 / 2.0,
        "repaired {:.1} of {} members per event: no member-level locality",
        last.repaired_members_mean,
        last.naive_members_per_event,
    );

    // The coverage claim: scattered membership (uniform-random members,
    // the placement that used to strand tens of percent) must deliver
    // to every subscriber on every publish, with the relay overhead on
    // record. measure() asserts stranded == 0 per publish.
    let scattered = measure(
        n,
        scattered_groups,
        subscriptions,
        churn_events / 2,
        MembershipPlacement::Scattered,
    );
    println!(
        "scattered G={}: coverage {:.1}%, {} publishes, {} stranded, {:.2} relay msgs/payload, exact={}",
        scattered.num_groups,
        scattered.coverage_mean * 100.0,
        scattered.publishes,
        scattered.publish_stranded,
        scattered.publish_relay_messages as f64 / scattered.publishes.max(1) as f64,
        scattered.exact,
    );
    assert!(scattered.exact, "scattered run diverged from rebuild");
    assert_eq!(
        scattered.publish_stranded, 0,
        "scattered publishes stranded members"
    );
    assert_eq!(
        scattered.coverage_mean, 1.0,
        "scattered coverage must close to 100%"
    );
    write_summary(n, subscriptions, &rows, &scattered);

    // Criterion samples the engine's per-churn-event cost at the middle
    // sweep point.
    let mid = sweep[sweep.len() / 2];
    let mut group = c.benchmark_group("groups/churn_event");
    // Every iteration permanently grows the store, so the point pool
    // must outlast the harness's iteration ceiling: the vendored
    // criterion caps warm-up at 1000 iterations plus `sample_size`
    // timed samples, far under the 16384 pre-drawn points below.
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(format!("n{n}_g{mid}")), |b| {
        let points = uniform_points(n, 2, 1000.0, 1);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&points),
            Arc::new(EmptyRectSelection),
        );
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = 0xbeefu64;
        let sizes = zipf_group_sizes(mid, subscriptions.max(mid), 1.0);
        engine.seed_groups_clustered(&sizes, &mut state);
        let mut extra = uniform_points(16_384, 2, 1000.0, 11)
            .into_points()
            .into_iter();
        b.iter(|| {
            let p = extra.next().expect("enough pre-drawn points");
            engine.join(std::hint::black_box(p))
        });
    });
    group.finish();
}

criterion_group!(benches, group_sessions);
criterion_main!(benches);
