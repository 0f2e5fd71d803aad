//! Beyond-the-paper multi-group scenario: N concurrent multicast trees
//! over one shared overlay, kept current by the delta-driven
//! [`GroupEngine`].
//!
//! A production deployment of the paper's overlay serves many groups at
//! once — topics, channels, sensor clusters — each a §2 tree rooted at
//! its own source. This harness sweeps the number of concurrent groups
//! **and the membership placement** (clustered sensor-field groups vs
//! uniformly scattered topic subscribers) at a fixed population and
//! fixed total subscription count (Zipf-distributed across groups),
//! replays identical overlay churn plus a subscribe/unsubscribe/publish
//! workload, and reports:
//!
//! * the engine's locality — groups examined per churn event, and how
//!   many of those were certified unchanged or actually rebuilt,
//!   against the total a naive engine would rebuild — and, of the
//!   graft walks and of the §2 delegations those rebuilds made, how
//!   many were taken from the build they replaced;
//! * the **coverage-vs-scatter** outcome routing-based join buys: with
//!   relay grafting every publish must deliver to every subscriber
//!   (`stranded = 0`) even for scattered membership, at a measured
//!   relay overhead (extra payload-carrying edges per publish).
//!
//! The final state of every group is cross-checked against a
//! from-scratch [`geocast_core::groups::build_group_tree_grafted`]
//! rebuild — the engine is exact, not approximate.

use std::sync::Arc;
use std::time::Instant;

use geocast_core::groups::{AppliedOp, GroupEngine};
use geocast_core::OrthantRectPartitioner;
use geocast_metrics::{AsciiChart, Table};
use geocast_overlay::churn::{ChurnEvent, ChurnSchedule};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerInfo, TopologyStore};
use geocast_sim::workload::{zipf_group_sizes, ChurnPattern, GroupWorkload, MembershipPlacement};

use crate::figures::FigureReport;

/// Configuration for the multi-group scenario.
#[derive(Debug, Clone)]
pub struct GroupsConfig {
    /// Base overlay population.
    pub initial: usize,
    /// Concurrent-group counts to sweep (each a table row per
    /// placement).
    pub group_counts: Vec<usize>,
    /// Membership placements to sweep (the coverage-vs-scatter axis).
    pub placements: Vec<MembershipPlacement>,
    /// Total initial subscriptions, held fixed across the sweep and
    /// split across groups by Zipf popularity.
    pub subscriptions: usize,
    /// Zipf popularity exponent.
    pub exponent: f64,
    /// Overlay churn events (1:1 mixed joins/leaves) per scenario.
    pub churn_events: usize,
    /// Group-workload operations (subscribe/unsubscribe/publish) per
    /// scenario.
    pub group_events: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
    /// Coordinate bound.
    pub vmax: f64,
}

impl Default for GroupsConfig {
    /// Paper-overreach scale: a 2000-peer overlay carrying up to 128
    /// concurrent groups, clustered and scattered.
    fn default() -> Self {
        GroupsConfig {
            initial: 2_000,
            group_counts: vec![8, 32, 128],
            placements: vec![
                MembershipPlacement::Clustered,
                MembershipPlacement::Scattered,
            ],
            subscriptions: 4_000,
            exponent: 1.0,
            churn_events: 300,
            group_events: 300,
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

impl GroupsConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        GroupsConfig {
            initial: 220,
            group_counts: vec![4, 8, 16],
            placements: vec![
                MembershipPlacement::Clustered,
                MembershipPlacement::Scattered,
            ],
            subscriptions: 440,
            exponent: 1.0,
            churn_events: 50,
            group_events: 50,
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

/// Per-scenario accounting the table reports.
struct ScenarioStats {
    groups: usize,
    placement: MembershipPlacement,
    memberships: usize,
    affected_sum: usize,
    certified_sum: usize,
    repaired_members_sum: usize,
    churn_events: usize,
    group_events: usize,
    coverage_mean: f64,
    relays: usize,
    publishes: usize,
    publish_stranded: usize,
    publish_messages: usize,
    publish_relay_messages: usize,
    events_per_s: f64,
    exact: bool,
    /// Graft walks of the replayed scenario (seeding excluded) whose
    /// target came from the previous build's record / was searched for.
    walks_replayed: u64,
    walks_recomputed: u64,
    /// §2-reached members of those rebuilds whose delegation came from
    /// the previous build's record / whose zone was partitioned.
    splits_replayed: u64,
    splits_recomputed: u64,
}

/// Replays one scenario at `num_groups` concurrent groups; pushes the
/// per-churn-event affected-group trace into `trace` when `chart` is
/// set.
fn run_scenario(
    cfg: &GroupsConfig,
    num_groups: usize,
    placement: MembershipPlacement,
    chart: bool,
    trace: &mut Vec<(f64, f64)>,
) -> ScenarioStats {
    let base = geocast_geom::gen::uniform_points(cfg.initial, cfg.dim, cfg.vmax, cfg.seed);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&base),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = cfg.seed ^ 0x6d75_6c74_6963_6173; // "multicas"
    let sizes = zipf_group_sizes(num_groups, cfg.subscriptions.max(num_groups), cfg.exponent);
    let ids = engine.seed_groups_placed(placement, &sizes, &mut state);

    let churn = ChurnSchedule::from_pattern(
        cfg.initial,
        &ChurnPattern::Mixed {
            events: cfg.churn_events,
            join_rate: 1,
            leave_rate: 1,
        },
        cfg.dim,
        cfg.vmax,
        cfg.seed ^ (num_groups as u64),
    );
    let seeded = *engine.totals();
    let workload = GroupWorkload {
        groups: num_groups,
        exponent: cfg.exponent,
        events: cfg.group_events,
        subscribe_weight: 2,
        unsubscribe_weight: 1,
        publish_weight: 2,
    };
    let group_ops = workload.ops(cfg.seed ^ 0x67 ^ (num_groups as u64));

    let mut stats = ScenarioStats {
        groups: num_groups,
        placement,
        memberships: 0,
        affected_sum: 0,
        certified_sum: 0,
        repaired_members_sum: 0,
        churn_events: 0,
        group_events: 0,
        coverage_mean: 0.0,
        relays: 0,
        publishes: 0,
        publish_stranded: 0,
        publish_messages: 0,
        publish_relay_messages: 0,
        events_per_s: 0.0,
        exact: true,
        walks_replayed: 0,
        walks_recomputed: 0,
        splits_replayed: 0,
        splits_recomputed: 0,
    };
    let absorb_publish = |stats: &mut ScenarioStats,
                          outcome: &geocast_core::groups::PublishOutcome| {
        stats.publishes += 1;
        stats.publish_stranded += outcome.stranded;
        stats.publish_messages += outcome.messages;
        stats.publish_relay_messages += outcome.relay_messages;
    };

    // Interleave overlay churn with the group workload, round-robin.
    // lint:allow(D002, reason = "feeds the wall-clock column of the groups panel only; no control flow reads the clock")
    let start = Instant::now();
    let mut churn_it = churn.events().iter();
    let mut ops_it = group_ops.into_iter();
    loop {
        let mut progressed = false;
        if let Some(event) = churn_it.next() {
            match event {
                ChurnEvent::Join(p) => {
                    engine.join(p.clone());
                }
                ChurnEvent::Leave(id) => engine.leave(*id),
            }
            let sync = *engine.last_sync();
            stats.churn_events += 1;
            stats.affected_sum += sync.affected_groups;
            stats.certified_sum += sync.certified_groups;
            stats.repaired_members_sum += sync.rebuilt_members;
            if chart {
                trace.push((stats.churn_events as f64, sync.affected_groups as f64));
            }
            progressed = true;
        }
        if let Some(op) = ops_it.next() {
            if let AppliedOp::Published(_, outcome) = engine.apply_workload_op(op, &mut state) {
                absorb_publish(&mut stats, &outcome);
            }
            stats.group_events += 1;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    // Final publish sweep: every group delivers once more so rows with
    // few workload publishes still report coverage at full confidence.
    for &g in &ids {
        if let Some(outcome) = engine.publish(g) {
            absorb_publish(&mut stats, &outcome);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let total_events = stats.churn_events + stats.group_events;
    stats.events_per_s = if seconds > 0.0 {
        total_events as f64 / seconds
    } else {
        f64::INFINITY
    };

    // Final-state audit: memberships, coverage, relays, and exactness
    // against the from-scratch grafted reference.
    let mut coverage_sum = 0.0;
    for &g in &ids {
        stats.memberships += engine.members(g).len();
        stats.relays += engine.relays(g).len();
        coverage_sum += engine.coverage(g);
        stats.exact &= engine.matches_reference(g);
    }
    stats.coverage_mean = coverage_sum / ids.len() as f64;
    let totals = engine.totals();
    stats.walks_replayed = totals.graft_walks_replayed - seeded.graft_walks_replayed;
    stats.walks_recomputed = totals.graft_walks_recomputed - seeded.graft_walks_recomputed;
    stats.splits_replayed = totals.zone_splits_replayed - seeded.zone_splits_replayed;
    stats.splits_recomputed = totals.zone_splits_recomputed - seeded.zone_splits_recomputed;
    stats
}

/// **Multi-group scenario** — N concurrent group trees over one shared
/// store, delta-driven repair, Zipf-distributed group sizes, clustered
/// **and** scattered membership.
///
/// Per-event repair cost must track the *delta-affected* groups (the
/// `examined μ` column, split into `certified μ` kept and `rebuilt μ`
/// recomputed), not the group count (`naive` column); every
/// row must report `== rebuild: true`; and with relay grafting every
/// publish must report zero stranded members (`pub stranded` column)
/// at the measured relay overhead (`relay msg/pub`).
#[must_use]
pub fn groups_panel(cfg: &GroupsConfig) -> FigureReport {
    let mut table = Table::new(vec![
        "groups".into(),
        "place".into(),
        "members".into(),
        "events".into(),
        "examined μ".into(),
        "certified μ".into(),
        "rebuilt μ".into(),
        "naive".into(),
        "repaired members μ".into(),
        "coverage".into(),
        "relays".into(),
        "pub stranded".into(),
        "relay msg/pub".into(),
        "events/s".into(),
        "== rebuild".into(),
        "walks replayed".into(),
        "splits replayed".into(),
    ]);
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let largest = cfg.group_counts.iter().copied().max().unwrap_or(0);
    for &placement in &cfg.placements {
        for &num_groups in &cfg.group_counts {
            let chart_this = num_groups == largest && placement == MembershipPlacement::Scattered;
            if chart_this {
                trace.clear();
            }
            let s = run_scenario(cfg, num_groups, placement, chart_this, &mut trace);
            let churn = s.churn_events.max(1);
            table.push_row(vec![
                s.groups.to_string(),
                s.placement.to_string(),
                s.memberships.to_string(),
                format!("{}+{}", s.churn_events, s.group_events),
                format!("{:.2}", s.affected_sum as f64 / churn as f64),
                format!("{:.2}", s.certified_sum as f64 / churn as f64),
                format!(
                    "{:.2}",
                    (s.affected_sum - s.certified_sum) as f64 / churn as f64
                ),
                s.groups.to_string(),
                format!("{:.1}", s.repaired_members_sum as f64 / churn as f64),
                format!("{:.0}%", s.coverage_mean * 100.0),
                s.relays.to_string(),
                s.publish_stranded.to_string(),
                format!(
                    "{:.1}",
                    s.publish_relay_messages as f64 / s.publishes.max(1) as f64
                ),
                format!("{:.0}", s.events_per_s),
                s.exact.to_string(),
                format!(
                    "{}/{}",
                    s.walks_replayed,
                    s.walks_replayed + s.walks_recomputed
                ),
                format!(
                    "{}/{}",
                    s.splits_replayed,
                    s.splits_replayed + s.splits_recomputed
                ),
            ]);
        }
    }

    let mut chart = AsciiChart::new(56, 12);
    chart.add_series(
        format!("groups examined per churn event (of {largest}, scattered)"),
        trace,
    );
    FigureReport::new(
        "groups",
        format!(
            "multi-group session engine (N0={}, D={}, {} subscriptions, zipf {:.1})",
            cfg.initial, cfg.dim, cfg.subscriptions, cfg.exponent
        ),
        table,
    )
    .with_chart(chart.render())
    .with_note(
        "examined μ = groups whose members or graft-support nodes \
         intersected a churn event's dirty region; certified μ of them \
         kept their build because no recorded decision changed, \
         rebuilt μ were recomputed; naive = groups a rebuild-everything \
         engine would touch per event; every row must report \
         '== rebuild: true'; walks replayed = graft walks, over the \
         rebuilds after seeding, whose target was the one the group's \
         previous build recorded, of all walks; splits replayed = \
         §2-reached members, over the same rebuilds, whose delegation \
         was the recorded one, of all reached (the rest had their zone \
         partitioned)",
    )
    .with_note(
        "coverage-vs-scatter: relay grafting must hold 'pub stranded' \
         at 0 for both placements — scattered rows pay for it in \
         'relay msg/pub' (extra payload-carrying edges per publish)",
    )
    .with_note(format!(
        "seed: {}, churn: {} mixed events, workload: {} ops @ 2:1:2 \
         subscribe:unsubscribe:publish + one final publish per group",
        cfg.seed, cfg.churn_events, cfg.group_events
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GroupsConfig {
        GroupsConfig {
            initial: 80,
            group_counts: vec![4, 8],
            subscriptions: 120,
            churn_events: 20,
            group_events: 20,
            ..GroupsConfig::quick()
        }
    }

    #[test]
    fn groups_panel_is_exact_with_zero_stranded_for_every_row() {
        let report = groups_panel(&tiny());
        assert_eq!(report.table.len(), 4, "2 placements x 2 group counts");
        for row in report.table.rows() {
            assert_eq!(
                row[14], "true",
                "groups={} place={}: diverged from rebuild",
                row[0], row[1]
            );
            assert_eq!(
                row[11], "0",
                "groups={} place={}: published payloads stranded members",
                row[0], row[1]
            );
            assert_eq!(row[9], "100%", "coverage must close for {}", row[1]);
        }
        // Scattered rebuilds re-graft, and most walks repeat; every
        // placement rebuilds §2 trees, and most delegations repeat.
        let replayed = |cell: &String| {
            let (replayed, all) = cell.split_once('/').expect("replayed/all");
            (
                replayed.parse::<u64>().unwrap(),
                all.parse::<u64>().unwrap(),
            )
        };
        for row in report.table.rows() {
            let (walks_replayed, walks) = replayed(&row[15]);
            if row[1] == "scattered" {
                assert!(walks > 0 && 2 * walks_replayed > walks, "{row:?}");
            }
            let (splits_replayed, splits) = replayed(&row[16]);
            assert!(splits > 0 && 2 * splits_replayed > splits, "{row:?}");
        }
        assert!(report.chart.is_some());
        // Scattered rows need relays; the sweep must show a non-zero
        // relay overhead somewhere.
        let scattered_relays: usize = report
            .table
            .rows()
            .iter()
            .filter(|r| r[1] == "scattered")
            .map(|r| r[10].parse::<usize>().unwrap())
            .sum();
        assert!(scattered_relays > 0, "scattered rows should graft relays");
    }

    #[test]
    fn repair_cost_does_not_scale_with_group_count() {
        // Fixed subscriptions, growing group count: the affected-group
        // mean must stay well below the naive all-groups cost. Needs a
        // population large enough that a churn event's dirty region is
        // a small fraction of the space. Clustered placement keeps
        // graft-support sets small, preserving PR 4's locality claim.
        let cfg = GroupsConfig {
            initial: 220,
            group_counts: vec![4, 16],
            placements: vec![MembershipPlacement::Clustered],
            subscriptions: 440,
            churn_events: 40,
            group_events: 40,
            ..GroupsConfig::quick()
        };
        let report = groups_panel(&cfg);
        let rows = report.table.rows();
        let affected: f64 = rows[1][4].parse().unwrap();
        let naive: f64 = rows[1][7].parse().unwrap();
        assert!(
            affected < 0.7 * naive,
            "examined μ {affected} vs naive {naive}: locality lost"
        );
        let repaired: f64 = rows[1][8].parse().unwrap();
        let members: f64 = rows[1][2].parse().unwrap();
        assert!(
            repaired < members / 2.0,
            "repaired {repaired} of {members} memberships per event"
        );
        let certified: f64 = rows[1][5].parse().unwrap();
        let rebuilt: f64 = rows[1][6].parse().unwrap();
        assert!((certified + rebuilt - affected).abs() < 0.011, "{rows:?}");
    }
}
