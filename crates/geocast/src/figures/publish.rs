//! Beyond-the-paper data-plane throughput scenario: per-group payload
//! batching over the delivery-plan cache, swept over batch depth × Zipf
//! skew.
//!
//! The control-plane panels (`churn`, `groups`, `detection`) show the
//! trees staying correct under churn; this harness measures how cheaply
//! payloads ride them. Per scenario it drives a [`PublishWorkload`] —
//! `ticks` rounds of `batch` payloads landing on Zipf-popular groups —
//! through [`GroupEngine::enqueue`] / [`GroupEngine::flush_tick`], with
//! periodic overlay churn to exercise plan invalidation, and reports:
//!
//! * **messages/payload and the batching reduction** — a flush sends one
//!   frame per delivery edge however many payloads are queued, so
//!   the Zipf head (which gets both the most payloads and the biggest
//!   tree) collapses from `edges` to `edges / depth` per payload;
//! * **delivery-plan cache hit rate** — steady-state flushes are O(1)
//!   plan lookups; only the churn-repaired groups recompute;
//! * **aggregate payload throughput** (payloads/s through the flush
//!   path), plus stranded payload-deliveries (must be 0: relay grafting
//!   closes coverage, and batching must not reopen it);
//! * a **suspicion-window comparison**: eager/lazy epidemic payload
//!   copies vs the old flood-within-region cost, at equal coverage.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use geocast_core::dataplane::{flood_deliver, FlushReport};
use geocast_core::groups::GroupEngine;
use geocast_core::OrthantRectPartitioner;
use geocast_metrics::{AsciiChart, Table};
use geocast_overlay::churn::{ChurnEvent, ChurnSchedule};
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerInfo, TopologyStore};
use geocast_sim::workload::{zipf_group_sizes, ChurnPattern, MembershipPlacement, PublishWorkload};

use crate::figures::FigureReport;

/// Configuration for the publish-throughput scenario.
#[derive(Debug, Clone)]
pub struct PublishConfig {
    /// Base overlay population.
    pub initial: usize,
    /// Concurrent groups payloads target.
    pub groups: usize,
    /// Total initial subscriptions, Zipf-split across groups.
    pub subscriptions: usize,
    /// Membership placement (clustered = the coverage-safe scenario the
    /// strict gate runs).
    pub placement: MembershipPlacement,
    /// Zipf skew exponents to sweep (0.0 = uniform payload spread).
    pub exponents: Vec<f64>,
    /// Batch depths (payloads per tick) to sweep.
    pub batch_sizes: Vec<usize>,
    /// Flush ticks per scenario.
    pub ticks: usize,
    /// Apply one overlay churn event every this many ticks (0 = steady
    /// state) — exercises plan invalidation mid-stream.
    pub churn_every: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
    /// Coordinate bound.
    pub vmax: f64,
}

impl Default for PublishConfig {
    /// Paper-overreach scale: a 2000-peer overlay, 256 Zipf groups,
    /// batch depths up to 256 payloads/tick.
    fn default() -> Self {
        PublishConfig {
            initial: 2_000,
            groups: 256,
            subscriptions: 4_000,
            placement: MembershipPlacement::Clustered,
            exponents: vec![0.0, 1.0, 1.5],
            batch_sizes: vec![1, 8, 64, 256],
            ticks: 200,
            churn_every: 25,
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

impl PublishConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        PublishConfig {
            initial: 220,
            groups: 32,
            subscriptions: 440,
            placement: MembershipPlacement::Clustered,
            exponents: vec![0.0, 1.5],
            batch_sizes: vec![1, 64],
            ticks: 30,
            churn_every: 10,
            dim: 2,
            seed: 1,
            vmax: 1000.0,
        }
    }
}

/// One (exponent, batch) cell of the sweep: a row of [`publish_panel`],
/// and every line `geocast publish` prints.
#[derive(Debug, Clone)]
pub struct PublishScenario {
    /// Zipf skew of the payloads.
    pub exponent: f64,
    /// Payloads per tick.
    pub batch: usize,
    /// Every flushed batch, absorbed.
    pub report: FlushReport,
    /// Payloads per second through the enqueue+flush path (churn
    /// application excluded — that cost belongs to the churn panels).
    pub payloads_per_s: f64,
    /// Every group byte-identical to its from-scratch reference at the
    /// end.
    pub exact: bool,
}

/// Drives one scenario: `ticks` rounds of `batch` Zipf-skewed payloads
/// through the flush engine, churning the overlay every
/// `cfg.churn_every` ticks.
#[must_use]
pub fn publish_scenario(cfg: &PublishConfig, exponent: f64, batch: usize) -> PublishScenario {
    let base = geocast_geom::gen::uniform_points(cfg.initial, cfg.dim, cfg.vmax, cfg.seed);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&base),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = cfg.seed ^ 0x0070_7562_6c69_7368; // "publish"
    let sizes = zipf_group_sizes(
        cfg.groups,
        cfg.subscriptions.max(cfg.groups),
        exponent.max(1.0),
    );
    let ids = engine.seed_groups_placed(cfg.placement, &sizes, &mut state);

    let churn_events = cfg.ticks.checked_div(cfg.churn_every).unwrap_or(0);
    let churn = ChurnSchedule::from_pattern(
        cfg.initial,
        &ChurnPattern::Mixed {
            events: churn_events,
            join_rate: 1,
            leave_rate: 1,
        },
        cfg.dim,
        cfg.vmax,
        cfg.seed ^ (batch as u64),
    );
    let mut churn_it = churn.events().iter();

    let workload = PublishWorkload {
        groups: cfg.groups,
        exponent,
        ticks: cfg.ticks,
        payloads_per_tick: batch,
    };

    let mut report = FlushReport::default();
    let mut flush_seconds = 0.0f64;
    for tick in 0..cfg.ticks {
        if cfg.churn_every > 0 && tick % cfg.churn_every == cfg.churn_every - 1 {
            match churn_it.next() {
                Some(ChurnEvent::Join(p)) => {
                    engine.join(p.clone());
                }
                Some(ChurnEvent::Leave(id)) => engine.leave(*id),
                None => {}
            }
        }
        let counts = workload.tick_payloads(cfg.seed, tick);
        // lint:allow(D002, reason = "feeds the wall-clock column of the publish panel and the CLI's throughput line only; no control flow reads the clock")
        let start = Instant::now();
        for (gi, &payloads) in counts.iter().enumerate() {
            if payloads > 0 {
                engine.enqueue(ids[gi], payloads);
            }
        }
        for b in engine.flush_tick() {
            report.absorb(&b);
        }
        flush_seconds += start.elapsed().as_secs_f64();
    }

    let payloads_per_s = if flush_seconds > 0.0 {
        report.payloads as f64 / flush_seconds
    } else {
        f64::INFINITY
    };
    let exact = ids.iter().all(|&g| engine.matches_reference(g));
    PublishScenario {
        exponent,
        batch,
        report,
        payloads_per_s,
        exact,
    }
}

/// The suspicion-window comparison the panel's note reports: suspect
/// the Zipf-head group's root, publish once, and weigh eager/lazy
/// payload copies against the old flood-within-region cost.
fn suspicion_comparison(cfg: &PublishConfig, exponent: f64) -> String {
    let base = geocast_geom::gen::uniform_points(cfg.initial, cfg.dim, cfg.vmax, cfg.seed);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&base),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = cfg.seed ^ 0x7375_7370; // "susp"
    let sizes = zipf_group_sizes(
        cfg.groups,
        cfg.subscriptions.max(cfg.groups),
        exponent.max(1.0),
    );
    let ids = engine.seed_groups_placed(cfg.placement, &sizes, &mut state);
    let head = ids[0];
    let root = engine.root(head).expect("seeded group is rooted");
    engine.set_suspects([root]);
    let outcome = engine
        .publish_with_failures(head, &BTreeSet::new())
        .expect("head group publishes");
    let epidemic = *engine
        .last_epidemic()
        .expect("degraded publish is epidemic");
    let flood = flood_deliver(
        engine.store(),
        engine.members(head),
        Some(root),
        &BTreeSet::new(),
    );
    format!(
        "suspicion window (head group, {} members, root suspected): eager/lazy \
         delivers {}/{} members with {} payload copies ({} eager + {} IWANT \
         pulls, {} IHAVE digests) vs {} flood copies at equal coverage ({})",
        engine.members(head).len(),
        outcome.delivered,
        engine.members(head).len(),
        outcome.messages,
        epidemic.eager_messages,
        epidemic.iwant_pulls,
        epidemic.ihave_digests,
        flood.messages,
        flood.delivered,
    )
}

/// **Publish-throughput scenario** — batched data plane over the
/// delivery-plan cache, batch depth × Zipf skew.
///
/// The acceptance shape: `msg/payload` must fall as batch depth grows
/// (≥ 5× reduction at depth 64 on the Zipf-head scenario — this
/// module's test asserts it), `hit %` must stay high (only churn-
/// repaired groups recompute plans), and `stranded` must hold at 0.
#[must_use]
pub fn publish_panel(cfg: &PublishConfig) -> FigureReport {
    let mut table = Table::new(vec![
        "zipf".into(),
        "batch".into(),
        "payloads".into(),
        "flushes".into(),
        "frames".into(),
        "msg/payload".into(),
        "seq msg/payload".into(),
        "reduction".into(),
        "hit %".into(),
        "stranded".into(),
        "payloads/s".into(),
        "== rebuild".into(),
    ]);
    let mut chart = AsciiChart::new(56, 12);
    for &exponent in &cfg.exponents {
        let mut trace: Vec<(f64, f64)> = Vec::new();
        for &batch in &cfg.batch_sizes {
            let s = publish_scenario(cfg, exponent, batch);
            let r = &s.report;
            trace.push((batch as f64, r.messages_per_payload()));
            table.push_row(vec![
                format!("{:.1}", s.exponent),
                s.batch.to_string(),
                r.payloads.to_string(),
                r.batches.to_string(),
                r.messages.to_string(),
                format!("{:.2}", r.messages_per_payload()),
                format!(
                    "{:.2}",
                    r.sequential_messages as f64 / r.payloads.max(1) as f64
                ),
                format!("{:.1}x", r.reduction()),
                format!("{:.0}%", r.cache_hit_rate() * 100.0),
                r.payload_strandings.to_string(),
                format!("{:.2e}", s.payloads_per_s),
                s.exact.to_string(),
            ]);
        }
        chart.add_series(
            format!("msg/payload vs batch depth (zipf {exponent:.1})"),
            trace,
        );
    }

    let head_exponent = cfg
        .exponents
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    FigureReport::new(
        "publish",
        format!(
            "data-plane throughput (N0={}, {} groups, {} subscriptions, {} ticks, churn every {})",
            cfg.initial, cfg.groups, cfg.subscriptions, cfg.ticks, cfg.churn_every
        ),
        table,
    )
    .with_chart(chart.render())
    .with_note(
        "a flush walks a group's delivery edges once per batch: frames = Σ \
         plan edges over flushed batches, seq msg/payload = what the same \
         payloads would cost published one at a time, reduction = their \
         ratio — the Zipf head piles payloads onto one plan, so skewed \
         rows collapse hardest",
    )
    .with_note(
        "hit % = flushes served by the epoch-keyed delivery-plan cache; \
         misses are first-touches and churn-repaired groups only — \
         'stranded' payload-deliveries must hold at 0 (grafted coverage, \
         batched or not)",
    )
    .with_note(suspicion_comparison(cfg, head_exponent))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PublishConfig {
        PublishConfig {
            initial: 80,
            groups: 8,
            subscriptions: 120,
            exponents: vec![0.0, 1.5],
            batch_sizes: vec![1, 32, 64],
            ticks: 12,
            churn_every: 5,
            ..PublishConfig::quick()
        }
    }

    #[test]
    fn publish_panel_reduces_messages_and_strands_nothing() {
        let report = publish_panel(&tiny());
        assert_eq!(report.table.len(), 6, "2 exponents x 3 batch depths");
        for row in report.table.rows() {
            assert_eq!(row[9], "0", "zipf={} batch={}: stranded", row[0], row[1]);
            assert_eq!(
                row[11], "true",
                "zipf={} batch={}: diverged",
                row[0], row[1]
            );
        }
        // The skewed deep-batch row must show a real reduction and
        // cache hits; the batch=1 rows are the sequential baseline.
        for (batch, at_least) in [("32", 3.0), ("64", 5.0)] {
            let deep = report
                .table
                .rows()
                .iter()
                .find(|r| r[0] == "1.5" && r[1] == batch)
                .expect("deep skewed row");
            let reduction: f64 = deep[7].trim_end_matches('x').parse().unwrap();
            assert!(
                reduction >= at_least,
                "zipf 1.5 @ batch {batch}: reduction {reduction}"
            );
        }
        for row in report.table.rows().iter().filter(|r| r[1] == "1") {
            assert_eq!(row[7], "1.0x", "batch=1 must equal sequential cost");
        }
        assert!(report.chart.is_some());
        let notes = report.notes.join("\n");
        assert!(notes.contains("suspicion window"));
        assert!(notes.contains("IWANT"));
    }

    #[test]
    fn steady_state_hits_the_plan_cache() {
        let cfg = PublishConfig {
            churn_every: 0,
            ..tiny()
        };
        let s = publish_scenario(&cfg, 1.5, 32);
        assert!(s.exact);
        assert_eq!(s.report.payload_strandings, 0);
        // No churn: every flush after a group's first is a cache hit.
        assert!(
            s.report.cache_hit_rate() > 0.8,
            "steady-state hit rate {:.2}",
            s.report.cache_hit_rate()
        );
    }
}
