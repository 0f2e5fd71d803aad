//! Turns a traced run — spans, counters read at the same seams, and the
//! library's own report structs — into the per-layer metrics.

use geocast::core::dataplane::PlanStats;
use geocast::core::groups::{EngineTotals, GroupEngine};

use crate::engine::{Phase, ProbeCounts};
use crate::report::Values;
use crate::stats::{percentile, ratio, sorted};
use crate::trace::{durations_ms, totals_by_name, NameTotals, Span};
use crate::waves::WavePhase;

/// The engine's cumulative counters at one instant; the traced phase
/// reports the difference of two.
#[derive(Debug, Clone, Copy)]
pub struct EngineSnapshot {
    totals: EngineTotals,
    plans: PlanStats,
    absorbed: u64,
    resyncs: u64,
}

impl EngineSnapshot {
    /// Reads the counters.
    #[must_use]
    pub fn of(engine: &GroupEngine) -> Self {
        EngineSnapshot {
            totals: *engine.totals(),
            plans: engine.plan_stats(),
            absorbed: engine.repair_cursor().absorbed(),
            resyncs: engine.repair_cursor().resyncs() + engine.flush_cursor().resyncs(),
        }
    }
}

/// Totals of the spans named `name` (zeros when none was recorded).
fn named(by_name: &std::collections::BTreeMap<&'static str, NameTotals>, name: &str) -> NameTotals {
    by_name.get(name).copied().unwrap_or_default()
}

/// The three numbers every traced workload reports about the trace itself.
/// `untraced_rate` and the traced rate count the same unit of work per
/// second; the traced one is taken over pipeline time only, so the side
/// probes do not count as tracing overhead.
fn trace_metrics(values: &mut Values, spans: &[Span], traced_ops: u64, untraced_rate: f64) -> f64 {
    let by_name = totals_by_name(spans);
    let op = named(&by_name, "op");
    let pipeline_ns = op.total_ns as f64;
    let traced_rate = ratio(traced_ops as f64, pipeline_ns / 1e9);
    values.insert("trace.overhead_ratio", ratio(traced_rate, untraced_rate));
    values.insert(
        "trace.unattributed_share",
        ratio(op.self_ns as f64, pipeline_ns),
    );
    values.insert("trace.spans", spans.len() as f64);
    pipeline_ns
}

/// Per-layer metrics of an engine workload's traced run: `untraced` and
/// `traced` are the two alternating loops' phases on one engine, `before`
/// and `after` bracket both. Times come from the traced loop's spans;
/// counts the engine keeps itself (rebuilds, plan hits, cursor ledgers) do
/// not depend on which loop drove it and are taken over the whole run.
#[must_use]
pub fn engine_layers(
    gen_s: f64,
    untraced: &Phase,
    traced: &Phase,
    counts: &ProbeCounts,
    spans: &[Span],
    before: &EngineSnapshot,
    after: &EngineSnapshot,
) -> Values {
    let mut v = Values::new();
    let by_name = totals_by_name(spans);
    let get = |name: &str| named(&by_name, name);
    let untraced_rate = ratio(untraced.ops as f64, untraced.timing.wall_s);
    let pipeline_ns = trace_metrics(&mut v, spans, traced.ops, untraced_rate);
    let share = |self_ns: u64| ratio(self_ns as f64, pipeline_ns);
    let p50 = |name: &str| percentile(&durations_ms(spans, name), 50.0);
    let ops = (untraced.ops + traced.ops) as f64;
    let churn = traced.churn_ops as f64;

    v.insert("sim.workload.gen_s", gen_s);

    let (insert, remove, query) = (
        get("probe.geom.index.insert"),
        get("probe.geom.index.remove"),
        get("probe.geom.index.empty_rect_query"),
    );
    v.insert("geom.index.insert_us", insert.mean_us());
    v.insert("geom.index.remove_us", remove.mean_us());
    v.insert("geom.index.empty_rect_query_us", query.mean_us());
    v.insert(
        "geom.index.ops",
        (insert.count + remove.count + query.count) as f64,
    );

    let select = get("probe.overlay.select.select_in");
    v.insert("overlay.select.select_in_us", select.mean_us());
    v.insert("overlay.select.calls", select.count as f64);

    let store_ns = get("overlay.store.insert").self_ns + get("overlay.store.remove").self_ns;
    v.insert("overlay.store.insert_ms_p50", p50("overlay.store.insert"));
    v.insert("overlay.store.remove_ms_p50", p50("overlay.store.remove"));
    v.insert("overlay.store.busy_share", share(store_ns));
    v.insert(
        "overlay.store.dirty_peers_per_event",
        ratio(counts.dirty_peers as f64, churn),
    );

    v.insert(
        "overlay.delta.catch_up_us",
        get("overlay.delta.catch_up").mean_us(),
    );
    v.insert(
        "overlay.delta.deltas_absorbed",
        (after.absorbed - before.absorbed) as f64,
    );
    v.insert(
        "overlay.delta.resyncs",
        (after.resyncs - before.resyncs + counts.probe_resyncs) as f64,
    );

    let (sync, group_op) = (get("core.groups.sync"), get("core.groups.group_op"));
    v.insert("core.groups.sync_ms_p50", p50("core.groups.sync"));
    v.insert("core.groups.group_op_ms_p50", p50("core.groups.group_op"));
    v.insert(
        "core.groups.busy_share",
        share(sync.self_ns + group_op.self_ns),
    );
    v.insert(
        "core.groups.affected_groups_per_event",
        ratio(counts.affected_groups as f64, churn),
    );
    v.insert(
        "core.groups.rebuilt_members_per_event",
        ratio(counts.rebuilt_members as f64, churn),
    );
    v.insert(
        "core.groups.rebuilds_per_event",
        ratio(
            (after.totals.tree_rebuilds - before.totals.tree_rebuilds) as f64,
            ops,
        ),
    );
    v.insert(
        "core.groups.full_resyncs",
        (after.totals.full_resyncs - before.totals.full_resyncs) as f64,
    );
    v.insert(
        "core.groups.tree_build_us",
        get("probe.core.groups.tree_build").mean_us(),
    );

    let rebuilds = counts.rebuild_probes as f64;
    let graft = &counts.graft;
    v.insert(
        "core.graft.graft_us",
        get("probe.core.graft.graft").mean_us(),
    );
    v.insert(
        "core.graft.grafted_per_rebuild",
        ratio(graft.grafted as f64, rebuilds),
    );
    v.insert(
        "core.graft.relays_per_rebuild",
        ratio(graft.relays as f64, rebuilds),
    );
    v.insert(
        "core.graft.route_hops_per_rebuild",
        ratio(graft.route_hops as f64, rebuilds),
    );
    v.insert(
        "core.graft.rect_fallbacks_per_rebuild",
        ratio(graft.rect_fallbacks as f64, rebuilds),
    );
    v.insert(
        "core.graft.flood_fallbacks_per_rebuild",
        ratio(graft.flood_fallbacks as f64, rebuilds),
    );
    v.insert(
        "core.graft.unreachable_per_rebuild",
        ratio(graft.unreachable as f64, rebuilds),
    );

    let dataplane_ns = get("core.dataplane.enqueue").self_ns
        + get("core.dataplane.flush").self_ns
        + get("core.dataplane.ticks").self_ns;
    let flush = &traced.flush;
    let (hits, misses) = (
        after.plans.hits - before.plans.hits,
        after.plans.misses - before.plans.misses,
    );
    v.insert("core.dataplane.busy_share", share(dataplane_ns));
    v.insert(
        "core.dataplane.flush_us_per_tick",
        ratio(dataplane_ns as f64 / 1e3, traced.ticks as f64),
    );
    v.insert(
        "core.dataplane.batches_per_s",
        ratio(flush.batches as f64, pipeline_ns / 1e9),
    );
    v.insert(
        "core.dataplane.frames_per_batch",
        ratio(flush.messages as f64, flush.batches as f64),
    );
    v.insert(
        "core.dataplane.msgs_per_payload",
        ratio(flush.messages as f64, flush.payloads as f64),
    );
    v.insert(
        "core.dataplane.plan_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.insert(
        "core.dataplane.plan_misses_per_event",
        ratio(misses as f64, ops),
    );
    v.insert(
        "core.dataplane.plan_compute_us",
        get("probe.core.dataplane.plan_compute").mean_us(),
    );
    v
}

/// Per-layer metrics of `crash_wave`'s traced phase.
#[must_use]
pub fn wave_layers(gen_s: f64, untraced: &WavePhase, traced: &WavePhase, spans: &[Span]) -> Values {
    let mut v = Values::new();
    let untraced_rate = ratio(untraced.waves as f64, untraced.timing.wall_s);
    let pipeline_ns = trace_metrics(&mut v, spans, traced.waves, untraced_rate);
    let p50 = |samples: &[f64]| percentile(&sorted(samples.to_vec()), 50.0);
    v.insert("sim.workload.gen_s", gen_s);
    v.insert(
        "core.detect.suspicions_per_failure",
        ratio(traced.suspicions as f64, traced.injected as f64),
    );
    v.insert(
        "core.detect.refute_ratio",
        ratio(traced.refutes as f64, traced.suspicions as f64),
    );
    v.insert("core.detect.repair_resyncs", traced.repair_resyncs as f64);
    v.insert(
        "core.detect.false_convictions_per_run",
        ratio(traced.false_convictions as f64, traced.waves as f64),
    );
    v.insert(
        "core.detect.detect_virtual_ms_p50",
        p50(&traced.detect_virtual_ms),
    );
    v.insert(
        "core.detect.recovery_virtual_ms_p50",
        p50(&traced.recovery_virtual_ms),
    );
    v.insert(
        "core.detect.wall_ms_per_virtual_s",
        ratio(pipeline_ns / 1e6, traced.virtual_s),
    );
    v.insert(
        "core.detect.virtual_s_per_wall_s",
        ratio(traced.virtual_s, pipeline_ns / 1e9),
    );
    v
}
