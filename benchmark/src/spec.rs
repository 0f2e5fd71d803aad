//! The benchmark's fixed vocabulary: workload names and sizes, and every
//! metric name with its unit. `BENCHMARK.json` at the repository root
//! repeats the names, units, directions and bounds; a unit test keeps the
//! two in step.

use geocast::sim::workload::MembershipPlacement;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Store-bound churn on one shard.
    ChurnK1,
    /// The same inputs on sixteen shards.
    ChurnK16,
    /// Repair-bound: scattered groups under churn and membership ops.
    GroupsScattered,
    /// Flush-bound: warm plan cache, rare churn.
    PublishSteady,
    /// Detector-driven removals over many seeds.
    CrashWave,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ChurnK1,
        Workload::ChurnK16,
        Workload::GroupsScattered,
        Workload::PublishSteady,
        Workload::CrashWave,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnK1 => "churn_k1",
            Workload::ChurnK16 => "churn_k16",
            Workload::GroupsScattered => "groups_scattered",
            Workload::PublishSteady => "publish_steady",
            Workload::CrashWave => "crash_wave",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes of the four workloads that drive a [`geocast::core::groups::GroupEngine`]
    /// (`None` for `crash_wave`, which runs `core::detect::run_detection`).
    #[must_use]
    pub fn engine_spec(self) -> Option<EngineSpec> {
        // Schedules are generated long enough that a several-times-faster
        // library still has events left when the clock runs out; a run that
        // does exhaust them simply stops early and reports the shorter time.
        match self {
            Workload::ChurnK1 | Workload::ChurnK16 => Some(EngineSpec {
                peers: 20_000,
                shards: if self == Workload::ChurnK1 { 1 } else { 16 },
                groups: 8,
                subscriptions: 160,
                size_exponent: 0.0,
                placement: MembershipPlacement::Clustered,
                churn_events: 24_000,
                group_ops_per_churn: 0,
                publish_exponent: 1.0,
                payloads_per_tick: 8,
                ticks_per_op: 1,
                tick_cycle: 256,
            }),
            Workload::GroupsScattered => Some(EngineSpec {
                peers: 3_000,
                shards: 1,
                groups: 256,
                subscriptions: 6_000,
                size_exponent: 1.0,
                placement: MembershipPlacement::Scattered,
                churn_events: 3_000,
                group_ops_per_churn: 3,
                publish_exponent: 1.0,
                payloads_per_tick: 64,
                ticks_per_op: 1,
                tick_cycle: 1_024,
            }),
            Workload::PublishSteady => Some(EngineSpec {
                peers: 2_000,
                shards: 1,
                groups: 256,
                subscriptions: 4_000,
                size_exponent: 1.5,
                placement: MembershipPlacement::Clustered,
                churn_events: 4_000,
                group_ops_per_churn: 0,
                publish_exponent: 1.5,
                payloads_per_tick: 64,
                // A churn event here costs ~5 ms (the Zipf head group holds
                // most of the population and is rebuilt on almost every
                // event), a tick ~0.7 us: 30k ticks per event keep the data
                // plane above four fifths of the wall time and still give
                // ~200 departures to take a p90 from in ten seconds.
                ticks_per_op: 30_000,
                tick_cycle: 4_096,
            }),
            Workload::CrashWave => None,
        }
    }
}

/// Sizes of one engine workload. Every field is an input property the
/// pipeline's cost depends on; none is read by the library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Initial population (uniform 2-D points).
    pub peers: usize,
    /// `ShardConfig::new(shards)`, automatic halo.
    pub shards: usize,
    /// Concurrent multicast groups.
    pub groups: usize,
    /// Σ initial group sizes.
    pub subscriptions: usize,
    /// Zipf exponent of the group sizes (0 = all equal).
    pub size_exponent: f64,
    /// Scattered membership forces relay grafts; clustered does not.
    pub placement: MembershipPlacement,
    /// Length of the pre-generated `Mixed{1:1}` join/leave schedule.
    pub churn_events: usize,
    /// Subscribe/unsubscribe ops interleaved after each churn event.
    pub group_ops_per_churn: usize,
    /// Zipf exponent of payload popularity.
    pub publish_exponent: f64,
    /// Payloads enqueued per tick.
    pub payloads_per_tick: usize,
    /// Ticks flushed after each op (the first one closes the op's
    /// event-to-delivered latency sample).
    pub ticks_per_op: usize,
    /// Length of the pre-generated tick cycle.
    pub tick_cycle: usize,
}

/// `(name, unit)` of every end-to-end metric. Each workload reports all of
/// them (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("leave_to_delivered_ms_p50", "ms"),
    ("leave_to_delivered_ms_p90", "ms"),
    ("payloads_per_s", "1/s"),
    ("delivered_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geom.index.insert_us", "us"),
    ("geom.index.remove_us", "us"),
    ("geom.index.empty_rect_query_us", "us"),
    ("geom.index.ops", "count"),
    ("overlay.select.select_in_us", "us"),
    ("overlay.select.calls", "count"),
    ("overlay.store.insert_ms_p50", "ms"),
    ("overlay.store.remove_ms_p50", "ms"),
    ("overlay.store.busy_share", "ratio"),
    ("overlay.store.dirty_peers_per_event", "count"),
    ("overlay.shard.escape_ratio", "ratio"),
    ("overlay.shard.cross_shard_requests_per_event", "count"),
    ("overlay.shard.shortlist_requests_per_event", "count"),
    ("overlay.shard.build_assign_s", "s"),
    ("overlay.shard.build_index_s_sum", "s"),
    ("overlay.shard.build_select_s_sum", "s"),
    ("overlay.shard.build_finalize_s", "s"),
    ("overlay.shard.mirrors_total", "count"),
    ("overlay.delta.catch_up_us", "us"),
    ("overlay.delta.deltas_absorbed", "count"),
    ("overlay.delta.resyncs", "count"),
    ("overlay.runtime.workers_events_per_s", "1/s"),
    ("overlay.runtime.coordinator_busy_share", "ratio"),
    ("overlay.runtime.recv_wait_share", "ratio"),
    ("overlay.runtime.worker_busy_max_share", "ratio"),
    ("overlay.runtime.backpressure_stalls", "count"),
    ("core.groups.sync_ms_p50", "ms"),
    ("core.groups.busy_share", "ratio"),
    ("core.groups.affected_groups_per_event", "count"),
    ("core.groups.rebuilds_per_event", "count"),
    ("core.groups.rebuilt_members_per_event", "count"),
    ("core.groups.full_resyncs", "count"),
    ("core.groups.tree_build_us", "us"),
    ("core.groups.group_op_ms_p50", "ms"),
    ("core.graft.graft_us", "us"),
    ("core.graft.grafted_per_rebuild", "count"),
    ("core.graft.relays_per_rebuild", "count"),
    ("core.graft.route_hops_per_rebuild", "count"),
    ("core.graft.rect_fallbacks_per_rebuild", "count"),
    ("core.graft.flood_fallbacks_per_rebuild", "count"),
    ("core.graft.unreachable_per_rebuild", "count"),
    ("core.bounds.candidates_us", "us"),
    ("core.bounds.candidates_per_query", "count"),
    ("core.bounds.confirmed_ratio", "ratio"),
    ("core.dataplane.busy_share", "ratio"),
    ("core.dataplane.flush_us_per_tick", "us"),
    ("core.dataplane.batches_per_s", "1/s"),
    ("core.dataplane.frames_per_batch", "count"),
    ("core.dataplane.msgs_per_payload", "count"),
    ("core.dataplane.plan_hit_rate", "ratio"),
    ("core.dataplane.plan_misses_per_event", "count"),
    ("core.dataplane.plan_compute_us", "us"),
    ("core.detect.suspicions_per_failure", "count"),
    ("core.detect.refute_ratio", "ratio"),
    ("core.detect.repair_resyncs", "count"),
    ("core.detect.false_convictions_per_run", "count"),
    ("core.detect.detect_virtual_ms_p50", "virt_ms"),
    ("core.detect.recovery_virtual_ms_p50", "virt_ms"),
    ("core.detect.wall_ms_per_virtual_s", "ms"),
    ("core.detect.virtual_s_per_wall_s", "ratio"),
    ("sim.workload.gen_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// The per-layer metrics the separate `e2e-probes` binary measures; `e2e`
/// reports 0 for them when that binary is missing.
pub const PROBE_PREFIXES: &[&str] = &["overlay.shard.", "overlay.runtime.", "core.bounds."];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::report::BENCHMARK_JSON;

    fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn table(rows: &[(&str, &str)]) -> Vec<(String, String)> {
        rows.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_reports() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(names_and_units(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("churn"), None);
    }

    #[test]
    fn probe_prefixes_each_match_a_metric() {
        for prefix in PROBE_PREFIXES {
            assert!(PER_LAYER.iter().any(|(n, _)| n.starts_with(prefix)));
        }
    }
}
