//! The four workloads that drive a `GroupEngine`: set-up, the untraced
//! measured loop, the traced loop with its side probes, and the output
//! checks against the from-scratch references.
//!
//! Load is closed-loop from this one thread: the library is a synchronous
//! single-caller engine, so the next operation is issued when the previous
//! one has returned, and operations per second at the stated size is the
//! throughput.

use std::sync::Arc;

use geocast::core::dataplane::{DeliveryPlan, FlushReport};
use geocast::core::graft::{graft_stranded_members, GraftReport};
use geocast::core::groups::{build_group_tree_on_store, AppliedOp, GroupEngine, GroupId};
use geocast::core::OrthantRectPartitioner;
use geocast::geom::{GridIndex, MetricKind};
use geocast::overlay::delta::DeltaKind;
use geocast::overlay::select::{EmptyRectSelection, NeighborSelection, SelectContext};
use geocast::overlay::{
    topology_hash, CursorCatchUp, DeltaCursor, PeerId, PeerInfo, ShardConfig, TopologyStore,
};

use crate::clock::{Clock, Limits, Sample, Timing};
use crate::inputs::{EngineInputs, Op};
use crate::spec::EngineSpec;
use crate::trace::Tracer;
use crate::yardstick::Yardstick;

/// Rebuild probes (tree build, graft, plan compute) repeat work the engine
/// just did, so they run on every fifth op only. Five is coprime to the
/// op stream's stride of four, so churn events and membership ops are both
/// sampled.
const PROBE_EVERY: u64 = 5;

/// Builds the engine a workload measures: sharded store, group engine,
/// seeded groups. This is what `setup_s` times.
#[must_use]
pub fn build_engine(spec: &EngineSpec, inputs: &EngineInputs, peers: Vec<PeerInfo>) -> GroupEngine {
    let store = TopologyStore::from_peers_sharded(
        peers,
        Arc::new(EmptyRectSelection),
        &ShardConfig::new(spec.shards),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = inputs.placement_state;
    engine.seed_groups_placed(spec.placement, &inputs.group_sizes, &mut state);
    engine
}

/// What one measured phase did.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations completed (churn events + membership ops).
    pub ops: u64,
    /// Of which joins/leaves.
    pub churn_ops: u64,
    /// Of which subscribes/unsubscribes, skipped ones included.
    pub group_ops: u64,
    /// Membership ops the engine could not bind (dormant group).
    pub skipped_ops: u64,
    /// Ticks flushed.
    pub ticks: u64,
    /// Batch accounting over every flush.
    pub flush: FlushReport,
    /// Join-to-delivered latency of each join.
    pub joins: Vec<Sample>,
    /// Leave-to-delivered latency of each departure.
    pub leaves: Vec<Sample>,
    /// Wall time and rate windows.
    pub timing: Timing,
}

impl Phase {
    /// Files one churn op's latency under its kind. Joins and departures
    /// cost differently (a departure re-selects every peer that pointed at
    /// the leaver), so pooling them gives a two-humped sample whose median
    /// sits on the gap between the humps and jumps from run to run.
    fn record_latency(&mut self, op: &Op, sample: Sample) {
        self.churn_ops += 1;
        match op {
            Op::Join(_) => self.joins.push(sample),
            Op::Leave(_) => self.leaves.push(sample),
            Op::Group(_) => unreachable!("only churn ops are timed"),
        }
    }

    /// Operations per nominal second (median window). Every op of an engine
    /// workload is a membership event: a join, a leave, or a
    /// subscribe/unsubscribe.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        self.timing.nominal_rate(|w| w.events, self.ops)
    }

    /// Payloads per nominal second (median window).
    #[must_use]
    pub fn payloads_per_s(&self) -> f64 {
        self.timing
            .nominal_rate(|w| w.payloads, self.flush.payloads)
    }

    /// Share of attempted member-payload deliveries that arrived.
    #[must_use]
    pub fn delivered_ratio(&self) -> f64 {
        let f = &self.flush;
        crate::stats::ratio(
            f.payload_deliveries as f64,
            (f.payload_deliveries + f.payload_strandings) as f64,
        )
    }
}

/// An engine plus its position in the op stream and tick cycle.
pub struct Driver<'a> {
    spec: &'a EngineSpec,
    inputs: &'a EngineInputs,
    /// The engine under measurement.
    pub engine: GroupEngine,
    next_op: usize,
    next_tick: usize,
    binding_state: u64,
}

impl<'a> Driver<'a> {
    /// Wraps a freshly built engine at the start of the op stream.
    #[must_use]
    pub fn new(spec: &'a EngineSpec, inputs: &'a EngineInputs, engine: GroupEngine) -> Self {
        Driver {
            spec,
            inputs,
            engine,
            next_op: 0,
            next_tick: 0,
            binding_state: inputs.binding_state,
        }
    }

    fn enqueue_tick(&mut self) {
        let tick = &self.inputs.ticks[self.next_tick % self.inputs.ticks.len()];
        self.next_tick += 1;
        for &(g, payloads) in tick {
            self.engine.enqueue(GroupId(g), payloads);
        }
    }

    fn tick(&mut self, phase: &mut Phase) {
        self.enqueue_tick();
        for batch in self.engine.flush_tick() {
            phase.flush.absorb(&batch);
        }
        phase.ticks += 1;
    }

    fn count_group_op(applied: AppliedOp, phase: &mut Phase) {
        phase.group_ops += 1;
        if matches!(applied, AppliedOp::Skipped(_)) {
            phase.skipped_ops += 1;
        }
    }

    /// The untraced measured loop: every op goes through the composed
    /// public calls (`join`/`leave`/`apply_workload_op`, then `enqueue` +
    /// `flush_tick`), exactly as an application would issue them.
    ///
    /// Continues `phase` (a traced run alternates the two loops on one
    /// engine and keeps one `Phase` for each). With a yardstick, every
    /// window carries the host's slowdown (see [`crate::yardstick`]).
    pub fn run(&mut self, limits: Limits, phase: &mut Phase, yardstick: Option<&mut Yardstick>) {
        let inputs = self.inputs;
        let ops_before = phase.ops;
        let mut clock = Clock::start(
            limits,
            phase.ops,
            phase.flush.payloads,
            phase.timing.windows.len(),
            yardstick,
        );
        while let Some(op) = inputs.ops.get(self.next_op) {
            let Some(issued) =
                clock.proceed(phase.ops - ops_before, phase.ops, phase.flush.payloads)
            else {
                break;
            };
            self.next_op += 1;
            match op {
                Op::Join(point) => {
                    self.engine.join(point.clone());
                }
                Op::Leave(id) => self.engine.leave(*id),
                Op::Group(group_op) => {
                    let applied = self
                        .engine
                        .apply_workload_op(*group_op, &mut self.binding_state);
                    Self::count_group_op(applied, phase);
                }
            }
            self.tick(phase);
            if op.is_churn() {
                let sample = Sample {
                    window: clock.window(),
                    wall_ms: issued.elapsed().as_secs_f64() * 1e3,
                };
                phase.record_latency(op, sample);
            }
            for _ in 1..self.spec.ticks_per_op {
                self.tick(phase);
            }
            phase.ops += 1;
        }
        phase.timing.absorb(clock.finish());
    }

    /// The traced loop: the composed calls split at their public seams
    /// (`store_mut().insert/remove` → `sync()` → `enqueue` → `flush_tick`,
    /// which is exactly what `join`/`leave` do), one span per call, plus
    /// the side probes after each op.
    ///
    /// Continues `phase` and `counts`, like [`Driver::run`].
    pub fn run_traced(
        &mut self,
        limits: Limits,
        tracer: &mut Tracer,
        phase: &mut Phase,
        counts: &mut ProbeCounts,
    ) {
        let inputs = self.inputs;
        let ops_before = phase.ops;
        let mut probes = Probes::attach(&self.engine, self.spec.groups, counts);
        let mut clock = Clock::start(
            limits,
            phase.ops,
            phase.flush.payloads,
            phase.timing.windows.len(),
            None,
        );
        while let Some(op) = inputs.ops.get(self.next_op) {
            if clock
                .proceed(phase.ops - ops_before, phase.ops, phase.flush.payloads)
                .is_none()
            {
                break;
            }
            let ev = self.next_op as u64;
            self.next_op += 1;

            let root = tracer.enter("op", ev) as usize;
            let mut caught = CursorCatchUp::UpToDate;
            match op {
                Op::Join(point) => {
                    tracer.span("overlay.store.insert", ev, || {
                        self.engine.store_mut().insert(point.clone());
                    });
                }
                Op::Leave(id) => {
                    tracer.span("overlay.store.remove", ev, || {
                        self.engine.store_mut().remove(*id);
                    });
                }
                Op::Group(group_op) => {
                    let applied = tracer.span("core.groups.group_op", ev, || {
                        self.engine
                            .apply_workload_op(*group_op, &mut self.binding_state)
                    });
                    Self::count_group_op(applied, phase);
                }
            }
            if op.is_churn() {
                caught = tracer.span("overlay.delta.catch_up", ev, || {
                    probes.cursor.catch_up(self.engine.store().delta_log())
                });
                tracer.span("core.groups.sync", ev, || self.engine.sync());
                let sync = self.engine.last_sync();
                probes.counts.affected_groups += sync.affected_groups as u64;
                probes.counts.rebuilt_members += sync.rebuilt_members as u64;
            }
            tracer.span("core.dataplane.enqueue", ev, || self.enqueue_tick());
            let batches = tracer.span("core.dataplane.flush", ev, || self.engine.flush_tick());
            if op.is_churn() {
                let spans = tracer.spans();
                let delivered = spans[spans.len() - 1].end_ns;
                let sample = Sample {
                    window: clock.window(),
                    wall_ms: (delivered - spans[root].start_ns) as f64 / 1e6,
                };
                phase.record_latency(op, sample);
            }
            for batch in batches {
                phase.flush.absorb(&batch);
            }
            phase.ticks += 1;
            if self.spec.ticks_per_op > 1 {
                // One block span: a span per tick would cost as much as the
                // sub-microsecond tick it measures.
                tracer.enter("core.dataplane.ticks", ev);
                for _ in 1..self.spec.ticks_per_op {
                    self.tick(phase);
                }
                tracer.exit();
            }
            tracer.exit();
            phase.ops += 1;

            probes.after_op(&self.engine, &caught, ev, tracer);
        }
        phase.timing.absorb(clock.finish());
    }

    /// The output checks, run after the clock has stopped: every group
    /// byte-identical to its from-scratch rebuild, and every store row (and
    /// the rolling fingerprint) equal to a from-scratch selection over the
    /// surviving peers — the reference `churn_k1` and `churn_k16` share.
    #[must_use]
    pub fn verify(&self) -> Checks {
        let mut checks = Checks::default();
        for g in 0..self.spec.groups {
            let g = GroupId(u32::try_from(g).expect("group index fits u32"));
            checks.record(self.engine.matches_reference(g), || {
                format!("{g} differs from its from-scratch rebuild")
            });
        }

        let store = self.engine.store();
        let (index, departed) = index_of_live_peers(store);
        let ctx = SelectContext::with_index(&index, true).masked(&departed);
        let mut fingerprint = 0u64;
        for (i, &gone) in departed.iter().enumerate() {
            let reference = if gone {
                Vec::new()
            } else {
                EmptyRectSelection.select_in(store.peers(), i, &ctx)
            };
            fingerprint ^= topology_hash(i, &reference);
            checks.record(store.out_neighbors(i) == reference.as_slice(), || {
                format!("peer {i}: incremental row differs from from-scratch selection")
            });
        }
        checks.record(fingerprint == store.fingerprint(), || {
            "store fingerprint differs from the from-scratch reference".to_owned()
        });
        checks
    }
}

/// A standalone index over the store's population with the departed peers
/// tombstoned, ids equal to peer ids — the from-scratch reference's index
/// and the traced run's `geom.index` replica.
fn index_of_live_peers(store: &TopologyStore) -> (GridIndex, Vec<bool>) {
    let mut index = GridIndex::build(store.peers());
    let departed: Vec<bool> = (0..store.len())
        .map(|i| store.is_departed(PeerId(i as u64)))
        .collect();
    for (i, &gone) in departed.iter().enumerate() {
        if gone {
            index.remove(i);
        }
    }
    (index, departed)
}

/// Outcome of the output checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks run.
    pub checked: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `describe` is only called on failure.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(describe());
            }
        }
    }
}

/// Counters the traced loop reads at the same seams it times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Σ dirty-region sizes seen by the harness's own `DeltaCursor`.
    pub dirty_peers: u64,
    /// Σ `SyncReport::affected_groups` over churn events.
    pub affected_groups: u64,
    /// Σ `SyncReport::rebuilt_members` over churn events.
    pub rebuilt_members: u64,
    /// Times the harness's cursor was told to resync (a finding if > 0).
    pub probe_resyncs: u64,
    /// Group rebuilds re-run by the tree/graft/plan probes.
    pub rebuild_probes: u64,
    /// Σ graft reports over those probes.
    pub graft: GraftReport,
    /// `select_in` probe rows that disagreed with the store (a failure).
    pub select_mismatches: u64,
}

/// Side measurements made after each traced op, each under a `probe.*`
/// root span so none of them is charged to the pipeline.
struct Probes<'c> {
    cursor: DeltaCursor,
    replica: GridIndex,
    departed: Vec<bool>,
    rebuilds_seen: Vec<u64>,
    partitioner: OrthantRectPartitioner,
    counts: &'c mut ProbeCounts,
}

impl<'c> Probes<'c> {
    /// Starts probing an engine that may already have run: the replica and
    /// the cursor adopt its current state.
    fn attach(engine: &GroupEngine, groups: usize, counts: &'c mut ProbeCounts) -> Self {
        let (replica, departed) = index_of_live_peers(engine.store());
        Probes {
            cursor: DeltaCursor::at("e2e-trace", engine.store().epoch()),
            replica,
            departed,
            rebuilds_seen: (0..groups)
                .map(|g| engine.rebuild_count(GroupId(g as u32)))
                .collect(),
            partitioner: OrthantRectPartitioner::median(),
            counts,
        }
    }

    fn after_op(
        &mut self,
        engine: &GroupEngine,
        caught: &CursorCatchUp,
        ev: u64,
        tracer: &mut Tracer,
    ) {
        let store = engine.store();
        match caught {
            CursorCatchUp::UpToDate => {}
            CursorCatchUp::Resync => {
                self.counts.probe_resyncs += 1;
                (self.replica, self.departed) = index_of_live_peers(store);
            }
            CursorCatchUp::Deltas(deltas) => {
                for delta in deltas {
                    self.replay_on_replica(store, &delta.kind, ev, tracer);
                    self.counts.dirty_peers += delta.dirty.len() as u64;
                    let ctx = SelectContext::with_index(&self.replica, true).masked(&self.departed);
                    for &i in delta.dirty.iter().filter(|&&i| !self.departed[i]) {
                        let row = tracer.span("probe.overlay.select.select_in", ev, || {
                            EmptyRectSelection.select_in(store.peers(), i, &ctx)
                        });
                        if row != store.out_neighbors(i) {
                            self.counts.select_mismatches += 1;
                        }
                    }
                }
            }
        }

        let sampled = ev.is_multiple_of(PROBE_EVERY);
        for (g, seen) in self.rebuilds_seen.iter_mut().enumerate() {
            let gid = GroupId(g as u32);
            let now = engine.rebuild_count(gid);
            if now == *seen {
                continue;
            }
            *seen = now;
            let (true, Some(root)) = (sampled, engine.root(gid)) else {
                continue;
            };
            let members = engine.members(gid);
            let mut build = tracer.span("probe.core.groups.tree_build", ev, || {
                build_group_tree_on_store(store, root, members, &self.partitioner)
            });
            let (report, _support) = tracer.span("probe.core.graft.graft", ev, || {
                graft_stranded_members(store, &mut build, MetricKind::L1)
            });
            tracer.span("probe.core.dataplane.plan_compute", ev, || {
                DeliveryPlan::compute(&build, members, now)
            });
            self.counts.rebuild_probes += 1;
            let sum = &mut self.counts.graft;
            sum.grafted += report.grafted;
            sum.relays += report.relays;
            sum.route_hops += report.route_hops;
            sum.rect_fallbacks += report.rect_fallbacks;
            sum.flood_fallbacks += report.flood_fallbacks;
            sum.unreachable += report.unreachable;
        }
    }

    /// Replays the event on the standalone `GridIndex`, timing the three
    /// index operations the store's churn path is built from.
    fn replay_on_replica(
        &mut self,
        store: &TopologyStore,
        kind: &DeltaKind,
        ev: u64,
        tracer: &mut Tracer,
    ) {
        match *kind {
            DeltaKind::Join(v) => {
                let point = store.peers()[v].point();
                tracer.span("probe.geom.index.empty_rect_query", ev, || {
                    self.replica.empty_rect_neighbors_at(point, None)
                });
                let id = tracer.span("probe.geom.index.insert", ev, || self.replica.insert(point));
                assert_eq!(id, v, "replica ids track the store's");
                self.departed.push(false);
            }
            DeltaKind::Leave(v) => {
                tracer.span("probe.geom.index.remove", ev, || self.replica.remove(v));
                self.departed[v] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    /// A workload's shape at a size a debug-build test can afford.
    fn small(workload: Workload, shards: usize) -> EngineSpec {
        let mut spec = workload.engine_spec().expect("an engine workload");
        spec.peers = 300;
        spec.shards = shards;
        spec.groups = spec.groups.min(12);
        spec.subscriptions = 90;
        spec.churn_events = 60;
        spec.ticks_per_op = spec.ticks_per_op.min(3);
        spec.tick_cycle = 16;
        spec
    }

    fn ops(max_ops: u64) -> Limits {
        Limits {
            seconds: 1e6,
            max_ops,
        }
    }

    fn run_untraced(spec: &EngineSpec, seed: u64, max_ops: u64) -> (Phase, u64, Checks) {
        let inputs = EngineInputs::generate(spec, seed);
        let engine = build_engine(spec, &inputs, inputs.peers.clone());
        let mut driver = Driver::new(spec, &inputs, engine);
        let mut phase = Phase::default();
        driver.run(ops(max_ops), &mut phase, None);
        let fingerprint = driver.engine.store().fingerprint();
        (phase, fingerprint, driver.verify())
    }

    #[test]
    fn same_seed_gives_identical_counts_and_every_check_passes() {
        for workload in [
            Workload::ChurnK1,
            Workload::GroupsScattered,
            Workload::PublishSteady,
        ] {
            let spec = small(workload, 1);
            let (a, fp_a, checks) = run_untraced(&spec, 7, 40);
            let (b, fp_b, _) = run_untraced(&spec, 7, 40);
            assert_eq!(a.ops, 40);
            assert_eq!(fp_a, fp_b, "{workload:?}");
            assert_eq!(a.flush, b.flush, "{workload:?}: exact counts repeat");
            assert_eq!(
                (a.churn_ops, a.group_ops, a.ticks),
                (b.churn_ops, b.group_ops, b.ticks)
            );
            assert_eq!((a.joins.len() + a.leaves.len()) as u64, a.churn_ops);
            assert_eq!(a.ticks, 40 * spec.ticks_per_op as u64);
            assert_eq!(checks.failed, 0, "{:?}", checks.notes);
            assert!(checks.checked > spec.groups as u64);
            assert!(a.flush.payloads > 0 && a.delivered_ratio() == 1.0);
        }
    }

    #[test]
    fn sharded_and_single_shard_runs_end_on_the_same_topology() {
        let (k1, fp1, _) = run_untraced(&small(Workload::ChurnK1, 1), 3, 50);
        let (k4, fp4, checks) = run_untraced(&small(Workload::ChurnK16, 4), 3, 50);
        assert_eq!(fp1, fp4);
        assert_eq!(k1.flush, k4.flush);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
    }

    #[test]
    fn traced_loop_does_what_the_untraced_loop_does() {
        let spec = small(Workload::GroupsScattered, 1);
        let (untraced, fingerprint, _) = run_untraced(&spec, 5, 40);

        let inputs = EngineInputs::generate(&spec, 5);
        let engine = build_engine(&spec, &inputs, inputs.peers.clone());
        let mut driver = Driver::new(&spec, &inputs, engine);
        let mut tracer = Tracer::default();
        let (mut traced, mut counts) = (Phase::default(), ProbeCounts::default());
        driver.run_traced(ops(40), &mut tracer, &mut traced, &mut counts);

        assert_eq!(driver.engine.store().fingerprint(), fingerprint);
        assert_eq!(traced.flush, untraced.flush);
        assert_eq!(traced.leaves.len(), untraced.leaves.len());
        assert_eq!(traced.joins.len(), untraced.joins.len());
        assert_eq!(driver.verify().failed, 0);
        assert_eq!(counts.select_mismatches, 0);
        assert_eq!(counts.probe_resyncs, 0);
        assert!(counts.dirty_peers > 0 && counts.rebuild_probes > 0);

        // One root per op; every pipeline span hangs under a root and
        // every probe is a root of its own.
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "op").count(), 40);
        for span in spans {
            let is_root = span.parent.is_none();
            let side = span.name.starts_with("probe.");
            assert_eq!(is_root, side || span.name == "op", "{}", span.name);
        }
    }

    #[test]
    fn a_phase_resumes_where_the_previous_one_stopped() {
        let spec = small(Workload::ChurnK1, 1);
        let inputs = EngineInputs::generate(&spec, 2);
        let engine = build_engine(&spec, &inputs, inputs.peers.clone());
        let mut driver = Driver::new(&spec, &inputs, engine);
        let mut phase = Phase::default();
        driver.run(ops(10), &mut phase, None);
        assert_eq!(phase.ops, 10);
        driver.run(ops(u64::MAX), &mut phase, Some(&mut Yardstick::default()));
        assert_eq!(
            phase.ops,
            inputs.ops.len() as u64,
            "the stream is consumed once"
        );
        let (whole, fingerprint, _) = run_untraced(&spec, 2, u64::MAX);
        assert_eq!(whole.ops, inputs.ops.len() as u64);
        assert_eq!(driver.engine.store().fingerprint(), fingerprint);
    }
}
