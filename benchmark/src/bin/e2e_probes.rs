//! `e2e-probes` — the per-layer probes that bind to seams ROADMAP item 2 may
//! remove (`ShardTransport`, `ThreadTransport`, `build_stats`,
//! `GroupBoundsIndex`). `e2e --trace 1` runs this binary and merges the
//! `name value` lines it prints; if it stops building, `e2e` still does.
//!
//! ```text
//! e2e-probes --workload W --seed N --seconds S
//! ```

use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use geocast::core::bounds::GroupBoundsIndex;
use geocast::core::groups::{GroupEngine, GroupId};
use geocast::overlay::select::EmptyRectSelection;
use geocast::overlay::{
    RuntimeConfig, RuntimeStats, SendOutcome, ShardCommand, ShardConfig, ShardRuntime,
    ShardTransport, ShardWorker, TopologyStore, WorkerReply,
};
use geocast_e2e::engine::build_engine;
use geocast_e2e::inputs::{EngineInputs, Op};
use geocast_e2e::spec::{EngineSpec, Workload};
use geocast_e2e::stats::ratio;

/// Share of `--seconds` each replay probe may run for.
const REPLAY_SHARE: f64 = 0.2;

/// A single-thread [`ShardTransport`]: `send` steps the worker at once and
/// queues its reply, `recv` pops it. Sixteen shards without sixteen
/// threads, so the escape ledger is measured free of scheduling noise.
struct InlineTransport {
    workers: Vec<ShardWorker>,
    replies: Vec<VecDeque<WorkerReply>>,
}

impl InlineTransport {
    fn new(workers: Vec<ShardWorker>) -> Self {
        let replies = workers.iter().map(|_| VecDeque::new()).collect();
        InlineTransport { workers, replies }
    }
}

impl ShardTransport for InlineTransport {
    fn shard_count(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, shard: usize, cmd: ShardCommand) -> SendOutcome {
        if let Some(reply) = self.workers[shard].step(cmd) {
            self.replies[shard].push_back(reply);
        }
        SendOutcome::Sent
    }

    fn recv(&mut self, shard: usize) -> WorkerReply {
        self.replies[shard]
            .pop_front()
            .expect("the coordinator only awaits replies it has asked for")
    }

    fn shutdown(&mut self) -> Vec<ShardWorker> {
        std::mem::take(&mut self.workers)
    }
}

/// Replays the workload's churn events through `runtime` until the budget
/// is spent; returns the wall time used.
fn replay<T: ShardTransport>(
    runtime: &mut ShardRuntime<T>,
    store: &mut TopologyStore,
    inputs: &EngineInputs,
    budget: Duration,
) -> Duration {
    let started = Instant::now();
    for op in &inputs.ops {
        if started.elapsed() >= budget {
            break;
        }
        match op {
            Op::Join(point) => {
                runtime.insert(store, point.clone());
            }
            Op::Leave(id) => runtime.remove(store, *id),
            Op::Group(_) => {}
        }
    }
    started.elapsed()
}

fn emit(name: &str, value: f64) {
    println!("{name} {value}");
}

fn shard_probes(store: &mut TopologyStore, inputs: &EngineInputs, budget: Duration) {
    let build = store.sharding().expect("built sharded").build_stats();
    let sum = |parts: &[Duration]| parts.iter().sum::<Duration>().as_secs_f64();
    emit("overlay.shard.build_assign_s", build.assign.as_secs_f64());
    emit("overlay.shard.build_index_s_sum", sum(&build.shard_index));
    emit("overlay.shard.build_select_s_sum", sum(&build.shard_select));
    emit(
        "overlay.shard.build_finalize_s",
        build.finalize.as_secs_f64(),
    );
    emit(
        "overlay.shard.mirrors_total",
        build.mirrors.iter().sum::<usize>() as f64,
    );

    let mut runtime =
        ShardRuntime::launch_with(store, &RuntimeConfig::default(), InlineTransport::new);
    replay(&mut runtime, store, inputs, budget);
    let stats = runtime.shutdown(store);
    let events = stats.events() as f64;
    emit("overlay.shard.escape_ratio", stats.escape_ratio());
    emit(
        "overlay.shard.cross_shard_requests_per_event",
        ratio(stats.cross_shard_requests as f64, events),
    );
    emit(
        "overlay.shard.shortlist_requests_per_event",
        ratio(stats.shortlist_requests as f64, events),
    );
}

/// The worker runtime on real threads, never more of them than cores.
fn runtime_probes(inputs: &EngineInputs, budget: Duration) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut store = TopologyStore::from_peers_sharded(
        inputs.peers.clone(),
        Arc::new(EmptyRectSelection),
        &ShardConfig::new(cores.min(4)),
    );
    let mut runtime = ShardRuntime::launch(&mut store, &RuntimeConfig::default());
    let wall = replay(&mut runtime, &mut store, inputs, budget).as_secs_f64();
    let stats: RuntimeStats = runtime.shutdown(&mut store);
    emit(
        "overlay.runtime.workers_events_per_s",
        ratio(stats.events() as f64, wall),
    );
    emit(
        "overlay.runtime.coordinator_busy_share",
        ratio(stats.coordinator_busy.as_secs_f64(), wall),
    );
    emit(
        "overlay.runtime.recv_wait_share",
        ratio(stats.recv_wait.as_secs_f64(), wall),
    );
    emit(
        "overlay.runtime.worker_busy_max_share",
        ratio(stats.max_worker_busy().as_secs_f64(), wall),
    );
    emit(
        "overlay.runtime.backpressure_stalls",
        stats.backpressure_stalls as f64,
    );
}

/// Rebuilds the engine's private support-box index from the public
/// `GroupBuild::support` sets and queries it at every peer's point.
fn bounds_probes(spec: &EngineSpec, engine: &GroupEngine) {
    let peers = engine.store().peers();
    let dim = peers[0].point().dim();
    let bbox = |ids: &mut dyn Iterator<Item = usize>| {
        let (mut lo, mut hi) = (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]);
        for i in ids {
            for (d, &x) in peers[i].point().coords().iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        (lo, hi)
    };
    let (domain_lo, domain_hi) = bbox(&mut (0..peers.len()));
    let mut index = GroupBoundsIndex::new(&domain_lo, &domain_hi);
    let supports: Vec<&[usize]> = (0..spec.groups)
        .map(|g| {
            engine
                .group_build(GroupId(g as u32))
                .map_or(&[][..], |build| &build.support[..])
        })
        .collect();
    for (g, support) in supports.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let (lo, hi) = bbox(&mut support.iter().copied());
        index.set(g, lo, hi);
    }

    let (mut candidates, mut confirmed) = (0u64, 0u64);
    let mut out = Vec::new();
    let mut query_time = Duration::ZERO;
    for (i, peer) in peers.iter().enumerate() {
        let started = Instant::now();
        index.candidates(peer.point().coords(), &mut out);
        query_time += started.elapsed();
        candidates += out.len() as u64;
        confirmed += out
            .iter()
            .filter(|&&g| supports[g as usize].binary_search(&i).is_ok())
            .count() as u64;
    }
    let queries = peers.len() as f64;
    emit(
        "core.bounds.candidates_us",
        query_time.as_secs_f64() * 1e6 / queries,
    );
    emit(
        "core.bounds.candidates_per_query",
        candidates as f64 / queries,
    );
    emit(
        "core.bounds.confirmed_ratio",
        ratio(confirmed as f64, candidates as f64),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let parsed = (
        value_of("--workload").and_then(|w| Workload::parse(w)),
        value_of("--seed").and_then(|s| s.parse::<u64>().ok()),
        value_of("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0),
    );
    let (Some(workload), Some(seed), Some(seconds)) = parsed else {
        eprintln!("usage: e2e-probes --workload W --seed N --seconds S");
        return ExitCode::from(2);
    };
    // `crash_wave` builds no sharded store and no group index of its own.
    let Some(spec) = workload.engine_spec() else {
        return ExitCode::SUCCESS;
    };
    let inputs = EngineInputs::generate(&spec, seed);
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    // One set-up serves both probes: the bounds probe reads the freshly
    // seeded groups, then the shard probe replays churn on the engine's own
    // store (the groups go stale, and are not read again).
    let mut engine = build_engine(&spec, &inputs, inputs.peers.clone());
    bounds_probes(&spec, &engine);
    shard_probes(engine.store_mut(), &inputs, budget);
    drop(engine);
    if spec.shards > 1 {
        runtime_probes(&inputs, budget);
    }
    ExitCode::SUCCESS
}
