//! Tiled store engine scaling: bulk builds by tile count, with a
//! machine-readable summary.
//!
//! Recorded in `crates/bench/BENCH_shard.json`:
//! `TopologyStore::from_peers_sharded` at shard counts {1, 4, 16, 64}.
//! Index builds run shard-parallel and the selection folds
//! peer-parallel, so wall time is what a host with `cores` cores pays.
//! Next to it the JSON records a *critical-path model* — assign, plus
//! the slowest shard's (index + select), plus finalize, read from
//! `ShardBuildStats` — against the same sum at one tile (one core's
//! work): a diagnostic of what the decomposition would buy with one core
//! per shard, never a gate. What the bench asserts is exactness: bulk
//! build and churn replay against the oracle.
//!
//! Churn throughput by tile count is the `churn_k1` / `churn_k16` pair
//! of the end-to-end benchmark (`benchmark/`); the classic single-index
//! store and the group-bounds index this bench once measured are gone
//! (`docs/PERFORMANCE.md`, "Trials and verdicts").
//!
//! Quick scale (default) sweeps N = 50k; `GEOCAST_FULL=1` adds the
//! million-peer point.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::prelude::*;
use geocast_bench::full_scale;

const SHARD_COUNTS: [usize; 4] = [1, 4, 16, 64];

struct BulkPoint {
    n: usize,
    shards: usize,
    wall_s: f64,
    assign_s: f64,
    max_shard_s: f64,
    finalize_s: f64,
    critical_path_s: f64,
    speedup_critical_path: f64,
}

fn bulk_sweep(n: usize, peers: &[PeerInfo]) -> Vec<BulkPoint> {
    // The first point is one tile: its critical path — one core's work
    // — is the model's baseline.
    let mut one_tile_path_s = None;
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let start = Instant::now();
            let store = TopologyStore::from_peers_sharded(
                peers.to_vec(),
                Arc::new(EmptyRectSelection),
                &ShardConfig::new(shards),
            );
            let wall_s = start.elapsed().as_secs_f64();
            let stats = store.sharding().build_stats();
            let assign_s = stats.assign.as_secs_f64();
            let max_shard_s = (0..shards)
                .map(|s| (stats.shard_index[s] + stats.shard_select[s]).as_secs_f64())
                .fold(0.0f64, f64::max);
            let finalize_s = stats.finalize.as_secs_f64();
            let critical_path_s = assign_s + max_shard_s + finalize_s;
            let baseline_s = *one_tile_path_s.get_or_insert(critical_path_s);
            println!(
                "bulk N={n} shards={shards}: wall {wall_s:.2}s, critical path \
                 {critical_path_s:.2}s ({assign_s:.2} assign + {max_shard_s:.2} \
                 slowest shard + {finalize_s:.2} finalize) => {:.1}x vs one tile",
                baseline_s / critical_path_s
            );
            BulkPoint {
                n,
                shards,
                wall_s,
                assign_s,
                max_shard_s,
                finalize_s,
                critical_path_s,
                speedup_critical_path: baseline_s / critical_path_s,
            }
        })
        .collect()
}

/// Cross-check against the definition at a size where it is cheap: the
/// bench refuses to report anything for a divergent engine (the
/// exhaustive version lives in `prop_shard.rs`).
fn exactness_check(shards: usize) -> bool {
    let peers = PeerInfo::from_point_set(&uniform_points(1_500, 2, 1000.0, 3));
    let mut store = TopologyStore::from_peers_sharded(
        peers.clone(),
        Arc::new(EmptyRectSelection),
        &ShardConfig::new(shards),
    );
    let built = oracle::equilibrium(&peers, &EmptyRectSelection);
    let exact_build = store.graph() == built && store.fingerprint() == oracle::fingerprint(&built);
    let pattern = ChurnPattern::Mixed {
        events: 80,
        join_rate: 1,
        leave_rate: 1,
    };
    let schedule = churn::ChurnSchedule::from_pattern(1_500, &pattern, 2, 1000.0, 11);
    churn::run_schedule_on_store(&mut store, &schedule);
    let churned = oracle::equilibrium_live(store.peers(), store.departed(), &EmptyRectSelection);
    exact_build && store.graph() == churned && store.fingerprint() == oracle::fingerprint(&churned)
}

fn write_summary(cores: usize, bulk: &[BulkPoint], exact: bool) {
    let mut json = String::from("{\n  \"bench\": \"shard_scaling\",\n  \"dim\": 2,\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(
        "  \"speedup_model\": \"critical_path: assign + slowest shard (index+select) + \
         finalize, vs the one-tile critical path\",\n",
    );
    json.push_str(&format!("  \"exact_vs_oracle\": {exact},\n"));
    json.push_str("  \"bulk_build\": [\n");
    for (i, b) in bulk.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"shards\": {}, \"wall_seconds\": {:.3}, \
             \"assign_seconds\": {:.3}, \"slowest_shard_seconds\": {:.3}, \
             \"finalize_seconds\": {:.3}, \"critical_path_seconds\": {:.3}, \
             \"speedup_critical_path\": {:.1}}}{}\n",
            b.n,
            b.shards,
            b.wall_s,
            b.assign_s,
            b.max_shard_s,
            b.finalize_s,
            b.critical_path_s,
            b.speedup_critical_path,
            if i + 1 < bulk.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_shard.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

fn shard_scaling(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let exact = exactness_check(16);
    assert!(exact, "the tiled engine diverged from the oracle");

    let n = 50_000;
    let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 1));
    let mut bulk = bulk_sweep(n, &peers);
    if full_scale() {
        let n = 1_000_000;
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 2));
        bulk.extend(bulk_sweep(n, &peers));
    }

    write_summary(cores, &bulk, exact);

    // Criterion samples the sharded insert path at a modest population.
    let mut group = c.benchmark_group("shard/store_insert");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("n20000_s16_d2"), |b| {
        let base = PeerInfo::from_point_set(&uniform_points(20_000, 2, 1000.0, 9));
        let mut store = TopologyStore::from_peers_sharded(
            base,
            Arc::new(EmptyRectSelection),
            &ShardConfig::new(16),
        );
        let mut extra = uniform_points(4_096, 2, 1000.0, 10)
            .into_points()
            .into_iter();
        b.iter(|| {
            let p = extra.next().expect("enough pre-drawn points");
            store.insert(std::hint::black_box(p))
        });
    });
    group.finish();
}

criterion_group!(benches, shard_scaling);
criterion_main!(benches);
