//! Tiled store engine scaling: bulk builds by tile count and the
//! group-bounds index, with a machine-readable summary.
//!
//! Two axes, recorded in `crates/bench/BENCH_shard.json`:
//!
//! 1. **Bulk build.** `TopologyStore::from_peers_sharded` at shard
//!    counts {1, 4, 16, 64}. Index builds run shard-parallel and the
//!    selection folds peer-parallel, so wall time is what a host with
//!    `cores` cores pays. Next to it the JSON records a *critical-path
//!    model* — assign + the slowest shard's (index + select) + finalize,
//!    read from `ShardBuildStats` — against the same sum at one tile
//!    (one core's work): a diagnostic of what the decomposition would
//!    buy with one core per shard, never a gate.
//! 2. **Group-bounds probes.** The `GroupBoundsIndex` affected-group
//!    lookup versus a linear scan over all group boxes at G = 10k
//!    (100k with `GEOCAST_FULL=1`) groups — the satellite that keeps
//!    delta-driven repair sublinear in the session count.
//!
//! Churn throughput by tile count is the `churn_k1` / `churn_k16` pair
//! of the end-to-end benchmark (`benchmark/`); the classic single-index
//! store this bench once compared against is gone (`docs/PERFORMANCE.md`,
//! "classic-engine trial").
//!
//! Quick scale (default) sweeps N = 50k; `GEOCAST_FULL=1` adds the
//! million-peer point.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::bounds::GroupBoundsIndex;
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

struct GroupIndexPoint {
    groups: usize,
    probes: usize,
    index_probes_per_s: f64,
    scan_probes_per_s: f64,
    speedup: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn group_index_sweep(groups: usize, probes: usize) -> GroupIndexPoint {
    let mut state = 0x5eed_u64;
    let boxes: Vec<(Vec<f64>, Vec<f64>)> = (0..groups)
        .map(|_| {
            // Cluster-shaped session footprints: ~30-unit support boxes
            // scattered over a 1000x1000 domain.
            let cx = unit(&mut state) * 1000.0;
            let cy = unit(&mut state) * 1000.0;
            let w = 10.0 + unit(&mut state) * 40.0;
            let h = 10.0 + unit(&mut state) * 40.0;
            (
                vec![(cx - w).max(0.0), (cy - h).max(0.0)],
                vec![(cx + w).min(1000.0), (cy + h).min(1000.0)],
            )
        })
        .collect();
    let mut index = GroupBoundsIndex::new(&[0.0, 0.0], &[1000.0, 1000.0]);
    for (gi, (lo, hi)) in boxes.iter().enumerate() {
        index.set(gi, lo.clone(), hi.clone());
    }
    let points: Vec<[f64; 2]> = (0..probes)
        .map(|_| [unit(&mut state) * 1000.0, unit(&mut state) * 1000.0])
        .collect();

    let mut out = Vec::new();
    let mut index_hits = 0usize;
    let start = Instant::now();
    for p in &points {
        index.candidates(p, &mut out);
        index_hits += out.len();
    }
    let index_s = start.elapsed().as_secs_f64();

    let mut scan_hits = 0usize;
    let start = Instant::now();
    for p in &points {
        scan_hits += boxes
            .iter()
            .filter(|(lo, hi)| {
                lo.iter()
                    .zip(hi)
                    .zip(p.iter())
                    .all(|((&l, &h), &x)| l <= x && x <= h)
            })
            .count();
    }
    let scan_s = start.elapsed().as_secs_f64();
    assert_eq!(index_hits, scan_hits, "bounds index diverged from scan");

    let point = GroupIndexPoint {
        groups,
        probes,
        index_probes_per_s: probes as f64 / index_s.max(1e-9),
        scan_probes_per_s: probes as f64 / scan_s.max(1e-9),
        speedup: scan_s / index_s.max(1e-12),
    };
    println!(
        "group bounds G={groups}: index {:.0} probes/s vs scan {:.0} probes/s \
         => {:.1}x ({index_hits} hits)",
        point.index_probes_per_s, point.scan_probes_per_s, point.speedup
    );
    point
}

fn write_summary(cores: usize, bulk: &[BulkPoint], gi: &GroupIndexPoint, exact: bool) {
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
    json.push_str(&format!(
        "  ],\n  \"group_bounds_index\": {{\"groups\": {}, \"probes\": {}, \
         \"index_probes_per_second\": {:.0}, \"scan_probes_per_second\": {:.0}, \
         \"speedup\": {:.1}}}\n}}\n",
        gi.groups, gi.probes, gi.index_probes_per_s, gi.scan_probes_per_s, gi.speedup,
    ));
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

    let groups = if full_scale() { 100_000 } else { 10_000 };
    let gi = group_index_sweep(groups, 4_000);
    write_summary(cores, &bulk, &gi, exact);

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
