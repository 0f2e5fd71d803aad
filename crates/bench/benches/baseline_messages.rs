//! Baseline: construction message cost — the §2 algorithm's N−1 versus
//! overlay flooding (the intro's "send many messages" claim).

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::figures::{baseline_messages, BaselineConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        BaselineConfig::default()
    } else {
        BaselineConfig::quick()
    };
    print_report(&baseline_messages(&cfg));

    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(500, 2, 1000.0, 1)),
        Arc::new(EmptyRectSelection),
    );
    let overlay = store.graph();
    let everyone: BTreeSet<usize> = (0..500).collect();
    let median = OrthantRectPartitioner::median();
    // §2 on the timed input: N − 1 messages, spanning, ≤ 2^D children.
    let ours = build_group_tree_on_store(&store, 0, &everyone, &median);
    let verdict = validate::check_section2(&ours, 500, 2);
    assert!(verdict.all_hold(), "{verdict:?}");
    let mut group = c.benchmark_group("baseline/construction");
    group.sample_size(20);
    group.bench_function(
        BenchmarkId::from_parameter("space_partitioning_n500"),
        |b| {
            b.iter(|| {
                build_group_tree_on_store(std::hint::black_box(&store), 0, &everyone, &median)
            });
        },
    );
    group.bench_function(BenchmarkId::from_parameter("flooding_n500"), |b| {
        b.iter(|| baseline::flood(std::hint::black_box(&overlay), 0));
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
