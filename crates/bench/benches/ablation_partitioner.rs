//! Ablation of the §2 child-pick rule (median vs closest vs farthest).
//! Regenerates the comparison table, then times each rule's build.

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::figures::{ablation_partitioner, AblationConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        AblationConfig::default()
    } else {
        AblationConfig::quick()
    };
    print_report(&ablation_partitioner(&cfg));

    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&uniform_points(400, 2, 1000.0, 1)),
        Arc::new(EmptyRectSelection),
    );
    let everyone: BTreeSet<usize> = (0..400).collect();
    let mut group = c.benchmark_group("ablation/build_by_rule");
    group.sample_size(20);
    for (name, partitioner) in [
        ("median", OrthantRectPartitioner::median()),
        ("closest", OrthantRectPartitioner::closest()),
        ("farthest", OrthantRectPartitioner::farthest()),
    ] {
        // §2 under every pick rule: N − 1 messages, spanning, ≤ 2^D children.
        let build = build_group_tree_on_store(&store, 0, &everyone, &partitioner);
        let verdict = validate::check_section2(&build, 400, 2);
        assert!(verdict.all_hold(), "{name}: {verdict:?}");
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                build_group_tree_on_store(std::hint::black_box(&store), 0, &everyone, &partitioner)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
