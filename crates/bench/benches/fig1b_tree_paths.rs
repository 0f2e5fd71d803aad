//! Fig. 1(b): root-to-leaf path lengths of the §2 multicast tree vs D.
//! Regenerates the panel, then times single tree constructions.

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::figures::{fig1b, Fig1Config};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        Fig1Config::default()
    } else {
        Fig1Config::quick()
    };
    print_report(&fig1b(&cfg));

    let mut group = c.benchmark_group("fig1b/section2_build");
    group.sample_size(20);
    for (n, dim) in [(200usize, 2usize), (500, 2), (200, 5)] {
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, 1)),
            Arc::new(EmptyRectSelection),
        );
        let everyone: BTreeSet<usize> = (0..n).collect();
        let partitioner = OrthantRectPartitioner::median();
        // §2 on the timed input: N − 1 messages, spanning, ≤ 2^D children.
        let build = build_group_tree_on_store(&store, 0, &everyone, &partitioner);
        let verdict = validate::check_section2(&build, n, dim);
        assert!(verdict.all_hold(), "n={n} D={dim}: {verdict:?}");
        group.bench_function(BenchmarkId::from_parameter(format!("n{n}_d{dim}")), |b| {
            b.iter(|| {
                build_group_tree_on_store(std::hint::black_box(&store), 0, &everyone, &partitioner)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
