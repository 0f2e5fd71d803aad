//! Fig. 1(d): stability-tree diameter vs K for D = 2..10. Regenerates
//! the panel, then times the K-sweep machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::stability::{preferred_links, PreferredPolicy};
use geocast::figures::{fig1d, StabilityConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        StabilityConfig::default()
    } else {
        StabilityConfig::quick()
    };
    print_report(&fig1d(&cfg));

    let mut group = c.benchmark_group("fig1d/k_sweep");
    group.sample_size(10);
    for dim in [2usize, 5] {
        let base = uniform_points(300, dim, 1000.0, 1);
        let times = lifetimes(300, 1000.0, 2);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let ks: Vec<usize> = vec![1, 5, 10, 25, 50];
        // §3 at every K: the preferred links form one tree with the heap property.
        oracle::orthogonal_k_sweep_with(&peers, MetricKind::L1, &ks, |k, graph| {
            let forest = preferred_links(&peers, graph, PreferredPolicy::MaxT);
            assert!(
                forest.is_tree() && forest.heap_property_holds(&peers),
                "D={dim} K={k}"
            );
        });
        group.bench_function(
            BenchmarkId::from_parameter(format!("n300_d{dim}_5ks")),
            |b| {
                b.iter(|| {
                    let mut diameters = Vec::new();
                    oracle::orthogonal_k_sweep_with(
                        std::hint::black_box(&peers),
                        MetricKind::L1,
                        &ks,
                        |_, graph| {
                            let tree = preferred_links(&peers, graph, PreferredPolicy::MaxT)
                                .to_multicast_tree()
                                .expect("tree at equilibrium");
                            diameters.push(tree.diameter());
                        },
                    );
                    diameters
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
