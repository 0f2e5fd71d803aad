//! Fig. 1(e): maximum multicast-tree degree vs K for D = 2..10.
//! Regenerates the panel, then times preferred-link selection alone.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::stability::{preferred_links, PreferredPolicy};
use geocast::figures::{fig1e, StabilityConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        StabilityConfig::default()
    } else {
        StabilityConfig::quick()
    };
    print_report(&fig1e(&cfg));

    let mut group = c.benchmark_group("fig1e/preferred_links");
    group.sample_size(20);
    for k in [1usize, 10, 50] {
        let base = uniform_points(400, 3, 1000.0, 1);
        let times = lifetimes(400, 1000.0, 2);
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&embed_lifetimes(&base, &times)),
            Arc::new(HyperplanesSelection::orthogonal(3, k, MetricKind::L1)),
        );
        let (peers, overlay) = (store.peers(), store.graph());
        // §3: the preferred links form one tree with the heap property.
        let forest = preferred_links(peers, &overlay, PreferredPolicy::MaxT);
        assert!(
            forest.is_tree() && forest.heap_property_holds(peers),
            "K={k}"
        );
        group.bench_function(BenchmarkId::from_parameter(format!("n400_d3_k{k}")), |b| {
            b.iter(|| {
                preferred_links(
                    std::hint::black_box(peers),
                    std::hint::black_box(&overlay),
                    PreferredPolicy::MaxT,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
