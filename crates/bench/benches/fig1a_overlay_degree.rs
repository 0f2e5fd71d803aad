//! Fig. 1(a): max/avg overlay degree vs D under the empty-rectangle
//! rule. Regenerates the panel, then times the store's bulk build that
//! produces it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::figures::{fig1a, Fig1Config};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        Fig1Config::default()
    } else {
        Fig1Config::quick()
    };
    print_report(&fig1a(&cfg));

    let mut group = c.benchmark_group("fig1a/equilibrium");
    group.sample_size(10);
    for (n, dim) in [(200usize, 2usize), (200, 4), (500, 2)] {
        let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, 1));
        let build = || {
            let peers = std::hint::black_box(peers.clone());
            TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph()
        };
        // §2's substrate: empty-rectangle links are mutual and connect everyone.
        let graph = build();
        assert!(graph.is_symmetric() && graph.is_connected_undirected());
        group.bench_function(BenchmarkId::from_parameter(format!("n{n}_d{dim}")), |b| {
            b.iter(build);
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
