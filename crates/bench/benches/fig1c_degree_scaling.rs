//! Fig. 1(c): overlay degree vs N at D = 2 with the 10·log10(N)
//! reference. Regenerates the panel, then times the store's bulk build
//! as N grows.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::figures::{fig1c, Fig1cConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        Fig1cConfig::default()
    } else {
        Fig1cConfig::quick()
    };
    print_report(&fig1c(&cfg));

    let mut group = c.benchmark_group("fig1c/equilibrium_scaling");
    group.sample_size(10);
    for n in [100usize, 250, 500, 1000] {
        let peers = PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 1));
        let build = || {
            let peers = std::hint::black_box(peers.clone());
            TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection)).graph()
        };
        // §2's substrate: empty-rectangle links are mutual and connect everyone.
        let graph = build();
        assert!(graph.is_symmetric() && graph.is_connected_undirected());
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(build);
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
