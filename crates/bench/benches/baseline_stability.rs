//! Baseline: departure sensitivity — §3 stability tree versus BFS and
//! random-parent trees under the full departure schedule.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::stability::{non_leaf_departures, preferred_links, PreferredPolicy};
use geocast::figures::{baseline_stability, BaselineConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        BaselineConfig::default()
    } else {
        BaselineConfig::quick()
    };
    print_report(&baseline_stability(&cfg));

    let base = uniform_points(500, 2, 1000.0, 1);
    let times_vec = lifetimes(500, 1000.0, 2);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&embed_lifetimes(&base, &times_vec)),
        Arc::new(HyperplanesSelection::orthogonal(2, 2, MetricKind::L1)),
    );
    let (peers, overlay) = (store.peers(), store.graph());
    // §3: the preferred links form one tree with the heap property.
    let forest = preferred_links(peers, &overlay, PreferredPolicy::MaxT);
    assert!(forest.is_tree() && forest.heap_property_holds(peers));
    let tree = forest.to_multicast_tree().expect("tree");
    let t: Vec<f64> = peers
        .iter()
        .map(geocast::prelude::PeerInfo::departure_time)
        .collect();

    let mut group = c.benchmark_group("baseline/departure_replay");
    group.sample_size(20);
    group.bench_function(BenchmarkId::from_parameter("replay_n500"), |b| {
        b.iter(|| non_leaf_departures(std::hint::black_box(&tree), std::hint::black_box(&t)));
    });
    group.bench_function(BenchmarkId::from_parameter("preferred_links_n500"), |b| {
        b.iter(|| preferred_links(std::hint::black_box(peers), &overlay, PreferredPolicy::MaxT));
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
