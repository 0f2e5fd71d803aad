//! §2/§3 in-text claims: N−1 messages, zero duplicates, heap-property
//! trees. Regenerates both claim tables, then times the full distributed
//! construction.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geocast::core::protocol;
use geocast::figures::{claims_section2, claims_section3, ClaimsConfig};
use geocast::prelude::*;
use geocast_bench::{full_scale, print_report};

fn regenerate_and_time(c: &mut Criterion) {
    let cfg = if full_scale() {
        ClaimsConfig::default()
    } else {
        ClaimsConfig::quick()
    };
    print_report(&claims_section2(&cfg));
    print_report(&claims_section3(&cfg));

    let mut group = c.benchmark_group("claims/distributed_build");
    group.sample_size(10);
    for n in [100usize, 300] {
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, 2, 1000.0, 1)),
            Arc::new(EmptyRectSelection),
        );
        let (peers, overlay) = (store.peers(), store.graph());
        // §2 on the timed input: N − 1 messages, spanning, ≤ 2^D children.
        let everyone = (0..n).collect();
        let median = OrthantRectPartitioner::median();
        let offline = build_group_tree_on_store(&store, 0, &everyone, &median);
        let verdict = validate::check_section2(&offline, n, 2);
        assert!(verdict.all_hold(), "n={n}: {verdict:?}");
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let result = protocol::build_distributed_default(
                    std::hint::black_box(peers),
                    std::hint::black_box(&overlay),
                    0,
                    Arc::new(OrthantRectPartitioner::median()),
                    7,
                );
                assert_eq!(result.duplicates, 0);
                result.messages
            });
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_time);
criterion_main!(benches);
