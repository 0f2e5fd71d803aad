//! Golden digests of the outputs the L1 distance drives: the figures'
//! stability and ablation tables, an orthogonal store under churn,
//! greedy routes, distributed §2 builds, grafted group builds, §3
//! preferred links and the geometric stretch.
//!
//! Each test folds numbers and peer ids — never labels — into an FNV-1a
//! digest and compares it with the pinned value, so any change to how a
//! distance is computed or where it is read shows here.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast::core::graft::GraftReport;
use geocast::core::stability::{preferred_links_on_store, PreferredPolicy};
use geocast::figures::{
    ablation_partitioner, baseline_stability, claims_section3, fig1d, fig1e, AblationConfig,
    BaselineConfig, ClaimsConfig, FigureReport, StabilityConfig,
};
use geocast::geom::VMAX;
use geocast::overlay::analysis::geometric_stretch;
use geocast::overlay::churn::{run_schedule_on_store, ChurnSchedule};
use geocast::overlay::routing::route_to_peer;
use geocast::prelude::*;

/// FNV-1a over the little-endian bytes of each folded word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn id(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn ids(&mut self, ids: &[usize]) {
        self.id(ids.len());
        for &i in ids {
            self.id(i);
        }
    }

    fn opt(&mut self, i: Option<usize>) {
        self.word(i.map_or(u64::MAX, |i| i as u64));
    }

    fn num(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn tree(&mut self, tree: &MulticastTree) {
        self.id(tree.root());
        for i in 0..tree.len() {
            self.opt(tree.parent(i));
        }
    }

    fn graft(&mut self, r: &GraftReport) {
        for n in [
            r.grafted,
            r.relays,
            r.route_hops,
            r.rect_fallbacks,
            r.flood_fallbacks,
            r.flood_messages,
            r.unreachable,
        ] {
            self.id(n);
        }
    }

    /// Folds every cell that reads as a number or a boolean, skipping the
    /// labels.
    fn table(&mut self, report: &FigureReport) {
        for row in report.table.rows() {
            for cell in row {
                if let Ok(x) = cell.parse::<f64>() {
                    self.num(x);
                } else if let Ok(b) = cell.parse::<bool>() {
                    self.word(u64::from(b));
                }
            }
        }
    }
}

fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
    PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed))
}

fn empty_rect_store(n: usize, dim: usize, seed: u64) -> TopologyStore {
    TopologyStore::from_peers(peers(n, dim, seed), Arc::new(EmptyRectSelection))
}

fn orthogonal_store(n: usize, dim: usize, k: usize, seed: u64) -> TopologyStore {
    let selection = HyperplanesSelection::orthogonal(dim, k);
    TopologyStore::from_peers(peers(n, dim, seed), Arc::new(selection))
}

fn assert_pinned(digest: &Digest, pinned: u64, what: &str) {
    assert_eq!(
        digest.0, pinned,
        "{what} differ from the pinned L1 outputs: {:#018x}",
        digest.0
    );
}

#[test]
fn figure_tables_are_the_pinned_ones() {
    let mut d = Digest::new();
    let stability = StabilityConfig::quick();
    d.table(&fig1d(&stability));
    d.table(&fig1e(&stability));
    d.table(&claims_section3(&ClaimsConfig::quick()));
    d.table(&ablation_partitioner(&AblationConfig::quick()));
    d.table(&baseline_stability(&BaselineConfig::quick()));
    assert_pinned(
        &d,
        0xc606_3d15_7064_8ac4,
        "the fig1d / fig1e / claims-s3 / ablation / baseline-stability cells",
    );
}

#[test]
fn orthogonal_store_fingerprint_after_churn_is_the_pinned_one() {
    let mut store = orthogonal_store(150, 3, 2, 21);
    let schedule = ChurnSchedule::random(150, 100, 100, 3, VMAX, 22);
    assert_eq!(schedule.len(), 200);
    let report = run_schedule_on_store(&mut store, &schedule);
    let mut d = Digest::new();
    d.word(store.fingerprint());
    d.id(report.touched_total);
    d.id(report.touched_max);
    assert_pinned(
        &d,
        0xda4c_5728_454a_22e2,
        "the K = 2, D = 3 store after 200 churn events",
    );
}

#[test]
fn routes_are_the_pinned_ones() {
    let mut d = Digest::new();
    for store in [empty_rect_store(200, 2, 5), orthogonal_store(200, 3, 1, 6)] {
        for from in [0usize, 37, 111, 199] {
            for to in 0..store.len() {
                let route = route_to_peer(&store, from, to);
                d.ids(route.path());
                d.word(u64::from(route.delivered()));
                d.word(u64::from(route.local_minimum()));
            }
        }
    }
    assert_pinned(&d, 0xafba_47bf_e98e_ef25, "route_to_peer paths");
}

#[test]
fn distributed_builds_are_the_pinned_ones() {
    let mut d = Digest::new();
    let store = empty_rect_store(150, 2, 9);
    let graph = store.graph();
    for partitioner in [
        OrthantRectPartitioner::median(),
        OrthantRectPartitioner::closest(),
        OrthantRectPartitioner::farthest(),
    ] {
        for root in [0usize, 74, 149] {
            let built =
                protocol::build_distributed_default(store.peers(), &graph, root, partitioner, 13);
            d.tree(&built.tree);
            d.word(built.messages);
            d.word(built.duplicates);
            d.word(built.elapsed.as_nanos());
        }
    }
    assert_pinned(&d, 0x82fe_9118_f7d2_8eb6, "build_distributed trees");
}

#[test]
fn scattered_group_builds_are_the_pinned_ones() {
    let mut d = Digest::new();
    let sparse = HyperplanesSelection::k_closest(2, 2);
    for store in [
        empty_rect_store(400, 2, 17),
        orthogonal_store(400, 3, 1, 18),
        TopologyStore::from_peers(peers(400, 2, 19), Arc::new(sparse)),
    ] {
        // 60 members scattered over the whole population.
        let members: BTreeSet<usize> = (0..60).map(|i| (i * 389 + 7) % store.len()).collect();
        assert_eq!(members.len(), 60);
        let root = *members.first().expect("members");
        let group =
            build_group_tree_grafted(&store, root, &members, &OrthantRectPartitioner::median());
        d.tree(&group.build.tree);
        d.id(group.build.messages);
        d.ids(&group.build.relays);
        d.ids(&group.build.stranded);
        d.graft(&group.graft);
        d.ids(&group.support);
    }
    assert_pinned(
        &d,
        0xd7ba_29ff_4d05_fe13,
        "the scattered group's GroupBuild",
    );
}

#[test]
fn preferred_links_and_stretch_are_the_pinned_ones() {
    let mut d = Digest::new();
    let base = uniform_points(120, 3, VMAX, 41);
    let times = lifetimes(120, VMAX, 42);
    let selection = HyperplanesSelection::orthogonal(3, 2);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&embed_lifetimes(&base, &times)),
        Arc::new(selection),
    );
    let forest = preferred_links_on_store(&store, PreferredPolicy::ClosestHigherT);
    for &p in forest.preferred() {
        d.opt(p);
    }
    let graph = store.graph();
    d.num(geometric_stretch(store.peers(), &graph, 300, 43));
    assert_pinned(
        &d,
        0x861d_97f7_d645_b867,
        "closest-higher-T links and the geometric stretch",
    );
}
