//! Pinned counts of the work an incremental group repair does: one
//! clustered and one scattered `GroupEngine` run a fixed script of
//! joins, leaves, subscribes and unsubscribes, and the engine's rebuild,
//! zone-split, tree-node and graft-walk totals — with the store's join
//! walk and link counters — must come out exactly as pinned.
//!
//! `l1_outputs.rs` pins what a build returns; this file pins how much a
//! replayed rebuild redoes to return it, so a refactor that keeps the
//! outputs but replays less (or re-partitions more) shows here.

use std::sync::Arc;

use geocast::prelude::*;

/// splitmix64: the script's own deterministic picker.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The counters pinned for one script: the engine's rebuilds, zone
/// splits (replayed, recomputed), tree nodes touched and graft walks
/// (replayed, recomputed, spliced, examined), then the store's join walk
/// (joins, descent hops, rows read, peers offered) and the links leaves
/// made and joins cut; last, the front members the walk's offers were
/// tested against.
fn work(engine: &GroupEngine) -> [u64; 15] {
    let (t, store) = (engine.totals(), engine.store());
    let walk = store.join_walk_stats();
    [
        t.tree_rebuilds,
        t.zone_splits_replayed,
        t.zone_splits_recomputed,
        t.tree_nodes_touched,
        t.graft_walks_replayed,
        t.graft_walks_recomputed,
        t.graft_walks_spliced,
        t.graft_walks_examined,
        walk.joins,
        walk.descent_hops,
        walk.rows_read,
        walk.offered,
        store.links_made_by_leaves(),
        store.links_cut_by_joins(),
        walk.front_tests,
    ]
}

/// Seeds four groups over 500 peers, clustered or scattered, and runs
/// 120 events cycling join, leave, subscribe, unsubscribe: every pick is
/// a live peer or a member drawn from the script's own seed.
fn run_script(clustered: bool) -> [u64; 15] {
    let points = uniform_points(500, 2, 1000.0, 41);
    let store = TopologyStore::from_peers(
        PeerInfo::from_point_set(&points),
        Arc::new(EmptyRectSelection),
    );
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let sizes = [60, 35, 90, 20];
    let mut state = 7u64;
    let groups = if clustered {
        engine.seed_groups_clustered(&sizes, &mut state)
    } else {
        engine.seed_groups(&sizes, &mut state)
    };
    for step in 0..120 {
        let g = groups[next(&mut state) as usize % groups.len()];
        let (store, pick) = (engine.store(), next(&mut state) as usize);
        let mut live = (0..store.len()).filter(|&i| !store.departed()[i]);
        let any_live = PeerId(live.nth(pick % store.live_count()).expect("a live peer") as u64);
        match step % 4 {
            0 => {
                let at = [next(&mut state), next(&mut state)].map(|r| (r % 1_000_000) as f64 / 1e3);
                engine.join(Point::new(at.to_vec()).expect("a 2-D point"));
            }
            1 => engine.leave(any_live),
            2 => _ = engine.subscribe(g, any_live),
            _ => {
                let members = engine.members(g);
                if !members.is_empty() {
                    let pick = next(&mut state) as usize % members.len();
                    let member = *members.iter().nth(pick).expect("a member");
                    engine.unsubscribe(g, PeerId(member as u64));
                }
            }
        }
    }
    engine.sync();
    work(&engine)
}

#[test]
fn a_clustered_engines_repair_work_is_the_pinned_one() {
    let pinned = [
        86, 2934, 574, 627, 633, 116, 625, 140, 30, 0, 518, 4529, 229, 190, 19914,
    ];
    assert_eq!(run_script(true), pinned);
}

#[test]
fn a_scattered_engines_repair_work_is_the_pinned_one() {
    let pinned = [
        103, 444, 32, 1007, 4374, 402, 4350, 510, 30, 0, 566, 4860, 192, 229, 22823,
    ];
    assert_eq!(run_script(false), pinned);
}
