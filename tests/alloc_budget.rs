//! Allocation budgets of the hot paths, counted on a warm engine shaped
//! like the `churn_k1` benchmark workload (20 000 uniform 2-D peers under
//! the empty-rectangle rule, eight clustered groups of twenty): a warm
//! data-plane tick, two `sync`s after a churn event next to a group (one
//! re-runs a single step, the other several), one store join and one
//! store leave; and, cold, the bulk build of that store, a from-scratch
//! build of a group scattered over a smaller store, and one wave of the
//! `crash_wave` workload. An allocation count
//! is exact and needs no quiet host, so each budget is pinned at its
//! measured value with no slack: a change that lowers one re-pins it,
//! and none raises one to pass.
//!
//! The counts are of release builds. Debug builds re-select every row a
//! store event edits and rebuild every kept group from scratch, which
//! allocates by design, so there the tests are ignored; run them with
//! `cargo test --release --test alloc_budget`.
//!
//! A counting global allocator wraps the system one. Counts are per
//! thread, so the test harness's other threads do not leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use geocast::core::detect::{run_detection, DetectionScenario};
use geocast::geom::VMAX;
use geocast::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// the calling thread makes.
struct Counting;

fn count_one() {
    // A const-initialised `Cell` has no destructor, so the slot is
    // readable for the whole life of the thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, which does not
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns what it returned with the allocations and
/// reallocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// splitmix64: the script's own deterministic picker.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `churn_k1`-shaped engine, its groups, and the picker's state.
struct Warm {
    engine: GroupEngine,
    groups: Vec<GroupId>,
    state: u64,
}

impl Warm {
    /// Builds the engine and runs 64 churn events through it, each
    /// followed by a tick, so every buffer the measured calls reuse has
    /// grown to its working size.
    fn new() -> Self {
        let peers = PeerInfo::from_point_set(&uniform_points(20_000, 2, VMAX, 1));
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
        let mut state = 11u64;
        let groups = engine.seed_groups_clustered(&[20; 8], &mut state);
        let mut warm = Warm {
            engine,
            groups,
            state,
        };
        for event in 0..64 {
            if event % 2 == 0 {
                let point = warm.newcomer();
                warm.engine.join(point);
            } else {
                let id = warm.live_peer();
                warm.engine.leave(id);
            }
            warm.tick();
        }
        warm
    }

    fn newcomer(&mut self) -> Point {
        let at = [next(&mut self.state), next(&mut self.state)];
        Point::new(at.map(|r| (r % 1_000_000) as f64 / 1e6 * VMAX).to_vec()).expect("a 2-D point")
    }

    fn live_peer(&mut self) -> PeerId {
        let store = self.engine.store();
        let pick = next(&mut self.state) as usize % store.live_count();
        let mut live = (0..store.len()).filter(|&i| !store.departed()[i]);
        PeerId(live.nth(pick).expect("a live peer") as u64)
    }

    /// One payload on every group, then the flush, as the harness's
    /// tick: returns the batches flushed.
    fn tick(&mut self) -> usize {
        for &g in &self.groups {
            self.engine.enqueue(g, 1);
        }
        self.engine.flush_tick().len()
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_warm_tick_allocates_only_its_batch_list() {
    let mut warm = Warm::new();
    let (batches, allocs) = allocations(|| warm.tick());
    assert_eq!(batches, 8, "every group is live and flushed");
    assert_eq!(allocs, 1, "a warm enqueue + flush_tick");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_sync_that_keeps_an_examined_group_allocates_its_budget() {
    // A neighbour of a group's root departs: the group is examined, its
    // steps that read the dirty rows re-run and stand, and it is kept.
    let mut warm = Warm::new();
    let g = warm.groups[0];
    let root = warm.engine.root(g).expect("a live group");
    let members = warm.engine.members(g);
    let outsider = (warm.engine.store().out_neighbors(root).into_iter())
        .find(|j| !members.contains(j))
        .expect("a root with a neighbour outside its group");
    warm.engine.store_mut().remove(PeerId(outsider as u64));
    let ((), allocs) = allocations(|| warm.engine.sync());
    let sync = warm.engine.last_sync();
    assert_eq!((sync.affected_groups, sync.certified_groups), (1, 1));
    assert_eq!(allocs, 3, "one sync after a leave next to a group");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_sync_that_reruns_several_steps_allocates_its_budget() {
    // An outsider next to a group's root and to more of its members
    // departs: the group is examined, the step of each of those members
    // re-runs — each reading its row in place in the store —
    // and stands, and the group is kept.
    let mut warm = Warm::new();
    let engine = &warm.engine;
    let outsider = (warm.groups.iter())
        .find_map(|&g| {
            let root = engine.root(g).expect("a live group");
            let members = engine.members(g);
            let outsiders = engine.store().out_neighbors(root).into_iter();
            outsiders.filter(|j| !members.contains(j)).find(|&x| {
                let row = engine.store().neighbors(x);
                row.filter(|j| members.contains(j)).count() >= 3
            })
        })
        .expect("an outsider next to a root and two more members");
    warm.engine.store_mut().remove(PeerId(outsider as u64));
    let ((), allocs) = allocations(|| warm.engine.sync());
    let sync = warm.engine.last_sync();
    assert_eq!((sync.affected_groups, sync.certified_groups), (1, 1));
    assert_eq!(allocs, 4, "one sync that re-runs several steps");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_scattered_group_build_allocates_its_budget() {
    // A from-scratch build of a group scattered over a `groups_scattered`-
    // sized store: most members are stranded, and the graft pass searches
    // for so many walk targets that it builds its grid of the on-tree
    // nodes.
    let peers = PeerInfo::from_point_set(&uniform_points(3_000, 2, VMAX, 5));
    let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let mut state = 17u64;
    let members: BTreeSet<usize> = (0..120)
        .map(|_| next(&mut state) as usize % store.len())
        .collect();
    let root = *members.first().expect("members");
    let partitioner = OrthantRectPartitioner::median();
    let (build, allocs) =
        allocations(|| build_group_tree_grafted(&store, root, &members, &partitioner));
    assert!(build.graft.grafted > 8, "the pass searches its grid");
    assert_eq!(allocs, 117, "one scattered group build");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_store_join_allocates_its_budget() {
    let mut warm = Warm::new();
    let point = warm.newcomer();
    let (_, allocs) = allocations(|| warm.engine.store_mut().insert(point));
    assert_eq!(allocs, 19, "one empty-rectangle join on the store");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_store_leave_allocates_its_budget() {
    let mut warm = Warm::new();
    let id = warm.live_peer();
    let ((), allocs) = allocations(|| warm.engine.store_mut().remove(id));
    assert_eq!(allocs, 23, "one empty-rectangle leave on the store");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_bulk_build_allocates_its_budget() {
    // The store `Warm` starts from, built by the plane sweep: serial, so
    // every allocation is on this thread, and each row is allocated
    // once, at its exact length. The rest are the index's and the
    // sweep's transient buffers, its flat left list's growths included.
    let peers = PeerInfo::from_point_set(&uniform_points(20_000, 2, VMAX, 1));
    let rule = Arc::new(EmptyRectSelection);
    let (store, allocs) = allocations(|| TopologyStore::from_peers(peers, rule));
    let links: usize = (0..store.len()).map(|i| store.out_neighbors(i).len()).sum();
    assert_eq!(
        store.row_bytes(),
        store.len() * size_of::<Vec<u32>>() + links * size_of::<u32>(),
        "every row at exact capacity"
    );
    assert_eq!(allocs, 20_022, "one bulk build of 20 000 peers");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "budgets are of release builds")]
fn a_crash_wave_allocates_its_budget() {
    // One `crash_wave` operation: a whole `run_detection` on the
    // workload's scenario shape (60 peers, 4 clustered groups, 5 % loss),
    // at a fixed seed.
    let scenario = DetectionScenario {
        seed: 7,
        loss: 0.05,
        groups: 4,
        ..DetectionScenario::default()
    };
    assert_eq!(scenario.peers, 60);
    let (report, allocs) = allocations(|| run_detection(&scenario));
    assert_eq!(
        report.crashed.len() + report.silent.len(),
        6,
        "the wave fired"
    );
    assert_eq!(allocs, 7_752, "one crash_wave wave");
}
