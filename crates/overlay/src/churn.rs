//! Churn workloads: interleaved joins and departures.
//!
//! The paper's stability motivation ("many of the existing multicast tree
//! solutions are very sensitive to node departures") is quantified in
//! this repository by replaying churn schedules against overlays and
//! trees. A [`ChurnSchedule`] is an ordered list of join/leave events;
//! [`run_schedule`] replays one against an [`OverlayNetwork`], converging
//! between events exactly like the paper's insert-one-at-a-time
//! procedure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::gen::uniform_points;
use geocast_geom::Point;
use geocast_sim::workload::{ChurnOp, ChurnPattern};

use crate::network::OverlayNetwork;
use crate::peer::PeerId;
use crate::store::TopologyStore;

/// One membership event.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A new peer joins with the given identifier.
    Join(Point),
    /// An existing peer departs abruptly.
    Leave(PeerId),
}

/// An ordered list of membership events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Creates a schedule from explicit events.
    #[must_use]
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        ChurnSchedule { events }
    }

    /// The events in order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A reproducible random schedule: starting from `initial` peers
    /// (which the caller adds first), `extra_joins` joins and
    /// `leaves` departures of already-present peers are interleaved
    /// uniformly at random.
    ///
    /// Departures never target a peer that has already left, and the
    /// schedule never empties the network.
    ///
    /// # Panics
    ///
    /// Panics if `leaves >= initial + extra_joins` (the network would
    /// empty) or `dim == 0`.
    #[must_use]
    pub fn random(
        initial: usize,
        extra_joins: usize,
        leaves: usize,
        dim: usize,
        vmax: f64,
        seed: u64,
    ) -> Self {
        assert!(
            leaves < initial + extra_joins,
            "schedule would empty the network"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Joining identifiers come from a fresh generator; distinctness
        // against the initial population is the caller's concern (use a
        // disjoint seed and the chance of collision is nil; the overlay
        // itself tolerates it via the naive fallback).
        let join_points: Vec<Point> =
            uniform_points(extra_joins, dim, vmax, seed ^ 0x9e37_79b9).into_points();

        let mut present: Vec<u64> = (0..initial as u64).collect();
        let mut next_id = initial as u64;
        let mut joins = join_points.into_iter();
        let mut remaining_joins = extra_joins;
        let mut remaining_leaves = leaves;
        let mut events = Vec::with_capacity(extra_joins + leaves);
        while remaining_joins + remaining_leaves > 0 {
            let total = remaining_joins + remaining_leaves;
            let do_join = present.len() <= 1
                || (remaining_joins > 0 && rng.random_range(0..total) < remaining_joins);
            if do_join {
                let p = joins.next().expect("join budget tracked");
                events.push(ChurnEvent::Join(p));
                present.push(next_id);
                next_id += 1;
                remaining_joins -= 1;
            } else {
                let victim = present.swap_remove(rng.random_range(0..present.len()));
                events.push(ChurnEvent::Leave(PeerId(victim)));
                remaining_leaves -= 1;
            }
        }
        ChurnSchedule { events }
    }

    /// Binds an abstract [`ChurnPattern`] to this overlay's workload
    /// shape: joins get fresh identifiers, leaves pick a uniformly
    /// random present peer. The caller's `initial` peers (added before
    /// replay) are leave candidates from the start. Leaves that would
    /// empty the network are dropped (the paper's overlay has no notion
    /// of an empty re-bootstrap).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or (for `Mixed`) both rates are zero.
    #[must_use]
    pub fn from_pattern(
        initial: usize,
        pattern: &ChurnPattern,
        dim: usize,
        vmax: f64,
        seed: u64,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        let ops = pattern.ops(seed);
        let joins_total = ops.iter().filter(|op| matches!(op, ChurnOp::Join)).count();
        let join_points = uniform_points(joins_total, dim, vmax, seed ^ 0x9e37_79b9).into_points();
        let mut joins = join_points.into_iter();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c65_6176_6573); // "leaves"
        let mut present: Vec<u64> = (0..initial as u64).collect();
        let mut next_id = initial as u64;
        let mut events = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                ChurnOp::Join => {
                    events.push(ChurnEvent::Join(joins.next().expect("join budget tracked")));
                    present.push(next_id);
                    next_id += 1;
                }
                ChurnOp::Leave => {
                    if present.len() <= 1 {
                        continue; // never empty the network
                    }
                    let victim = present.swap_remove(rng.random_range(0..present.len()));
                    events.push(ChurnEvent::Leave(PeerId(victim)));
                }
            }
        }
        ChurnSchedule { events }
    }
}

/// Outcome of replaying a churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnReport {
    /// Join events applied.
    pub joins: usize,
    /// Leave events applied.
    pub leaves: usize,
    /// Events after which the overlay failed to re-converge within its
    /// budget.
    pub convergence_failures: usize,
}

/// Replays `schedule` against `network`, converging after every event
/// (the paper's procedure generalised to departures).
// lint:allow(D006, reason = "ROADMAP item 7: replays a schedule through add_peer / remove_peer + converge, the protocol path that item measures")
pub fn run_schedule(network: &mut OverlayNetwork, schedule: &ChurnSchedule) -> ChurnReport {
    let mut report = ChurnReport {
        joins: 0,
        leaves: 0,
        convergence_failures: 0,
    };
    for event in schedule.events() {
        match event {
            ChurnEvent::Join(point) => {
                network.add_peer(point.clone());
                report.joins += 1;
            }
            ChurnEvent::Leave(id) => {
                network.remove_peer(*id);
                report.leaves += 1;
            }
        }
        if !network.converge().converged {
            report.convergence_failures += 1;
        }
    }
    report
}

/// Outcome of replaying a churn schedule directly on a
/// [`TopologyStore`] (no simulator at all — the pure incremental
/// equilibrium engine, the fastest way to drive large-N churn studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreChurnReport {
    /// Join events applied.
    pub joins: usize,
    /// Leave events applied.
    pub leaves: usize,
    /// Total peers touched across all events (Σ dirty-region sizes).
    pub touched_total: usize,
    /// Largest single-event dirty region.
    pub touched_max: usize,
    /// Links the replay's leaves made
    /// ([`TopologyStore::links_made_by_leaves`]).
    pub links_made: u64,
    /// Links the replay's joins cut
    /// ([`TopologyStore::links_cut_by_joins`]).
    pub links_cut: u64,
}

impl StoreChurnReport {
    /// Mean dirty-region size per event (0 for an empty schedule).
    #[must_use]
    pub fn touched_mean(&self) -> f64 {
        let events = self.joins + self.leaves;
        if events == 0 {
            0.0
        } else {
            self.touched_total as f64 / events as f64
        }
    }
}

/// Replays `schedule` against a bare [`TopologyStore`], recording how
/// local each membership change stayed (the dirty-region sizes).
pub fn run_schedule_on_store(
    store: &mut TopologyStore,
    schedule: &ChurnSchedule,
) -> StoreChurnReport {
    run_schedule_on_store_with(store, schedule, |_, _| {})
}

/// [`run_schedule_on_store`] with a per-event observer: `observe(event
/// index, dirty-region size)` runs after each applied event — the hook
/// figure harnesses use to chart locality traces without re-implementing
/// the replay.
pub fn run_schedule_on_store_with(
    store: &mut TopologyStore,
    schedule: &ChurnSchedule,
    mut observe: impl FnMut(usize, usize),
) -> StoreChurnReport {
    let mut report = StoreChurnReport {
        joins: 0,
        leaves: 0,
        touched_total: 0,
        touched_max: 0,
        links_made: 0,
        links_cut: 0,
    };
    let (made, cut) = (store.links_made_by_leaves(), store.links_cut_by_joins());
    for (ei, event) in schedule.events().iter().enumerate() {
        match event {
            ChurnEvent::Join(point) => {
                store.insert(point.clone());
                report.joins += 1;
            }
            ChurnEvent::Leave(id) => {
                store.remove(*id);
                report.leaves += 1;
            }
        }
        let touched = store.delta_log().newest().map_or(0, |d| d.dirty.len());
        report.touched_total += touched;
        report.touched_max = report.touched_max.max(touched);
        observe(ei, touched);
    }
    report.links_made = store.links_made_by_leaves() - made;
    report.links_cut = store.links_cut_by_joins() - cut;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::select::EmptyRectSelection;
    use std::sync::Arc;

    #[test]
    fn random_schedule_has_requested_event_counts() {
        let s = ChurnSchedule::random(10, 7, 5, 2, 1000.0, 3);
        let joins = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count();
        let leaves = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Leave(_)))
            .count();
        assert_eq!(joins, 7);
        assert_eq!(leaves, 5);
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn random_schedule_never_leaves_absent_peer() {
        let s = ChurnSchedule::random(5, 20, 20, 2, 1000.0, 9);
        let mut present: std::collections::BTreeSet<u64> = (0..5).collect();
        let mut next = 5u64;
        for event in s.events() {
            match event {
                ChurnEvent::Join(_) => {
                    present.insert(next);
                    next += 1;
                }
                ChurnEvent::Leave(id) => {
                    assert!(present.remove(&id.0), "leave of absent peer {id}");
                }
            }
            assert!(!present.is_empty(), "network emptied");
        }
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let a = ChurnSchedule::random(4, 6, 3, 2, 100.0, 11);
        let b = ChurnSchedule::random(4, 6, 3, 2, 100.0, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty the network")]
    fn schedule_refuses_to_empty_network() {
        let _ = ChurnSchedule::random(2, 1, 3, 2, 100.0, 0);
    }

    #[test]
    fn pattern_schedules_bind_to_points_and_victims() {
        let flash = ChurnPattern::FlashCrowd {
            surge: 6,
            exodus: 4,
        };
        let s = ChurnSchedule::from_pattern(5, &flash, 2, 1000.0, 3);
        assert_eq!(s.len(), 10);
        let joins = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count();
        assert_eq!(joins, 6);
        // Reproducible per seed.
        assert_eq!(s, ChurnSchedule::from_pattern(5, &flash, 2, 1000.0, 3));
        assert_ne!(s, ChurnSchedule::from_pattern(5, &flash, 2, 1000.0, 4));
    }

    #[test]
    fn pattern_schedules_never_empty_the_network() {
        // A leave wave longer than the population: excess leaves drop.
        let wave = ChurnPattern::LeaveWave { count: 10 };
        let s = ChurnSchedule::from_pattern(4, &wave, 2, 1000.0, 7);
        assert_eq!(s.len(), 3, "only initial-1 leaves are possible");
        let mut present: std::collections::BTreeSet<u64> = (0..4).collect();
        for event in s.events() {
            if let ChurnEvent::Leave(id) = event {
                assert!(present.remove(&id.0));
            }
        }
        assert_eq!(present.len(), 1);
    }

    #[test]
    fn store_replay_reports_dirty_regions() {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in geocast_geom::gen::uniform_points(10, 2, 1000.0, 61).into_points() {
            store.insert(p.clone());
        }
        let pattern = ChurnPattern::FlashCrowd {
            surge: 5,
            exodus: 5,
        };
        let schedule = ChurnSchedule::from_pattern(10, &pattern, 2, 1000.0, 62);
        let report = run_schedule_on_store(&mut store, &schedule);
        assert_eq!(report.joins, 5);
        assert_eq!(report.leaves, 5);
        assert!(report.touched_max >= 1);
        assert!(report.touched_mean() >= 1.0);
        // Ten of fifteen peers left: whoever they stood between linked.
        assert!(report.links_made > 0 && report.links_cut > 0);
        assert_eq!(store.live_count(), 10);
    }

    #[test]
    fn replay_keeps_overlay_connected() {
        let mut net = OverlayNetwork::new(Arc::new(EmptyRectSelection), NetworkConfig::default());
        for p in geocast_geom::gen::uniform_points(6, 2, 1000.0, 21).into_points() {
            net.add_peer(p);
        }
        net.converge();
        let schedule = ChurnSchedule::random(6, 3, 3, 2, 1000.0, 22);
        let report = run_schedule(&mut net, &schedule);
        assert_eq!(report.joins, 3);
        assert_eq!(report.leaves, 3);
        assert_eq!(report.convergence_failures, 0);
        // Live peers stay mutually reachable.
        let topo = net.topology();
        let live: Vec<usize> = (0..net.len())
            .filter(|&i| !net.has_departed(PeerId(i as u64)))
            .collect();
        let dist = topo.bfs_distances(live[0]);
        for &i in &live {
            assert!(dist[i].is_some(), "live peer {i} unreachable after churn");
        }
    }
}
