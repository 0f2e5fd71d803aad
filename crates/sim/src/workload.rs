//! Membership-churn workload patterns.
//!
//! Self-organizing overlays live or die by how cheaply they absorb
//! membership change, and the interesting regimes are not uniform: real
//! deployments see *join waves* (a popular stream starts), *leave waves*
//! (it ends), *flash crowds* (a surge joins and most of it leaves again),
//! and sustained *mixed churn* at some join/leave rate ratio. This module
//! generates those shapes as protocol-agnostic operation sequences; the
//! overlay layer binds them to coordinates and victims
//! (`geocast_overlay::churn::ChurnSchedule::from_pattern`), and the
//! figure/bench harnesses replay them against the incremental churn
//! engine.
//!
//! Multi-group sessions add a second workload dimension: *which* of N
//! concurrent multicast groups an event touches. [`GroupWorkload`]
//! draws subscribe/unsubscribe/publish operations over groups whose
//! popularity follows a Zipf distribution ([`zipf_weights`] /
//! [`zipf_group_sizes`]) — the canonical topic-popularity model — and
//! the group-engine harnesses bind them to actual peers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One abstract membership operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new member arrives.
    Join,
    /// An existing member departs.
    Leave,
}

/// A named churn shape, expanded into a [`ChurnOp`] sequence by
/// [`ChurnPattern::ops`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnPattern {
    /// `count` joins back to back (a popular session starting up).
    JoinWave {
        /// Number of joins.
        count: usize,
    },
    /// `count` departures back to back (a session winding down).
    LeaveWave {
        /// Number of leaves.
        count: usize,
    },
    /// A surge of `surge` joins immediately followed by `exodus`
    /// departures — the flash-crowd shape (most of the crowd leaves
    /// again once the event passes).
    FlashCrowd {
        /// Joins in the surge phase.
        surge: usize,
        /// Leaves in the exodus phase (callers keep it `<= surge` plus
        /// whatever base population may shrink).
        exodus: usize,
    },
    /// `events` operations drawn i.i.d. with the given join/leave rate
    /// weights (e.g. `join_rate: 3, leave_rate: 1` models a growing
    /// system with 75% joins).
    Mixed {
        /// Total operations to draw.
        events: usize,
        /// Relative weight of joins; must not both be zero.
        join_rate: u32,
        /// Relative weight of leaves; must not both be zero.
        leave_rate: u32,
    },
}

impl ChurnPattern {
    /// Total number of operations the pattern expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            ChurnPattern::JoinWave { count } | ChurnPattern::LeaveWave { count } => count,
            ChurnPattern::FlashCrowd { surge, exodus } => surge + exodus,
            ChurnPattern::Mixed { events, .. } => events,
        }
    }

    /// `true` if the pattern expands to no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the pattern into its operation sequence, reproducibly
    /// per seed (`Mixed` draws from a seeded RNG; the other shapes are
    /// deterministic and ignore the seed).
    ///
    /// # Panics
    ///
    /// Panics for `Mixed` when both rates are zero.
    #[must_use]
    pub fn ops(&self, seed: u64) -> Vec<ChurnOp> {
        match *self {
            ChurnPattern::JoinWave { count } => vec![ChurnOp::Join; count],
            ChurnPattern::LeaveWave { count } => vec![ChurnOp::Leave; count],
            ChurnPattern::FlashCrowd { surge, exodus } => {
                let mut ops = vec![ChurnOp::Join; surge];
                ops.resize(surge + exodus, ChurnOp::Leave);
                ops
            }
            ChurnPattern::Mixed {
                events,
                join_rate,
                leave_rate,
            } => {
                assert!(
                    join_rate > 0 || leave_rate > 0,
                    "mixed churn needs a non-zero rate"
                );
                let total = u64::from(join_rate) + u64::from(leave_rate);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21_0000); // "churn!"
                (0..events)
                    .map(|_| {
                        if rng.random_range(0..total) < u64::from(join_rate) {
                            ChurnOp::Join
                        } else {
                            ChurnOp::Leave
                        }
                    })
                    .collect()
            }
        }
    }
}

impl std::fmt::Display for ChurnPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ChurnPattern::JoinWave { count } => write!(f, "join-wave({count})"),
            ChurnPattern::LeaveWave { count } => write!(f, "leave-wave({count})"),
            ChurnPattern::FlashCrowd { surge, exodus } => {
                write!(f, "flash-crowd(+{surge}/-{exodus})")
            }
            ChurnPattern::Mixed {
                events,
                join_rate,
                leave_rate,
            } => write!(f, "mixed({events} @ {join_rate}:{leave_rate})"),
        }
    }
}

/// How a scenario places group members over the coordinate space — the
/// knob that decides whether the member-induced subgraph is connected
/// (clustered: sensor fields, regional channels) or full of strandings
/// the relay-graft layer must close (scattered: interest-based topics
/// with subscribers spread uniformly over the overlay). Coverage-vs-
/// scatter sweeps run both and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MembershipPlacement {
    /// Members are drawn uniformly at random from the live population —
    /// the adversarial shape for member-to-member delegation.
    #[default]
    Scattered,
    /// Each group subscribes a random center peer plus its nearest live
    /// peers — densely interconnected member subgraphs.
    Clustered,
}

impl std::fmt::Display for MembershipPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipPlacement::Scattered => write!(f, "scattered"),
            MembershipPlacement::Clustered => write!(f, "clustered"),
        }
    }
}

/// One abstract multi-group session operation. Like [`ChurnOp`], group
/// operations are protocol-agnostic: they name groups by dense index
/// and leave the choice of *which peer* subscribes/unsubscribes to the
/// layer that binds the workload to a population (the group engine
/// harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOp {
    /// A peer subscribes to the group.
    Subscribe {
        /// Dense group index.
        group: usize,
    },
    /// A member unsubscribes from the group.
    Unsubscribe {
        /// Dense group index.
        group: usize,
    },
    /// The group's source publishes one payload.
    Publish {
        /// Dense group index.
        group: usize,
    },
}

impl GroupOp {
    /// The group the operation targets.
    #[must_use]
    pub fn group(&self) -> usize {
        match *self {
            GroupOp::Subscribe { group }
            | GroupOp::Unsubscribe { group }
            | GroupOp::Publish { group } => group,
        }
    }
}

/// Zipf popularity weights over `groups` ranks: weight of rank `k`
/// (0-based) is `1 / (k + 1)^exponent`, normalized to sum to 1. The
/// classic model for topic/channel popularity — a few huge groups, a
/// long tail of small ones. `exponent = 0` degenerates to uniform.
///
/// # Panics
///
/// Panics if `groups == 0` or `exponent` is negative or non-finite.
#[must_use]
pub fn zipf_weights(groups: usize, exponent: f64) -> Vec<f64> {
    assert!(groups > 0, "at least one group required");
    assert!(
        exponent >= 0.0 && exponent.is_finite(),
        "exponent must be finite and non-negative"
    );
    let raw: Vec<f64> = (0..groups)
        .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Zipf-proportional initial group sizes: `subscriptions` memberships
/// distributed over `groups` groups by [`zipf_weights`], every group
/// getting at least one member (the head of the distribution absorbs
/// the rounding).
///
/// # Panics
///
/// Panics if `subscriptions < groups` (someone would be empty) or the
/// weight preconditions fail.
#[must_use]
pub fn zipf_group_sizes(groups: usize, subscriptions: usize, exponent: f64) -> Vec<usize> {
    assert!(
        subscriptions >= groups,
        "need at least one subscription per group"
    );
    let weights = zipf_weights(groups, exponent);
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((subscriptions as f64 * w).floor() as usize).max(1))
        .collect();
    // Reconcile rounding: a shortfall goes to the most popular group; a
    // debt (the `.max(1)` floors over-assigned) is clawed back head
    // first, never below one member. Σ(size − 1) = assigned − groups ≥
    // assigned − subscriptions, so the debt always drains and the sizes
    // sum to exactly `subscriptions`.
    let assigned: usize = sizes.iter().sum();
    if assigned < subscriptions {
        sizes[0] += subscriptions - assigned;
    } else {
        let mut debt = assigned - subscriptions;
        for size in &mut sizes {
            let cut = (*size - 1).min(debt);
            *size -= cut;
            debt -= cut;
            if debt == 0 {
                break;
            }
        }
    }
    sizes
}

/// A multi-group session workload: `events` operations over `groups`
/// concurrent groups whose *popularity* follows a Zipf distribution —
/// both which group an event targets and the subscribe/unsubscribe/
/// publish mix are drawn reproducibly per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupWorkload {
    /// Number of concurrent groups.
    pub groups: usize,
    /// Zipf popularity exponent (`~1.0` is the classic shape; `0.0` is
    /// uniform).
    pub exponent: f64,
    /// Total operations to draw.
    pub events: usize,
    /// Relative weight of subscribes.
    pub subscribe_weight: u32,
    /// Relative weight of unsubscribes.
    pub unsubscribe_weight: u32,
    /// Relative weight of publishes (per-group publish rate follows the
    /// same Zipf popularity: hot groups publish more).
    pub publish_weight: u32,
}

impl GroupWorkload {
    /// Expands the workload into its operation sequence, reproducibly
    /// per seed.
    ///
    /// # Panics
    ///
    /// Panics if all three weights are zero or the Zipf preconditions
    /// fail.
    #[must_use]
    pub fn ops(&self, seed: u64) -> Vec<GroupOp> {
        let total = u64::from(self.subscribe_weight)
            + u64::from(self.unsubscribe_weight)
            + u64::from(self.publish_weight);
        assert!(total > 0, "group workload needs a non-zero weight");
        let weights = zipf_weights(self.groups, self.exponent);
        // Cumulative distribution for inverse-transform sampling.
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6f75_7073_2100); // "groups!"
        (0..self.events)
            .map(|_| {
                let u: f64 = rng.random_range(0.0..1.0);
                let group = cdf.partition_point(|&c| c < u).min(self.groups - 1);
                let pick = rng.random_range(0..total);
                if pick < u64::from(self.subscribe_weight) {
                    GroupOp::Subscribe { group }
                } else if pick
                    < u64::from(self.subscribe_weight) + u64::from(self.unsubscribe_weight)
                {
                    GroupOp::Unsubscribe { group }
                } else {
                    GroupOp::Publish { group }
                }
            })
            .collect()
    }
}

impl std::fmt::Display for GroupWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "groups({} @ zipf {:.2}, {} events, {}:{}:{})",
            self.groups,
            self.exponent,
            self.events,
            self.subscribe_weight,
            self.unsubscribe_weight,
            self.publish_weight
        )
    }
}

/// A publish-rate workload: `ticks` rounds of `payloads_per_tick`
/// payloads, each payload landing on a group drawn from the Zipf
/// popularity distribution — the data-plane companion of
/// [`GroupWorkload`]'s membership stream. `exponent` is the hot-group
/// skew knob: `0.0` spreads payloads uniformly (batches stay shallow),
/// higher exponents pile them onto the head groups (deep batches, the
/// regime the flush engine collapses).
#[derive(Debug, Clone, PartialEq)]
pub struct PublishWorkload {
    /// Number of concurrent groups payloads can target.
    pub groups: usize,
    /// Zipf popularity exponent — the hot-group skew knob.
    pub exponent: f64,
    /// Flush rounds to generate.
    pub ticks: usize,
    /// Payloads drawn per round.
    pub payloads_per_tick: usize,
}

impl PublishWorkload {
    /// Per-group payload counts for one tick, reproducible per
    /// `(seed, tick)`: `payloads_per_tick` draws from the Zipf
    /// distribution, returned as a `groups`-long histogram ready to
    /// feed a batch queue.
    ///
    /// # Panics
    ///
    /// Panics if the Zipf preconditions fail (`groups == 0`, bad
    /// exponent).
    #[must_use]
    pub fn tick_payloads(&self, seed: u64, tick: usize) -> Vec<usize> {
        let weights = zipf_weights(self.groups, self.exponent);
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let tick_seed = seed
            ^ 0x7075_626c_6973_6821 // "publish!"
            ^ (tick as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(tick_seed);
        let mut counts = vec![0usize; self.groups];
        for _ in 0..self.payloads_per_tick {
            let u: f64 = rng.random_range(0.0..1.0);
            let group = cdf.partition_point(|&c| c < u).min(self.groups - 1);
            counts[group] += 1;
        }
        counts
    }
}

impl std::fmt::Display for PublishWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "publish({} groups @ zipf {:.2}, {} ticks × {} payloads)",
            self.groups, self.exponent, self.ticks, self.payloads_per_tick
        )
    }
}

/// Picks `count` distinct victims for a crash wave out of `0..n`,
/// reproducibly per seed, never picking anything in `exclude` (group
/// roots, the observer node, ...). Returns the victims sorted; if fewer
/// than `count` candidates remain after exclusion, all of them are
/// returned.
#[must_use]
pub fn crash_wave_victims(n: usize, count: usize, exclude: &[usize], seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).filter(|i| !exclude.contains(i)).collect();
    let picks = count.min(pool.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6372_6173_6821); // "crash!"
                                                                  // Partial Fisher–Yates: the first `picks` slots end up uniformly drawn.
    for i in 0..picks {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(picks);
    pool.sort_unstable();
    pool
}

/// A log consumer's catch-up cadence over an event stream: fire every
/// `every`-th event, phase-shifted by `offset`.
///
/// Churn harnesses drive several independent consumers (gossip sync,
/// group repair, data-plane flush) from one event sequence; giving each
/// a `ConsumerCadence` with a different period/phase exercises the
/// laggard paths (batched replay, eviction-horizon resync) without any
/// consumer-specific scheduling code in the harness loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerCadence {
    /// Fire on every `every`-th event (must be ≥ 1).
    pub every: usize,
    /// Phase shift: the first firing lands on event `offset % every`.
    pub offset: usize,
}

impl ConsumerCadence {
    /// A cadence firing on every event — lock-step consumption.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 9 names ConsumerCadence: the laggard consumers of its soak")
    pub fn every_event() -> Self {
        ConsumerCadence {
            every: 1,
            offset: 0,
        }
    }

    /// A cadence firing every `every`-th event, in phase.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 9 names ConsumerCadence: the laggard consumers of its soak")
    pub fn every_nth(every: usize) -> Self {
        assert!(every >= 1, "cadence period must be at least 1");
        ConsumerCadence { every, offset: 0 }
    }

    /// `true` when the consumer catches up after event `event_idx`
    /// (0-based).
    #[must_use]
    pub fn fires_at(&self, event_idx: usize) -> bool {
        event_idx % self.every == self.offset % self.every
    }

    /// How many times the cadence fires over `events` events.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 9 names ConsumerCadence: the laggard consumers of its soak")
    pub fn firings_in(&self, events: usize) -> usize {
        (0..events).filter(|&i| self.fires_at(i)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_wave_victims_are_deterministic_and_respect_exclusions() {
        let a = crash_wave_victims(50, 8, &[0, 3], 42);
        let b = crash_wave_victims(50, 8, &[0, 3], 42);
        assert_eq!(a, b, "same seed must pick the same wave");
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "victims come sorted");
        assert!(!a.contains(&0) && !a.contains(&3), "exclusions are honored");
        let c = crash_wave_victims(50, 8, &[0, 3], 43);
        assert_ne!(a, c, "a different seed must shuffle the wave");
        // Capped when the pool is smaller than the request.
        let small = crash_wave_victims(4, 10, &[1], 7);
        assert_eq!(small, vec![0, 2, 3]);
    }

    #[test]
    fn consumer_cadence_fires_periodically_with_phase() {
        let lockstep = ConsumerCadence::every_event();
        assert!((0..10).all(|i| lockstep.fires_at(i)));
        let third = ConsumerCadence::every_nth(3);
        assert_eq!(
            (0..9).filter(|&i| third.fires_at(i)).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        let shifted = ConsumerCadence {
            every: 3,
            offset: 2,
        };
        assert_eq!(
            (0..9).filter(|&i| shifted.fires_at(i)).collect::<Vec<_>>(),
            vec![2, 5, 8]
        );
        assert_eq!(third.firings_in(10), 4);
        assert_eq!(shifted.firings_in(10), 3);
    }

    #[test]
    #[should_panic(expected = "cadence period must be at least 1")]
    fn zero_period_cadence_is_rejected() {
        let _ = ConsumerCadence::every_nth(0);
    }

    #[test]
    fn waves_are_pure() {
        assert!(ChurnPattern::JoinWave { count: 5 }
            .ops(1)
            .iter()
            .all(|op| *op == ChurnOp::Join));
        assert!(ChurnPattern::LeaveWave { count: 4 }
            .ops(1)
            .iter()
            .all(|op| *op == ChurnOp::Leave));
    }

    #[test]
    fn flash_crowd_surges_then_drains() {
        let ops = ChurnPattern::FlashCrowd {
            surge: 3,
            exodus: 2,
        }
        .ops(9);
        assert_eq!(
            ops,
            vec![
                ChurnOp::Join,
                ChurnOp::Join,
                ChurnOp::Join,
                ChurnOp::Leave,
                ChurnOp::Leave
            ]
        );
    }

    #[test]
    fn mixed_respects_rates_and_seed() {
        let pattern = ChurnPattern::Mixed {
            events: 1000,
            join_rate: 3,
            leave_rate: 1,
        };
        let ops = pattern.ops(7);
        assert_eq!(ops, pattern.ops(7), "same seed, same sequence");
        let joins = ops.iter().filter(|op| matches!(op, ChurnOp::Join)).count();
        assert!(
            (650..850).contains(&joins),
            "3:1 rates should yield ~750 joins, got {joins}"
        );
        assert_ne!(ops, pattern.ops(8), "different seed should reshuffle");
    }

    #[test]
    fn lengths_add_up() {
        assert_eq!(ChurnPattern::JoinWave { count: 7 }.len(), 7);
        assert_eq!(
            ChurnPattern::FlashCrowd {
                surge: 4,
                exodus: 3
            }
            .len(),
            7
        );
        assert!(ChurnPattern::Mixed {
            events: 0,
            join_rate: 1,
            leave_rate: 1
        }
        .is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero rate")]
    fn zero_rates_are_rejected() {
        let _ = ChurnPattern::Mixed {
            events: 1,
            join_rate: 0,
            leave_rate: 0,
        }
        .ops(0);
    }

    #[test]
    fn zipf_weights_are_normalized_and_monotone() {
        let w = zipf_weights(16, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1], "popularity must strictly decay");
        }
        // Exponent 0 is uniform.
        let u = zipf_weights(5, 0.0);
        for w in &u {
            assert!((w - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sizes_conserve_subscriptions_and_never_empty() {
        // (50, 50, 3.0) and (100, 100, 2.0) produce a rounding debt
        // larger than the head group alone can absorb — the claw-back
        // must spread it without emptying anyone.
        for (groups, subs, s) in [
            (8usize, 100usize, 1.0f64),
            (12, 12, 2.0),
            (5, 1000, 0.5),
            (50, 50, 3.0),
            (100, 100, 2.0),
        ] {
            let sizes = zipf_group_sizes(groups, subs, s);
            assert_eq!(sizes.len(), groups);
            assert_eq!(sizes.iter().sum::<usize>(), subs, "{groups}/{subs}/{s}");
            assert!(sizes.iter().all(|&sz| sz >= 1));
            assert!(sizes[0] >= sizes[groups - 1], "head outranks tail");
        }
    }

    #[test]
    #[should_panic(expected = "one subscription per group")]
    fn zipf_sizes_reject_too_few_subscriptions() {
        let _ = zipf_group_sizes(10, 5, 1.0);
    }

    #[test]
    fn group_ops_follow_popularity_and_seed() {
        let wl = GroupWorkload {
            groups: 10,
            exponent: 1.0,
            events: 3000,
            subscribe_weight: 2,
            unsubscribe_weight: 1,
            publish_weight: 3,
        };
        let ops = wl.ops(5);
        assert_eq!(ops.len(), 3000);
        assert_eq!(ops, wl.ops(5), "same seed, same sequence");
        assert_ne!(ops, wl.ops(6), "different seed reshuffles");
        // Group 0 (the Zipf head) must dominate the tail group.
        let hits = |g: usize| ops.iter().filter(|op| op.group() == g).count();
        assert!(hits(0) > 4 * hits(9), "head {} tail {}", hits(0), hits(9));
        // All three op kinds occur at these weights.
        assert!(ops.iter().any(|op| matches!(op, GroupOp::Subscribe { .. })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, GroupOp::Unsubscribe { .. })));
        assert!(ops.iter().any(|op| matches!(op, GroupOp::Publish { .. })));
    }

    #[test]
    #[should_panic(expected = "non-zero weight")]
    fn zero_group_weights_are_rejected() {
        let _ = GroupWorkload {
            groups: 2,
            exponent: 1.0,
            events: 1,
            subscribe_weight: 0,
            unsubscribe_weight: 0,
            publish_weight: 0,
        }
        .ops(0);
    }

    #[test]
    fn publish_workload_is_deterministic_and_skews_to_the_head() {
        let wl = PublishWorkload {
            groups: 16,
            exponent: 1.5,
            ticks: 10,
            payloads_per_tick: 64,
        };
        // Reproducible per (seed, tick); different ticks draw fresh.
        assert_eq!(wl.tick_payloads(7, 3), wl.tick_payloads(7, 3));
        assert_ne!(wl.tick_payloads(7, 3), wl.tick_payloads(8, 3));
        assert_ne!(wl.tick_payloads(7, 3), wl.tick_payloads(7, 4));
        // Every tick conserves its payload budget.
        let mut head = 0usize;
        let mut tail = 0usize;
        for tick in 0..wl.ticks {
            let counts = wl.tick_payloads(42, tick);
            assert_eq!(counts.len(), 16);
            assert_eq!(counts.iter().sum::<usize>(), 64);
            head += counts[0];
            tail += counts[15];
        }
        assert!(
            head > 8 * tail.max(1),
            "zipf 1.5 must pile payloads on the head: head {head}, tail {tail}"
        );
        // Exponent 0 spreads them out: no group dominates.
        let flat = PublishWorkload {
            groups: 16,
            exponent: 0.0,
            ticks: 1,
            payloads_per_tick: 1600,
        };
        let counts = flat.tick_payloads(42, 0);
        assert!(counts.iter().all(|&c| c > 50 && c < 150), "{counts:?}");
        assert_eq!(
            wl.to_string(),
            "publish(16 groups @ zipf 1.50, 10 ticks × 64 payloads)"
        );
    }

    #[test]
    fn group_workload_displays() {
        let wl = GroupWorkload {
            groups: 4,
            exponent: 1.0,
            events: 9,
            subscribe_weight: 1,
            unsubscribe_weight: 2,
            publish_weight: 3,
        };
        assert_eq!(wl.to_string(), "groups(4 @ zipf 1.00, 9 events, 1:2:3)");
    }

    #[test]
    fn display_names_patterns() {
        assert_eq!(
            ChurnPattern::JoinWave { count: 2 }.to_string(),
            "join-wave(2)"
        );
        assert_eq!(
            ChurnPattern::Mixed {
                events: 9,
                join_rate: 2,
                leave_rate: 1
            }
            .to_string(),
            "mixed(9 @ 2:1)"
        );
    }
}
