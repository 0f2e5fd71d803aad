//! Failure injection.
//!
//! The paper's motivation is robustness to node departures; the tests and
//! baselines in this repository additionally inject message loss and peer
//! crashes to measure how each tree-construction strategy degrades. A
//! [`FaultModel`] configures that injection; the default injects nothing.
//!
//! Beyond independent uniform loss, the model is a small *fault matrix*
//! exercised by the failure-detection experiments:
//!
//! - **silent-drop peers** — the peer keeps running (its timers fire,
//!   it believes itself healthy) but every message to or from it is
//!   discarded, so it is indistinguishable from a crashed peer to the
//!   rest of the network. This is the adversarial case for a failure
//!   detector, complementing crash-stop ([`crate::Simulation::crash`]).
//! - **bursty loss** — a [`GilbertElliott`] two-state chain alternates
//!   between a good and a bad (burst) state with per-state loss rates,
//!   modelling correlated outages rather than independent coin flips.
//! - **region partitions** — peers carry region labels and pairs of
//!   regions can be bidirectionally partitioned, modelling a WAN link
//!   cut between two coordinate neighbourhoods.
//!
//! Every decision draws from the simulation RNG (and only when the
//! corresponding feature is enabled), so a seeded run replays its faults
//! exactly — including runs recorded before the matrix existed, because
//! the plain uniform-loss path performs the same draws as it always did.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::node::NodeId;

/// Why the fault model discarded a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Independent uniform loss.
    Loss,
    /// Loss while the [`GilbertElliott`] chain decided to drop.
    Burst,
    /// Sender or receiver is a silent-drop peer.
    Silent,
    /// Endpoints sit in bidirectionally partitioned regions.
    Partition,
}

/// A two-state Markov loss chain (good/bad) — the classic Gilbert–Elliott
/// bursty-loss model.
///
/// Each message first advances the chain (one RNG draw), then loses the
/// message with the current state's loss probability (one more draw), so
/// the draw count per message is constant and replay stays deterministic
/// regardless of outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    p_enter_burst: f64,
    p_exit_burst: f64,
    loss_good: f64,
    loss_bad: f64,
    in_burst: bool,
}

impl GilbertElliott {
    /// Creates a chain starting in the good state.
    ///
    /// `p_enter_burst`/`p_exit_burst` are the per-message transition
    /// probabilities; `loss_good`/`loss_bad` the per-state loss rates.
    ///
    /// # Panics
    ///
    /// Panics unless all four probabilities are in `[0, 1]`.
    #[must_use]
    pub fn new(p_enter_burst: f64, p_exit_burst: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        GilbertElliott {
            p_enter_burst,
            p_exit_burst,
            loss_good,
            loss_bad,
            in_burst: false,
        }
    }

    /// `true` while the chain sits in the bursty (bad) state.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Advances the chain by one message and decides that message's fate.
    fn step(&mut self, rng: &mut StdRng) -> bool {
        let flip = rng.random_range(0.0..1.0);
        if self.in_burst {
            if flip < self.p_exit_burst {
                self.in_burst = false;
            }
        } else if flip < self.p_enter_burst {
            self.in_burst = true;
        }
        let loss = if self.in_burst {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.random_range(0.0..1.0) < loss
    }
}

/// Probabilistic message loss plus explicit crash control.
///
/// Losses are decided per message with the simulation RNG, so a seeded
/// run replays its faults exactly. Crashes are driven by the experiment
/// through [`crate::Simulation::crash`]; the model only decides message
/// fate. See the module docs for the full fault matrix.
///
/// The model is mutable at runtime through
/// [`crate::Simulation::fault_mut`], so experiments can mark peers
/// silent or cut region links mid-run.
///
/// # Example
///
/// ```
/// use geocast_sim::FaultModel;
///
/// let lossless = FaultModel::default();
/// assert_eq!(lossless.loss_probability(), 0.0);
///
/// let lossy = FaultModel::with_loss(0.1);
/// assert_eq!(lossy.loss_probability(), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    loss_probability: f64,
    /// `silent[i]` marks node `i`; nodes past the end are not silent.
    /// A mask because every message asks about both endpoints. Never
    /// ends in `false`, so equal sets are equal masks.
    silent: Vec<bool>,
    burst: Option<GilbertElliott>,
    regions: Vec<u32>,
    partitions: BTreeSet<(u32, u32)>,
}

impl FaultModel {
    /// A model that drops each message independently with probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[must_use]
    pub fn with_loss(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        FaultModel {
            loss_probability: p,
            ..FaultModel::default()
        }
    }

    /// The configured per-message loss probability.
    #[must_use]
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Adds a [`GilbertElliott`] bursty-loss chain on top of (or instead
    /// of) uniform loss.
    #[must_use]
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        self.burst = Some(burst);
        self
    }

    /// The bursty-loss chain, if one is configured.
    #[must_use]
    pub fn burst(&self) -> Option<&GilbertElliott> {
        self.burst.as_ref()
    }

    /// Marks or unmarks `peer` as a silent-drop peer (all its traffic,
    /// both directions, is discarded while marked).
    pub fn set_silent(&mut self, peer: NodeId, silent: bool) {
        let i = peer.index();
        if silent {
            if self.silent.len() <= i {
                self.silent.resize(i + 1, false);
            }
            self.silent[i] = true;
        } else if let Some(mark) = self.silent.get_mut(i) {
            *mark = false;
            while self.silent.last() == Some(&false) {
                self.silent.pop();
            }
        }
    }

    /// `true` if `peer` is currently a silent-drop peer.
    #[must_use]
    pub fn is_silent(&self, peer: NodeId) -> bool {
        self.silent.get(peer.index()).copied().unwrap_or(false)
    }

    /// Assigns each node (by dense index) a region label for partition
    /// faults. Nodes beyond the vector's length belong to no region and
    /// are never partitioned.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP items 3 and 9: the partition rows of the soak's fault matrix and the partition-heal scenario")
    pub fn with_regions(mut self, regions: Vec<u32>) -> Self {
        self.regions = regions;
        self
    }

    /// The region label of `peer`, if one was assigned.
    #[must_use]
    pub fn region_of(&self, peer: NodeId) -> Option<u32> {
        self.regions.get(peer.index()).copied()
    }

    /// Cuts the bidirectional link between regions `a` and `b`: every
    /// message whose endpoints sit on opposite sides is dropped.
    // lint:allow(D006, reason = "ROADMAP items 3 and 9: the partition rows of the soak's fault matrix and the partition-heal scenario")
    pub fn partition_regions(&mut self, a: u32, b: u32) {
        self.partitions.insert((a.min(b), a.max(b)));
    }

    /// Heals a previously cut region pair.
    // lint:allow(D006, reason = "ROADMAP items 3 and 9: the partition rows of the soak's fault matrix and the partition-heal scenario")
    pub fn heal_regions(&mut self, a: u32, b: u32) {
        self.partitions.remove(&(a.min(b), a.max(b)));
    }

    /// `true` if a message between these peers would cross a cut
    /// region pair.
    #[must_use]
    pub fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        match (self.region_of(from), self.region_of(to)) {
            (Some(a), Some(b)) => self.partitions.contains(&(a.min(b), a.max(b))),
            _ => false,
        }
    }

    /// Decides whether a particular message is lost, and why.
    ///
    /// RNG discipline: deterministic checks (silent peers, partitions)
    /// consume no randomness; the burst chain draws exactly twice per
    /// message iff configured; uniform loss draws exactly once iff its
    /// probability is non-zero — so enabling a matrix feature never
    /// perturbs the replay of runs that do not use it.
    pub(crate) fn drops(
        &mut self,
        from: NodeId,
        to: NodeId,
        rng: &mut StdRng,
    ) -> Option<DropCause> {
        if self.is_silent(from) || self.is_silent(to) {
            return Some(DropCause::Silent);
        }
        if self.is_partitioned(from, to) {
            return Some(DropCause::Partition);
        }
        if let Some(burst) = &mut self.burst {
            if burst.step(rng) {
                return Some(DropCause::Burst);
            }
        }
        if self.loss_probability > 0.0 && rng.random_range(0.0..1.0) < self.loss_probability {
            return Some(DropCause::Loss);
        }
        None
    }
}

impl Default for FaultModel {
    /// The default model is lossless and injects nothing.
    fn default() -> Self {
        FaultModel {
            loss_probability: 0.0,
            silent: Vec::new(),
            burst: None,
            regions: Vec::new(),
            partitions: BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_never_drops() {
        let mut model = FaultModel::default();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            assert_eq!(model.drops(NodeId(0), NodeId(1), &mut rng), None);
        }
    }

    #[test]
    fn full_loss_always_drops() {
        let mut model = FaultModel::with_loss(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(
                model.drops(NodeId(0), NodeId(1), &mut rng),
                Some(DropCause::Loss)
            );
        }
    }

    #[test]
    fn partial_loss_rate_is_plausible() {
        let mut model = FaultModel::with_loss(0.3);
        let mut rng = StdRng::seed_from_u64(99);
        let dropped = (0..10_000)
            .filter(|_| model.drops(NodeId(0), NodeId(1), &mut rng).is_some())
            .count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
    }

    #[test]
    fn drops_are_seed_deterministic() {
        let mut m1 = FaultModel::with_loss(0.5);
        let mut m2 = FaultModel::with_loss(0.5);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                m1.drops(NodeId(0), NodeId(1), &mut r1),
                m2.drops(NodeId(0), NodeId(1), &mut r2)
            );
        }
    }

    /// The replay-compatibility contract: the uniform-loss path must
    /// consume exactly the RNG draws the pre-matrix model did (one per
    /// message when lossy, zero when lossless), so seeded experiments
    /// recorded before the fault matrix keep replaying identically.
    #[test]
    fn uniform_path_rng_draws_unchanged() {
        use rand::Rng;
        let legacy =
            |p: f64, rng: &mut StdRng| -> bool { p > 0.0 && rng.random_range(0.0..1.0) < p };
        for p in [0.0, 0.25, 1.0] {
            let mut model = FaultModel::with_loss(p);
            let mut r1 = StdRng::seed_from_u64(13);
            let mut r2 = StdRng::seed_from_u64(13);
            for _ in 0..500 {
                let new = model.drops(NodeId(0), NodeId(1), &mut r1).is_some();
                let old = legacy(p, &mut r2);
                assert_eq!(new, old, "p={p}");
            }
            // Both RNGs must have advanced by the same number of draws.
            assert_eq!(
                r1.random_range(0..u64::MAX),
                r2.random_range(0..u64::MAX),
                "RNG streams diverged at p={p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_probability() {
        let _ = FaultModel::with_loss(1.5);
    }

    #[test]
    fn silent_peers_drop_both_directions_without_rng() {
        let mut model = FaultModel::default();
        model.set_silent(NodeId(3), true);
        assert!(model.is_silent(NodeId(3)));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            model.drops(NodeId(3), NodeId(1), &mut rng),
            Some(DropCause::Silent)
        );
        assert_eq!(
            model.drops(NodeId(1), NodeId(3), &mut rng),
            Some(DropCause::Silent)
        );
        assert_eq!(model.drops(NodeId(1), NodeId(2), &mut rng), None);
        model.set_silent(NodeId(3), false);
        assert_eq!(model.drops(NodeId(3), NodeId(1), &mut rng), None);
        assert_eq!(model, FaultModel::default(), "unmarking leaves no trace");
    }

    #[test]
    fn silent_peers_are_a_set_listed_in_index_order() {
        let mut model = FaultModel::default();
        for i in [7, 2, 5, 2] {
            model.set_silent(NodeId(i), true);
        }
        model.set_silent(NodeId(9), false); // never marked: a no-op
        for i in 0..10 {
            assert_eq!(model.is_silent(NodeId(i)), [2, 5, 7].contains(&i));
        }
        assert!(!model.is_silent(NodeId(100)));
        model.set_silent(NodeId(7), false);
        let mut other = FaultModel::default();
        other.set_silent(NodeId(5), true);
        other.set_silent(NodeId(2), true);
        assert_eq!(model, other, "the same set, whatever its history");
    }

    #[test]
    fn partitions_cut_cross_region_traffic_only() {
        let mut model = FaultModel::default().with_regions(vec![0, 0, 1, 1]);
        model.partition_regions(1, 0); // order-insensitive
        assert!(model.is_partitioned(NodeId(0), NodeId(2)));
        assert!(model.is_partitioned(NodeId(3), NodeId(1)));
        assert!(!model.is_partitioned(NodeId(0), NodeId(1)));
        assert!(!model.is_partitioned(NodeId(2), NodeId(3)));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            model.drops(NodeId(0), NodeId(3), &mut rng),
            Some(DropCause::Partition)
        );
        model.heal_regions(0, 1);
        assert_eq!(model.drops(NodeId(0), NodeId(3), &mut rng), None);
    }

    #[test]
    fn unlabeled_nodes_are_never_partitioned() {
        let mut model = FaultModel::default().with_regions(vec![0]);
        model.partition_regions(0, 1);
        assert_eq!(model.region_of(NodeId(5)), None);
        assert!(!model.is_partitioned(NodeId(0), NodeId(5)));
    }

    #[test]
    fn burst_chain_loses_more_in_bad_state() {
        // Bad state is lossy, good state is clean; long bursts.
        let ge = GilbertElliott::new(0.05, 0.05, 0.0, 1.0);
        assert!(!ge.in_burst());
        let mut model = FaultModel::default().with_burst(ge);
        let mut rng = StdRng::seed_from_u64(5);
        let mut dropped = 0usize;
        let mut runs: Vec<usize> = Vec::new();
        let mut current = 0usize;
        for _ in 0..20_000 {
            if model.drops(NodeId(0), NodeId(1), &mut rng) == Some(DropCause::Burst) {
                dropped += 1;
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        let rate = dropped as f64 / 20_000.0;
        // Symmetric transitions => ~half the time in the bad state.
        assert!((0.4..0.6).contains(&rate), "burst loss rate {rate}");
        let max_run = runs.iter().copied().max().unwrap_or(0);
        assert!(max_run >= 20, "losses should be bursty, max run {max_run}");
    }

    #[test]
    fn burst_runs_replay_per_seed() {
        let mk = || FaultModel::with_loss(0.1).with_burst(GilbertElliott::new(0.1, 0.3, 0.0, 0.9));
        let run = |mut model: FaultModel| {
            let mut rng = StdRng::seed_from_u64(11);
            (0..2000)
                .map(|_| model.drops(NodeId(0), NodeId(1), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    #[test]
    #[should_panic(expected = "loss_bad must be in [0, 1]")]
    fn burst_rejects_invalid_probability() {
        let _ = GilbertElliott::new(0.1, 0.1, 0.0, 1.2);
    }
}
