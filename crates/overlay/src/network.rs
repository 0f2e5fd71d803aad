use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::Point;
use geocast_sim::{Counters, NodeId, SimDuration, Simulation};

use crate::delta::{CursorCatchUp, DeltaCursor, DeltaKind, TopologyDelta};
use crate::gossip::{GossipConfig, GossipNode};
use crate::graph::OverlayGraph;
use crate::peer::{PeerId, PeerInfo};
use crate::select::NeighborSelection;
use crate::store::TopologyStore;

/// Configuration of an [`OverlayNetwork`] run.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Gossip protocol parameters.
    pub gossip: GossipConfig,
    /// Seed for the simulation and for bootstrap-peer choice.
    pub seed: u64,
    /// Virtual time between convergence checks.
    pub check_interval: SimDuration,
    /// Number of consecutive unchanged topology fingerprints required
    /// to declare convergence.
    pub stable_checks: usize,
    /// Upper bound on convergence checks per [`OverlayNetwork::converge`]
    /// call.
    pub max_checks: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            gossip: GossipConfig::default(),
            seed: 0,
            check_interval: SimDuration::from_secs(2),
            stable_checks: 3,
            max_checks: 200,
        }
    }
}

/// Outcome of a convergence run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// `true` if the topology stabilised within the check budget.
    pub converged: bool,
    /// Convergence checks performed.
    pub checks: usize,
}

/// Message accounting of the localized churn path (which bypasses the
/// simulated announcement flood, so the simulator's counters do not see
/// its traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalizedChurnStats {
    /// Joins applied through [`OverlayNetwork::add_peer_localized`].
    pub joins: usize,
    /// Leaves applied through [`OverlayNetwork::remove_peer_localized`].
    pub leaves: usize,
    /// Peer-state contacts performed (one per affected peer per event —
    /// the message cost a locate-first join/leave protocol would pay).
    pub contacts: usize,
}

/// Outcome of one [`OverlayNetwork::sync_gossip`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipSyncReport {
    /// Gossip nodes spawned for store peers that had none yet.
    pub spawned: usize,
    /// Topology deltas replayed onto the affected nodes.
    pub deltas: usize,
    /// `true` if the gossip consumer fell past the delta log's
    /// eviction horizon and rebuilt from full store state (counted in
    /// [`OverlayNetwork::gossip_cursor`]'s resync ledger).
    pub resynced: bool,
}

/// A live overlay: gossip peers inside a discrete-event simulation, with
/// the paper's experimental procedure on top (insert peers one at a time,
/// let the topology converge after every insertion).
///
/// Membership is backed by a shared [`TopologyStore`], which maintains
/// the full-knowledge equilibrium incrementally across churn. Two churn
/// paths exist:
///
/// * the **protocol path** ([`OverlayNetwork::add_peer`] /
///   [`OverlayNetwork::remove_peer`] + [`OverlayNetwork::converge`]):
///   the paper's procedure — random bootstrap, BR-hop announcement
///   flooding, global re-convergence;
/// * the **localized path** ([`OverlayNetwork::add_peer_localized`] /
///   [`OverlayNetwork::remove_peer_localized`]): the store computes the
///   dirty region of the membership change and only those peers'
///   protocol state is re-synchronized (the locate-first join of
///   Kaafar et al. played by the driver). The result is the same
///   equilibrium the protocol path converges to — cross-validated by
///   tests — at a per-event cost proportional to the affected
///   neighbourhood instead of the whole network.
///
/// # Example
///
/// ```
/// use geocast_overlay::{OverlayNetwork, NetworkConfig, select::EmptyRectSelection};
/// use geocast_geom::gen::uniform_points;
/// use std::sync::Arc;
///
/// let mut net = OverlayNetwork::new(Arc::new(EmptyRectSelection), NetworkConfig::default());
/// for p in uniform_points(8, 2, 1000.0, 1).into_points() {
///     net.add_peer(p);
/// }
/// let report = net.converge();
/// assert!(report.converged);
/// assert_eq!(net.topology().len(), 8);
/// ```
pub struct OverlayNetwork {
    sim: Simulation<GossipNode>,
    store: TopologyStore,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    config: NetworkConfig,
    rng: StdRng,
    churn_stats: LocalizedChurnStats,
    gossip_cursor: DeltaCursor,
}

impl OverlayNetwork {
    /// Creates an empty overlay.
    #[must_use]
    pub fn new(selection: Arc<dyn NeighborSelection + Send + Sync>, config: NetworkConfig) -> Self {
        config.gossip.validate();
        OverlayNetwork {
            sim: Simulation::builder(Vec::new()).seed(config.seed).build(),
            store: TopologyStore::new(Arc::clone(&selection)),
            selection,
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x0067_656f_6361_7374), // "geocast"
            churn_stats: LocalizedChurnStats::default(),
            gossip_cursor: DeltaCursor::new("gossip"),
        }
    }

    /// Number of peers ever added (departed ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if no peer was ever added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// All peer descriptions, indexable by [`PeerId::index`].
    #[must_use]
    pub fn peers(&self) -> &[PeerInfo] {
        self.store.peers()
    }

    /// `true` if the peer has departed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn has_departed(&self, id: PeerId) -> bool {
        self.store.is_departed(id)
    }

    /// Message counters of the underlying simulation.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        self.sim.counters()
    }

    /// Accounting of the localized churn path (not visible to the
    /// simulator's counters).
    #[must_use]
    pub fn churn_stats(&self) -> LocalizedChurnStats {
        self.churn_stats
    }

    /// The shared topology store: the incrementally-maintained
    /// full-knowledge equilibrium over the current membership.
    #[must_use]
    pub fn store(&self) -> &TopologyStore {
        &self.store
    }

    /// Mutable access to the shared store — the external-driver
    /// contract: mutate, then call [`OverlayNetwork::sync_gossip`] to
    /// let the gossip consumer catch up at its own cadence.
    #[must_use]
    pub fn store_mut(&mut self) -> &mut TopologyStore {
        &mut self.store
    }

    /// The gossip consumer's position and resync ledger in the store's
    /// delta stream.
    #[must_use]
    pub fn gossip_cursor(&self) -> &DeltaCursor {
        &self.gossip_cursor
    }

    /// Adds a peer with the given identifier. Per the paper's join
    /// procedure it is handed one or more live bootstrap peers (chosen
    /// uniformly at random here); the first peer joins alone.
    ///
    /// Returns the new peer's id. Does **not** wait for convergence —
    /// call [`OverlayNetwork::converge`] to replicate the paper's
    /// insert-then-converge loop.
    pub fn add_peer(&mut self, point: Point) -> PeerId {
        let live: Vec<usize> = (0..self.store.len())
            .filter(|&i| !self.store.is_departed(PeerId(i as u64)))
            .collect();
        let bootstrap = if live.is_empty() {
            Vec::new()
        } else {
            let pick = live[self.rng.random_range(0..live.len())];
            vec![self.store.peers()[pick].clone()]
        };
        let id = self.store.insert(point);
        self.spawn_gossip_node(id, bootstrap)
    }

    /// Adds a peer through the localized churn path: the shared store
    /// computes the equilibrium delta of the join, the newcomer
    /// bootstraps directly from its equilibrium neighbourhood
    /// (locate-first instead of random walk), and only the affected
    /// peers' protocol state is re-synchronized. No global
    /// re-convergence is needed; [`OverlayNetwork::converge`] afterwards
    /// is a no-op change-wise (tests assert the fixpoint).
    pub fn add_peer_localized(&mut self, point: Point) -> PeerId {
        let id = self.store.insert(point);
        self.sync_gossip();
        self.churn_stats.joins += 1;
        id
    }

    /// Removes a peer abruptly (crash-stop): its traffic ceases and other
    /// peers expire it from their candidate sets after `Tmax`. Removing
    /// an already-departed peer is a no-op (crash-stop is idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn remove_peer(&mut self, id: PeerId) {
        if self.store.is_departed(id) {
            return;
        }
        self.store.remove(id);
        self.sim.crash(NodeId(id.index()));
    }

    /// Removes a peer through the localized churn path: the store hands
    /// the exact set of peers whose selections the departure can change
    /// (its selectors), and only their protocol state is repaired — the
    /// departed peer is expired from their candidate sets immediately
    /// instead of after `Tmax`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already departed.
    pub fn remove_peer_localized(&mut self, id: PeerId) {
        self.store.remove(id);
        self.sim.crash(NodeId(id.index()));
        self.sync_gossip();
        self.churn_stats.leaves += 1;
    }

    /// Spawns the gossip node for a freshly-inserted store peer.
    fn spawn_gossip_node(&mut self, id: PeerId, bootstrap: Vec<PeerInfo>) -> PeerId {
        let info = self.store.peers()[id.index()].clone();
        let node = GossipNode::new(
            info,
            bootstrap,
            Arc::clone(&self.selection),
            self.config.gossip,
        );
        let node_id = self.sim.spawn(node);
        debug_assert_eq!(node_id.index(), id.index(), "NodeId/PeerId alignment");
        id
    }

    /// Catches the gossip layer up with the store through its
    /// [`DeltaCursor`].
    ///
    /// Three steps, all idempotent:
    ///
    /// 1. **Spawn** a gossip node for every store peer without one,
    ///    bootstrapped from its equilibrium neighbourhood (locate-first
    ///    instead of random walk).
    /// 2. **Replay** the deltas the cursor missed, oldest first: each
    ///    affected node learns the event peer (join) or forgets it
    ///    (leave), learns its current selected neighbours, and adopts
    ///    its current equilibrium out-list. At cadence 1 (the localized
    ///    churn paths) this is exactly the old per-event sync; at any
    ///    batched cadence it lands on the same final state, because an
    ///    out-list only changes when its owner is in a dirty region.
    /// 3. **Resync** instead, when the cursor fell past the delta log's
    ///    eviction horizon: every live node re-learns its equilibrium
    ///    state from the full store. Counted per consumer in
    ///    [`OverlayNetwork::gossip_cursor`] — never silent.
    pub fn sync_gossip(&mut self) -> GossipSyncReport {
        let spawned = self.spawn_missing_nodes();
        enum Plan {
            Nothing,
            Replay(Vec<TopologyDelta>),
            Resync,
        }
        let plan = match self.gossip_cursor.catch_up(self.store.delta_log()) {
            CursorCatchUp::UpToDate => Plan::Nothing,
            CursorCatchUp::Deltas(ds) => Plan::Replay(ds),
            CursorCatchUp::Resync => Plan::Resync,
        };
        match plan {
            Plan::Nothing => GossipSyncReport {
                spawned,
                ..GossipSyncReport::default()
            },
            Plan::Replay(deltas) => {
                for delta in &deltas {
                    self.apply_gossip_delta(delta);
                }
                GossipSyncReport {
                    spawned,
                    deltas: deltas.len(),
                    resynced: false,
                }
            }
            Plan::Resync => {
                self.resync_gossip();
                GossipSyncReport {
                    spawned,
                    deltas: 0,
                    resynced: true,
                }
            }
        }
    }

    /// Spawns gossip nodes for store peers the simulation does not hold
    /// yet, preserving the NodeId/PeerId alignment. Peers that joined
    /// *and* departed between syncs still get a (crashed) node, so ids
    /// stay dense.
    ///
    /// Spawn-time bootstrap can only name already-spawned nodes (the
    /// start-of-life announcement is sent immediately), so under a
    /// batched cadence — where a newcomer's equilibrium neighbours may
    /// have *larger* ids — the bootstrap is filtered and a second pass
    /// hands every new live node its full equilibrium neighbourhood
    /// once all ids exist. At cadence 1 the filter is a no-op and the
    /// second pass re-states the bootstrap, so the lock-step behaviour
    /// is unchanged.
    fn spawn_missing_nodes(&mut self) -> usize {
        let first_new = self.sim.len();
        while self.sim.len() < self.store.len() {
            let i = self.sim.len();
            let id = PeerId(i as u64);
            let bootstrap: Vec<PeerInfo> = self
                .store
                .out_neighbors(i)
                .iter()
                .filter(|&&j| j < i)
                .map(|&j| self.store.peers()[j].clone())
                .collect();
            self.spawn_gossip_node(id, bootstrap);
            if self.store.is_departed(id) {
                self.sim.crash(NodeId(i));
            }
        }
        let now = self.sim.now();
        for i in first_new..self.store.len() {
            if self.store.is_departed(PeerId(i as u64)) {
                continue;
            }
            let new_out = self.store.out_neighbors(i).to_vec();
            let infos: Vec<PeerInfo> = new_out
                .iter()
                .map(|&j| self.store.peers()[j].clone())
                .collect();
            let node = self.sim.node_mut(NodeId(i));
            for info in infos {
                node.learn(info, now);
            }
            node.set_neighbors(new_out);
        }
        self.store.len() - first_new
    }

    /// Replays one topology delta onto the affected gossip nodes:
    /// their candidate sets learn the event peer (join) or forget it
    /// (leave) plus every currently selected neighbour, and their
    /// out-neighbour lists adopt the current equilibrium selection.
    /// One contact is counted per affected peer — the locate-first
    /// message cost.
    fn apply_gossip_delta(&mut self, delta: &TopologyDelta) {
        let now = self.sim.now();
        let changed = delta.kind.peer();
        let departed_event = matches!(delta.kind, DeltaKind::Leave(_));
        if departed_event && !self.sim.is_crashed(NodeId(changed)) {
            self.sim.crash(NodeId(changed));
        }
        for &i in &delta.dirty {
            if i == changed || self.store.is_departed(PeerId(i as u64)) {
                continue;
            }
            let new_out = self.store.out_neighbors(i).to_vec();
            let infos: Vec<PeerInfo> = new_out
                .iter()
                .map(|&j| self.store.peers()[j].clone())
                .collect();
            let node = self.sim.node_mut(NodeId(i));
            if departed_event {
                node.forget(changed);
            } else {
                node.learn(self.store.peers()[changed].clone(), now);
            }
            for info in infos {
                node.learn(info, now);
            }
            node.set_neighbors(new_out);
            self.churn_stats.contacts += 1;
        }
    }

    /// The eviction-horizon fallback: every live node forgets every
    /// departed peer, re-learns its equilibrium neighbourhood, and
    /// adopts its equilibrium out-list from the full store state.
    fn resync_gossip(&mut self) {
        let now = self.sim.now();
        let gone: Vec<usize> = (0..self.store.len())
            .filter(|&i| self.store.is_departed(PeerId(i as u64)))
            .collect();
        for &v in &gone {
            if !self.sim.is_crashed(NodeId(v)) {
                self.sim.crash(NodeId(v));
            }
        }
        for i in 0..self.store.len() {
            if self.store.is_departed(PeerId(i as u64)) {
                continue;
            }
            let new_out = self.store.out_neighbors(i).to_vec();
            let infos: Vec<PeerInfo> = new_out
                .iter()
                .map(|&j| self.store.peers()[j].clone())
                .collect();
            let node = self.sim.node_mut(NodeId(i));
            for &v in &gone {
                node.forget(v);
            }
            for info in infos {
                node.learn(info, now);
            }
            node.set_neighbors(new_out);
            self.churn_stats.contacts += 1;
        }
    }

    /// Runs the gossip protocol until the topology fingerprint is
    /// unchanged for `stable_checks` consecutive checks (or the check
    /// budget runs out). Each check XORs one cached 64-bit fingerprint
    /// per live peer — no adjacency snapshots are allocated.
    pub fn converge(&mut self) -> ConvergenceReport {
        let mut last = self.live_fingerprint();
        let mut stable = 0usize;
        for checks in 1..=self.config.max_checks {
            self.sim.run_for(self.config.check_interval);
            let current = self.live_fingerprint();
            if current == last {
                stable += 1;
                if stable >= self.config.stable_checks {
                    return ConvergenceReport {
                        converged: true,
                        checks,
                    };
                }
            } else {
                stable = 0;
                last = current;
            }
        }
        ConvergenceReport {
            converged: false,
            checks: self.config.max_checks,
        }
    }

    /// The rolling fingerprint of the live gossip topology: XOR of every
    /// live peer's cached neighbour-list hash.
    fn live_fingerprint(&self) -> u64 {
        (0..self.store.len())
            .filter(|&i| !self.store.is_departed(PeerId(i as u64)))
            .fold(0u64, |acc, i| {
                acc ^ self.sim.node(NodeId(i)).neighbors_hash()
            })
    }

    /// The current topology over **live** peers: departed peers keep
    /// their vertex (so ids stay dense) but contribute no edges.
    #[must_use]
    pub fn topology(&self) -> OverlayGraph {
        OverlayGraph::from_out_neighbors(self.snapshot())
    }

    /// The store's incrementally-maintained equilibrium topology — the
    /// convergence target of the gossip protocol, without running it.
    #[must_use]
    pub fn reference_topology(&self) -> OverlayGraph {
        self.store.graph()
    }

    /// Read access to the underlying simulation (for tests and metrics).
    #[must_use]
    pub fn sim(&self) -> &Simulation<GossipNode> {
        &self.sim
    }

    fn snapshot(&self) -> Vec<Vec<usize>> {
        (0..self.store.len())
            .map(|i| {
                if self.store.is_departed(PeerId(i as u64)) {
                    Vec::new()
                } else {
                    let mut nbrs: Vec<usize> = self
                        .sim
                        .node(NodeId(i))
                        .neighbors()
                        .iter()
                        .copied()
                        .filter(|&j| !self.store.is_departed(PeerId(j as u64)))
                        .collect();
                    nbrs.sort_unstable();
                    nbrs
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for OverlayNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayNetwork")
            .field("peers", &self.store.len())
            .field("selection", &self.selection.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::select::EmptyRectSelection;
    use geocast_geom::gen::uniform_points;

    fn network(seed: u64) -> OverlayNetwork {
        OverlayNetwork::new(
            Arc::new(EmptyRectSelection),
            NetworkConfig {
                seed,
                ..NetworkConfig::default()
            },
        )
    }

    #[test]
    fn incremental_insertion_converges_each_time() {
        let mut net = network(5);
        let points = uniform_points(6, 2, 1000.0, 5);
        for p in points.into_points() {
            net.add_peer(p);
            let report = net.converge();
            assert!(report.converged, "insertion must re-converge");
        }
        assert_eq!(net.len(), 6);
        assert!(net.topology().is_connected_undirected());
    }

    #[test]
    fn topology_is_deterministic_per_seed() {
        let build = |seed: u64| {
            let mut net = network(seed);
            for p in uniform_points(10, 2, 1000.0, 42).into_points() {
                net.add_peer(p);
            }
            net.converge();
            net.topology()
        };
        assert_eq!(build(3), build(3));
    }

    #[test]
    fn removed_peer_disappears_from_topology() {
        let mut net = network(8);
        for p in uniform_points(8, 2, 1000.0, 8).into_points() {
            net.add_peer(p);
        }
        net.converge();
        net.remove_peer(PeerId(3));
        assert!(net.has_departed(PeerId(3)));
        net.converge();
        let topo = net.topology();
        assert!(topo.out_neighbors(3).is_empty());
        for i in 0..topo.len() {
            assert!(
                !topo.out_neighbors(i).contains(&3),
                "peer {i} still links to departed"
            );
        }
    }

    #[test]
    fn departed_peers_expire_from_every_candidate_set() {
        // The §1 expiry contract after a crash-stop: once the overlay
        // re-converges (Tmax has passed), no live peer may still hold
        // the departed peer in I(P), and the topology may carry no edge
        // to the departed vertex.
        let mut net = network(21);
        for p in uniform_points(10, 2, 1000.0, 21).into_points() {
            net.add_peer(p);
        }
        net.converge();
        let victim = PeerId(4);
        net.remove_peer(victim);
        let report = net.converge();
        assert!(report.converged, "departure must re-converge");
        for i in 0..net.len() {
            if net.has_departed(PeerId(i as u64)) {
                continue;
            }
            assert!(
                !net.sim().node(geocast_sim::NodeId(i)).knows(victim.index()),
                "peer {i} still holds departed {victim} in its candidate set"
            );
        }
        let topo = net.topology();
        for i in 0..topo.len() {
            assert!(
                !topo.out_neighbors(i).contains(&victim.index()),
                "peer {i} still links to departed {victim}"
            );
        }
        assert!(topo.out_neighbors(victim.index()).is_empty());
    }

    #[test]
    fn localized_join_reaches_the_equilibrium_without_convergence() {
        let mut net = network(31);
        for p in uniform_points(12, 2, 1000.0, 31).into_points() {
            net.add_peer_localized(p);
        }
        // No converge() call: the localized path must already sit at the
        // full-knowledge equilibrium.
        let peers = PeerInfo::from_point_set(&uniform_points(12, 2, 1000.0, 31));
        let want = oracle::equilibrium(&peers, &EmptyRectSelection);
        assert_eq!(net.topology(), want);
        assert_eq!(net.reference_topology(), want);
        assert_eq!(net.churn_stats().joins, 12);
    }

    #[test]
    fn localized_join_is_a_gossip_fixpoint() {
        // Running the real protocol after a localized build must not
        // change the topology: the synced state is a fixpoint.
        let mut net = network(37);
        for p in uniform_points(10, 2, 1000.0, 37).into_points() {
            net.add_peer_localized(p);
        }
        let before = net.topology();
        let report = net.converge();
        assert!(report.converged);
        assert_eq!(net.topology(), before, "gossip rewired a localized build");
    }

    #[test]
    fn localized_leave_expires_immediately_and_matches_reference() {
        let mut net = network(41);
        for p in uniform_points(14, 2, 1000.0, 41).into_points() {
            net.add_peer_localized(p);
        }
        net.remove_peer_localized(PeerId(6));
        net.remove_peer_localized(PeerId(2));
        // Immediately — no Tmax wait — every live candidate set and the
        // topology must have dropped the departed peers.
        let topo = net.topology();
        for i in 0..net.len() {
            if net.has_departed(PeerId(i as u64)) {
                assert!(topo.out_neighbors(i).is_empty());
                continue;
            }
            for gone in [2usize, 6] {
                assert!(
                    !topo.out_neighbors(i).contains(&gone),
                    "peer {i} still links to departed {gone}"
                );
            }
        }
        assert_eq!(topo, net.reference_topology());
        assert_eq!(net.churn_stats().leaves, 2);
        assert!(net.churn_stats().contacts > 0);
    }

    #[test]
    fn batched_gossip_sync_lands_on_the_lockstep_state() {
        // Driving the store directly and syncing every third event must
        // end at exactly the per-event localized equilibrium: the
        // cursor replay is cadence-independent.
        let points = uniform_points(15, 2, 1000.0, 61);
        let mut lockstep = network(61);
        for p in points.clone().into_points() {
            lockstep.add_peer_localized(p);
        }
        lockstep.remove_peer_localized(PeerId(3));
        lockstep.remove_peer_localized(PeerId(9));

        let mut batched = network(61);
        for (i, p) in points.into_points().into_iter().enumerate() {
            batched.store_mut().insert(p);
            if i % 3 == 2 {
                batched.sync_gossip();
            }
        }
        batched.store_mut().remove(PeerId(3));
        batched.store_mut().remove(PeerId(9));
        let report = batched.sync_gossip();
        assert!(!report.resynced);
        assert_eq!(batched.topology(), lockstep.topology());
        assert_eq!(batched.topology(), batched.reference_topology());
        assert_eq!(batched.gossip_cursor().epoch(), batched.store().epoch());
        // And the synced state is still a gossip fixpoint.
        let before = batched.topology();
        assert!(batched.converge().converged);
        assert_eq!(batched.topology(), before);
    }

    #[test]
    fn gossip_laggards_resync_with_a_counted_event() {
        let mut net = network(67);
        for p in uniform_points(10, 2, 1000.0, 67).into_points() {
            net.add_peer_localized(p);
        }
        assert_eq!(net.gossip_cursor().resyncs(), 0);
        // Shrink retention, then outrun it without syncing.
        net.store_mut().set_delta_capacity(2);
        for p in uniform_points(5, 2, 1000.0, 68).into_points() {
            net.store_mut().insert(p);
        }
        net.store_mut().remove(PeerId(1));
        let report = net.sync_gossip();
        assert!(report.resynced, "horizon overrun must resync");
        assert_eq!(net.gossip_cursor().resyncs(), 1);
        // The resync is a full rebuild: the gossip layer matches the
        // store equilibrium again, including the departed peer.
        assert_eq!(net.topology(), net.reference_topology());
        assert!(!net
            .sim()
            .node(geocast_sim::NodeId(5))
            .knows(PeerId(1).index()));
        // Back on the delta stream afterwards.
        net.store_mut().insert(Point::new(vec![7.0, 8.0]).unwrap());
        let report = net.sync_gossip();
        assert_eq!(report.deltas, 1);
        assert!(!report.resynced);
        assert_eq!(net.gossip_cursor().resyncs(), 1);
    }

    #[test]
    fn empty_network_reports_trivially() {
        let mut net = network(0);
        assert!(net.is_empty());
        let report = net.converge();
        assert!(report.converged);
        assert!(net.topology().is_empty());
    }

    #[test]
    fn peers_are_stored_in_insertion_order() {
        let mut net = network(1);
        let points = uniform_points(4, 3, 500.0, 77);
        for p in &points {
            net.add_peer(p.clone());
        }
        for (i, peer) in net.peers().iter().enumerate() {
            assert_eq!(peer.id().index(), i);
            assert_eq!(peer.point(), &points[i]);
        }
    }
}
