use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geocast_geom::Point;
use geocast_sim::{Counters, NodeId, SimDuration, Simulation};

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

/// A live overlay: gossip peers inside a discrete-event simulation, with
/// the paper's experimental procedure on top (insert peers one at a time,
/// let the topology converge after every insertion).
///
/// Membership is backed by an embedded [`TopologyStore`], which keeps
/// the full-knowledge equilibrium of the current members: the topology
/// the gossip converges to ([`OverlayNetwork::reference_topology`]).
/// Churn is the paper's procedure, [`OverlayNetwork::add_peer`] /
/// [`OverlayNetwork::remove_peer`] followed by
/// [`OverlayNetwork::converge`]: random bootstrap, BR-hop announcement
/// flooding, global re-convergence.
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
    // lint:allow(D006, reason = "how tests tell the survivors of a live network from the peers remove_peer crashed")
    pub fn has_departed(&self, id: PeerId) -> bool {
        self.store.is_departed(id)
    }

    /// Message counters of the underlying simulation.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        self.sim.counters()
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
        let node = GossipNode::new(
            self.store.peers()[id.index()].clone(),
            bootstrap,
            Arc::clone(&self.selection),
            self.config.gossip,
        );
        let node_id = self.sim.spawn(node);
        debug_assert_eq!(node_id.index(), id.index(), "NodeId/PeerId alignment");
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
    // lint:allow(D006, reason = "ROADMAP item 7 names it: its acceptance is that topology equals reference_topology at N = 2 000")
    pub fn topology(&self) -> OverlayGraph {
        OverlayGraph::from_out_neighbors(self.snapshot())
    }

    /// The store's incrementally-maintained equilibrium topology — the
    /// convergence target of the gossip protocol, without running it.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 7 names it: its acceptance is that topology equals reference_topology at N = 2 000")
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
