//! The distributed overlay-maintenance protocol of §1.
//!
//! Every peer periodically broadcasts its existence (identifier and
//! network address) a fixed number `BR ≥ 2` of hops away along the
//! current overlay edges. Each peer `P` collects the announcements it
//! received during the last `Tmax` into the candidate set `I(P)`
//! (`Tmax` larger than the gossip period) and periodically re-runs its
//! neighbour-selection method on `I(P)` to pick its overlay neighbours.
//!
//! Under stable membership this iteration reaches a fixpoint; the paper
//! requires the fixpoint to equal ("or be close to") the full-knowledge
//! equilibrium computed by [`crate::oracle`]. Integration tests assert
//! exact agreement on small networks when `BR` covers the overlay
//! diameter.

use std::collections::BTreeMap;
use std::sync::Arc;

use geocast_sim::{Context, Message, Node, NodeId, SimDuration, SimTime, TimerId};

use crate::peer::PeerInfo;
use crate::select::NeighborSelection;

/// Protocol timing and reach parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Existence announcements travel this many overlay hops (`BR`).
    /// The paper requires `BR ≥ 2`.
    pub br: u8,
    /// Interval between a peer's announcements.
    pub announce_period: SimDuration,
    /// Age limit of entries in `I(P)`; must exceed `announce_period`.
    pub tmax: SimDuration,
    /// Interval between re-runs of the neighbour-selection method.
    pub reselect_period: SimDuration,
}

impl GossipConfig {
    /// Validates the paper's parameter constraints (`BR ≥ 2`,
    /// `Tmax > announce_period`).
    ///
    /// # Panics
    ///
    /// Panics if the constraints are violated.
    pub fn validate(&self) {
        assert!(self.br >= 2, "the paper requires BR >= 2");
        assert!(
            self.tmax > self.announce_period,
            "Tmax must exceed the gossiping period"
        );
    }
}

impl Default for GossipConfig {
    /// `BR = 3`, 1 s announcements, 4 s expiry, 1 s reselection.
    fn default() -> Self {
        GossipConfig {
            br: 3,
            announce_period: SimDuration::from_secs(1),
            tmax: SimDuration::from_secs(4),
            reselect_period: SimDuration::from_secs(1),
        }
    }
}

/// Overlay-maintenance traffic.
#[derive(Debug, Clone)]
pub enum OverlayMsg {
    /// "I exist": `origin`'s identifier and address, flooded up to `ttl`
    /// further hops. `seq` deduplicates flood copies.
    Announce {
        /// The peer announcing itself.
        origin: PeerInfo,
        /// Per-origin announcement counter.
        seq: u64,
        /// Remaining hop budget.
        ttl: u8,
    },
}

impl Message for OverlayMsg {
    fn tag(&self) -> &'static str {
        match self {
            OverlayMsg::Announce { .. } => "announce",
        }
    }
}

/// A peer running the gossip protocol.
///
/// Simulation node ids and peer ids coincide (`NodeId(i)` ⇔ `PeerId(i)`);
/// [`crate::OverlayNetwork`] maintains that invariant.
pub struct GossipNode {
    info: PeerInfo,
    config: GossipConfig,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    /// Current overlay out-neighbours (peer indices).
    neighbors: Vec<usize>,
    /// Peers that recently sent us traffic directly (incoming side of
    /// overlay connections). Selection is asymmetric, but links are
    /// *connections*: gossip flows both ways, so a peer nobody selects
    /// still receives existence announcements. Pruned with `Tmax`.
    in_links: BTreeMap<usize, SimTime>,
    /// `I(P)`: candidate peers and when each was last heard.
    known: BTreeMap<usize, (PeerInfo, SimTime)>,
    /// Highest announcement sequence number seen per origin (flood dedup).
    seen_seq: BTreeMap<u64, u64>,
    /// Every peer ever heard of (host cache). Not part of the paper's
    /// protocol: used only as a **re-bootstrap fallback** when all
    /// overlay neighbours have departed, so that a peer whose entire
    /// neighbourhood crashes can rejoin instead of staying orphaned.
    /// Entries here never enter `I(P)` directly.
    address_book: Vec<usize>,
    /// Round-robin cursor into the address book for fallback announces.
    fallback_cursor: usize,
    /// Rolling fingerprint of `neighbors` (see
    /// [`crate::topology_hash`]); lets convergence checks compare
    /// topologies without snapshotting adjacency lists.
    neighbors_hash: u64,
    next_seq: u64,
    announce_timer: Option<TimerId>,
    reselect_timer: Option<TimerId>,
}

impl GossipNode {
    /// Creates a peer that will bootstrap from the given existing peers
    /// (it knows their identifiers and addresses, per the paper's join
    /// procedure).
    #[must_use]
    pub fn new(
        info: PeerInfo,
        bootstrap: Vec<PeerInfo>,
        selection: Arc<dyn NeighborSelection + Send + Sync>,
        config: GossipConfig,
    ) -> Self {
        config.validate();
        let neighbors: Vec<usize> = bootstrap.iter().map(|p| p.id().index()).collect();
        let known = bootstrap
            .into_iter()
            .map(|p| (p.id().index(), (p, SimTime::ZERO)))
            .collect();
        let neighbors_hash = crate::store::topology_hash(info.id().index(), &neighbors);
        GossipNode {
            info,
            config,
            selection,
            address_book: neighbors.clone(),
            neighbors,
            in_links: BTreeMap::new(),
            known,
            seen_seq: BTreeMap::new(),
            fallback_cursor: 0,
            neighbors_hash,
            next_seq: 0,
            announce_timer: None,
            reselect_timer: None,
        }
    }

    /// This peer's own description.
    #[must_use]
    pub fn info(&self) -> &PeerInfo {
        &self.info
    }

    /// Current overlay out-neighbours as peer indices (sorted).
    #[must_use]
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// Rolling fingerprint of the current out-neighbour list
    /// ([`crate::topology_hash`]); maintained on every re-selection so
    /// convergence checks read one `u64` per peer instead of cloning
    /// adjacency.
    #[must_use]
    pub fn neighbors_hash(&self) -> u64 {
        self.neighbors_hash
    }

    /// `true` if `idx` is currently in this peer's candidate set `I(P)`.
    #[must_use]
    // lint:allow(D006, reason = "how network's tests see Tmax expiry purge a departed peer from every candidate set")
    pub fn knows(&self, idx: usize) -> bool {
        self.known.contains_key(&idx)
    }

    /// All live link partners: selected out-neighbours plus unexpired
    /// incoming connections, minus any exclusions. Gossip traffic flows
    /// over these.
    fn link_partners(&self, now: SimTime, exclude: &[usize]) -> Vec<usize> {
        let tmax = self.config.tmax;
        let mut partners: Vec<usize> = self
            .neighbors
            .iter()
            .copied()
            .chain(
                self.in_links
                    .iter()
                    .filter(|(_, &heard)| now.since(heard) <= tmax)
                    .map(|(&idx, _)| idx),
            )
            .filter(|idx| !exclude.contains(idx))
            .collect();
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    fn announce(&mut self, ctx: &mut Context<'_, OverlayMsg>) {
        self.next_seq += 1;
        let msg = OverlayMsg::Announce {
            origin: self.info.clone(),
            seq: self.next_seq,
            ttl: self.config.br,
        };
        let partners = self.link_partners(ctx.now(), &[]);
        if partners.is_empty() && !self.address_book.is_empty() {
            // Re-bootstrap fallback: all neighbours departed; try a few
            // cached contacts round-robin until someone live hears us.
            for _ in 0..3.min(self.address_book.len()) {
                let target = self.address_book[self.fallback_cursor % self.address_book.len()];
                self.fallback_cursor = self.fallback_cursor.wrapping_add(1);
                ctx.send(NodeId(target), msg.clone());
            }
        } else {
            for nbr in partners {
                ctx.send(NodeId(nbr), msg.clone());
            }
        }
        self.announce_timer = Some(ctx.set_timer(self.config.announce_period));
    }

    fn reselect(&mut self, ctx: &mut Context<'_, OverlayMsg>) {
        let now = ctx.now();
        let tmax = self.config.tmax;
        self.known.retain(|_, (_, heard)| now.since(*heard) <= tmax);

        let mut indices: Vec<usize> = self.known.keys().copied().collect();
        indices.sort_unstable(); // deterministic candidate order
        let candidates: Vec<&PeerInfo> = indices.iter().map(|i| &self.known[i].0).collect();
        let picked = self.selection.select(&self.info, &candidates);
        self.neighbors = picked.into_iter().map(|ci| indices[ci]).collect();
        self.neighbors_hash = crate::store::topology_hash(self.info.id().index(), &self.neighbors);
        self.reselect_timer = Some(ctx.set_timer(self.config.reselect_period));
    }
}

impl Node for GossipNode {
    type Msg = OverlayMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, OverlayMsg>) {
        self.announce(ctx);
        self.reselect_timer = Some(ctx.set_timer(self.config.reselect_period));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        let OverlayMsg::Announce { origin, seq, ttl } = msg;
        if from.index() != self.info.id().index() {
            self.in_links.insert(from.index(), ctx.now());
        }
        if origin.id() == self.info.id() {
            return; // own announcement echoed back
        }
        let origin_idx = origin.id().index();
        if self
            .known
            .insert(origin_idx, (origin.clone(), ctx.now()))
            .is_none()
            && !self.address_book.contains(&origin_idx)
        {
            self.address_book.push(origin_idx);
        }

        // Forward only the first copy of each announcement, BR-hop bounded.
        let newest = self.seen_seq.entry(origin.id().0).or_insert(0);
        if seq <= *newest {
            return;
        }
        *newest = seq;
        if ttl > 1 {
            let targets = self.link_partners(ctx.now(), &[from.index(), origin_idx]);
            let fwd = OverlayMsg::Announce {
                origin,
                seq,
                ttl: ttl - 1,
            };
            for nbr in targets {
                ctx.send(NodeId(nbr), fwd.clone());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, OverlayMsg>, timer: TimerId) {
        if Some(timer) == self.announce_timer {
            self.announce(ctx);
        } else if Some(timer) == self.reselect_timer {
            self.reselect(ctx);
        }
    }
}

impl std::fmt::Debug for GossipNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipNode")
            .field("info", &self.info)
            .field("neighbors", &self.neighbors)
            .field("known", &self.known.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::EmptyRectSelection;
    use geocast_geom::gen::uniform_points;
    use geocast_sim::Simulation;

    fn selection() -> Arc<dyn NeighborSelection + Send + Sync> {
        Arc::new(EmptyRectSelection)
    }

    fn star_network(n: usize, seed: u64) -> Simulation<GossipNode> {
        // Peer 0 is everyone's bootstrap.
        let points = uniform_points(n, 2, 1000.0, seed);
        let peers = PeerInfo::from_point_set(&points);
        let nodes: Vec<GossipNode> = peers
            .iter()
            .map(|p| {
                let bootstrap = if p.id().index() == 0 {
                    Vec::new()
                } else {
                    vec![peers[0].clone()]
                };
                GossipNode::new(p.clone(), bootstrap, selection(), GossipConfig::default())
            })
            .collect();
        Simulation::builder(nodes).seed(seed).build()
    }

    #[test]
    fn announcements_populate_candidate_sets() {
        let mut sim = star_network(6, 4);
        sim.run_until(geocast_sim::SimTime::ZERO + SimDuration::from_secs(10));
        // Everyone announced to peer 0, so peer 0 knows all 5 others.
        assert_eq!(sim.node(NodeId(0)).known.len(), 5);
        // And peer 0's re-announcements + flooding spread knowledge out.
        for i in 1..6 {
            assert!(
                !sim.node(NodeId(i)).known.is_empty(),
                "peer {i} learned nothing"
            );
        }
    }

    #[test]
    fn reselection_prunes_expired_entries() {
        let mut sim = star_network(4, 9);
        sim.run_until(geocast_sim::SimTime::ZERO + SimDuration::from_secs(8));
        let before = sim.node(NodeId(0)).known.len();
        assert!(before > 0);
        // Crash everyone else; their entries age out of I(0) after Tmax.
        for i in 1..4 {
            sim.crash(NodeId(i));
        }
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(
            sim.node(NodeId(0)).known.len(),
            0,
            "stale entries must expire"
        );
        assert!(sim.node(NodeId(0)).neighbors().is_empty());
    }

    #[test]
    fn ttl_bounds_flood_reach() {
        // A chain bootstrap: peer i bootstraps from peer i-1. With BR=2,
        // an announcement from peer 4 can reach at most 2 hops along the
        // initial chain before reselection rewires things; peer 0 at
        // distance 4 must not know peer 4 after one announce round if no
        // rewiring shortens the path. We test the dedup/ttl mechanics on
        // the very first delivery wave (before any reselect timer fires).
        let points = uniform_points(5, 2, 1000.0, 31);
        let peers = PeerInfo::from_point_set(&points);
        let config = GossipConfig {
            br: 2,
            announce_period: SimDuration::from_secs(100), // one round only
            tmax: SimDuration::from_secs(1000),
            reselect_period: SimDuration::from_secs(500), // never fires
        };
        let nodes: Vec<GossipNode> = peers
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let bootstrap = if i == 0 {
                    Vec::new()
                } else {
                    vec![peers[i - 1].clone()]
                };
                GossipNode::new(p.clone(), bootstrap, selection(), config)
            })
            .collect();
        let mut sim = Simulation::builder(nodes).build();
        sim.run_until(geocast_sim::SimTime::ZERO + SimDuration::from_secs(50));
        // Peer 4's announcement goes to 3 (hop 1) and is forwarded to 2
        // (hop 2) and stops (ttl exhausted).
        let knows = |i: usize, j: usize| sim.node(NodeId(i)).known.contains_key(&j);
        assert!(knows(3, 4), "direct neighbour must learn origin");
        assert!(knows(2, 4), "2-hop peer must learn origin (BR=2)");
        assert!(!knows(1, 4), "3-hop peer must NOT learn origin with BR=2");
        assert!(!knows(0, 4), "4-hop peer must NOT learn origin with BR=2");
    }

    #[test]
    fn duplicate_floods_are_not_reforwarded() {
        // Fully-meshed bootstrap of 3 peers: each announcement reaches
        // every peer directly and via one forward; the dedup must keep
        // traffic finite and well below the unbounded-flood blowup.
        let points = uniform_points(3, 2, 1000.0, 77);
        let peers = PeerInfo::from_point_set(&points);
        let config = GossipConfig {
            br: 3,
            announce_period: SimDuration::from_secs(100),
            tmax: SimDuration::from_secs(1000),
            reselect_period: SimDuration::from_secs(500),
        };
        let nodes: Vec<GossipNode> = peers
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let bootstrap: Vec<PeerInfo> = peers
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, q)| q.clone())
                    .collect();
                GossipNode::new(p.clone(), bootstrap, selection(), config)
            })
            .collect();
        let mut sim = Simulation::builder(nodes).build();
        sim.run_until(geocast_sim::SimTime::ZERO + SimDuration::from_secs(50));
        // 3 origins × 2 direct sends = 6 first-wave messages; each
        // receiver forwards a *new* announcement to at most 1 other peer
        // (excluding sender and origin) = at most 6 forwards, of which
        // only the first copy per (origin, receiver) triggers anything.
        let announced = sim.counters().sent_with_tag("announce");
        assert!(announced <= 18, "flood dedup failed: {announced} messages");
        assert!(announced >= 6, "first wave must have gone out");
    }

    #[test]
    fn config_validation_enforces_paper_constraints() {
        let bad_br = GossipConfig {
            br: 1,
            ..GossipConfig::default()
        };
        assert!(std::panic::catch_unwind(|| bad_br.validate()).is_err());
        let bad_tmax = GossipConfig {
            tmax: SimDuration::from_millis(500),
            announce_period: SimDuration::from_secs(1),
            ..GossipConfig::default()
        };
        assert!(std::panic::catch_unwind(|| bad_tmax.validate()).is_err());
        GossipConfig::default().validate(); // must not panic
    }
}
