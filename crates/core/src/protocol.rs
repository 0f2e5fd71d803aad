//! The §2 construction as an actual message-passing protocol.
//!
//! [`build_distributed`] runs the space-partitioning algorithm as
//! messages over the discrete-event simulator: the root injects a
//! construction request carrying the full coordinate space as its zone;
//! every peer receiving a request selects children via the
//! [`OrthantRectPartitioner`] and forwards sub-zone requests. When the
//! simulation quiesces, per-node parent/children state is assembled into
//! a [`MulticastTree`].
//!
//! The work-queue build over a store
//! ([`crate::groups::build_group_tree_on_store`], every peer a member)
//! runs the same logic without a simulator; integration tests assert
//! both produce identical trees, which is the evidence that the fast
//! offline sweeps measure the real protocol.

use std::sync::Arc;

use geocast_geom::Rect;
use geocast_overlay::{OverlayGraph, PeerInfo};
use geocast_sim::{
    Context, FaultModel, LatencyModel, Message, Node, NodeId, Simulation, UniformLatency,
};

use crate::partition::OrthantRectPartitioner;
use crate::tree::MulticastTree;

/// Multicast-construction traffic.
#[derive(Debug, Clone)]
pub enum BuildMsg {
    /// "You are responsible for `zone`": the §2 construction request.
    Request {
        /// The responsibility zone delegated to the receiver.
        zone: Rect,
    },
}

impl Message for BuildMsg {
    fn tag(&self) -> &'static str {
        match self {
            BuildMsg::Request { .. } => "build",
        }
    }
}

/// A peer participating in a distributed tree construction: overlay
/// neighbourhood, partitioner, acquired parent/children/zone, duplicate
/// accounting.
pub struct BuildNode {
    info: PeerInfo,
    /// Undirected overlay neighbours (connections usable both ways).
    neighbors: Vec<usize>,
    partitioner: OrthantRectPartitioner,
    peers: Arc<Vec<PeerInfo>>,
    parent: Option<usize>,
    children: Vec<usize>,
    zone: Option<Rect>,
    /// Requests received after the first (the paper's algorithm
    /// guarantees zero).
    duplicate_requests: u32,
}

impl BuildNode {
    /// Creates a construction participant.
    ///
    /// `neighbors` are the peer's undirected overlay neighbours (peer
    /// indices); `peers` is the shared peer directory indexed by those
    /// values. Most callers use [`build_distributed`] instead; the
    /// constructor is public for experiments that drive the simulation
    /// directly (e.g. crashing nodes mid-construction).
    #[must_use]
    pub fn new(
        info: PeerInfo,
        neighbors: Vec<usize>,
        partitioner: OrthantRectPartitioner,
        peers: Arc<Vec<PeerInfo>>,
    ) -> Self {
        BuildNode {
            info,
            neighbors,
            partitioner,
            peers,
            parent: None,
            children: Vec::new(),
            zone: None,
            duplicate_requests: 0,
        }
    }

    /// The parent this node acquired, if any.
    #[must_use]
    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// The children this node delegated zones to (sorted).
    #[must_use]
    pub fn children(&self) -> &[usize] {
        &self.children
    }

    /// `true` if this node received a construction request.
    #[must_use]
    pub fn is_reached(&self) -> bool {
        self.zone.is_some()
    }

    /// Construction requests received beyond the first.
    #[must_use]
    pub fn duplicate_requests(&self) -> u32 {
        self.duplicate_requests
    }
}

impl Node for BuildNode {
    type Msg = BuildMsg;

    /// Handles one §2 construction request: adopt the sender as parent
    /// (first request only), split the zone among in-zone neighbours,
    /// and send one delegation per child.
    fn on_message(&mut self, ctx: &mut Context<'_, BuildMsg>, from: NodeId, msg: BuildMsg) {
        let BuildMsg::Request { zone } = msg;
        if self.zone.is_some() {
            self.duplicate_requests += 1;
            return;
        }
        if from != ctx.self_id() {
            self.parent = Some(from.index());
        }
        let in_zone: Vec<&PeerInfo> = self
            .neighbors
            .iter()
            .map(|&q| &self.peers[q])
            .filter(|q| zone.contains_id(q.point(), q.id().index()))
            .collect();
        for (ci, child_zone) in self.partitioner.partition(&self.info, &zone, &in_zone) {
            let child = in_zone[ci].id().index();
            self.children.push(child);
            ctx.send(NodeId(child), BuildMsg::Request { zone: child_zone });
        }
        self.children.sort_unstable();
        self.zone = Some(zone);
    }
}

/// Outcome of a distributed construction run.
#[derive(Debug, Clone)]
pub struct DistBuildResult {
    /// The assembled tree.
    pub tree: MulticastTree,
    /// `build`-tagged messages sent (excluding the injected root
    /// request).
    pub messages: u64,
    /// Requests that arrived at already-reached peers (zero when the
    /// partitioner honours the disjointness contract).
    pub duplicates: u64,
    /// Virtual time from injection to quiescence.
    pub elapsed: geocast_sim::SimDuration,
}

/// Runs the §2 construction as messages over the simulator and returns
/// the resulting tree plus transport-level accounting.
///
/// `overlay` is frozen for the duration of the build (the paper
/// constructs trees on a converged topology). `latency` and `fault`
/// control the network; seeds make runs reproducible.
///
/// # Panics
///
/// Panics if `root` is out of range or sizes disagree.
#[must_use]
pub fn build_distributed(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    root: usize,
    partitioner: OrthantRectPartitioner,
    latency: impl LatencyModel + 'static,
    fault: FaultModel,
    seed: u64,
) -> DistBuildResult {
    assert_eq!(peers.len(), overlay.len(), "peer/overlay size mismatch");
    assert!(root < peers.len(), "root out of range");
    let dim = peers[root].point().dim();
    let adj = overlay.undirected_closure();
    let shared_peers = Arc::new(peers.to_vec());

    let nodes: Vec<BuildNode> = peers
        .iter()
        .enumerate()
        .map(|(i, info)| {
            BuildNode::new(
                info.clone(),
                adj.out_neighbors(i).to_vec(),
                partitioner,
                Arc::clone(&shared_peers),
            )
        })
        .collect();

    let mut sim = Simulation::builder(nodes)
        .seed(seed)
        .latency(latency)
        .fault(fault)
        .build();
    let started = sim.now();
    sim.inject(
        NodeId(root),
        BuildMsg::Request {
            zone: Rect::full(dim),
        },
    );
    sim.run_until_quiescent();

    let parent: Vec<Option<usize>> = sim.nodes().iter().map(BuildNode::parent).collect();
    let reached: Vec<bool> = sim.nodes().iter().map(BuildNode::is_reached).collect();
    let duplicates: u64 = sim
        .nodes()
        .iter()
        .map(|n| u64::from(n.duplicate_requests()))
        .sum();
    let tree = MulticastTree::from_parents(root, parent, reached);

    DistBuildResult {
        tree,
        // The injected root request is transport bootstrap, not an
        // algorithm message; subtract it to match the paper's counting.
        messages: sim.counters().sent_with_tag("build").saturating_sub(1),
        duplicates,
        elapsed: sim.now().since(started),
    }
}

/// Convenience wrapper with a uniform 5–20 ms latency model and no
/// faults — the default network of the integration tests.
#[must_use]
pub fn build_distributed_default(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    root: usize,
    partitioner: OrthantRectPartitioner,
    seed: u64,
) -> DistBuildResult {
    build_distributed(
        peers,
        overlay,
        root,
        partitioner,
        UniformLatency::new(
            geocast_sim::SimDuration::from_millis(5),
            geocast_sim::SimDuration::from_millis(20),
        ),
        FaultModel::default(),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::build_group_tree_on_store;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::{select::EmptyRectSelection, TopologyStore};

    fn setup(n: usize, dim: usize, seed: u64) -> TopologyStore {
        let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
    }

    #[test]
    fn distributed_build_spans_with_n_minus_one_messages() {
        let store = setup(60, 2, 3);
        let (peers, overlay) = (store.peers(), store.graph());
        let result =
            build_distributed_default(peers, &overlay, 0, OrthantRectPartitioner::median(), 42);
        assert!(result.tree.is_spanning());
        assert_eq!(result.messages, 59);
        assert_eq!(result.duplicates, 0, "§2: no duplicate deliveries");
        assert!(result.elapsed > geocast_sim::SimDuration::ZERO);
    }

    #[test]
    fn distributed_tree_equals_offline_tree() {
        for seed in [1u64, 5, 9] {
            let store = setup(45, 3, seed);
            let (peers, overlay) = (store.peers(), store.graph());
            let everyone = (0..store.len()).collect();
            let median = OrthantRectPartitioner::median();
            let offline = build_group_tree_on_store(&store, 2, &everyone, &median);
            let dist = build_distributed_default(
                peers,
                &overlay,
                2,
                OrthantRectPartitioner::median(),
                seed,
            );
            assert_eq!(dist.tree, offline.tree, "seed {seed}");
            assert_eq!(dist.messages as usize, offline.messages);
        }
    }

    #[test]
    fn message_reordering_does_not_change_the_tree() {
        // Different seeds shuffle delivery order via the uniform latency;
        // the constructed tree must be identical because zones make the
        // construction conflict-free.
        let store = setup(50, 2, 21);
        let (peers, overlay) = (store.peers(), store.graph());
        let build = |seed: u64| {
            build_distributed_default(peers, &overlay, 0, OrthantRectPartitioner::median(), seed)
                .tree
        };
        let reference = build(0);
        for seed in 1..6 {
            assert_eq!(build(seed), reference, "seed {seed}");
        }
    }

    #[test]
    fn message_loss_yields_partial_tree_not_panic() {
        let store = setup(80, 2, 33);
        let (peers, overlay) = (store.peers(), store.graph());
        let result = build_distributed(
            peers,
            &overlay,
            0,
            OrthantRectPartitioner::median(),
            UniformLatency::new(
                geocast_sim::SimDuration::from_millis(5),
                geocast_sim::SimDuration::from_millis(20),
            ),
            FaultModel::with_loss(0.3),
            7,
        );
        assert!(!result.tree.is_spanning(), "30% loss must strand someone");
        assert_eq!(
            result.tree.validate(),
            Ok(()),
            "partial tree is still consistent"
        );
        assert!(result.tree.reached_count() >= 1);
    }

    #[test]
    fn duplicate_free_across_many_roots() {
        let store = setup(30, 2, 55);
        let (peers, overlay) = (store.peers(), store.graph());
        for root in 0..peers.len() {
            let result = build_distributed_default(
                peers,
                &overlay,
                root,
                OrthantRectPartitioner::median(),
                root as u64,
            );
            assert_eq!(result.duplicates, 0, "root {root}");
            assert!(result.tree.is_spanning(), "root {root}");
        }
    }
}
