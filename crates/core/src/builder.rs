use std::collections::VecDeque;

use geocast_geom::Rect;
use geocast_overlay::{OverlayGraph, PeerInfo};

use crate::partition::ZonePartitioner;
use crate::tree::MulticastTree;

/// Responsibility zones of a construction, for the reached peers only
/// (sorted by peer id) — like [`MulticastTree`], `O(reached)` however
/// large the overlay is.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Zones {
    entries: Vec<(usize, Rect)>,
}

impl Zones {
    /// Assembles the table from one zone per peer, in any order.
    fn from_unsorted(mut entries: Vec<(usize, Rect)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "a peer reached twice: sub-zones of disjoint zones overlap"
        );
        Zones { entries }
    }

    fn position(&self, i: usize) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&i, |&(peer, _)| peer)
    }

    /// The zone peer `i` received (`None` for unreached peers and
    /// relays).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Rect> {
        self.position(i).ok().map(|at| &self.entries[at].1)
    }

    /// Records peer `i`'s zone, returning the one it replaces.
    pub fn insert(&mut self, i: usize, zone: Rect) -> Option<Rect> {
        match self.position(i) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, zone)),
            Err(at) => {
                self.entries.insert(at, (i, zone));
                None
            }
        }
    }

    /// Forgets peer `i`'s zone, returning it.
    pub fn remove(&mut self, i: usize) -> Option<Rect> {
        self.position(i).ok().map(|at| self.entries.remove(at).1)
    }

    /// Number of peers holding a zone.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no peer holds a zone.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Outcome of an offline tree construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildResult {
    /// The constructed (possibly partial) tree.
    pub tree: MulticastTree,
    /// Construction-request messages sent. The paper's claim: exactly
    /// `N − 1` on a spanning run (the root's request is implicit).
    pub messages: usize,
    /// Peers that were inside some delegated zone boundary decision but
    /// ended up in an orthant with no in-zone overlay neighbour — i.e.
    /// provably unreachable for this topology. Empty at equilibrium.
    pub stranded: Vec<usize>,
    /// The responsibility zone each reached peer received.
    /// `zones.get(root)` is the full space. Used by [`crate::repair`] to
    /// rebuild orphaned zones after departures.
    pub zones: Zones,
    /// **Relay** nodes (sorted): peers grafted into the tree purely to
    /// forward traffic — they carry payloads but are not part of the
    /// session audience and receive no responsibility zone. Always empty
    /// for the plain §2 construction; populated by the group layer's
    /// routing-based join (`crate::graft`).
    pub relays: Vec<usize>,
}

/// Constructs a multicast tree offline, running the §2 algorithm as a
/// deterministic work-queue instead of simulator messages.
///
/// Semantically identical to [`crate::protocol::build_distributed`] (an
/// integration test asserts tree equality); this version is what the
/// figure-scale sweeps use. Overlay neighbours are taken from the
/// **undirected closure** of `overlay` — links are connections, usable in
/// both directions, matching the protocol version.
///
/// `root` receives the whole coordinate space as its responsibility zone
/// and the queue processes delegations breadth-first. Per the paper, a
/// peer delegates only to neighbours *strictly inside* its zone; every
/// delegation is one message.
///
/// # Panics
///
/// Panics if `root` is out of range or `peers`/`overlay` sizes disagree.
#[must_use]
pub fn build_tree(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    root: usize,
    partitioner: &dyn ZonePartitioner,
) -> BuildResult {
    assert_eq!(peers.len(), overlay.len(), "peer/overlay size mismatch");
    assert!(root < peers.len(), "root out of range");
    let dim = peers[root].point().dim();
    build_in_zone(peers, overlay, root, Rect::full(dim), partitioner)
}

/// Runs the §2 work-queue construction seeded at `(start, zone)` instead
/// of `(root, full space)` — the machinery behind both [`build_tree`]
/// and zone repair ([`crate::repair`]).
///
/// `start` delegates `zone` among its overlay neighbours; `start` itself
/// becomes the root of the resulting (sub)tree and need not lie inside
/// `zone`.
///
/// # Panics
///
/// Panics if `start` is out of range or sizes disagree.
#[must_use]
pub fn build_in_zone(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    start: usize,
    zone: Rect,
    partitioner: &dyn ZonePartitioner,
) -> BuildResult {
    assert_eq!(peers.len(), overlay.len(), "peer/overlay size mismatch");
    assert!(start < peers.len(), "start out of range");
    // CSR closure: one shared flat adjacency, no per-peer list allocations.
    let adj = overlay.undirected_closure();
    let mut result = build_in_zone_generic(
        peers,
        |i, buf| {
            buf.clear();
            buf.extend_from_slice(adj.out_neighbors(i));
        },
        start,
        zone,
        partitioner,
    );
    result.stranded = result.tree.unreached();
    result
}

/// The shared §2 work-queue over any undirected-neighbour source:
/// `neighbors_into(i, buf)` fills `buf` with peer `i`'s overlay link
/// partners (sorted or not — zone filtering does not care). Crate-wide
/// machinery: the full-space build, zone repair and the group layer
/// (`crate::groups`, member-filtered neighbour sources) all run on it.
///
/// Time and memory are proportional to the peers *reached* (and their
/// adjacency rows), not to `peers.len()`: a 20-member group build over
/// a 20 000-peer overlay touches 20 peers' worth of state. For the same
/// reason `stranded` is left **empty** — whom the build was meant to
/// reach (everyone, or a member set) is the caller's knowledge.
pub(crate) fn build_in_zone_generic(
    peers: &[PeerInfo],
    mut neighbors_into: impl FnMut(usize, &mut Vec<usize>),
    start: usize,
    zone: Rect,
    partitioner: &dyn ZonePartitioner,
) -> BuildResult {
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut zones: Vec<(usize, Rect)> = vec![(start, zone.clone())];

    let mut queue: VecDeque<(usize, Rect)> = VecDeque::new();
    queue.push_back((start, zone));
    let mut nbuf: Vec<usize> = Vec::new();

    while let Some((p, zone)) = queue.pop_front() {
        neighbors_into(p, &mut nbuf);
        let in_zone: Vec<&PeerInfo> = nbuf
            .iter()
            .map(|&q| &peers[q])
            .filter(|q| zone.contains(q.point()))
            .collect();
        for (child_ci, child_zone) in partitioner.partition(&peers[p], &zone, &in_zone) {
            let child = in_zone[child_ci].id().index();
            // Sub-zones of disjoint zones are disjoint, so a child is
            // reached once: one link, one message.
            links.push((child, p));
            zones.push((child, child_zone.clone()));
            queue.push_back((child, child_zone));
        }
    }

    BuildResult {
        messages: links.len(),
        tree: MulticastTree::from_links(start, peers.len(), links),
        stranded: Vec::new(),
        zones: Zones::from_unsorted(zones),
        relays: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::{oracle, select::EmptyRectSelection};

    fn setup(n: usize, dim: usize, seed: u64) -> (Vec<PeerInfo>, OverlayGraph) {
        let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
        let overlay = oracle::equilibrium(&peers, &EmptyRectSelection);
        (peers, overlay)
    }

    #[test]
    fn spanning_build_sends_exactly_n_minus_one_messages() {
        for (n, dim, seed) in [(50usize, 2usize, 1u64), (80, 3, 2), (30, 4, 3)] {
            let (peers, overlay) = setup(n, dim, seed);
            let result = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
            assert!(result.tree.is_spanning(), "n={n} dim={dim}");
            assert_eq!(
                result.messages,
                n - 1,
                "paper's N-1 claim (n={n}, dim={dim})"
            );
            assert!(result.stranded.is_empty());
            assert_eq!(result.tree.validate(), Ok(()));
        }
    }

    #[test]
    fn every_root_yields_a_spanning_tree() {
        let (peers, overlay) = setup(40, 2, 7);
        for root in 0..peers.len() {
            let result = build_tree(&peers, &overlay, root, &OrthantRectPartitioner::median());
            assert!(result.tree.is_spanning(), "root {root}");
            assert_eq!(result.tree.root(), root);
            assert_eq!(result.messages, peers.len() - 1);
        }
    }

    #[test]
    fn children_respect_the_orthant_bound() {
        for dim in 2..=4usize {
            let (peers, overlay) = setup(60, dim, dim as u64);
            let result = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
            assert!(
                result.tree.max_children() <= 1 << dim,
                "tree degree exceeded 2^D for D={dim}"
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (peers, overlay) = setup(50, 2, 9);
        let a = build_tree(&peers, &overlay, 3, &OrthantRectPartitioner::median());
        let b = build_tree(&peers, &overlay, 3, &OrthantRectPartitioner::median());
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_rules_also_span_at_equilibrium() {
        let (peers, overlay) = setup(60, 2, 11);
        for partitioner in [
            OrthantRectPartitioner::closest(),
            OrthantRectPartitioner::farthest(),
        ] {
            let result = build_tree(&peers, &overlay, 0, &partitioner);
            assert!(result.tree.is_spanning(), "{}", partitioner.name());
            assert_eq!(result.messages, peers.len() - 1);
        }
    }

    #[test]
    fn singleton_network_builds_trivial_tree() {
        let (peers, overlay) = setup(1, 2, 13);
        let result = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning());
        assert_eq!(result.messages, 0);
    }

    #[test]
    fn two_peers_one_message() {
        let (peers, overlay) = setup(2, 3, 17);
        let result = build_tree(&peers, &overlay, 1, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning());
        assert_eq!(result.messages, 1);
        assert_eq!(result.tree.parent(0), Some(1));
    }

    #[test]
    fn sparse_overlay_strands_unreachable_peers() {
        // A deliberately broken overlay: peer 0 sees only peer 1; peers
        // 2.. are unreachable, and the builder must report them stranded
        // rather than invent links.
        let peers = PeerInfo::from_point_set(&uniform_points(5, 2, 1000.0, 19));
        let overlay =
            OverlayGraph::from_out_neighbors(vec![vec![1], vec![0], vec![], vec![], vec![]]);
        let result = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
        assert!(!result.tree.is_spanning());
        assert_eq!(result.stranded, vec![2, 3, 4]);
        assert_eq!(result.messages, 1);
    }
}
