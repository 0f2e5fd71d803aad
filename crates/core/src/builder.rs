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
        None,
    );
    result.stranded = result.tree.unreached();
    result
}

/// What an earlier run of the construction from the same start recorded,
/// and where its inputs have changed since — handed to
/// [`build_in_zone_generic`], which then re-runs only what the change
/// reaches (see there).
pub(crate) struct ZoneRecord<'a> {
    /// The earlier tree. Every peer of `zones` is on it under the parent
    /// the construction gave it; nodes without a zone (relay grafts
    /// attached since) are ignored.
    pub tree: &'a MulticastTree,
    /// The earlier zones. The ones that still stand move into the new
    /// table.
    pub zones: Zones,
    /// The peers of `zones` — no others — whose neighbour row no longer
    /// reads as it did when the earlier run partitioned their zone.
    /// Every other peer of `zones` still has the row it had.
    pub suspects: &'a [usize],
}

/// The shared §2 work-queue over any undirected-neighbour source:
/// `neighbors_into(i, buf)` fills `buf` with peer `i`'s overlay link
/// partners (sorted or not — zone filtering does not care). Crate-wide
/// machinery: the full-space build, zone repair and the group layer
/// (`crate::member_tree`, member-filtered neighbour sources) all run on
/// it.
///
/// Time and memory are proportional to the peers *reached* (and their
/// adjacency rows), not to `peers.len()`: a 20-member group build over
/// a 20 000-peer overlay touches 20 peers' worth of state. For the same
/// reason `stranded` is left **empty** — whom the build was meant to
/// reach (everyone, or a member set) is the caller's knowledge.
///
/// # Replaying a record
///
/// What a peer delegates to whom is a function of the peer, its zone and
/// its row, nothing else. Given a [`ZoneRecord`] of the same start and
/// start zone, the queue therefore holds only peers whose delegation may
/// differ, and `neighbors_into` is called for exactly the peers whose
/// zone is partitioned anew. By induction from the start, every popped
/// peer holds its final zone:
///
/// * A popped peer with its recorded zone that is no suspect delegates
///   what it delegated. Each recorded child keeps its link and zone; a
///   child with no suspect in its recorded subtree keeps the whole
///   subtree (every peer in it has its recorded zone and row, so the
///   argument repeats down to the leaves), any other child is queued
///   with its recorded zone.
/// * Any other popped peer — a suspect, a peer with a new zone, a peer
///   the record does not know — is partitioned anew. A child that was
///   its child before, with an equal zone, is *in place* and treated as
///   above. Every other child gets a fresh link and zone and is queued
///   to be partitioned itself; if the record has it elsewhere, that
///   entry is dropped. A recorded child that is not in place is an
///   orphan: zones of final peers are disjoint and every peer lies
///   inside its own, so a peer has one delegator — another peer
///   delegates to the orphan (and partitions it anew, keeping its
///   recorded children that are in place), or nobody reaches it.
///
/// When the queue is empty the orphans nobody reached are dropped with
/// their recorded subtrees (down to peers that were reached again),
/// and the result is one merge of the recorded entries that stand with
/// the fresh ones — equal to what the queue returns without a record.
pub(crate) fn build_in_zone_generic(
    peers: &[PeerInfo],
    mut neighbors_into: impl FnMut(usize, &mut Vec<usize>),
    start: usize,
    zone: Rect,
    partitioner: &dyn ZonePartitioner,
    record: Option<ZoneRecord>,
) -> BuildResult {
    // Another start or start zone: the record says nothing about this run.
    let mut replay = record
        .filter(|r| r.tree.root() == start && r.zones.get(start) == Some(&zone))
        .map(Replay::new);
    // A zone index below `known` is a recorded zone, any other a fresh one.
    let known = replay.as_ref().map_or(0, |r| r.zones.len());
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut fresh: Vec<(usize, Rect)> = Vec::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    match &replay {
        Some(r) => queue.push_back((start, r.zone_of[r.slot(start)] as usize)),
        None => {
            fresh.push((start, zone));
            queue.push_back((start, 0));
        }
    }
    let mut nbuf: Vec<usize> = Vec::new();
    let mut in_zone: Vec<&PeerInfo> = Vec::new();

    while let Some((p, at)) = queue.pop_front() {
        let slot = replay.as_ref().and_then(|r| r.tree.slot(p));
        if let (Some(r), Some(slot)) = (&replay, slot) {
            if at < known && r.flags[at] & SUSPECT == 0 {
                let marked = r.children(slot).filter(|c| r.flags[c.at] & MARKED != 0);
                queue.extend(marked.map(|c| (c.peer, c.at)));
                continue;
            }
        }
        neighbors_into(p, &mut nbuf);
        let zone = match &replay {
            Some(r) if at < known => &r.zones[at].1,
            _ => &fresh[at - known].1,
        };
        in_zone.clear();
        in_zone.extend(
            nbuf.iter()
                .map(|&q| &peers[q])
                .filter(|q| zone.contains(q.point())),
        );
        for (child_ci, child_zone) in partitioner.partition(&peers[p], zone, &in_zone) {
            let child = in_zone[child_ci].id().index();
            if let Some(r) = &mut replay {
                if let Some(at) = r.hold(child, slot, &child_zone) {
                    if r.flags[at] & MARKED != 0 {
                        queue.push_back((child, at));
                    }
                    continue;
                }
            }
            // Sub-zones of disjoint zones are disjoint, so a child is
            // reached once: one link, one message.
            links.push((child, p));
            queue.push_back((child, known + fresh.len()));
            fresh.push((child, child_zone));
        }
        if let (Some(r), Some(slot)) = (&mut replay, slot) {
            r.orphan_children_not_held(slot);
        }
    }

    let (tree, zones) = match replay {
        Some(r) => r.merge(peers.len(), links, fresh),
        None => (
            MulticastTree::from_links(start, peers.len(), links),
            Zones::from_unsorted(fresh),
        ),
    };
    BuildResult {
        messages: tree.reached_count() - 1,
        tree,
        stranded: Vec::new(),
        zones,
        relays: Vec::new(),
    }
}

/// The recorded peer's row differs: its zone is partitioned anew.
const SUSPECT: u8 = 1;
/// A suspect, or a recorded ancestor of one: the queue descends here.
const MARKED: u8 = 2;
/// The recorded link and zone no longer stand.
const DROPPED: u8 = 4;
/// Delegated to again by its recorded parent, with its recorded zone.
const HELD: u8 = 8;
/// No recorded zone: a node grafted onto the recorded tree.
const NO_ZONE: u32 = u32::MAX;

/// A [`ZoneRecord`] while the construction replays it.
struct Replay<'a> {
    tree: &'a MulticastTree,
    /// The recorded zones, ascending by peer; `flags` is parallel.
    zones: Vec<(usize, Rect)>,
    flags: Vec<u8>,
    /// Slot of the recorded tree → index into `zones`, or [`NO_ZONE`].
    zone_of: Vec<u32>,
    /// Recorded peers their recorded parent no longer delegates to.
    orphans: Vec<RecordedPeer>,
}

/// A peer of the record: where its node and its zone are.
#[derive(Clone, Copy)]
struct RecordedPeer {
    peer: usize,
    /// Its slot of the recorded tree.
    slot: usize,
    /// Its index into the recorded zones.
    at: usize,
}

/// The children of the node at `slot` of `tree` that hold a zone.
fn recorded_children<'t>(
    tree: &'t MulticastTree,
    zone_of: &'t [u32],
    slot: usize,
) -> impl Iterator<Item = RecordedPeer> + 't {
    tree.children_of(slot).iter().filter_map(move |&peer| {
        let slot = tree.slot(peer).expect("children are on the tree");
        let at = zone_of[slot];
        (at != NO_ZONE).then_some(RecordedPeer {
            peer,
            slot,
            at: at as usize,
        })
    })
}

impl<'a> Replay<'a> {
    fn new(record: ZoneRecord<'a>) -> Self {
        let ZoneRecord {
            tree,
            zones: Zones { entries: zones },
            suspects,
        } = record;
        assert!(u32::try_from(zones.len()).is_ok(), "zone indices are u32");
        // Zones and tree slots both ascend by peer: one merge walk.
        let mut zone_of = vec![NO_ZONE; tree.reached_count()];
        let mut slot = 0;
        for (at, &(peer, _)) in zones.iter().enumerate() {
            while tree.reached()[slot] < peer {
                slot += 1;
            }
            assert_eq!(tree.reached()[slot], peer, "a zone's holder is on the tree");
            zone_of[slot] = at as u32;
        }
        let mut replay = Replay {
            tree,
            flags: vec![0; zones.len()],
            zones,
            zone_of,
            orphans: Vec::new(),
        };
        for &s in suspects {
            let mut slot = replay.slot(s);
            let mut at = replay.zone_of[slot] as usize;
            replay.flags[at] |= SUSPECT;
            // Mark up to the first ancestor an earlier suspect marked.
            while replay.flags[at] & MARKED == 0 {
                replay.flags[at] |= MARKED;
                let Some(up) = tree.parent_slot(slot) else {
                    break;
                };
                slot = up;
                at = replay.zone_of[up] as usize;
            }
        }
        replay
    }

    /// The slot of a peer that is on the recorded tree.
    fn slot(&self, peer: usize) -> usize {
        self.tree.slot(peer).expect("a recorded peer")
    }

    /// The recorded children of the peer at `slot` that hold a zone.
    fn children(&self, slot: usize) -> impl Iterator<Item = RecordedPeer> + '_ {
        recorded_children(self.tree, &self.zone_of, slot)
    }

    /// Decides whether `child`, just delegated `zone` by the peer at
    /// slot `parent` of the recorded tree (`None`: not on it), is in
    /// place. If so its recorded entry stands, and its zone index is
    /// returned; if not, its recorded entry (if any) is dropped.
    fn hold(&mut self, child: usize, parent: Option<usize>, zone: &Rect) -> Option<usize> {
        let slot = self.tree.slot(child)?;
        let at = self.zone_of[slot];
        if at == NO_ZONE {
            return None;
        }
        let at = at as usize;
        let in_place = self.tree.parent_slot(slot) == parent && self.zones[at].1 == *zone;
        self.flags[at] |= if in_place { HELD } else { DROPPED };
        in_place.then_some(at)
    }

    /// Notes the recorded children of the peer at `slot` that its new
    /// partition did not [`Replay::hold`]: unless they are delegated to
    /// from elsewhere before the queue runs dry, nobody reaches them.
    fn orphan_children_not_held(&mut self, slot: usize) {
        let let_go = |c: &RecordedPeer| self.flags[c.at] & (DROPPED | HELD) == 0;
        self.orphans
            .extend(recorded_children(self.tree, &self.zone_of, slot).filter(let_go));
    }

    /// Drops the recorded subtree of every orphan the finished queue
    /// did not reach. A peer dropped earlier was delegated to from
    /// elsewhere and has decided about its recorded children itself.
    fn drop_unreached_orphans(&mut self) {
        while let Some(top) = self.orphans.pop() {
            if self.flags[top.at] & DROPPED == 0 {
                self.flags[top.at] |= DROPPED;
                self.orphans
                    .extend(recorded_children(self.tree, &self.zone_of, top.slot));
            }
        }
    }

    /// The new tree and zones: the recorded entries that stand, merged
    /// with the fresh ones.
    fn merge(
        mut self,
        len: usize,
        links: Vec<(usize, usize)>,
        mut fresh: Vec<(usize, Rect)>,
    ) -> (MulticastTree, Zones) {
        self.drop_unreached_orphans();
        let Replay {
            tree,
            zones,
            flags,
            zone_of,
            ..
        } = self;
        let stands = |at: u32| at != NO_ZONE && flags[at as usize] & DROPPED == 0;
        let tree = tree.patched(len, |slot| stands(zone_of[slot]), links);
        fresh.sort_unstable_by_key(|&(i, _)| i);
        let mut fresh = fresh.into_iter().peekable();
        let mut entries = Vec::with_capacity(tree.reached_count());
        for ((peer, zone), flags) in zones.into_iter().zip(&flags) {
            if flags & DROPPED != 0 {
                continue;
            }
            entries.extend(std::iter::from_fn(|| fresh.next_if(|f| f.0 < peer)));
            entries.push((peer, zone));
        }
        entries.extend(fresh);
        debug_assert!(
            entries
                .iter()
                .map(|e| e.0)
                .eq(tree.reached().iter().copied()),
            "zones and tree disagree on who was reached"
        );
        (tree, Zones { entries })
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
