//! The §2 construction of one group: the space-partitioning work-queue
//! over the **member-induced subgraph** of a [`TopologyStore`], from
//! scratch or replaying what the group's previous build recorded.
//!
//! [`member_tree`] runs the queue from the root, whose zone is the whole
//! space: each popped member reads its member-induced row (its overlay
//! neighbours that are fellow members), partitions its zone among the
//! in-zone ones ([`OrthantRectPartitioner::partition`]) and queues each
//! child with its sub-zone. Time and memory are proportional to the
//! members *reached* (and their rows), not to the overlay: a 20-member
//! group over a 20 000-peer overlay touches 20 members' worth of state.
//!
//! # Replaying a record
//!
//! A delegation is one step of the build under the engine's one replay
//! rule ([`crate::graft`] states it): what a member delegates to whom is
//! a function of the member, its zone and its row, nothing else, so it
//! re-runs only when one of those reads changed. Handed a [`Recorded`]
//! build of the same root, [`member_tree`] compares the rows of the
//! `touched` members with the recorded ones: a reached member whose row
//! reads differently — whatever part of it the partition reads — is a
//! *suspect*, and marks its recorded ancestors. The queue then holds
//! only members whose delegation may differ, and reads a row for exactly
//! the members whose zone it partitions anew. By induction from the
//! root, every popped member holds its final zone:
//!
//! * A popped member with its recorded zone that is no suspect delegates
//!   what it delegated. Each recorded child keeps its link and zone; a
//!   child with no suspect in its recorded subtree keeps the whole
//!   subtree (every member in it has its recorded zone and row, so the
//!   argument repeats down to the leaves), any other child is queued
//!   with its recorded zone.
//! * Any other popped member — a suspect, a member with a new zone, a
//!   member the record does not know — is partitioned anew. A child that
//!   was its child before, with an equal zone, is *in place* and treated
//!   as above. Every other child gets a fresh link and zone and is
//!   queued to be partitioned itself; if the record has it elsewhere,
//!   that entry is dropped. A recorded child that is not in place is an
//!   orphan: zones of final members are disjoint and every member lies
//!   inside its own, so a member has one delegator — another member
//!   delegates to the orphan (and partitions it anew, keeping its
//!   recorded children that are in place), or nobody reaches it.
//!
//! When the queue is empty the orphans nobody reached are dropped with
//! their recorded subtrees (down to members that were reached again).
//! The zones are the recorded entries that stand, moved, merged with the
//! fresh ones; the tree is an edit of the recorded one — the entries
//! that no longer stand dropped, the fresh links added, the zone-less
//! nodes (relay grafts) left for the graft pass to keep or drop; the
//! rows are the recorded ones with the re-read ones in their place.
//! Applied, the edit is the tree the queue returns without a record:
//! the result is the from-scratch one either way.

use std::collections::{BTreeSet, VecDeque};

use geocast_geom::Rect;
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};

use crate::bits::PeerBits;
use crate::partition::OrthantRectPartitioner;
use crate::tree::{MulticastTree, TreeEdit};

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

    /// The zone peer `i` received (`None` for unreached peers and
    /// relays).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Rect> {
        let at = self.entries.binary_search_by_key(&i, |&(peer, _)| peer);
        at.ok().map(|at| &self.entries[at].1)
    }

    /// The peers holding a zone, ascending.
    pub(crate) fn peers(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.entries.iter().map(|&(i, _)| i)
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
    /// `zones.get(root)` is the full space. A rebuild replays the zones
    /// that still stand (`crate::member_tree`).
    pub zones: Zones,
    /// **Relay** nodes (sorted): peers grafted into the tree purely to
    /// forward traffic — they carry payloads but are not part of the
    /// session audience and receive no responsibility zone. Always empty
    /// for the plain §2 construction; populated by the group layer's
    /// routing-based join (`crate::graft`).
    pub relays: Vec<usize>,
}

/// The member-induced adjacency rows one §2 group construction read:
/// for every member the tree reached, its overlay neighbours that are
/// fellow members, in row order. The construction is a function of
/// exactly these rows (plus coordinates and the partitioner), so a
/// later state of the overlay in which they all read the same yields
/// the same §2 tree.
///
/// Rows lie in `flat` back to back in ascending member order, whatever
/// order the construction read them in: equal contents are equal values.
/// Peer ids are `u32`, the width the store keeps its own rows at: it
/// admits no population whose ids do not fit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct MemberRows {
    /// `(member, start, end)` of each row in `flat`, ascending by member.
    spans: Vec<(u32, u32, u32)>,
    flat: Vec<u32>,
}

impl MemberRows {
    /// Records `row` as `member`'s and returns it as recorded.
    fn push(&mut self, member: u32, row: impl Iterator<Item = u32>) -> &[u32] {
        let start = self.flat.len();
        self.flat.extend(row);
        let end = self.flat.len();
        self.spans.push((member, start as u32, end as u32));
        &self.flat[start..]
    }

    /// The recorded row of `member`; `None` if the §2 construction did
    /// not reach it.
    pub(crate) fn row(&self, member: usize) -> Option<&[u32]> {
        let at = self
            .spans
            .binary_search_by_key(&(member as u32), |&(m, _, _)| m)
            .ok()?;
        let (_, start, end) = self.spans[at];
        Some(&self.flat[start as usize..end as usize])
    }

    /// The rows of a construction that reached `reached` (ascending):
    /// the row it read where it read one (`read`, in reading order),
    /// the `recorded` row everywhere else.
    fn of(
        reached: impl ExactSizeIterator<Item = usize>,
        mut read: MemberRows,
        recorded: &MemberRows,
    ) -> MemberRows {
        read.spans.sort_unstable();
        let mut rows = MemberRows {
            spans: Vec::with_capacity(reached.len()),
            flat: Vec::with_capacity(read.flat.len().max(recorded.flat.len())),
        };
        let (mut read_spans, mut kept_spans) =
            (read.spans.iter().peekable(), recorded.spans.iter());
        for m in reached {
            let m = m as u32;
            let (from, &(_, start, end)) = match read_spans.next_if(|span| span.0 == m) {
                Some(span) => (&read.flat, span),
                None => (
                    &recorded.flat,
                    kept_spans
                        .find(|span| span.0 >= m)
                        .filter(|span| span.0 == m)
                        .expect("a member whose row was not read keeps its recorded one"),
                ),
            };
            rows.push(m, from[start as usize..end as usize].iter().copied());
        }
        rows
    }

    /// Re-runs the read of `p`'s §2 delegation: `false` when `p`'s row
    /// was recorded and its member-induced row — its store row filtered
    /// by `member` — reads differently now.
    pub(crate) fn stands(
        &self,
        store: &TopologyStore,
        p: usize,
        member: impl Fn(usize) -> bool,
    ) -> bool {
        self.row(p).is_none_or(|then| {
            let now = store.neighbors(p).filter(|&j| member(j));
            now.map(|j| j as u32).eq(then.iter().copied())
        })
    }
}

/// What a group's previous build recorded of its §2 construction, and
/// where the inputs of that construction may have changed since.
pub(crate) struct Recorded<'a> {
    /// The previous (grafted) tree, whose grafts the construction leaves
    /// for the graft pass to keep or drop.
    pub tree: &'a MulticastTree,
    /// The previous zones: one per member the §2 construction reached.
    pub zones: Zones,
    /// The row of each of those members, as it read then.
    pub rows: MemberRows,
    /// Every peer whose member-induced row may read differently now,
    /// sorted: after churn the group's members among the dirty peers,
    /// after a subscribe or unsubscribe the peer and its overlay
    /// neighbours (the rows the peer appears in or vanishes from).
    pub touched: &'a [usize],
}

/// One group's §2 tree and what building it read.
pub(crate) struct MemberTree<'a> {
    pub section2: Section2<'a>,
    pub rows: MemberRows,
    /// Reached members whose delegation was taken from the record.
    pub splits_replayed: u64,
    /// Reached members whose zone was partitioned.
    pub splits_recomputed: u64,
}

/// A group's §2 construction in the form the graft pass takes it over:
/// its zones, the members it strands, and its tree as an edit of `base`.
pub(crate) struct Section2<'a> {
    pub root: usize,
    /// Peers the tree is built over.
    pub len: usize,
    /// The tree `edit` applies to: the previous build's, grafts and all,
    /// when the construction replayed its record, or (`None`) the root
    /// alone.
    pub base: Option<&'a MulticastTree>,
    pub edit: TreeEdit,
    /// The zone of every member the construction reached: the peers of
    /// `zones` are the §2 tree's nodes.
    pub zones: Zones,
    /// The group's members — at least its stranded ones: a graft path
    /// node holds no zone, so it is a member exactly when it is stranded.
    pub members: PeerBits,
    /// Every live member the construction did not reach, ascending — or,
    /// when it replayed a record, every peer whose stranding may differ
    /// from the record's, ascending: the record's other stranded members
    /// are stranded still.
    pub stranded: Vec<usize>,
}

impl Section2<'_> {
    /// The §2 tree and zones of a construction from scratch as a build,
    /// with no graft.
    ///
    /// # Panics
    ///
    /// Panics if the construction replayed a record: its edit applies to
    /// a tree whose grafts are the graft pass's to keep or drop.
    pub(crate) fn into_build(self) -> BuildResult {
        assert!(self.base.is_none(), "a replayed construction is an edit");
        let tree = MulticastTree::from_links(self.root, self.len, self.edit.links);
        BuildResult {
            messages: tree.reached_count() - 1,
            tree,
            stranded: self.stranded,
            zones: self.zones,
            relays: Vec::new(),
        }
    }
}

/// Builds one group's §2 tree (see
/// [`crate::groups::build_group_tree_on_store`]), re-partitioning only
/// what differs from `recorded` when given one of the same root (see
/// the module docs). Same result either way.
pub(crate) fn member_tree<'a>(
    store: &TopologyStore,
    root: usize,
    members: &BTreeSet<usize>,
    partitioner: &OrthantRectPartitioner,
    recorded: Option<Recorded<'a>>,
) -> MemberTree<'a> {
    assert!(root < store.len(), "root out of range");
    assert!(members.contains(&root), "root must be a member");
    assert!(!store.is_departed(PeerId(root as u64)), "root has departed");
    assert!(
        members.last().is_none_or(|&m| m < store.len()),
        "member out of range"
    );
    // The only state of a group build that scales with the overlay
    // rather than the group (2.5 kB at 20 000 peers). Departed peers
    // have no adjacency rows, so filtering neighbours by membership
    // alone already restricts the walk to live members.
    let member_bits = PeerBits::from_peers(store.len(), members);
    let member = |j| member_bits.contains(j);
    let peers = store.peers();

    // A record of another root says nothing about this build. In one of
    // this root, a recorded member whose row differs is a suspect — the
    // whole row as recorded, though a partition reads only the part
    // inside the zone: a difference outside it costs one partition that
    // changes nothing. One that is no longer a member is none: it is
    // reached by nobody, and the row of its recorded parent lost it.
    let (mut replay, recorded_rows, touched) = match recorded.filter(|r| r.tree.root() == root) {
        Some(Recorded {
            tree,
            zones,
            rows,
            touched,
        }) => {
            let suspects: Vec<usize> = (touched.iter().copied())
                .filter(|&p| member(p) && !rows.stands(store, p, member))
                .collect();
            (Some(Replay::new(tree, zones, &suspects)), rows, touched)
        }
        None => (None, MemberRows::default(), &[][..]),
    };
    let base = replay.as_ref().map(|r| r.tree);

    // A zone index below `known` is a recorded zone, any other a fresh one.
    let known = replay.as_ref().map_or(0, |r| r.zones.len());
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut fresh: Vec<(usize, Rect)> = Vec::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    match &replay {
        Some(r) => queue.push_back((root, r.zone_of[r.slot(root)] as usize)),
        None => {
            fresh.push((root, Rect::full(peers[root].point().dim())));
            queue.push_back((root, 0));
        }
    }
    let mut read = MemberRows::default();
    let mut in_zone: Vec<&PeerInfo> = Vec::new();
    while let Some((p, at)) = queue.pop_front() {
        let slot = replay.as_ref().and_then(|r| r.tree.slot(p));
        if let (Some(r), Some(slot)) = (&replay, slot) {
            if at < known && r.flags[at] & SUSPECT == 0 {
                let children = recorded_children(r.tree, &r.zone_of, slot);
                let marked = children.filter(|c| r.flags[c.at] & MARKED != 0);
                queue.extend(marked.map(|c| (c.peer, c.at)));
                continue;
            }
        }
        let row = store.neighbors(p).filter(|&j| member(j));
        let row = read.push(p as u32, row.map(|j| j as u32));
        let zone = match &replay {
            Some(r) if at < known => &r.zones[at].1,
            _ => &fresh[at - known].1,
        };
        in_zone.clear();
        in_zone.extend(
            row.iter()
                .map(|&q| &peers[q as usize])
                .filter(|q| zone.contains_id(q.point(), q.id().index())),
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

    let (zones, edit) = match replay {
        Some(r) => r.finish(links, fresh),
        None => (
            Zones::from_unsorted(fresh),
            TreeEdit {
                dropped: Vec::new(),
                links,
            },
        ),
    };
    let splits_recomputed = read.spans.len() as u64;
    let rows = MemberRows::of(zones.peers(), read, &recorded_rows);

    // Unreached live *members* are the meaningful strandings of a
    // group build; everyone else is simply not part of the session.
    let stranded = if base.is_some() {
        // A member's stranding changes only with its membership (a
        // touched peer) or with its place on the §2 tree (a node the
        // edit drops or links).
        let mut candidates: Vec<usize> = (edit.links.iter())
            .map(|&(child, _)| child)
            .chain(edit.dropped.iter().copied())
            .chain(touched.iter().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    } else {
        // Members and reached peers both ascend: one merge walk.
        let mut reached = zones.peers().peekable();
        (members.iter().copied())
            .filter(|&m| {
                while reached.next_if(|&r| r < m).is_some() {}
                reached.peek() != Some(&m) && !store.is_departed(PeerId(m as u64))
            })
            .collect()
    };
    MemberTree {
        splits_replayed: zones.len() as u64 - splits_recomputed,
        splits_recomputed,
        section2: Section2 {
            root,
            len: store.len(),
            base,
            edit,
            zones,
            members: member_bits,
            stranded,
        },
        rows,
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

/// A [`Recorded`] build while [`member_tree`] replays it.
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
    /// The record of `tree` and its `zones`, with `suspects` — the
    /// reached members whose row no longer reads as recorded — and their
    /// recorded ancestors marked.
    fn new(tree: &'a MulticastTree, zones: Zones, suspects: &[usize]) -> Self {
        let Zones { entries: zones } = zones;
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

    /// The new zones — the recorded entries that stand, merged with the
    /// fresh ones — and the edit that turns the recorded tree into the
    /// new one: the recorded entries that no longer stand dropped (the
    /// grafts stay), the fresh links added.
    fn finish(
        mut self,
        links: Vec<(usize, usize)>,
        mut fresh: Vec<(usize, Rect)>,
    ) -> (Zones, TreeEdit) {
        self.drop_unreached_orphans();
        let Replay { zones, flags, .. } = self;
        let dropped = (zones.iter().zip(&flags))
            .filter(|&(_, &f)| f & DROPPED != 0)
            .map(|(&(peer, _), _)| peer)
            .collect();
        fresh.sort_unstable_by_key(|&(i, _)| i);
        let mut fresh = fresh.into_iter().peekable();
        let mut entries = Vec::with_capacity(zones.len() + fresh.len());
        for ((peer, zone), flags) in zones.into_iter().zip(&flags) {
            if flags & DROPPED != 0 {
                continue;
            }
            entries.extend(std::iter::from_fn(|| fresh.next_if(|f| f.0 < peer)));
            entries.push((peer, zone));
        }
        entries.extend(fresh);
        (Zones { entries }, TreeEdit { dropped, links })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use geocast_geom::gen::uniform_points;
    use geocast_overlay::select::EmptyRectSelection;

    use super::*;
    use crate::groups::build_group_tree_on_store;

    fn setup(n: usize, dim: usize, seed: u64) -> TopologyStore {
        let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
    }

    /// The §2 construction with every peer of `store` a member.
    fn build(
        store: &TopologyStore,
        root: usize,
        partitioner: &OrthantRectPartitioner,
    ) -> BuildResult {
        let everyone: BTreeSet<usize> = (0..store.len()).collect();
        build_group_tree_on_store(store, root, &everyone, partitioner)
    }

    #[test]
    fn spanning_build_sends_exactly_n_minus_one_messages() {
        for (n, dim, seed) in [(50usize, 2usize, 1u64), (80, 3, 2), (30, 4, 3)] {
            let store = setup(n, dim, seed);
            let result = build(&store, 0, &OrthantRectPartitioner::median());
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
        let store = setup(40, 2, 7);
        for root in 0..store.len() {
            let result = build(&store, root, &OrthantRectPartitioner::median());
            assert!(result.tree.is_spanning(), "root {root}");
            assert_eq!(result.tree.root(), root);
            assert_eq!(result.messages, store.len() - 1);
        }
    }

    #[test]
    fn children_respect_the_orthant_bound() {
        for dim in 2..=4usize {
            let store = setup(60, dim, dim as u64);
            let result = build(&store, 0, &OrthantRectPartitioner::median());
            assert!(
                result.tree.max_children() <= 1 << dim,
                "tree degree exceeded 2^D for D={dim}"
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let store = setup(50, 2, 9);
        let a = build(&store, 3, &OrthantRectPartitioner::median());
        let b = build(&store, 3, &OrthantRectPartitioner::median());
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_rules_also_span_at_equilibrium() {
        let store = setup(60, 2, 11);
        for partitioner in [
            OrthantRectPartitioner::closest(),
            OrthantRectPartitioner::farthest(),
        ] {
            let result = build(&store, 0, &partitioner);
            assert!(result.tree.is_spanning(), "{}", partitioner.name());
            assert_eq!(result.messages, store.len() - 1);
        }
    }

    #[test]
    fn singleton_network_builds_trivial_tree() {
        let store = setup(1, 2, 13);
        let result = build(&store, 0, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning());
        assert_eq!(result.messages, 0);
    }

    #[test]
    fn two_peers_one_message() {
        let store = setup(2, 3, 17);
        let result = build(&store, 1, &OrthantRectPartitioner::median());
        assert!(result.tree.is_spanning());
        assert_eq!(result.messages, 1);
        assert_eq!(result.tree.parent(0), Some(1));
    }

    #[test]
    fn a_sparse_member_subgraph_strands_the_unreachable_members() {
        // Root 0, one overlay neighbour of it, and members adjacent to
        // neither nor to each other: their induced subgraph is one edge,
        // and the construction must report the rest stranded rather than
        // invent links.
        let store = setup(60, 2, 19);
        let row = |i: usize| store.neighbors(i).collect::<Vec<_>>();
        let near = row(0)[0];
        let mut members: BTreeSet<usize> = [0, near].into();
        let mut far = Vec::new();
        for p in 1..store.len() {
            if far.len() < 3 && members.iter().chain(&far).all(|&m| !row(m).contains(&p)) {
                far.push(p);
            }
        }
        assert_eq!(far.len(), 3, "three peers apart from each other");
        members.extend(&far);
        let result =
            build_group_tree_on_store(&store, 0, &members, &OrthantRectPartitioner::median());
        assert_eq!(result.tree.reached(), &[0, near][..]);
        assert_eq!(result.stranded, far);
        assert_eq!(result.messages, 1);
    }

    /// Equal rows are equal values in whatever order the construction
    /// read them: breadth-first from scratch, or a few of them next to
    /// a record that supplies the rest.
    #[test]
    fn member_rows_compare_by_content_not_by_reading_order() {
        let rows: [(u32, &[u32]); 4] = [(2, &[5, 9]), (5, &[2]), (7, &[]), (9, &[2, 7])];
        let read_in = |order: &[usize]| {
            let mut read = MemberRows::default();
            for &k in order {
                read.push(rows[k].0, rows[k].1.iter().copied());
            }
            read
        };
        let reached = || [2usize, 5, 7, 9].into_iter();
        let nothing = MemberRows::default();
        let ascending = MemberRows::of(reached(), read_in(&[0, 1, 2, 3]), &nothing);
        let breadth_first = MemberRows::of(reached(), read_in(&[2, 0, 3, 1]), &nothing);
        assert_eq!(ascending, breadth_first);
        assert_eq!(breadth_first.row(9), Some(&[2u32, 7][..]));
        assert_eq!(breadth_first.row(7), Some(&[][..]));
        assert_eq!(breadth_first.row(3), None);
        // Two rows read anew, two taken from a record that also holds
        // a row of a member no longer reached.
        let mut recorded = read_in(&[1, 2]);
        recorded.push(8, [5u32].into_iter());
        let patched = MemberRows::of(reached(), read_in(&[3, 0]), &recorded);
        assert_eq!(patched, ascending);
    }

    /// A replayed construction returns the from-scratch tree, zones and
    /// rows, and says how little of it was partitioned.
    #[test]
    fn a_replayed_member_tree_equals_the_from_scratch_one() {
        let peers = PeerInfo::from_point_set(&uniform_points(120, 2, 1000.0, 5));
        let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let partitioner = OrthantRectPartitioner::median();
        let mut members: BTreeSet<usize> = (0..120).filter(|i| i % 4 != 3).collect();
        let old = member_tree(&store, 0, &members, &partitioner, None);
        let old_build = old.section2.into_build();
        assert_eq!(old.splits_replayed, 0);
        assert_eq!(old.splits_recomputed, old_build.tree.reached_count() as u64);

        let leaver = *old_build.tree.reached().last().expect("a reached member");
        members.remove(&leaver);
        let mut touched = vec![leaver];
        touched.extend(store.neighbors(leaver));
        touched.sort_unstable();
        let recorded = Recorded {
            tree: &old_build.tree,
            zones: old_build.zones.clone(),
            rows: old.rows.clone(),
            touched: &touched,
        };
        let replayed = member_tree(&store, 0, &members, &partitioner, Some(recorded));
        let scratch = member_tree(&store, 0, &members, &partitioner, None);
        assert_eq!(replayed.rows, scratch.rows);
        assert!(
            (1..=touched.len() as u64).contains(&replayed.splits_recomputed),
            "{} of 90 members partitioned for {} touched peers",
            replayed.splits_recomputed,
            touched.len()
        );
        assert_eq!(
            replayed.splits_replayed + replayed.splits_recomputed,
            scratch.splits_recomputed
        );
        // The record's tree has no grafts, so the edit alone makes the
        // replayed tree.
        let section2 = replayed.section2;
        let base = section2.base.expect("the record was replayed");
        let tree = base.edited(section2.len, section2.edit).0;
        let scratch = scratch.section2.into_build();
        assert_eq!(tree, scratch.tree);
        assert_eq!(section2.zones, scratch.zones);
    }
}
