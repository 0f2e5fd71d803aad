//! The §2 construction of one group: the space-partitioning work-queue
//! over the **member-induced subgraph** of a [`TopologyStore`], from
//! scratch or replaying what the group's previous build recorded.
//!
//! A delegation is one step of the build under the engine's one replay
//! rule ([`crate::graft`] states it): it reads its zone and its member's
//! member-induced row (the member's overlay neighbours that are fellow
//! members), and re-runs only when one of those reads changed.
//! [`member_tree`] handed a [`Recorded`] build compares the rows of the
//! `touched` members with the recorded ones — a row that reads
//! differently counts as changed, whatever part of it the partition
//! reads — and the work-queue (`crate::builder`, where the induction is
//! written out) re-partitions only below the delegations that changed,
//! cutting off at every child whose link and zone come out as recorded;
//! everything else — links, zones, rows — moves over from the record.
//! The result is the from-scratch one either way.

use std::collections::BTreeSet;

use geocast_overlay::{PeerId, TopologyStore};

use crate::bits::PeerBits;
use crate::builder::{build_in_zone_generic, BuildResult, ZoneRecord, Zones};
use crate::partition::OrthantRectPartitioner;
use crate::tree::{MulticastTree, TreeEdit};

/// The member-induced adjacency rows one §2 group construction read:
/// for every member the tree reached, its overlay neighbours that are
/// fellow members, in row order. The construction is a function of
/// exactly these rows (plus coordinates and the partitioner), so a
/// later state of the overlay in which they all read the same yields
/// the same §2 tree.
///
/// Rows lie in `flat` back to back in ascending member order, whatever
/// order the construction read them in: equal contents are equal values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct MemberRows {
    /// `(member, start, end)` of each row in `flat`, ascending by member.
    spans: Vec<(u32, u32, u32)>,
    flat: Vec<u32>,
}

impl MemberRows {
    fn push(&mut self, member: u32, row: impl Iterator<Item = u32>) {
        let start = self.flat.len() as u32;
        self.flat.extend(row);
        self.spans.push((member, start, self.flat.len() as u32));
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
}

impl MemberRows {
    /// Re-runs the read of `p`'s §2 delegation: `false` when `p`'s row
    /// was recorded and its member-induced row — its store row filtered
    /// by `member` — reads differently now.
    pub(crate) fn stands(
        &self,
        store: &TopologyStore,
        p: usize,
        member: impl Fn(usize) -> bool,
        buf: &mut Vec<usize>,
    ) -> bool {
        self.row(p).is_none_or(|then| {
            store.undirected_neighbors_into(p, buf);
            buf.retain(|&j| member(j));
            buf.iter().map(|&j| j as u32).eq(then.iter().copied())
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
/// what differs from `recorded` when given one. Same result either way.
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
    assert!(
        u32::try_from(store.len()).is_ok(),
        "member rows store peer ids as u32"
    );
    // The only state of a group build that scales with the overlay
    // rather than the group (2.5 kB at 20 000 peers). Departed peers
    // have no adjacency rows, so filtering neighbours by membership
    // alone already restricts the walk to live members.
    let member_bits = PeerBits::from_peers(store.len(), members);
    let member_row_into = |i: usize, buf: &mut Vec<usize>| {
        store.undirected_neighbors_into(i, buf);
        buf.retain(|&j| member_bits.contains(j));
    };

    // A recorded member whose row differs is a suspect — the whole row
    // as recorded, though a partition reads only the part inside the
    // zone: a difference outside it costs one partition that changes
    // nothing. One that is no longer a member is none: it is reached by
    // nobody, and the row of its recorded parent lost it.
    let mut row = Vec::new();
    let suspects: Vec<usize> = recorded.as_ref().map_or(Vec::new(), |recorded| {
        let member = |j| member_bits.contains(j);
        (recorded.touched.iter().copied())
            .filter(|&p| member(p) && !recorded.rows.stands(store, p, member, &mut row))
            .collect()
    });
    let base = recorded.as_ref().map(|r| r.tree);
    let touched = recorded.as_ref().map_or(&[][..], |r| r.touched);
    let (record, recorded_rows) = match recorded {
        Some(Recorded {
            tree, zones, rows, ..
        }) => {
            let suspects = &suspects;
            (
                Some(ZoneRecord {
                    tree,
                    zones,
                    suspects,
                }),
                rows,
            )
        }
        None => (None, MemberRows::default()),
    };

    let mut read = MemberRows::default();
    let run = build_in_zone_generic(
        store.peers(),
        |i, buf| {
            member_row_into(i, buf);
            read.push(i as u32, buf.iter().map(|&j| j as u32));
        },
        root,
        partitioner,
        record,
    );
    let splits_recomputed = read.spans.len() as u64;
    let rows = MemberRows::of(run.zones.peers(), read, &recorded_rows);

    // Unreached live *members* are the meaningful strandings of a
    // group build; everyone else is simply not part of the session.
    let stranded = if run.replayed {
        // A member's stranding changes only with its membership (a
        // touched peer) or with its place on the §2 tree (a node the
        // edit drops or links).
        let mut candidates: Vec<usize> = (run.edit.links.iter())
            .map(|&(child, _)| child)
            .chain(run.edit.dropped.iter().copied())
            .chain(touched.iter().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    } else {
        // Members and reached peers both ascend: one merge walk.
        let mut reached = run.zones.peers().peekable();
        (members.iter().copied())
            .filter(|&m| {
                while reached.next_if(|&r| r < m).is_some() {}
                reached.peek() != Some(&m) && !store.is_departed(PeerId(m as u64))
            })
            .collect()
    };
    MemberTree {
        splits_replayed: run.zones.len() as u64 - splits_recomputed,
        splits_recomputed,
        section2: Section2 {
            root,
            len: store.len(),
            base: base.filter(|_| run.replayed),
            edit: run.edit,
            zones: run.zones,
            members: member_bits,
            stranded,
        },
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::select::EmptyRectSelection;
    use geocast_overlay::PeerInfo;
    use std::sync::Arc;

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
        let mut row = Vec::new();
        store.undirected_neighbors_into(leaver, &mut row);
        touched.extend(&row);
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
