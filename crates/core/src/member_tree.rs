//! The §2 construction of one group: the space-partitioning work-queue
//! over the **member-induced subgraph** of a [`TopologyStore`], from
//! scratch or replaying what the group's previous build recorded.
//!
//! A member's delegation is a function of its zone, its coordinates and
//! its member-induced row (its overlay neighbours that are fellow
//! members) — so between two builds of one group it can only differ
//! where a row differs or a zone above it moved. [`member_tree`] handed a
//! [`Recorded`] build compares the rows of the `touched` members with
//! the recorded ones, and the work-queue (`crate::builder`, where the
//! induction is written out) re-partitions only below the delegations
//! that changed; everything else — links, zones, rows — moves over from
//! the record. The result is the from-scratch one either way.

use std::collections::BTreeSet;

use geocast_geom::Rect;
use geocast_overlay::{PeerId, TopologyStore};

use crate::bits::PeerBits;
use crate::builder::{build_in_zone_generic, BuildResult, ZoneRecord, Zones};
use crate::partition::ZonePartitioner;
use crate::tree::MulticastTree;

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
    fn of(reached: &[usize], mut read: MemberRows, recorded: &MemberRows) -> MemberRows {
        read.spans.sort_unstable();
        let mut rows = MemberRows {
            spans: Vec::with_capacity(reached.len()),
            flat: Vec::with_capacity(read.flat.len().max(recorded.flat.len())),
        };
        let (mut read_spans, mut kept_spans) =
            (read.spans.iter().peekable(), recorded.spans.iter());
        for &m in reached {
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

/// `true` if a member-induced row recorded as `then` reads `now`.
pub(crate) fn same_row(then: &[u32], now: &[usize]) -> bool {
    now.iter().map(|&j| j as u32).eq(then.iter().copied())
}

/// What a group's previous build recorded of its §2 construction, and
/// where the inputs of that construction may have changed since.
pub(crate) struct Recorded<'a> {
    /// The previous (grafted) tree.
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
pub(crate) struct MemberTree {
    /// The tree over the reached members; `stranded` lists the live
    /// members it did not reach.
    pub build: BuildResult,
    pub rows: MemberRows,
    /// Reached members whose delegation was taken from the record.
    pub splits_replayed: u64,
    /// Reached members whose zone was partitioned.
    pub splits_recomputed: u64,
}

/// Builds one group's §2 tree (see
/// [`crate::groups::build_group_tree_on_store`]), re-partitioning only
/// what differs from `recorded` when given one. Same result either way.
pub(crate) fn member_tree(
    store: &TopologyStore,
    root: usize,
    members: &BTreeSet<usize>,
    partitioner: &dyn ZonePartitioner,
    recorded: Option<Recorded>,
) -> MemberTree {
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
    let mut suspects: Vec<usize> = Vec::new();
    if let Some(recorded) = &recorded {
        let mut row = Vec::new();
        for &p in recorded.touched {
            if let Some(then) = recorded.rows.row(p).filter(|_| member_bits.contains(p)) {
                member_row_into(p, &mut row);
                if !same_row(then, &row) {
                    suspects.push(p);
                }
            }
        }
    }
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
    let dim = store.peers()[root].point().dim();
    let mut build = build_in_zone_generic(
        store.peers(),
        |i, buf| {
            member_row_into(i, buf);
            read.push(i as u32, buf.iter().map(|&j| j as u32));
        },
        root,
        Rect::full(dim),
        partitioner,
        record,
    );
    let splits_recomputed = read.spans.len() as u64;
    let rows = MemberRows::of(build.tree.reached(), read, &recorded_rows);

    // Unreached live *members* are the meaningful strandings of a
    // group build; everyone else is simply not part of the session.
    // Members and reached peers both ascend: one merge walk.
    let mut reached = build.tree.reached().iter().copied().peekable();
    build.stranded = members
        .iter()
        .copied()
        .filter(|&m| {
            while reached.next_if(|&r| r < m).is_some() {}
            reached.peek() != Some(&m) && !store.is_departed(PeerId(m as u64))
        })
        .collect();
    MemberTree {
        splits_replayed: build.tree.reached_count() as u64 - splits_recomputed,
        splits_recomputed,
        build,
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
        let reached = [2usize, 5, 7, 9];
        let nothing = MemberRows::default();
        let ascending = MemberRows::of(&reached, read_in(&[0, 1, 2, 3]), &nothing);
        let breadth_first = MemberRows::of(&reached, read_in(&[2, 0, 3, 1]), &nothing);
        assert_eq!(ascending, breadth_first);
        assert_eq!(breadth_first.row(9), Some(&[2u32, 7][..]));
        assert_eq!(breadth_first.row(7), Some(&[][..]));
        assert_eq!(breadth_first.row(3), None);
        // Two rows read anew, two taken from a record that also holds
        // a row of a member no longer reached.
        let mut recorded = read_in(&[1, 2]);
        recorded.push(8, [5u32].into_iter());
        let patched = MemberRows::of(&reached, read_in(&[3, 0]), &recorded);
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
        assert_eq!(old.splits_replayed, 0);
        assert_eq!(old.splits_recomputed, old.build.tree.reached_count() as u64);

        let leaver = *old.build.tree.reached().last().expect("a reached member");
        members.remove(&leaver);
        let mut touched = vec![leaver];
        let mut row = Vec::new();
        store.undirected_neighbors_into(leaver, &mut row);
        touched.extend(&row);
        touched.sort_unstable();
        let recorded = Recorded {
            tree: &old.build.tree,
            zones: old.build.zones.clone(),
            rows: old.rows.clone(),
            touched: &touched,
        };
        let replayed = member_tree(&store, 0, &members, &partitioner, Some(recorded));
        let scratch = member_tree(&store, 0, &members, &partitioner, None);
        assert_eq!(replayed.build, scratch.build);
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
    }
}
