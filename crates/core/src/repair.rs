//! Zone repair: re-attaching orphaned subtrees after a peer departs.
//!
//! When a peer `d` of a §2 multicast tree departs, the peers inside its
//! responsibility zone `Z(d)` lose their path to the root. The repair
//! follows directly from the construction: `d`'s **parent** `P` re-runs
//! the §2 delegation seeded with `(P, Z(d))` over the re-converged
//! overlay, re-adopting exactly the live peers of `Z(d)` with one
//! message each.
//!
//! Two facts make this sound (both property-tested):
//!
//! 1. **Coverage transfers to the parent.** `Z(d) = Z(P) ∩ HR` lies
//!    entirely inside one orthant of `P`, and for any peer `X ∈ Z(d)`
//!    the rectangle spanned by `P` and `X` stays inside `Z(d) ∪ {P}`'s
//!    bounding constraints — so the per-orthant frontier argument that
//!    proves the original construction complete applies verbatim to the
//!    seeded reconstruction from `P`.
//! 2. **Empty-rectangle overlays are monotone under departure.** If the
//!    rectangle spanned by `X` and `Y` contained no third peer, removing
//!    a peer cannot populate it: every surviving tree edge is still an
//!    overlay edge of the re-converged equilibrium, so only `Z(d)` needs
//!    repair.
//!
//! Repair cost is therefore `|Z(d) ∩ live|` messages — proportional to
//! the orphaned subtree, not to `N`.

use std::error::Error;
use std::fmt;

use geocast_geom::Rect;
use geocast_overlay::{OverlayGraph, PeerInfo};

use crate::builder::{build_in_zone, BuildResult, Zones};
use crate::partition::ZonePartitioner;
use crate::tree::MulticastTree;

/// Why a repair could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The departed peer is the session root: there is no parent to
    /// inherit its zone, so the session must be rebuilt from a new root.
    RootDeparted {
        /// The departed root.
        root: usize,
    },
    /// The departed peer was never part of the tree.
    NotInTree {
        /// The offending index.
        peer: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::RootDeparted { root } => {
                write!(
                    f,
                    "peer {root} is the session root; rebuild the session instead"
                )
            }
            RepairError::NotInTree { peer } => {
                write!(f, "peer {peer} is not part of the tree")
            }
        }
    }
}

impl Error for RepairError {}

/// Outcome of a successful zone repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairResult {
    /// The repaired tree: unchanged outside `Z(departed)`, rebuilt
    /// inside. The departed peer is marked unreached.
    pub tree: MulticastTree,
    /// Updated responsibility zones (the re-adopted peers received new,
    /// narrower zones).
    pub zones: Zones,
    /// Construction-request messages sent by the repair — exactly the
    /// number of re-adopted peers.
    pub repair_messages: usize,
    /// The peers that were re-adopted (live members of the orphaned
    /// zone), sorted.
    pub readopted: Vec<usize>,
}

/// Repairs a §2 tree after the departure of `departed`.
///
/// `overlay` must be the **re-converged** topology of the surviving
/// peers (the departed peer contributing no edges — exactly what
/// [`geocast_overlay::OverlayNetwork::topology`] reports after the
/// departure, or a [`geocast_overlay::TopologyStore`] after removing
/// it). `build` is
/// the construction result holding the tree and zones to repair; it is
/// not modified.
///
/// On success the repaired tree spans every live peer previously
/// spanned.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use geocast_core::repair::repair_after_departure;
/// use geocast_core::{build_tree, OrthantRectPartitioner};
/// use geocast_geom::gen::uniform_points;
/// use geocast_overlay::{select::EmptyRectSelection, PeerId, PeerInfo, TopologyStore};
///
/// let peers = PeerInfo::from_point_set(&uniform_points(40, 2, 1000.0, 5));
/// let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
/// let median = OrthantRectPartitioner::median();
/// let build = build_tree(store.peers(), &store.graph(), 0, &median);
/// let victim = (1..40).find(|&i| !build.tree.children(i).is_empty()).unwrap();
///
/// // The survivors' equilibrium over the original ids.
/// store.remove(PeerId(victim as u64));
/// let repaired =
///     repair_after_departure(store.peers(), &store.graph(), &build, victim, &median).unwrap();
/// assert!((0..40).filter(|&i| i != victim).all(|i| repaired.tree.is_reached(i)));
/// ```
///
/// # Errors
///
/// [`RepairError::RootDeparted`] if `departed` is the session root,
/// [`RepairError::NotInTree`] if it was never reached.
///
/// # Panics
///
/// Panics if sizes disagree or `departed` is out of range.
pub fn repair_after_departure(
    peers: &[PeerInfo],
    overlay: &OverlayGraph,
    build: &BuildResult,
    departed: usize,
    partitioner: &dyn ZonePartitioner,
) -> Result<RepairResult, RepairError> {
    assert_eq!(peers.len(), overlay.len(), "peer/overlay size mismatch");
    assert_eq!(peers.len(), build.tree.len(), "peer/tree size mismatch");
    assert!(departed < peers.len(), "departed peer out of range");

    let (parent, orphan_zone) = orphan_seed(build, departed)?;

    // Rebuild the orphaned zone from the parent over the live overlay.
    let sub = build_in_zone(peers, overlay, parent, orphan_zone, partitioner);
    Ok(merge_repair(peers.len(), build, &sub, departed, parent))
}

/// The precondition of a repair: the departed peer must be a reached
/// non-root; hands back its tree parent and the orphaned responsibility
/// zone to reseed.
fn orphan_seed(build: &BuildResult, departed: usize) -> Result<(usize, Rect), RepairError> {
    if !build.tree.is_reached(departed) {
        return Err(RepairError::NotInTree { peer: departed });
    }
    let Some(parent) = build.tree.parent(departed) else {
        return Err(RepairError::RootDeparted { root: departed });
    };
    let orphan_zone = build
        .zones
        .get(departed)
        .cloned()
        .expect("reached peers have zones");
    Ok((parent, orphan_zone))
}

/// Merges a reseeded zone reconstruction into the pre-departure tree:
/// the old tree survives outside the zone, the new subtree is adopted
/// inside it, and the departed peer leaves the tree.
fn merge_repair(
    n: usize,
    build: &BuildResult,
    sub: &BuildResult,
    departed: usize,
    parent: usize,
) -> RepairResult {
    let mut parent_vec: Vec<Option<usize>> = (0..n).map(|i| build.tree.parent(i)).collect();
    let mut reached: Vec<bool> = (0..n).map(|i| build.tree.is_reached(i)).collect();
    let mut zones = build.zones.clone();
    let mut readopted = Vec::new();

    reached[departed] = false;
    parent_vec[departed] = None;
    zones.remove(departed);

    for &i in sub.tree.reached() {
        if i != parent {
            parent_vec[i] = sub.tree.parent(i);
            let zone = sub.zones.get(i).expect("reached peers have zones");
            zones.insert(i, zone.clone());
            reached[i] = true;
            readopted.push(i);
        }
    }

    let tree = MulticastTree::from_parents(build.tree.root(), parent_vec, reached);
    RepairResult {
        tree,
        zones,
        repair_messages: sub.messages,
        readopted,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::builder::build_tree;
    use crate::partition::OrthantRectPartitioner;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::select::EmptyRectSelection;
    use geocast_overlay::{PeerId, TopologyStore};

    fn setup(n: usize, dim: usize, seed: u64) -> TopologyStore {
        let peers = PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed));
        TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection))
    }

    /// The §2 tree over `store`'s overlay, rooted at `root`.
    fn build_over(store: &TopologyStore, root: usize) -> BuildResult {
        build_tree(
            store.peers(),
            &store.graph(),
            root,
            &OrthantRectPartitioner::median(),
        )
    }

    /// Removes `departed` from `store` and repairs `build` over the
    /// survivors' equilibrium (departed vertex edge-less).
    fn depart_and_repair(
        store: &mut TopologyStore,
        build: &BuildResult,
        departed: usize,
    ) -> Result<RepairResult, RepairError> {
        store.remove(PeerId(departed as u64));
        repair_after_departure(
            store.peers(),
            &store.graph(),
            build,
            departed,
            &OrthantRectPartitioner::median(),
        )
    }

    #[test]
    fn repair_readopts_exactly_the_orphaned_zone() {
        let mut store = setup(80, 2, 3);
        let build = build_over(&store, 0);
        // Departed: some internal node.
        let departed = (1..store.len())
            .find(|&i| !build.tree.children(i).is_empty())
            .expect("internal node exists");
        let zone = build.zones.get(departed).cloned().unwrap();
        let repaired = depart_and_repair(&mut store, &build, departed).expect("repair succeeds");
        let peers = store.peers();

        // Every live peer is spanned; the departed one is not.
        assert!(!repaired.tree.is_reached(departed));
        for i in 0..peers.len() {
            if i != departed {
                assert!(repaired.tree.is_reached(i), "live peer {i} lost");
            }
        }
        assert_eq!(repaired.tree.validate(), Ok(()));
        // Re-adopted peers = live peers inside the orphaned zone.
        let expected: Vec<usize> = (0..peers.len())
            .filter(|&i| i != departed && zone.contains(peers[i].point()))
            .collect();
        assert_eq!(repaired.readopted, expected);
        assert_eq!(repaired.repair_messages, expected.len());
    }

    #[test]
    fn repair_of_leaf_costs_nothing() {
        let mut store = setup(50, 3, 5);
        let build = build_over(&store, 0);
        let peers = store.peers();
        let leaf = (1..peers.len())
            .find(|&i| {
                build.tree.children(i).is_empty()
                    && build.zones.get(i).is_some_and(|z| {
                        // A leaf whose zone holds nobody else.
                        (0..peers.len())
                            .filter(|&j| j != i)
                            .all(|j| !z.contains(peers[j].point()))
                    })
            })
            .expect("an exclusive leaf exists");
        let repaired = depart_and_repair(&mut store, &build, leaf).unwrap();
        assert_eq!(repaired.repair_messages, 0);
        assert!(repaired.readopted.is_empty());
        assert!(!repaired.tree.is_reached(leaf));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index is a peer id across several tables
    fn repair_preserves_untouched_branches() {
        let mut store = setup(70, 2, 9);
        let build = build_over(&store, 0);
        let departed = (1..store.len())
            .find(|&i| !build.tree.children(i).is_empty())
            .unwrap();
        let zone = build.zones.get(departed).cloned().unwrap();
        let repaired = depart_and_repair(&mut store, &build, departed).unwrap();
        let peers = store.peers();
        for i in 0..peers.len() {
            if i != departed && !zone.contains(peers[i].point()) {
                assert_eq!(
                    repaired.tree.parent(i),
                    build.tree.parent(i),
                    "peer {i} outside the zone must keep its parent"
                );
            }
        }
    }

    #[test]
    fn surviving_tree_edges_remain_overlay_edges_after_reconvergence() {
        // The monotonicity fact: removing a peer never invalidates an
        // empty-rectangle link between survivors.
        let mut store = setup(60, 2, 11);
        let build = build_over(&store, 0);
        let departed = 17usize;
        store.remove(PeerId(departed as u64));
        let adj = store.graph().undirected_closure();
        for i in 0..store.len() {
            if i == departed {
                continue;
            }
            if let Some(p) = build.tree.parent(i) {
                if p != departed {
                    assert!(
                        adj.out_neighbors(i).contains(&p),
                        "edge {i}-{p} vanished from the survivor equilibrium"
                    );
                }
            }
        }
    }

    #[test]
    fn root_departure_is_rejected() {
        let store = setup(20, 2, 13);
        let build = build_over(&store, 4);
        let err = repair_after_departure(
            store.peers(),
            &store.graph(),
            &build,
            4,
            &OrthantRectPartitioner::median(),
        )
        .unwrap_err();
        assert_eq!(err, RepairError::RootDeparted { root: 4 });
    }

    #[test]
    fn repair_of_unreached_peer_is_rejected() {
        let peers = PeerInfo::from_point_set(&uniform_points(4, 2, 1000.0, 17));
        let overlay = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0], vec![], vec![]]);
        let build = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
        assert!(!build.tree.is_reached(2));
        let err = repair_after_departure(
            &peers,
            &overlay,
            &build,
            2,
            &OrthantRectPartitioner::median(),
        )
        .unwrap_err();
        assert_eq!(err, RepairError::NotInTree { peer: 2 });
    }

    #[test]
    fn sequential_departures_repair_cleanly() {
        // Peers leave one at a time; after each repair the tree spans the
        // survivors.
        let mut store = setup(50, 2, 19);
        let mut build = build_over(&store, 0);
        for victim in [7usize, 23, 41] {
            if build.tree.parent(victim).is_none() {
                continue; // skip the root
            }
            // The store's overlay over the cumulative survivors.
            let repaired = depart_and_repair(&mut store, &build, victim).expect("repair succeeds");
            for i in (0..store.len()).filter(|&i| !store.is_departed(PeerId(i as u64))) {
                assert!(repaired.tree.is_reached(i), "live {i} lost after {victim}");
            }
            build = BuildResult {
                tree: repaired.tree,
                zones: repaired.zones,
                messages: build.messages + repaired.repair_messages,
                stranded: Vec::new(),
                relays: Vec::new(),
            };
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(RepairError::RootDeparted { root: 3 }
            .to_string()
            .contains("root"));
        assert!(RepairError::NotInTree { peer: 5 }
            .to_string()
            .contains("not part"));
    }
}
