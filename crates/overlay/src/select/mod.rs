//! Neighbour-selection methods.
//!
//! A neighbour-selection method is the pure heart of the overlay: given a
//! peer `P` and the candidate set `I(P)` it has gossip knowledge of,
//! produce the overlay out-neighbours of `P`. The paper requires that, as
//! long as membership is stable, iterating a method converges to an
//! equilibrium — all methods here are deterministic functions of
//! `(P, I(P))`, so a fixpoint of the gossip loop is exactly a topology on
//! which re-selection changes nothing.
//!
//! Implemented methods:
//!
//! * [`HyperplanesSelection`] — the generic method of §1: `H` hyperplanes
//!   through `P` divide space into regions; keep the `K` closest
//!   candidates per region. Instances: [`HyperplanesSelection::orthogonal`]
//!   (the *Orthogonal Hyperplanes* method), [`HyperplanesSelection::signed`]
//!   (coefficients in `{-1, 0, +1}`), and [`HyperplanesSelection::k_closest`]
//!   (`H = 0`).
//! * [`EmptyRectSelection`] — the §2 simulation's rule: keep `Q` iff the
//!   axis-aligned rectangle spanned by `P` and `Q` contains no other
//!   candidate.

mod empty_rect;
mod hyperplanes;

pub use empty_rect::EmptyRectSelection;
pub use hyperplanes::HyperplanesSelection;

use geocast_geom::GridIndex;

use crate::peer::PeerInfo;

/// How a selection rule's structure lets [`crate::TopologyStore`]
/// localise churn: whether its links are mutual, so one adjacency table
/// serves both directions, or directed with a reverse table, and which
/// peers a join can make re-select.
///
/// The shape never affects *what* is selected — only how much of the
/// store a membership event reads. Rules that fit neither shape run
/// under [`ChurnShape::Generic`] (still exact, no shortcut).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnShape {
    /// The §2 empty-rectangle rule: links are mutual, so the store keeps
    /// no reverse table, and joins and leaves are edge edits on rows.
    EmptyRect,
    /// Per-orthant `K`-closest (the *Orthogonal Hyperplanes* method):
    /// directed links with a reverse table, and a join re-selects only
    /// the peers `topk_join_recheck` cannot rule out.
    OrthantTopK {
        /// Per-region selection budget.
        k: usize,
    },
    /// No exploitable shape: directed links, and a join re-selects
    /// every live peer.
    Generic,
}

/// Shared acceleration state for batch selection over a fixed peer
/// population ([`NeighborSelection::select_in`]).
///
/// Built once by the caller that owns the population — the store over
/// its one index, the definition in [`crate::oracle`] with no index —
/// and shared by every per-peer call; methods that cannot exploit it
/// simply ignore it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectContext<'a> {
    index: Option<&'a GridIndex>,
    departed: Option<&'a [bool]>,
    /// `peers[j].id().index() == j` for every `j`: index slot order is
    /// id order, so the index's tie-breaks are the rule's.
    ids_in_slice_order: bool,
}

impl<'a> SelectContext<'a> {
    /// A context with no acceleration: every `select_in` call takes its
    /// brute-force path.
    #[must_use]
    pub fn without_index() -> Self {
        SelectContext::default()
    }

    /// A context backed by a spatial index built over exactly the peer
    /// slice handed to `select_in`, in the same order.
    ///
    /// `ids_in_slice_order` states whether `peers[j].id().index() == j`
    /// for every `j` ([`ids_in_slice_order`]). Both rules that read the
    /// index break ties by peer id — the empty-rectangle rule a shared
    /// coordinate, the orthogonal Hyperplanes rule a distance — and the
    /// index by slot, so they answer from it only when it holds.
    #[must_use]
    pub fn with_index(index: &'a GridIndex, ids_in_slice_order: bool) -> Self {
        SelectContext {
            index: Some(index),
            departed: None,
            ids_in_slice_order,
        }
    }

    /// Marks slice positions as departed: masked candidates are skipped
    /// by every selection path ([`crate::TopologyStore`]'s churn
    /// bookkeeping). Index-backed paths expect the same peers to be
    /// tombstoned in the index; the brute path filters by the mask.
    ///
    /// # Panics
    ///
    /// `select_in` panics later if the mask is shorter than the peer
    /// slice.
    #[must_use]
    pub fn masked(mut self, departed: &'a [bool]) -> Self {
        self.departed = Some(departed);
        self
    }

    /// The spatial index over the peer slice, if one was built.
    #[must_use]
    pub fn index(&self) -> Option<&'a GridIndex> {
        self.index
    }

    /// The departed mask, if one was set.
    #[must_use]
    pub fn departed(&self) -> Option<&'a [bool]> {
        self.departed
    }
}

/// `true` iff every peer's id equals its slice position — the standard
/// experiment workload shape ([`PeerInfo::from_point_set`]), under which
/// id-based and position-based tie-breaking agree.
#[must_use]
pub fn ids_in_slice_order(peers: &[PeerInfo]) -> bool {
    peers.iter().enumerate().all(|(j, p)| p.id().index() == j)
}

/// The uniform brute-force batch path: materialize the candidate slice
/// (every live peer but `i`; with no mask, every peer is live), run
/// [`NeighborSelection::select`], and translate candidate indices back
/// to slice positions through the table of candidate positions.
pub(crate) fn select_in_brute<S: NeighborSelection + ?Sized>(
    selection: &S,
    peers: &[PeerInfo],
    i: usize,
    ctx: &SelectContext<'_>,
) -> Vec<usize> {
    let departed = ctx.departed();
    let positions: Vec<usize> = (0..peers.len())
        .filter(|&j| j != i && !departed.is_some_and(|gone| gone[j]))
        .collect();
    let candidates: Vec<&PeerInfo> = positions.iter().map(|&j| &peers[j]).collect();
    selection
        .select(&peers[i], &candidates)
        .into_iter()
        .map(|ci| positions[ci])
        .collect()
}

/// A neighbour-selection method: a deterministic map from
/// `(peer, candidate set)` to selected out-neighbours.
///
/// `candidates` must not contain the peer itself; the returned values are
/// indices into `candidates`, sorted ascending.
pub trait NeighborSelection {
    /// Selects overlay out-neighbours of `who` among `candidates`.
    fn select(&self, who: &PeerInfo, candidates: &[&PeerInfo]) -> Vec<usize>;

    /// Batch path: selects the out-neighbours of `peers[i]` among all
    /// other peers of the slice, returning slice positions sorted
    /// ascending.
    ///
    /// Semantically identical to running [`NeighborSelection::select`]
    /// on the candidate slice `peers \ {peers[i]}` (property tests
    /// assert equality); implementations override it to answer from
    /// `ctx`'s spatial index without materializing the `O(N)` candidate
    /// vector per peer.
    fn select_in(&self, peers: &[PeerInfo], i: usize, ctx: &SelectContext<'_>) -> Vec<usize> {
        select_in_brute(self, peers, i, ctx)
    }

    /// Human-readable method name for reports.
    fn name(&self) -> String;

    /// How the store may localise churn under this rule (see
    /// [`ChurnShape`]). The default claims no exploitable shape,
    /// which is always sound.
    fn churn_shape(&self) -> ChurnShape {
        ChurnShape::Generic
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use geocast_geom::gen::uniform_points;

    use crate::peer::PeerInfo;

    /// A reproducible peer population for selection tests.
    pub fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    /// Borrowed candidate list excluding peer `skip`.
    pub fn candidates_excluding(peers: &[PeerInfo], skip: usize) -> Vec<&PeerInfo> {
        peers
            .iter()
            .enumerate()
            .filter_map(|(i, p)| (i != skip).then_some(p))
            .collect()
    }
}
