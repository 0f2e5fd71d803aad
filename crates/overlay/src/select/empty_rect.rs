use geocast_geom::dominance;

use crate::peer::PeerInfo;
use crate::select::{select_in_brute, ChurnShape, NeighborSelection, SelectContext};

/// The §2 neighbour-selection rule: `Q ∈ I(P)` becomes a neighbour iff
/// the axis-aligned hyper-rectangle having `P` and `Q` as corners
/// contains no other member of `I(P)` in its interior.
///
/// Implemented as per-orthant Pareto frontiers
/// ([`geocast_geom::dominance::empty_rect_neighbors`]); the equivalence
/// with the definitional rule is property-tested in `geocast-geom`.
///
/// Selection under this rule is *symmetric at equilibrium*: when `P` and
/// `Q` see the same candidate universe, the spanned rectangle (and hence
/// the emptiness test) is identical from both ends, so overlay links are
/// mutual — tests assert this on the oracle topology.
///
/// # Example
///
/// ```
/// use geocast_overlay::select::{EmptyRectSelection, NeighborSelection};
/// use geocast_overlay::{PeerId, PeerInfo};
/// use geocast_geom::Point;
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let p = PeerInfo::new(PeerId(0), Point::new(vec![0.0, 0.0])?);
/// let near = PeerInfo::new(PeerId(1), Point::new(vec![1.0, 1.0])?);
/// let far = PeerInfo::new(PeerId(2), Point::new(vec![2.0, 2.0])?); // shadowed by `near`
/// let picked = EmptyRectSelection.select(&p, &[&near, &far]);
/// assert_eq!(picked, vec![0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmptyRectSelection;

impl NeighborSelection for EmptyRectSelection {
    fn select(&self, who: &PeerInfo, candidates: &[&PeerInfo]) -> Vec<usize> {
        dominance::empty_rect_neighbors(who.point(), candidates)
    }

    fn select_in(&self, peers: &[PeerInfo], i: usize, ctx: &SelectContext<'_>) -> Vec<usize> {
        // The frontier is a function of coordinates only (no id
        // tie-breaking), so the index path applies whenever an index
        // exists; it declines (None) on coordinate collisions, exactly
        // when `dominance::empty_rect_neighbors` would fall back to the
        // naive rule, which `select_in_brute` then reproduces.
        if let Some(index) = ctx.index() {
            if let Some(picked) = index.empty_rect_neighbors(i) {
                return picked;
            }
        }
        select_in_brute(self, peers, i, ctx)
    }

    fn name(&self) -> String {
        "empty-rect".to_owned()
    }

    fn churn_shape(&self) -> ChurnShape {
        ChurnShape::EmptyRect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::test_support::{candidates_excluding, peers};
    use geocast_geom::Rect;

    #[test]
    fn selected_rectangles_are_empty_nonselected_are_not() {
        let population = peers(40, 3, 11);
        let cands = candidates_excluding(&population, 0);
        let who = &population[0];
        let picked = EmptyRectSelection.select(who, &cands);
        assert!(!picked.is_empty());
        for (ci, cand) in cands.iter().enumerate() {
            let rect = Rect::spanned_open(who.point(), cand.point()).unwrap();
            let occupied = cands
                .iter()
                .enumerate()
                .any(|(oi, other)| oi != ci && rect.contains(other.point()));
            assert_eq!(
                !occupied,
                picked.contains(&ci),
                "candidate {ci}: emptiness and selection must agree"
            );
        }
    }

    #[test]
    fn selection_is_symmetric_under_shared_knowledge() {
        let population = peers(30, 2, 5);
        // For each ordered pair (i, j): i selects j iff j selects i.
        let selects = |i: usize, j: usize| -> bool {
            let cands = candidates_excluding(&population, i);
            let picked = EmptyRectSelection.select(&population[i], &cands);
            picked
                .iter()
                .any(|&ci| std::ptr::eq(cands[ci], &population[j]))
        };
        for i in 0..population.len() {
            for j in (i + 1)..population.len() {
                assert_eq!(selects(i, j), selects(j, i), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn single_candidate_is_always_selected() {
        let population = peers(2, 4, 3);
        let cands = candidates_excluding(&population, 0);
        assert_eq!(EmptyRectSelection.select(&population[0], &cands), vec![0]);
    }

    #[test]
    fn no_candidates_no_neighbors() {
        let population = peers(1, 2, 0);
        assert!(EmptyRectSelection.select(&population[0], &[]).is_empty());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(EmptyRectSelection.name(), "empty-rect");
    }
}
