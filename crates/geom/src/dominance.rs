//! Rectangle dominance and per-orthant Pareto frontiers.
//!
//! The §2 simulation selects as overlay neighbours of `P` every candidate
//! `Q` whose spanned rectangle with `P` contains no other candidate (the
//! *empty-rectangle rule*). This module provides both the definition-based
//! test and the equivalent — and much faster — characterisation that this
//! repository proves and property-tests:
//!
//! > `Q` is an empty-rectangle neighbour of `P` **iff** `Q` is
//! > Pareto-minimal within its orthant around `P` under per-dimension
//! > absolute offset.
//!
//! *Why:* a third candidate `R` lies strictly inside the rectangle spanned
//! by `P` and `Q` exactly when, in every dimension, `R` is strictly
//! between them — i.e. `R` sits in the same orthant as `Q` and strictly
//! closer to `P` in **every** dimension ([`rect_dominates`]). Hence
//! "rectangle non-empty" ⇔ "dominated within the orthant".
//!
//! The frontier view also explains why the §2 partitioner is complete at
//! equilibrium: any non-empty orthant of any zone contains at least one
//! frontier point (take a candidate minimising the number of others in its
//! spanned rectangle), so a peer always has an overlay neighbour to
//! delegate each populated region to.
//!
//! [`ParetoSet`] is that frontier kept incrementally, one orthant at a
//! time: the index's empty-rectangle query and the store's join walk both
//! grow their answer in one.

use crate::{Orthant, Point};

/// The running Pareto frontier of **one orthant** around a fixed
/// position `p`, in flat storage: `keys[m * dim..][..dim]` are member
/// `m`'s keys, `ids[m]` its id. A key grows with the distance from `p`
/// along its dimension — an absolute offset, or the coordinate itself
/// with its sign flipped on the orthant's negative side, which needs no
/// subtraction — so one member strictly smaller than another in every
/// key lies strictly inside the open rectangle that `p` spans with it.
///
/// Members are never strictly smaller than one another in every key.
/// Offering a point the set already dominates is a no-op; offering one
/// that dominates members evicts them. Domination is a strict partial
/// order, so the set is at all times the exact Pareto frontier of
/// everything offered so far, in any offering order — ties in a key
/// included, which dominate nothing.
#[derive(Debug, Default, Clone)]
pub struct ParetoSet {
    dim: usize,
    keys: Vec<f64>,
    ids: Vec<usize>,
}

impl ParetoSet {
    /// Empties the set for points of `dim` keys, keeping its buffers.
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.keys.clear();
        self.ids.clear();
    }

    /// `true` if some member is strictly smaller than `bound` in every
    /// key.
    #[must_use]
    pub fn dominates(&self, bound: &[f64]) -> bool {
        self.keys
            .chunks_exact(self.dim)
            .any(|m| m.iter().zip(bound).all(|(r, b)| r < b))
    }

    /// Offers a point: dropped if a member dominates it, else it evicts
    /// the members it dominates and joins. Returns whether it joined.
    pub fn offer(&mut self, keys: &[f64], id: usize) -> bool {
        let dim = self.dim;
        if self.dominates(keys) {
            return false;
        }
        let mut m = 0;
        while m < self.ids.len() {
            let member = &self.keys[m * dim..(m + 1) * dim];
            if keys.iter().zip(member).all(|(n, r)| n < r) {
                // swap_remove on the flat layout.
                let last = self.ids.len() - 1;
                self.keys.copy_within(last * dim..(last + 1) * dim, m * dim);
                self.keys.truncate(last * dim);
                self.ids.swap_remove(m);
            } else {
                m += 1;
            }
        }
        self.keys.extend_from_slice(keys);
        self.ids.push(id);
        true
    }

    /// The members' ids, in no particular order.
    #[must_use]
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }
}

/// `true` if `a` *rect-dominates* `b` relative to reference `p`: `a` lies
/// strictly inside the open rectangle spanned by `p` and `b`.
///
/// Equivalently (under per-dimension distinctness): `a` is in the same
/// orthant of `p` as `b` and strictly closer to `p` in every dimension.
///
/// # Panics
///
/// Panics on dimensionality mismatch (debug builds).
#[must_use]
pub fn rect_dominates(p: &Point, a: &Point, b: &Point) -> bool {
    rect_dominates_coords(p.coords(), a.coords(), b.coords())
}

/// [`rect_dominates`] over coordinate slices, for callers that keep
/// coordinates in flat tables.
///
/// # Panics
///
/// Panics on dimensionality mismatch (debug builds).
#[must_use]
pub fn rect_dominates_coords(p: &[f64], a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(p.len(), a.len());
    debug_assert_eq!(p.len(), b.len());
    p.iter()
        .zip(a)
        .zip(b)
        .all(|((&p, &a), &b)| p.min(b) < a && a < p.max(b))
}

/// Indices of the empty-rectangle neighbours of `p` among `candidates`,
/// computed directly from the definition (`O(n²)` rectangle tests).
///
/// `candidates` must not contain `p` itself; callers filter beforehand.
/// Kept as the executable specification for property tests; prefer
/// [`empty_rect_neighbors`] in production code.
#[must_use]
// lint:allow(D006, reason = "the rule by definition, ties included, which prop_geom and the index's tie gate hold the frontier and the index walk against")
pub fn empty_rect_neighbors_naive<P: AsRef<Point>>(p: &Point, candidates: &[P]) -> Vec<usize> {
    let mut kept = Vec::new();
    'outer: for (qi, q) in candidates.iter().enumerate() {
        for (ri, r) in candidates.iter().enumerate() {
            if ri != qi && rect_dominates(p, r.as_ref(), q.as_ref()) {
                continue 'outer;
            }
        }
        kept.push(qi);
    }
    kept
}

/// Indices of the empty-rectangle neighbours of `p` among `candidates`,
/// computed as per-orthant Pareto frontiers.
///
/// Candidates are grouped by orthant; within each orthant they are
/// processed in ascending L1 distance, and a candidate is kept iff no
/// already-kept candidate rect-dominates it. Dominators are strictly
/// closer in every dimension (hence in L1), and domination is transitive,
/// so checking only kept candidates is sufficient. Complexity is
/// `O(n log n + n · f)` where `f` is the frontier size. The groups are
/// runs of one sort by orthant, not a table of all `2^D` orthants, so
/// the cost does not grow with `2^D`.
///
/// `candidates` must not contain `p` itself. A candidate sharing a
/// coordinate with `p` lies in no orthant: its rectangle with `p` is
/// flat, so it holds nobody and lies strictly inside nobody's. It is kept
/// and grouped with nobody.
#[must_use]
pub fn empty_rect_neighbors<P: AsRef<Point>>(p: &Point, candidates: &[P]) -> Vec<usize> {
    let dim = p.dim();
    let l1 = |q: &Point| -> f64 { (0..dim).map(|d| (q[d] - p[d]).abs()).sum() };
    let mut order = Vec::with_capacity(candidates.len());
    let mut kept = Vec::new();
    for (i, q) in candidates.iter().enumerate() {
        match Orthant::classify(p, q.as_ref()) {
            Ok(o) => order.push((o, l1(q.as_ref()), i)),
            Err(_) => kept.push(i),
        }
    }
    order.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));

    for group in order.chunk_by(|a, b| a.0 == b.0) {
        let start = kept.len();
        for &(_, _, qi) in group {
            let dominated = kept[start..].iter().any(|&ri: &usize| {
                rect_dominates(p, candidates[ri].as_ref(), candidates[qi].as_ref())
            });
            if !dominated {
                kept.push(qi);
            }
        }
    }
    kept.sort_unstable();
    kept
}

/// Groups candidate indices by the orthant they occupy around `p`.
///
/// Returns one `(orthant, indices)` run per **occupied** orthant, in
/// ascending orthant order, indices ascending within a run. The runs
/// come from one sort by orthant, not a table of all `2^D` orthants, so
/// the cost does not grow with `2^D`. Candidates colliding with `p` in
/// some coordinate are returned separately in the second component
/// (they belong to no orthant; under the paper's assumptions this list
/// is empty).
#[must_use]
pub fn group_by_orthant<P: AsRef<Point>>(
    p: &Point,
    candidates: &[P],
) -> (Vec<(Orthant, Vec<usize>)>, Vec<usize>) {
    let mut order = Vec::with_capacity(candidates.len());
    let mut colliding = Vec::new();
    for (i, q) in candidates.iter().enumerate() {
        match Orthant::classify(p, q.as_ref()) {
            Ok(o) => order.push((o, i)),
            Err(_) => colliding.push(i),
        }
    }
    order.sort_unstable();
    let runs = order
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|&(_, i)| i).collect()))
        .collect();
    (runs, colliding)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).expect("valid point")
    }

    #[test]
    fn domination_requires_every_dimension() {
        let p = pt(&[0.0, 0.0]);
        let b = pt(&[4.0, 4.0]);
        assert!(rect_dominates(&p, &pt(&[1.0, 2.0]), &b));
        // Closer in x but farther in y: not dominating.
        assert!(!rect_dominates(&p, &pt(&[1.0, 5.0]), &b));
        // Different orthant: not dominating.
        assert!(!rect_dominates(&p, &pt(&[-1.0, 2.0]), &b));
    }

    #[test]
    fn domination_is_irreflexive_on_distinct_points() {
        let p = pt(&[0.0, 0.0]);
        let a = pt(&[1.0, 1.0]);
        assert!(!rect_dominates(&p, &a, &a));
    }

    #[test]
    fn naive_keeps_all_in_general_position() {
        // Three points in three different orthants: all kept.
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[1.0, 2.0]), pt(&[-1.0, 3.0]), pt(&[2.0, -1.0])];
        assert_eq!(empty_rect_neighbors_naive(&p, &cands), vec![0, 1, 2]);
    }

    #[test]
    fn naive_drops_shadowed_point() {
        let p = pt(&[0.0, 0.0]);
        // (3,3) is shadowed by (1,1); (1,1) survives.
        let cands = vec![pt(&[3.0, 3.0]), pt(&[1.0, 1.0])];
        assert_eq!(empty_rect_neighbors_naive(&p, &cands), vec![1]);
    }

    #[test]
    fn staircase_points_all_survive() {
        // Pareto staircase in the first quadrant: nobody dominates anybody.
        let p = pt(&[0.0, 0.0]);
        let cands = vec![
            pt(&[1.0, 8.0]),
            pt(&[2.0, 5.0]),
            pt(&[4.0, 3.0]),
            pt(&[7.0, 1.0]),
        ];
        let fast = empty_rect_neighbors(&p, &cands);
        assert_eq!(fast, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fast_matches_naive_on_fixed_example() {
        let p = pt(&[5.0, 5.0]);
        let cands = vec![
            pt(&[6.0, 6.5]),
            pt(&[8.0, 9.0]), // dominated by (6, 6.5)
            pt(&[6.5, 4.0]),
            pt(&[9.0, 3.0]), // NOT dominated by (6.5, 4): 3 < 4 in y
            pt(&[1.0, 1.0]),
            pt(&[2.0, 2.0]), // dominated by ... nothing: (1,1) is farther
            pt(&[0.0, 0.0]), // dominated by (1,1) and (2,2)
        ];
        let mut naive = empty_rect_neighbors_naive(&p, &cands);
        naive.sort_unstable();
        assert_eq!(empty_rect_neighbors(&p, &cands), naive);
    }

    #[test]
    fn fast_falls_back_on_coordinate_collision() {
        let p = pt(&[0.0, 0.0]);
        // Second candidate shares y with p: it belongs to no orthant and
        // must still agree with the naive specification.
        let cands = vec![pt(&[1.0, 1.0]), pt(&[2.0, 0.0])];
        let mut naive = empty_rect_neighbors_naive(&p, &cands);
        naive.sort_unstable();
        let mut fast = empty_rect_neighbors(&p, &cands);
        fast.sort_unstable();
        assert_eq!(fast, naive);
    }

    #[test]
    fn group_by_orthant_partitions_candidates() {
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[1.0, 1.0]), pt(&[-1.0, 2.0]), pt(&[3.0, -4.0])];
        let (runs, colliding) = group_by_orthant(&p, &cands);
        assert!(colliding.is_empty());
        let o = |bits| Orthant::from_bits(bits, 2).unwrap();
        // Occupied orthants only, ascending; (-,-) holds nobody.
        assert_eq!(
            runs,
            vec![
                (o(0b01), vec![2]), // (+,-)
                (o(0b10), vec![1]), // (-,+)
                (o(0b11), vec![0]), // (+,+)
            ]
        );
    }

    #[test]
    fn group_by_orthant_reports_collisions() {
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[0.0, 1.0])];
        let (_, colliding) = group_by_orthant(&p, &cands);
        assert_eq!(colliding, vec![0]);
    }

    #[test]
    fn empty_candidates_give_empty_result() {
        let p = pt(&[0.0, 0.0]);
        let none: [Point; 0] = [];
        assert!(empty_rect_neighbors(&p, &none).is_empty());
        assert!(empty_rect_neighbors_naive(&p, &none).is_empty());
    }

    #[test]
    fn fast_needs_no_table_of_all_orthants() {
        // At `MAX_ORTHANT_DIM` a table of every orthant would take
        // 2^32 buckets; the frontier sorts by orthant instead.
        let dim = crate::MAX_ORTHANT_DIM;
        let points = crate::gen::uniform_points(24, dim, 1000.0, 9).into_points();
        let (p, cands) = points.split_first().unwrap();
        let mut naive = empty_rect_neighbors_naive(p, cands);
        naive.sort_unstable();
        assert_eq!(empty_rect_neighbors(p, cands), naive);
    }

    #[test]
    fn pareto_set_is_the_frontier_of_everything_offered_in_any_order() {
        // Offsets in one orthant; (3, 3) ties (3, 5) in x and dominates
        // nothing it ties, (1, 1) evicts both, (1, 4) ties (1, 1) in x.
        let offered = [
            ([3.0, 5.0], 0),
            ([3.0, 3.0], 1),
            ([6.0, 0.5], 2),
            ([1.0, 1.0], 3),
            ([1.0, 4.0], 4),
            ([2.0, 2.0], 5),
        ];
        for rotation in 0..offered.len() {
            let mut set = ParetoSet::default();
            set.reset(2);
            for (keys, id) in offered.iter().cycle().skip(rotation).take(offered.len()) {
                let joined = set.offer(keys, *id);
                assert_eq!(joined, set.ids().contains(id), "offer reports membership");
            }
            let mut kept = set.ids().to_vec();
            kept.sort_unstable();
            assert_eq!(kept, vec![2, 3, 4], "rotation {rotation}");
            assert!(set.dominates(&[1.5, 1.5]) && !set.dominates(&[1.0, 5.0]));
        }
    }

    #[test]
    fn three_dimensional_domination() {
        let p = pt(&[0.0, 0.0, 0.0]);
        let cands = vec![
            pt(&[1.0, 1.0, 1.0]),
            pt(&[2.0, 2.0, 2.0]), // dominated
            pt(&[2.0, 2.0, 0.5]), // closer in z: kept
        ];
        assert_eq!(empty_rect_neighbors(&p, &cands), vec![0, 2]);
    }
}
