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

use crate::{Orthant, Point};

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
/// `O(n log n + n · f)` where `f` is the frontier size.
///
/// `candidates` must not contain `p` itself and must respect the
/// per-dimension distinctness assumption (orthant classification is then
/// total; coordinate collisions with `p` fall back to the naive test for
/// robustness).
#[must_use]
pub fn empty_rect_neighbors<P: AsRef<Point>>(p: &Point, candidates: &[P]) -> Vec<usize> {
    let dim = p.dim();
    let mut by_orthant: Vec<Vec<usize>> = vec![Vec::new(); Orthant::count(dim)];
    for (i, q) in candidates.iter().enumerate() {
        match Orthant::classify(p, q.as_ref()) {
            Ok(o) => by_orthant[o.index()].push(i),
            // Distinctness violated: fall back to the specification.
            Err(_) => return empty_rect_neighbors_naive(p, candidates),
        }
    }

    let l1 = |q: &Point| -> f64 { (0..dim).map(|d| (q[d] - p[d]).abs()).sum() };

    let mut kept = Vec::new();
    for group in &mut by_orthant {
        group.sort_by(|&a, &b| {
            l1(candidates[a].as_ref())
                .total_cmp(&l1(candidates[b].as_ref()))
                .then(a.cmp(&b))
        });
        let mut frontier: Vec<usize> = Vec::new();
        for &qi in group.iter() {
            let dominated = frontier
                .iter()
                .any(|&ri| rect_dominates(p, candidates[ri].as_ref(), candidates[qi].as_ref()));
            if !dominated {
                frontier.push(qi);
            }
        }
        kept.extend(frontier);
    }
    kept.sort_unstable();
    kept
}

/// Groups candidate indices by the orthant they occupy around `p`.
///
/// Returns a dense table of `2^D` buckets indexed by
/// [`Orthant::index`]. Candidates colliding with `p` in some coordinate
/// are returned separately in the second component (they belong to no
/// orthant; under the paper's assumptions this list is empty).
#[must_use]
pub fn group_by_orthant<P: AsRef<Point>>(
    p: &Point,
    candidates: &[P],
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); Orthant::count(p.dim())];
    let mut colliding = Vec::new();
    for (i, q) in candidates.iter().enumerate() {
        match Orthant::classify(p, q.as_ref()) {
            Ok(o) => buckets[o.index()].push(i),
            Err(_) => colliding.push(i),
        }
    }
    (buckets, colliding)
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
        // Second candidate shares y with p: frontier path would error,
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
        let (buckets, colliding) = group_by_orthant(&p, &cands);
        assert!(colliding.is_empty());
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(buckets[0b11], vec![0]); // (+,+)
        assert_eq!(buckets[0b10], vec![1]); // (-,+)
        assert_eq!(buckets[0b01], vec![2]); // (+,-)
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
