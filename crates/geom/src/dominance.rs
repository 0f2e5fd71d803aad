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
//! > nearness to `P`.
//!
//! Every comparison is the tie rule of [`crate::above`]: a coordinate
//! with the point's id, so no two points tie along any axis. *Why:* a
//! third candidate `R` lies strictly inside the rectangle spanned by `P`
//! and `Q` exactly when, in every dimension, `R` is strictly between
//! them — i.e. `R` sits in the same orthant as `Q` and strictly nearer
//! `P` in **every** dimension ([`rect_dominates`]). Hence "rectangle
//! non-empty" ⇔ "dominated within the orthant".
//!
//! The frontier view also explains why the §2 partitioner is complete at
//! equilibrium: any non-empty orthant of any zone contains at least one
//! frontier point (take a candidate minimising the number of others in its
//! spanned rectangle), so a peer always has an overlay neighbour to
//! delegate each populated region to.
//!
//! [`ParetoSet`] is that frontier kept incrementally, one orthant at a
//! time: the index's empty-rectangle query grows its answer in one, and
//! so does the store's join walk at dimensionalities other than the
//! paper's `D = 2–5` (where it keeps fronts of a compile-time width).

use crate::{above, key, key_cmp, key_lt, Key, Orthant, Point};

/// The running Pareto frontier of **one orthant** around a fixed
/// position `p`, in flat storage: `keys[m * dim..][..dim]` are member
/// `m`'s [`Key`]s, `ids[m]` the id it was offered with. A key is the
/// member's coordinate and id, flipped on the orthant's negative side
/// ([`crate::key`]), so a smaller key is nearer `p` and one member
/// strictly smaller than another in every key lies strictly inside the
/// open rectangle that `p` spans with it.
///
/// Members are never strictly smaller than one another in every key.
/// Offering a point the set already dominates is a no-op; offering one
/// that dominates members evicts them. Domination is a strict partial
/// order, so the set is at all times the exact Pareto frontier of
/// everything offered so far, in any offering order.
#[derive(Debug, Default, Clone)]
pub struct ParetoSet {
    dim: usize,
    keys: Vec<Key>,
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
    pub fn dominates(&self, bound: &[Key]) -> bool {
        self.keys
            .chunks_exact(self.dim)
            .any(|m| m.iter().zip(bound).all(|(r, b)| key_lt(r, b)))
    }

    /// Offers a point: dropped if a member dominates it, else it evicts
    /// the members it dominates and joins. Returns whether it joined.
    pub fn offer(&mut self, keys: &[Key], id: usize) -> bool {
        let dim = self.dim;
        if self.dominates(keys) {
            return false;
        }
        let mut m = 0;
        while m < self.ids.len() {
            let member = &self.keys[m * dim..(m + 1) * dim];
            if keys.iter().zip(member).all(|(n, r)| key_lt(n, r)) {
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

/// `true` if `a` *rect-dominates* `b` relative to `p`: `a` lies strictly
/// inside the open rectangle spanned by `p` and `b`. Each point comes
/// with its id, and along every dimension `a` is strictly between `p`
/// and `b` under the tie rule of [`crate::above`].
///
/// Equivalently: `a` is in the same orthant of `p` as `b` and strictly
/// nearer `p` in every dimension.
///
/// # Panics
///
/// Panics on dimensionality mismatch (debug builds).
#[must_use]
pub fn rect_dominates(
    (p, p_id): (&[f64], usize),
    (a, a_id): (&[f64], usize),
    (b, b_id): (&[f64], usize),
) -> bool {
    debug_assert_eq!(p.len(), a.len());
    debug_assert_eq!(p.len(), b.len());
    p.iter().zip(a).zip(b).all(|((&p, &a), &b)| {
        let up = above(b, b_id, p, p_id);
        above(a, a_id, p, p_id) == up && above(b, b_id, a, a_id) == up
    })
}

/// Indices of the empty-rectangle neighbours of `p` (id `p_id`) among
/// `candidates`, candidate `c` having id `id(c)`, computed directly from
/// the definition (`O(n²)` rectangle tests).
///
/// `candidates` must not contain `p` itself; callers filter beforehand.
/// Kept as the executable specification for property tests; prefer
/// [`empty_rect_neighbors`] in production code.
#[must_use]
// lint:allow(D006, reason = "the rule by definition, shared coordinates included, which prop_geom and the index's tie gate hold the frontier and the index walk against")
pub fn empty_rect_neighbors_naive<P: AsRef<Point>>(
    p: &Point,
    p_id: usize,
    candidates: &[P],
    id: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let site = |c: usize| (candidates[c].as_ref().coords(), id(c));
    let mut kept = Vec::new();
    'outer: for qi in 0..candidates.len() {
        for ri in 0..candidates.len() {
            if ri != qi && rect_dominates((p.coords(), p_id), site(ri), site(qi)) {
                continue 'outer;
            }
        }
        kept.push(qi);
    }
    kept
}

/// Indices of the empty-rectangle neighbours of `p` (id `p_id`) among
/// `candidates`, candidate `c` having id `id(c)`, computed as
/// per-orthant Pareto frontiers.
///
/// Candidates are sorted by orthant and, within one, by their first
/// [`Key`]; a candidate is kept iff no already-kept candidate of its
/// orthant rect-dominates it. A dominator is strictly nearer `p` in
/// every dimension, the first included, so it comes first, and
/// domination is transitive, so checking only kept candidates is
/// sufficient. Complexity is `O(n log n + n · f)` where `f` is the
/// frontier size. The groups are runs of one sort by orthant, not a
/// table of all `2^D` orthants, so the cost does not grow with `2^D`.
/// Sorted ascending.
///
/// `candidates` must not contain `p` itself.
///
/// # Panics
///
/// Panics if a candidate's dimensionality differs from `p`'s.
#[must_use]
pub fn empty_rect_neighbors<P: AsRef<Point>>(
    p: &Point,
    p_id: usize,
    candidates: &[P],
    id: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut order: Vec<(Orthant, Key, usize)> = (candidates.iter().enumerate())
        .map(|(c, q)| {
            let q = q.as_ref();
            let o = Orthant::classify(p, p_id, q, id(c));
            let o = o.expect("candidates share the query's dimensionality");
            (o, key(q[0], id(c), o.is_positive(0)), c)
        })
        .collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(key_cmp(&a.1, &b.1)));

    let mut kept = Vec::new();
    for run in order.chunk_by(|a, b| a.0 == b.0) {
        // Within one orthant, `r` rect-dominates `c` iff its key is
        // smaller in every dimension.
        let keyed =
            |c: usize, d: usize| key(candidates[c].as_ref()[d], id(c), run[0].0.is_positive(d));
        let start = kept.len();
        for &(_, _, c) in run {
            let dominated = (kept[start..].iter())
                .any(|&r| (0..p.dim()).all(|d| key_lt(&keyed(r, d), &keyed(c, d))));
            if !dominated {
                kept.push(c);
            }
        }
    }
    kept.sort_unstable();
    kept
}

/// Groups candidate indices by the orthant they occupy around `p` (id
/// `p_id`), candidate `c` having id `id(c)` ([`Orthant::classify`]).
///
/// Returns one `(orthant, indices)` run per **occupied** orthant, in
/// ascending orthant order, indices ascending within a run. Every
/// candidate is in exactly one run. The runs come from one sort by
/// orthant, not a table of all `2^D` orthants, so the cost does not grow
/// with `2^D`.
///
/// # Panics
///
/// Panics if a candidate's dimensionality differs from `p`'s.
#[must_use]
pub fn group_by_orthant<P: AsRef<Point>>(
    p: &Point,
    p_id: usize,
    candidates: &[P],
    id: impl Fn(usize) -> usize,
) -> Vec<(Orthant, Vec<usize>)> {
    let mut order: Vec<(Orthant, usize)> = (candidates.iter().enumerate())
        .map(|(i, q)| {
            let o = Orthant::classify(p, p_id, q.as_ref(), id(i));
            (o.expect("candidates share the query's dimensionality"), i)
        })
        .collect();
    order.sort_unstable();
    order
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|&(_, i)| i).collect()))
        .collect()
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
        let dom = |a: &Point, b: &Point| {
            rect_dominates((p.coords(), 0), (a.coords(), 1), (b.coords(), 2))
        };
        assert!(dom(&pt(&[1.0, 2.0]), &b));
        // Closer in x but farther in y: not dominating.
        assert!(!dom(&pt(&[1.0, 5.0]), &b));
        // Different orthant: not dominating.
        assert!(!dom(&pt(&[-1.0, 2.0]), &b));
        // Sharing b's y: strictly between in y iff its id ranks below b's.
        assert!(dom(&pt(&[1.0, 4.0]), &b));
        assert!(!rect_dominates(
            (p.coords(), 0),
            (&[1.0, 4.0], 3),
            (b.coords(), 2)
        ));
    }

    #[test]
    fn domination_is_irreflexive_on_distinct_points() {
        let p = pt(&[0.0, 0.0]);
        let a = pt(&[1.0, 1.0]);
        assert!(!rect_dominates(
            (p.coords(), 0),
            (a.coords(), 1),
            (a.coords(), 1)
        ));
    }

    #[test]
    fn naive_keeps_all_in_general_position() {
        // Three points in three different orthants: all kept.
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[1.0, 2.0]), pt(&[-1.0, 3.0]), pt(&[2.0, -1.0])];
        assert_eq!(
            empty_rect_neighbors_naive(&p, 9, &cands, |c| c),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn naive_drops_shadowed_point() {
        let p = pt(&[0.0, 0.0]);
        // (3,3) is shadowed by (1,1); (1,1) survives.
        let cands = vec![pt(&[3.0, 3.0]), pt(&[1.0, 1.0])];
        assert_eq!(empty_rect_neighbors_naive(&p, 9, &cands, |c| c), vec![1]);
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
        let fast = empty_rect_neighbors(&p, 9, &cands, |c| c);
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
        let naive = empty_rect_neighbors_naive(&p, 9, &cands, |c| c);
        assert_eq!(empty_rect_neighbors(&p, 9, &cands, |c| c), naive);
    }

    #[test]
    fn a_shared_coordinate_is_ordered_by_id() {
        // (1, 0) and (2, 0) share p's y. Ranked above p there, the
        // smaller id is nearer and (1, 0) hides (2, 0); ranked below it,
        // the larger id is nearer, and neither hides the other.
        // Identical points order by id too.
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[1.0, 0.0]), pt(&[2.0, 0.0])];
        for (p_id, want) in [(0, vec![0]), (5, vec![0, 1])] {
            let ids = |c: usize| c + 1;
            assert_eq!(empty_rect_neighbors_naive(&p, p_id, &cands, ids), want);
            assert_eq!(empty_rect_neighbors(&p, p_id, &cands, ids), want);
        }
        let twins = vec![pt(&[1.0, 1.0]), pt(&[1.0, 1.0]), pt(&[1.0, 1.0])];
        let ids = |c: usize| c + 1;
        assert_eq!(empty_rect_neighbors_naive(&p, 0, &twins, ids), vec![0]);
        assert_eq!(empty_rect_neighbors(&p, 0, &twins, ids), vec![0]);
    }

    #[test]
    fn group_by_orthant_partitions_candidates() {
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[1.0, 1.0]), pt(&[-1.0, 2.0]), pt(&[3.0, -4.0])];
        let runs = group_by_orthant(&p, 0, &cands, |c| c + 1);
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
    fn group_by_orthant_places_a_shared_coordinate_by_id() {
        let p = pt(&[0.0, 0.0]);
        let cands = vec![pt(&[0.0, 1.0])];
        let o = |bits| Orthant::from_bits(bits, 2).unwrap();
        assert_eq!(
            group_by_orthant(&p, 0, &cands, |_| 1),
            vec![(o(0b11), vec![0])]
        );
        assert_eq!(
            group_by_orthant(&p, 2, &cands, |_| 1),
            vec![(o(0b10), vec![0])]
        );
    }

    #[test]
    fn empty_candidates_give_empty_result() {
        let p = pt(&[0.0, 0.0]);
        let none: [Point; 0] = [];
        assert!(empty_rect_neighbors(&p, 0, &none, |c| c).is_empty());
        assert!(empty_rect_neighbors_naive(&p, 0, &none, |c| c).is_empty());
    }

    #[test]
    fn fast_needs_no_table_of_all_orthants() {
        // At `MAX_ORTHANT_DIM` a table of every orthant would take
        // 2^32 buckets; the frontier sorts by orthant instead.
        let dim = crate::MAX_ORTHANT_DIM;
        let points = crate::gen::uniform_points(24, dim, 1000.0, 9).into_points();
        let (p, cands) = points.split_first().unwrap();
        let naive = empty_rect_neighbors_naive(p, 0, cands, |c| c + 1);
        assert_eq!(empty_rect_neighbors(p, 0, cands, |c| c + 1), naive);
    }

    #[test]
    fn pareto_set_is_the_frontier_of_everything_offered_in_any_order() {
        // Keys in one orthant, the id breaking a tie: (3, 3) ties (3, 5)
        // in x and its smaller id makes it nearer there, so it evicts it;
        // (1, 1) evicts both; (1, 4) ties (1, 1) in x and is farther.
        let offered = [
            ([(3.0, 1), (5.0, 1)], 1),
            ([(3.0, 0), (3.0, 0)], 0),
            ([(6.0, 2), (0.5, 2)], 2),
            ([(1.0, 3), (1.0, 3)], 3),
            ([(1.0, 4), (4.0, 4)], 4),
            ([(2.0, 5), (2.0, 5)], 5),
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
            assert_eq!(kept, vec![2, 3], "rotation {rotation}");
            assert!(set.dominates(&[(1.5, 0), (1.5, 0)]) && !set.dominates(&[(1.0, 0), (5.0, 0)]));
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
        assert_eq!(empty_rect_neighbors(&p, 0, &cands, |c| c + 1), vec![0, 2]);
    }
}
