//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the overlay and partitioner lean on:
//! orthant totality, zone algebra closure, the L1 distance's axioms, and — most
//! importantly — the equivalence between the paper's empty-rectangle
//! neighbour rule and the per-orthant Pareto frontier.

use geocast_geom::dominance::{empty_rect_neighbors, empty_rect_neighbors_naive, rect_dominates};
use geocast_geom::{l1, Arrangement, GridIndex, Interval, Orthant, Point, Rect};
use proptest::collection::vec;
use proptest::prelude::*;

const DIM_RANGE: std::ops::RangeInclusive<usize> = 1..=5;

/// Strategy: a set of `n` points of dimension `dim` with distinct
/// coordinates per dimension (the paper's assumption). Built from integer
/// lattices + index-dependent jitter so distinctness is guaranteed by
/// construction.
fn distinct_points(dim: usize, n: usize) -> impl Strategy<Value = Vec<Point>> {
    vec(vec(-1000i32..1000, dim), n).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, coords)| {
                // Jitter breaks cross-point collisions deterministically:
                // i/(n+1) < 1 so integer parts stay ordered.
                let coords = coords
                    .into_iter()
                    .map(|c| f64::from(c) + i as f64 / (n as f64 + 1.0))
                    .collect();
                Point::from_validated(coords)
            })
            .collect()
    })
}

/// Reshapes a distinct-coordinate population (integer lattice + jitter,
/// so every integer-valued transform keeps per-dimension distinctness):
/// 0 = uniform, 1 = clustered around three centres, 2 = degenerate
/// extent (dimension 0 squeezed into a micro-band). The last `outside`
/// points are pushed far beyond everyone else, so that — inserted after
/// the index is built — they land in clamped edge cells.
fn reshape(points: Vec<Point>, shape: u8, outside: usize) -> Vec<Point> {
    let n = points.len();
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let coords = p
                .coords()
                .iter()
                .enumerate()
                .map(|(d, &x)| {
                    let (whole, jitter) = (x.floor(), x - x.floor());
                    let whole = match shape {
                        1 => whole.rem_euclid(30.0) + 400.0 * (whole / 700.0).trunc(),
                        2 if d == 0 => 0.0,
                        _ => whole,
                    };
                    let x = if shape == 2 && d == 0 {
                        500.0 + jitter * 1e-6
                    } else {
                        whole + jitter
                    };
                    if i + outside >= n {
                        x + if (i + d) % 2 == 0 { 5000.0 } else { -5000.0 }
                    } else {
                        x
                    }
                })
                .collect();
            Point::from_validated(coords)
        })
        .collect()
}

/// `p`'s empty-rectangle row over the live points, by the rule's naive
/// rectangle test (the definition, ties included).
fn brute_row(points: &[Point], live: &[bool], p: usize) -> Vec<usize> {
    brute_row_at(points, live, &points[p], p, p)
}

/// The row of the position `q`, ranked as id `q_id`, over the live
/// points other than `skip`, by the naive rectangle test.
fn brute_row_at(
    points: &[Point],
    live: &[bool],
    q: &Point,
    q_id: usize,
    skip: usize,
) -> Vec<usize> {
    let ids: Vec<usize> = (0..points.len())
        .filter(|&j| j != skip && live[j])
        .collect();
    let candidates: Vec<&Point> = ids.iter().map(|&j| &points[j]).collect();
    empty_rect_neighbors_naive(q, q_id, &candidates, |c| ids[c])
        .into_iter()
        .map(|ci| ids[ci])
        .collect()
}

/// `p`'s best `k` live points per orthant (all `2^D`), by `(distance,
/// id)`; a coordinate shared with `p` counts on the positive side, as
/// the *Orthogonal Hyperplanes* rule puts a point on a plane.
fn ranked_row(points: &[Point], live: &[bool], p: usize, k: usize) -> Vec<Vec<usize>> {
    let who = &points[p];
    let mut groups: Vec<Vec<(f64, usize)>> = vec![Vec::new(); 1 << who.dim()];
    for j in (0..points.len()).filter(|&j| j != p && live[j]) {
        let o = (0..who.dim())
            .filter(|&d| points[j][d] >= who[d])
            .fold(0, |bits, d| bits | 1 << d);
        groups[o].push((l1(who.coords(), points[j].coords()), j));
    }
    (groups.into_iter())
        .map(|mut g| {
            g.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            g.into_iter().take(k).map(|(_, j)| j).collect()
        })
        .collect()
}

/// A population that breaks the paper's distinctness assumption: family
/// 0 is the integer lattice `0..6` in every dimension (dense ties, some
/// duplicate points), family 1 spreads coordinates exponentially (`±2^e`,
/// `e < 20`), so most points share a grid cell and many share a
/// coordinate. Family 2 keeps to the assumption as a rule: coordinates
/// spread uniformly over `[0, 1000)`, with few ties. The last `outside`
/// points are moved out of everyone else's box along one dimension,
/// keeping their other coordinates, so that — inserted after the build —
/// they land in clamped edge cells and still tie with points inside.
fn tied_points(dim: usize, family: u8, raw: &[Vec<u8>], outside: usize) -> Vec<Point> {
    let n = raw.len();
    (raw.iter().enumerate())
        .map(|(i, c)| {
            let coords = (0..dim)
                .map(|d| {
                    let x = match family {
                        0 => f64::from(c[d] % 6),
                        1 => {
                            let sign = if c[d] % 40 < 20 { 1.0 } else { -1.0 };
                            sign * 2f64.powi(i32::from(c[d] % 20))
                        }
                        _ => f64::from(c[d]) * 25.0 + ((i * 31 + d * 17) % 97) as f64 / 97.0,
                    };
                    if i + outside >= n && d == i % dim {
                        x + 1e7 * if i % 2 == 0 { 1.0 } else { -1.0 }
                    } else {
                        x
                    }
                })
                .collect();
            Point::from_validated(coords)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn orthant_classification_is_total_and_antisymmetric(
        dim in DIM_RANGE,
        pts in (2usize..6).prop_flat_map(|n| distinct_points(5, n)),
    ) {
        let project = |p: &Point| {
            Point::from_validated(p.coords()[..dim].to_vec())
        };
        let p = project(&pts[0]);
        for (id, q) in pts.iter().enumerate().skip(1) {
            let q = project(q);
            let o = Orthant::classify(&p, 0, &q, id).expect("one dimensionality");
            let back = Orthant::classify(&q, id, &p, 0).expect("one dimensionality");
            prop_assert_eq!(o.bits() ^ back.bits(), (1u32 << dim) - 1, "every sign flips");
            // The orthant rect contains q and excludes p.
            let hr = Rect::orthant_of(&p, 0, o);
            prop_assert!(hr.contains_id(&q, id));
            prop_assert!(!hr.contains_id(&p, 0));
        }
    }

    #[test]
    fn orthant_rects_partition_points(
        family in 0u8..3,
        raw in vec(vec(0u8..40, 4), 3..12),
    ) {
        // Lattice and exponentially spread points share coordinates.
        let pts = tied_points(3, family, &raw, 0);
        let p = &pts[0];
        for (id, q) in pts.iter().enumerate().skip(1) {
            let covering = Orthant::all(3)
                .filter(|&o| Rect::orthant_of(p, 0, o).contains_id(q, id))
                .count();
            prop_assert_eq!(covering, 1, "each point lies in exactly one orthant rect");
        }
    }

    #[test]
    fn interval_intersection_is_idempotent_commutative_associative(
        a in -100.0f64..100.0, b in -100.0f64..100.0,
        c in -100.0f64..100.0, d in -100.0f64..100.0,
        e in -100.0f64..100.0, f in -100.0f64..100.0,
    ) {
        let x = Interval::new(a.min(b), a.max(b) + 1.0);
        let y = Interval::new(c.min(d), c.max(d) + 1.0);
        let z = Interval::new(e.min(f), e.max(f) + 1.0);
        prop_assert_eq!(x.intersect(x), x);
        prop_assert_eq!(x.intersect(y), y.intersect(x));
        prop_assert_eq!(x.intersect(y).intersect(z), x.intersect(y.intersect(z)));
    }

    #[test]
    fn rect_intersection_contained_in_both(
        pts in distinct_points(3, 4),
    ) {
        let a = Rect::spanned_open(&pts[0], 0, &pts[1], 1).unwrap();
        let b = Rect::spanned_open(&pts[2], 2, &pts[3], 3).unwrap();
        let i = a.intersect(&b);
        prop_assert!(a.contains_rect(&i));
        prop_assert!(b.contains_rect(&i));
        // Disjointness is symmetric and consistent with emptiness.
        prop_assert_eq!(a.is_disjoint(&b), b.is_disjoint(&a));
        prop_assert_eq!(a.is_disjoint(&b), i.is_empty());
    }

    #[test]
    fn metric_axioms_hold(
        dim in DIM_RANGE,
        pts in distinct_points(5, 3),
    ) {
        let project = |p: &Point| Point::from_validated(p.coords()[..dim].to_vec());
        let (a, b, c) = (project(&pts[0]), project(&pts[1]), project(&pts[2]));
        let dist = |p: &Point, q: &Point| l1(p.coords(), q.coords());
        let dab = dist(&a, &b);
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(dab, dist(&b, &a), "symmetry");
        prop_assert_eq!(dist(&a, &a), 0.0);
        // Triangle inequality with an epsilon for float rounding.
        prop_assert!(dab <= dist(&a, &c) + dist(&c, &b) + 1e-9, "triangle");
    }

    /// THE load-bearing equivalence: empty-rectangle rule == per-orthant
    /// Pareto frontier (computed by two independent implementations).
    #[test]
    fn empty_rect_rule_equals_orthant_pareto_frontier(
        dim in 1usize..=4,
        pts in (2usize..20).prop_flat_map(|n| distinct_points(4, n)),
    ) {
        let project = |p: &Point| Point::from_validated(p.coords()[..dim].to_vec());
        let p = project(&pts[0]);
        let cands: Vec<Point> = pts[1..].iter().map(project).collect();
        let naive = empty_rect_neighbors_naive(&p, 0, &cands, |c| c + 1);
        let fast = empty_rect_neighbors(&p, 0, &cands, |c| c + 1);
        prop_assert_eq!(fast, naive);
    }

    /// The full query on a churned index: after each of a few random
    /// removals every survivor's row equals the definition — over
    /// uniform, clustered and degenerate-extent populations, points
    /// inserted outside the built box, and an optional coordinate
    /// collider.
    #[test]
    fn full_query_equals_brute_force_after_removals(
        dim in 2usize..=4,
        shape in 0u8..3,
        outside in 0usize..4,
        pts in (8usize..40).prop_flat_map(|n| distinct_points(4, n)),
        collider in (0usize..3, 0usize..40, 0usize..4),
        victims in vec(0usize..1000, 1..8),
    ) {
        let project = |p: &Point| Point::from_validated(p.coords()[..dim].to_vec());
        let mut points: Vec<Point> = reshape(pts.iter().map(project).collect(), shape, outside);
        if collider.0 == 0 {
            // One more point sharing a coordinate with an existing one.
            let (twin, d) = (collider.1 % points.len(), collider.2 % dim);
            let mut coords: Vec<f64> = points[twin].coords().iter().map(|x| x + 7.5).collect();
            coords[d] = points[twin][d];
            points.push(Point::from_validated(coords));
        }
        let built = points.len() - outside.min(points.len() - 2);
        let mut index = GridIndex::build(&points[..built]);
        for p in &points[built..] {
            index.insert(p);
        }
        let mut live = vec![true; points.len()];
        for pick in victims {
            let alive: Vec<usize> = (0..points.len()).filter(|&i| live[i]).collect();
            if alive.len() <= 2 {
                break;
            }
            let victim = alive[pick % alive.len()];
            index.remove(victim);
            live[victim] = false;
            for &i in alive.iter().filter(|&&i| i != victim) {
                let row = index.empty_rect_neighbors(i);
                prop_assert_eq!(row, Some(brute_row(&points, &live, i)), "!= brute at {}", i);
            }
        }
    }

    /// Shared coordinates, answered: on integer lattices (D = 1–4) and
    /// exponentially spread coordinates, half the points inserted after
    /// the build (some outside its box) and a few random removals, every
    /// live point's empty-rectangle row — by id, by position (ranked after
    /// every id), and by the dominance module's frontier — equals the
    /// naive rectangle test, and its per-orthant `k` nearest equal the
    /// `>=`-sided `(distance, id)` ranking.
    #[test]
    fn tied_coordinates_are_answered_exactly(
        dim in 1usize..=4,
        family in 0u8..2,
        raw in vec(vec(0u8..40, 4), 4..40),
        outside in 0usize..4,
        k in 1usize..4,
        victims in vec(0usize..1000, 0..6),
    ) {
        let points = tied_points(dim, family, &raw, outside);
        let built = points.len() / 2;
        let mut index = GridIndex::build(&points[..built]);
        for p in &points[built..] {
            index.insert(p);
        }
        let mut live = vec![true; points.len()];
        for step in 0..=victims.len() {
            if step > 0 {
                let alive: Vec<usize> = (0..points.len()).filter(|&i| live[i]).collect();
                if alive.len() <= 2 {
                    break;
                }
                let victim = alive[victims[step - 1] % alive.len()];
                index.remove(victim);
                live[victim] = false;
            }
            for i in (0..points.len()).filter(|&i| live[i]) {
                let want = brute_row(&points, &live, i);
                prop_assert_eq!(index.empty_rect_neighbors(i), Some(want.clone()), "by id, {}", i);
                prop_assert_eq!(
                    index.empty_rect_neighbors_at(&points[i], Some(i)),
                    Some(brute_row_at(&points, &live, &points[i], usize::MAX, i)),
                    "by position, {}", i
                );
                let ids: Vec<usize> = (0..points.len()).filter(|&j| j != i && live[j]).collect();
                let candidates: Vec<&Point> = ids.iter().map(|&j| &points[j]).collect();
                let frontier: Vec<usize> = empty_rect_neighbors(&points[i], i, &candidates, |c| ids[c])
                    .into_iter()
                    .map(|ci| ids[ci])
                    .collect();
                prop_assert_eq!(frontier, want, "frontier, {}", i);
                prop_assert_eq!(
                    index.k_nearest_per_orthant(i, k),
                    Some(ranked_row(&points, &live, i, k)),
                    "k nearest, {}", i
                );
            }
        }
    }

    /// The nearest query is exact: on integer lattices, exponentially
    /// spread and uniform coordinates at D = 1–4, built whole or half
    /// inserted after the build (some points outside its box), through
    /// removals down to no live point, the answer for every indexed
    /// point and for outside positions is the exhaustive `(distance,
    /// rank)` minimum over the live points, under ranks that are not the
    /// ids' order.
    #[test]
    fn nearest_is_the_exhaustive_distance_rank_minimum(
        dim in 1usize..=4,
        family in 0u8..3,
        raw in vec(vec(0u8..40, 4), 4..60),
        outside in 0usize..4,
        late in 0u8..2,
        asked in vec(vec(0u8..40, 4), 1..6),
        victims in vec(0usize..1000, 0..8),
        salt in 0u64..1 << 62,
    ) {
        let points = tied_points(dim, family, &raw, outside);
        let n = points.len();
        let built = if late == 1 { n / 2 } else { n - outside };
        let mut index = GridIndex::build(&points[..built]);
        for p in &points[built..] {
            index.insert(p);
        }
        let rank: Vec<usize> = (0..n as u64)
            .map(|id| ((id ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize)
            .collect();
        let queries: Vec<Point> = (tied_points(dim, family, &asked, 1).into_iter())
            .chain(points.iter().cloned())
            .collect();
        let mut live = vec![true; n];
        for step in 0..=victims.len() {
            if step > 0 {
                let alive: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
                if alive.is_empty() {
                    break;
                }
                let victim = alive[victims[step - 1] % alive.len()];
                index.remove(victim);
                live[victim] = false;
            }
            for q in &queries {
                let want = (0..n)
                    .filter(|&j| live[j])
                    .map(|j| (l1(points[j].coords(), q.coords()), rank[j], j))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(_, _, j)| j);
                prop_assert_eq!(index.nearest(q, |id| rank[id]), want, "{:?}", q);
            }
        }
    }

    #[test]
    fn domination_is_transitive(
        family in 0u8..3,
        raw in vec(vec(0u8..40, 4), 4),
    ) {
        // Shared coordinates included, each point's id its position.
        let pts = tied_points(3, family, &raw, 0);
        let site = |i: usize| (pts[i].coords(), i);
        if rect_dominates(site(0), site(1), site(2)) && rect_dominates(site(0), site(2), site(3)) {
            prop_assert!(rect_dominates(site(0), site(1), site(3)));
        }
    }

    #[test]
    fn spanned_rect_membership_matches_domination(
        family in 0u8..3,
        raw in vec(vec(0u8..40, 4), 3),
    ) {
        let pts = tied_points(3, family, &raw, 0);
        let site = |i: usize| (pts[i].coords(), i);
        let rect = Rect::spanned_open(&pts[0], 0, &pts[1], 1).unwrap();
        prop_assert_eq!(rect.contains_id(&pts[2], 2), rect_dominates(site(0), site(2), site(1)));
    }

    #[test]
    fn orthogonal_arrangement_agrees_with_orthants(
        dim in 1usize..=4,
        pts in distinct_points(4, 2),
    ) {
        let project = |p: &Point| Point::from_validated(p.coords()[..dim].to_vec());
        let p = project(&pts[0]);
        let q = project(&pts[1]);
        let arr = Arrangement::orthogonal(dim);
        let key = arr.classify(&p, &q);
        let orthant = Orthant::classify(&p, 0, &q, 1).unwrap();
        prop_assert_eq!(key.sides(), &orthant.signs(dim)[..]);
    }

    #[test]
    fn region_classification_is_deterministic(
        pts in distinct_points(3, 2),
    ) {
        let arr = Arrangement::signed(3);
        let k1 = arr.classify(&pts[0], &pts[1]);
        let k2 = arr.classify(&pts[0], &pts[1]);
        prop_assert_eq!(k1, k2);
    }
}
