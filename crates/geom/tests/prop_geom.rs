//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the overlay and partitioner lean on:
//! orthant totality, zone algebra closure, metric axioms, and — most
//! importantly — the equivalence between the paper's empty-rectangle
//! neighbour rule and the per-orthant Pareto frontier.

use geocast_geom::dominance::{empty_rect_neighbors, empty_rect_neighbors_naive, rect_dominates};
use geocast_geom::{Arrangement, GridIndex, Interval, Metric, MetricKind, Orthant, Point, Rect};
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

/// `p`'s empty-rectangle row over the live points, by the dominance
/// module's brute force (which falls back to the naive rule on
/// coordinate collisions — the store's reference semantics).
fn brute_row(points: &[Point], live: &[bool], p: usize) -> Vec<usize> {
    let ids: Vec<usize> = (0..points.len()).filter(|&j| j != p && live[j]).collect();
    let candidates: Vec<&Point> = ids.iter().map(|&j| &points[j]).collect();
    empty_rect_neighbors(&points[p], &candidates)
        .into_iter()
        .map(|ci| ids[ci])
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
        for q in &pts[1..] {
            let q = project(q);
            let o = Orthant::classify(&p, &q).expect("distinct coords classify totally");
            let back = Orthant::classify(&q, &p).expect("reverse classifies too");
            prop_assert_eq!(o.bits() ^ back.bits(), (1u32 << dim) - 1, "every sign flips");
            // The orthant rect contains q and excludes p.
            let hr = Rect::orthant_of(&p, o);
            prop_assert!(hr.contains(&q));
            prop_assert!(!hr.contains(&p));
        }
    }

    #[test]
    fn orthant_rects_partition_points(
        pts in (3usize..12).prop_flat_map(|n| distinct_points(3, n)),
    ) {
        let p = &pts[0];
        for q in &pts[1..] {
            let covering = Orthant::all(3)
                .filter(|&o| Rect::orthant_of(p, o).contains(q))
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
        let a = Rect::spanned_open(&pts[0], &pts[1]).unwrap();
        let b = Rect::spanned_open(&pts[2], &pts[3]).unwrap();
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
        for kind in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
            let dab = kind.dist(&a, &b);
            let dba = kind.dist(&b, &a);
            let dac = kind.dist(&a, &c);
            let dcb = kind.dist(&c, &b);
            prop_assert!(dab >= 0.0);
            prop_assert_eq!(dab, dba, "{} symmetry", kind);
            prop_assert_eq!(kind.dist(&a, &a), 0.0);
            // Triangle inequality with an epsilon for float rounding.
            prop_assert!(dab <= dac + dcb + 1e-9, "{} triangle", kind);
        }
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
        let mut naive = empty_rect_neighbors_naive(&p, &cands);
        naive.sort_unstable();
        let fast = empty_rect_neighbors(&p, &cands);
        prop_assert_eq!(fast, naive);
    }

    /// The full query on a churned index: after each of a few random
    /// removals every survivor's row equals the brute force, and the
    /// index declines exactly when a live point shares a coordinate
    /// with the query — over uniform, clustered and degenerate-extent
    /// populations, points inserted outside the built box, and an
    /// optional coordinate collider.
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
                let collides = alive.iter().any(|&j| {
                    j != i && j != victim && (0..dim).any(|d| points[j][d] == points[i][d])
                });
                let row = index.empty_rect_neighbors(i);
                prop_assert_eq!(row.is_none(), collides, "decline at {}", i);
                if let Some(row) = row {
                    prop_assert_eq!(row, brute_row(&points, &live, i), "!= brute at {}", i);
                }
            }
        }
    }

    #[test]
    fn domination_is_transitive(
        pts in distinct_points(3, 4),
    ) {
        let (p, a, b, c) = (&pts[0], &pts[1], &pts[2], &pts[3]);
        if rect_dominates(p, a, b) && rect_dominates(p, b, c) {
            prop_assert!(rect_dominates(p, a, c));
        }
    }

    #[test]
    fn spanned_rect_membership_matches_domination(
        pts in distinct_points(3, 3),
    ) {
        let (p, q, r) = (&pts[0], &pts[1], &pts[2]);
        let rect = Rect::spanned_open(p, q).unwrap();
        prop_assert_eq!(rect.contains(r), rect_dominates(p, r, q));
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
        let orthant = Orthant::classify(&p, &q).unwrap();
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
