//! Regression guard for the index's collision-decline contract.
//!
//! `GridIndex` queries must return `None` whenever another live point
//! shares a coordinate with the reference point in any dimension (the
//! paper's per-dimension distinctness assumption is violated and
//! callers must fall back to the brute-force rule). The original
//! implementation only noticed collisions while *scanning* a cell, so a
//! colliding point sitting beyond the k-NN prune horizon — every orthant
//! already saturated with closer candidates, its cell column cut by the
//! corner bound — was silently ignored and the query answered as if the
//! workload were distinct. Collisions are now detected from
//! per-dimension coordinate multiplicity tables before any cell is
//! walked, which this test pins down.

use geocast_geom::index::GridIndex;
use geocast_geom::Point;

/// Builds the repro workload: a query point at the origin surrounded by
/// one close candidate per orthant, a diagonal streak of filler points
/// that keeps the grid multi-cell, and one far point sharing `y == 0.0`
/// with the query point.
fn colliding_workload() -> Vec<Point> {
    let mut pts = vec![
        Point::new(vec![0.0, 0.0]).unwrap(),
        Point::new(vec![1.0, 1.0]).unwrap(),
        Point::new(vec![1.5, -1.0]).unwrap(),
        Point::new(vec![-1.0, 2.0]).unwrap(),
        Point::new(vec![-1.5, -2.0]).unwrap(),
    ];
    for i in 0..11 {
        let x = 10.0 + 7.3 * f64::from(i);
        let y = -40.0 + 11.7 * f64::from(i);
        pts.push(Point::new(vec![x, y]).unwrap());
    }
    pts.push(Point::new(vec![100.0, 0.0]).unwrap()); // collides with point 0 in y
    pts
}

#[test]
fn knn_declines_on_collision_beyond_prune_horizon() {
    let pts = colliding_workload();
    let index = GridIndex::build(&pts);
    assert!(
        index.side() > 1,
        "repro needs a multi-cell grid (prune horizon must exist), side={}",
        index.side()
    );
    let got = index.k_nearest_per_orthant(0, 1);
    assert_eq!(
        got, None,
        "point 17 at (100, 0) shares y == 0.0 with the query point at the \
         origin; with K=1 every orthant already holds a closer candidate, so \
         the corner bound cuts its cell column before it is scanned — the \
         collision must still make the query decline"
    );
}

#[test]
fn empty_rect_declines_on_the_same_far_collision() {
    let pts = colliding_workload();
    let index = GridIndex::build(&pts);
    assert_eq!(
        index.empty_rect_neighbors(0),
        None,
        "the empty-rectangle query shares the decline contract: a far \
         coordinate collision (pruned or not) voids per-dimension \
         distinctness for point 0"
    );
}
