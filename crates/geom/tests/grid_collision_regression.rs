//! Regression guard for the index's answers on a shared coordinate.
//!
//! The paper assumes coordinates distinct in every dimension; the index
//! does not. A point sharing a coordinate with the query point lies in
//! the query's own cell layer of that dimension, where the pruning
//! corner sits at the query's coordinate, so the walks scan it even when
//! it sits far beyond the k-NN prune horizon — every orthant already
//! saturated with closer candidates. The empty-rectangle walk orders it
//! by id: here it ranks above the query in the shared dimension, nearer
//! the query there than any other point of its orthant, so it is a
//! neighbour. The k-nearest walk must rank it on the positive side of
//! the shared dimension. The original implementation noticed such a
//! point only while scanning a cell, which this workload was built to
//! catch.

use geocast_geom::dominance::empty_rect_neighbors_naive;
use geocast_geom::index::GridIndex;
use geocast_geom::{l1, Point};

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
fn knn_answers_a_collision_beyond_prune_horizon() {
    let pts = colliding_workload();
    let index = GridIndex::build(&pts);
    assert!(
        index.side() > 1,
        "repro needs a multi-cell grid (prune horizon must exist), side={}",
        index.side()
    );
    let p = &pts[0];
    for k in [1, 2, 4, pts.len()] {
        // The definition: each orthant's best `k` by `(distance, id)`, a
        // shared coordinate on the positive side.
        let mut want = vec![Vec::new(); 4];
        for (j, q) in pts.iter().enumerate().skip(1) {
            let o = usize::from(q[0] >= p[0]) | usize::from(q[1] >= p[1]) << 1;
            want[o].push((l1(p.coords(), q.coords()), j));
        }
        let want: Vec<Vec<usize>> = (want.into_iter())
            .map(|mut g| {
                g.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                g.into_iter().take(k).map(|(_, j)| j).collect()
            })
            .collect();
        assert_eq!(
            index.k_nearest_per_orthant(0, k),
            Some(want),
            "K={k}: point 16 at (100, 0) shares y == 0.0 with the query point \
             at the origin and ranks in (+, +); with K=1 that orthant already \
             holds a closer candidate, so the corner bound cuts its cell \
             column before it is scanned"
        );
    }
}

#[test]
fn empty_rect_answers_the_same_far_collision() {
    let pts = colliding_workload();
    let index = GridIndex::build(&pts);
    let far = pts.len() - 1;
    let want: Vec<usize> = empty_rect_neighbors_naive(&pts[0], 0, &pts[1..], |c| c + 1)
        .into_iter()
        .map(|ci| ci + 1)
        .collect();
    assert!(want.contains(&far));
    assert_eq!(
        index.empty_rect_neighbors(0),
        Some(want),
        "the far point sharing y == 0.0 with point 0 ranks above it there \
         by id, nearer it in y than anything else in (+, +): a neighbour \
         however far it lies"
    );
}
