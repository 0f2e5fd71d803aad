//! Reproducible workload generators.
//!
//! All generators take an explicit seed and guarantee the paper's standing
//! assumption that coordinates are **distinct within every dimension**
//! (collisions are re-drawn; with `f64` coordinates they are already
//! astronomically unlikely, but the guarantee is load-bearing for the
//! orthant classification, so it is enforced rather than assumed).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Point, PointSet};

/// Draws one coordinate that is distinct (as a bit pattern) from every
/// value already used in its dimension.
// lint:allow(D001, reason = "bit-pattern membership set for rejection sampling; queried only, never iterated, so no order reaches the replay stream")
fn draw_distinct(rng: &mut StdRng, lo: f64, hi: f64, used: &mut HashSet<u64>) -> f64 {
    loop {
        let v: f64 = rng.random_range(lo..hi);
        if used.insert(v.to_bits()) {
            return v;
        }
    }
}

/// `n` points drawn uniformly from `[0, vmax)^dim` with per-dimension
/// distinct coordinates — the workload of every experiment in the paper.
///
/// # Example
///
/// ```
/// use geocast_geom::gen::uniform_points;
///
/// let set = uniform_points(100, 3, 1000.0, 42);
/// assert_eq!(set.len(), 100);
/// assert_eq!(set.dim(), 3);
/// set.ensure_distinct().expect("generators guarantee distinctness");
/// ```
///
/// # Panics
///
/// Panics if `dim == 0` or `vmax` is not strictly positive.
#[must_use]
pub fn uniform_points(n: usize, dim: usize, vmax: f64, seed: u64) -> PointSet {
    assert!(dim > 0, "points need at least one dimension");
    assert!(vmax > 0.0, "vmax must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    // lint:allow(D001, reason = "bit-pattern membership set for rejection sampling; queried only, never iterated, so no order reaches the replay stream")
    let mut used: Vec<HashSet<u64>> = vec![HashSet::with_capacity(n); dim];
    let points = (0..n)
        .map(|_| {
            let coords = (0..dim)
                .map(|d| draw_distinct(&mut rng, 0.0, vmax, &mut used[d]))
                .collect();
            Point::from_validated(coords)
        })
        .collect();
    PointSet::new(points).expect("generated points share dimensionality")
}

/// `n` points grouped around `clusters` uniformly-placed centres with the
/// given per-coordinate `spread`, clamped to `[0, vmax)` and re-drawn
/// until distinct.
///
/// Clustered identifiers model peers that self-generate coordinates from
/// correlated sources (e.g. landmark-based latency embeddings); they
/// stress the selection methods' behaviour away from the uniform
/// assumption.
///
/// # Panics
///
/// Panics if `dim == 0`, `clusters == 0`, `vmax <= 0`, or `spread < 0`.
#[must_use]
// lint:allow(D006, reason = "ROADMAP item 5 names it: the placement of its churn_skewed workload")
pub fn clustered_points(
    n: usize,
    dim: usize,
    vmax: f64,
    clusters: usize,
    spread: f64,
    seed: u64,
) -> PointSet {
    assert!(dim > 0, "points need at least one dimension");
    assert!(clusters > 0, "need at least one cluster");
    assert!(vmax > 0.0, "vmax must be positive");
    assert!(spread >= 0.0, "spread must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.random_range(0.0..vmax)).collect())
        .collect();
    // lint:allow(D001, reason = "bit-pattern membership set for rejection sampling; queried only, never iterated, so no order reaches the replay stream")
    let mut used: Vec<HashSet<u64>> = vec![HashSet::with_capacity(n); dim];
    let points = (0..n)
        .map(|i| {
            let centre = &centres[i % clusters];
            let coords = (0..dim)
                .map(|d| loop {
                    let offset = rng.random_range(-spread..=spread);
                    let v = (centre[d] + offset).clamp(0.0, vmax - f64::EPSILON * vmax);
                    if used[d].insert(v.to_bits()) {
                        break v;
                    }
                })
                .collect();
            Point::from_validated(coords)
        })
        .collect();
    PointSet::new(points).expect("generated points share dimensionality")
}

/// A jittered grid of `side^dim` points spanning `[0, vmax)`:
/// regular structure (worst case for space partitioning balance) with
/// just enough per-coordinate jitter to preserve distinctness.
///
/// # Panics
///
/// Panics if `dim == 0`, `side == 0`, or `vmax <= 0`.
#[must_use]
// lint:allow(D006, reason = "ROADMAP item 5 names it: the lattice on which the index's shared-coordinate decline is to be measured")
pub fn grid_points_jittered(side: usize, dim: usize, vmax: f64, seed: u64) -> PointSet {
    assert!(dim > 0, "points need at least one dimension");
    assert!(side > 0, "grid side must be positive");
    assert!(vmax > 0.0, "vmax must be positive");
    let n = side.pow(dim as u32);
    let cell = vmax / side as f64;
    let jitter = cell / 1000.0;
    let mut rng = StdRng::seed_from_u64(seed);
    // lint:allow(D001, reason = "bit-pattern membership set for rejection sampling; queried only, never iterated, so no order reaches the replay stream")
    let mut used: Vec<HashSet<u64>> = vec![HashSet::with_capacity(n); dim];
    let points = (0..n)
        .map(|mut idx| {
            let coords = (0..dim)
                .map(|d| {
                    let step = idx % side;
                    idx /= side;
                    loop {
                        let v = (step as f64 + 0.5) * cell + rng.random_range(-jitter..jitter);
                        if used[d].insert(v.to_bits()) {
                            break v;
                        }
                    }
                })
                .collect();
            Point::from_validated(coords)
        })
        .collect();
    PointSet::new(points).expect("generated points share dimensionality")
}

/// `n` distinct departure times `T(*)` drawn uniformly from
/// `(0, max_t)` — the §3 lifetime workload (cloud lease expiries, sensor
/// battery depletion times).
///
/// # Panics
///
/// Panics if `max_t` is not strictly positive.
#[must_use]
pub fn lifetimes(n: usize, max_t: f64, seed: u64) -> Vec<f64> {
    assert!(max_t > 0.0, "max_t must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    // lint:allow(D001, reason = "bit-pattern membership set for rejection sampling; queried only, never iterated, so no order reaches the replay stream")
    let mut used = HashSet::with_capacity(n);
    (0..n)
        .map(|_| loop {
            let v: f64 = rng.random_range(f64::MIN_POSITIVE..max_t);
            if used.insert(v.to_bits()) {
                break v;
            }
        })
        .collect()
}

/// Embeds departure times into identifiers per §3 of the paper: the first
/// coordinate of each point is replaced by its `T(*)` value.
///
/// # Panics
///
/// Panics if `times.len() != set.len()` or the set is empty of
/// dimensions.
#[must_use]
pub fn embed_lifetimes(set: &PointSet, times: &[f64]) -> PointSet {
    assert_eq!(
        set.len(),
        times.len(),
        "one departure time per point required"
    );
    let points = set
        .iter()
        .zip(times)
        .map(|(p, &t)| p.with_coord(0, t))
        .collect();
    PointSet::new(points).expect("embedding preserves dimensionality")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VMAX;

    #[test]
    fn uniform_points_are_distinct_and_in_range() {
        let set = uniform_points(500, 4, 100.0, 7);
        assert_eq!(set.len(), 500);
        assert_eq!(set.dim(), 4);
        set.ensure_distinct().unwrap();
        for p in &set {
            for d in 0..4 {
                assert!((0.0..100.0).contains(&p[d]));
            }
        }
    }

    #[test]
    fn uniform_points_are_reproducible_per_seed() {
        let a = uniform_points(50, 2, VMAX, 13);
        let b = uniform_points(50, 2, VMAX, 13);
        let c = uniform_points(50, 2, VMAX, 14);
        assert_eq!(a, b, "same seed must reproduce bit-for-bit");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn clustered_points_are_distinct() {
        let set = clustered_points(300, 3, 1000.0, 5, 20.0, 99);
        assert_eq!(set.len(), 300);
        set.ensure_distinct().unwrap();
    }

    #[test]
    fn clustered_points_actually_cluster() {
        // With tiny spread, points of the same cluster are much closer to
        // their centre than vmax.
        let set = clustered_points(100, 2, 1000.0, 2, 1.0, 3);
        // Points alternate clusters (i % clusters); consecutive same-cluster
        // points are within 2*spread per coordinate.
        let p0 = &set[0];
        let p2 = &set[2];
        for d in 0..2 {
            assert!((p0[d] - p2[d]).abs() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn grid_points_have_expected_count_and_distinctness() {
        let set = grid_points_jittered(4, 2, 100.0, 5);
        assert_eq!(set.len(), 16);
        set.ensure_distinct().unwrap();
    }

    #[test]
    fn lifetimes_are_distinct_positive() {
        let ts = lifetimes(1000, 3600.0, 21);
        assert_eq!(ts.len(), 1000);
        let mut sorted = ts.clone();
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            assert!(w[0] < w[1], "lifetimes must be strictly distinct");
        }
        assert!(ts.iter().all(|&t| t > 0.0 && t < 3600.0));
    }

    #[test]
    fn embed_lifetimes_overwrites_first_coordinate() {
        let set = uniform_points(5, 3, 100.0, 8);
        let ts = lifetimes(5, 50.0, 9);
        let embedded = embed_lifetimes(&set, &ts);
        for (i, p) in embedded.iter().enumerate() {
            assert_eq!(p[0], ts[i]);
            assert_eq!(p[1], set[i][1]);
            assert_eq!(p[2], set[i][2]);
        }
    }

    #[test]
    #[should_panic(expected = "one departure time per point")]
    fn embed_lifetimes_requires_matching_lengths() {
        let set = uniform_points(3, 2, 10.0, 0);
        let _ = embed_lifetimes(&set, &[1.0]);
    }
}
