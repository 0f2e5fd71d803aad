//! Network latency models.
//!
//! A [`LatencyModel`] decides how long a message takes from sender to
//! receiver. Latency does not change *which* topology the paper's
//! algorithms converge to (selection is driven by virtual coordinates,
//! not delay), but it does exercise message interleavings in the
//! protocols, so the integration tests run under several models.

use rand::rngs::StdRng;
use rand::Rng;

use geocast_geom::Point;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Decides the delivery delay of each message.
///
/// Implementations receive the simulation RNG so random models stay
/// deterministic per seed.
pub trait LatencyModel {
    /// Delay for a message from `from` to `to`.
    fn latency(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> SimDuration;
}

/// Every message takes the same fixed delay (the default: 10 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantLatency(pub SimDuration);

impl Default for ConstantLatency {
    fn default() -> Self {
        ConstantLatency(SimDuration::from_millis(10))
    }
}

impl LatencyModel for ConstantLatency {
    fn latency(&self, _from: NodeId, _to: NodeId, _rng: &mut StdRng) -> SimDuration {
        self.0
    }
}

/// Message delays drawn uniformly from `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformLatency {
    min: SimDuration,
    max: SimDuration,
}

impl UniformLatency {
    /// Creates a uniform latency model over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    #[must_use]
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "uniform latency requires min <= max");
        UniformLatency { min, max }
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&self, _from: NodeId, _to: NodeId, rng: &mut StdRng) -> SimDuration {
        if self.min == self.max {
            return self.min;
        }
        SimDuration::from_nanos(rng.random_range(self.min.as_nanos()..=self.max.as_nanos()))
    }
}

/// Delay proportional to the Euclidean distance between node coordinates
/// (plus a fixed base), modelling overlays whose virtual coordinates
/// approximate network proximity.
#[derive(Debug, Clone)]
pub struct CoordDistanceLatency {
    /// Node `i`'s coordinates at `coords[i * dim..][..dim]`: one flat
    /// array, because every message reads two of them.
    coords: Vec<f64>,
    dim: usize,
    base: SimDuration,
    per_unit: SimDuration,
}

impl CoordDistanceLatency {
    /// Creates the model from per-node positions.
    ///
    /// `base` is added to every message; `per_unit` scales the Euclidean
    /// distance between endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the positions differ in dimensionality.
    #[must_use]
    pub fn new(positions: Vec<Point>, base: SimDuration, per_unit: SimDuration) -> Self {
        let dim = positions.first().map_or(0, Point::dim);
        assert!(
            positions.iter().all(|p| p.dim() == dim),
            "positions must share one dimensionality"
        );
        CoordDistanceLatency {
            coords: positions.iter().flat_map(Point::coords).copied().collect(),
            dim,
            base,
            per_unit,
        }
    }

    fn coords_of(&self, node: NodeId) -> &[f64] {
        &self.coords[node.index() * self.dim..][..self.dim]
    }
}

impl LatencyModel for CoordDistanceLatency {
    /// # Panics
    ///
    /// Panics if either node has no registered position.
    fn latency(&self, from: NodeId, to: NodeId, _rng: &mut StdRng) -> SimDuration {
        // `L2::dist` term for term (the sum order fixes the bits).
        let d = self
            .coords_of(from)
            .iter()
            .zip(self.coords_of(to))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        self.base + SimDuration::from_nanos((self.per_unit.as_nanos() as f64 * d).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_ignores_endpoints_and_rng() {
        let model = ConstantLatency(SimDuration::from_millis(5));
        let mut rng = StdRng::seed_from_u64(0);
        let d1 = model.latency(NodeId(0), NodeId(1), &mut rng);
        let d2 = model.latency(NodeId(7), NodeId(3), &mut rng);
        assert_eq!(d1, d2);
        assert_eq!(d1, SimDuration::from_millis(5));
    }

    #[test]
    fn default_constant_is_ten_ms() {
        assert_eq!(ConstantLatency::default().0, SimDuration::from_millis(10));
    }

    #[test]
    fn uniform_stays_in_bounds_and_is_seed_deterministic() {
        let model = UniformLatency::new(SimDuration::from_millis(1), SimDuration::from_millis(9));
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let d1 = model.latency(NodeId(0), NodeId(1), &mut r1);
            let d2 = model.latency(NodeId(0), NodeId(1), &mut r2);
            assert_eq!(d1, d2, "same seed, same delays");
            assert!(d1 >= SimDuration::from_millis(1) && d1 <= SimDuration::from_millis(9));
        }
    }

    #[test]
    fn uniform_degenerate_range_is_constant() {
        let d = SimDuration::from_millis(4);
        let model = UniformLatency::new(d, d);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(model.latency(NodeId(0), NodeId(1), &mut rng), d);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformLatency::new(SimDuration::from_millis(2), SimDuration::from_millis(1));
    }

    #[test]
    fn coord_distance_scales_with_separation() {
        let positions = vec![
            Point::from_validated(vec![0.0, 0.0]),
            Point::from_validated(vec![3.0, 4.0]),
            Point::from_validated(vec![0.0, 1.0]),
        ];
        let model = CoordDistanceLatency::new(
            positions,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let far = model.latency(NodeId(0), NodeId(1), &mut rng);
        let near = model.latency(NodeId(0), NodeId(2), &mut rng);
        assert_eq!(far, SimDuration::from_millis(11)); // 1 + 2*5
        assert_eq!(near, SimDuration::from_millis(3)); // 1 + 2*1
        assert!(near < far);
    }

    #[test]
    fn coord_distance_is_the_l2_metric_bit_for_bit() {
        use geocast_geom::{Metric, L2};
        let points = geocast_geom::gen::uniform_points(12, 3, 1000.0, 9).into_points();
        let per_unit = SimDuration::from_nanos(15_000);
        let model = CoordDistanceLatency::new(points.clone(), SimDuration::ZERO, per_unit);
        let mut rng = StdRng::seed_from_u64(0);
        for (i, a) in points.iter().enumerate() {
            for (j, b) in points.iter().enumerate() {
                let want = (per_unit.as_nanos() as f64 * L2.dist(a, b)).round() as u64;
                let got = model.latency(NodeId(i), NodeId(j), &mut rng);
                assert_eq!(got, SimDuration::from_nanos(want), "{i} -> {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one dimensionality")]
    fn coord_distance_rejects_mixed_dimensionality() {
        let positions = vec![
            Point::from_validated(vec![0.0, 0.0]),
            Point::from_validated(vec![1.0]),
        ];
        let _ = CoordDistanceLatency::new(positions, SimDuration::ZERO, SimDuration::ZERO);
    }
}
