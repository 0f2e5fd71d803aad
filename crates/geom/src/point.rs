use std::fmt;
use std::ops::Index;

use crate::GeomError;

/// A point in `D`-dimensional virtual-coordinate space.
///
/// Points are the self-generated identifiers of peers in the geocast
/// overlay. Construction validates that every coordinate is finite and
/// that the point has at least one dimension; the paper's additional
/// assumption — that coordinates are distinct *across peers* within each
/// dimension — is a property of point **sets**, enforced by
/// [`PointSet::ensure_distinct`] and by the generators in [`crate::gen`].
///
/// # Example
///
/// ```
/// use geocast_geom::Point;
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let p = Point::new(vec![1.0, 2.5, 3.0])?;
/// assert_eq!(p.dim(), 3);
/// assert_eq!(p[1], 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyPoint`] if `coords` is empty and
    /// [`GeomError::NonFiniteCoordinate`] if any coordinate is NaN or
    /// infinite.
    pub fn new(coords: Vec<f64>) -> Result<Self, GeomError> {
        if coords.is_empty() {
            return Err(GeomError::EmptyPoint);
        }
        for (dim, &value) in coords.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value });
            }
        }
        Ok(Point { coords })
    }

    /// Creates a point without validation.
    ///
    /// Intended for hot paths that construct points from already-validated
    /// data (e.g. workload generators). Debug builds still assert the
    /// invariants.
    #[must_use]
    pub fn from_validated(coords: Vec<f64>) -> Self {
        debug_assert!(!coords.is_empty());
        debug_assert!(coords.iter().all(|c| c.is_finite()));
        Point { coords }
    }

    /// Number of dimensions of the point.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinates as a slice.
    #[must_use]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The coordinate in dimension `dim`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, dim: usize) -> Option<f64> {
        self.coords.get(dim).copied()
    }

    /// Returns a copy of this point with dimension `dim` replaced by
    /// `value`.
    ///
    /// Used by the stability-tree construction of §3, which overwrites the
    /// first coordinate with the peer's departure time `T(P)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `value` is not finite.
    #[must_use]
    pub fn with_coord(&self, dim: usize, value: f64) -> Self {
        assert!(dim < self.dim(), "dimension {dim} out of range");
        assert!(value.is_finite(), "coordinate must be finite");
        let mut coords = self.coords.clone();
        coords[dim] = value;
        Point { coords }
    }

    /// Checks that `self` and `other` have the same dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] otherwise.
    pub fn check_dim(&self, other: &Point) -> Result<(), GeomError> {
        if self.dim() == other.dim() {
            Ok(())
        } else {
            Err(GeomError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            })
        }
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, dim: usize) -> &f64 {
        &self.coords[dim]
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[f64]> for Point {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

impl AsRef<Point> for Point {
    fn as_ref(&self) -> &Point {
        self
    }
}

impl TryFrom<Vec<f64>> for Point {
    type Error = GeomError;

    fn try_from(coords: Vec<f64>) -> Result<Self, GeomError> {
        Point::new(coords)
    }
}

/// An owned collection of same-dimensional points (one per peer).
///
/// `PointSet` is the workload handed to overlay and multicast experiments.
/// It validates the paper's standing assumptions: uniform dimensionality
/// and (optionally) per-dimension distinctness.
///
/// # Example
///
/// ```
/// use geocast_geom::{Point, PointSet};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let set = PointSet::new(vec![
///     Point::new(vec![0.0, 5.0])?,
///     Point::new(vec![1.0, 3.0])?,
/// ])?;
/// assert_eq!(set.len(), 2);
/// set.ensure_distinct()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointSet {
    points: Vec<Point>,
    dim: usize,
}

impl PointSet {
    /// Creates a point set, validating uniform dimensionality.
    ///
    /// An empty set is permitted and has dimension 0 until extended.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the points disagree on
    /// dimensionality.
    pub fn new(points: Vec<Point>) -> Result<Self, GeomError> {
        let dim = points.first().map_or(0, Point::dim);
        for p in &points {
            if p.dim() != dim {
                return Err(GeomError::DimensionMismatch {
                    left: dim,
                    right: p.dim(),
                });
            }
        }
        Ok(PointSet { points, dim })
    }

    /// Number of points in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the set holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality shared by all points (0 for an empty set).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The points as a slice.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Borrowing iterator over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Appends a point.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if `point` disagrees with
    /// the set's dimensionality (non-empty sets only).
    pub fn push(&mut self, point: Point) -> Result<(), GeomError> {
        if self.points.is_empty() {
            self.dim = point.dim();
        } else if point.dim() != self.dim {
            return Err(GeomError::DimensionMismatch {
                left: self.dim,
                right: point.dim(),
            });
        }
        self.points.push(point);
        Ok(())
    }

    /// Verifies the paper's distinctness assumption: within every
    /// dimension, no two points share a coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DuplicateCoordinate`] identifying the first
    /// collision found.
    // lint:allow(D006, reason = "how gen's tests see the per-dimension distinctness draw_distinct gives every generated set: the paper's assumption, which the tie rule (above) makes nothing rely on")
    pub fn ensure_distinct(&self) -> Result<(), GeomError> {
        for dim in 0..self.dim {
            let mut values: Vec<f64> = self.points.iter().map(|p| p[dim]).collect();
            values.sort_by(f64::total_cmp);
            for w in values.windows(2) {
                if w[0] == w[1] {
                    return Err(GeomError::DuplicateCoordinate { dim, value: w[0] });
                }
            }
        }
        Ok(())
    }

    /// Consumes the set, returning the points.
    #[must_use]
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

impl Index<usize> for PointSet {
    type Output = Point;

    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for PointSet {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).expect("valid point")
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Point::new(vec![]), Err(GeomError::EmptyPoint));
    }

    #[test]
    fn new_rejects_nan() {
        let err = Point::new(vec![1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, GeomError::NonFiniteCoordinate { dim: 1, .. }));
    }

    #[test]
    fn new_rejects_infinity() {
        let err = Point::new(vec![f64::INFINITY]).unwrap_err();
        assert!(matches!(err, GeomError::NonFiniteCoordinate { dim: 0, .. }));
    }

    #[test]
    fn accessors_agree() {
        let p = pt(&[1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p.get(2), Some(3.0));
        assert_eq!(p.get(3), None);
        assert_eq!(p[0], 1.0);
    }

    #[test]
    fn with_coord_replaces_single_dimension() {
        let p = pt(&[1.0, 2.0]);
        let q = p.with_coord(0, 9.0);
        assert_eq!(q.coords(), &[9.0, 2.0]);
        assert_eq!(p.coords(), &[1.0, 2.0], "original untouched");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_coord_panics_out_of_range() {
        let _ = pt(&[1.0]).with_coord(1, 0.0);
    }

    #[test]
    fn check_dim_detects_mismatch() {
        let p = pt(&[1.0]);
        let q = pt(&[1.0, 2.0]);
        assert!(p.check_dim(&q).is_err());
        assert!(p.check_dim(&p).is_ok());
    }

    #[test]
    fn display_formats_tuple() {
        assert_eq!(pt(&[1.0, 2.5]).to_string(), "(1, 2.5)");
    }

    #[test]
    fn try_from_round_trips() {
        let p = Point::try_from(vec![4.0, 5.0]).unwrap();
        assert_eq!(p.coords(), [4.0, 5.0]);
    }

    #[test]
    fn point_set_validates_dimensions() {
        let err = PointSet::new(vec![pt(&[1.0]), pt(&[1.0, 2.0])]).unwrap_err();
        assert!(matches!(
            err,
            GeomError::DimensionMismatch { left: 1, right: 2 }
        ));
    }

    #[test]
    fn point_set_push_sets_dim_from_first() {
        let mut set = PointSet::default();
        assert_eq!(set.dim(), 0);
        set.push(pt(&[1.0, 2.0])).unwrap();
        assert_eq!(set.dim(), 2);
        assert!(set.push(pt(&[3.0])).is_err());
    }

    #[test]
    fn ensure_distinct_detects_collision() {
        let set = PointSet::new(vec![pt(&[1.0, 2.0]), pt(&[3.0, 2.0])]).unwrap();
        let err = set.ensure_distinct().unwrap_err();
        assert_eq!(err, GeomError::DuplicateCoordinate { dim: 1, value: 2.0 });
    }

    #[test]
    fn ensure_distinct_accepts_distinct() {
        let set = PointSet::new(vec![pt(&[1.0, 2.0]), pt(&[3.0, 4.0])]).unwrap();
        assert!(set.ensure_distinct().is_ok());
    }

    #[test]
    fn iteration_yields_all_points() {
        let set = PointSet::new(vec![pt(&[1.0]), pt(&[2.0])]).unwrap();
        let dims: Vec<f64> = set.iter().map(|p| p[0]).collect();
        assert_eq!(dims, vec![1.0, 2.0]);
        assert_eq!(set.clone().into_iter().count(), 2);
        assert_eq!(set[1][0], 2.0);
    }
}
