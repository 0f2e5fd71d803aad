//! Hyperplane arrangements through the origin — the paper's generic
//! "Hyperplanes" neighbour-selection machinery.
//!
//! A peer `P` conceptually translates every candidate `Q` so that `P`
//! becomes the origin; a set of `H` hyperplanes through the origin then
//! divides space into regions, and `P` keeps the `K` closest candidates
//! per region. This module provides the arrangement and region
//! classification; the selection logic itself lives in `geocast-overlay`.
//!
//! Three arrangements from the paper are built in:
//!
//! * [`Arrangement::orthogonal`] — the `D` axis planes `x(i) = 0`
//!   (regions = orthants; the *Orthogonal Hyperplanes* method),
//! * [`Arrangement::signed`] — all normals with coefficients in
//!   `{-1, 0, +1}` (from the authors' prior storage architecture),
//! * [`Arrangement::none`] — `H = 0`, a single region (the *K-closest*
//!   method).

use std::fmt;

use crate::{GeomError, Point};

/// A hyperplane through the origin, `normal · x = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    normal: Vec<f64>,
}

impl Hyperplane {
    /// Creates a hyperplane from its normal vector.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ZeroNormal`] for an all-zero normal,
    /// [`GeomError::EmptyPoint`] for an empty one, and
    /// [`GeomError::NonFiniteCoordinate`] for NaN/infinite components.
    pub fn new(normal: Vec<f64>) -> Result<Self, GeomError> {
        if normal.is_empty() {
            return Err(GeomError::EmptyPoint);
        }
        for (dim, &value) in normal.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value });
            }
        }
        if normal.iter().all(|&c| c == 0.0) {
            return Err(GeomError::ZeroNormal);
        }
        Ok(Hyperplane { normal })
    }

    /// The normal vector.
    #[must_use]
    pub fn normal(&self) -> &[f64] {
        &self.normal
    }

    /// Dimensionality of the ambient space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.normal.len()
    }

    /// Which side of the plane the **offset** vector lies on: `+1` for a
    /// positive dot product, `-1` for negative, `0` exactly on the plane.
    #[must_use]
    pub fn side(&self, offset: &[f64]) -> i8 {
        debug_assert_eq!(offset.len(), self.normal.len());
        let dot: f64 = self.normal.iter().zip(offset).map(|(n, x)| n * x).sum();
        if dot > 0.0 {
            1
        } else if dot < 0.0 {
            -1
        } else {
            0
        }
    }
}

/// Identifier of a region of a hyperplane arrangement: the vector of
/// sides (`+1`/`-1`) relative to each plane.
///
/// Points lying exactly on a plane are deterministically assigned to the
/// positive side, so region classification is total. (Per-dimension
/// distinctness rules this out for the orthogonal arrangement; oblique
/// arrangements such as [`Arrangement::signed`] can still produce exact
/// hits.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey(Vec<i8>);

impl RegionKey {
    /// The per-plane sides defining the region.
    #[must_use]
    pub fn sides(&self) -> &[i8] {
        &self.0
    }
}

impl fmt::Display for RegionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", if *s >= 0 { '+' } else { '-' })?;
        }
        write!(f, "]")
    }
}

/// The largest dimensionality [`Arrangement::signed`] builds
/// (`(3^D − 1) / 2` planes).
pub const MAX_SIGNED_DIM: usize = 12;

/// A set of hyperplanes through the origin dividing space into regions.
///
/// # Example
///
/// ```
/// use geocast_geom::{Arrangement, Point};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let arr = Arrangement::orthogonal(2);
/// let p = Point::new(vec![0.0, 0.0])?;
/// let a = Point::new(vec![1.0, 1.0])?;
/// let b = Point::new(vec![-1.0, 1.0])?;
/// assert_ne!(arr.classify(&p, &a), arr.classify(&p, &b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Arrangement {
    planes: Vec<Hyperplane>,
    dim: usize,
}

impl Arrangement {
    /// Builds an arrangement from explicit hyperplanes.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the planes disagree
    /// with `dim`.
    pub fn new(dim: usize, planes: Vec<Hyperplane>) -> Result<Self, GeomError> {
        for plane in &planes {
            if plane.dim() != dim {
                return Err(GeomError::DimensionMismatch {
                    left: dim,
                    right: plane.dim(),
                });
            }
        }
        Ok(Arrangement { planes, dim })
    }

    /// The *Orthogonal Hyperplanes* arrangement: the `D` planes
    /// `x(i) = 0`. Its regions are exactly the [`crate::Orthant`]s.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn orthogonal(dim: usize) -> Self {
        assert!(dim > 0, "arrangements require at least one dimension");
        let planes = (0..dim)
            .map(|d| {
                let mut normal = vec![0.0; dim];
                normal[d] = 1.0;
                Hyperplane { normal }
            })
            .collect();
        Arrangement { planes, dim }
    }

    /// The signed-coefficient arrangement: one plane per normal
    /// `a ∈ {-1, 0, +1}^D` (excluding zero, deduplicated up to sign by
    /// requiring the first non-zero coefficient to be `+1`), i.e.
    /// `(3^D - 1) / 2` planes.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `dim > MAX_SIGNED_DIM` (3^12 ≈ 531k planes
    /// is already far past anything useful; the guard catches accidental
    /// misconfiguration).
    #[must_use]
    pub fn signed(dim: usize) -> Self {
        assert!(dim > 0, "arrangements require at least one dimension");
        assert!(
            dim <= MAX_SIGNED_DIM,
            "signed arrangement would have 3^{dim}/2 planes"
        );
        let mut planes = Vec::new();
        let total = 3usize.pow(dim as u32);
        for code in 1..total {
            let mut digits = Vec::with_capacity(dim);
            let mut rest = code;
            for _ in 0..dim {
                digits.push((rest % 3) as i8 - 1); // -1, 0, +1
                rest /= 3;
            }
            // Keep one representative per ± pair: first non-zero digit +1.
            match digits.iter().find(|&&d| d != 0) {
                Some(1) => {}
                _ => continue,
            }
            planes.push(Hyperplane {
                normal: digits.iter().map(|&d| f64::from(d)).collect(),
            });
        }
        Arrangement { planes, dim }
    }

    /// The empty arrangement (`H = 0`): a single region containing all
    /// candidates, yielding the paper's *K-closest* method.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn none(dim: usize) -> Self {
        assert!(dim > 0, "arrangements require at least one dimension");
        Arrangement {
            planes: Vec::new(),
            dim,
        }
    }

    /// Dimensionality of the ambient space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hyperplanes `H`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// `true` if the arrangement has no planes (single region).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// The hyperplanes.
    #[must_use]
    pub fn planes(&self) -> &[Hyperplane] {
        &self.planes
    }

    /// `true` if this arrangement is exactly the orthogonal one for its
    /// dimensionality — `D` axis planes `x(i) = 0` in axis order, whose
    /// regions are the orthants. Index-accelerated selection paths use
    /// this to recognise when per-orthant queries apply.
    #[must_use]
    pub fn is_orthogonal(&self) -> bool {
        self.planes.len() == self.dim
            && self.planes.iter().enumerate().all(|(d, plane)| {
                plane
                    .normal
                    .iter()
                    .enumerate()
                    .all(|(j, &c)| if j == d { c == 1.0 } else { c == 0.0 })
            })
    }

    /// Classifies `q` into a region relative to reference point `p`
    /// (conceptually translating `p` to the origin, as the paper
    /// describes).
    ///
    /// Points exactly on a plane are assigned to its positive side, so the
    /// classification is total and deterministic.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch with the arrangement.
    #[must_use]
    pub fn classify(&self, p: &Point, q: &Point) -> RegionKey {
        assert_eq!(p.dim(), self.dim, "reference point dimension mismatch");
        assert_eq!(q.dim(), self.dim, "candidate point dimension mismatch");
        let offset: Vec<f64> = (0..self.dim).map(|d| q[d] - p[d]).collect();
        RegionKey(
            self.planes
                .iter()
                .map(|plane| if plane.side(&offset) >= 0 { 1 } else { -1 })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Orthant;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).expect("valid point")
    }

    #[test]
    fn hyperplane_rejects_bad_normals() {
        assert_eq!(Hyperplane::new(vec![]), Err(GeomError::EmptyPoint));
        assert_eq!(Hyperplane::new(vec![0.0, 0.0]), Err(GeomError::ZeroNormal));
        assert!(matches!(
            Hyperplane::new(vec![f64::NAN]),
            Err(GeomError::NonFiniteCoordinate { .. })
        ));
    }

    #[test]
    fn hyperplane_side_signs() {
        let h = Hyperplane::new(vec![1.0, -1.0]).unwrap();
        assert_eq!(h.side(&[2.0, 1.0]), 1);
        assert_eq!(h.side(&[1.0, 2.0]), -1);
        assert_eq!(h.side(&[3.0, 3.0]), 0);
    }

    #[test]
    fn orthogonal_matches_orthant_classification() {
        let arr = Arrangement::orthogonal(3);
        let p = pt(&[1.0, 2.0, 3.0]);
        let q = pt(&[0.5, 7.0, 2.0]);
        let via_arrangement = arr.classify(&p, &q);
        let via_orthant = RegionKey(Orthant::classify(&p, &q).unwrap().signs(3));
        assert_eq!(via_arrangement, via_orthant);
    }

    #[test]
    fn signed_has_expected_plane_count() {
        // (3^D - 1) / 2 planes.
        assert_eq!(Arrangement::signed(1).len(), 1);
        assert_eq!(Arrangement::signed(2).len(), 4);
        assert_eq!(Arrangement::signed(3).len(), 13);
    }

    #[test]
    fn signed_first_nonzero_coefficient_is_positive() {
        for plane in Arrangement::signed(3).planes() {
            let first = plane.normal().iter().find(|&&c| c != 0.0).copied();
            assert_eq!(first, Some(1.0));
        }
    }

    #[test]
    fn signed_contains_orthogonal_planes() {
        let signed = Arrangement::signed(2);
        let has_x = signed.planes().iter().any(|p| p.normal() == [1.0, 0.0]);
        let has_y = signed.planes().iter().any(|p| p.normal() == [0.0, 1.0]);
        assert!(has_x && has_y);
    }

    #[test]
    fn none_classifies_everything_together() {
        let arr = Arrangement::none(4);
        assert!(arr.is_empty());
        let p = pt(&[0.0, 0.0, 0.0, 0.0]);
        let a = pt(&[1.0, 2.0, 3.0, 4.0]);
        let b = pt(&[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(arr.classify(&p, &a), arr.classify(&p, &b));
    }

    #[test]
    fn on_plane_points_go_to_positive_side() {
        let arr = Arrangement::signed(2);
        let p = pt(&[0.0, 0.0]);
        // (1,1) lies exactly on the plane x - y = 0.
        let q = pt(&[1.0, 1.0]);
        let key = arr.classify(&p, &q);
        assert!(key.sides().iter().all(|&s| s == 1 || s == -1));
    }

    #[test]
    fn new_validates_plane_dims() {
        let h = Hyperplane::new(vec![1.0, 0.0]).unwrap();
        assert!(Arrangement::new(3, vec![h]).is_err());
    }

    #[test]
    fn signed_2d_produces_eight_regions() {
        let arr = Arrangement::signed(2);
        let p = pt(&[0.0, 0.0]);
        // Eight points, one per 45° sector.
        let probes = [
            [2.0, 1.0],
            [1.0, 2.0],
            [-1.0, 2.0],
            [-2.0, 1.0],
            [-2.0, -1.0],
            [-1.0, -2.0],
            [1.0, -2.0],
            [2.0, -1.0],
        ];
        let keys: std::collections::BTreeSet<RegionKey> =
            probes.iter().map(|c| arr.classify(&p, &pt(c))).collect();
        assert_eq!(
            keys.len(),
            8,
            "2D signed arrangement must separate the 8 sectors"
        );
    }

    #[test]
    fn region_key_display() {
        let arr = Arrangement::orthogonal(2);
        let key = arr.classify(&pt(&[0.0, 0.0]), &pt(&[1.0, -1.0]));
        assert_eq!(key.to_string(), "region[+,-]");
    }
}
