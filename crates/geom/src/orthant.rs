use std::fmt;

use crate::{GeomError, Point};

/// One of the `2^D` open orthants around a reference point.
///
/// The Orthogonal-Hyperplanes neighbour-selection method and the paper's
/// space partitioner both classify peers by the *sign vector* of their
/// offset from a reference peer `P`: bit `i` of an `Orthant` is set when
/// the classified point lies on the **positive** side of `P` in dimension
/// `i` (`x(Q,i) > x(P,i)`).
///
/// Because coordinates are distinct within every dimension, no peer ever
/// lies *on* one of the axis hyperplanes through `P`, so the classification
/// is total over peers and the orthants partition the peer set.
///
/// Orthants support at most 32 dimensions, far beyond the paper's
/// `D ∈ [2, 10]`.
///
/// # Example
///
/// ```
/// use geocast_geom::{Orthant, Point};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let p = Point::new(vec![0.0, 0.0])?;
/// let q = Point::new(vec![3.0, -2.0])?;
/// let o = Orthant::classify(&p, &q)?;
/// assert!(o.is_positive(0));
/// assert!(!o.is_positive(1));
/// assert_eq!(Orthant::count(2), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Orthant(u32);

/// Maximum dimensionality supported by [`Orthant`].
pub const MAX_ORTHANT_DIM: usize = 32;

impl Orthant {
    /// Builds an orthant from raw sign bits.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidOrthant`] if bits at or above `dim` are
    /// set, or `dim` exceeds [`MAX_ORTHANT_DIM`].
    // lint:allow(D006, reason = "the tests name an orthant by its sign bits to check what classify and group_by_orthant (the §2 partitioner's grouping) return")
    pub fn from_bits(bits: u32, dim: usize) -> Result<Self, GeomError> {
        if dim > MAX_ORTHANT_DIM || (dim < 32 && bits >> dim != 0) {
            return Err(GeomError::InvalidOrthant { bits, dim });
        }
        Ok(Orthant(bits))
    }

    /// Classifies `q` into an orthant around `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the points disagree on
    /// dimensionality, and [`GeomError::DuplicateCoordinate`] if `q`
    /// shares a coordinate with `p` in some dimension (the paper's
    /// distinctness assumption is violated and the orthant would be
    /// ambiguous).
    pub fn classify(p: &Point, q: &Point) -> Result<Self, GeomError> {
        p.check_dim(q)?;
        let mut bits = 0u32;
        for dim in 0..p.dim() {
            if q[dim] > p[dim] {
                bits |= 1 << dim;
            } else if q[dim] == p[dim] {
                return Err(GeomError::DuplicateCoordinate { dim, value: q[dim] });
            }
        }
        Ok(Orthant(bits))
    }

    /// Number of orthants for dimensionality `dim` (`2^dim`).
    ///
    /// # Panics
    ///
    /// Panics if `dim > MAX_ORTHANT_DIM`.
    #[must_use]
    pub fn count(dim: usize) -> usize {
        assert!(
            dim <= MAX_ORTHANT_DIM,
            "dimension {dim} exceeds orthant capacity"
        );
        1usize << dim
    }

    /// Iterator over all orthants of dimensionality `dim`, in ascending
    /// bit order.
    ///
    /// # Panics
    ///
    /// Panics if `dim > MAX_ORTHANT_DIM` (via [`Orthant::count`]).
    pub fn all(dim: usize) -> impl Iterator<Item = Orthant> {
        (0..Self::count(dim)).map(|bits| Orthant(bits as u32))
    }

    /// Raw sign bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.0
    }

    /// `true` if the orthant lies on the positive side in dimension `dim`.
    #[must_use]
    pub fn is_positive(&self, dim: usize) -> bool {
        self.0 >> dim & 1 == 1
    }

    /// Sign vector of the orthant as `+1`/`-1` entries of length `dim`.
    #[must_use]
    // lint:allow(D006, reason = "how tests and the crate example read which side of each axis classify put a point on")
    pub fn signs(&self, dim: usize) -> Vec<i8> {
        (0..dim)
            .map(|d| if self.is_positive(d) { 1 } else { -1 })
            .collect()
    }

    /// Index usable for dense per-orthant tables (identical to
    /// [`Orthant::bits`] as `usize`).
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Orthant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "orthant({:b})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).expect("valid point")
    }

    #[test]
    fn classify_sets_bits_for_positive_sides() {
        let p = pt(&[0.0, 0.0, 0.0]);
        let q = pt(&[1.0, -1.0, 2.0]);
        let o = Orthant::classify(&p, &q).unwrap();
        assert_eq!(o.bits(), 0b101);
        assert_eq!(o.signs(3), vec![1, -1, 1]);
    }

    #[test]
    fn classify_rejects_equal_coordinate() {
        let p = pt(&[0.0, 1.0]);
        let q = pt(&[5.0, 1.0]);
        let err = Orthant::classify(&p, &q).unwrap_err();
        assert_eq!(err, GeomError::DuplicateCoordinate { dim: 1, value: 1.0 });
    }

    #[test]
    fn classify_rejects_dim_mismatch() {
        let p = pt(&[0.0]);
        let q = pt(&[1.0, 2.0]);
        assert!(matches!(
            Orthant::classify(&p, &q),
            Err(GeomError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn all_enumerates_two_to_the_d() {
        assert_eq!(Orthant::all(0).count(), 1);
        assert_eq!(Orthant::all(3).count(), 8);
        let bits: Vec<u32> = Orthant::all(2).map(|o| o.bits()).collect();
        assert_eq!(bits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn from_bits_validates_range() {
        assert!(Orthant::from_bits(0b11, 2).is_ok());
        assert!(matches!(
            Orthant::from_bits(0b100, 2),
            Err(GeomError::InvalidOrthant {
                bits: 0b100,
                dim: 2
            })
        ));
    }

    #[test]
    fn classification_is_antisymmetric() {
        let p = pt(&[0.0, 0.0]);
        let q = pt(&[1.0, -3.0]);
        let pq = Orthant::classify(&p, &q).unwrap();
        let qp = Orthant::classify(&q, &p).unwrap();
        assert_eq!(pq.bits() ^ qp.bits(), 0b11, "every sign flips");
    }

    #[test]
    fn index_matches_bits() {
        let o = Orthant::from_bits(5, 3).unwrap();
        assert_eq!(o.index(), 5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Orthant::from_bits(2, 2).unwrap().to_string().is_empty());
    }
}
