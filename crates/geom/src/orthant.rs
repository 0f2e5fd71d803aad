use std::cmp::Ordering;
use std::fmt;

use crate::{GeomError, Point};

/// The one tie rule of the empty-rectangle and §2 pipelines: a point at
/// coordinate `q` with id `q_id` lies **above** one at `p` with id `p_id`
/// along a dimension iff `(q, q_id) > (p, p_id)`.
///
/// The paper assumes coordinates distinct within every dimension. A
/// shared coordinate is ordered by id instead — symbolic perturbation
/// (Edelsbrunner & Mücke, *Simulation of Simplicity*, ACM TOG 1990) —
/// so no two peers tie along any axis, every peer lies in exactly one
/// orthant of every other, and on distinct coordinates the id is never
/// read. An id is a peer's slot in the population it is ranked in; a
/// position that is no peer's (a query from outside, a newcomer before
/// it is given a slot) takes `usize::MAX` and so ranks after every peer.
#[must_use]
#[inline]
pub fn above(q: f64, q_id: usize, p: f64, p_id: usize) -> bool {
    (q, q_id) > (p, p_id)
}

/// A coordinate and the id that breaks its ties, both flipped on an
/// orthant's negative side (see [`key`]): along that side, a smaller key
/// is nearer the orthant's apex, and no two peers share one.
pub type Key = (f64, usize);

/// The [`Key`] of coordinate `x` of the point with id `id` on the
/// `positive` or negative side of an apex: `(x, id)` above it,
/// `(−x, !id)` below it. So the tie rule of [`above`] reads the same on
/// both sides, and comparing two keys is comparing raw coordinates — no
/// subtraction rounds it — with the id read only when they are equal.
#[must_use]
#[inline]
pub fn key(x: f64, id: usize, positive: bool) -> Key {
    if positive {
        (x, id)
    } else {
        (-x, !id)
    }
}

/// `true` if key `a` is strictly smaller than key `b` — nearer the apex:
/// the order of `<` on the pair, written out so that the coordinate
/// alone decides in one comparison unless it is equal, and only then is
/// the id read. The hot loops' comparison.
#[must_use]
#[inline]
pub fn key_lt(a: &Key, b: &Key) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The order of [`key_lt`] as an [`Ordering`], for sorts: the
/// coordinate as `<` and `==` compare it (a `-0.0` equals `0.0`), then
/// the id. Keys of finite coordinates and distinct ids are totally
/// ordered.
#[must_use]
#[inline]
pub fn key_cmp(a: &Key, b: &Key) -> Ordering {
    if a.0 < b.0 {
        Ordering::Less
    } else if a.0 > b.0 {
        Ordering::Greater
    } else {
        a.1.cmp(&b.1)
    }
}

/// One of the `2^D` orthants around a reference point.
///
/// The Orthogonal-Hyperplanes neighbour-selection method and the paper's
/// space partitioner both classify peers by the *sign vector* of their
/// offset from a reference peer `P`: bit `i` of an `Orthant` is set when
/// the classified point lies **above** `P` in dimension `i` ([`above`]:
/// `(x(Q,i), id(Q)) > (x(P,i), id(P))`).
///
/// Under that tie rule no peer ever lies *on* one of the axis hyperplanes
/// through `P`, so the classification is total over peers and the
/// orthants partition the peer set.
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
/// let q = Point::new(vec![3.0, 0.0])?;
/// // q shares p's y; its larger id puts it above p there.
/// let o = Orthant::classify(&p, 0, &q, 1)?;
/// assert!(o.is_positive(0));
/// assert!(o.is_positive(1));
/// assert!(!Orthant::classify(&q, 1, &p, 0)?.is_positive(1));
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

    /// Classifies `q` (id `q_id`) into an orthant around `p` (id `p_id`):
    /// bit `d` is set iff `q` lies [`above`] `p` along `d`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the points disagree on
    /// dimensionality.
    pub fn classify(p: &Point, p_id: usize, q: &Point, q_id: usize) -> Result<Self, GeomError> {
        p.check_dim(q)?;
        let mut bits = 0u32;
        for dim in 0..p.dim() {
            if above(q[dim], q_id, p[dim], p_id) {
                bits |= 1 << dim;
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
        let o = Orthant::classify(&p, 0, &q, 1).unwrap();
        assert_eq!(o.bits(), 0b101);
        assert_eq!(o.signs(3), vec![1, -1, 1]);
    }

    #[test]
    fn classify_orders_an_equal_coordinate_by_id() {
        let p = pt(&[0.0, 1.0]);
        let q = pt(&[5.0, 1.0]);
        assert_eq!(Orthant::classify(&p, 3, &q, 4).unwrap().bits(), 0b11);
        assert_eq!(Orthant::classify(&p, 3, &q, 2).unwrap().bits(), 0b01);
        // A position that is no peer's ranks after every peer.
        assert_eq!(
            Orthant::classify(&p, usize::MAX, &q, 2).unwrap().bits(),
            0b01
        );
    }

    #[test]
    fn keys_order_nearness_on_both_sides() {
        // Above the apex, nearer is smaller (x, id); below it, larger.
        assert!(key(2.0, 7, true) < key(3.0, 1, true));
        assert!(key(2.0, 1, true) < key(2.0, 7, true));
        assert!(key(3.0, 1, false) < key(2.0, 7, false));
        assert!(key(2.0, 7, false) < key(2.0, 1, false));
        assert!(above(1.0, 2, 1.0, 1) && !above(1.0, 1, 1.0, 2));
        assert!(key_lt(&(1.0, 9), &(2.0, 0)) && key_lt(&(1.0, 2), &(1.0, 3)));
        assert!(!key_lt(&(1.0, 3), &(1.0, 3)) && !key_lt(&(2.0, 0), &(1.0, 9)));
        // The sort order is the same order, a negative zero included.
        assert_eq!(key_cmp(&(-0.0, 2), &(0.0, 1)), Ordering::Greater);
        assert_eq!(
            key_cmp(&key(0.0, 1, false), &key(-0.0, 2, false)),
            Ordering::Greater
        );
        assert!(!above(-0.0, 1, 0.0, 2) && above(0.0, 2, -0.0, 1));
    }

    #[test]
    fn classify_rejects_dim_mismatch() {
        let p = pt(&[0.0]);
        let q = pt(&[1.0, 2.0]);
        assert!(matches!(
            Orthant::classify(&p, 0, &q, 1),
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
        for (p_id, q_id) in [(0, 1), (1, 0)] {
            let pq = Orthant::classify(&p, p_id, &q, q_id).unwrap();
            let qp = Orthant::classify(&q, q_id, &p, p_id).unwrap();
            assert_eq!(pq.bits() ^ qp.bits(), 0b11, "every sign flips");
        }
        // A shared coordinate flips too.
        let r = pt(&[0.0, 5.0]);
        let pr = Orthant::classify(&p, 0, &r, 1).unwrap();
        let rp = Orthant::classify(&r, 1, &p, 0).unwrap();
        assert_eq!(pr.bits() ^ rp.bits(), 0b11);
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
