use std::fmt;

use crate::{GeomError, Interval, Orthant, Point};

/// An **open** axis-aligned hyper-rectangle — the representation of the
/// paper's *responsibility zones*.
///
/// A `Rect` is a product of open [`Interval`]s, one per dimension. The
/// paper's zone algebra needs exactly three constructions, all closed
/// under intersection:
///
/// * the full space (the root's zone),
/// * the open orthant rectangle `HR` around a peer
///   ([`Rect::orthant_of`]): side `i` is `(x(P,i), +∞)` or `(-∞, x(P,i))`
///   depending on the orthant sign,
/// * intersections `Z(Q) = Z(P) ∩ HR`.
///
/// A rectangle with any empty side is empty; emptiness is always
/// detectable exactly because sides are open intervals over distinct
/// coordinates.
///
/// # Example
///
/// ```
/// use geocast_geom::{Point, Rect, Orthant};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let space = Rect::full(2);
/// let p = Point::new(vec![5.0, 5.0])?;
/// let q = Point::new(vec![7.0, 9.0])?;
///
/// let zone = space.intersect(&Rect::orthant_of(&p, Orthant::classify(&p, &q)?));
/// assert!(zone.contains(&q));
/// assert!(!zone.contains(&p)); // zones always exclude the forwarding peer
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    sides: Vec<Interval>,
}

impl Rect {
    /// Creates a rectangle from explicit sides.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyPoint`] if `sides` is empty (a
    /// 0-dimensional rectangle is not meaningful for zones).
    pub fn new(sides: Vec<Interval>) -> Result<Self, GeomError> {
        if sides.is_empty() {
            return Err(GeomError::EmptyPoint);
        }
        Ok(Rect { sides })
    }

    /// The entire `dim`-dimensional space — the root's responsibility
    /// zone.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn full(dim: usize) -> Self {
        assert!(dim > 0, "rectangles require at least one dimension");
        Rect {
            sides: vec![Interval::unbounded(); dim],
        }
    }

    /// The canonical empty rectangle of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "rectangles require at least one dimension");
        Rect {
            sides: vec![Interval::EMPTY; dim],
        }
    }

    /// The open orthant rectangle `HR` of the paper: around reference
    /// point `p`, side `i` is `(x(p,i), +∞)` when the orthant is positive
    /// in dimension `i` and `(-∞, x(p,i))` otherwise.
    #[must_use]
    pub fn orthant_of(p: &Point, orthant: Orthant) -> Self {
        let sides = (0..p.dim())
            .map(|d| {
                if orthant.is_positive(d) {
                    Interval::above(p[d])
                } else {
                    Interval::below(p[d])
                }
            })
            .collect();
        Rect { sides }
    }

    /// The open rectangle spanned by two corner points: side `i` is
    /// `(min(p_i, q_i), max(p_i, q_i))`.
    ///
    /// This is the rectangle of the §2 neighbour-selection rule: `q` is a
    /// neighbour of `p` iff `Rect::spanned_open(p, q)` contains no other
    /// candidate. Under the per-dimension distinctness assumption, a third
    /// peer can never lie on the boundary, so testing the open interior is
    /// exact.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the points disagree on
    /// dimensionality.
    // lint:allow(D006, reason = "the §2 rule's rectangle as a definition: what prop_overlay and prop_geom hold EmptyRectSelection and the dominance frontier against")
    pub fn spanned_open(p: &Point, q: &Point) -> Result<Self, GeomError> {
        p.check_dim(q)?;
        let sides = (0..p.dim())
            .map(|d| Interval::new(p[d].min(q[d]), p[d].max(q[d])))
            .collect();
        Ok(Rect { sides })
    }

    /// Dimensionality of the rectangle.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.sides.len()
    }

    /// The sides as a slice of intervals.
    #[must_use]
    pub fn sides(&self) -> &[Interval] {
        &self.sides
    }

    /// The side in dimension `dim`, or `None` if out of range.
    #[must_use]
    pub fn side(&self, dim: usize) -> Option<Interval> {
        self.sides.get(dim).copied()
    }

    /// `true` if the rectangle contains no point (some side is empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides.iter().any(Interval::is_empty)
    }

    /// `true` if `p` lies strictly inside the rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `p` has a different dimensionality (programming error in
    /// zone plumbing, not a data error).
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        assert_eq!(p.dim(), self.dim(), "dimension mismatch in Rect::contains");
        self.sides
            .iter()
            .enumerate()
            .all(|(d, side)| side.contains(p[d]))
    }

    /// The intersection of two rectangles.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    #[must_use]
    pub fn intersect(&self, other: &Rect) -> Rect {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch in Rect::intersect"
        );
        let sides = self
            .sides
            .iter()
            .zip(&other.sides)
            .map(|(a, b)| a.intersect(*b))
            .collect();
        Rect { sides }
    }

    /// `true` if the rectangles share no point.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    #[must_use]
    pub fn is_disjoint(&self, other: &Rect) -> bool {
        self.intersect(other).is_empty()
    }

    /// The point of the rectangle's closure nearest to `p` (coordinates
    /// clamped into each side's closed hull). For `p` inside, returns
    /// `p` itself.
    ///
    /// The clamp is the geometric target used by region routing: the
    /// distance from `p` to its clamp equals the distance from `p` to
    /// the box under any coordinate-wise metric.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch or if the rectangle is empty.
    #[must_use]
    pub fn clamp(&self, p: &Point) -> Point {
        assert_eq!(p.dim(), self.dim(), "dimension mismatch in Rect::clamp");
        assert!(!self.is_empty(), "cannot clamp into an empty rectangle");
        let coords = (0..self.dim())
            .map(|d| {
                let side = self.sides[d];
                // Clamping against ±∞ endpoints leaves the (finite)
                // coordinate unchanged.
                p[d].clamp(side.lo(), side.hi())
            })
            .collect();
        Point::from_validated(coords)
    }

    /// `true` if every point of `other` lies inside `self`.
    ///
    /// Empty rectangles are contained in everything.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    #[must_use]
    // lint:allow(D006, reason = "how partition's tests and prop_core see that a partitioner's sub-zones stay inside the zone it split")
    pub fn contains_rect(&self, other: &Rect) -> bool {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch in Rect::contains_rect"
        );
        other.is_empty()
            || self
                .sides
                .iter()
                .zip(&other.sides)
                .all(|(a, b)| a.contains_interval(*b))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, side) in self.sides.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{side}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).expect("valid point")
    }

    #[test]
    fn full_contains_everything() {
        let r = Rect::full(3);
        assert!(r.contains(&pt(&[0.0, -1e9, 1e9])));
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_rect_contains_nothing() {
        let r = Rect::empty(2);
        assert!(r.is_empty());
        assert!(!r.contains(&pt(&[0.0, 0.0])));
    }

    #[test]
    fn new_rejects_zero_dims() {
        assert!(Rect::new(vec![]).is_err());
    }

    #[test]
    fn orthant_rect_excludes_reference_point() {
        let p = pt(&[1.0, 2.0]);
        for o in Orthant::all(2) {
            let hr = Rect::orthant_of(&p, o);
            assert!(!hr.contains(&p), "orthant rect must exclude p");
        }
    }

    #[test]
    fn orthant_rects_cover_offset_points() {
        let p = pt(&[0.0, 0.0]);
        let q = pt(&[-3.0, 7.0]);
        let o = Orthant::classify(&p, &q).unwrap();
        assert!(Rect::orthant_of(&p, o).contains(&q));
        // ... and only that orthant's rect contains q.
        let covering = Orthant::all(2)
            .filter(|&oo| Rect::orthant_of(&p, oo).contains(&q))
            .count();
        assert_eq!(covering, 1);
    }

    #[test]
    fn orthant_rects_are_pairwise_disjoint() {
        let p = pt(&[1.0, -1.0, 0.5]);
        let rects: Vec<Rect> = Orthant::all(3).map(|o| Rect::orthant_of(&p, o)).collect();
        for i in 0..rects.len() {
            for j in 0..i {
                assert!(
                    rects[i].is_disjoint(&rects[j]),
                    "orthants {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn spanned_open_is_symmetric_and_excludes_corners() {
        let p = pt(&[0.0, 5.0]);
        let q = pt(&[4.0, 1.0]);
        let r1 = Rect::spanned_open(&p, &q).unwrap();
        let r2 = Rect::spanned_open(&q, &p).unwrap();
        assert_eq!(r1, r2);
        assert!(!r1.contains(&p));
        assert!(!r1.contains(&q));
        assert!(r1.contains(&pt(&[2.0, 3.0])));
    }

    #[test]
    fn spanned_open_checks_dimensions() {
        let p = pt(&[0.0]);
        let q = pt(&[0.0, 1.0]);
        assert!(Rect::spanned_open(&p, &q).is_err());
    }

    #[test]
    fn intersect_commutes_and_shrinks() {
        let a = Rect::new(vec![Interval::new(0.0, 10.0), Interval::new(0.0, 10.0)]).unwrap();
        let b = Rect::orthant_of(&pt(&[5.0, 5.0]), Orthant::from_bits(0b11, 2).unwrap());
        let i1 = a.intersect(&b);
        let i2 = b.intersect(&a);
        assert_eq!(i1, i2);
        assert!(a.contains_rect(&i1));
        assert!(b.contains_rect(&i1));
        assert_eq!(i1.side(0).unwrap(), Interval::new(5.0, 10.0));
    }

    #[test]
    fn disjointness_via_single_dimension() {
        let a = Rect::new(vec![Interval::new(0.0, 1.0), Interval::unbounded()]).unwrap();
        let b = Rect::new(vec![Interval::new(1.0, 2.0), Interval::unbounded()]).unwrap();
        assert!(
            a.is_disjoint(&b),
            "open rects touching at a face are disjoint"
        );
    }

    #[test]
    fn contains_rect_handles_empty_and_full() {
        let full = Rect::full(2);
        let empty = Rect::empty(2);
        let a = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]).unwrap();
        assert!(full.contains_rect(&a));
        assert!(a.contains_rect(&empty));
        assert!(!a.contains_rect(&full));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn contains_panics_on_dim_mismatch() {
        let _ = Rect::full(2).contains(&pt(&[1.0]));
    }

    #[test]
    fn clamp_projects_onto_the_box() {
        let r = Rect::new(vec![Interval::new(0.0, 10.0), Interval::new(5.0, 6.0)]).unwrap();
        assert_eq!(r.clamp(&pt(&[-3.0, 5.5])).coords(), &[0.0, 5.5]);
        assert_eq!(r.clamp(&pt(&[20.0, 20.0])).coords(), &[10.0, 6.0]);
        // Inside points are fixed points of the clamp.
        let inside = pt(&[4.0, 5.5]);
        assert_eq!(r.clamp(&inside), inside);
    }

    #[test]
    fn clamp_handles_unbounded_sides() {
        let r = Rect::new(vec![Interval::above(5.0), Interval::unbounded()]).unwrap();
        assert_eq!(r.clamp(&pt(&[0.0, -1e9])).coords(), &[5.0, -1e9]);
    }

    #[test]
    #[should_panic(expected = "empty rectangle")]
    fn clamp_rejects_empty_rect() {
        let _ = Rect::empty(2).clamp(&pt(&[0.0, 0.0]));
    }

    #[test]
    fn display_renders_product_and_empty() {
        let a = Rect::new(vec![Interval::new(0.0, 1.0), Interval::unbounded()]).unwrap();
        assert_eq!(a.to_string(), "(0, 1)×(-inf, inf)");
        assert_eq!(Rect::empty(2).to_string(), "∅");
    }
}
