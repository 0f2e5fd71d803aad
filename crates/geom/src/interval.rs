use std::fmt;

/// An **open** interval `(lo, hi)` over the reals, with `±∞` endpoints
/// permitted.
///
/// Responsibility zones in the paper are strict interiors of axis-aligned
/// hyper-rectangles; each side of such a rectangle is an `Interval`.
/// Because peer coordinates are distinct within every dimension, open
/// versus closed boundaries never create membership ambiguity for peer
/// coordinates, and open intervals compose exactly under intersection.
///
/// The empty interval is represented canonically: any construction where
/// `lo >= hi` yields [`Interval::EMPTY`].
///
/// # Example
///
/// ```
/// use geocast_geom::Interval;
///
/// let i = Interval::new(1.0, 5.0);
/// assert!(i.contains(3.0));
/// assert!(!i.contains(1.0)); // open at both ends
///
/// let everything = Interval::unbounded();
/// assert_eq!(everything.intersect(i), i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The canonical empty interval.
    pub const EMPTY: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Creates the open interval `(lo, hi)`.
    ///
    /// If `lo >= hi` the result is the canonical empty interval. `lo` may
    /// be `-∞` and `hi` may be `+∞`; NaN endpoints yield the empty
    /// interval (NaN comparisons are false, so `lo >= hi` fails — we check
    /// explicitly).
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() || lo >= hi {
            Interval::EMPTY
        } else {
            Interval { lo, hi }
        }
    }

    /// The interval `(-∞, +∞)`.
    #[must_use]
    pub fn unbounded() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// The interval `(-∞, hi)`.
    #[must_use]
    pub fn below(hi: f64) -> Self {
        Interval::new(f64::NEG_INFINITY, hi)
    }

    /// The interval `(lo, +∞)`.
    #[must_use]
    pub fn above(lo: f64) -> Self {
        Interval::new(lo, f64::INFINITY)
    }

    /// Lower endpoint (exclusive); `-∞` when unbounded below.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint (exclusive); `+∞` when unbounded above.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// `true` if the interval contains no real number.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// `true` if `x` lies strictly between the endpoints.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo < x && x < self.hi
    }

    /// The intersection of two open intervals (also open).
    #[must_use]
    pub fn intersect(&self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// `true` if the two intervals share no point.
    #[must_use]
    pub fn is_disjoint(&self, other: Interval) -> bool {
        self.intersect(other).is_empty()
    }

    /// `true` if every point of `other` lies in `self`.
    ///
    /// The empty interval is contained in everything.
    #[must_use]
    pub fn contains_interval(&self, other: Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }
}

impl Default for Interval {
    /// The default interval is unbounded, matching the root responsibility
    /// zone (the entire coordinate space).
    fn default() -> Self {
        Interval::unbounded()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "({}, {})", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_endpoints_are_excluded() {
        let i = Interval::new(1.0, 2.0);
        assert!(!i.contains(1.0));
        assert!(!i.contains(2.0));
        assert!(i.contains(1.5));
    }

    #[test]
    fn inverted_bounds_collapse_to_empty() {
        assert!(Interval::new(2.0, 1.0).is_empty());
        assert!(Interval::new(1.0, 1.0).is_empty());
        assert_eq!(Interval::new(5.0, 3.0), Interval::EMPTY);
    }

    #[test]
    fn nan_bounds_collapse_to_empty() {
        assert!(Interval::new(f64::NAN, 1.0).is_empty());
        assert!(Interval::new(0.0, f64::NAN).is_empty());
    }

    #[test]
    fn unbounded_contains_everything_finite() {
        let u = Interval::unbounded();
        assert!(u.contains(0.0));
        assert!(u.contains(-1e300));
        assert!(u.contains(1e300));
        assert!(!u.is_empty());
    }

    #[test]
    fn half_bounded_constructors() {
        assert!(Interval::below(0.0).contains(-1.0));
        assert!(!Interval::below(0.0).contains(0.0));
        assert!(Interval::above(0.0).contains(1.0));
        assert!(!Interval::above(0.0).contains(0.0));
    }

    #[test]
    fn intersection_is_commutative_and_shrinks() {
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(5.0, 15.0);
        assert_eq!(a.intersect(b), Interval::new(5.0, 10.0));
        assert_eq!(b.intersect(a), a.intersect(b));
        assert!(a.contains_interval(a.intersect(b)));
        assert!(b.contains_interval(a.intersect(b)));
    }

    #[test]
    fn intersection_with_empty_is_empty() {
        let a = Interval::new(0.0, 1.0);
        assert!(a.intersect(Interval::EMPTY).is_empty());
    }

    #[test]
    fn touching_open_intervals_are_disjoint() {
        // (0,1) and (1,2) share only the excluded point 1.
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        assert!(a.is_disjoint(b));
    }

    #[test]
    fn overlapping_intervals_are_not_disjoint() {
        let a = Interval::new(0.0, 1.5);
        let b = Interval::new(1.0, 2.0);
        assert!(!a.is_disjoint(b));
    }

    #[test]
    fn containment_includes_empty() {
        let a = Interval::new(0.0, 1.0);
        assert!(a.contains_interval(Interval::EMPTY));
        assert!(Interval::unbounded().contains_interval(a));
        assert!(!a.contains_interval(Interval::unbounded()));
    }

    #[test]
    fn display_renders_empty_and_regular() {
        assert_eq!(Interval::EMPTY.to_string(), "∅");
        assert_eq!(Interval::new(0.0, 1.0).to_string(), "(0, 1)");
    }
}
