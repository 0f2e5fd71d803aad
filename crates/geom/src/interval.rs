use std::fmt;

/// An **open** interval `(lo, hi)` over the reals, with `±∞` endpoints
/// permitted, and with the tie rule of [`crate::above`] at its ends.
///
/// Responsibility zones in the paper are strict interiors of axis-aligned
/// hyper-rectangles; each side of such a rectangle is an `Interval`. An
/// endpoint a peer set carries that peer's id, so a peer at the very
/// coordinate of the end is inside iff its id ranks on the inner side:
/// [`Interval::contains_id`] reads `(lo, lo_id) < (x, id) < (hi, hi_id)`.
/// Every peer then lies on exactly one side of every endpoint a peer
/// set, so the sub-zones of a zone partition its peers, shared
/// coordinates included. A plain endpoint ([`Interval::new`] and its
/// kin) excludes every id at its coordinate: the interval is open in
/// the ordinary sense, and [`Interval::contains`] is that test.
///
/// Open intervals compose exactly under intersection. The empty interval
/// is represented canonically: any construction where `lo` ranks at or
/// above `hi` yields [`Interval::EMPTY`].
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
///
/// // Above the peer with id 4 at coordinate 1: a peer at 1 is inside
/// // iff its id is larger.
/// let zone = Interval::above_id(1.0, 4);
/// assert!(zone.contains_id(1.0, 5) && !zone.contains_id(1.0, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// The lower end: a point there is inside iff its id is larger than
    /// `lo_id`.
    lo: f64,
    /// The upper end: a point there is inside iff its id is smaller than
    /// `hi_id`.
    hi: f64,
    /// The lower end's id; a plain end's is `u32::MAX`, which no id
    /// exceeds (an id past it ranks with it).
    lo_id: u32,
    /// The upper end's id; a plain end's is 0.
    hi_id: u32,
}

/// A peer id as an end carries it: peer ids are 32-bit.
fn end_id(id: usize) -> u32 {
    u32::try_from(id).expect("a peer id fits in 32 bits")
}

impl Interval {
    /// The canonical empty interval.
    pub const EMPTY: Interval = Interval {
        lo: 0.0,
        hi: 0.0,
        lo_id: u32::MAX,
        hi_id: 0,
    };

    /// Creates the open interval `(lo, hi)`.
    ///
    /// If `lo >= hi` the result is the canonical empty interval. `lo` may
    /// be `-∞` and `hi` may be `+∞`; NaN endpoints yield the empty
    /// interval (NaN comparisons are false, so `lo >= hi` fails — we check
    /// explicitly).
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval::ends((lo, u32::MAX), (hi, 0))
    }

    /// Everything between the ends `lo` and `hi`, each a coordinate and
    /// an id, in the order of [`crate::above`]; empty unless `lo` ranks
    /// below `hi`.
    fn ends(lo: (f64, u32), hi: (f64, u32)) -> Self {
        if lo.0.is_nan() || hi.0.is_nan() || lo >= hi {
            Interval::EMPTY
        } else {
            Interval {
                lo: lo.0,
                hi: hi.0,
                lo_id: lo.1,
                hi_id: hi.1,
            }
        }
    }

    /// The lower end and its id, in the order of [`crate::above`].
    #[inline]
    fn lo_end(&self) -> (f64, u32) {
        (self.lo, self.lo_id)
    }

    /// The upper end and its id, in the order of [`crate::above`].
    #[inline]
    fn hi_end(&self) -> (f64, u32) {
        (self.hi, self.hi_id)
    }

    /// The interval `(-∞, +∞)`.
    #[must_use]
    pub fn unbounded() -> Self {
        Interval::new(f64::NEG_INFINITY, f64::INFINITY)
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

    /// Everything below the peer with id `id` at coordinate `hi`.
    #[must_use]
    pub fn below_id(hi: f64, id: usize) -> Self {
        Interval::ends((f64::NEG_INFINITY, u32::MAX), (hi, end_id(id)))
    }

    /// Everything above the peer with id `id` at coordinate `lo`.
    #[must_use]
    pub fn above_id(lo: f64, id: usize) -> Self {
        Interval::ends((lo, end_id(id)), (f64::INFINITY, 0))
    }

    /// Everything strictly between the peers `(a, a_id)` and
    /// `(b, b_id)`, in either order.
    #[must_use]
    pub fn between_ids(a: f64, a_id: usize, b: f64, b_id: usize) -> Self {
        let (a, b) = ((a, end_id(a_id)), (b, end_id(b_id)));
        if a < b {
            Interval::ends(a, b)
        } else {
            Interval::ends(b, a)
        }
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

    /// `true` if the interval contains no point.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo_end() >= self.hi_end()
    }

    /// `true` if `x` lies strictly between the endpoints: inside for
    /// every id.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo < x && x < self.hi
    }

    /// `true` if the point with id `id` at `x` lies inside: `(lo, lo_id)
    /// < (x, id) < (hi, hi_id)`, the order of [`crate::above`].
    #[must_use]
    #[inline]
    pub fn contains_id(&self, x: f64, id: usize) -> bool {
        let id = u32::try_from(id).unwrap_or(u32::MAX);
        (self.lo < x || (self.lo == x && self.lo_id < id))
            && (x < self.hi || (x == self.hi && id < self.hi_id))
    }

    /// The intersection of two open intervals (also open).
    #[must_use]
    #[inline]
    pub fn intersect(&self, other: Interval) -> Interval {
        let (a, b) = (self.lo_end(), other.lo_end());
        let lo = if a >= b { a } else { b };
        let (a, b) = (self.hi_end(), other.hi_end());
        let hi = if a <= b { a } else { b };
        Interval::ends(lo, hi)
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
        other.is_empty() || (self.lo_end() <= other.lo_end() && other.hi_end() <= self.hi_end())
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
    fn an_end_a_peer_set_orders_its_coordinate_by_id() {
        let up = Interval::above_id(1.0, 4);
        let down = Interval::below_id(1.0, 4);
        // Every other peer at the end's coordinate is on exactly one side.
        for id in [0, 3, 5, usize::MAX] {
            assert!(up.contains_id(1.0, id) != down.contains_id(1.0, id));
        }
        assert!(!up.contains_id(1.0, 4) && !down.contains_id(1.0, 4));
        assert!(up.is_disjoint(down));
        // Two ends at one coordinate leave room for the ids between them.
        let between = Interval::between_ids(1.0, 7, 1.0, 4);
        assert!(!between.is_empty() && between.contains_id(1.0, 5));
        assert!(!between.contains(1.0), "no plain coordinate is inside");
        assert!(up.contains_interval(between) && down.is_disjoint(between));
        // A plain end excludes every id at its coordinate.
        assert!(!Interval::above(1.0).contains_id(1.0, usize::MAX));
        assert!(Interval::above_id(1.0, 4)
            .intersect(Interval::below(1.0))
            .is_empty());
    }

    #[test]
    fn an_interval_is_24_bytes() {
        // Two f64 ends and two 32-bit ids: a zone costs 24 bytes per
        // dimension.
        assert_eq!(std::mem::size_of::<Interval>(), 24);
    }

    #[test]
    fn display_renders_empty_and_regular() {
        assert_eq!(Interval::EMPTY.to_string(), "∅");
        assert_eq!(Interval::new(0.0, 1.0).to_string(), "(0, 1)");
    }
}
