//! The one distance over virtual coordinates: **L1**.
//!
//! The §2 construction sorts a zone's neighbours by L1 distance, and the
//! paper leaves the distance of its Hyperplanes neighbour selection open
//! ("using a distance function"). Every ranking in this workspace — the
//! Hyperplanes selection, the §2 pick, greedy routing and the §3
//! closest-higher-`T` policy — therefore reads [`l1`].

/// The L1 (Manhattan) distance between two same-dimensional coordinate
/// slices.
///
/// # Example
///
/// ```
/// use geocast_geom::{l1, Point};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let a = Point::new(vec![0.0, 0.0])?;
/// let b = Point::new(vec![3.0, -4.0])?;
/// assert_eq!(l1(a.coords(), b.coords()), 7.0);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics (in debug builds) on length mismatch.
#[must_use]
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// What the benchmark harness still passes as the third argument of
/// `geocast_core::graft::graft_stranded_members`: the one distance,
/// read by nothing. ROADMAP item 1(a) deletes this shim with the
/// harness's call.
///
/// # Example
///
/// ```
/// use geocast_geom::MetricKind;
///
/// // One variant: the pattern is irrefutable.
/// let MetricKind::L1 = MetricKind::L1;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// The L1 distance, [`l1`].
    L1,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_sums_absolute_differences() {
        assert_eq!(l1(&[1.0, 2.0], &[4.0, -2.0]), 7.0);
        assert_eq!(l1(&[], &[]), 0.0);
    }

    #[test]
    fn all_metrics_are_symmetric_and_zero_on_identity() {
        let a = [1.5, -2.5, 3.0];
        let b = [0.0, 4.0, -1.0];
        assert_eq!(l1(&a, &b), l1(&b, &a));
        assert_eq!(l1(&a, &a), 0.0);
    }
}
