use std::error::Error;
use std::fmt;

/// Errors produced by geometric constructions and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A point was constructed with zero dimensions.
    EmptyPoint,
    /// A coordinate was NaN or infinite where a finite value is required.
    NonFiniteCoordinate {
        /// Index of the offending dimension.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// Two objects of different dimensionality were combined.
    DimensionMismatch {
        /// Dimensionality of the left-hand operand.
        left: usize,
        /// Dimensionality of the right-hand operand.
        right: usize,
    },
    /// Two points share a coordinate in some dimension: what
    /// `PointSet::ensure_distinct` reports against the paper's
    /// distinctness assumption.
    DuplicateCoordinate {
        /// The dimension in which the coordinate collides.
        dim: usize,
        /// The colliding value.
        value: f64,
    },
    /// An orthant index was out of range for the given dimensionality.
    InvalidOrthant {
        /// The offending orthant bits.
        bits: u32,
        /// Dimensionality against which the bits were validated.
        dim: usize,
    },
    /// A hyperplane was constructed with an all-zero normal vector.
    ZeroNormal,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::EmptyPoint => write!(f, "point must have at least one dimension"),
            GeomError::NonFiniteCoordinate { dim, value } => {
                write!(f, "coordinate {value} in dimension {dim} is not finite")
            }
            GeomError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            GeomError::DuplicateCoordinate { dim, value } => {
                write!(f, "coordinate {value} duplicated in dimension {dim}")
            }
            GeomError::InvalidOrthant { bits, dim } => {
                write!(f, "orthant bits {bits:#b} invalid for dimension {dim}")
            }
            GeomError::ZeroNormal => write!(f, "hyperplane normal must be non-zero"),
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let variants = [
            GeomError::EmptyPoint,
            GeomError::NonFiniteCoordinate {
                dim: 1,
                value: f64::NAN,
            },
            GeomError::DimensionMismatch { left: 2, right: 3 },
            GeomError::DuplicateCoordinate { dim: 0, value: 4.0 },
            GeomError::InvalidOrthant {
                bits: 0b100,
                dim: 2,
            },
            GeomError::ZeroNormal,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty(), "{v:?} renders empty");
        }
    }

    #[test]
    fn error_trait_object_is_usable() {
        let err: Box<dyn Error> = Box::new(GeomError::EmptyPoint);
        assert!(err.source().is_none());
    }
}
