//! D-dimensional virtual-coordinate geometry for geocast.
//!
//! This crate is the geometric substrate of the geocast project, a
//! reproduction of *"Decentralized Construction of Multicast Trees Embedded
//! into P2P Overlay Networks based on Virtual Geometric Coordinates"*
//! (Andreica et al., PODC 2010).
//!
//! Peers in a geocast overlay identify themselves with self-generated
//! points in a `D`-dimensional space whose coordinates lie in `[0, VMAX]`
//! and are **distinct within each dimension**. Everything the overlay and
//! the multicast-tree construction need from geometry lives here:
//!
//! * [`Point`] — validated `D`-dimensional coordinates.
//! * [`Interval`] / [`Rect`] — open axis-aligned boxes with unbounded ends,
//!   the representation of the paper's *responsibility zones*.
//! * [`Orthant`] — the `2^D` sign regions around a peer, used both by the
//!   Orthogonal-Hyperplanes neighbour selection and by the space
//!   partitioner.
//! * [`Arrangement`] — general hyperplane arrangements through the origin
//!   (the paper's generic "Hyperplanes" neighbour-selection method).
//! * [`l1`] — the one distance: §2 sorts neighbours by L1, and the paper
//!   leaves the Hyperplanes method's distance open, so every ranking
//!   reads L1.
//! * [`dominance`] — per-orthant Pareto frontiers, the efficient
//!   characterisation of the paper's empty-rectangle neighbour rule.
//! * [`index::GridIndex`] — a uniform-grid spatial index answering the
//!   per-orthant nearest-neighbour and empty-rectangle queries exactly,
//!   the engine behind figure-scale overlay construction.
//! * [`gen`] — reproducible workload generators (uniform, clustered, grid)
//!   that guarantee per-dimension distinctness.
//!
//! # Example
//!
//! ```
//! use geocast_geom::{l1, Point, Rect, Orthant};
//!
//! # fn main() -> Result<(), geocast_geom::GeomError> {
//! let p = Point::new(vec![2.0, 3.0])?;
//! let q = Point::new(vec![5.0, 1.0])?;
//!
//! // q lies in p's (+x, -y) orthant.
//! let orthant = Orthant::classify(&p, &q)?;
//! assert_eq!(orthant.signs(2), vec![1, -1]);
//!
//! // The open rectangle of that orthant contains q but not p.
//! let zone = Rect::orthant_of(&p, orthant);
//! assert!(zone.contains(&q));
//! assert!(!zone.contains(&p));
//!
//! assert_eq!(l1(p.coords(), q.coords()), 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod interval;
mod orthant;
mod point;
mod rect;

pub mod arrangement;
pub mod dominance;
pub mod gen;
pub mod index;
pub mod metric;

pub use arrangement::{Arrangement, RegionKey};
pub use error::GeomError;
pub use index::GridIndex;
pub use interval::Interval;
pub use metric::{l1, MetricKind};
pub use orthant::{Orthant, MAX_ORTHANT_DIM};
pub use point::{Point, PointSet};
pub use rect::Rect;

/// Default upper bound of the virtual coordinate space used by the paper
/// (`VMAX`). Coordinates are drawn from `[0, VMAX]`.
pub const VMAX: f64 = 1000.0;
