//! Statistics and reporting for geocast experiments.
//!
//! Every figure harness reduces raw measurements with [`Summary`],
//! arranges them in a [`Table`] (rendered as Markdown), and optionally
//! draws an [`AsciiChart`] so a terminal run shows the same curves as
//! the paper's Figure 1.
//!
//! The crate is dependency-free and knows nothing about overlays or
//! trees — it consumes plain numbers.
//!
//! # Example
//!
//! ```
//! use geocast_metrics::Summary;
//!
//! let s = Summary::from_iter([4.0, 8.0, 6.0]);
//! assert_eq!(s.max(), 8.0);
//! assert_eq!(s.mean(), 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chart;
mod summary;
mod table;

pub use chart::AsciiChart;
pub use summary::Summary;
pub use table::Table;
