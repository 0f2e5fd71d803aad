//! The geometric P2P overlay substrate of geocast.
//!
//! Peers identify themselves with virtual geometric coordinates
//! ([`geocast_geom::Point`]) and connect into an overlay by repeatedly
//! applying a **neighbour-selection method** to the set `I(P)` of peers
//! they have recently heard about. This crate implements the full §1
//! machinery of the paper:
//!
//! * [`PeerInfo`] — identifier (coordinates), network address, peer id.
//! * [`select`] — the neighbour-selection methods: the generic
//!   *Hyperplanes* family ([`select::HyperplanesSelection`], with
//!   orthogonal / signed / `H = 0` instances) and the §2
//!   *empty-rectangle* rule ([`select::EmptyRectSelection`]).
//! * [`gossip`] — the distributed protocol: periodic existence
//!   announcements flooded `BR ≥ 2` hops, `Tmax` expiry of `I(P)`, and
//!   periodic re-selection.
//! * [`OverlayNetwork`] — a driver that inserts peers one at a time into
//!   a live simulation and runs the gossip protocol to convergence,
//!   exactly like the paper's experimental procedure.
//! * [`TopologyStore`] — the *equilibrium* topology (the paper's
//!   convergence target: "the one obtained when every peer P knows all
//!   the other peers"), bulk-built from a population and maintained
//!   incrementally under churn.
//! * [`oracle`] — the same topology computed from the definition, with
//!   no index: the reference every store and gossip run is checked
//!   against.
//! * [`OverlayGraph`] — the resulting topology in a flat CSR layout,
//!   with the analyses the figures need (degrees, connectivity, BFS).
//!
//! The store's engine (its spatial index, the parallel bulk build, the
//! incremental churn path) and its measured behaviour are documented in
//! `docs/PERFORMANCE.md` at the repository root.
//!
//! # Example: equilibrium topology under the empty-rectangle rule
//!
//! ```
//! use std::sync::Arc;
//! use geocast_geom::gen::uniform_points;
//! use geocast_overlay::{select::EmptyRectSelection, PeerInfo, TopologyStore};
//!
//! let points = uniform_points(64, 2, 1000.0, 42);
//! let peers = PeerInfo::from_point_set(&points);
//! let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
//! assert!(store.graph().is_connected_undirected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closed_form;
mod graph;
mod network;
mod par;
mod peer;
mod store;

pub mod analysis;
pub mod churn;
pub mod delta;
pub mod gossip;
pub mod oracle;
pub mod routing;
pub mod select;

pub use closed_form::JoinWalkStats;
pub use delta::{CursorCatchUp, DeltaCursor, DeltaKind, DeltaLog, TopologyDelta};
pub use graph::OverlayGraph;
pub use network::{ConvergenceReport, NetworkConfig, OverlayNetwork};
pub use peer::{PeerAddr, PeerId, PeerInfo};
pub use store::{topology_hash, ShardConfig, TopologyStore};
