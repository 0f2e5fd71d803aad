//! The core of geocast: decentralized construction of multicast trees
//! embedded into geometric P2P overlays.
//!
//! This crate implements the primary contributions of *"Decentralized
//! Construction of Multicast Trees Embedded into P2P Overlay Networks
//! based on Virtual Geometric Coordinates"* (Andreica, Drăguş, Sâmbotin,
//! Ţăpuş — PODC 2010):
//!
//! * **§2 — space-partitioning multicast trees.** Starting from the peer
//!   `A` initiating a session (responsibility zone = the whole space),
//!   every peer `P` receiving a construction request for zone `Z(P)`
//!   delegates disjoint sub-zones of `Z(P)` to a subset of its overlay
//!   neighbours inside `Z(P)` and forwards the request; `N − 1` messages
//!   construct the tree. The zone-splitting policy is the paper's
//!   orthant split ([`OrthantRectPartitioner`]): the median L1
//!   neighbour per orthant ([`OrthantRectPartitioner::median`]), with
//!   closest/farthest variants for ablations. Both a work-queue build
//!   over a [`geocast_overlay::TopologyStore`]
//!   ([`groups::build_group_tree_on_store`], every peer a member for the
//!   paper's tree) and a message-passing protocol over the simulator
//!   ([`protocol::build_distributed`]) are provided and cross-validated.
//!
//! * **§3 — stability trees.** When every peer knows its departure time
//!   `T(P)` (embedded as the first coordinate), each peer periodically
//!   picks a *preferred tree neighbour* with strictly larger `T`. The
//!   preferred links form a tree along which `T` decreases towards the
//!   leaves, so a departing peer is always a leaf ([`stability`]).
//!
//! * **Baselines** quantifying the introduction's claims about existing
//!   approaches: overlay flooding, BFS spanning trees, and random-parent
//!   trees ([`baseline`]).
//!
//! * **Beyond the paper — multi-group sessions.** A [`groups::GroupEngine`]
//!   keeps N concurrent group trees current over one shared
//!   [`geocast_overlay::TopologyStore`] by consuming its epoch-numbered
//!   delta stream, repairing only the groups whose members a membership
//!   event actually touched ([`groups`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use geocast_core::{groups::build_group_tree_on_store, OrthantRectPartitioner};
//! use geocast_overlay::{select::EmptyRectSelection, PeerInfo, TopologyStore};
//! use geocast_geom::gen::uniform_points;
//!
//! let peers = PeerInfo::from_point_set(&uniform_points(100, 2, 1000.0, 7));
//! let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
//! let everyone = (0..store.len()).collect();
//! let result =
//!     build_group_tree_on_store(&store, 0, &everyone, &OrthantRectPartitioner::median());
//!
//! assert!(result.tree.is_spanning());            // every peer reached
//! assert_eq!(result.messages, store.len() - 1);  // the paper's N−1 claim
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod partition;
mod tree;

pub mod baseline;
mod bits;
pub mod dataplane;
pub mod detect;
pub mod graft;
pub mod groups;
mod member_tree;
pub mod protocol;
pub mod stability;
pub mod validate;

pub use builder::{BuildResult, Zones};
pub use partition::{OrthantRectPartitioner, PickRule};
pub use tree::{MulticastTree, TreeError};
