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
//!   construct the tree. The zone-splitting policy is pluggable
//!   ([`ZonePartitioner`]); the paper's instance (orthant split, median
//!   L1 neighbour) is [`OrthantRectPartitioner::median`], with
//!   closest/farthest variants for ablations. Both an offline builder
//!   ([`build_tree`]) and a message-passing protocol over the simulator
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
//! use geocast_core::{build_tree, OrthantRectPartitioner};
//! use geocast_overlay::{oracle, select::EmptyRectSelection, PeerInfo};
//! use geocast_geom::gen::uniform_points;
//!
//! let peers = PeerInfo::from_point_set(&uniform_points(100, 2, 1000.0, 7));
//! let overlay = oracle::equilibrium(&peers, &EmptyRectSelection);
//! let result = build_tree(&peers, &overlay, 0, &OrthantRectPartitioner::median());
//!
//! assert!(result.tree.is_spanning());            // every peer reached
//! assert_eq!(result.messages, peers.len() - 1);  // the paper's N−1 claim
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
pub mod repair;
pub mod stability;
pub mod validate;

pub use builder::{build_in_zone, build_tree, BuildResult, Zones};
pub use partition::{OrthantRectPartitioner, PickRule, ZonePartitioner};
pub use tree::{MulticastTree, TreeError};
