//! # geocast
//!
//! Decentralized construction of multicast trees embedded into P2P
//! overlay networks based on virtual geometric coordinates — a Rust
//! reproduction of Andreica, Drăguş, Sâmbotin & Ţăpuş (PODC 2010).
//!
//! Peers identify themselves with self-generated points in a
//! `D`-dimensional coordinate space, gossip their existence a bounded
//! number of hops, and select overlay neighbours with geometric rules.
//! On top of such overlays geocast builds:
//!
//! * **space-partitioning multicast trees** that reach all `N` peers
//!   with exactly `N − 1` messages and no duplicates (§2 of the paper),
//! * **stability-aware trees** in which a departing peer is always a
//!   leaf, given known departure times (§3).
//!
//! This crate is the user-facing facade: it re-exports the substrate
//! crates ([`geom`], [`sim`], [`overlay`], [`core`], [`metrics`]) and
//! hosts the [`figures`] module, whose harnesses regenerate every panel
//! of the paper's Figure 1 plus its in-text claims, ablations and
//! baselines.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use geocast::prelude::*;
//!
//! // 1. A population of peers with random virtual coordinates.
//! let peers = PeerInfo::from_point_set(&uniform_points(200, 2, 1000.0, 7));
//!
//! // 2. The converged overlay under the paper's §2 neighbour rule.
//! let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
//!
//! // 3. A multicast tree from peer 0 to every peer, zones split the
//! //    paper's way.
//! let everyone = (0..store.len()).collect();
//! let result =
//!     build_group_tree_on_store(&store, 0, &everyone, &OrthantRectPartitioner::median());
//!
//! assert!(result.tree.is_spanning());
//! assert_eq!(result.messages, store.len() - 1); // the N−1 claim
//! ```
//!
//! See `examples/` for scenario walkthroughs (cloud lease scheduling,
//! churn resilience); `geocast figures --panel P [--full]` regenerates
//! each of the paper's artifacts from [`figures`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

/// Multicast tree construction, stability trees, baselines.
pub use geocast_core as core;
/// Geometry substrate: points, zones, orthants, the L1 distance, generators.
pub use geocast_geom as geom;
/// Statistics, tables, charts.
pub use geocast_metrics as metrics;
/// Gossip overlay, neighbour selection, the topology store and its oracle.
pub use geocast_overlay as overlay;
/// Deterministic discrete-event simulator.
pub use geocast_sim as sim;

/// The things almost every user of geocast needs, in one import.
pub mod prelude {
    pub use geocast_core::groups::{
        build_group_tree_grafted, build_group_tree_on_store, GroupBuild, GroupEngine, GroupId,
    };
    pub use geocast_core::{
        baseline, protocol, stability, validate, BuildResult, MulticastTree,
        OrthantRectPartitioner, PickRule,
    };
    pub use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
    pub use geocast_geom::{Orthant, Point, PointSet, Rect};
    pub use geocast_metrics::{AsciiChart, Summary, Table};
    pub use geocast_overlay::select::{
        EmptyRectSelection, HyperplanesSelection, NeighborSelection,
    };
    pub use geocast_overlay::{
        churn, oracle, ConvergenceReport, NetworkConfig, OverlayGraph, OverlayNetwork, PeerId,
        PeerInfo, TopologyStore,
    };
    pub use geocast_sim::{
        runner::ParallelRunner,
        workload::{ChurnPattern, GroupOp, GroupWorkload, MembershipPlacement},
        FaultModel, NodeId, SimDuration, SimTime, Simulation,
    };
}
