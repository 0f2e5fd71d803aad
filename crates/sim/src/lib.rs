//! Deterministic discrete-event simulation kernel for geocast.
//!
//! The paper evaluated its algorithms on a multi-threaded Python
//! simulation framework. This crate is the Rust substrate replacing it: a
//! **deterministic** discrete-event simulator in which peers are
//! [`Node`]s exchanging messages under pluggable [`LatencyModel`]s and
//! [`FaultModel`]s, driven by a virtual clock. Determinism (seeded RNG,
//! total event order with sequence-number tie-breaking) makes every
//! experiment in the repository reproducible bit-for-bit — strictly
//! stronger than the original framework, and the paper's metrics
//! (topology shape, message counts) do not depend on wall-clock
//! interleavings.
//!
//! # Event order
//!
//! Every event — a delivery, a timer, an injection — fires in ascending
//! `(time, sequence number)` order, where the sequence number is the
//! order in which the simulation scheduled it: a callback's sends and
//! timers in the order the callback requested them, callbacks in the
//! order they ran. Events due at the same instant therefore fire first
//! in, first out, however many share it. Lazily cancelled timers still
//! take their place in that order (and count as processed events) but
//! run no callback. The queue behind the order is a timing wheel —
//! power-of-two time buckets found through an occupancy bitmap, event
//! bodies in a reused slab, a heap of small keys for events past the
//! wheel's span — whose pops are exactly those of one binary heap over
//! `(time, sequence number)`; `tests/prop_sim.rs` checks it against a
//! sorted reference.
//!
//! Multi-threading is kept where it matters for throughput and cannot
//! change an answer: [`runner::map_indexed`], the one parallel map,
//! fans independent seeded simulations, and an overlay build's per-peer
//! rows, out across CPU cores, in index order.
//!
//! # Example
//!
//! ```
//! use geocast_sim::{Message, Node, NodeId, Context, Simulation, SimDuration};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {
//!     fn tag(&self) -> &'static str { "ping" }
//! }
//!
//! /// Forwards a token around a ring until its TTL expires.
//! struct RingNode { next: NodeId }
//! impl Node for RingNode {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if ctx.self_id() == NodeId(0) {
//!             ctx.send(self.next, Ping(8));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
//!         if msg.0 > 0 {
//!             ctx.send(self.next, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! let nodes = (0..4).map(|i| RingNode { next: NodeId((i + 1) % 4) }).collect();
//! let mut sim = Simulation::builder(nodes).seed(7).build();
//! sim.run_until_quiescent();
//! assert_eq!(sim.counters().sent_with_tag("ping"), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod counters;
mod event;
mod fault;
mod latency;
mod node;
#[cfg(test)]
mod par;
mod sim;
mod time;

pub mod detector;
pub mod runner;
pub mod workload;

pub use context::Context;
pub use counters::{Counters, TraceEntry, TraceLog};
pub use detector::{
    DetectorConfig, DetectorEvent, DetectorMsg, DetectorNode, DetectorVerdict, PeerStatus,
};
pub use event::TimerId;
pub use fault::{DropCause, FaultModel, GilbertElliott};
pub use latency::{ConstantLatency, CoordDistanceLatency, LatencyModel, UniformLatency};
pub use node::{Message, Node, NodeId};
pub use sim::{RunOutcome, Simulation, SimulationBuilder};
pub use time::{SimDuration, SimTime};
