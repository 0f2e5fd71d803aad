//! Workspace static analysis for the geocast reproduction.
//!
//! [`lint`] is the determinism lint (`xtask lint`): a self-contained
//! lexer-based analyzer enforcing rules D001–D005 (hash-ordered
//! collections, wall-clock reads, unseeded RNG, float `partial_cmp`,
//! `forbid(unsafe_code)`) with inline, reason-carrying waivers.
//!
//! `docs/ARCHITECTURE.md` § "The determinism contract" states the rules
//! and the waiver syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
