//! Workspace static analysis for the geocast reproduction.
//!
//! [`lint`] is the workspace lint (`xtask lint`): a self-contained
//! lexer-based analyzer enforcing the determinism rules D001–D005
//! (hash-ordered collections, wall-clock reads, unseeded RNG, float
//! `partial_cmp`, `forbid(unsafe_code)`) and the reachability rule D006
//! (no public library name that only tests and examples mention) with
//! inline, reason-carrying waivers.
//!
//! `docs/ARCHITECTURE.md` § "The determinism contract" states the rules
//! and the waiver syntax; § "Reachability ledger" is what D006 keeps
//! true.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
