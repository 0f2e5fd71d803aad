//! The host-speed yardstick: a fixed piece of harness-owned work, timed
//! next to every slice of a measured phase, that tells how much slower the
//! host is running *right now* than the nominal host the results are stated
//! for.
//!
//! Why it exists: the benchmark runs on two cores of a shared host whose
//! memory system other tenants load for minutes at a time. Identical work
//! (same seed, fresh engine, 2 000 `churn_k1` events) took 4.2–9.9 s over
//! six minutes, and 480 `groups_scattered` ops 3.3–5.4 s, while a
//! register-only loop next to it moved by 3 %: the host does not preempt,
//! it stalls loads and stores. A slow stretch outlasts a run, so nothing
//! read from inside one run (a quiet window, a low percentile) escapes it:
//! ten-seed spreads of such figures reached 0.21–0.43, against a largest
//! allowed bound of 0.25. What does escape it: timing known work in the same
//! seconds and dividing by how slow it ran. Every wall-clock metric of the
//! untraced run is therefore reported in *nominal* seconds — wall seconds
//! divided by the host's slowdown over the same quarter-second window — and
//! ten-seed spreads of 0.05–0.23 on the raw events/s fall to 0.02–0.09
//! (`results/HOST.md`).
//!
//! What it does: the same things the library does all day, because a
//! yardstick that stalls differently from the code it sits next to cancels
//! nothing (under one and the same load a dependent pointer chase slowed
//! 1.3×, gathers from a 32 MiB table 1.2×, building `BTreeMap`s 1.6×, and
//! the workload 1.75×). One quantum builds and drops ordered maps of small
//! vectors from random keys (the allocator and B-tree nodes: what
//! `core::groups` and `overlay::store` are made of), sorts a vector, and
//! walks a 1 MiB pointer ring that the workload has just pushed out of the
//! core's cache. It uses no library code, so no change to the library can
//! move it.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::splitmix;

/// Seconds one quantum takes on the nominal host: the recording host (see
/// `results/HOST.md`) in its quietest minutes, run between slices of the
/// workloads. A scale constant and nothing more — it fixes which host
/// "nominal seconds" are seconds of; ratios between two commits measured on
/// one host do not depend on it.
pub const NOMINAL_QUANTUM_S: f64 = 0.0115;

/// How much harder the host's load hits the library than the yardstick:
/// when a quantum takes `q` times its nominal time, the library's hot paths
/// take `q.powf(SENSITIVITY)` times theirs. Fitted, not derived: over two
/// sets of ten runs per workload in a loaded hour (quantum 1.09–1.69 times
/// nominal) the slope of ln(wall rate) and of ln(wall p50) on ln(quantum
/// time) was 0.86–1.54 over the five workloads, median 1.22. With 1.0 the
/// runs' spreads were 0.02–0.07, with 1.2 0.02–0.06; the value matters on
/// a loaded host and not at all on a quiet one.
pub const SENSITIVITY: f64 = 1.2;

/// Ordered maps built per quantum.
const MAPS: usize = 20;

/// Random keys inserted into each map.
const KEYS_PER_MAP: usize = 2_000;

/// Vectors sorted per quantum, and their length.
const SORTS: usize = 10;
const SORT_LEN: usize = 4_096;

/// Entries of the pointer ring (4 bytes each: 1 MiB) and steps walked per
/// quantum — a little more than once round.
const RING: usize = 256 << 10;
const RING_STEPS: usize = 300_000;

/// The yardstick's standing state. Its inputs come from a fixed stream, not
/// from the run's seed: every run of every workload times the same work.
#[derive(Debug)]
pub struct Yardstick {
    ring: Vec<u32>,
    at: u32,
    stream: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        // Sattolo's shuffle: a permutation that is one single cycle, so the
        // walk visits every entry before it repeats.
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..RING).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            ring.swap(i, j);
        }
        Yardstick {
            ring,
            at: 0,
            stream: 0x7a11_u64,
        }
    }
}

impl Yardstick {
    /// Runs one quantum and returns the wall seconds it took.
    pub fn quantum(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..MAPS {
            let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for _ in 0..KEYS_PER_MAP {
                let key = splitmix(&mut self.stream) % 100_000;
                map.entry(key).or_default().push(key as u32);
            }
            let thirds: BTreeSet<u64> = map.keys().map(|k| k / 3).collect();
            black_box((&map, &thirds));
        }
        for _ in 0..SORTS {
            let mut v: Vec<u64> = (0..SORT_LEN).map(|_| splitmix(&mut self.stream)).collect();
            v.sort_unstable();
            black_box(&v);
        }
        let mut at = self.at;
        for _ in 0..RING_STEPS {
            at = self.ring[at as usize];
        }
        self.at = black_box(at);
        started.elapsed().as_secs_f64()
    }

    /// The host's slowdown right now, as the library feels it: the mean of
    /// `quanta` quanta over the nominal quantum, raised to [`SENSITIVITY`].
    /// 1.0 on the nominal host; 1.5 when the library's work takes half as
    /// long again.
    pub fn slowdown(&mut self, quanta: usize) -> f64 {
        let quanta = quanta.max(1);
        let total: f64 = (0..quanta).map(|_| self.quantum()).sum();
        (total / quanta as f64 / NOMINAL_QUANTUM_S).powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle() {
        let y = Yardstick::default();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = y.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, RING);
    }

    #[test]
    fn a_quantum_takes_time_and_moves_the_stream() {
        let mut y = Yardstick::default();
        let before = (y.at, y.stream);
        assert!(y.quantum() > 0.0);
        assert_ne!((y.at, y.stream), before);
        assert!(y.slowdown(2) > 0.0);
    }
}
