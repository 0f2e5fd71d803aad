//! The one parallel map: order-preserving, so deterministic.
//!
//! Simulations are single-threaded, so runs replay exactly; parallelism
//! goes only to maps of independent items, a figure sweep's seeded
//! experiments or an overlay build's per-peer rows. [`map_indexed`] runs
//! them on scoped threads, the caller's among them, each claiming the
//! next indices from an atomic cursor, and stores each result in its
//! index's slot: the output is the sequential run's. A map called from a
//! map's item runs inline, since the cores are already busy one level up
//! and a nested fan-out would oversubscribe them quadratically.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

std::thread_local! {
    /// `true` while this thread runs a map's items.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// How a map divides its indices: how many one claim takes, and below
/// how many the map runs inline. The two call shapes differ in nothing
/// else.
#[derive(Debug, Clone, Copy)]
pub struct Grain {
    claim: usize,
    parallel_from: usize,
}

impl Grain {
    /// Per-peer maps (rows of a bulk build, a join's re-selections, the
    /// oracle): cheap, uneven items. Claims of 32 keep cursor traffic
    /// negligible and still balance; below 512 items thread start-up
    /// would dominate the work.
    pub const PEERS: Grain = Grain {
        claim: 32,
        parallel_from: 512,
    };
    /// Figure sweeps: every job is a whole seeded experiment, so a
    /// claim takes one and two jobs already fan out.
    pub const JOBS: Grain = Grain {
        claim: 1,
        parallel_from: 2,
    };
}

/// Applies `f` to `0..n` across CPU cores, returning the outputs in
/// index order.
///
/// It runs inline — on the calling thread, asking nothing of the
/// machine — below `grain`'s size, on a thread already running a map's
/// items, and on a single-core machine.
///
/// # Example
///
/// ```
/// use geocast_sim::runner::{map_indexed, Grain};
///
/// let inputs = [1u64, 2, 3, 4];
/// let squares = map_indexed(Grain::JOBS, inputs.len(), |i| inputs[i] * inputs[i]);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn map_indexed<T, F>(grain: Grain, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n >= grain.parallel_from && !IN_MAP.with(Cell::get) {
        let threads = available_threads().min(n.div_ceil(grain.claim));
        if threads > 1 {
            return fan_out(n, threads, grain.claim, &f);
        }
    }
    (0..n).map(f).collect()
}

/// The machine's thread count, asked once per process and only by a map
/// about to fan out: the query reads system files and allocates.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Runs `f` over `0..n` on `threads` threads, the caller's included,
/// each claiming `claim` indices at a time.
pub(crate) fn fan_out<T, F>(n: usize, threads: usize, claim: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = || {
        IN_MAP.with(|m| m.set(true));
        loop {
            let start = cursor.fetch_add(claim, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + claim).min(n);
            let block: Vec<T> = (start..end).map(f).collect();
            let mut slots = slots.lock().expect("result lock poisoned");
            for (offset, value) in block.into_iter().enumerate() {
                slots[start + offset] = Some(value);
            }
        }
        IN_MAP.with(|m| m.set(false));
    };
    // The calling thread is one of the `threads`: it would only wait
    // otherwise, and every extra thread that allocates costs resident
    // memory of its own (its allocator arena keeps what it freed).
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|v| v.expect("every index produced a value"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn map_preserves_input_order() {
        for grain in [Grain::PEERS, Grain::JOBS] {
            let out = map_indexed(grain, 1000, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_input() {
        let out: Vec<usize> = map_indexed(Grain::JOBS, 0, |i| i);
        assert!(out.is_empty());
    }

    /// Below its grain's size a map runs on the calling thread, which
    /// it does not mark as running a map.
    #[test]
    fn single_thread_runs_inline() {
        let caller = thread::current().id();
        let out = map_indexed(Grain::PEERS, 511, |i| {
            (i + 1, thread::current().id(), IN_MAP.with(Cell::get))
        });
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &(v, id, marked))| v == i + 1 && id == caller && !marked));
    }

    /// Every thread running a map's items, the caller's too, is marked,
    /// so a map called from an item runs inline on that item's thread
    /// and leaves the mark in place; the mark ends with the outer map.
    #[test]
    fn worker_threads_are_marked() {
        let jobs = fan_out(8, 2, Grain::JOBS.claim, &|_| {
            let outer = thread::current().id();
            let inner: Vec<ThreadId> = map_indexed(Grain::PEERS, 2000, |_| thread::current().id());
            inner.iter().all(|&id| id == outer) && IN_MAP.with(Cell::get)
        });
        assert!(jobs.iter().all(|&inline| inline));
        assert!(!IN_MAP.with(Cell::get));
    }

    /// Whatever the machine, four threads claiming blocks produce the
    /// sequential answer, each index computed once.
    #[test]
    fn every_input_is_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let par = fan_out(5000, 4, Grain::PEERS.claim, &|i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i ^ 0xabc
        });
        assert_eq!(par, (0..5000).map(|i| i ^ 0xabc).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 5000);
    }
}
