//! Parallel experiment execution.
//!
//! The paper's framework was multi-threaded; in this reproduction the
//! simulations themselves are deterministic and single-threaded (so runs
//! replay exactly), and parallelism is applied where it is free of
//! nondeterminism: across **independent** experiment instances (seeds,
//! parameter points). [`ParallelRunner`] fans a closure out over inputs
//! on scoped `std::thread`s and returns outputs in input order.

use std::cell::Cell;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

std::thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a [`ParallelRunner`] worker thread.
///
/// Nested data-parallel helpers (e.g. the overlay engine's per-peer
/// fan-out) should check this and run sequentially: the cores are
/// already saturated one level up, and another `available_parallelism`
/// fan-out per job would oversubscribe the CPU quadratically.
#[must_use]
pub fn in_parallel_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs independent experiment instances across CPU cores.
///
/// # Example
///
/// ```
/// use geocast_sim::runner::ParallelRunner;
///
/// let runner = ParallelRunner::default();
/// let squares = runner.map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// A runner with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        ParallelRunner { threads }
    }

    /// The number of worker threads used.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every input, in parallel, preserving input order in
    /// the output.
    ///
    /// Work is distributed dynamically (an atomic cursor over the input
    /// slice), so uneven per-input cost still balances.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the run is aborted).
    pub fn map<I, O, F>(&self, inputs: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        if inputs.is_empty() {
            return Vec::new();
        }
        let threads = self.threads.min(inputs.len());
        if threads == 1 {
            return inputs.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<O>>> = Mutex::new((0..inputs.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        let out = f(&inputs[i]);
                        results.lock().expect("result lock poisoned")[i] = Some(out);
                    }
                });
            }
        });
        results
            .into_inner()
            .expect("result lock poisoned")
            .into_iter()
            .map(|o| o.expect("every input produced an output"))
            .collect()
    }
}

impl Default for ParallelRunner {
    /// A runner using all available CPU cores.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ParallelRunner { threads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        let runner = ParallelRunner::new(4);
        let inputs: Vec<u64> = (0..100).collect();
        let outputs = runner.map(&inputs, |&x| x * 2);
        assert_eq!(outputs, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_input() {
        let runner = ParallelRunner::new(2);
        let outputs: Vec<u64> = runner.map(&[], |x: &u64| *x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn single_thread_runs_inline() {
        let runner = ParallelRunner::new(1);
        assert_eq!(runner.threads(), 1);
        let outputs = runner.map(&[1, 2, 3], |&x: &i32| x + 1);
        assert_eq!(outputs, vec![2, 3, 4]);
    }

    #[test]
    fn every_input_is_processed_exactly_once() {
        let runner = ParallelRunner::new(8);
        let calls = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..500).collect();
        let outputs = runner.map(&inputs, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(outputs, inputs);
    }

    #[test]
    fn worker_threads_are_marked() {
        assert!(!in_parallel_worker());
        let runner = ParallelRunner::new(4);
        let inputs: Vec<u64> = (0..64).collect();
        let flags = runner.map(&inputs, |_| in_parallel_worker());
        assert!(flags.iter().all(|&inside| inside));
        assert!(!in_parallel_worker());
    }

    #[test]
    fn default_uses_at_least_one_thread() {
        assert!(ParallelRunner::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ParallelRunner::new(0);
    }
}
