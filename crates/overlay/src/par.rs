//! Deterministic data-parallel map for per-peer computations.
//!
//! [`map_indexed`] fans `f` out across CPU cores on scoped
//! `std::thread`s with a dynamic work cursor; results land in per-index
//! slots, so the output is identical to the sequential run —
//! parallelism never changes a topology, only how fast it is computed.
//!
//! On a [`geocast_sim::runner::ParallelRunner`] worker thread the map
//! always runs sequentially: the cores are already saturated one level
//! up (figure sweeps fan out across seeds/parameter points), and a
//! nested `available_parallelism` fan-out per job would oversubscribe
//! the CPU quadratically.

/// Inputs below this size run sequentially: thread start-up would
/// dominate the work.
const PARALLEL_MIN_ITEMS: usize = 512;

/// Indices a worker claims at a time: few enough claims that cursor
/// traffic is negligible, small enough blocks to balance uneven
/// per-index cost.
const BLOCK: usize = 32;

/// Applies `f` to `0..n`, returning outputs in index order.
pub(crate) fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if n >= PARALLEL_MIN_ITEMS && threads > 1 && !geocast_sim::runner::in_parallel_worker() {
        return map_parallel(n, threads.min(n), &f);
    }
    (0..n).map(f).collect()
}

fn map_parallel<T, F>(n: usize, threads: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = || loop {
        let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + BLOCK).min(n);
        let block: Vec<T> = (start..end).map(f).collect();
        let mut slots = slots.lock().expect("result lock poisoned");
        for (offset, value) in block.into_iter().enumerate() {
            slots[start + offset] = Some(value);
        }
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

    #[test]
    fn map_preserves_index_order() {
        let out = map_indexed(1000, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        assert!(map_indexed(0, |i| i).is_empty());
        assert_eq!(map_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let seq: Vec<usize> = (0..5000).map(|i| i ^ 0xabc).collect();
        let par = map_parallel(5000, 4, &|i| i ^ 0xabc);
        assert_eq!(par, seq);
    }
}
