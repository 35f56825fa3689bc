//! Deterministic multi-start execution for the QAP solvers.
//!
//! Both Tabu search and simulated annealing run several independent,
//! seeded restarts and keep the best result.  The restarts are embarrassingly
//! parallel, so [`run_indexed`] fans them out; because every restart derives
//! its own RNG from a pre-drawn seed and results are collected *by restart
//! index*, the outcome is bit-identical to the serial execution regardless
//! of thread count or scheduling.
//!
//! Dispatch order:
//! 1. If a [`twoqan_pool::CompilePool`] is installed on the current thread
//!    (the batch driver and `TwoQanConfig::threads` both install one), the
//!    restarts are submitted to it — no new threads are ever spawned, even
//!    nested inside a batch job running on a pool worker.
//! 2. Otherwise a legacy `std::thread::scope` loop sized by
//!    `available_parallelism()` is used (and recorded in the global
//!    spawned-thread census so tests can prove the pool path spawns nothing).
//!
//! (The build environment has no crates.io access, so this is hand-rolled
//! rather than a `rayon` dependency.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0), f(1), …, f(count - 1)` and returns the results in index
/// order.
///
/// When `parallel` is `true` the indices are processed by the installed
/// [`twoqan_pool::CompilePool`] if one exists, else by a pool of scoped
/// threads pulling from a shared counter; with `parallel == false` (or a
/// single logical CPU and no installed pool) they run serially on the
/// caller's thread.  The returned vector is identical in every mode (index
/// `k` always holds `f(k)`), so callers get determinism for free as long as
/// `f` itself is a pure function of its index.
pub fn run_indexed<T, F>(count: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if !parallel || count <= 1 {
        return (0..count).map(f).collect();
    }
    // An installed pool always wins, even when it has a single worker: the
    // pool is the sole source of compile-work threads while installed.
    if let Some(results) = twoqan_pool::run_installed(count, &f) {
        return results;
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }

    twoqan_pool::census_add(threads);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= count {
                    break;
                }
                let value = f(k);
                results.lock().expect("result mutex poisoned")[k] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .expect("result mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index is processed exactly once"))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `f` with a 1-worker pool installed, so every `run_indexed`
    /// inside it runs inline on the calling thread: the serial reference of
    /// the solvers' determinism tests.
    pub(crate) fn serially<T>(f: impl FnOnce() -> T) -> T {
        let pool = twoqan_pool::CompilePool::new(1);
        let _guard = pool.install();
        f()
    }

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = run_indexed(17, false, |k| k * k);
        let parallel = run_indexed(17, true, |k| k * k);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn zero_and_one_counts_work() {
        assert_eq!(run_indexed(0, true, |k| k), Vec::<usize>::new());
        assert_eq!(run_indexed(1, true, |k| k + 1), vec![1]);
    }
}
