//! Spawned-thread census tests for `run_indexed`.
//!
//! The census is process-global, so these tests live in their own test
//! binary (no other test can spawn threads inside a measured window) and
//! hold [`CENSUS_LOCK`] against each other.

use std::sync::{Mutex, MutexGuard, PoisonError};
use twoqan_graphs::parallel::run_indexed;
use twoqan_pool::{spawned_thread_census, CompilePool};

static CENSUS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes census measurements; a failed test does not poison the rest.
fn census_lock() -> MutexGuard<'static, ()> {
    CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn installed_pool_is_used_without_spawning() {
    let _census = census_lock();
    let pool = CompilePool::new(2);
    let _guard = pool.install();
    let before = spawned_thread_census();
    let results = run_indexed(32, true, |k| k * 7);
    assert_eq!(spawned_thread_census(), before);
    assert_eq!(results, (0..32).map(|k| k * 7).collect::<Vec<_>>());
}

#[test]
fn single_worker_pool_keeps_everything_inline() {
    let _census = census_lock();
    let pool = CompilePool::new(1);
    let _guard = pool.install();
    let before = spawned_thread_census();
    let results = run_indexed(8, true, |k| k + 1);
    assert_eq!(spawned_thread_census(), before);
    assert_eq!(results, (1..=8).collect::<Vec<_>>());
}
