//! Spawned-thread census tests for `CompilePool`.
//!
//! The census is process-global, so these tests live in their own test
//! binary (no other test can spawn threads inside a measured window) and
//! hold [`CENSUS_LOCK`] against each other.

use std::sync::{Mutex, MutexGuard, PoisonError};
use twoqan_pool::{spawned_thread_census, CompilePool};

static CENSUS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes census measurements; a failed test does not poison the rest.
fn census_lock() -> MutexGuard<'static, ()> {
    CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn one_worker_pool_spawns_nothing_and_runs_serially() {
    let _census = census_lock();
    let before = spawned_thread_census();
    let pool = CompilePool::new(1);
    assert_eq!(spawned_thread_census(), before);
    assert_eq!(pool.workers(), 1);
    assert_eq!(pool.run_indexed(5, |k| k), vec![0, 1, 2, 3, 4]);
}

#[test]
fn spawns_exactly_workers_minus_one_threads() {
    let _census = census_lock();
    let before = spawned_thread_census();
    let pool = CompilePool::new(7);
    assert_eq!(spawned_thread_census() - before, 6);
    assert_eq!(pool.workers(), 7);
    drop(pool);
    // Dropping joins workers without spawning more.
    assert_eq!(spawned_thread_census() - before, 6);
}
