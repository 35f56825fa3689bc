//! Spawned-thread census tests for `CompilePool` and `run_indexed`.
//!
//! The census is process-global, so these tests live in their own test
//! binary (no other test can spawn threads inside a measured window) and
//! hold [`CENSUS_LOCK`] against each other.

use std::sync::{Mutex, MutexGuard, PoisonError};
use twoqan_pool::{max_useful_workers, run_indexed, spawned_thread_census, CompilePool};

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

#[test]
fn installed_pool_is_used_without_spawning() {
    let _census = census_lock();
    let pool = CompilePool::new(2);
    let _guard = pool.install();
    let before = spawned_thread_census();
    let results = run_indexed(32, |k| k * 7);
    assert_eq!(spawned_thread_census(), before);
    assert_eq!(results, (0..32).map(|k| k * 7).collect::<Vec<_>>());
}

#[test]
fn single_worker_pool_keeps_everything_inline() {
    let _census = census_lock();
    let pool = CompilePool::new(1);
    let _guard = pool.install();
    let before = spawned_thread_census();
    let results = run_indexed(8, |k| k + 1);
    assert_eq!(spawned_thread_census(), before);
    assert_eq!(results, (1..=8).collect::<Vec<_>>());
}

#[test]
fn without_a_pool_run_indexed_provisions_one_transient_pool() {
    let _census = census_lock();
    assert!(CompilePool::current_workers().is_none());
    // Counts 0 and 1 run inline.
    let before = spawned_thread_census();
    assert_eq!(run_indexed(0, |k| k), Vec::<usize>::new());
    assert_eq!(run_indexed(1, |k| k + 1), vec![1]);
    assert_eq!(spawned_thread_census(), before);
    // A larger batch provisions one pool with a worker per core (the caller
    // is one of them); the nested batches inside it run on that pool.
    let results = run_indexed(8, |i| {
        let nested = run_indexed(4, |j| i * 10 + j);
        nested.iter().sum::<usize>()
    });
    let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
    assert_eq!(results, expect);
    assert_eq!(spawned_thread_census() - before, max_useful_workers() - 1);
    // The transient pool is uninstalled when the call returns.
    assert!(CompilePool::current_workers().is_none());
}
