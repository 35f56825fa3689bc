//! Spawned-thread census tests for the batch driver and standalone
//! compiles.
//!
//! The census is process-global, so census tests live in their own test
//! binary (no other test can spawn threads inside a measured window) and
//! hold [`CENSUS_LOCK`] against each other.

use std::sync::{Mutex, MutexGuard, PoisonError};
use twoqan::{BatchCompiler, BatchJob, DegradationRung, TwoQanCompiler, TwoQanConfig};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};
use twoqan_pool::{max_useful_workers, spawned_thread_census, CompilePool};

static CENSUS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes census measurements; a failed test does not poison the rest.
fn census_lock() -> MutexGuard<'static, ()> {
    CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn batch_spawns_exactly_the_requested_workers_with_no_nested_threads() {
    // A batch at `--threads N` must account for exactly N − 1 spawned OS
    // threads (the caller is the N-th worker): the jobs' nested
    // multi-start restarts ride the same pool instead of spawning.
    let device = Device::montreal();
    let circuits: Vec<Circuit> = (0..4)
        .map(|s| trotter_step(&nnn_ising(7 + s % 2, s as u64), 1.0))
        .collect();
    let compiler = TwoQanCompiler::new(TwoQanConfig::default());
    let jobs: Vec<BatchJob<'_>> = circuits
        .iter()
        .map(|c| BatchJob {
            circuit: c,
            device: &device,
            compiler: &compiler,
        })
        .collect();
    let _census = census_lock();
    for threads in [1usize, 2, 4] {
        let batch = BatchCompiler::new(threads);
        // The resolved count is the *request* clamped to cores and jobs;
        // the pool then spawns resolved − 1 threads (caller included).
        let resolved = batch.resolved_threads(jobs.len());
        let before = spawned_thread_census();
        let results = batch.compile_batch(&jobs);
        let spawned = spawned_thread_census() - before;
        assert_eq!(
            spawned,
            resolved - 1,
            "--threads {threads} resolves to {resolved} worker(s) and must spawn exactly {}",
            resolved - 1
        );
        assert!(results.iter().all(Result::is_ok));
    }
}

#[test]
fn standalone_portfolio_compile_spawns_at_most_one_pool() {
    // With no pool installed, a compile's candidates provision one
    // transient pool with a worker per core, shared by their nested solver
    // restarts, instead of spawning threads per candidate.
    let device = Device::montreal().with_heterogeneous_calibration(5);
    let circuit = trotter_step(&nnn_heisenberg(10, 2), 1.0);
    let _census = census_lock();
    assert!(CompilePool::current_workers().is_none());
    let compiler = TwoQanCompiler::new(TwoQanConfig::calibration_aware());
    let before = spawned_thread_census();
    let (_, report) = compiler.compile_with_report(&circuit, &device).unwrap();
    let spawned = spawned_thread_census() - before;
    assert_eq!(report.trials, 6, "the full portfolio ran");
    assert_eq!(report.rung, DegradationRung::Full);
    assert_eq!(
        spawned,
        max_useful_workers() - 1,
        "spawned {spawned} threads on {} cores",
        max_useful_workers()
    );
}
