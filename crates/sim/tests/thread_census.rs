//! Spawned-thread census test for the state-vector front end.
//!
//! The census is process-global, so this test lives in its own test binary:
//! no other test can spawn threads inside its measured window.

use twoqan_circuit::{Circuit, Gate, GateKind};
use twoqan_pool::{max_useful_workers, spawned_thread_census, CompilePool};
use twoqan_sim::StateVector;

#[test]
fn large_circuit_without_a_pool_provisions_one_pool_for_the_whole_call() {
    // 2^21 amplitudes: past the size at which every gate fans out.
    let n = 21;
    let mut circuit = Circuit::new(n);
    for k in 0..40 {
        circuit.push(Gate::single(GateKind::Rz(0.1 * (k + 1) as f64), k % n));
    }
    assert!(CompilePool::current_workers().is_none());
    let before = spawned_thread_census();
    let mut state = StateVector::plus_state(n);
    state.apply_circuit(&circuit);
    let spawned = spawned_thread_census() - before;
    assert!(
        spawned < max_useful_workers(),
        "40 gates spawned {spawned} threads; one pool spawns at most {}",
        max_useful_workers() - 1
    );
    assert!(CompilePool::current_workers().is_none());

    // Amplitudes are bit-identical to the serial application.
    let serial = CompilePool::new(1);
    let _guard = serial.install();
    let mut reference = StateVector::plus_state(n);
    reference.apply_circuit(&circuit);
    assert_eq!(state, reference);
}
