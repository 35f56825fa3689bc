//! Criterion-shim benches for the kernelized simulation engine: per-kernel
//! gate application on a 16-qubit state and a small noisy-trajectory
//! evaluation.  Run with `cargo bench -p twoqan-bench --bench sim_kernels`;
//! set `BENCH_SAMPLE_SIZE=1` for a smoke pass.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use twoqan::CompilePool;
use twoqan_circuit::ScheduledCircuit;
use twoqan_device::TwoQubitBasis;
use twoqan_ham::QaoaProblem;
use twoqan_math::gates;
use twoqan_sim::kernels::{apply_single_kernel, apply_two_kernel, SingleKernel, TwoKernel};
use twoqan_sim::{NoiseModel, StateVector, TrajectorySimulator};

const N: usize = 16;

fn bench_gate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernels");
    group.sample_size(20);
    let qa = N / 2;
    let qb = 0;

    let rzz_kernel = TwoKernel::from_matrix(&gates::zz_interaction(0.61));
    let mut state = StateVector::plus_state(N);
    group.bench_with_input(BenchmarkId::new("rzz_kernel", N), &N, |b, _| {
        b.iter(|| apply_two_kernel(state.amplitudes_mut(), qa, qb, &rzz_kernel, 1))
    });

    let swap_kernel = TwoKernel::from_matrix(&gates::swap());
    let mut state = StateVector::plus_state(N);
    group.bench_with_input(BenchmarkId::new("swap_kernel", N), &N, |b, _| {
        b.iter(|| apply_two_kernel(state.amplitudes_mut(), qa, qb, &swap_kernel, 1))
    });

    let rx_kernel = SingleKernel::from_matrix(&gates::rx(0.4));
    let mut state = StateVector::plus_state(N);
    group.bench_with_input(BenchmarkId::new("rx_kernel", N), &N, |b, _| {
        b.iter(|| apply_single_kernel(state.amplitudes_mut(), qa, &rx_kernel, 1))
    });
    group.finish();
}

fn bench_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_trajectories");
    group.sample_size(10);
    // The logical (uncompiled) layer keeps this bench free of compiler
    // noise.
    let problem = QaoaProblem::random_regular(12, 3, 5);
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    let circuit = problem.circuit(&[(gamma, beta)], false);
    let gate_list: Vec<_> = circuit.iter().copied().collect();
    let schedule = ScheduledCircuit::asap_from_gates(circuit.num_qubits(), &gate_list);
    let edges = problem.graph().edges();
    let noise = NoiseModel::from_device(&twoqan_device::Device::montreal());
    let sim = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 8, 42);
    // Serial shots: a 1-worker pool keeps every shot on this thread.
    let serial = CompilePool::new(1);
    let _guard = serial.install();
    group.bench_function("qaoa12_noisy_kernelized", |b| {
        b.iter(|| black_box(sim.ising_cost_expectation(&schedule, &edges)))
    });
    group.finish();
}

criterion_group!(benches, bench_gate_kernels, bench_trajectories);
criterion_main!(benches);
