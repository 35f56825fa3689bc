//! Stochastic Pauli-error ("quantum trajectory") simulation.
//!
//! The analytic depolarizing model of [`crate::noise`] estimates the noisy
//! expectation as `F · ⟨C⟩_ideal`.  This module provides an independent
//! Monte-Carlo check: each shot applies the compiled circuit and, after
//! every two-qubit operation, injects a random two-qubit Pauli error with a
//! probability derived from the gate's native-gate count.  Read-out errors
//! flip each measured expectation contribution with the calibrated
//! probability.  Averaging over shots yields a noisy `⟨C⟩` estimate that the
//! tests compare against the analytic model.
//!
//! # Kernels and parallelism
//!
//! The sampler classifies the circuit once ([`CompiledCircuit`]),
//! precomputes the per-gate error probabilities and the per-basis-state
//! Ising cost table ([`IsingCostTable`]), and replays shots on the compile
//! pool (`twoqan_pool::run_indexed`; install a 1-worker `CompilePool` for
//! serial shots).  Every shot derives its RNG from a seed pre-drawn from the
//! sampler's seed and shot values are reduced in shot order, so the estimate
//! is **bit-identical** for a fixed seed regardless of thread count.  The
//! tests check it against the original per-index, matrix-rebuilding serial
//! estimator, which lives in the test module.

use crate::kernels::{CompiledCircuit, CompiledOp, SingleKernel};
use crate::noise::NoiseModel;
use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan_circuit::ScheduledCircuit;
use twoqan_device::TwoQubitBasis;
use twoqan_math::pauli::Pauli;

/// The Ising cost `Σ_{(u,v)} ±1` of every computational basis state,
/// precomputed once so a shot's read-out reduces to a single weighted pass
/// over the probabilities instead of one full pass per edge.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingCostTable {
    costs: Vec<f64>,
}

impl IsingCostTable {
    /// Builds the table for an `n`-qubit register and an edge list
    /// (`O(edges · 2^n)` once, amortized over all shots).
    pub fn new(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let dim = 1usize << num_qubits;
        let mut costs = vec![0.0f64; dim];
        for &(u, v) in edges {
            let mask = (1usize << u) | (1usize << v);
            for (idx, c) in costs.iter_mut().enumerate() {
                // Parity of the two measured bits: equal bits contribute +1.
                *c += if (idx & mask).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
            }
        }
        Self { costs }
    }

    /// The cost of one basis state.
    pub fn cost(&self, basis_state: usize) -> f64 {
        self.costs[basis_state]
    }

    /// The expectation `Σ_idx |ψ_idx|² · cost(idx)` — equal to
    /// `Σ_edges ⟨Z_u Z_v⟩` up to floating-point summation order.
    ///
    /// # Panics
    ///
    /// Panics if the state's dimension differs from the table's.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        assert_eq!(
            state.amplitudes().len(),
            self.costs.len(),
            "cost table and state dimensions differ"
        );
        state
            .amplitudes()
            .iter()
            .zip(&self.costs)
            .map(|(a, c)| a.norm_sqr() * c)
            .sum()
    }
}

/// A Monte-Carlo Pauli-error simulator for compiled circuits.
#[derive(Debug, Clone)]
pub struct TrajectorySimulator {
    noise: NoiseModel,
    basis: TwoQubitBasis,
    shots: usize,
    seed: u64,
}

impl TrajectorySimulator {
    /// Creates a trajectory simulator.
    pub fn new(noise: NoiseModel, basis: TwoQubitBasis, shots: usize, seed: u64) -> Self {
        Self {
            noise,
            basis,
            shots,
            seed,
        }
    }

    /// Number of shots per estimate.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Estimates the noisy expectation of the Ising cost `Σ Z_uZ_v` over
    /// `edges` after executing `schedule` starting from `|+⟩^{⊗n}` — the
    /// QAOA setting.  `edges` are given in terms of the *physical* qubits the
    /// logical cost-graph vertices were mapped to.
    ///
    /// The circuit is classified once and the shots replay on the compile
    /// pool from pre-drawn per-shot seeds.
    pub fn ising_cost_expectation(
        &self,
        schedule: &ScheduledCircuit,
        edges: &[(usize, usize)],
    ) -> f64 {
        let n = schedule.num_qubits();
        let error_per_native_gate = self.noise.two_qubit_error();
        let readout = self.noise.readout_error();
        // Read-out errors flip each of the two measured qubits
        // independently; a single flip inverts the parity.  The factor is
        // edge-independent, so it scales the whole shot value.
        let readout_factor = 1.0 - 2.0 * (readout * (1.0 - readout) * 2.0);

        // One-time per-circuit work, shared by every shot.
        let compiled = CompiledCircuit::from_scheduled(schedule);
        let cost_model = self.basis.cost_model();
        let error_probabilities: Vec<Option<f64>> = schedule
            .iter_gates()
            .map(|gate| {
                gate.is_two_qubit().then(|| {
                    let native = gate.kind.hardware_two_qubit_cost(cost_model);
                    1.0 - (1.0 - error_per_native_gate).powi(native as i32)
                })
            })
            .collect();
        let pauli_kernels: [SingleKernel; 4] = [
            SingleKernel::from_matrix(&Pauli::I.matrix()),
            SingleKernel::from_matrix(&Pauli::X.matrix()),
            SingleKernel::from_matrix(&Pauli::Y.matrix()),
            SingleKernel::from_matrix(&Pauli::Z.matrix()),
        ];
        let table = IsingCostTable::new(n, edges);

        // Per-shot seeds pre-drawn from the sampler seed, so the estimate
        // does not depend on execution order or thread count.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let shot_seeds: Vec<u64> = (0..self.shots).map(|_| rng.gen::<u64>()).collect();

        let shot_values = twoqan_pool::run_indexed(self.shots, |k| {
            let mut shot_rng = StdRng::seed_from_u64(shot_seeds[k]);
            let mut state = StateVector::plus_state(n);
            for (op, error_probability) in compiled.ops().iter().zip(&error_probabilities) {
                // Shots already saturate the thread pool; kernels stay
                // serial inside a shot.
                op.apply(state.amplitudes_mut(), 1);
                if let (
                    CompiledOp::Two {
                        qubit_a, qubit_b, ..
                    },
                    Some(p),
                ) = (op, error_probability)
                {
                    if shot_rng.gen::<f64>() < *p {
                        inject_random_pauli(
                            &mut state,
                            *qubit_a,
                            *qubit_b,
                            &pauli_kernels,
                            &mut shot_rng,
                        );
                    }
                }
            }
            table.expectation(&state) * readout_factor
        });
        shot_values.iter().sum::<f64>() / self.shots as f64
    }
}

/// Applies a uniformly random non-identity two-qubit Pauli error through the
/// pre-classified Pauli kernels.
fn inject_random_pauli<R: Rng + ?Sized>(
    state: &mut StateVector,
    a: usize,
    b: usize,
    pauli_kernels: &[SingleKernel; 4],
    rng: &mut R,
) {
    loop {
        let pa = rng.gen_range(0..4usize);
        let pb = rng.gen_range(0..4usize);
        if pa == 0 && pb == 0 {
            continue;
        }
        if pa != 0 {
            crate::kernels::apply_single_kernel(state.amplitudes_mut(), a, &pauli_kernels[pa], 1);
        }
        if pb != 0 {
            crate::kernels::apply_single_kernel(state.amplitudes_mut(), b, &pauli_kernels[pb], 1);
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::{naive_gate, naive_single};
    use twoqan_circuit::{Gate, GateKind, ScheduledCircuit};
    use twoqan_device::{Calibration, Device};

    /// The four Pauli operators, in `I, X, Y, Z` order: the reference
    /// estimator's error draws index into it.
    const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The noise model of Montreal under the given calibration.
    fn noise_with(calibration: Calibration) -> NoiseModel {
        NoiseModel::from_device(
            &Device::montreal()
                .try_with_calibration(calibration)
                .unwrap(),
        )
    }

    /// The pre-kernel reference estimator: branch-per-index loops, matrices
    /// rebuilt per application, one RNG stream for strictly serial shots,
    /// and one read-out pass per edge.
    fn naive_expectation(
        sim: &TrajectorySimulator,
        schedule: &ScheduledCircuit,
        edges: &[(usize, usize)],
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(sim.seed);
        let n = schedule.num_qubits();
        let error_per_native_gate = sim.noise.two_qubit_error();
        let readout = sim.noise.readout_error();
        let mut total = 0.0;
        for _ in 0..sim.shots {
            let mut state = StateVector::plus_state(n);
            for gate in schedule.iter_gates() {
                naive_gate(state.amplitudes_mut(), gate);
                if gate.is_two_qubit() {
                    let native = gate.kind.hardware_two_qubit_cost(sim.basis.cost_model());
                    let error_probability = 1.0 - (1.0 - error_per_native_gate).powi(native as i32);
                    if rng.gen::<f64>() < error_probability {
                        // A uniformly random non-identity two-qubit Pauli.
                        loop {
                            let pa = PAULIS[rng.gen_range(0..4)];
                            let pb = PAULIS[rng.gen_range(0..4)];
                            if pa == Pauli::I && pb == Pauli::I {
                                continue;
                            }
                            if pa != Pauli::I {
                                naive_single(state.amplitudes_mut(), gate.qubit0(), &pa.matrix());
                            }
                            if pb != Pauli::I {
                                naive_single(state.amplitudes_mut(), gate.qubit1(), &pb.matrix());
                            }
                            break;
                        }
                    }
                }
            }
            let mut shot_value = 0.0;
            for &(u, v) in edges {
                let mut zz = state.expectation_zz(u, v);
                // Read-out errors flip each of the two measured qubits
                // independently; a single flip inverts the parity.
                let flip_parity = readout * (1.0 - readout) * 2.0;
                zz *= 1.0 - 2.0 * flip_parity;
                shot_value += zz;
            }
            total += shot_value;
        }
        total / sim.shots as f64
    }

    /// One QAOA layer on a 4-cycle, already "compiled" (the cycle embeds in
    /// any of the devices, so the physical circuit equals the logical one).
    fn ring_schedule(gamma: f64, beta: f64) -> (ScheduledCircuit, Vec<(usize, usize)>) {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut gates = Vec::new();
        for &(u, v) in &edges {
            gates.push(Gate::canonical(u, v, 0.0, 0.0, gamma));
        }
        for q in 0..4 {
            gates.push(Gate::single(GateKind::Rx(2.0 * beta), q));
        }
        (ScheduledCircuit::asap_from_gates(4, &gates), edges)
    }

    #[test]
    fn noiseless_trajectories_match_exact_simulation() {
        let (schedule, edges) = ring_schedule(0.6157, std::f64::consts::FRAC_PI_8);
        let sim = TrajectorySimulator::new(NoiseModel::noiseless(), TwoQubitBasis::Cnot, 3, 7);
        let value = sim.ising_cost_expectation(&schedule, &edges);
        // Exact reference.
        let mut state = StateVector::plus_state(4);
        state.apply_compiled(&CompiledCircuit::from_scheduled(&schedule));
        let exact = state.ising_cost_expectation(&edges);
        assert!(
            (value - exact).abs() < 1e-9,
            "trajectories {value} vs exact {exact}"
        );
        assert!(exact < 0.0);
        // The naive estimator agrees on the noiseless value as well.
        let naive = naive_expectation(&sim, &schedule, &edges);
        assert!((naive - exact).abs() < 1e-9);
    }

    #[test]
    fn noisy_trajectories_shrink_the_signal() {
        let (schedule, edges) = ring_schedule(0.6157, std::f64::consts::FRAC_PI_8);
        let mut state = StateVector::plus_state(4);
        state.apply_compiled(&CompiledCircuit::from_scheduled(&schedule));
        let exact = state.ising_cost_expectation(&edges);

        // An exaggerated error rate so that 60 shots show the effect clearly.
        let noisy_calibration = Calibration {
            two_qubit_error: 0.15,
            ..Calibration::montreal_october_2021()
        };
        let sim =
            TrajectorySimulator::new(noise_with(noisy_calibration), TwoQubitBasis::Cnot, 60, 11);
        let noisy = sim.ising_cost_expectation(&schedule, &edges);
        assert!(
            noisy > exact,
            "noise must shrink the (negative) cost towards 0: {noisy} vs {exact}"
        );
        assert!(
            noisy < 0.5,
            "noisy estimate should stay well below random-plus-noise levels"
        );
    }

    #[test]
    fn trajectory_estimates_track_the_analytic_model() {
        let (schedule, edges) = ring_schedule(0.6157, std::f64::consts::FRAC_PI_8);
        let device = Device::montreal();
        let noise = NoiseModel::from_device(&device);
        let metrics =
            twoqan_circuit::HardwareMetrics::of(&schedule, TwoQubitBasis::Cnot.cost_model());
        let mut state = StateVector::plus_state(4);
        state.apply_compiled(&CompiledCircuit::from_scheduled(&schedule));
        let ideal = state.ising_cost_expectation(&edges);
        let analytic = noise.noisy_expectation(ideal, &metrics, 4);
        let sim = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 200, 3);
        let sampled = sim.ising_cost_expectation(&schedule, &edges);
        // Both must lie between the ideal value and zero, reasonably close
        // to each other (the trajectory model has no idle decoherence term).
        assert!(analytic >= ideal && analytic <= 0.0);
        assert!(sampled >= ideal - 0.2 && sampled <= 0.1);
        assert!((sampled - analytic).abs() < 0.6);
    }

    #[test]
    fn serial_and_parallel_shots_are_bit_identical() {
        let (schedule, edges) = ring_schedule(0.6157, std::f64::consts::FRAC_PI_8);
        let noisy_calibration = Calibration {
            two_qubit_error: 0.12,
            ..Calibration::montreal_october_2021()
        };
        let noise = noise_with(noisy_calibration);
        let on_pool = |workers: usize, sim: &TrajectorySimulator| {
            let pool = twoqan_pool::CompilePool::new(workers);
            let _guard = pool.install();
            sim.ising_cost_expectation(&schedule, &edges)
        };
        for seed in 0..5 {
            let sim = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 24, seed);
            let serial = on_pool(1, &sim);
            let parallel = on_pool(2, &sim);
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "seed {seed} diverged across thread modes"
            );
        }
    }

    #[test]
    fn naive_and_kernelized_engines_agree_statistically() {
        let (schedule, edges) = ring_schedule(0.6157, std::f64::consts::FRAC_PI_8);
        let noisy_calibration = Calibration {
            two_qubit_error: 0.1,
            ..Calibration::montreal_october_2021()
        };
        let noise = noise_with(noisy_calibration);
        let kernelized = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 150, 9)
            .ising_cost_expectation(&schedule, &edges);
        let naive = naive_expectation(
            &TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 150, 9),
            &schedule,
            &edges,
        );
        // Different RNG stream layouts, same distribution: the two Monte
        // Carlo estimates must land close together.
        assert!(
            (kernelized - naive).abs() < 0.5,
            "kernelized {kernelized} vs naive {naive}"
        );
    }

    #[test]
    fn ising_cost_table_matches_per_edge_expectations() {
        let edges = vec![(0, 2), (1, 3), (0, 1)];
        let table = IsingCostTable::new(4, &edges);
        // Spot values: |0000⟩ has all bits equal → +3.
        assert_eq!(table.cost(0), 3.0);
        // |0101⟩: (0,2) equal (both 1), (1,3) equal (both 0), (0,1) differ.
        assert_eq!(table.cost(0b0101), 1.0);
        let (schedule, _) = ring_schedule(0.4, 0.3);
        let mut state = StateVector::plus_state(4);
        state.apply_compiled(&CompiledCircuit::from_scheduled(&schedule));
        let direct: f64 = edges.iter().map(|&(u, v)| state.expectation_zz(u, v)).sum();
        assert!((table.expectation(&state) - direct).abs() < 1e-12);
    }

    #[test]
    fn shots_accessor() {
        let sim = TrajectorySimulator::new(NoiseModel::noiseless(), TwoQubitBasis::Cnot, 17, 0);
        assert_eq!(sim.shots(), 17);
    }
}
