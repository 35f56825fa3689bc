//! A dense state-vector simulator.
//!
//! Qubit `q` corresponds to bit `q` of the basis-state index (qubit 0 is the
//! least-significant bit).  Two-qubit gate matrices follow the convention of
//! `twoqan-math`: the *first* gate operand is the most-significant qubit of
//! the 4×4 matrix.
//!
//! Gate application goes through the stride-enumeration kernels of
//! [`crate::kernels`]; the tests compare them against the original
//! branch-per-index loops, which live in the test code.

use crate::kernels::{
    apply_single_kernel, apply_two_kernel, auto_threads, CompiledCircuit, SingleKernel, TwoKernel,
};
use twoqan_circuit::{Circuit, Gate, ScheduledCircuit};
use twoqan_math::{Complex, Matrix2, Matrix4};
use twoqan_pool::CompilePool;

/// A pure-state simulator for up to ~24 qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics for more than 26 qubits (the dense vector would not fit in
    /// memory for the benchmark machines this targets).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 26, "dense simulation limited to 26 qubits");
        let mut amplitudes = vec![Complex::zero(); 1 << num_qubits];
        amplitudes[0] = Complex::one();
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// The uniform superposition `|+⟩^{⊗n}` (the QAOA initial state).
    pub fn plus_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 26, "dense simulation limited to 26 qubits");
        let dim = 1usize << num_qubits;
        let amp = Complex::new(1.0 / (dim as f64).sqrt(), 0.0);
        Self {
            num_qubits,
            amplitudes: vec![amp; dim],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Mutable amplitude access for external kernel drivers (the benches
    /// drive [`crate::kernels`] directly, the tests their reference loops).
    /// Callers are responsible for keeping the state normalized.
    pub fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amplitudes
    }

    /// The squared norm (should stay 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Probability of measuring the given basis state.
    pub fn probability(&self, basis_state: usize) -> f64 {
        self.amplitudes[basis_state].norm_sqr()
    }

    /// Applies a single-qubit unitary to `qubit` through the classified
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics if the qubit index is out of range.
    pub fn apply_single(&mut self, qubit: usize, u: &Matrix2) {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        let threads = auto_threads(self.amplitudes.len());
        apply_single_kernel(
            &mut self.amplitudes,
            qubit,
            &SingleKernel::from_matrix(u),
            threads,
        );
    }

    /// Applies a two-qubit unitary through the classified kernels;
    /// `qubit_a` is the most-significant qubit of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the qubit indices coincide or are out of range.
    pub fn apply_two(&mut self, qubit_a: usize, qubit_b: usize, u: &Matrix4) {
        assert!(
            qubit_a < self.num_qubits && qubit_b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qubit_a, qubit_b, "two-qubit gate requires distinct qubits");
        let threads = auto_threads(self.amplitudes.len());
        apply_two_kernel(
            &mut self.amplitudes,
            qubit_a,
            qubit_b,
            &TwoKernel::from_matrix(u),
            threads,
        );
    }

    /// Applies a circuit-IR gate.
    pub fn apply_gate(&mut self, gate: &Gate) {
        if gate.is_two_qubit() {
            self.apply_two(gate.qubit0(), gate.qubit1(), &gate.kind.two_qubit_matrix());
        } else {
            self.apply_single(gate.qubit0(), &gate.kind.single_qubit_matrix());
        }
    }

    /// Applies every gate of a circuit in order (classifying and caching
    /// each distinct gate kind once).  The circuit may act on a register
    /// smaller than this state; every gate qubit must be in range.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.apply_compiled(&CompiledCircuit::from_gates(
            self.num_qubits,
            circuit.iter(),
        ));
    }

    /// Applies every gate of a scheduled circuit in moment order; like
    /// [`Self::apply_circuit`], smaller registers embed.
    pub fn apply_scheduled(&mut self, schedule: &ScheduledCircuit) {
        self.apply_compiled(&CompiledCircuit::from_gates(
            self.num_qubits,
            schedule.iter_gates(),
        ));
    }

    /// Applies a pre-classified circuit with the automatic thread policy.
    /// A state large enough to fan out runs on the installed compile pool;
    /// with none installed, one pool is provisioned for the whole circuit
    /// rather than one per gate.
    ///
    /// # Panics
    ///
    /// Panics if the compiled qubit count does not match this state.
    pub fn apply_compiled(&mut self, compiled: &CompiledCircuit) {
        let threads = auto_threads(self.amplitudes.len());
        let pool = (threads > 1 && CompilePool::current_workers().is_none())
            .then(|| CompilePool::new(threads));
        // Dropped before the pool, restoring the thread's previous target.
        let _guard = pool.as_ref().map(CompilePool::install);
        self.apply_compiled_with_threads(compiled, threads);
    }

    /// Applies a pre-classified circuit with an explicit per-kernel thread
    /// count; results are bit-identical for every `threads` value.
    pub fn apply_compiled_with_threads(&mut self, compiled: &CompiledCircuit, threads: usize) {
        assert_eq!(
            compiled.num_qubits(),
            self.num_qubits,
            "compiled circuit qubit count does not match the state"
        );
        compiled.apply(&mut self.amplitudes, threads);
    }

    /// Expectation value `⟨Z_u Z_v⟩`.
    pub fn expectation_zz(&self, u: usize, v: usize) -> f64 {
        let bu = 1usize << u;
        let bv = 1usize << v;
        self.amplitudes
            .iter()
            .enumerate()
            .map(|(idx, amp)| {
                let sign = if ((idx & bu != 0) as u8) ^ ((idx & bv != 0) as u8) == 1 {
                    -1.0
                } else {
                    1.0
                };
                sign * amp.norm_sqr()
            })
            .sum()
    }

    /// Expectation value `⟨Z_q⟩`.
    pub fn expectation_z(&self, q: usize) -> f64 {
        let bq = 1usize << q;
        self.amplitudes
            .iter()
            .enumerate()
            .map(|(idx, amp)| {
                if idx & bq != 0 {
                    -amp.norm_sqr()
                } else {
                    amp.norm_sqr()
                }
            })
            .sum()
    }

    /// Expectation of an Ising cost function `C = Σ_{(u,v)} Z_u Z_v` over the
    /// given edge list.
    pub fn ising_cost_expectation(&self, edges: &[(usize, usize)]) -> f64 {
        edges.iter().map(|&(u, v)| self.expectation_zz(u, v)).sum()
    }

    /// Probability distribution over the `2^n` basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::GateKind;
    use twoqan_math::gates;

    #[test]
    fn zero_and_plus_states_are_normalised() {
        let z = StateVector::zero_state(3);
        assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((z.probability(0) - 1.0).abs() < 1e-12);
        let p = StateVector::plus_state(3);
        assert!((p.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((p.probability(5) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips_a_qubit() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(1, &gates::pauli_x());
        // Qubit 1 is bit 1 → state |10⟩ in bit order = index 2.
        assert!((s.probability(2) - 1.0).abs() < 1e-12);
        assert!((s.expectation_z(1) + 1.0).abs() < 1e-12);
        assert!((s.expectation_z(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_creates_bell_state() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(0, &gates::hadamard());
        // CNOT with qubit 0 as control (MSB of the matrix convention).
        s.apply_two(0, 1, &gates::cnot());
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!((s.expectation_zz(0, 1) - 1.0).abs() < 1e-12);
        assert!(s.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn zz_rotation_preserves_computational_probabilities() {
        let mut s = StateVector::plus_state(2);
        s.apply_two(0, 1, &gates::zz_interaction(0.7));
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        // ZZ rotations only add phases in the computational basis.
        for p in s.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_moves_amplitudes_between_qubits() {
        let mut s = StateVector::zero_state(3);
        s.apply_single(0, &gates::pauli_x()); // |001⟩ (bit 0 set)
        s.apply_two(0, 2, &gates::swap());
        assert!((s.probability(0b100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_gate_uses_circuit_ir_kinds() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&Gate::single(GateKind::H, 0));
        s.apply_gate(&Gate::two(GateKind::Cnot, 0, 1));
        assert!((s.expectation_zz(0, 1) - 1.0).abs() < 1e-12);
        let mut t = StateVector::zero_state(2);
        t.apply_circuit(&Circuit::from_gates(
            2,
            vec![
                Gate::single(GateKind::H, 0),
                Gate::two(GateKind::Cnot, 0, 1),
            ],
        ));
        assert_eq!(s, t);
    }

    #[test]
    fn dressed_swap_equals_swap_after_zz() {
        // Simulating the dressed SWAP must equal applying exp(iθZZ) then SWAP.
        let theta = 0.4;
        let mut a = StateVector::plus_state(2);
        a.apply_single(0, &gates::rz(0.3));
        let mut b = a.clone();
        a.apply_two(0, 1, &gates::dressed_swap(0.0, 0.0, theta));
        b.apply_two(0, 1, &gates::zz_interaction(theta));
        b.apply_two(0, 1, &gates::swap());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-10));
        }
    }

    #[test]
    fn unitarity_is_preserved_over_random_circuits() {
        let mut s = StateVector::plus_state(4);
        let mut c = Circuit::new(4);
        for i in 0..3 {
            c.push(Gate::canonical(i, i + 1, 0.2, 0.1, 0.3));
            c.push(Gate::single(GateKind::Rx(0.4), i));
        }
        s.apply_circuit(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qubits() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(2, &gates::pauli_x());
    }
}
