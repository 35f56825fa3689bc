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

use crate::kernels::{apply_single_kernel, auto_threads, CompiledCircuit, SingleKernel};
use twoqan_circuit::Circuit;
use twoqan_math::{Complex, Matrix2};
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

    /// Applies every gate of a circuit in order (classifying and caching
    /// each distinct gate kind once).  The circuit may act on a register
    /// smaller than this state; every gate qubit must be in range.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.apply_compiled(&CompiledCircuit::from_gates(
            self.num_qubits,
            circuit.iter(),
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

    /// Expectation of an Ising cost function `C = Σ_{(u,v)} Z_u Z_v` over the
    /// given edge list.
    pub fn ising_cost_expectation(&self, edges: &[(usize, usize)]) -> f64 {
        edges.iter().map(|&(u, v)| self.expectation_zz(u, v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::{Gate, GateKind};
    use twoqan_math::gates;

    /// Applies `gates` in order through the circuit path.
    fn apply(s: &mut StateVector, gates: Vec<Gate>) {
        s.apply_circuit(&Circuit::from_gates(s.num_qubits(), gates));
    }

    #[test]
    fn zero_and_plus_states_are_normalised() {
        let z = StateVector::zero_state(3);
        assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((z.amplitudes()[0].norm_sqr() - 1.0).abs() < 1e-12);
        let p = StateVector::plus_state(3);
        assert!((p.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((p.amplitudes()[5].norm_sqr() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips_a_qubit() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(1, &gates::pauli_x());
        // Qubit 1 is bit 1 → state |10⟩ in bit order = index 2.
        assert!((s.amplitudes()[2].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_creates_bell_state() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(0, &gates::hadamard());
        // CNOT with qubit 0 as control (MSB of the matrix convention).
        apply(&mut s, vec![Gate::two(GateKind::Cnot, 0, 1)]);
        assert!((s.amplitudes()[0b00].norm_sqr() - 0.5).abs() < 1e-12);
        assert!((s.amplitudes()[0b11].norm_sqr() - 0.5).abs() < 1e-12);
        assert!((s.expectation_zz(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_rotation_preserves_computational_probabilities() {
        let mut s = StateVector::plus_state(2);
        apply(&mut s, vec![Gate::canonical(0, 1, 0.0, 0.0, 0.7)]);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        // ZZ rotations only add phases in the computational basis.
        for a in s.amplitudes() {
            assert!((a.norm_sqr() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_moves_amplitudes_between_qubits() {
        let mut s = StateVector::zero_state(3);
        s.apply_single(0, &gates::pauli_x()); // |001⟩ (bit 0 set)
        apply(&mut s, vec![Gate::swap(0, 2)]);
        assert!((s.amplitudes()[0b100].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_gate_uses_circuit_ir_kinds() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(0, &GateKind::H.single_qubit_matrix());
        apply(&mut s, vec![Gate::two(GateKind::Cnot, 0, 1)]);
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
        let dressed = GateKind::DressedSwap {
            xx: 0.0,
            yy: 0.0,
            zz: theta,
        };
        apply(&mut a, vec![Gate::two(dressed, 0, 1)]);
        apply(
            &mut b,
            vec![Gate::canonical(0, 1, 0.0, 0.0, theta), Gate::swap(0, 1)],
        );
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
