//! Trotterization: product-formula circuits for 2-local Hamiltonians.
//!
//! The first-order product formula (Eq. 1) approximates `exp(itH)` by
//! `(Π_j exp(i h_j H_j t/r))^r`.  One Trotter step of a 2-local Hamiltonian
//! becomes a layer of two-qubit canonical gates (one per interacting pair,
//! thanks to the circuit-unitary-unifying observation) plus a layer of
//! single-qubit rotations.  The paper compiles only the first step and
//! reuses it (reversing the two-qubit gate order for even steps, which
//! mirrors the second-order formula of Eq. 2).

use crate::hamiltonian::Hamiltonian;
use twoqan_circuit::{Circuit, Gate, GateKind};
use twoqan_math::pauli::Pauli;

/// Builds the circuit of a single Trotter step `Π_j exp(i h_j H_j · dt)`.
///
/// Every interacting pair contributes one canonical gate
/// `exp(i·dt·(xx·XX + yy·YY + zz·ZZ))` (the three same-pair exponentials
/// commute, so they are emitted pre-unified, exactly what the circuit
/// unitary unifying pre-pass of §III-C would produce); every single-qubit
/// term contributes one rotation `exp(i·dt·c·P) = R_P(−2·c·dt)`.
pub fn trotter_step(hamiltonian: &Hamiltonian, dt: f64) -> Circuit {
    let mut circuit = Circuit::new(hamiltonian.num_qubits());
    for term in hamiltonian.two_qubit_terms() {
        circuit.push(Gate::canonical(
            term.u,
            term.v,
            term.xx * dt,
            term.yy * dt,
            term.zz * dt,
        ));
    }
    for term in hamiltonian.single_qubit_terms() {
        let angle = -2.0 * term.coefficient * dt;
        let kind = match term.pauli {
            Pauli::X => GateKind::Rx(angle),
            Pauli::Y => GateKind::Ry(angle),
            Pauli::Z => GateKind::Rz(angle),
            Pauli::I => unreachable!("identity terms are rejected at construction"),
        };
        circuit.push(Gate::single(kind, term.qubit));
    }
    circuit
}

/// Builds the full product-formula circuit `(Π_j exp(i h_j H_j t/r))^r` with
/// `r = steps` Trotter steps of total evolution time `t`.
///
/// Even-numbered steps use the reversed two-qubit gate order, as the paper
/// does for its multi-step / multi-layer implementations (§V-D), which is
/// equivalent to a second-order arrangement of the step pairs.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn trotterize(hamiltonian: &Hamiltonian, steps: usize, t: f64) -> Circuit {
    assert!(steps > 0, "at least one Trotter step is required");
    let dt = t / steps as f64;
    let step = trotter_step(hamiltonian, dt);
    let reversed = step.reversed();
    let mut circuit = Circuit::new(hamiltonian.num_qubits());
    for s in 0..steps {
        if s % 2 == 0 {
            circuit.append(&step);
        } else {
            circuit.append(&reversed);
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{nnn_ising, nnn_xy};
    use twoqan_math::gates;

    #[test]
    fn trotter_step_counts_match_model_structure() {
        let n = 8;
        let ising = trotter_step(&nnn_ising(n, 1), 1.0);
        assert_eq!(ising.two_qubit_gate_count(), 2 * n - 3);
        assert_eq!(ising.single_qubit_gate_count(), n);
        let xy = trotter_step(&nnn_xy(n, 1), 1.0);
        assert_eq!(xy.two_qubit_gate_count(), 2 * n - 3);
        assert_eq!(xy.single_qubit_gate_count(), 0);
    }

    #[test]
    fn dt_scales_gate_coefficients() {
        let h = nnn_ising(4, 3);
        let full = trotter_step(&h, 1.0);
        let half = trotter_step(&h, 0.5);
        match (full.gates()[0].kind, half.gates()[0].kind) {
            (GateKind::Canonical { zz: z1, .. }, GateKind::Canonical { zz: z2, .. }) => {
                assert!((z1 - 2.0 * z2).abs() < 1e-12);
            }
            _ => panic!("expected canonical gates"),
        }
    }

    #[test]
    fn single_qubit_rotation_matches_pauli_exponential() {
        // exp(i c X dt) must equal Rx(-2 c dt).
        let mut h = Hamiltonian::new(1);
        h.add_x_field(0, 0.9);
        let c = trotter_step(&h, 0.7);
        let gate = c.gates()[0];
        // exp(iθX) = cos θ·I + i sin θ·X, since X² = I.
        let theta: f64 = 0.9 * 0.7;
        let expected = twoqan_math::Matrix2::identity()
            .scale(twoqan_math::complex::c64(theta.cos(), 0.0))
            .add(
                &Pauli::X
                    .matrix()
                    .scale(twoqan_math::complex::c64(0.0, theta.sin())),
            );
        assert!(gate.kind.single_qubit_matrix().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn multi_step_circuits_repeat_and_reverse() {
        let h = nnn_ising(6, 4);
        let one = trotterize(&h, 1, 1.0);
        let three = trotterize(&h, 3, 1.0);
        assert_eq!(three.gate_count(), 3 * one.gate_count());
        // The second step is the reverse of the first (with dt = t/2).
        let step = trotter_step(&h, 0.5);
        let step_len = step.gate_count();
        let two = trotterize(&h, 2, 1.0);
        assert_eq!(two.gates()[step_len], step.reversed().gates()[0]);
        assert_eq!(two.gates()[..step_len], *step.gates());
    }

    #[test]
    fn trotter_step_is_exact_for_a_single_term() {
        // With a single two-qubit term the product formula is exact:
        // the gate matrix must equal exp(i dt (aXX+bYY+cZZ)).
        let mut h = Hamiltonian::new(2);
        h.add_two_qubit_term(0, 1, 0.3, 0.2, 0.1);
        let c = trotter_step(&h, 0.5);
        let m = c.gates()[0].kind.two_qubit_matrix();
        assert!(m.approx_eq(&gates::canonical(0.15, 0.1, 0.05), 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one Trotter step")]
    fn zero_steps_rejected() {
        let h = nnn_ising(4, 0);
        let _ = trotterize(&h, 0, 1.0);
    }
}
