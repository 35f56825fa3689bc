//! Explicit CNOT-basis synthesis of the two-qubit unitaries produced by the
//! 2QAN pipeline.
//!
//! The benchmark metrics (gate counts and depths) come from the Weyl-class
//! cost model in [`crate::cost`]; this module provides *exact, verifiable*
//! gate-level circuits for the cases where an explicit decomposition is
//! useful — unit testing the Fig. 5 identities of the paper and feeding the
//! state-vector simulator with hardware-level circuits:
//!
//! * `exp(iθZZ)` → 2 CNOTs + 1 Rz (Fig. 5, middle),
//! * `SWAP` → 3 CNOTs (Fig. 5, left),
//! * `SWAP · exp(iθZZ)` (a dressed SWAP) → 3 CNOTs + 1 Rz (Fig. 5, right),
//! * `exp(iθXX)`, `exp(iθYY)` → 2 CNOTs each via basis changes,
//! * `Can(a,b,c)` → a 6-CNOT circuit obtained by concatenating the three
//!   commuting exponentials.  This circuit is exact but not CNOT-optimal;
//!   the optimal count (3) is what the cost model reports and what an
//!   analytic KAK-based synthesiser would emit.

/// A gate in a two-qubit synthesis fragment.  Qubit indices are local to the
/// pair: `0` is the most-significant qubit of the 4×4 matrices in
/// [`crate::gates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynthGate {
    /// Hadamard on the given qubit.
    H(usize),
    /// Phase gate S on the given qubit.
    S(usize),
    /// Inverse phase gate S† on the given qubit.
    Sdg(usize),
    /// Z rotation by the given angle on the given qubit.
    Rz(usize, f64),
    /// X rotation by the given angle on the given qubit.
    Rx(usize, f64),
    /// Y rotation by the given angle on the given qubit.
    Ry(usize, f64),
    /// CNOT with the given control and target.
    Cnot {
        /// Control qubit (0 or 1).
        control: usize,
        /// Target qubit (0 or 1).
        target: usize,
    },
}

/// Exact 2-CNOT circuit for `exp(iθ ZZ)`.
pub fn zz_circuit(theta: f64) -> Vec<SynthGate> {
    vec![
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
        SynthGate::Rz(1, -2.0 * theta),
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
    ]
}

/// Exact 3-CNOT circuit for SWAP.
pub fn swap_circuit() -> Vec<SynthGate> {
    vec![
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
        SynthGate::Cnot {
            control: 1,
            target: 0,
        },
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
    ]
}

/// Exact 3-CNOT circuit for the dressed SWAP `SWAP · exp(iθ ZZ)` (the
/// unified unitary of Fig. 5 in the paper).
pub fn dressed_zz_swap_circuit(theta: f64) -> Vec<SynthGate> {
    vec![
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
        SynthGate::Rz(1, -2.0 * theta),
        SynthGate::Cnot {
            control: 1,
            target: 0,
        },
        SynthGate::Cnot {
            control: 0,
            target: 1,
        },
    ]
}

/// Exact 2-CNOT circuit for `exp(iθ XX)` via Hadamard basis changes.
pub fn xx_circuit(theta: f64) -> Vec<SynthGate> {
    let mut c = vec![SynthGate::H(0), SynthGate::H(1)];
    c.extend(zz_circuit(theta));
    c.push(SynthGate::H(0));
    c.push(SynthGate::H(1));
    c
}

/// Exact 2-CNOT circuit for `exp(iθ YY)` via S/H basis changes.
pub fn yy_circuit(theta: f64) -> Vec<SynthGate> {
    let mut c = vec![
        SynthGate::Sdg(0),
        SynthGate::Sdg(1),
        SynthGate::H(0),
        SynthGate::H(1),
    ];
    c.extend(zz_circuit(theta));
    c.extend([
        SynthGate::H(0),
        SynthGate::H(1),
        SynthGate::S(0),
        SynthGate::S(1),
    ]);
    c
}

/// Exact circuit for `Can(a, b, c) = exp(i(aXX + bYY + cZZ))` obtained by
/// concatenating the three commuting exponentials (6 CNOTs; CNOT-optimal
/// synthesis would use 3 — see the module documentation).
pub fn canonical_circuit(a: f64, b: f64, c: f64) -> Vec<SynthGate> {
    let mut circ = Vec::new();
    if a != 0.0 {
        circ.extend(xx_circuit(a));
    }
    if b != 0.0 {
        circ.extend(yy_circuit(b));
    }
    if c != 0.0 {
        circ.extend(zz_circuit(c));
    }
    circ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::matrix::{Matrix2, Matrix4};

    /// The 4×4 matrix of a synthesis gate on the qubit pair.
    fn gate_matrix(gate: &SynthGate) -> Matrix4 {
        let embed = |u: &Matrix2, q: usize| gates::embed_single(u, q);
        match *gate {
            SynthGate::H(q) => embed(&gates::hadamard(), q),
            SynthGate::S(q) => embed(&gates::s_gate(), q),
            SynthGate::Sdg(q) => embed(&gates::s_gate().dagger(), q),
            SynthGate::Rz(q, theta) => embed(&gates::rz(theta), q),
            SynthGate::Rx(q, theta) => embed(&gates::rx(theta), q),
            SynthGate::Ry(q, theta) => embed(&gates::ry(theta), q),
            SynthGate::Cnot { control, target } => match (control, target) {
                (0, 1) => gates::cnot(),
                (1, 0) => gates::cnot().exchange_qubits(),
                _ => panic!("CNOT control/target must be the distinct indices 0 and 1"),
            },
        }
    }

    /// Multiplies out a synthesis fragment (time-ordered: the first element
    /// of the slice is applied first) into its 4×4 unitary.
    fn circuit_matrix(circuit: &[SynthGate]) -> Matrix4 {
        circuit
            .iter()
            .fold(Matrix4::identity(), |acc, g| gate_matrix(g).mul(&acc))
    }

    /// Number of CNOTs in a synthesis fragment.
    fn cnot_count(circuit: &[SynthGate]) -> usize {
        circuit
            .iter()
            .filter(|g| matches!(g, SynthGate::Cnot { .. }))
            .count()
    }

    #[test]
    fn zz_circuit_is_exact() {
        for theta in [0.0, 0.3, -1.1, std::f64::consts::PI / 3.0] {
            let m = circuit_matrix(&zz_circuit(theta));
            assert!(
                m.approx_eq(&gates::canonical(0.0, 0.0, theta), 1e-10),
                "ZZ circuit mismatch for θ={theta}"
            );
        }
        assert_eq!(cnot_count(&zz_circuit(0.4)), 2);
    }

    #[test]
    fn swap_circuit_is_exact() {
        let m = circuit_matrix(&swap_circuit());
        assert!(m.approx_eq(&gates::swap(), 1e-12));
        assert_eq!(cnot_count(&swap_circuit()), 3);
    }

    #[test]
    fn dressed_swap_circuit_matches_fig5() {
        for theta in [0.2, 0.9, -0.5] {
            let m = circuit_matrix(&dressed_zz_swap_circuit(theta));
            let expected = gates::swap().mul(&gates::canonical(0.0, 0.0, theta));
            assert!(
                m.approx_eq(&expected, 1e-10),
                "dressed SWAP circuit mismatch for θ={theta}"
            );
        }
        // The key Fig. 5 claim: the unified unitary needs only 3 CNOTs while
        // separate decompositions would need 2 + 3 = 5.
        assert_eq!(cnot_count(&dressed_zz_swap_circuit(0.3)), 3);
        assert_eq!(
            cnot_count(&swap_circuit()) + cnot_count(&zz_circuit(0.3)),
            5
        );
    }

    #[test]
    fn xx_and_yy_circuits_are_exact() {
        let theta = 0.47;
        let xx = circuit_matrix(&xx_circuit(theta));
        assert!(xx.approx_eq(&gates::canonical(theta, 0.0, 0.0), 1e-10));
        let yy = circuit_matrix(&yy_circuit(theta));
        assert!(yy.approx_eq(&gates::canonical(0.0, theta, 0.0), 1e-10));
        assert_eq!(cnot_count(&xx_circuit(theta)), 2);
        assert_eq!(cnot_count(&yy_circuit(theta)), 2);
    }

    #[test]
    fn canonical_circuit_is_exact() {
        let (a, b, c) = (0.3, -0.2, 0.7);
        let m = circuit_matrix(&canonical_circuit(a, b, c));
        assert!(m.approx_eq(&gates::canonical(a, b, c), 1e-9));
        // Zero coefficients skip their block entirely.
        assert_eq!(cnot_count(&canonical_circuit(0.0, 0.0, 0.5)), 2);
        assert_eq!(cnot_count(&canonical_circuit(a, b, c)), 6);
        assert!(canonical_circuit(0.0, 0.0, 0.0).is_empty());
    }

    #[test]
    fn circuit_matrix_respects_time_order() {
        // X then H on one qubit: matrix is H·X.
        let circ = [SynthGate::Rx(0, std::f64::consts::PI), SynthGate::H(0)];
        let m = circuit_matrix(&circ);
        let expected = gates::embed_single(&gates::hadamard(), 0)
            .mul(&gates::embed_single(&gates::rx(std::f64::consts::PI), 0));
        assert!(m.approx_eq(&expected, 1e-12));
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn cnot_rejects_identical_qubits() {
        let _ = gate_matrix(&SynthGate::Cnot {
            control: 0,
            target: 0,
        });
    }
}
