//! Structural conformance checks: invariants every compiled circuit must
//! satisfy regardless of its unitary semantics.
//!
//! These are the cheap, exact complements of the statevector check in
//! [`crate::equivalence`]: connectivity of every two-qubit gate, validity of
//! the moment structure, gate-count accounting (every application unitary of
//! the input survives exactly once, standalone or inside a dressed SWAP) and
//! — for order-respecting compilers — preservation of the input circuit's
//! dependency DAG (the per-qubit gate order).

use crate::error::VerifyError;
use crate::replay::extract_logical_replay;
use twoqan_circuit::{Circuit, GateKind, ScheduledCircuit};
use twoqan_device::Device;

/// Counts gathered while structurally checking a compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralReport {
    /// Two-qubit gates of any kind.
    pub two_qubit_gates: usize,
    /// Application unitaries (canonical gates + dressed SWAPs).
    pub application_gates: usize,
    /// Plain routing SWAPs.
    pub plain_swaps: usize,
    /// Dressed SWAPs.
    pub dressed_swaps: usize,
    /// Single-qubit gates.
    pub single_qubit_gates: usize,
}

/// Checks the structural invariants of a compiled circuit against the
/// (circuit-unified) input it was compiled from.
///
/// `device` is the connectivity constraint; pass `None` for
/// connectivity-unconstrained compilations (the NoMap baseline).
///
/// # Errors
///
/// Returns the first violated invariant as a [`VerifyError`].
pub fn check_structural(
    compiled: &ScheduledCircuit,
    original_unified: &Circuit,
    device: Option<&Device>,
) -> Result<StructuralReport, VerifyError> {
    if !compiled.is_valid() {
        return Err(VerifyError::InvalidMoments);
    }
    let mut report = StructuralReport {
        two_qubit_gates: 0,
        application_gates: 0,
        plain_swaps: 0,
        dressed_swaps: 0,
        single_qubit_gates: 0,
    };
    for gate in compiled.iter_gates() {
        if !gate.is_two_qubit() {
            report.single_qubit_gates += 1;
            continue;
        }
        report.two_qubit_gates += 1;
        match gate.kind {
            GateKind::Swap => report.plain_swaps += 1,
            GateKind::DressedSwap { .. } => {
                report.dressed_swaps += 1;
                report.application_gates += 1;
            }
            GateKind::Canonical { .. } => report.application_gates += 1,
            _ => {}
        }
        if let Some(device) = device {
            if !device.are_adjacent(gate.qubit0(), gate.qubit1()) {
                return Err(VerifyError::NonAdjacentGate {
                    gate: gate.to_string(),
                });
            }
        }
    }
    let expected_app = original_unified.two_qubit_gate_count();
    if report.application_gates != expected_app {
        return Err(VerifyError::GateCountMismatch {
            what: "application two-qubit gate",
            expected: expected_app,
            found: report.application_gates,
        });
    }
    let expected_single = original_unified.single_qubit_gate_count();
    if report.single_qubit_gates != expected_single {
        return Err(VerifyError::GateCountMismatch {
            what: "single-qubit gate",
            expected: expected_single,
            found: report.single_qubit_gates,
        });
    }
    Ok(report)
}

/// Checks that an order-respecting compilation preserves the input
/// circuit's dependency DAG: for every logical qubit, the sequence of gates
/// acting on it in the implemented logical circuit equals the input's.
///
/// (Two orderings with identical per-qubit projections induce the same
/// dependency DAG, and conversely any DAG-respecting linearisation has the
/// input's per-qubit projections — so this is exactly DAG preservation.)
///
/// # Errors
///
/// Returns [`VerifyError::OrderViolation`] naming the first diverging qubit,
/// or any replay-extraction error.
pub fn check_order_preserved(
    original: &Circuit,
    compiled: &ScheduledCircuit,
    initial_positions: &[usize],
) -> Result<(), VerifyError> {
    let replay = extract_logical_replay(compiled, initial_positions, original.num_qubits())?;
    for qubit in 0..original.num_qubits() {
        let project = |c: &Circuit| -> Vec<String> {
            c.iter()
                .filter(|g| g.acts_on(qubit))
                .map(|g| {
                    // Symmetric two-qubit kinds are keyed by their normalised
                    // pair, so operand orientation (which routing does not
                    // preserve) cannot masquerade as a reorder.
                    let qubits = if g.is_two_qubit() && !matches!(g.kind, GateKind::Cnot) {
                        let (a, b) = g.qubit_pair();
                        vec![a, b]
                    } else {
                        g.qubits()
                    };
                    format!("{:?}@{qubits:?}", g.kind)
                })
                .collect()
        };
        let want = project(original);
        let got = project(&replay.circuit);
        if want != got {
            let first = want
                .iter()
                .zip(got.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            let detail = format!(
                "position {first}: input {:?}, compiled {:?}",
                want.get(first),
                got.get(first)
            );
            return Err(VerifyError::OrderViolation {
                logical: qubit,
                detail,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan::Compiler;
    use twoqan_baselines::GenericCompiler;
    use twoqan_circuit::Gate;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_ising, trotter_step};

    #[test]
    fn generic_compilation_passes_structure_and_order() {
        let circuit = trotter_step(&nnn_ising(8, 5), 1.0);
        let device = Device::grid(2, 4, TwoQubitBasis::Cnot);
        let result = GenericCompiler::tket_like()
            .compile(&circuit, &device)
            .unwrap();
        let unified = circuit.unify_same_pair_gates();
        let report = check_structural(&result.hardware_circuit, &unified, Some(&device)).unwrap();
        assert_eq!(report.application_gates, unified.two_qubit_gate_count());
        assert_eq!(report.dressed_swaps, 0);
        assert_eq!(report.plain_swaps, result.swap_count());
        check_order_preserved(
            &unified,
            &result.hardware_circuit,
            &result.initial_placement,
        )
        .unwrap();
    }

    #[test]
    fn non_adjacent_gates_are_flagged() {
        let device = Device::linear(4, TwoQubitBasis::Cnot);
        let mut c = Circuit::new(4);
        c.push(Gate::canonical(0, 3, 0.0, 0.0, 0.4));
        let compiled = ScheduledCircuit::asap_from_gates(4, c.gates());
        let err = check_structural(&compiled, &c, Some(&device)).unwrap_err();
        assert!(matches!(err, VerifyError::NonAdjacentGate { .. }));
    }

    #[test]
    fn missing_application_gates_are_flagged() {
        let mut c = Circuit::new(3);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.4));
        c.push(Gate::canonical(1, 2, 0.0, 0.0, 0.2));
        let compiled =
            ScheduledCircuit::asap_from_gates(3, &[Gate::canonical(0, 1, 0.0, 0.0, 0.4)]);
        let err = check_structural(&compiled, &c, None).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::GateCountMismatch {
                what: "application two-qubit gate",
                ..
            }
        ));
    }

    #[test]
    fn order_violations_are_detected() {
        let mut c = Circuit::new(2);
        c.push(Gate::single(GateKind::H, 0));
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.4));
        let reordered = ScheduledCircuit::asap_from_gates(
            2,
            &[
                Gate::canonical(0, 1, 0.0, 0.0, 0.4),
                Gate::single(GateKind::H, 0),
            ],
        );
        let err = check_order_preserved(&c, &reordered, &[0, 1]).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::OrderViolation { logical: 0, .. }
        ));
    }
}
