//! Permutation-aware statevector equivalence checking.
//!
//! The checker establishes, numerically, that a compiled hardware circuit
//! implements the input circuit up to (a) the qubit-layout permutation its
//! routing SWAPs introduce and (b) a global phase:
//!
//! 1. the compiled circuit is replayed symbolically to recover the logical
//!    gate sequence it implements and the final layout ([`crate::replay`]),
//! 2. both circuits are run through the kernelized statevector engine from
//!    the same random product states (the hardware side on the compacted
//!    physical register, with unoccupied qubits in `|0⟩`),
//! 3. the final layout permutation is undone by reading the hardware
//!    amplitudes through the tracked positions, leakage out of the embedded
//!    subspace is measured, and amplitudes are compared after aligning the
//!    global phase.
//!
//! Two reference semantics are supported.  [`EquivalenceMode::StrictOrder`]
//! compares against the input circuit *as ordered* — exact unitary
//! equivalence, the contract of the order-respecting baselines (and of any
//! compiler on circuits whose gates all commute).
//! [`EquivalenceMode::TermPermutation`] is the 2QAN contract: the compiled
//! circuit must implement *some permutation* of the input gate multiset
//! (checked exactly), and the statevector comparison certifies that the
//! hardware circuit — SWAP bookkeeping, dressed-SWAP algebra, scheduling —
//! faithfully realises that permutation.

use crate::error::VerifyError;
use crate::replay::{check_gate_multiset, extract_logical_replay, LogicalReplay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan_circuit::{Circuit, Gate, GateKind, ScheduledCircuit};
use twoqan_math::{gates, Complex};
use twoqan_sim::StateVector;

/// Which reference semantics the compiled circuit is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivalenceMode {
    /// Exact unitary equivalence with the input circuit as ordered (valid
    /// for order-respecting compilers, and for any compiler when all input
    /// gates mutually commute).
    StrictOrder,
    /// The 2QAN contract: the compiled circuit implements a permutation of
    /// the input gate multiset, realised faithfully.
    ///
    /// **What this mode does and does not certify.**  The 2QAN-class
    /// compilers permute the exponentials of one Trotter step *whether or
    /// not they commute* (§III of the paper) — a deliberate rewrite that
    /// preserves the product formula's approximation order but generally
    /// *not* the exact unitary of the input ordering.  Accordingly this
    /// mode certifies (a) exactly, that the implemented logical gates are a
    /// permutation of the input multiset (coefficient bits included), and
    /// (b) numerically, that the hardware circuit faithfully realises that
    /// permutation — SWAP bookkeeping, dressed-SWAP algebra, layout undo,
    /// scheduling.  It intentionally does **not** reject the term reorder
    /// itself; strict unitary equality against the input ordering is
    /// checked whenever it is actually part of the contract (use
    /// [`EquivalenceMode::StrictOrder`], which the fuzz harness
    /// automatically selects for order-respecting compilers and for
    /// all-commuting workloads).
    TermPermutation,
}

impl EquivalenceMode {
    /// Short display name used in conformance reports.
    pub fn name(&self) -> &'static str {
        match self {
            EquivalenceMode::StrictOrder => "strict",
            EquivalenceMode::TermPermutation => "permutation",
        }
    }
}

/// The successful outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// The mode the check ran in.
    pub mode: EquivalenceMode,
    /// Largest per-amplitude deviation across all trials (after phase
    /// alignment).
    pub max_amplitude_error: f64,
    /// Largest probability mass observed outside the embedded subspace.
    pub max_leakage: f64,
    /// Number of random-input trials run.
    pub trials: usize,
    /// Number of physical qubits actually simulated (the compacted support).
    pub support_qubits: usize,
    /// Swap-like gates found while replaying (plain + dressed).
    pub swap_count: usize,
    /// Dressed SWAPs found while replaying.
    pub dressed_swap_count: usize,
}

/// The permutation-aware statevector equivalence checker.
#[derive(Debug, Clone)]
pub struct EquivalenceChecker {
    /// Per-amplitude tolerance (the acceptance bar is `1e-10`).
    pub tolerance: f64,
    /// Number of random product-state inputs per check.
    pub trials: usize,
    /// Seed for the random input states.
    pub seed: u64,
    /// Cap on the number of simulated physical qubits after support
    /// compaction.
    pub max_support_qubits: usize,
}

impl Default for EquivalenceChecker {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            trials: 2,
            seed: 0x2_0a_4e,
            max_support_qubits: 22,
        }
    }
}

impl EquivalenceChecker {
    /// A checker with the given tolerance and the default trial count.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }

    /// Checks that `compiled` implements `original` up to the layout
    /// permutation and a global phase.
    ///
    /// `original` is the logical circuit the compiler semantically received
    /// (for this workspace's compilers: the circuit-unified input);
    /// `initial_positions[logical] = physical` is the compiler's initial
    /// placement; `expected_final_positions`, when given, is checked against
    /// the layout tracked through the compiled circuit's SWAPs.
    ///
    /// # Errors
    ///
    /// Returns the first broken contract as a [`VerifyError`].
    pub fn check(
        &self,
        original: &Circuit,
        compiled: &ScheduledCircuit,
        initial_positions: &[usize],
        mode: EquivalenceMode,
        expected_final_positions: Option<&[usize]>,
    ) -> Result<EquivalenceReport, VerifyError> {
        let num_logical = original.num_qubits();
        let replay = extract_logical_replay(compiled, initial_positions, num_logical)?;

        if let Some(claimed) = expected_final_positions {
            for (logical, (&tracked, &claimed)) in
                replay.final_positions.iter().zip(claimed).enumerate()
            {
                if tracked != claimed {
                    return Err(VerifyError::FinalLayoutMismatch {
                        logical,
                        tracked,
                        claimed,
                    });
                }
            }
        }

        // The implemented gates must be a permutation of the input in both
        // modes (in strict mode this is implied, but checking it first turns
        // an amplitude mismatch into a far more precise message).
        check_gate_multiset(original, &replay.circuit)?;

        let reference: &Circuit = match mode {
            EquivalenceMode::StrictOrder => original,
            EquivalenceMode::TermPermutation => &replay.circuit,
        };

        let (sim_circuit, sim_initial, sim_final, support) =
            self.compact_support(compiled, initial_positions, &replay)?;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut max_error = 0.0f64;
        let mut max_leakage = 0.0f64;
        for trial in 0..self.trials.max(1) {
            // One random single-qubit state per logical qubit; `U3(θ, φ, 0)`
            // applied to |0⟩ reaches every pure single-qubit state.
            let preps: Vec<(f64, f64)> = (0..num_logical)
                .map(|_| {
                    (
                        rng.gen_range(0.0..std::f64::consts::PI),
                        rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                    )
                })
                .collect();

            let mut logical_state = StateVector::zero_state(num_logical);
            for (q, &(theta, phi)) in preps.iter().enumerate() {
                logical_state.apply_single(q, &gates::u3(theta, phi, 0.0));
            }
            logical_state.apply_circuit(reference);

            let mut hardware_state = StateVector::zero_state(support);
            for (q, &(theta, phi)) in preps.iter().enumerate() {
                hardware_state.apply_single(sim_initial[q], &gates::u3(theta, phi, 0.0));
            }
            hardware_state.apply_circuit(&sim_circuit);

            // Undo the layout permutation: logical basis index k lives at
            // the physical index with bit q placed at the final position of
            // logical qubit q (all other physical qubits must carry |0⟩).
            let hw = hardware_state.amplitudes();
            let dim = 1usize << num_logical;
            let mut extracted = vec![Complex::zero(); dim];
            let mut embedded_weight = 0.0f64;
            for (k, amp) in extracted.iter_mut().enumerate() {
                let mut idx = 0usize;
                for (q, &p) in sim_final.iter().enumerate() {
                    if (k >> q) & 1 == 1 {
                        idx |= 1 << p;
                    }
                }
                *amp = hw[idx];
                embedded_weight += amp.norm_sqr();
            }
            let leakage = (1.0 - embedded_weight).max(0.0);
            max_leakage = max_leakage.max(leakage);
            if leakage > self.tolerance.max(1e-12) * 100.0 {
                return Err(VerifyError::Leakage {
                    weight: leakage,
                    tolerance: self.tolerance.max(1e-12) * 100.0,
                });
            }

            // Align the global phase on the largest reference amplitude.
            let reference_amps = logical_state.amplitudes();
            let anchor = (0..dim)
                .max_by(|&a, &b| {
                    reference_amps[a]
                        .norm_sqr()
                        .partial_cmp(&reference_amps[b].norm_sqr())
                        .expect("amplitudes are finite")
                })
                .expect("state has at least one amplitude");
            let raw_phase = extracted[anchor] * reference_amps[anchor].conj();
            let phase = if raw_phase.abs() > 1e-14 {
                raw_phase.scale(1.0 / raw_phase.abs())
            } else {
                Complex::one()
            };
            let mut trial_error = 0.0f64;
            for (e, r) in extracted.iter().zip(reference_amps) {
                trial_error = trial_error.max((*e * phase.conj() - *r).abs());
            }
            max_error = max_error.max(trial_error);
            if trial_error > self.tolerance {
                return Err(VerifyError::AmplitudeMismatch {
                    max_error: trial_error,
                    tolerance: self.tolerance,
                    trial,
                });
            }
        }

        Ok(EquivalenceReport {
            mode,
            max_amplitude_error: max_error,
            max_leakage,
            trials: self.trials.max(1),
            support_qubits: support,
            swap_count: replay.swap_count,
            dressed_swap_count: replay.dressed_swap_count,
        })
    }

    /// Restricts the simulation to the physical qubits the compiled circuit
    /// actually touches (initial placements plus every gate operand),
    /// relabelling gates and positions onto dense indices.
    fn compact_support(
        &self,
        compiled: &ScheduledCircuit,
        initial_positions: &[usize],
        replay: &LogicalReplay,
    ) -> Result<(Circuit, Vec<usize>, Vec<usize>, usize), VerifyError> {
        let num_physical = compiled.num_qubits();
        let mut used = vec![false; num_physical];
        for &p in initial_positions {
            used[p] = true;
        }
        for gate in compiled.iter_gates() {
            for q in gate.qubits() {
                used[q] = true;
            }
        }
        let mut dense = vec![usize::MAX; num_physical];
        let mut support = 0usize;
        for (p, &u) in used.iter().enumerate() {
            if u {
                dense[p] = support;
                support += 1;
            }
        }
        if support > self.max_support_qubits {
            return Err(VerifyError::SupportTooLarge {
                support,
                limit: self.max_support_qubits,
            });
        }
        let gates: Vec<Gate> = compiled
            .iter_gates()
            .map(|g| g.relabelled(&dense))
            .collect();
        let sim_circuit = Circuit::from_gates(support, gates);
        let sim_initial: Vec<usize> = initial_positions.iter().map(|&p| dense[p]).collect();
        let sim_final: Vec<usize> = replay.final_positions.iter().map(|&p| dense[p]).collect();
        Ok((sim_circuit, sim_initial, sim_final, support))
    }
}

/// Returns `true` if every gate of the circuit is diagonal in the
/// computational basis — in which case all gates mutually commute and
/// [`EquivalenceMode::StrictOrder`] is valid for *any* compiler.
pub fn all_gates_commute(circuit: &Circuit) -> bool {
    circuit.iter().all(|g| match g.kind {
        GateKind::Rz(_) | GateKind::Z | GateKind::Cz => true,
        GateKind::Canonical { xx, yy, .. } => xx == 0.0 && yy == 0.0,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan::{Compiler, TwoQanCompiler, TwoQanConfig};
    use twoqan_device::{Device, TwoQubitBasis};
    use twoqan_ham::{nnn_heisenberg, trotter_step};

    fn checker() -> EquivalenceChecker {
        EquivalenceChecker::default()
    }

    #[test]
    fn identity_compilation_is_equivalent() {
        let mut c = Circuit::new(3);
        c.push(Gate::single(GateKind::H, 0));
        c.push(Gate::canonical(0, 1, 0.2, 0.1, 0.3));
        c.push(Gate::canonical(1, 2, 0.0, 0.0, 0.4));
        let compiled = ScheduledCircuit::asap_from_gates(3, c.gates());
        let report = checker()
            .check(
                &c,
                &compiled,
                &[0, 1, 2],
                EquivalenceMode::StrictOrder,
                None,
            )
            .unwrap();
        assert!(report.max_amplitude_error <= 1e-12);
        assert_eq!(report.swap_count, 0);
    }

    #[test]
    fn swapped_layout_is_undone() {
        // Circuit: gate on (0, 1); compiled: swap 1 and 2 first, run the
        // gate on (0, 2), leaving logical 1 on physical 2.
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 1, 0.3, 0.0, 0.5));
        let hw = vec![Gate::swap(1, 2), Gate::canonical(0, 2, 0.3, 0.0, 0.5)];
        let compiled = ScheduledCircuit::asap_from_gates(3, &hw);
        let report = checker()
            .check(
                &c,
                &compiled,
                &[0, 1],
                EquivalenceMode::StrictOrder,
                Some(&[0, 2]),
            )
            .unwrap();
        assert!(report.max_amplitude_error <= 1e-12);
        assert_eq!(report.swap_count, 1);
    }

    #[test]
    fn wrong_final_layout_claim_is_detected() {
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.5));
        let hw = vec![Gate::swap(1, 2), Gate::canonical(0, 2, 0.0, 0.0, 0.5)];
        let compiled = ScheduledCircuit::asap_from_gates(3, &hw);
        let err = checker()
            .check(
                &c,
                &compiled,
                &[0, 1],
                EquivalenceMode::StrictOrder,
                Some(&[0, 1]),
            )
            .unwrap_err();
        assert!(matches!(err, VerifyError::FinalLayoutMismatch { .. }));
    }

    #[test]
    fn coefficient_corruption_is_detected() {
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.5));
        let hw = vec![Gate::canonical(0, 1, 0.0, 0.0, 0.5000001)];
        let compiled = ScheduledCircuit::asap_from_gates(2, &hw);
        let err = checker()
            .check(&c, &compiled, &[0, 1], EquivalenceMode::StrictOrder, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::GateMultisetMismatch { .. }));
    }

    #[test]
    fn reordered_non_commuting_gates_fail_strict_but_pass_permutation() {
        let mut c = Circuit::new(2);
        c.push(Gate::single(GateKind::H, 0));
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.6));
        let hw = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.6),
            Gate::single(GateKind::H, 0),
        ];
        let compiled = ScheduledCircuit::asap_from_gates(2, &hw);
        let err = checker()
            .check(&c, &compiled, &[0, 1], EquivalenceMode::StrictOrder, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::AmplitudeMismatch { .. }));
        let report = checker()
            .check(
                &c,
                &compiled,
                &[0, 1],
                EquivalenceMode::TermPermutation,
                None,
            )
            .unwrap();
        assert!(report.max_amplitude_error <= 1e-12);
    }

    #[test]
    fn two_qan_compilation_verifies_end_to_end() {
        let circuit = trotter_step(&nnn_heisenberg(6, 3), 1.0);
        let device = Device::grid(2, 4, TwoQubitBasis::Cnot);
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let unified = circuit.unify_same_pair_gates();
        let report = checker()
            .check(
                &unified,
                &result.hardware_circuit,
                &result.initial_placement,
                EquivalenceMode::TermPermutation,
                result.final_placement.as_deref(),
            )
            .unwrap();
        assert!(
            report.max_amplitude_error <= 1e-10,
            "max error {}",
            report.max_amplitude_error
        );
        assert_eq!(report.swap_count, result.swap_count());
        assert_eq!(report.dressed_swap_count, result.metrics.dressed_swap_count);
    }

    #[test]
    fn commutation_detection() {
        let mut zz = Circuit::new(3);
        zz.push(Gate::canonical(0, 1, 0.0, 0.0, 0.3));
        zz.push(Gate::single(GateKind::Rz(0.2), 2));
        zz.push(Gate::two(GateKind::Cz, 1, 2));
        assert!(all_gates_commute(&zz));
        let mut mixed = zz.clone();
        mixed.push(Gate::single(GateKind::Rx(0.1), 0));
        assert!(!all_gates_commute(&mixed));
    }

    #[test]
    fn support_cap_is_enforced() {
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.5));
        let compiled =
            ScheduledCircuit::asap_from_gates(2, &[Gate::canonical(0, 1, 0.0, 0.0, 0.5)]);
        let tight = EquivalenceChecker {
            max_support_qubits: 1,
            ..EquivalenceChecker::default()
        };
        let err = tight
            .check(&c, &compiled, &[0, 1], EquivalenceMode::StrictOrder, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::SupportTooLarge { .. }));
    }
}
