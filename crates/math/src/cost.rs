//! Per-basis two-qubit gate-cost models.
//!
//! The 2QAN compiler performs all permutation-aware passes before gate
//! decomposition, then decomposes every application-level two-qubit unitary
//! into the hardware's native two-qubit gate.  The number of native gates
//! needed depends only on the unitary's Weyl-chamber class, which is what
//! these cost models encode:
//!
//! | class                      | CNOT/CZ | SYC | iSWAP |
//! |----------------------------|---------|-----|-------|
//! | identity (local)           | 0       | 0   | 0     |
//! | basis gate's own class     | 1       | 1   | 1     |
//! | `c₃ = 0` plane (e.g. ZZ, XY)| 2      | 2   | 2     |
//! | generic (e.g. Heisenberg, SWAP, dressed SWAP) | 3 | 3 | 3 |
//!
//! These are the standard optimal counts: three applications of any
//! maximally-entangling-capable basis gate suffice for an arbitrary two-qubit
//! unitary, two suffice exactly on the `c₃ = 0` plane, and one is possible
//! only for the basis gate's own equivalence class.  The CNOT column is the
//! classic Shende–Bullock–Markov result; the SYC and iSWAP columns match the
//! decompositions used by Google's Cirq and by Rigetti for their native
//! gates, which the paper relies on for Figs. 7–9.

use crate::weyl::WeylCoordinates;
use crate::LOOSE_EPSILON;
use std::f64::consts::FRAC_PI_4;

/// The native two-qubit basis a circuit is decomposed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoQubitBasisCost {
    /// CNOT basis (IBM devices, e.g. Montreal).
    Cnot,
    /// CZ basis (supported natively by Sycamore and Aspen).
    Cz,
    /// The Google Sycamore gate `fSim(π/2, π/6)`.
    Syc,
    /// The iSWAP gate (Rigetti Aspen).
    ISwap,
}

impl TwoQubitBasisCost {
    /// All supported bases.
    pub const ALL: [TwoQubitBasisCost; 4] = [
        TwoQubitBasisCost::Cnot,
        TwoQubitBasisCost::Cz,
        TwoQubitBasisCost::Syc,
        TwoQubitBasisCost::ISwap,
    ];

    /// Weyl coordinates of the basis gate itself.
    pub fn basis_coordinates(self) -> WeylCoordinates {
        match self {
            TwoQubitBasisCost::Cnot | TwoQubitBasisCost::Cz => WeylCoordinates::cnot(),
            TwoQubitBasisCost::ISwap => WeylCoordinates::iswap(),
            // SYC = fSim(π/2, π/6): an iSWAP-strength XY interaction plus a
            // small controlled phase; its folded coordinates are
            // (π/4, π/4, π/24).
            TwoQubitBasisCost::Syc => WeylCoordinates {
                c1: FRAC_PI_4,
                c2: FRAC_PI_4,
                c3: FRAC_PI_4 / 6.0,
            },
        }
    }

    /// Number of native two-qubit gates required to implement a unitary with
    /// the given Weyl coordinates (single-qubit gates are free).
    pub fn gate_count(self, coords: &WeylCoordinates) -> usize {
        if coords.is_identity_class() {
            return 0;
        }
        if coords.approx_eq(&self.basis_coordinates(), LOOSE_EPSILON) {
            return 1;
        }
        match self {
            TwoQubitBasisCost::Cnot | TwoQubitBasisCost::Cz => {
                if coords.has_zero_c3() {
                    2
                } else {
                    3
                }
            }
            TwoQubitBasisCost::ISwap | TwoQubitBasisCost::Syc => {
                // Two applications of an iSWAP-strength gate cover the
                // c₃ = 0 plane (this includes CNOT, CZ, ZZ- and XY-type
                // interactions); everything else needs three.
                if coords.has_zero_c3() {
                    2
                } else {
                    3
                }
            }
        }
    }

    /// Human-readable name of the native gate (as used in the paper's plots).
    pub fn gate_name(self) -> &'static str {
        match self {
            TwoQubitBasisCost::Cnot => "CNOT",
            TwoQubitBasisCost::Cz => "CZ",
            TwoQubitBasisCost::Syc => "SYC",
            TwoQubitBasisCost::ISwap => "iSWAP",
        }
    }
}

impl std::fmt::Display for TwoQubitBasisCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.gate_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::weyl::WeylCoordinates;

    #[test]
    fn identity_class_costs_nothing() {
        let id = WeylCoordinates::identity();
        for basis in TwoQubitBasisCost::ALL {
            assert_eq!(basis.gate_count(&id), 0);
        }
    }

    #[test]
    fn basis_gates_cost_one_in_their_own_basis() {
        assert_eq!(
            TwoQubitBasisCost::Cnot.gate_count(&WeylCoordinates::cnot()),
            1
        );
        assert_eq!(
            TwoQubitBasisCost::Cz.gate_count(&WeylCoordinates::cnot()),
            1
        );
        assert_eq!(
            TwoQubitBasisCost::ISwap.gate_count(&WeylCoordinates::iswap()),
            1
        );
        let syc_coords = WeylCoordinates::of(&gates::syc());
        assert_eq!(TwoQubitBasisCost::Syc.gate_count(&syc_coords), 1);
    }

    #[test]
    fn syc_basis_coordinates_match_numeric_value() {
        let numeric = WeylCoordinates::of(&gates::syc());
        assert!(
            numeric.approx_eq(&TwoQubitBasisCost::Syc.basis_coordinates(), 1e-5),
            "analytic SYC coordinates disagree with the numeric KAK result: {numeric}"
        );
    }

    #[test]
    fn zz_interactions_cost_two_in_every_basis() {
        // exp(iθZZ) — the QAOA / Ising circuit gate (Fig. 5: 2 CNOTs).
        let zz = WeylCoordinates::from_interaction(0.0, 0.0, 0.37);
        for basis in TwoQubitBasisCost::ALL {
            assert_eq!(basis.gate_count(&zz), 2, "basis {basis}");
        }
    }

    #[test]
    fn swap_and_dressed_swap_cost_three() {
        // Fig. 5: SWAP = 3 CNOTs and SWAP·exp(iθZZ) = 3 CNOTs.
        let dressed = WeylCoordinates::from_dressed_swap(0.0, 0.0, 0.3);
        for basis in TwoQubitBasisCost::ALL {
            assert_eq!(
                basis.gate_count(&WeylCoordinates::swap()),
                3,
                "basis {basis}"
            );
            assert_eq!(basis.gate_count(&dressed), 3, "basis {basis}");
        }
    }

    #[test]
    fn heisenberg_term_and_its_dressing_cost_the_same() {
        // The paper's observation behind the "almost no SYC/CZ overhead for
        // the Heisenberg model" result: a dressed SWAP of a Heisenberg term
        // costs exactly as many native gates as the term itself.
        let term = WeylCoordinates::from_interaction(0.4, 0.3, 0.2);
        let dressed = WeylCoordinates::from_dressed_swap(0.4, 0.3, 0.2);
        for basis in TwoQubitBasisCost::ALL {
            assert_eq!(basis.gate_count(&term), 3);
            assert_eq!(basis.gate_count(&dressed), 3);
        }
    }

    #[test]
    fn xy_term_costs_two() {
        let xy = WeylCoordinates::from_interaction(0.35, 0.2, 0.0);
        assert_eq!(TwoQubitBasisCost::Cnot.gate_count(&xy), 2);
        assert_eq!(TwoQubitBasisCost::Syc.gate_count(&xy), 2);
        assert_eq!(TwoQubitBasisCost::ISwap.gate_count(&xy), 2);
    }

    #[test]
    fn cnot_costs_two_in_iswap_and_syc_bases() {
        let cnot = WeylCoordinates::cnot();
        assert_eq!(TwoQubitBasisCost::ISwap.gate_count(&cnot), 2);
        assert_eq!(TwoQubitBasisCost::Syc.gate_count(&cnot), 2);
    }

    #[test]
    fn iswap_costs_two_in_cnot_basis() {
        let iswap = WeylCoordinates::iswap();
        assert_eq!(TwoQubitBasisCost::Cnot.gate_count(&iswap), 2);
    }

    #[test]
    fn gate_names_match_paper_labels() {
        assert_eq!(TwoQubitBasisCost::Cnot.gate_name(), "CNOT");
        assert_eq!(TwoQubitBasisCost::Syc.to_string(), "SYC");
        assert_eq!(TwoQubitBasisCost::ISwap.to_string(), "iSWAP");
        assert_eq!(TwoQubitBasisCost::Cz.to_string(), "CZ");
    }
}
