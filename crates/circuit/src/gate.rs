//! Gate kinds and gate instances.

use crate::Qubit;
use twoqan_math::cost::TwoQubitBasisCost;
use twoqan_math::gates;
use twoqan_math::weyl::WeylCoordinates;
use twoqan_math::{Matrix2, Matrix4};

/// The operation performed by a [`Gate`], independent of which qubits it
/// acts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    // --- single-qubit gates -------------------------------------------------
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// General single-qubit rotation `U3(θ, φ, λ)`.
    U3(f64, f64, f64),

    // --- hardware two-qubit gates -------------------------------------------
    /// CNOT (first operand is the control).
    Cnot,
    /// Controlled-Z.
    Cz,
    /// SWAP (also used for routing SWAPs inserted by compilers).
    Swap,
    /// iSWAP (Rigetti Aspen native gate).
    ISwap,
    /// The Google Sycamore gate `fSim(π/2, π/6)`.
    Syc,

    // --- application-level two-qubit unitaries ------------------------------
    /// The canonical two-local exponential
    /// `Can(a, b, c) = exp(i(a·XX + b·YY + c·ZZ))`; all Trotterized 2-local
    /// Hamiltonian terms (and their same-pair products) have this form.
    Canonical {
        /// XX coefficient.
        xx: f64,
        /// YY coefficient.
        yy: f64,
        /// ZZ coefficient.
        zz: f64,
    },
    /// A routing SWAP merged with a circuit gate acting on the same pair:
    /// `SWAP · Can(xx, yy, zz)` (the "dressed SWAP" of the unitary-unifying
    /// pass).
    DressedSwap {
        /// XX coefficient of the merged circuit gate.
        xx: f64,
        /// YY coefficient of the merged circuit gate.
        yy: f64,
        /// ZZ coefficient of the merged circuit gate.
        zz: f64,
    },
}

impl GateKind {
    /// Number of qubits this kind of gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            GateKind::Rx(_)
            | GateKind::Ry(_)
            | GateKind::Rz(_)
            | GateKind::H
            | GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::U3(..) => 1,
            _ => 2,
        }
    }

    /// Returns `true` for two-qubit kinds.
    pub fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// The 2×2 matrix of a single-qubit kind.
    ///
    /// # Panics
    ///
    /// Panics if called on a two-qubit kind.
    pub fn single_qubit_matrix(&self) -> Matrix2 {
        match *self {
            GateKind::Rx(t) => gates::rx(t),
            GateKind::Ry(t) => gates::ry(t),
            GateKind::Rz(t) => gates::rz(t),
            GateKind::H => gates::hadamard(),
            GateKind::X => gates::pauli_x(),
            GateKind::Y => gates::pauli_y(),
            GateKind::Z => gates::pauli_z(),
            GateKind::U3(t, p, l) => gates::u3(t, p, l),
            _ => panic!("single_qubit_matrix called on the two-qubit gate {self:?}"),
        }
    }

    /// The 4×4 matrix of a two-qubit kind (first operand is the
    /// most-significant qubit).
    ///
    /// # Panics
    ///
    /// Panics if called on a single-qubit kind.
    pub fn two_qubit_matrix(&self) -> Matrix4 {
        match *self {
            GateKind::Cnot => gates::cnot(),
            GateKind::Cz => gates::cz(),
            GateKind::Swap => gates::swap(),
            GateKind::ISwap => gates::iswap(),
            GateKind::Syc => gates::syc(),
            GateKind::Canonical { xx, yy, zz } => gates::canonical(xx, yy, zz),
            GateKind::DressedSwap { xx, yy, zz } => gates::dressed_swap(xx, yy, zz),
            _ => panic!("two_qubit_matrix called on the single-qubit gate {self:?}"),
        }
    }

    /// Weyl coordinates of a two-qubit kind (used for basis-gate counting).
    ///
    /// # Panics
    ///
    /// Panics if called on a single-qubit kind.
    pub fn weyl_coordinates(&self) -> WeylCoordinates {
        match *self {
            GateKind::Cnot | GateKind::Cz => WeylCoordinates::cnot(),
            GateKind::Swap => WeylCoordinates::swap(),
            GateKind::ISwap => WeylCoordinates::iswap(),
            GateKind::Syc => TwoQubitBasisCost::Syc.basis_coordinates(),
            GateKind::Canonical { xx, yy, zz } => WeylCoordinates::from_interaction(xx, yy, zz),
            GateKind::DressedSwap { xx, yy, zz } => WeylCoordinates::from_dressed_swap(xx, yy, zz),
            _ => panic!("weyl_coordinates called on the single-qubit gate {self:?}"),
        }
    }

    /// Number of native two-qubit gates needed to implement this kind in the
    /// given basis (0 for single-qubit gates).
    pub fn hardware_two_qubit_cost(&self, basis: TwoQubitBasisCost) -> usize {
        if !self.is_two_qubit() {
            return 0;
        }
        basis.gate_count(&self.weyl_coordinates())
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::Rx(_) => "rx",
            GateKind::Ry(_) => "ry",
            GateKind::Rz(_) => "rz",
            GateKind::H => "h",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::U3(..) => "u3",
            GateKind::Cnot => "cx",
            GateKind::Cz => "cz",
            GateKind::Swap => "swap",
            GateKind::ISwap => "iswap",
            GateKind::Syc => "syc",
            GateKind::Canonical { .. } => "can",
            GateKind::DressedSwap { .. } => "dressed_swap",
        }
    }
}

/// A gate instance: a [`GateKind`] applied to specific qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The operation.
    pub kind: GateKind,
    qubits: [Qubit; 2],
}

impl Gate {
    /// Creates a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a two-qubit kind.
    pub fn single(kind: GateKind, qubit: Qubit) -> Self {
        assert_eq!(
            kind.arity(),
            1,
            "{} is not a single-qubit gate",
            kind.name()
        );
        Self {
            kind,
            qubits: [qubit, qubit],
        }
    }

    /// Creates a two-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a single-qubit kind or the qubits coincide.
    pub fn two(kind: GateKind, a: Qubit, b: Qubit) -> Self {
        assert_eq!(kind.arity(), 2, "{} is not a two-qubit gate", kind.name());
        assert_ne!(a, b, "two-qubit gate requires distinct qubits");
        Self {
            kind,
            qubits: [a, b],
        }
    }

    /// Convenience constructor for a canonical two-local exponential.
    pub fn canonical(a: Qubit, b: Qubit, xx: f64, yy: f64, zz: f64) -> Self {
        Self::two(GateKind::Canonical { xx, yy, zz }, a, b)
    }

    /// Convenience constructor for a routing SWAP.
    pub fn swap(a: Qubit, b: Qubit) -> Self {
        Self::two(GateKind::Swap, a, b)
    }

    /// Returns `true` if this is a two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        self.kind.is_two_qubit()
    }

    /// The qubits this gate acts on (one element for single-qubit gates).
    pub fn qubits(&self) -> Vec<Qubit> {
        if self.is_two_qubit() {
            vec![self.qubits[0], self.qubits[1]]
        } else {
            vec![self.qubits[0]]
        }
    }

    /// First operand.
    pub fn qubit0(&self) -> Qubit {
        self.qubits[0]
    }

    /// Second operand.
    ///
    /// # Panics
    ///
    /// Panics if this is a single-qubit gate.
    pub fn qubit1(&self) -> Qubit {
        assert!(
            self.is_two_qubit(),
            "single-qubit gate has no second operand"
        );
        self.qubits[1]
    }

    /// The unordered qubit pair of a two-qubit gate, normalised as
    /// `(min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if this is a single-qubit gate.
    pub fn qubit_pair(&self) -> (Qubit, Qubit) {
        assert!(self.is_two_qubit(), "single-qubit gate has no qubit pair");
        let (a, b) = (self.qubits[0], self.qubits[1]);
        (a.min(b), a.max(b))
    }

    /// Returns `true` if the gate acts on `qubit`.
    pub fn acts_on(&self, qubit: Qubit) -> bool {
        self.qubits[0] == qubit || (self.is_two_qubit() && self.qubits[1] == qubit)
    }

    /// Returns `true` if this gate shares at least one qubit with `other`.
    pub fn overlaps(&self, other: &Gate) -> bool {
        other.qubits().iter().any(|&q| self.acts_on(q))
    }

    /// Returns a copy with qubit indices relabelled through `map`
    /// (`map[old] = new`), e.g. to place a circuit on hardware qubits.
    pub fn relabelled(&self, map: &[Qubit]) -> Self {
        let mut g = *self;
        g.qubits[0] = map[self.qubits[0]];
        if self.is_two_qubit() {
            g.qubits[1] = map[self.qubits[1]];
        } else {
            g.qubits[1] = g.qubits[0];
        }
        g
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_two_qubit() {
            write!(
                f,
                "{} q{},q{}",
                self.kind.name(),
                self.qubits[0],
                self.qubits[1]
            )
        } else {
            write!(f, "{} q{}", self.kind.name(), self.qubits[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_math::cost::TwoQubitBasisCost;

    #[test]
    fn arity_and_classification() {
        assert_eq!(GateKind::Rz(0.3).arity(), 1);
        assert_eq!(GateKind::Cnot.arity(), 2);
    }

    #[test]
    fn matrices_are_unitary() {
        for kind in [
            GateKind::Rx(0.3),
            GateKind::Ry(-0.4),
            GateKind::Rz(1.0),
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::U3(0.2, 0.3, 0.4),
        ] {
            assert!(kind.single_qubit_matrix().is_unitary(1e-10), "{kind:?}");
        }
        for kind in [
            GateKind::Cnot,
            GateKind::Cz,
            GateKind::Swap,
            GateKind::ISwap,
            GateKind::Syc,
            GateKind::Canonical {
                xx: 0.3,
                yy: 0.2,
                zz: 0.1,
            },
            GateKind::DressedSwap {
                xx: 0.0,
                yy: 0.0,
                zz: 0.4,
            },
        ] {
            assert!(kind.two_qubit_matrix().is_unitary(1e-10), "{kind:?}");
        }
    }

    #[test]
    fn hardware_costs_match_paper_examples() {
        // QAOA / Ising ZZ term: 2 CNOTs.
        let zz = GateKind::Canonical {
            xx: 0.0,
            yy: 0.0,
            zz: 0.4,
        };
        assert_eq!(zz.hardware_two_qubit_cost(TwoQubitBasisCost::Cnot), 2);
        // Plain SWAP and dressed SWAP: 3 CNOTs (Fig. 5).
        assert_eq!(
            GateKind::Swap.hardware_two_qubit_cost(TwoQubitBasisCost::Cnot),
            3
        );
        let dressed = GateKind::DressedSwap {
            xx: 0.0,
            yy: 0.0,
            zz: 0.4,
        };
        assert_eq!(dressed.hardware_two_qubit_cost(TwoQubitBasisCost::Cnot), 3);
        // Heisenberg term: 3 native gates in every basis.
        let heis = GateKind::Canonical {
            xx: 0.3,
            yy: 0.2,
            zz: 0.1,
        };
        for basis in TwoQubitBasisCost::ALL {
            assert_eq!(heis.hardware_two_qubit_cost(basis), 3);
        }
        // Single-qubit gates cost no two-qubit gates.
        assert_eq!(
            GateKind::Rx(0.1).hardware_two_qubit_cost(TwoQubitBasisCost::Cnot),
            0
        );
        // A native gate costs exactly one in its own basis.
        assert_eq!(
            GateKind::Syc.hardware_two_qubit_cost(TwoQubitBasisCost::Syc),
            1
        );
        assert_eq!(
            GateKind::Cnot.hardware_two_qubit_cost(TwoQubitBasisCost::Cnot),
            1
        );
    }

    /// The simulator dispatches on exact structural zeros, never on a
    /// tolerance: the phase-only and bit-flip kinds, and the QAOA forms
    /// `Can(0, 0, c)` and `SWAP · Can(0, 0, c)`, must build their matrices
    /// with exact zeros so that they get the specialised kernels.
    #[test]
    fn kernel_classes_match_matrix_forms() {
        use twoqan_math::Complex;
        for kind in [GateKind::Rz(0.4), GateKind::Z] {
            assert!(
                kind.single_qubit_matrix().as_diagonal().is_some(),
                "{kind:?}"
            );
        }
        for kind in [GateKind::X, GateKind::Y] {
            let m = kind.single_qubit_matrix();
            assert!(m.as_anti_diagonal().is_some(), "{kind:?}");
        }
        let h = GateKind::H.single_qubit_matrix();
        assert!(h.as_diagonal().is_none() && h.as_anti_diagonal().is_none());
        let rzz = GateKind::Canonical {
            xx: 0.0,
            yy: 0.0,
            zz: 0.7,
        };
        let d = rzz.two_qubit_matrix().as_diagonal().unwrap();
        assert!(d[0].approx_eq(Complex::cis(0.7), 1e-12));
        assert!(GateKind::Cz.two_qubit_matrix().as_diagonal().is_some());
        let dressed = GateKind::DressedSwap {
            xx: 0.0,
            yy: 0.0,
            zz: 0.4,
        };
        for kind in [GateKind::Swap, GateKind::ISwap, dressed] {
            assert!(
                kind.two_qubit_matrix().as_swap_diagonal().is_some(),
                "{kind:?}"
            );
        }
        let heis = GateKind::Canonical {
            xx: 0.3,
            yy: 0.2,
            zz: 0.1,
        };
        let dressed_heis = GateKind::DressedSwap {
            xx: 0.3,
            yy: 0.2,
            zz: 0.1,
        };
        for kind in [GateKind::Cnot, heis, dressed_heis] {
            let m = kind.two_qubit_matrix();
            assert!(
                m.as_diagonal().is_none() && m.as_swap_diagonal().is_none(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gate_constructors_and_accessors() {
        let g = Gate::two(GateKind::Cnot, 3, 1);
        assert_eq!(g.qubits(), vec![3, 1]);
        assert_eq!(g.qubit_pair(), (1, 3));
        assert_eq!(g.qubit0(), 3);
        assert_eq!(g.qubit1(), 1);
        assert!(g.acts_on(1));
        assert!(!g.acts_on(2));
        let s = Gate::single(GateKind::Rx(0.5), 2);
        assert_eq!(s.qubits(), vec![2]);
        assert!(s.acts_on(2));
        assert!(g.overlaps(&Gate::swap(1, 4)));
        assert!(!g.overlaps(&s));
    }

    #[test]
    fn relabelling_moves_gates_onto_hardware_qubits() {
        let map = vec![5, 3, 8, 0];
        let g = Gate::canonical(1, 3, 0.0, 0.0, 0.2).relabelled(&map);
        assert_eq!(g.qubits(), vec![3, 0]);
        let s = Gate::single(GateKind::H, 2).relabelled(&map);
        assert_eq!(s.qubits(), vec![8]);
    }

    #[test]
    fn display_formats_gates() {
        assert_eq!(Gate::two(GateKind::Cnot, 0, 1).to_string(), "cx q0,q1");
        assert_eq!(Gate::single(GateKind::H, 4).to_string(), "h q4");
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn two_qubit_gate_rejects_equal_qubits() {
        let _ = Gate::two(GateKind::Cz, 1, 1);
    }

    #[test]
    #[should_panic(expected = "is not a single-qubit gate")]
    fn single_constructor_rejects_two_qubit_kind() {
        let _ = Gate::single(GateKind::Cnot, 0);
    }
}
