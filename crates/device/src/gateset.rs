//! Native two-qubit gate bases and device gate sets.

use twoqan_math::cost::TwoQubitBasisCost;

/// The native two-qubit gate of a device (all devices additionally support
/// arbitrary single-qubit rotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoQubitBasis {
    /// CNOT (IBM devices).
    Cnot,
    /// Controlled-Z (Sycamore and Aspen support CZ natively as well).
    Cz,
    /// The Google Sycamore gate `fSim(π/2, π/6)`.
    Syc,
    /// iSWAP (Rigetti Aspen).
    ISwap,
}

impl TwoQubitBasis {
    /// All supported bases.
    pub const ALL: [TwoQubitBasis; 4] = [
        TwoQubitBasis::Cnot,
        TwoQubitBasis::Cz,
        TwoQubitBasis::Syc,
        TwoQubitBasis::ISwap,
    ];

    /// The gate-count cost model of this basis.
    pub fn cost_model(self) -> TwoQubitBasisCost {
        match self {
            TwoQubitBasis::Cnot => TwoQubitBasisCost::Cnot,
            TwoQubitBasis::Cz => TwoQubitBasisCost::Cz,
            TwoQubitBasis::Syc => TwoQubitBasisCost::Syc,
            TwoQubitBasis::ISwap => TwoQubitBasisCost::ISwap,
        }
    }

    /// Display name matching the paper's plot labels.
    pub fn name(self) -> &'static str {
        self.cost_model().gate_name()
    }
}

impl std::fmt::Display for TwoQubitBasis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The set of two-qubit bases a device supports natively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSet {
    /// Bases the hardware can execute directly; the first entry is the
    /// default used for decomposition.
    pub bases: Vec<TwoQubitBasis>,
}

impl GateSet {
    /// A gate set with a single native basis.
    pub fn single(basis: TwoQubitBasis) -> Self {
        Self { bases: vec![basis] }
    }

    /// The default (first) basis.
    pub fn default_basis(&self) -> TwoQubitBasis {
        self.bases[0]
    }

    /// Returns `true` if the gate set contains `basis`.
    pub fn supports(&self, basis: TwoQubitBasis) -> bool {
        self.bases.contains(&basis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models_match_bases() {
        assert_eq!(TwoQubitBasis::Cnot.cost_model(), TwoQubitBasisCost::Cnot);
        assert_eq!(TwoQubitBasis::Syc.cost_model(), TwoQubitBasisCost::Syc);
        assert_eq!(TwoQubitBasis::ISwap.cost_model(), TwoQubitBasisCost::ISwap);
        assert_eq!(TwoQubitBasis::Cz.cost_model(), TwoQubitBasisCost::Cz);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(TwoQubitBasis::Syc.to_string(), "SYC");
        assert_eq!(TwoQubitBasis::ISwap.to_string(), "iSWAP");
    }

    #[test]
    fn gate_set_default_and_support() {
        let gs = GateSet {
            bases: vec![TwoQubitBasis::Syc, TwoQubitBasis::Cz],
        };
        assert_eq!(gs.default_basis(), TwoQubitBasis::Syc);
        assert!(gs.supports(TwoQubitBasis::Cz));
        assert!(!gs.supports(TwoQubitBasis::Cnot));
        assert_eq!(
            GateSet::single(TwoQubitBasis::Cnot).default_basis(),
            TwoQubitBasis::Cnot
        );
    }
}
