//! Moments (parallel cycles) and scheduled circuits.

use crate::gate::Gate;
use crate::Qubit;
use std::collections::BTreeSet;

/// A set of gates that act on pairwise-disjoint qubits and can therefore be
/// executed in the same cycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Moment {
    gates: Vec<Gate>,
    busy: BTreeSet<Qubit>,
}

impl Moment {
    /// Creates an empty moment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to add a gate; returns `false` (leaving the moment unchanged)
    /// if any of its qubits is already busy in this moment.
    pub fn try_push(&mut self, gate: Gate) -> bool {
        let qs = gate.qubits();
        if qs.iter().any(|q| self.busy.contains(q)) {
            return false;
        }
        for q in qs {
            self.busy.insert(q);
        }
        self.gates.push(gate);
        true
    }

    /// The gates in this moment.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates in this moment.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the moment contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// A circuit arranged into a sequence of [`Moment`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduledCircuit {
    num_qubits: usize,
    moments: Vec<Moment>,
}

impl ScheduledCircuit {
    /// Creates an empty scheduled circuit.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            moments: Vec::new(),
        }
    }

    /// Creates a scheduled circuit from explicit moments.
    pub fn from_moments(num_qubits: usize, moments: Vec<Moment>) -> Self {
        Self {
            num_qubits,
            moments,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The moments, in execution order.
    pub fn moments(&self) -> &[Moment] {
        &self.moments
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.moments.iter().map(|m| m.len()).sum()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.iter_gates().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth: the number of (non-empty) moments.
    pub fn depth(&self) -> usize {
        self.moments.iter().filter(|m| !m.is_empty()).count()
    }

    /// Iterates over all gates in execution order.
    pub fn iter_gates(&self) -> impl Iterator<Item = &Gate> {
        self.moments.iter().flat_map(|m| m.gates().iter())
    }

    /// Greedily packs an ordered gate list into moments while respecting the
    /// gate order on each qubit (ASAP packing): each gate is placed in the
    /// earliest moment after the last moment that uses one of its qubits.
    pub fn asap_from_gates(num_qubits: usize, gates: &[Gate]) -> Self {
        let mut last_busy = vec![0usize; num_qubits]; // earliest free moment per qubit
        let mut moments: Vec<Moment> = Vec::new();
        for gate in gates {
            let start = gate
                .qubits()
                .iter()
                .map(|&q| last_busy[q])
                .max()
                .unwrap_or(0);
            while moments.len() <= start {
                moments.push(Moment::new());
            }
            let pushed = moments[start].try_push(*gate);
            debug_assert!(pushed, "ASAP packing placed a gate on a busy qubit");
            for q in gate.qubits() {
                last_busy[q] = start + 1;
            }
        }
        Self {
            num_qubits,
            moments,
        }
    }

    /// Validates that every moment only uses each qubit once and that all
    /// qubits are in range.
    pub fn is_valid(&self) -> bool {
        for m in &self.moments {
            let mut seen = BTreeSet::new();
            for g in m.gates() {
                for q in g.qubits() {
                    if q >= self.num_qubits || !seen.insert(q) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::metrics::HardwareMetrics;
    use twoqan_math::cost::TwoQubitBasisCost;

    /// The number of moments holding a two-qubit gate.
    fn two_qubit_depth(s: &ScheduledCircuit) -> usize {
        HardwareMetrics::of(s, TwoQubitBasisCost::Cnot).application_two_qubit_depth
    }

    #[test]
    fn moment_rejects_conflicting_gates() {
        let mut m = Moment::new();
        assert!(m.try_push(Gate::canonical(0, 1, 0.0, 0.0, 0.1)));
        assert!(!m.try_push(Gate::canonical(1, 2, 0.0, 0.0, 0.1)));
        assert!(m.try_push(Gate::canonical(2, 3, 0.0, 0.0, 0.1)));
        assert!(m.try_push(Gate::single(GateKind::H, 4)));
        assert!(!m.try_push(Gate::single(GateKind::H, 4)));
        assert_eq!(m.len(), 3);
        assert!(m.busy.contains(&0));
        assert!(!m.busy.contains(&5));
    }

    #[test]
    fn asap_packing_of_a_chain() {
        // Chain gates (0,1),(1,2),(2,3) must serialise; (0,1) and (2,3) could
        // share a moment, but order-respecting ASAP places them as 1,2,3...
        // Actually (2,3) has no earlier gate on its qubits, so it lands in
        // moment 0 together with (0,1).
        let gates = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.1),
            Gate::canonical(1, 2, 0.0, 0.0, 0.1),
            Gate::canonical(2, 3, 0.0, 0.0, 0.1),
        ];
        let s = ScheduledCircuit::asap_from_gates(4, &gates);
        assert!(s.is_valid());
        assert_eq!(s.depth(), 3);
        assert_eq!(two_qubit_depth(&s), 3);
        assert_eq!(s.gate_count(), 3);
    }

    #[test]
    fn asap_parallelises_disjoint_gates() {
        let gates = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.1),
            Gate::canonical(2, 3, 0.0, 0.0, 0.1),
            Gate::canonical(4, 5, 0.0, 0.0, 0.1),
        ];
        let s = ScheduledCircuit::asap_from_gates(6, &gates);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.moments()[0].len(), 3);
    }

    #[test]
    fn single_qubit_gates_do_not_count_toward_two_qubit_depth() {
        let gates = vec![
            Gate::single(GateKind::Rx(0.3), 0),
            Gate::canonical(0, 1, 0.0, 0.0, 0.1),
            Gate::single(GateKind::Rx(0.3), 0),
        ];
        let s = ScheduledCircuit::asap_from_gates(2, &gates);
        assert_eq!(s.depth(), 3);
        assert_eq!(two_qubit_depth(&s), 1);
    }

    #[test]
    fn validity_detects_out_of_range_qubits() {
        let mut m = Moment::new();
        m.try_push(Gate::canonical(0, 5, 0.0, 0.0, 0.1));
        let s = ScheduledCircuit::from_moments(3, vec![m]);
        assert!(!s.is_valid());
    }
}
