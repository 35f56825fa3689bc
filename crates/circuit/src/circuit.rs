//! The [`Circuit`] type: an ordered list of gates over `n` qubits.

use crate::gate::{Gate, GateKind};
use crate::Qubit;
use std::collections::BTreeMap;

/// An ordered quantum circuit.
///
/// The order of gates matters for generic (order-respecting) compilation; the
/// 2QAN passes treat the two-qubit *application unitaries* as freely
/// permutable, which is exactly the application-level property the paper
/// exploits.
///
/// # Example
///
/// ```
/// use twoqan_circuit::{Circuit, Gate, GateKind};
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.4));
/// c.push(Gate::canonical(1, 2, 0.0, 0.0, 0.4));
/// c.push(Gate::single(GateKind::Rx(0.7), 0));
/// assert_eq!(c.two_qubit_gate_count(), 2);
/// assert_eq!(c.gate_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates a circuit from an existing gate list.
    ///
    /// # Panics
    ///
    /// Panics if any gate touches a qubit `≥ num_qubits`.
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Self {
        let mut c = Self::new(num_qubits);
        for g in gates {
            c.push(g);
        }
        c
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates (of any kind, including SWAPs).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gate_count() - self.two_qubit_gate_count()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit `≥ num_qubits`.
    pub fn push(&mut self, gate: Gate) {
        for q in gate.qubits() {
            assert!(
                q < self.num_qubits,
                "gate {gate} touches qubit {q}, but the circuit has only {} qubits",
                self.num_qubits
            );
        }
        self.gates.push(gate);
    }

    /// Appends all gates of another circuit (which must not use more qubits).
    pub fn append(&mut self, other: &Circuit) {
        for g in other.iter() {
            self.push(*g);
        }
    }

    /// Iterates over the gates in order.
    pub fn iter(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter()
    }

    /// The gates as a slice.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The two-qubit gates, in order.
    pub fn two_qubit_gates(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| g.is_two_qubit())
    }

    /// The single-qubit gates, in order.
    pub fn single_qubit_gates(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.is_two_qubit())
    }

    /// The list of interacting circuit-qubit pairs, one entry per two-qubit
    /// gate (the "flow" of the qubit-mapping QAP).
    pub fn interaction_pairs(&self) -> Vec<(Qubit, Qubit)> {
        self.two_qubit_gates().map(|g| g.qubit_pair()).collect()
    }

    /// Returns a copy with every qubit index relabelled through `map`
    /// (`map[old] = new`), over `new_num_qubits` qubits.
    pub fn relabelled(&self, map: &[Qubit], new_num_qubits: usize) -> Circuit {
        let gates = self.gates.iter().map(|g| g.relabelled(map)).collect();
        Circuit::from_gates(new_num_qubits, gates)
    }

    /// Returns a copy with the order of the two-qubit gates reversed while
    /// single-qubit gates keep their positions relative to the end.
    ///
    /// The paper uses this to build even-numbered Trotter steps / QAOA layers
    /// from the compiled first step ("for even number layers, it simply
    /// reverses the two-qubit gate order"), mirroring second-order
    /// Trotterization.
    pub fn reversed(&self) -> Circuit {
        let gates = self.gates.iter().rev().copied().collect();
        Circuit {
            num_qubits: self.num_qubits,
            gates,
        }
    }

    /// Merges consecutive-or-not two-qubit *canonical* gates acting on the
    /// same qubit pair into a single canonical gate whose coefficients are
    /// the sums (the "circuit unitary unifying" pre-pass of §III-C).
    ///
    /// Gates of other kinds are left untouched and keep their relative
    /// order; the merged gate takes the position of the first occurrence of
    /// its pair.  This is semantics-preserving for 2-local Hamiltonian
    /// simulation circuits because same-pair XX/YY/ZZ exponentials commute.
    pub fn unify_same_pair_gates(&self) -> Circuit {
        let mut merged: BTreeMap<(Qubit, Qubit), (f64, f64, f64)> = BTreeMap::new();
        // First pass: accumulate canonical coefficients per pair.
        for g in &self.gates {
            if let GateKind::Canonical { xx, yy, zz } = g.kind {
                let e = merged.entry(g.qubit_pair()).or_insert((0.0, 0.0, 0.0));
                e.0 += xx;
                e.1 += yy;
                e.2 += zz;
            }
        }
        // Second pass: emit the merged gate at the first occurrence of the pair.
        let mut emitted: BTreeMap<(Qubit, Qubit), bool> = BTreeMap::new();
        let mut out = Circuit::new(self.num_qubits);
        for g in &self.gates {
            match g.kind {
                GateKind::Canonical { .. } => {
                    let pair = g.qubit_pair();
                    if !emitted.get(&pair).copied().unwrap_or(false) {
                        let (xx, yy, zz) = merged[&pair];
                        out.push(Gate::canonical(pair.0, pair.1, xx, yy, zz));
                        emitted.insert(pair, true);
                    }
                }
                _ => out.push(*g),
            }
        }
        out
    }
}

impl std::fmt::Display for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.num_qubits,
            self.gate_count()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        for i in 0..4 {
            c.push(Gate::canonical(i, (i + 1) % 4, 0.0, 0.0, 0.3));
        }
        for i in 0..4 {
            c.push(Gate::single(GateKind::Rx(0.5), i));
        }
        c
    }

    #[test]
    fn counting_and_iteration() {
        let c = ring_circuit();
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.gate_count(), 8);
        assert_eq!(c.two_qubit_gate_count(), 4);
        assert_eq!(c.single_qubit_gate_count(), 4);
        assert_eq!(c.two_qubit_gates().count(), 4);
        assert_eq!(c.single_qubit_gates().count(), 4);
        assert!(!c.is_empty());
        assert_eq!(
            c.iter()
                .filter(|g| matches!(g.kind, GateKind::Rx(_)))
                .count(),
            4
        );
    }

    #[test]
    fn interaction_pairs_and_counts() {
        let mut c = Circuit::new(3);
        c.push(Gate::canonical(0, 1, 0.1, 0.0, 0.0));
        c.push(Gate::canonical(1, 0, 0.0, 0.2, 0.0));
        c.push(Gate::canonical(1, 2, 0.0, 0.0, 0.3));
        assert_eq!(c.interaction_pairs(), vec![(0, 1), (0, 1), (1, 2)]);
    }

    #[test]
    fn unify_same_pair_gates_merges_coefficients() {
        // The Heisenberg model has XX, YY and ZZ terms on every pair; the
        // circuit-unitary-unifying pre-pass merges them into one Can gate.
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 1, 0.3, 0.0, 0.0));
        c.push(Gate::canonical(1, 0, 0.0, 0.4, 0.0));
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.5));
        let unified = c.unify_same_pair_gates();
        assert_eq!(unified.two_qubit_gate_count(), 1);
        match unified.gates()[0].kind {
            GateKind::Canonical { xx, yy, zz } => {
                assert!((xx - 0.3).abs() < 1e-12);
                assert!((yy - 0.4).abs() < 1e-12);
                assert!((zz - 0.5).abs() < 1e-12);
            }
            ref k => panic!("expected a canonical gate, got {k:?}"),
        }
    }

    #[test]
    fn unify_keeps_single_qubit_and_other_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::single(GateKind::H, 0));
        c.push(Gate::canonical(0, 1, 0.1, 0.0, 0.0));
        c.push(Gate::swap(1, 2));
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.2));
        let unified = c.unify_same_pair_gates();
        assert_eq!(unified.gate_count(), 3);
        let count = |pred: fn(&GateKind) -> bool| unified.iter().filter(|g| pred(&g.kind)).count();
        assert_eq!(count(|k| matches!(k, GateKind::Swap)), 1);
        assert_eq!(count(|k| matches!(k, GateKind::H)), 1);
    }

    #[test]
    fn relabelling_produces_hardware_circuit() {
        let c = ring_circuit();
        let map = vec![2, 0, 3, 1];
        let h = c.relabelled(&map, 6);
        assert_eq!(h.num_qubits(), 6);
        assert_eq!(h.two_qubit_gate_count(), 4);
        assert_eq!(h.gates()[0].qubit_pair(), (0, 2));
    }

    #[test]
    fn reversed_flips_gate_order() {
        let c = ring_circuit();
        let r = c.reversed();
        assert_eq!(r.gate_count(), c.gate_count());
        assert_eq!(r.gates()[0], *c.gates().last().unwrap());
        // Reversing twice restores the circuit.
        assert_eq!(r.reversed(), c);
    }

    #[test]
    #[should_panic(expected = "touches qubit")]
    fn push_rejects_out_of_range_qubits() {
        let mut c = Circuit::new(2);
        c.push(Gate::canonical(0, 2, 0.0, 0.0, 0.1));
    }

    #[test]
    fn append_and_display() {
        let mut c = Circuit::new(4);
        c.append(&ring_circuit());
        assert_eq!(c.gate_count(), 8);
        let text = c.to_string();
        assert!(text.contains("can q0,q1"));
        assert!(text.contains("rx q3"));
    }
}
