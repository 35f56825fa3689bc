//! Gate-order dependency DAGs and order-respecting scheduling.
//!
//! Generic (application-agnostic) compilers must respect the dependencies
//! implied by the input gate order: two gates that share a qubit may not be
//! reordered.  This module builds that DAG (with its ASAP and ALAP levels)
//! and the ALAP schedule derived from it.  The permutation-aware 2QAN
//! scheduler deliberately does *not* use this structure for circuit gates
//! (only for SWAP → gate dependencies); the generic baselines do.

use crate::circuit::Circuit;
use crate::moment::{Moment, ScheduledCircuit};

/// A dependency DAG over the gates of a circuit (indices into the original
/// gate list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyDag {
    num_qubits: usize,
    /// `predecessors[i]` = indices of gates that must run before gate `i`.
    predecessors: Vec<Vec<usize>>,
    /// `successors[i]` = indices of gates that must run after gate `i`.
    successors: Vec<Vec<usize>>,
    num_gates: usize,
}

impl DependencyDag {
    /// Builds the dependency DAG of a circuit: gate `j` depends on gate `i`
    /// (`i < j`) iff they share a qubit and no later gate on that qubit lies
    /// between them.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let gates = circuit.gates();
        let n = gates.len();
        let mut predecessors = vec![Vec::new(); n];
        let mut successors = vec![Vec::new(); n];
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (i, g) in gates.iter().enumerate() {
            for q in g.qubits() {
                if let Some(p) = last_on_qubit[q] {
                    if !predecessors[i].contains(&p) {
                        predecessors[i].push(p);
                        successors[p].push(i);
                    }
                }
                last_on_qubit[q] = Some(i);
            }
        }
        Self {
            num_qubits: circuit.num_qubits(),
            predecessors,
            successors,
            num_gates: n,
        }
    }

    /// Number of gates in the DAG.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Direct predecessors of a gate.
    pub fn predecessors(&self, gate: usize) -> &[usize] {
        &self.predecessors[gate]
    }

    /// Direct successors of a gate.
    pub fn successors(&self, gate: usize) -> &[usize] {
        &self.successors[gate]
    }

    /// ASAP level of every gate: `level[i] = 1 + max(level of predecessors)`,
    /// 0 for gates with no predecessors.
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.num_gates];
        for i in 0..self.num_gates {
            // Gates are listed in topological order (original circuit order),
            // so predecessors always have smaller indices.
            let lvl = self.predecessors[i]
                .iter()
                .map(|&p| levels[p] + 1)
                .max()
                .unwrap_or(0);
            levels[i] = lvl;
        }
        levels
    }

    /// ALAP level of every gate, using the ASAP critical-path depth as the
    /// total schedule length.
    pub fn alap_levels(&self) -> Vec<usize> {
        let asap = self.asap_levels();
        let depth = asap.iter().copied().max().map(|d| d + 1).unwrap_or(0);
        let mut levels = vec![0usize; self.num_gates];
        for i in (0..self.num_gates).rev() {
            let lvl = self.successors[i]
                .iter()
                .map(|&s| levels[s])
                .min()
                .map(|m| m.saturating_sub(1))
                .unwrap_or_else(|| depth.saturating_sub(1));
            levels[i] = lvl;
        }
        levels
    }
}

/// Schedules an ordered circuit into moments respecting its gate-order
/// dependencies, as late as possible (ALAP).
pub fn alap_schedule(circuit: &Circuit) -> ScheduledCircuit {
    schedule_by_levels(circuit, &DependencyDag::from_circuit(circuit).alap_levels())
}

fn schedule_by_levels(circuit: &Circuit, levels: &[usize]) -> ScheduledCircuit {
    let depth = levels.iter().copied().max().map(|d| d + 1).unwrap_or(0);
    let mut moments = vec![Moment::new(); depth];
    for (i, gate) in circuit.gates().iter().enumerate() {
        let placed = moments[levels[i]].try_push(*gate);
        debug_assert!(
            placed,
            "level scheduling placed conflicting gates in one moment"
        );
    }
    let moments = moments.into_iter().filter(|m| !m.is_empty()).collect();
    ScheduledCircuit::from_moments(circuit.num_qubits(), moments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Gate, GateKind};

    /// The ASAP counterpart of [`alap_schedule`].
    fn asap_schedule(circuit: &Circuit) -> ScheduledCircuit {
        schedule_by_levels(circuit, &DependencyDag::from_circuit(circuit).asap_levels())
    }

    /// Critical-path depth of a circuit (number of ASAP levels).
    fn ordered_depth(circuit: &Circuit) -> usize {
        let levels = DependencyDag::from_circuit(circuit).asap_levels();
        levels.into_iter().max().map_or(0, |d| d + 1)
    }

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.1));
        c.push(Gate::canonical(1, 2, 0.0, 0.0, 0.1));
        c.push(Gate::canonical(2, 3, 0.0, 0.0, 0.1));
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.1));
        c
    }

    #[test]
    fn dag_records_shared_qubit_dependencies() {
        let dag = DependencyDag::from_circuit(&chain_circuit());
        assert_eq!(dag.num_gates(), 4);
        assert!(dag.predecessors(0).is_empty());
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
        // Gate 3 reuses qubits 0 and 1: depends on gate 0 (qubit 0) and gate 1 (qubit 1).
        let mut p = dag.predecessors(3).to_vec();
        p.sort();
        assert_eq!(p, vec![0, 1]);
        assert_eq!(dag.successors(0), &[1, 3]);
    }

    #[test]
    fn asap_and_alap_depths_agree() {
        let c = chain_circuit();
        assert_eq!(ordered_depth(&c), 3);
        let asap = asap_schedule(&c);
        let alap = alap_schedule(&c);
        assert_eq!(asap.depth(), 3);
        assert_eq!(alap.depth(), 3);
        assert!(asap.is_valid());
        assert!(alap.is_valid());
        assert_eq!(asap.gate_count(), 4);
        assert_eq!(alap.gate_count(), 4);
    }

    #[test]
    fn alap_pushes_independent_gates_late() {
        // An isolated gate on a fresh qubit can sit anywhere; ALAP places it
        // in the last moment while ASAP places it in the first.
        let mut c = Circuit::new(5);
        for g in chain_circuit().gates() {
            c.push(*g);
        }
        c.push(Gate::single(GateKind::H, 4));
        let dag = DependencyDag::from_circuit(&c);
        let asap = dag.asap_levels();
        let alap = dag.alap_levels();
        assert_eq!(asap[4], 0);
        assert_eq!(alap[4], ordered_depth(&c) - 1);
        // ALAP levels never precede ASAP levels.
        for (a, l) in asap.iter().zip(alap.iter()) {
            assert!(l >= a);
        }
    }

    #[test]
    fn parallel_gates_share_a_level() {
        let mut c = Circuit::new(4);
        c.push(Gate::canonical(0, 1, 0.0, 0.0, 0.1));
        c.push(Gate::canonical(2, 3, 0.0, 0.0, 0.1));
        let s = asap_schedule(&c);
        assert_eq!(s.depth(), 1);
        assert_eq!(ordered_depth(&c), 1);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(3);
        assert_eq!(ordered_depth(&c), 0);
        assert_eq!(asap_schedule(&c).depth(), 0);
        assert_eq!(alap_schedule(&c).depth(), 0);
    }

    #[test]
    fn example_from_paper_figure3_has_depth_gap() {
        // The Fig. 3 interaction set on 6 qubits: a generic order-respecting
        // schedule of a chain-heavy order is deeper than the 2-moment
        // schedule a permutation-aware scheduler could achieve; here we just
        // check the dependency machinery produces a consistent depth.
        let mut c = Circuit::new(6);
        for &(a, b) in &[(0, 2), (2, 3), (3, 5), (5, 0), (1, 4), (1, 3), (4, 5)] {
            c.push(Gate::canonical(a, b, 0.0, 0.0, 0.2));
        }
        let s = asap_schedule(&c);
        assert!(s.is_valid());
        assert_eq!(s.two_qubit_gate_count(), 7);
        assert!(s.depth() >= 3);
    }
}
