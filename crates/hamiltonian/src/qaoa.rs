//! QAOA MaxCut problems on random regular graphs (the `QAOA-REG-d`
//! benchmarks of §IV).
//!
//! QAOA has the same structure as Ising-model simulation: the problem
//! Hamiltonian is `C = Σ_{(u,v)∈E} Z_uZ_v`, the drive Hamiltonian is
//! `B = Σ_k X_k`, and one layer applies
//! `U(γ, β) = Π exp(iγ Z_uZ_v) · Π exp(iβ X_k)` (Eq. 8), with independent
//! parameters per layer.  Application performance is measured by the
//! normalised cost `⟨C⟩ / C_min` (1 = perfect, 0 = random guessing).

use rand::rngs::StdRng;
use rand::SeedableRng;
use twoqan_circuit::{Circuit, Gate, GateKind};
use twoqan_graphs::{random_regular_graph, Graph};

/// A MaxCut QAOA problem instance over a problem graph.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaProblem {
    graph: Graph,
}

impl QaoaProblem {
    /// Creates a QAOA problem for MaxCut on the given graph.
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// Creates a QAOA problem on a random `d`-regular graph with `n`
    /// vertices (the paper's `QAOA-REG-d` benchmarks, 10 instances per size).
    ///
    /// # Panics
    ///
    /// Panics if no simple `d`-regular graph on `n` vertices exists.
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(random_regular_graph(n, d, &mut rng))
    }

    /// Number of qubits (graph vertices).
    pub fn num_qubits(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges (two-qubit cost terms per layer; `3n/2` for
    /// `QAOA-REG-3`).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The problem graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// One QAOA layer `Π exp(iγ Z_uZ_v) · Π exp(iβ X_k)` as a circuit of
    /// application-level gates.
    pub fn layer_circuit(&self, gamma: f64, beta: f64) -> Circuit {
        let mut circuit = Circuit::new(self.num_qubits());
        for (u, v) in self.graph.edges() {
            circuit.push(Gate::canonical(u, v, 0.0, 0.0, gamma));
        }
        for k in 0..self.num_qubits() {
            // Mixer rotation exp(−iβX) = Rx(2β).  (The paper's Eq. 8 writes the
            // drive as exp(iβX); the two conventions differ only by the sign of
            // β, and the standard positive optimal angles quoted from ReCirq —
            // e.g. (γ*, β*) ≈ (0.6157, π/8) for 3-regular MaxCut — are defined
            // for this mixer sign.)
            circuit.push(Gate::single(GateKind::Rx(2.0 * beta), k));
        }
        circuit
    }

    /// The full `p`-layer QAOA circuit for per-layer parameters
    /// `params = [(γ₁, β₁), …, (γ_p, β_p)]`.
    ///
    /// When `include_state_prep` is set, a layer of Hadamards preparing
    /// `|+⟩^{⊗n}` is prepended (needed for simulation; irrelevant for the
    /// two-qubit compilation metrics).
    pub fn circuit(&self, params: &[(f64, f64)], include_state_prep: bool) -> Circuit {
        let mut circuit = Circuit::new(self.num_qubits());
        if include_state_prep {
            for k in 0..self.num_qubits() {
                circuit.push(Gate::single(GateKind::H, k));
            }
        }
        for &(gamma, beta) in params {
            circuit.append(&self.layer_circuit(gamma, beta));
        }
        circuit
    }

    /// The theoretically optimal single-layer angles for MaxCut on 3-regular
    /// graphs, `(γ*, β*) ≈ (0.6157, π/8)` (the values the paper takes from
    /// ReCirq).
    pub fn optimal_p1_angles_regular3() -> (f64, f64) {
        (0.6157, std::f64::consts::FRAC_PI_8)
    }

    /// The maximum cut, found by exhaustive search.
    ///
    /// # Panics
    ///
    /// Panics for more than 26 qubits (exhaustive search would be too slow);
    /// all benchmark QAOA instances are at most 22 qubits.
    pub fn max_cut_brute_force(&self) -> usize {
        let n = self.num_qubits();
        assert!(n <= 26, "brute-force MaxCut limited to 26 qubits, got {n}");
        let edges = self.graph.edges();
        let mut best = 0usize;
        for mask in 0u64..(1u64 << n.saturating_sub(1)) {
            // Fixing the last qubit to 0 halves the search space (cut is
            // invariant under global flip).
            let cut = edges
                .iter()
                .filter(|&&(u, v)| ((mask >> u) ^ (mask >> v)) & 1 == 1)
                .count();
            best = best.max(cut);
        }
        best
    }

    /// The minimum of the cost Hamiltonian, `C_min = |E| − 2·MaxCut`
    /// (the denominator of the paper's normalised cost metric).
    pub fn cost_minimum(&self) -> f64 {
        self.num_edges() as f64 - 2.0 * self.max_cut_brute_force() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> QaoaProblem {
        QaoaProblem::new(Graph::cycle(4))
    }

    #[test]
    fn regular_instances_have_expected_edge_count() {
        for n in [4usize, 8, 12, 16] {
            let p = QaoaProblem::random_regular(n, 3, 7);
            assert_eq!(p.num_qubits(), n);
            assert_eq!(p.num_edges(), 3 * n / 2);
        }
        let p4 = QaoaProblem::random_regular(20, 4, 1);
        assert_eq!(p4.num_edges(), 40);
    }

    #[test]
    fn layer_circuit_structure() {
        let p = square();
        let layer = p.layer_circuit(0.5, 0.3);
        assert_eq!(layer.two_qubit_gate_count(), 4);
        assert_eq!(layer.single_qubit_gate_count(), 4);
        let full = p.circuit(&[(0.5, 0.3), (0.2, 0.1)], true);
        assert_eq!(full.two_qubit_gate_count(), 8);
        // 4 Hadamards + 2 layers of 4 Rx.
        assert_eq!(full.single_qubit_gate_count(), 12);
        let bare = p.circuit(&[(0.5, 0.3)], false);
        assert_eq!(bare.single_qubit_gate_count(), 4);
    }

    #[test]
    fn brute_force_max_cut_on_known_graphs() {
        assert_eq!(square().max_cut_brute_force(), 4);
        assert_eq!(square().cost_minimum(), -4.0);
        // Odd cycle: max cut is n − 1.
        let c5 = QaoaProblem::new(Graph::cycle(5));
        assert_eq!(c5.max_cut_brute_force(), 4);
        // Complete graph K4: max cut is 4.
        let k4 = QaoaProblem::new(Graph::complete(4));
        assert_eq!(k4.max_cut_brute_force(), 4);
    }

    #[test]
    fn three_regular_max_cut_is_large() {
        let p = QaoaProblem::random_regular(10, 3, 3);
        let mc = p.max_cut_brute_force();
        // A 3-regular graph on 10 vertices has 15 edges; max cut is always
        // more than half of them.
        assert!(mc > 7 && mc <= 15);
        assert!(p.cost_minimum() < 0.0);
    }

    #[test]
    fn optimal_p1_angles_are_in_range() {
        let (g, b) = QaoaProblem::optimal_p1_angles_regular3();
        assert!(g > 0.0 && g < std::f64::consts::PI);
        assert!(b > 0.0 && b < std::f64::consts::FRAC_PI_2);
    }
}
