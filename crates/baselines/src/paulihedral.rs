//! A Paulihedral-style block-wise Hamiltonian-simulation compiler
//! (Li et al., arXiv:2109.03371), used for the Table III comparison.
//!
//! Paulihedral schedules Pauli-exponential *blocks* (sets of mutually
//! commuting terms) and exploits term-ordering freedom inside each block,
//! but — as the paper points out — it "lacks optimizations for qubit routing
//! and unitary unifying".  This model therefore:
//!
//! * merges same-pair terms (its per-block term fusion reaches the same
//!   3-CNOT-per-pair strength on lattice Heisenberg kernels),
//! * orders the resulting pair unitaries lexicographically by qubit pair
//!   (the block-internal ordering), and
//! * routes and schedules them with the order-respecting generic machinery —
//!   no permutation-aware routing, no dressed SWAPs, no hybrid scheduler.
//!
//! On all-to-all topologies this ties 2QAN on gate count (the under-
//! reproduction of the 2-D/3-D gap is recorded in BENCHMARKS.md § Table
//! III); on constrained devices it pays the routing penalty visible in
//! Table III's QAOA rows.

use crate::generic::{GenericCompiler, GenericConfig};
use crate::passes::ColorSchedulePass;
use twoqan::pipeline::{CompilationContext, CompiledOutput, Compiler, PassManager};
use twoqan::{CompileError, DecomposePass};
use twoqan_circuit::{Circuit, Gate};
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_ham::Hamiltonian;

/// The Paulihedral-style baseline compiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaulihedralCompiler;

impl PaulihedralCompiler {
    /// Creates the compiler.
    pub fn new() -> Self {
        Self
    }

    /// The generic order-respecting configuration Paulihedral routes with.
    fn generic(&self) -> GenericCompiler {
        GenericCompiler::new(GenericConfig {
            line_placement: true,
            lookahead: 3,
            name: "Paulihedral-like",
        })
    }

    /// Builds the block-ordered single-Trotter-step circuit of a Hamiltonian:
    /// one canonical gate per interacting pair, ordered lexicographically by
    /// pair, followed by the single-qubit terms.
    pub fn block_ordered_circuit(&self, hamiltonian: &Hamiltonian, dt: f64) -> Circuit {
        let mut terms: Vec<_> = hamiltonian.two_qubit_terms().to_vec();
        terms.sort_by_key(|t| t.pair());
        let mut circuit = Circuit::new(hamiltonian.num_qubits());
        for t in terms {
            circuit.push(Gate::canonical(t.u, t.v, t.xx * dt, t.yy * dt, t.zz * dt));
        }
        for s in hamiltonian.single_qubit_terms() {
            let angle = -2.0 * s.coefficient * dt;
            let kind = match s.pauli {
                twoqan_math::pauli::Pauli::X => twoqan_circuit::GateKind::Rx(angle),
                twoqan_math::pauli::Pauli::Y => twoqan_circuit::GateKind::Ry(angle),
                _ => twoqan_circuit::GateKind::Rz(angle),
            };
            circuit.push(Gate::single(kind, s.qubit));
        }
        circuit
    }

    /// Compiles assuming all-to-all connectivity (the Heisenberg rows of
    /// Table III): no SWAPs are needed; the commuting-block parallelism of
    /// Paulihedral is modelled with the same conflict-graph colouring the
    /// NoMap baseline uses.
    ///
    /// Because this model is given the same same-pair term-fusion strength
    /// as 2QAN, it ties 2QAN on the all-to-all Heisenberg rows of Table III;
    /// the 1.5–1.7× gate-count gap the paper reports for the 2-D/3-D
    /// lattices is therefore under-reproduced (recorded in BENCHMARKS.md
    /// § Table III).  The output keeps the identity placement (qubit `i`
    /// stays qubit `i`) and reports metrics for `basis`.
    pub fn compile_all_to_all(
        &self,
        hamiltonian: &Hamiltonian,
        dt: f64,
        basis: TwoQubitBasis,
    ) -> CompiledOutput {
        let mut ctx =
            CompilationContext::deviceless(self.block_ordered_circuit(hamiltonian, dt), basis);
        let report =
            PassManager::with_passes(vec![Box::new(ColorSchedulePass), Box::new(DecomposePass)])
                .run(&mut ctx)
                .expect("the deviceless colouring pipeline cannot fail");
        ctx.into_output(Compiler::name(self), report)
    }
}

impl Compiler for PaulihedralCompiler {
    fn name(&self) -> &'static str {
        "Paulihedral-like"
    }

    fn order_respecting(&self) -> bool {
        true
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        Compiler::compile(&self.generic(), circuit, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_ham::{heisenberg_lattice, LatticeDimensions, QaoaProblem};

    #[test]
    fn heisenberg_1d_all_to_all_matches_three_cnots_per_edge() {
        let h = heisenberg_lattice(LatticeDimensions::OneD(30), 1);
        let r = PaulihedralCompiler::new().compile_all_to_all(&h, 1.0, TwoQubitBasis::Cnot);
        // 29 edges × 3 CNOTs = 87, exactly the Table III value.
        assert_eq!(r.metrics.hardware_two_qubit_count, 87);
        assert_eq!(r.swap_count(), 0);
    }

    #[test]
    fn lattice_heisenberg_depth_and_count_grow_with_dimension() {
        let c = PaulihedralCompiler::new();
        let metrics = |dims| {
            c.compile_all_to_all(&heisenberg_lattice(dims, 1), 1.0, TwoQubitBasis::Cnot)
                .metrics
        };
        let m1 = metrics(LatticeDimensions::OneD(30));
        let m2 = metrics(LatticeDimensions::TwoD(5, 6));
        let m3 = metrics(LatticeDimensions::ThreeD(2, 3, 5));
        // Gate counts: 3 CNOTs per lattice edge (87, 147, 177 — Table III).
        assert_eq!(m1.hardware_two_qubit_count, 87);
        assert_eq!(m2.hardware_two_qubit_count, 147);
        assert_eq!(m3.hardware_two_qubit_count, 177);
        // Depth grows with the lattice coordination number.
        assert!(m2.hardware_two_qubit_depth >= m1.hardware_two_qubit_depth);
        assert!(m3.hardware_two_qubit_depth >= m2.hardware_two_qubit_depth);
    }

    #[test]
    fn qaoa_on_montreal_pays_routing_overhead() {
        let problem = QaoaProblem::random_regular(20, 4, 3);
        let circuit = problem.circuit(&[(0.6, 0.4)], false);
        let device = Device::montreal();
        let r = PaulihedralCompiler::new()
            .compile(&circuit, &device)
            .unwrap();
        assert!(r.hardware_compatible(&device));
        assert!(r.swap_count() > 0);
        assert_eq!(r.compiler, "Paulihedral-like");
    }
}
