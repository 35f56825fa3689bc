//! The "NoMap" baseline: compilation without connectivity constraints.
//!
//! The paper defines compilation *overhead* relative to "the circuits
//! without considering connectivity constraints" — the same application
//! circuit scheduled with the graph-colouring scheduler on an all-to-all
//! topology (§III-D, "Scheduling without dependency").

use crate::passes::ColorSchedulePass;
use twoqan::pipeline::{ensure_fits, CompilationContext, CompiledOutput, Compiler, PassManager};
use twoqan::{CompileError, DecomposePass, UnifyPass};
use twoqan_circuit::{Circuit, Gate, ScheduledCircuit};
use twoqan_device::Device;
use twoqan_graphs::coloring::{greedy_coloring, ColoringStrategy};
use twoqan_graphs::Graph;

/// The connectivity-unconstrained baseline compiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMapCompiler;

impl NoMapCompiler {
    /// Creates the baseline compiler.
    pub fn new() -> Self {
        Self
    }

    /// The (deviceless) pass pipeline this compiler runs.
    pub fn pipeline(&self) -> PassManager {
        PassManager::with_passes(vec![
            Box::new(UnifyPass),
            Box::new(ColorSchedulePass),
            Box::new(DecomposePass),
        ])
    }
}

impl Compiler for NoMapCompiler {
    fn name(&self) -> &'static str {
        "NoMap"
    }

    fn constrains_connectivity(&self) -> bool {
        false
    }

    /// Schedules the (circuit-unified) input with graph colouring, assuming
    /// all-to-all connectivity, and reports metrics for the device's native
    /// basis.
    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        // The trait contract still requires the circuit to fit the device —
        // a placement onto qubits the device does not have would poison any
        // downstream per-physical-qubit indexing — but beyond the size
        // check the device only contributes its native basis: the topology
        // is ignored, which is the point of this baseline.
        ensure_fits(circuit, device)?;
        let mut ctx = CompilationContext::deviceless(circuit.clone(), device.default_basis());
        let report = self.pipeline().run(&mut ctx)?;
        // No topology, no routing: the colour-schedule pass installed the
        // identity placement (qubit i stays qubit i).
        Ok(ctx.into_output(Compiler::name(self), report))
    }
}

/// Graph-colouring schedule of a circuit: gates sharing a qubit get
/// different colours; colour classes become cycles.
pub fn color_schedule(circuit: &Circuit) -> ScheduledCircuit {
    let gates: Vec<Gate> = circuit.iter().copied().collect();
    if gates.is_empty() {
        return ScheduledCircuit::new(circuit.num_qubits());
    }
    let mut conflicts = Graph::new(gates.len());
    for i in 0..gates.len() {
        for j in (i + 1)..gates.len() {
            if gates[i].overlaps(&gates[j]) {
                conflicts.add_edge(i, j);
            }
        }
    }
    let colouring = greedy_coloring(&conflicts, ColoringStrategy::LargestFirst);
    let mut ordered = Vec::with_capacity(gates.len());
    for class in colouring.classes() {
        for idx in class {
            ordered.push(gates[idx]);
        }
    }
    ScheduledCircuit::asap_from_gates(circuit.num_qubits(), &ordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step, QaoaProblem};

    /// Compiles onto an all-to-all device with the given native basis.
    fn compile(circuit: &Circuit, basis: TwoQubitBasis) -> CompiledOutput {
        let device = Device::all_to_all(circuit.num_qubits(), basis);
        NoMapCompiler::new().compile(circuit, &device).unwrap()
    }

    #[test]
    fn nomap_inserts_no_swaps_and_counts_baseline_gates() {
        let circuit = trotter_step(&nnn_ising(10, 1), 1.0);
        let r = compile(&circuit, TwoQubitBasis::Cnot);
        assert_eq!(r.swap_count(), 0);
        // 2n−3 = 17 ZZ terms, 2 CNOTs each.
        assert_eq!(r.metrics.hardware_two_qubit_count, 34);
        assert_eq!(r.metrics.application_two_qubit_count, 17);
    }

    #[test]
    fn heisenberg_baseline_costs_three_gates_per_pair_in_all_bases() {
        let circuit = trotter_step(&nnn_heisenberg(8, 2), 1.0);
        for basis in [
            TwoQubitBasis::Cnot,
            TwoQubitBasis::Syc,
            TwoQubitBasis::ISwap,
            TwoQubitBasis::Cz,
        ] {
            let r = compile(&circuit, basis);
            assert_eq!(r.metrics.hardware_two_qubit_count, 3 * 13, "basis {basis}");
        }
    }

    #[test]
    fn coloring_packs_disjoint_gates_tightly() {
        // A QAOA layer on a 3-regular graph: colouring needs at most
        // Δ + 1 = 4 two-qubit cycles (usually 3).
        let problem = QaoaProblem::random_regular(12, 3, 4);
        let circuit = problem.circuit(&[(0.6, 0.4)], false);
        let r = compile(&circuit, TwoQubitBasis::Cnot);
        // Greedy colouring of the line graph of a 3-regular graph uses at
        // most 2Δ − 1 = 5 colours; interleaved single-qubit gates can add one
        // more two-qubit-bearing moment.
        assert!(r.metrics.application_two_qubit_depth <= 6);
        assert!(r.metrics.application_two_qubit_depth >= 3);
    }

    #[test]
    fn device_convenience_uses_native_basis() {
        let circuit = trotter_step(&nnn_ising(6, 3), 1.0);
        let r = NoMapCompiler::new()
            .compile(&circuit, &Device::sycamore())
            .unwrap();
        assert_eq!(r.basis, TwoQubitBasis::Syc);
    }

    #[test]
    fn empty_circuit_produces_empty_schedule() {
        let r = compile(&Circuit::new(4), TwoQubitBasis::Cnot);
        assert_eq!(r.metrics.hardware_two_qubit_count, 0);
        assert_eq!(r.hardware_circuit.depth(), 0);
    }

    #[test]
    fn trait_compile_is_connectivity_unconstrained() {
        let compiler = NoMapCompiler::new();
        assert!(!Compiler::constrains_connectivity(&compiler));
        let circuit = trotter_step(&nnn_ising(10, 1), 1.0);
        let out = Compiler::compile(&compiler, &circuit, &Device::montreal()).unwrap();
        assert_eq!(out.compiler, "NoMap");
        assert_eq!(out.initial_placement, (0..10).collect::<Vec<_>>());
        assert_eq!(
            out.final_placement.as_deref(),
            Some(out.initial_placement.as_slice())
        );
        assert_eq!(
            out.report.pass_names(),
            vec!["unify", "color-schedule", "decompose"]
        );
        // Through the device-based trait entry point the circuit must still
        // fit the device, like every other registry compiler.
        let big = trotter_step(&nnn_ising(20, 1), 1.0);
        let err = Compiler::compile(&compiler, &big, &Device::aspen()).unwrap_err();
        assert!(matches!(
            err,
            twoqan::CompileError::TooManyQubits {
                circuit: 20,
                device: 16
            }
        ));
    }
}
