//! An IC-QAOA-style compiler (Alam et al., MICRO/DAC/ICCAD 2020).
//!
//! The instruction-commutation-aware QAOA compilers exploit the fact that
//! all ZZ cost terms of a QAOA layer commute, so gates may be reordered
//! during routing; they do not, however, perform SWAP/gate unitary unifying
//! and they schedule with a conventional dependency-respecting scheduler.
//! This implementation captures exactly that behaviour class as the pass
//! pipeline `[unify, qap-annealing-placement, commutation-routing,
//! asap-schedule, decompose]` (see [`crate::passes`]):
//!
//! * initial placement: the same QAP formulation solved with simulated
//!   annealing (a lighter-weight heuristic than 2QAN's Tabu search),
//! * routing: gates are routed in input order, but after every SWAP **all**
//!   remaining gates that have become nearest-neighbour are scheduled
//!   immediately (commutation awareness); SWAPs are chosen greedily to
//!   shorten the current gate's distance,
//! * no dressed SWAPs, ASAP dependency-respecting scheduling.

use crate::passes::{AnnealingPlacementPass, AsapSchedulePass, CommutationRoutingPass};
use twoqan::pipeline::{ensure_fits, CompilationContext, CompiledOutput, Compiler, PassManager};
use twoqan::{CompileError, DecomposePass, UnifyPass};
use twoqan_circuit::Circuit;
use twoqan_device::Device;

/// The IC-QAOA-style baseline compiler.
#[derive(Debug, Clone, Copy)]
pub struct IcQaoaCompiler {
    seed: u64,
}

impl Default for IcQaoaCompiler {
    fn default() -> Self {
        Self { seed: 2020 }
    }
}

impl IcQaoaCompiler {
    /// Creates the compiler with the given placement seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The pass pipeline this compiler runs.
    pub fn pipeline(&self) -> PassManager {
        PassManager::with_passes(vec![
            Box::new(UnifyPass),
            Box::new(AnnealingPlacementPass),
            Box::new(CommutationRoutingPass),
            Box::new(AsapSchedulePass),
            Box::new(DecomposePass),
        ])
    }
}

impl Compiler for IcQaoaCompiler {
    fn name(&self) -> &'static str {
        "IC-QAOA"
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        ensure_fits(circuit, device)?;
        let mut ctx = CompilationContext::for_device(circuit.clone(), device, self.seed);
        let report = self.pipeline().run(&mut ctx)?;
        Ok(ctx.into_output(Compiler::name(self), report))
    }

    fn cache_fingerprint(&self) -> u64 {
        // The annealing placement draws from a seeded RNG, so the seed is
        // part of the compiler's identity for caching purposes.
        twoqan::hash::fnv1a_64(&format!("IC-QAOA|seed={}", self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::Gate;
    use twoqan_ham::QaoaProblem;

    #[test]
    fn compiles_qaoa_instances_onto_montreal() {
        let problem = QaoaProblem::random_regular(12, 3, 3);
        let circuit = problem.circuit(&[(0.6, 0.4)], true);
        let device = Device::montreal();
        let r = IcQaoaCompiler::default()
            .compile(&circuit, &device)
            .unwrap();
        assert!(r.hardware_compatible(&device));
        assert_eq!(r.metrics.dressed_swap_count, 0);
        assert_eq!(
            r.metrics.application_two_qubit_count - r.swap_count(),
            problem.num_edges()
        );
    }

    #[test]
    fn commutation_awareness_executes_nn_gates_without_swaps() {
        // A problem graph that exactly matches a 2×3 grid needs no SWAPs.
        let mut circuit = Circuit::new(6);
        for &(a, b) in &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (2, 5)] {
            circuit.push(Gate::canonical(a, b, 0.0, 0.0, 0.5));
        }
        let device = Device::grid(2, 3, twoqan_device::TwoQubitBasis::Cnot);
        let r = IcQaoaCompiler::default()
            .compile(&circuit, &device)
            .unwrap();
        assert!(r.hardware_compatible(&device));
        assert_eq!(
            r.swap_count(),
            0,
            "grid-matching problem should need no SWAPs"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let problem = QaoaProblem::random_regular(10, 3, 7);
        let circuit = problem.circuit(&[(0.5, 0.3)], false);
        let device = Device::aspen();
        let a = IcQaoaCompiler::new(5).compile(&circuit, &device).unwrap();
        let b = IcQaoaCompiler::new(5).compile(&circuit, &device).unwrap();
        assert_eq!(a.swap_count(), b.swap_count());
        assert_eq!(
            a.metrics.hardware_two_qubit_count,
            b.metrics.hardware_two_qubit_count
        );
    }

    #[test]
    fn trait_compile_reports_the_pipeline_and_errors_on_oversized_input() {
        let problem = QaoaProblem::random_regular(8, 3, 1);
        let circuit = problem.circuit(&[(0.5, 0.3)], false);
        let out =
            Compiler::compile(&IcQaoaCompiler::default(), &circuit, &Device::aspen()).unwrap();
        assert_eq!(
            out.report.pass_names(),
            vec![
                "unify",
                "qap-annealing-placement",
                "commutation-routing",
                "asap-schedule",
                "decompose"
            ]
        );
        let big = QaoaProblem::random_regular(20, 3, 1).circuit(&[(0.5, 0.3)], false);
        let err = Compiler::compile(&IcQaoaCompiler::default(), &big, &Device::aspen());
        assert!(matches!(err, Err(CompileError::TooManyQubits { .. })));
    }
}
