//! The 2QAN pipeline expressed as [`Pass`]es.
//!
//! [`TwoQanCompiler`](crate::TwoQanCompiler) is `[UnifyPass, QapMappingPass,
//! PermutationRoutingPass, AlapSchedulePass, DecomposePass]` — the paper's
//! Fig. 2 stages, each a standalone pass over the shared
//! [`CompilationContext`].  The baseline compilers contribute their own
//! passes from `twoqan_baselines` and reuse [`UnifyPass`] and
//! [`DecomposePass`] from here.

use crate::decompose::hardware_metrics;
use crate::error::CompileError;
use crate::mapping::{initial_mapping, MappingConfig};
use crate::pipeline::{CompilationContext, Pass};
use crate::routing::{route, RoutingConfig};
use crate::scheduling::{schedule, SchedulingStrategy};

/// The circuit-unitary-unifying pre-pass (§III-C): merges all same-pair
/// two-local exponentials into single canonical gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnifyPass;

impl Pass for UnifyPass {
    fn name(&self) -> &'static str {
        "unify"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        ctx.circuit = ctx.circuit.unify_same_pair_gates();
        Ok(())
    }
}

/// The QAP initial-mapping pass (§III-A): places logical qubits on the
/// device by solving a Quadratic Assignment Problem with the configured
/// heuristic (Tabu search by default).
#[derive(Debug, Clone, Default)]
pub struct QapMappingPass {
    config: MappingConfig,
}

impl QapMappingPass {
    /// Creates the pass with the given mapping configuration.
    pub fn new(config: MappingConfig) -> Self {
        Self { config }
    }
}

impl Pass for QapMappingPass {
    fn name(&self) -> &'static str {
        "qap-mapping"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let map = initial_mapping(
            &ctx.circuit,
            device,
            &self.config,
            &ctx.budget,
            &mut ctx.rng,
        )?;
        ctx.set_placement(map);
        Ok(())
    }
}

/// The permutation-aware routing pass (§III-B, Algorithm 1) including SWAP
/// unitary unifying (§III-C): produces the [`RoutedCircuit`] structure and
/// advances the context layout to the final map.
///
/// [`RoutedCircuit`]: crate::routing::RoutedCircuit
#[derive(Debug, Clone, Default)]
pub struct PermutationRoutingPass {
    config: RoutingConfig,
}

impl PermutationRoutingPass {
    /// Creates the pass with the given routing configuration.
    pub fn new(config: RoutingConfig) -> Self {
        Self { config }
    }
}

impl Pass for PermutationRoutingPass {
    fn name(&self) -> &'static str {
        "permutation-routing"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let map = ctx.layout_for(self.name())?.clone();
        let routed = route(&ctx.circuit, device, &map, &self.config, &mut ctx.rng)?;
        ctx.layout = Some(routed.final_map().clone());
        ctx.routed = Some(routed);
        Ok(())
    }
}

/// The permutation-aware hybrid scheduling pass (§III-D, Algorithm 2):
/// graph colouring for the initial map plus dependency-respecting ALAP for
/// the SWAP stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlapSchedulePass {
    strategy: SchedulingStrategy,
}

impl AlapSchedulePass {
    /// Creates the pass with the given scheduling strategy.
    pub fn new(strategy: SchedulingStrategy) -> Self {
        Self { strategy }
    }
}

impl Pass for AlapSchedulePass {
    fn name(&self) -> &'static str {
        "alap-schedule"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let routed = ctx
            .routed
            .as_ref()
            .ok_or(CompileError::MissingPrerequisite {
                pass: self.name(),
                needs: "a routed circuit (run a routing pass first)",
            })?;
        ctx.schedule = Some(schedule(routed, device, self.strategy));
        Ok(())
    }
}

/// The gate-decomposition pass: maps application-level unitaries onto the
/// context's native basis and records the resulting [`HardwareMetrics`]
/// (decomposition is metric-level unless an exact circuit is requested, as
/// in the pre-pipeline compiler).
///
/// [`HardwareMetrics`]: twoqan_circuit::HardwareMetrics
#[derive(Debug, Clone, Copy, Default)]
pub struct DecomposePass;

impl Pass for DecomposePass {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let schedule = ctx
            .schedule
            .as_ref()
            .ok_or(CompileError::MissingPrerequisite {
                pass: self.name(),
                needs: "a scheduled circuit (run a scheduling pass first)",
            })?;
        // With a device target at hand the duration comes from the
        // calibrated per-edge gate times; deviceless pipelines (NoMap) have
        // no target and report no duration.  The timeline is built once and
        // left in the context for downstream consumers (the error-aware
        // trial selection scores ESP from it without rebuilding).
        ctx.metrics = Some(match ctx.device {
            Some(device) => {
                let timeline =
                    crate::decompose::timeline_with_target(schedule, ctx.basis, device.target());
                let mut metrics = hardware_metrics(schedule, ctx.basis);
                metrics.duration_ns = timeline.total_ns();
                ctx.timeline = Some(timeline);
                metrics
            }
            None => hardware_metrics(schedule, ctx.basis),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PassManager;
    use twoqan_circuit::{Circuit, Gate};
    use twoqan_device::Device;

    fn two_gate_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.push(Gate::canonical(0, 1, 0.1, 0.0, 0.3));
        c.push(Gate::canonical(0, 1, 0.2, 0.0, 0.1));
        c.push(Gate::canonical(2, 3, 0.0, 0.0, 0.4));
        c
    }

    #[test]
    fn unify_pass_merges_same_pair_gates() {
        let mut ctx =
            CompilationContext::deviceless(two_gate_circuit(), twoqan_device::TwoQubitBasis::Cnot);
        UnifyPass.run(&mut ctx).unwrap();
        assert_eq!(ctx.circuit.two_qubit_gate_count(), 2);
    }

    #[test]
    fn the_full_2qan_pipeline_runs_in_order() {
        let device = Device::montreal();
        let pm = PassManager::with_passes(vec![
            Box::new(UnifyPass),
            Box::new(QapMappingPass::new(MappingConfig::default())),
            Box::new(PermutationRoutingPass::new(RoutingConfig::default())),
            Box::new(AlapSchedulePass::new(SchedulingStrategy::Hybrid)),
            Box::new(DecomposePass),
        ]);
        assert_eq!(
            pm.pass_names(),
            vec![
                "unify",
                "qap-mapping",
                "permutation-routing",
                "alap-schedule",
                "decompose"
            ]
        );
        let mut ctx = CompilationContext::for_device(two_gate_circuit(), &device, 1);
        let report = pm.run(&mut ctx).unwrap();
        assert_eq!(report.passes.len(), 5);
        assert!(ctx.initial_layout.is_some());
        assert!(ctx.routed.is_some());
        assert!(ctx.schedule.is_some());
        let metrics = ctx.metrics.unwrap();
        assert!(metrics.hardware_two_qubit_count > 0);
    }

    #[test]
    fn out_of_order_pipelines_fail_with_named_prerequisites() {
        let device = Device::aspen();
        // Routing before mapping.
        let pm = PassManager::with_passes(vec![Box::new(PermutationRoutingPass::default())]);
        let mut ctx = CompilationContext::for_device(two_gate_circuit(), &device, 1);
        let err = pm.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("permutation-routing"));
        // Scheduling before routing.
        let pm = PassManager::with_passes(vec![Box::new(AlapSchedulePass::default())]);
        let mut ctx = CompilationContext::for_device(two_gate_circuit(), &device, 1);
        let err = pm.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("alap-schedule"));
        // Decomposition before scheduling.
        let pm = PassManager::with_passes(vec![Box::new(DecomposePass)]);
        let mut ctx = CompilationContext::for_device(two_gate_circuit(), &device, 1);
        let err = pm.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("decompose"));
    }
}
