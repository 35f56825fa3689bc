//! The end-to-end 2QAN compilation pipeline.

use crate::budget::CompileBudget;
use crate::error::CompileError;
use crate::fault::FaultInjector;
use crate::mapping::{CostModel, InitialMappingStrategy, MappingConfig, QubitMap};
use crate::passes::{AlapSchedulePass, DecomposePass, PermutationRoutingPass, QapMappingPass};
use crate::pipeline::{
    CompilationContext, CompiledOutput, Compiler, DegradationRung, PassManager, PassRecord,
    PipelineReport,
};
use crate::routing::{RoutedCircuit, RoutingConfig};
use crate::scheduling::SchedulingStrategy;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use twoqan_circuit::{Circuit, Gate, GateKind, HardwareMetrics, Moment, ScheduledCircuit};
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_graphs::{AnnealingConfig, TabuConfig};

/// Configuration of the 2QAN compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoQanConfig {
    /// Initial-placement strategy (§III-A).
    pub mapping_strategy: InitialMappingStrategy,
    /// Tabu-search parameters for the mapping pass, so callers can trade
    /// placement quality for compile time instead of getting hard-coded
    /// defaults.
    pub tabu: TabuConfig,
    /// Simulated-annealing parameters for the mapping pass (used with
    /// [`InitialMappingStrategy::SimulatedAnnealing`]).
    pub annealing: AnnealingConfig,
    /// How many independent mapping + routing trials to run; the result with
    /// the fewest SWAPs (then fewest hardware gates) is kept.  The paper runs
    /// the randomised mapping pass 5 times and keeps the best result.
    pub mapping_trials: usize,
    /// Routing configuration (SWAP dressing on/off).
    pub routing: RoutingConfig,
    /// Scheduling strategy (hybrid vs. order-respecting, for ablations).
    pub scheduling: SchedulingStrategy,
    /// Base random seed (trial `k` uses `seed + k`).
    pub seed: u64,
    /// Apply the circuit-unitary-unifying pre-pass before compiling
    /// (§III-C); disable only for ablation studies.
    pub unify_input: bool,
    /// The distance cost model — the single switch that drives both the
    /// QAP mapping distance matrix and the router's SWAP selection
    /// (it overrides `routing.cost`).  [`CostModel::CalibrationAware`]
    /// steers placement and routing onto the device target's low-error
    /// qubits/edges; on a uniform target it reproduces the hop-count
    /// compilation bit for bit.
    pub cost_model: CostModel,
    /// Wall-clock deadline / cancellation budget for the compilation.  The
    /// default is unlimited (bit-identical to a compiler without budget
    /// support); under a limited budget the compiler degrades along the
    /// [`DegradationRung`] ladder instead of erroring.
    pub budget: CompileBudget,
    /// Optional warm-start placement (`logical → physical`) from a previous
    /// compile of the same circuit, forwarded to the mapping pass: restart
    /// slot 0 of every mapping trial's QAP solver starts from this placement
    /// (never ending up worse than the seed itself) while the remaining
    /// restarts stay random.  Invalid seeds (device changed, wrong circuit)
    /// silently fall back to the cold multi-start.  This knob changes the
    /// artifact and is therefore part of the cache fingerprint.
    pub warm_start: Option<Vec<usize>>,
}

impl Default for TwoQanConfig {
    fn default() -> Self {
        Self {
            mapping_strategy: InitialMappingStrategy::TabuSearch,
            tabu: TabuConfig::default(),
            annealing: AnnealingConfig::default(),
            mapping_trials: 3,
            routing: RoutingConfig::default(),
            scheduling: SchedulingStrategy::Hybrid,
            seed: 2021,
            unify_input: true,
            cost_model: CostModel::HopCount,
            budget: CompileBudget::unlimited(),
            warm_start: None,
        }
    }
}

impl TwoQanConfig {
    /// The stock configuration with the calibration-aware cost model
    /// switched on (mapping and routing both optimise −log-fidelity
    /// weighted distances against the device target).
    pub fn calibration_aware() -> Self {
        Self {
            cost_model: CostModel::CalibrationAware,
            ..Self::default()
        }
    }

    /// The mapping-pass configuration implied by this compiler config.
    pub fn mapping_config(&self) -> MappingConfig {
        MappingConfig {
            strategy: self.mapping_strategy,
            tabu: self.tabu.clone(),
            annealing: self.annealing.clone(),
            cost: self.cost_model,
            warm_start: self.warm_start.clone(),
        }
    }

    /// The routing-pass configuration implied by this compiler config
    /// (`routing` with the compiler-level cost model applied).
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            cost: self.cost_model,
            ..self.routing
        }
    }
}

/// The output of a 2QAN compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationResult {
    /// The initial qubit placement `φ_0`.
    pub initial_map: QubitMap,
    /// The routing structure (maps, per-map gates, SWAP actions).
    pub routed: RoutedCircuit,
    /// The scheduled hardware circuit over physical qubits, still carrying
    /// application-level unitaries (decomposition is metric-level unless an
    /// exact circuit is requested).
    pub hardware_circuit: ScheduledCircuit,
    /// Gate counts and depths for the device's native basis.
    pub metrics: HardwareMetrics,
    /// The native basis the metrics were computed for.
    pub basis: TwoQubitBasis,
}

impl CompilationResult {
    /// Number of inserted SWAPs (plain + dressed).
    pub fn swap_count(&self) -> usize {
        self.metrics.swap_count
    }

    /// Number of SWAPs merged with circuit gates ("2QAN dressed").
    pub fn dressed_swap_count(&self) -> usize {
        self.metrics.dressed_swap_count
    }

    /// Returns `true` if every two-qubit gate of the compiled circuit acts on
    /// a pair of qubits that are adjacent on `device`.
    pub fn hardware_compatible(&self, device: &Device) -> bool {
        self.hardware_circuit
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1()))
    }

    /// Builds the schedule of one additional layer/Trotter step from this
    /// compiled first step, as the paper does for multi-layer QAOA: even
    /// layers reuse the compiled circuit with the gate order reversed, odd
    /// layers reuse it as-is.  The two-qubit interaction coefficients are
    /// multiplied by `gamma_scale` and single-qubit rotation angles by
    /// `beta_scale`, so per-layer QAOA parameters can be substituted without
    /// recompiling.
    pub fn layer_schedule(
        &self,
        gamma_scale: f64,
        beta_scale: f64,
        reversed: bool,
    ) -> ScheduledCircuit {
        let moments: Vec<Moment> = self.hardware_circuit.moments().to_vec();
        let iter: Box<dyn Iterator<Item = &Moment>> = if reversed {
            Box::new(moments.iter().rev())
        } else {
            Box::new(moments.iter())
        };
        let mut out = ScheduledCircuit::new(self.hardware_circuit.num_qubits());
        for moment in iter {
            let mut m = Moment::new();
            for gate in moment.gates() {
                let scaled = scale_gate(gate, gamma_scale, beta_scale);
                let pushed = m.try_push(scaled);
                debug_assert!(pushed, "scaling preserves qubit disjointness");
            }
            out.push_moment(m);
        }
        out
    }

    /// Collects the artifact of a finished 2QAN pipeline run.
    fn from_context(ctx: CompilationContext<'_>) -> Self {
        Self {
            initial_map: ctx
                .initial_layout
                .expect("the mapping pass sets the initial layout"),
            routed: ctx
                .routed
                .expect("the routing pass sets the routed circuit"),
            hardware_circuit: ctx.schedule.expect("the scheduling pass sets the schedule"),
            metrics: ctx.metrics.expect("the decompose pass sets the metrics"),
            basis: ctx.basis,
        }
    }
}

/// Scales the interaction coefficients / rotation angles of a gate (used for
/// per-layer QAOA parameter substitution).
fn scale_gate(gate: &Gate, gamma_scale: f64, beta_scale: f64) -> Gate {
    match gate.kind {
        GateKind::Canonical { xx, yy, zz } => Gate::two(
            GateKind::Canonical {
                xx: xx * gamma_scale,
                yy: yy * gamma_scale,
                zz: zz * gamma_scale,
            },
            gate.qubit0(),
            gate.qubit1(),
        ),
        GateKind::DressedSwap { xx, yy, zz } => Gate::two(
            GateKind::DressedSwap {
                xx: xx * gamma_scale,
                yy: yy * gamma_scale,
                zz: zz * gamma_scale,
            },
            gate.qubit0(),
            gate.qubit1(),
        ),
        GateKind::Rx(t) => Gate::single(GateKind::Rx(t * beta_scale), gate.qubit0()),
        GateKind::Ry(t) => Gate::single(GateKind::Ry(t * beta_scale), gate.qubit0()),
        GateKind::Rz(t) => Gate::single(GateKind::Rz(t * beta_scale), gate.qubit0()),
        _ => *gate,
    }
}

/// The 2QAN compiler.
#[derive(Debug, Clone, Default)]
pub struct TwoQanCompiler {
    config: TwoQanConfig,
    faults: Option<Arc<FaultInjector>>,
}

impl TwoQanCompiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: TwoQanConfig) -> Self {
        Self {
            config,
            faults: None,
        }
    }

    /// The compiler configuration.
    pub fn config(&self) -> &TwoQanConfig {
        &self.config
    }

    /// Attaches a chaos-testing fault injector, consulted before every pass
    /// of every pipeline run (see [`crate::fault`]).  Production compilers
    /// never attach one; the hook costs nothing when absent.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The pass pipeline of one portfolio run, and of the trivial fallback,
    /// after the hoisted unify pre-pass: `[qap-mapping,
    /// permutation-routing, alap-schedule, decompose]`, with `strategy` and
    /// `cost` in place of the configured placement strategy and cost model.
    fn pipeline(&self, strategy: InitialMappingStrategy, cost: CostModel) -> PassManager {
        let mut pipeline = PassManager::new();
        pipeline.push(QapMappingPass::new(MappingConfig {
            strategy,
            cost,
            ..self.config.mapping_config()
        }));
        pipeline.push(PermutationRoutingPass::new(RoutingConfig {
            cost,
            ..self.config.routing_config()
        }));
        pipeline.push(AlapSchedulePass::new(self.config.scheduling));
        pipeline.push(DecomposePass);
        pipeline
    }

    /// Compiles one Trotter step / QAOA layer onto a device.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit on
    /// the device, and propagates routing failures (which do not occur on
    /// connected devices).
    pub fn compile(
        &self,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<CompilationResult, CompileError> {
        self.compile_with_report(circuit, device)
            .map(|(result, _)| result)
    }

    /// Compiles like [`TwoQanCompiler::compile`] and also returns the
    /// per-pass [`PipelineReport`].
    ///
    /// The planned portfolio is one pipeline run per (mapping trial, cost
    /// model) candidate, each trial with its own seed; candidate `k` is
    /// trial `k / models` under cost model `k % models`.  The candidates run
    /// concurrently through [`twoqan_pool::run_indexed`] — on the installed
    /// [`twoqan_pool::CompilePool`], or on a transient one with a worker per
    /// core that the solvers' nested restarts share — and their results are
    /// folded in index order: the result with the fewest SWAPs
    /// (then fewest hardware gates, then lowest depth) is kept, or with the
    /// highest ESP for the calibration-aware portfolio.  So an unbudgeted
    /// compile is bit-identical for every worker count.  The report sums
    /// each pass's busy time over the candidates, so under concurrency it
    /// can exceed the compile's wall time, and it snapshots gate/depth from
    /// the winning candidate.  The deterministic unifying pre-pass is
    /// hoisted out of the portfolio (it would produce the same circuit for
    /// every candidate), so its report entry is a single measurement.
    ///
    /// Under a limited [`CompileBudget`] the planned portfolio degrades
    /// along an explicit ladder instead of erroring.  Candidate 0, a
    /// hop-count pipeline, always runs; any later candidate is skipped when
    /// the budget has expired by the time it starts (and, inside the
    /// mapping pass, the solvers poll it per sweep).  If not even one run
    /// completed (deadline already expired on entry, or every run failed),
    /// a trivial-placement + routing fallback that always terminates
    /// produces the result.  The report records the rung that ran
    /// ([`DegradationRung::Full`] only when every planned candidate
    /// completed), the configured deadline and the budget actually
    /// consumed.
    ///
    /// An attached fault injector is [`FaultInjector::fork`]ed once per
    /// compile: candidate `k` draws from stream `k` and the fallback from
    /// the stream after the last candidate, so a chaos compile injects the
    /// same faults for any worker count.  A candidate that panics re-raises
    /// its panic once every candidate has finished, the lowest index first.
    pub fn compile_with_report(
        &self,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<(CompilationResult, PipelineReport), CompileError> {
        let armed = self.config.budget.arm();
        let trials = self.config.mapping_trials.max(1);
        // Unify once, up front: the pre-pass draws no randomness, so every
        // candidate would redo identical work.
        let (prepared, unify_record) = if self.config.unify_input {
            let gates_before = circuit.two_qubit_gate_count();
            let t0 = std::time::Instant::now();
            let unified = circuit.unify_same_pair_gates();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let record = PassRecord {
                name: "unify",
                wall_ms,
                two_qubit_gates_after: unified.two_qubit_gate_count(),
                depth_after: 0,
                gate_delta: unified.two_qubit_gate_count() as isize - gates_before as isize,
                depth_delta: 0,
            };
            (unified, Some(record))
        } else {
            (circuit.clone(), None)
        };
        // Under the calibration-aware cost model on a heterogeneous target
        // the compiler runs a *portfolio*: every trial seed is compiled
        // with both the hop-count and the weighted cost model, and the
        // candidate with the highest estimated success probability wins —
        // weighted placements are only kept when the per-channel noise
        // figures actually predict a fidelity gain over the hop-count
        // compilation of the same seed.  (On a uniform target the weighted
        // pipeline is bit-identical to the hop-count one, so the portfolio
        // would only duplicate work: the legacy single-pipeline path runs
        // and degenerates exactly.)
        let error_aware =
            self.config.cost_model == CostModel::CalibrationAware && !device.target().is_uniform();
        let models: &[CostModel] = if error_aware {
            &[CostModel::HopCount, CostModel::CalibrationAware]
        } else {
            std::slice::from_ref(&self.config.cost_model)
        };
        let planned = trials * models.len();
        // One fault stream per candidate, plus one for the fallback.
        let faults = self
            .faults
            .as_ref()
            .map(|injector| injector.fork(planned + 1));
        let stream = |k: usize| faults.as_ref().map(|streams| Arc::clone(&streams[k]));
        // A budget that expired before any work was done (zero deadline,
        // pre-cancelled token) sends the compilation straight to the
        // trivial fallback — even the anytime solvers' setup would waste
        // the caller's remaining time.
        let skip_portfolio = armed.is_limited() && armed.expired();
        let runs = if skip_portfolio {
            Vec::new()
        } else {
            twoqan_pool::run_indexed(planned, |k| {
                if k > 0 && armed.expired() {
                    return None;
                }
                // `Pass` is not `Sync`, so each candidate builds its own
                // pipeline.
                let pipeline =
                    self.pipeline(self.config.mapping_strategy, models[k % models.len()]);
                let trial = (k / models.len()) as u64;
                let mut ctx = CompilationContext::for_device(
                    prepared.clone(),
                    device,
                    self.config.seed.wrapping_add(trial),
                );
                ctx.budget = armed.clone();
                ctx.faults = stream(k);
                // Caught here and re-raised after the fold, so every
                // candidate runs whatever the worker count.
                Some(catch_unwind(AssertUnwindSafe(|| {
                    let trial_report = pipeline.run(&mut ctx)?;
                    let timeline = ctx.timeline.take();
                    let candidate = CompilationResult::from_context(ctx);
                    let esp = if error_aware {
                        let timeline =
                            timeline.expect("the decompose pass sets the timeline for device runs");
                        crate::decompose::estimated_success_probability_with_timeline(
                            &candidate.hardware_circuit,
                            candidate.basis,
                            device.target(),
                            &timeline,
                        )
                    } else {
                        0.0
                    };
                    Ok((candidate, esp, trial_report))
                })))
            })
        };
        let legacy_rank = |r: &CompilationResult| {
            (
                r.metrics.swap_count,
                r.metrics.hardware_two_qubit_count,
                r.metrics.hardware_two_qubit_depth,
            )
        };
        let mut best: Option<(CompilationResult, f64)> = None;
        let mut report = PipelineReport::default();
        let mut completed = 0usize;
        let mut first_error: Option<CompileError> = None;
        for run in runs.into_iter().flatten() {
            // A failing pipeline run drops out of the portfolio instead of
            // aborting the compilation: other runs (or the fallback) may
            // still succeed.  The first error is kept for the case where
            // nothing does.
            let (candidate, esp, trial_report) = match run {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                    continue;
                }
                Err(panic) => resume_unwind(panic),
            };
            completed += 1;
            // Candidate selection: fewest SWAPs (then gates, then depth) as
            // in the paper; the error-aware portfolio ranks by ESP first so
            // the kept candidate is the one likeliest to succeed, not
            // merely the smallest.
            let better = match &best {
                None => true,
                Some((b, best_esp)) => {
                    if error_aware {
                        esp > *best_esp
                            || (esp == *best_esp && legacy_rank(&candidate) < legacy_rank(b))
                    } else {
                        legacy_rank(&candidate) < legacy_rank(b)
                    }
                }
            };
            report.absorb_trial(&trial_report, better);
            if better {
                best = Some((candidate, esp));
            }
        }
        let mut best = best.map(|(candidate, _)| candidate);
        let mut rung = if completed == planned {
            DegradationRung::Full
        } else {
            DegradationRung::SinglePipeline
        };
        if best.is_none() {
            // Bottom rung: trivial placement + routing, no iterative search.
            rung = DegradationRung::TrivialFallback;
            match self.trivial_fallback(&prepared, device, stream(planned), &mut report) {
                Ok(result) => best = Some(result),
                Err(fallback_err) => return Err(first_error.unwrap_or(fallback_err)),
            }
        }
        if let Some(record) = unify_record {
            report.total_ms += record.wall_ms;
            report.passes.insert(0, record);
        }
        report.rung = rung;
        report.deadline_ms = self.config.budget.deadline.map(|d| d.as_secs_f64() * 1e3);
        report.budget_consumed_ms = armed.consumed().as_secs_f64() * 1e3;
        Ok((
            best.expect("portfolio or fallback produced a result"),
            report,
        ))
    }

    /// The bottom rung of the degradation ladder: identity placement,
    /// hop-count routing and scheduling — no iterative search anywhere, so
    /// it terminates regardless of how little budget remains.  Runs under
    /// the compile's fallback fault stream (if an injector is attached) so
    /// chaos runs exercise the fallback path too.
    fn trivial_fallback(
        &self,
        prepared: &Circuit,
        device: &Device,
        faults: Option<Arc<FaultInjector>>,
        report: &mut PipelineReport,
    ) -> Result<CompilationResult, CompileError> {
        let pipeline = self.pipeline(InitialMappingStrategy::Trivial, CostModel::HopCount);
        let mut ctx = CompilationContext::for_device(prepared.clone(), device, self.config.seed);
        ctx.faults = faults;
        let fallback_report = pipeline.run(&mut ctx)?;
        report.absorb_trial(&fallback_report, true);
        Ok(CompilationResult::from_context(ctx))
    }
}

impl Compiler for TwoQanCompiler {
    fn name(&self) -> &'static str {
        match self.config.cost_model {
            CostModel::HopCount => "2QAN",
            CostModel::CalibrationAware => "2QAN-noise",
        }
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        let (result, report) = self.compile_with_report(circuit, device)?;
        Ok(CompiledOutput {
            compiler: Compiler::name(self),
            initial_placement: result.initial_map.assignment().to_vec(),
            final_placement: Some(result.routed.final_map().assignment().to_vec()),
            hardware_circuit: result.hardware_circuit,
            metrics: result.metrics,
            basis: result.basis,
            report,
        })
    }

    fn cache_fingerprint(&self) -> u64 {
        // Every config knob that can change the artifact is covered (seed,
        // trials, strategies, cost model, deadline).  The cancellation token
        // is normalized out: its live flag is request state, and a cancelled
        // compile is degraded and never cached.
        let mut config = self.config.clone();
        config.budget.cancel = None;
        crate::hash::fnv1a_64(&format!("{}|{config:?}", Compiler::name(self)))
    }

    fn warm_clone(&self, placement: &[usize]) -> Option<Box<dyn Compiler>> {
        // The warm compiler trades the cold multi-start portfolio (several
        // trials × several solver restarts) for a single warm-seeded solver
        // run.  This is safe — the warm solvers never return a placement
        // worse than the seed — and is where the recompile speed-up comes
        // from.  The seed lands in the config, so the cache fingerprint
        // covers it automatically.
        let mut config = self.config.clone();
        config.warm_start = Some(placement.to_vec());
        config.mapping_trials = 1;
        config.tabu.restarts = 1;
        config.annealing.restarts = 1;
        Some(Box::new(Self {
            config,
            faults: self.faults.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotter_step, QaoaProblem};

    fn compile(circuit: &Circuit, device: &Device) -> CompilationResult {
        TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 2,
            ..TwoQanConfig::default()
        })
        .compile(circuit, device)
        .unwrap()
    }

    #[test]
    fn compiles_all_models_onto_all_devices() {
        let devices = [Device::sycamore(), Device::montreal(), Device::aspen()];
        for device in &devices {
            for (name, circuit) in [
                ("ising", trotter_step(&nnn_ising(8, 1), 1.0)),
                ("xy", trotter_step(&nnn_xy(8, 2), 1.0)),
                ("heisenberg", trotter_step(&nnn_heisenberg(8, 3), 1.0)),
            ] {
                let result = compile(&circuit, device);
                assert!(
                    result.hardware_compatible(device),
                    "{name} on {} is not hardware compatible",
                    device.name()
                );
                assert_eq!(
                    result.metrics.application_two_qubit_count,
                    circuit.unify_same_pair_gates().two_qubit_gate_count() + result.swap_count()
                        - result.dressed_swap_count()
                );
            }
        }
    }

    #[test]
    fn qaoa_compilation_is_hardware_compatible_and_reports_dressed_swaps() {
        let problem = QaoaProblem::random_regular(12, 3, 5);
        let circuit = problem.circuit(&[(0.6, 0.4)], true);
        let device = Device::montreal();
        let result = compile(&circuit, &device);
        assert!(result.hardware_compatible(&device));
        assert!(result.swap_count() > 0);
        assert!(result.dressed_swap_count() <= result.swap_count());
        assert_eq!(result.basis, TwoQubitBasis::Cnot);
    }

    #[test]
    fn no_swaps_needed_when_interaction_graph_embeds() {
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let result = compile(&circuit, &device);
        assert_eq!(result.swap_count(), 0);
        assert_eq!(result.metrics.hardware_two_qubit_count, 10);
    }

    #[test]
    fn rejects_oversized_circuits() {
        let circuit = trotter_step(&nnn_ising(20, 1), 1.0);
        let err = TwoQanCompiler::default()
            .compile(&circuit, &Device::aspen())
            .unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn layer_schedule_scales_parameters_and_reverses() {
        let problem = QaoaProblem::random_regular(8, 3, 2);
        let circuit = problem.circuit(&[(0.5, 0.25)], false);
        let device = Device::montreal();
        let result = compile(&circuit, &device);
        let forward = result.layer_schedule(2.0, 3.0, false);
        assert_eq!(forward.gate_count(), result.hardware_circuit.gate_count());
        // Interaction coefficients doubled.
        let original_zz: f64 = result
            .hardware_circuit
            .iter_gates()
            .filter_map(|g| match g.kind {
                GateKind::Canonical { zz, .. } | GateKind::DressedSwap { zz, .. } => Some(zz),
                _ => None,
            })
            .sum();
        let scaled_zz: f64 = forward
            .iter_gates()
            .filter_map(|g| match g.kind {
                GateKind::Canonical { zz, .. } | GateKind::DressedSwap { zz, .. } => Some(zz),
                _ => None,
            })
            .sum();
        assert!((scaled_zz - 2.0 * original_zz).abs() < 1e-9);
        let reversed = result.layer_schedule(1.0, 1.0, true);
        assert_eq!(reversed.gate_count(), forward.gate_count());
        let first_forward = result
            .hardware_circuit
            .moments()
            .first()
            .unwrap()
            .gates()
            .len();
        let last_reversed = reversed.moments().last().unwrap().gates().len();
        assert_eq!(first_forward, last_reversed);
    }

    #[test]
    fn solver_configs_flow_through_the_compiler() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        // A starved Tabu budget must still produce a valid compilation…
        let starved = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            tabu: twoqan_graphs::TabuConfig {
                max_iterations: 1,
                restarts: 1,
                ..twoqan_graphs::TabuConfig::default()
            },
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(starved.hardware_compatible(&device));
        // …and the annealing config reaches the annealing solver.
        let annealed = TwoQanCompiler::new(TwoQanConfig {
            mapping_strategy: InitialMappingStrategy::SimulatedAnnealing,
            mapping_trials: 1,
            annealing: twoqan_graphs::AnnealingConfig {
                restarts: 2,
                ..twoqan_graphs::AnnealingConfig::default()
            },
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(annealed.hardware_compatible(&device));
    }

    #[test]
    fn unlimited_budget_reproduces_the_default_compilation_bit_for_bit() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let stock = TwoQanCompiler::default()
            .compile(&circuit, &device)
            .unwrap();
        let budgeted = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::unlimited(),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_eq!(stock, budgeted);
    }

    #[test]
    fn zero_deadline_compiles_via_the_trivial_fallback() {
        use std::time::Duration;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let (result, report) = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::ZERO),
            ..TwoQanConfig::default()
        })
        .compile_with_report(&circuit, &device)
        .unwrap();
        assert_eq!(report.rung, DegradationRung::TrivialFallback);
        assert_eq!(report.deadline_ms, Some(0.0));
        assert!(result.hardware_compatible(&device));
        // The fallback starts from the identity placement.
        assert_eq!(
            result.initial_map.assignment(),
            &(0..10).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn cancelled_token_compiles_via_the_trivial_fallback() {
        use crate::budget::CancelToken;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let token = CancelToken::new();
        token.cancel();
        let (result, report) = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::unlimited().with_cancel_token(token),
            ..TwoQanConfig::default()
        })
        .compile_with_report(&circuit, &device)
        .unwrap();
        assert_eq!(report.rung, DegradationRung::TrivialFallback);
        assert_eq!(report.deadline_ms, None);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn cancellation_state_stays_out_of_the_cache_fingerprint() {
        use crate::budget::CancelToken;
        use std::time::Duration;
        let with_deadline = |secs: u64| TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::from_secs(secs)),
            ..TwoQanConfig::default()
        };
        let token = CancelToken::new();
        let mut config = with_deadline(60);
        config.budget = config.budget.with_cancel_token(token.clone());
        let tokened = TwoQanCompiler::new(config);
        let before = tokened.cache_fingerprint();
        token.cancel();
        assert_eq!(
            tokened.cache_fingerprint(),
            before,
            "cancel() must not move the cache key"
        );
        assert_eq!(
            before,
            TwoQanCompiler::new(with_deadline(60)).cache_fingerprint(),
            "a token must not move the cache key"
        );
        // The deadline is part of the artifact (`report.deadline_ms`).
        assert_ne!(
            before,
            TwoQanCompiler::new(with_deadline(61)).cache_fingerprint()
        );
    }

    #[test]
    fn generous_deadline_runs_the_full_portfolio() {
        use std::time::Duration;
        let circuit = trotter_step(&nnn_heisenberg(8, 7), 1.0);
        let device = Device::montreal();
        let (result, report) = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::from_secs(600)),
            ..TwoQanConfig::default()
        })
        .compile_with_report(&circuit, &device)
        .unwrap();
        assert_eq!(report.rung, DegradationRung::Full);
        assert!(report.budget_consumed_ms > 0.0);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn fault_injected_errors_degrade_instead_of_failing_when_a_run_survives() {
        use crate::fault::{FaultConfig, FaultInjector};
        let circuit = trotter_step(&nnn_heisenberg(8, 7), 1.0);
        let device = Device::montreal();
        // Injected errors with p=0.35 will kill some pipeline runs but (for
        // this seed) not all planned ones — the compiler must still return
        // a valid result from the surviving runs, marked degraded.
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed: 5,
            error_probability: 0.35,
            ..FaultConfig::default()
        }));
        let (result, report) = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 4,
            ..TwoQanConfig::default()
        })
        .with_fault_injector(Arc::clone(&injector))
        .compile_with_report(&circuit, &device)
        .unwrap();
        assert!(injector.counts().errors > 0, "no fault ever fired");
        assert_ne!(report.rung, DegradationRung::Full);
        assert!(result.hardware_compatible(&device));
    }

    /// The report fields that do not depend on timing: per-pass names and
    /// winner snapshots, trial count, rung and deadline.
    type NonTiming = (
        Vec<(&'static str, usize, usize, isize, isize)>,
        usize,
        DegradationRung,
        Option<f64>,
    );

    fn non_timing(report: &PipelineReport) -> NonTiming {
        let passes: Vec<_> = report
            .passes
            .iter()
            .map(|p| {
                (
                    p.name,
                    p.two_qubit_gates_after,
                    p.depth_after,
                    p.gate_delta,
                    p.depth_delta,
                )
            })
            .collect();
        (passes, report.trials, report.rung, report.deadline_ms)
    }

    /// Runs `compile` with an installed `workers`-worker pool, or with none.
    fn on_pool<T>(workers: Option<usize>, compile: impl FnOnce() -> T) -> T {
        let pool = workers.map(crate::pool::CompilePool::new);
        let _guard = pool.as_ref().map(crate::pool::CompilePool::install);
        compile()
    }

    #[test]
    fn concurrent_portfolio_is_bit_identical_for_any_worker_count() {
        let circuit = trotter_step(&nnn_heisenberg(12, 4), 1.0);
        let device = Device::montreal().with_heterogeneous_calibration(9);
        let compiler = TwoQanCompiler::new(TwoQanConfig::calibration_aware());
        let runs: Vec<_> = [Some(1), Some(2), None]
            .into_iter()
            .map(|workers| {
                on_pool(workers, || {
                    compiler.compile_with_report(&circuit, &device).unwrap()
                })
            })
            .collect();
        let (reference, reference_report) = &runs[0];
        // The six-candidate portfolio ran in full.
        assert_eq!(reference_report.trials, 6);
        assert_eq!(reference_report.rung, DegradationRung::Full);
        for (result, report) in &runs[1..] {
            assert_eq!(result, reference);
            assert_eq!(non_timing(report), non_timing(reference_report));
        }
    }

    #[test]
    fn chaos_portfolio_injects_the_same_faults_for_any_worker_count() {
        use crate::fault::{FaultConfig, FaultInjector};
        let circuit = trotter_step(&nnn_heisenberg(12, 4), 1.0);
        let device = Device::montreal().with_heterogeneous_calibration(9);
        let run = |workers| {
            let injector = Arc::new(FaultInjector::new(FaultConfig {
                seed: 3,
                error_probability: 0.1,
                delay_probability: 0.1,
                delay: std::time::Duration::from_micros(50),
                ..FaultConfig::default()
            }));
            let compiler = TwoQanCompiler::new(TwoQanConfig::calibration_aware())
                .with_fault_injector(Arc::clone(&injector));
            let outcome = on_pool(Some(workers), || {
                compiler
                    .compile_with_report(&circuit, &device)
                    .map(|(result, report)| (result, non_timing(&report)))
            });
            (outcome, injector.counts())
        };
        let (serial, serial_counts) = run(1);
        assert!(serial_counts.errors > 0 && serial_counts.delays > 0);
        let (_, report) = serial.as_ref().expect("some candidate survives");
        assert_eq!(report.2, DegradationRung::SinglePipeline);
        for _ in 0..3 {
            let (concurrent, counts) = run(2);
            assert_eq!(concurrent, serial);
            assert_eq!(counts, serial_counts);
        }
    }

    #[test]
    fn more_mapping_trials_never_hurt() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let one = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let five = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 5,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(five.swap_count() <= one.swap_count());
    }

    #[test]
    fn warm_clone_recompiles_validly_and_never_loses_to_its_seed() {
        use crate::mapping::{mapping_cost, QubitMap};
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let cold = TwoQanCompiler::default();
        let cold_out = Compiler::compile(&cold, &circuit, &device).unwrap();
        let seed = cold_out.initial_placement.clone();
        let warm = cold
            .warm_clone(&seed)
            .expect("the 2QAN compiler has a warm path");
        let warm_out = warm.compile(&circuit, &device).unwrap();
        // The warm compile must be a complete, hardware-compatible artifact…
        assert!(warm_out
            .hardware_circuit
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1())));
        // …whose placement is at least as good (in QAP cost) as its seed.
        let unified = circuit.unify_same_pair_gates();
        let m = device.num_qubits();
        let seed_cost = mapping_cost(&QubitMap::from_assignment(&seed, m), &unified, &device);
        let warm_cost = mapping_cost(
            &QubitMap::from_assignment(&warm_out.initial_placement, m),
            &unified,
            &device,
        );
        assert!(
            warm_cost <= seed_cost,
            "warm placement cost {warm_cost} worse than seed cost {seed_cost}"
        );
        // The seed changes the artifact, so it must change the cache key.
        assert_ne!(cold.cache_fingerprint(), warm.cache_fingerprint());
        let mut other_seed = seed.clone();
        other_seed.swap(0, 1);
        assert_ne!(
            warm.cache_fingerprint(),
            cold.warm_clone(&other_seed).unwrap().cache_fingerprint(),
            "different seeds must land on different cache lines"
        );
    }
}
