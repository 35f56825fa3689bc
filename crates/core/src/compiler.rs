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
    /// Worker count for the compile's internal parallelism (the multi-start
    /// Tabu/annealing restarts).  `0` (the default) inherits: restarts run
    /// on the already-installed [`twoqan_pool::CompilePool`] when one exists
    /// (e.g. inside a [`crate::BatchCompiler`] run) and otherwise on scoped
    /// threads, one per core.  `n ≥ 1` provisions a
    /// dedicated `n`-worker pool for this compile — unless a pool is
    /// already installed, which always wins so nesting never over-spawns.
    /// Results are bit-identical for every setting.
    pub threads: usize,
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
            threads: 0,
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
    /// per-pass [`PipelineReport`].  The pipeline is run once per mapping
    /// trial (each with its own seed) and the result with the fewest SWAPs
    /// (then fewest hardware gates, then lowest depth) is kept; the report
    /// sums wall-clock per pass over all trials and snapshots gate/depth
    /// from the winning trial.  The deterministic unifying pre-pass is
    /// hoisted out of the trial loop (it would produce the same circuit
    /// every trial), so its report entry is a single measurement.
    ///
    /// Under a limited [`CompileBudget`] the planned portfolio degrades
    /// along an explicit ladder instead of erroring: the budget is checked
    /// between pipeline runs (and, inside the mapping pass, per solver
    /// sweep), so an expired deadline truncates the portfolio to whatever
    /// runs completed — the first of which is always a hop-count pipeline.
    /// If not even one run completed (deadline already expired on entry, or
    /// every run failed), a trivial-placement + routing fallback that always
    /// terminates produces the result.  The report records the rung that
    /// ran, the configured deadline and the budget actually consumed.
    pub fn compile_with_report(
        &self,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<(CompilationResult, PipelineReport), CompileError> {
        // Provision a dedicated worker pool when the config asks for one and
        // none is installed yet; an installed pool (e.g. the batch driver's)
        // always wins so nested compiles never over-spawn.  The guard is
        // dropped before the pool so TLS is restored first.
        let _pool = match (
            self.config.threads,
            twoqan_pool::CompilePool::current_workers(),
        ) {
            (0, _) | (_, Some(_)) => None,
            (n, None) => {
                // Clamp to the core count: oversubscribing CPU-bound solver
                // restarts only adds scheduling churn.
                let pool = twoqan_pool::CompilePool::new(n.min(twoqan_pool::max_useful_workers()));
                Some((pool.install(), pool))
            }
        };
        let armed = self.config.budget.arm();
        let trials = self.config.mapping_trials.max(1);
        // Unify once, up front: the pre-pass draws no randomness, so every
        // trial would redo identical work.
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
        let strategy = self.config.mapping_strategy;
        let pipelines = if error_aware {
            vec![
                self.pipeline(strategy, CostModel::HopCount),
                self.pipeline(strategy, CostModel::CalibrationAware),
            ]
        } else {
            vec![self.pipeline(strategy, self.config.cost_model)]
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
        let planned = trials * pipelines.len();
        let mut completed = 0usize;
        let mut first_error: Option<CompileError> = None;
        // A budget that expired before any work was done (zero deadline,
        // pre-cancelled token) sends the compilation straight to the
        // trivial fallback — even the anytime solvers' setup would waste
        // the caller's remaining time.
        let skip_portfolio = armed.is_limited() && armed.expired();
        'portfolio: for trial in 0..trials {
            for pipeline in &pipelines {
                if skip_portfolio || (completed > 0 && armed.expired()) {
                    break 'portfolio;
                }
                let mut ctx = CompilationContext::for_device(
                    prepared.clone(),
                    device,
                    self.config.seed.wrapping_add(trial as u64),
                );
                ctx.budget = armed.clone();
                ctx.faults = self.faults.clone();
                // A failing pipeline run drops out of the portfolio instead
                // of aborting the compilation: later runs (or the fallback)
                // may still succeed.  The first error is kept for the case
                // where nothing does.
                let trial_report = match pipeline.run(&mut ctx) {
                    Ok(r) => r,
                    Err(e) => {
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                        continue;
                    }
                };
                completed += 1;
                let timeline = ctx.timeline.take();
                let candidate = CompilationResult::from_context(ctx);
                // Trial selection: fewest SWAPs (then gates, then depth) as
                // in the paper; the error-aware portfolio ranks by ESP
                // first so the kept candidate is the one likeliest to
                // succeed, not merely the smallest.
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
            match self.trivial_fallback(&prepared, device, &mut report) {
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
    /// the compiler's fault injector (if any) so chaos runs exercise the
    /// fallback path too.
    fn trivial_fallback(
        &self,
        prepared: &Circuit,
        device: &Device,
        report: &mut PipelineReport,
    ) -> Result<CompilationResult, CompileError> {
        let pipeline = self.pipeline(InitialMappingStrategy::Trivial, CostModel::HopCount);
        let mut ctx = CompilationContext::for_device(prepared.clone(), device, self.config.seed);
        ctx.faults = self.faults.clone();
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
        // trials, strategies, cost model, deadline).  `threads` only changes
        // how the solver restarts are parallelised — results are documented
        // bit-identical for every setting — so it is normalized out to keep
        // differently-provisioned requests on the same cache line.  The
        // cancellation token is normalized out too: its live flag is request
        // state, and a cancelled compile is degraded and never cached.
        let mut config = self.config.clone();
        config.threads = 0;
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
