//! The end-to-end 2QAN compilation pipeline.

use crate::budget::CompileBudget;
use crate::error::CompileError;
use crate::fault::FaultInjector;
use crate::mapping::{CostModel, InitialMappingStrategy, MappingConfig};
use crate::passes::{AlapSchedulePass, DecomposePass, PermutationRoutingPass, QapMappingPass};
use crate::pipeline::{
    CompilationContext, CompiledOutput, Compiler, DegradationRung, PassManager, PassRecord,
    PipelineReport,
};
use crate::routing::RoutingConfig;
use crate::scheduling::SchedulingStrategy;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
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
    /// Merge inserted SWAPs with circuit gates on the same qubit pair into
    /// dressed SWAPs (SWAP unitary unifying, §III-C); disable only for
    /// ablation studies.
    pub enable_dressing: bool,
    /// Scheduling strategy (hybrid vs. order-respecting, for ablations).
    pub scheduling: SchedulingStrategy,
    /// Base random seed (trial `k` uses `seed + k`).
    pub seed: u64,
    /// Apply the circuit-unitary-unifying pre-pass before compiling
    /// (§III-C); disable only for ablation studies.
    pub unify_input: bool,
    /// The distance cost model — the single switch that drives both the
    /// QAP mapping distance matrix and the router's SWAP selection.
    /// [`CostModel::CalibrationAware`] steers placement and routing onto
    /// the device target's low-error qubits/edges; on a uniform target it
    /// reproduces the hop-count compilation bit for bit.
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
            enable_dressing: true,
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

    /// The routing-pass configuration implied by this compiler config.
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            enable_dressing: self.enable_dressing,
            cost: self.cost_model,
        }
    }
}

/// The 2QAN compiler.  It compiles through [`Compiler::compile`].
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
    ) -> Result<CompiledOutput, CompileError> {
        let pipeline = self.pipeline(InitialMappingStrategy::Trivial, CostModel::HopCount);
        let mut ctx = CompilationContext::for_device(prepared.clone(), device, self.config.seed);
        ctx.faults = faults;
        let report = pipeline.run(&mut ctx)?;
        Ok(ctx.into_output(Compiler::name(self), report))
    }
}

impl Compiler for TwoQanCompiler {
    fn name(&self) -> &'static str {
        match self.config.cost_model {
            CostModel::HopCount => "2QAN",
            CostModel::CalibrationAware => "2QAN-noise",
        }
    }

    /// Compiles one Trotter step / QAOA layer onto a device.
    ///
    /// The planned portfolio is one pipeline run per (mapping trial, cost
    /// model) candidate, each trial with its own seed; candidate `k` is
    /// trial `k / models` under cost model `k % models`.  The candidates run
    /// concurrently through [`twoqan_pool::run_indexed`] — on the installed
    /// [`twoqan_pool::CompilePool`], or on a transient one with a worker per
    /// core that the solvers' nested restarts share — and their outputs are
    /// folded in index order: the output with the fewest SWAPs
    /// (then fewest hardware gates, then lowest depth) is kept, or for the
    /// calibration-aware portfolio the one with the highest ESP, compared
    /// as the sum of the logs of its gate, idle and readout factors
    /// ([`twoqan_device::Target::esp_factors`]), which stays finite where
    /// their product underflows; equal scores fall back to the SWAP rule.
    /// So an unbudgeted compile is bit-identical for every worker count.
    /// The report sums each pass's busy time over the candidates, so under
    /// concurrency it can exceed the compile's wall time, and it snapshots
    /// gate/depth from the winning candidate.  The deterministic unifying
    /// pre-pass is hoisted out of the portfolio (it would produce the same
    /// circuit for every candidate), so its report entry is a single
    /// measurement.
    ///
    /// Under a limited [`CompileBudget`] the planned portfolio degrades
    /// along an explicit ladder instead of erroring.  Candidate 0, a
    /// hop-count pipeline, always runs; any later candidate is skipped when
    /// the budget has expired by the time it starts (and, inside the
    /// mapping pass, the solvers poll it per sweep).  If not even one run
    /// completed (deadline already expired on entry, or every run failed),
    /// a trivial-placement + routing fallback that always terminates
    /// produces the output.  The report records the rung that ran
    /// ([`DegradationRung::Full`] only when every planned candidate
    /// completed), the configured deadline and the budget actually
    /// consumed.
    ///
    /// An attached fault injector is [`FaultInjector::fork`]ed once per
    /// compile: candidate `k` draws from stream `k` and the fallback from
    /// the stream after the last candidate, so a chaos compile injects the
    /// same faults for any worker count.  A candidate that panics re-raises
    /// its panic once every candidate has finished, the lowest index first.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit on
    /// the device, and propagates routing failures (which do not occur on
    /// connected devices).
    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
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
                    let candidate = ctx.into_output(Compiler::name(self), trial_report);
                    let esp = if error_aware {
                        let timeline =
                            timeline.expect("the decompose pass sets the timeline for device runs");
                        ln_esp(device.target().esp_factors(
                            &candidate.hardware_circuit,
                            &timeline,
                            candidate.basis.cost_model(),
                            &timeline.used_qubits(),
                        ))
                    } else {
                        0.0
                    };
                    Ok((candidate, esp))
                })))
            })
        };
        let legacy_rank = |r: &CompiledOutput| {
            (
                r.metrics.swap_count,
                r.metrics.hardware_two_qubit_count,
                r.metrics.hardware_two_qubit_depth,
            )
        };
        let mut best: Option<(CompiledOutput, f64)> = None;
        let mut report = PipelineReport::default();
        let mut completed = 0usize;
        let mut first_error: Option<CompileError> = None;
        for run in runs.into_iter().flatten() {
            // A failing pipeline run drops out of the portfolio instead of
            // aborting the compilation: other runs (or the fallback) may
            // still succeed.  The first error is kept for the case where
            // nothing does.
            let (candidate, esp) = match run {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                    continue;
                }
                Err(panic) => resume_unwind(panic),
            };
            completed += 1;
            // Candidate selection: fewest SWAPs (then gates, then depth) as
            // in the paper; the error-aware portfolio ranks by log ESP first
            // so the kept candidate is the one likeliest to succeed, not
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
            report.absorb_trial(&candidate.report, better);
            if better {
                best = Some((candidate, esp));
            }
        }
        let mut rung = if completed == planned {
            DegradationRung::Full
        } else {
            DegradationRung::SinglePipeline
        };
        let mut output = match best {
            Some((candidate, _)) => candidate,
            None => {
                // Bottom rung: trivial placement + routing, no iterative
                // search.
                rung = DegradationRung::TrivialFallback;
                let fallback = self
                    .trivial_fallback(&prepared, device, stream(planned))
                    .map_err(|fallback_err| first_error.unwrap_or(fallback_err))?;
                report.absorb_trial(&fallback.report, true);
                fallback
            }
        };
        if let Some(record) = unify_record {
            report.total_ms += record.wall_ms;
            report.passes.insert(0, record);
        }
        report.rung = rung;
        report.deadline_ms = self.config.budget.deadline.map(|d| d.as_secs_f64() * 1e3);
        report.budget_consumed_ms = armed.consumed().as_secs_f64() * 1e3;
        output.report = report;
        Ok(output)
    }

    fn cache_fingerprint(&self) -> u64 {
        // Every config knob that can change the artifact is covered (seed,
        // trials, strategies, cost model, dressing, deadline).  The
        // cancellation token is normalized out: its live flag is request
        // state, and a cancelled compile is degraded and never cached.
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

/// The natural log of an estimated success probability, from its
/// `(gate, idle, readout)` factors.  The portfolio ranks by this sum: the
/// product underflows to 0.0 below about 1e-308, where every candidate
/// would tie.
fn ln_esp((gate, idle, readout): (f64, f64, f64)) -> f64 {
    gate.ln() + idle.ln() + readout.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::bit_identical;
    use twoqan_circuit::Gate;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotter_step, QaoaProblem};

    #[test]
    fn log_space_ranking_separates_esps_whose_products_underflow() {
        let better = (1e-200, 1e-140, 0.9);
        let worse = (1e-200, 1e-150, 0.9);
        for (gate, idle, readout) in [better, worse] {
            assert_eq!(gate * idle * readout, 0.0, "the product underflows");
        }
        let (high, low) = (ln_esp(better), ln_esp(worse));
        assert!(high.is_finite() && low.is_finite());
        assert!(high > low, "ln ESP {high} must outrank {low}");
        assert!((high - low - 10.0 * std::f64::consts::LN_10).abs() < 1e-9);
    }

    fn compile(circuit: &Circuit, device: &Device) -> CompiledOutput {
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
                        - result.metrics.dressed_swap_count
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
        assert!(result.metrics.dressed_swap_count <= result.swap_count());
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
    fn dressing_changes_the_artifact_and_the_cache_fingerprint() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let dressed = TwoQanCompiler::default();
        let plain = TwoQanCompiler::new(TwoQanConfig {
            enable_dressing: false,
            ..TwoQanConfig::default()
        });
        let dressed_swaps = |c: &TwoQanCompiler| {
            let out = c.compile(&circuit, &device).unwrap();
            out.metrics.dressed_swap_count
        };
        assert!(dressed_swaps(&dressed) > 0);
        assert_eq!(dressed_swaps(&plain), 0);
        assert_ne!(dressed.cache_fingerprint(), plain.cache_fingerprint());
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
        assert!(bit_identical(&stock, &budgeted));
    }

    #[test]
    fn zero_deadline_compiles_via_the_trivial_fallback() {
        use std::time::Duration;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::ZERO),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_eq!(result.report.rung, DegradationRung::TrivialFallback);
        assert_eq!(result.report.deadline_ms, Some(0.0));
        assert!(result.hardware_compatible(&device));
        // The fallback starts from the identity placement.
        assert_eq!(result.initial_placement, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_token_compiles_via_the_trivial_fallback() {
        use crate::budget::CancelToken;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let token = CancelToken::new();
        token.cancel();
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget {
                cancel: Some(token),
                ..CompileBudget::unlimited()
            },
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_eq!(result.report.rung, DegradationRung::TrivialFallback);
        assert_eq!(result.report.deadline_ms, None);
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
        config.budget.cancel = Some(token.clone());
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
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::from_secs(600)),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_eq!(result.report.rung, DegradationRung::Full);
        assert!(result.report.budget_consumed_ms > 0.0);
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
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 4,
            ..TwoQanConfig::default()
        })
        .with_fault_injector(Arc::clone(&injector))
        .compile(&circuit, &device)
        .unwrap();
        assert!(injector.counts().errors > 0, "no fault ever fired");
        assert_ne!(result.report.rung, DegradationRung::Full);
        assert!(result.hardware_compatible(&device));
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
            .map(|workers| on_pool(workers, || compiler.compile(&circuit, &device).unwrap()))
            .collect();
        let reference = &runs[0];
        // The six-candidate portfolio ran in full.
        assert_eq!(reference.report.trials, 6);
        assert_eq!(reference.report.rung, DegradationRung::Full);
        for result in &runs[1..] {
            assert!(bit_identical(result, reference));
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
            let outcome = on_pool(Some(workers), || compiler.compile(&circuit, &device));
            (outcome, injector.counts())
        };
        let (serial, serial_counts) = run(1);
        assert!(serial_counts.errors > 0 && serial_counts.delays > 0);
        let serial = serial.expect("some candidate survives");
        assert_eq!(serial.report.rung, DegradationRung::SinglePipeline);
        for _ in 0..3 {
            let (concurrent, counts) = run(2);
            assert!(bit_identical(&concurrent.unwrap(), &serial));
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
        let cold_out = cold.compile(&circuit, &device).unwrap();
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
