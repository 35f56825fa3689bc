//! The pass-pipeline compiler framework.
//!
//! Every compiler in the workspace — 2QAN and the four baselines — is
//! expressed as an ordered list of [`Pass`]es run by a [`PassManager`] over
//! a shared [`CompilationContext`].  The context threads the workload, the
//! target device, the intermediate circuit representations (layout, routed
//! structure, schedule) and the hardware metrics from pass to pass; the
//! manager instruments every pass with wall-clock timing and gate/depth
//! deltas and records them in a [`PipelineReport`].
//!
//! On top of the pass layer, the [`Compiler`] trait is the one compile
//! entry point of every workspace compiler: `compile(circuit, device)`
//! returns a [`CompiledOutput`] carrying the scheduled hardware circuit,
//! its metrics, the initial/final placements and the pipeline report.
//! `twoqan_baselines::CompilerRegistry` collects one boxed [`Compiler`]
//! per workspace compiler so benchmark and verification code never needs
//! per-compiler dispatch.

use crate::budget::SolverBudget;
use crate::error::CompileError;
use crate::fault::FaultInjector;
use crate::mapping::QubitMap;
use crate::routing::RoutedCircuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use twoqan_circuit::{Circuit, Gate, HardwareMetrics, ScheduledCircuit, Timeline};
use twoqan_device::{Device, TwoQubitBasis};

/// The shared state a [`PassManager`] threads through its passes.
///
/// Passes communicate exclusively through this context: earlier passes fill
/// in the intermediate representations later passes consume.  Which fields a
/// pipeline uses depends on its compiler family — 2QAN's permutation-aware
/// router produces a [`RoutedCircuit`], the baseline routers a flat physical
/// gate list — but layout, schedule and metrics are common to all of them.
#[derive(Debug)]
pub struct CompilationContext<'a> {
    /// The working application circuit (a unifying pre-pass may replace it).
    pub circuit: Circuit,
    /// The target device, when the pipeline is connectivity-constrained
    /// (`None` for the NoMap baseline's deviceless pipelines).
    pub device: Option<&'a Device>,
    /// The native two-qubit basis metrics are computed for.
    pub basis: TwoQubitBasis,
    /// The random stream stochastic passes (mapping, routing tie-breaks)
    /// draw from; seeded by the compiler so runs stay deterministic.
    pub rng: StdRng,
    /// The current logical → physical layout (set by a placement pass,
    /// updated by routing passes as they insert SWAPs).
    pub layout: Option<QubitMap>,
    /// The layout as originally produced by the placement pass.
    pub initial_layout: Option<QubitMap>,
    /// The routed gate list over physical qubits (baseline routers).
    pub physical_gates: Option<Vec<Gate>>,
    /// The routing structure (maps, per-map gates, SWAP actions) produced by
    /// 2QAN's permutation-aware router.
    pub routed: Option<RoutedCircuit>,
    /// The scheduled hardware circuit.
    pub schedule: Option<ScheduledCircuit>,
    /// The duration-aware nanosecond timeline of the schedule under the
    /// device target (set by the decompose pass when a device is present).
    pub timeline: Option<Timeline>,
    /// Gate counts and depths for [`CompilationContext::basis`].
    pub metrics: Option<HardwareMetrics>,
    /// The armed wall-clock/cancellation budget anytime passes poll (the
    /// QAP mapping pass threads it into the Tabu/annealing sweep loops);
    /// unlimited by default, and free to poll when unlimited.
    pub budget: SolverBudget,
    /// The chaos-testing fault injector consulted before every pass, when
    /// one is attached (`None` — the default — skips the hook entirely).
    pub faults: Option<Arc<FaultInjector>>,
}

impl<'a> CompilationContext<'a> {
    /// Creates a context for compiling `circuit` onto `device`, with the
    /// device's default basis and an RNG seeded from `seed`.
    pub fn for_device(circuit: Circuit, device: &'a Device, seed: u64) -> Self {
        Self {
            circuit,
            device: Some(device),
            basis: device.default_basis(),
            rng: StdRng::seed_from_u64(seed),
            layout: None,
            initial_layout: None,
            physical_gates: None,
            routed: None,
            schedule: None,
            timeline: None,
            metrics: None,
            budget: SolverBudget::unlimited(),
            faults: None,
        }
    }

    /// Creates a context without a device (connectivity-unconstrained
    /// pipelines such as the NoMap baseline), reporting metrics for `basis`.
    pub fn deviceless(circuit: Circuit, basis: TwoQubitBasis) -> Self {
        Self {
            circuit,
            device: None,
            basis,
            rng: StdRng::seed_from_u64(0),
            layout: None,
            initial_layout: None,
            physical_gates: None,
            routed: None,
            schedule: None,
            timeline: None,
            metrics: None,
            budget: SolverBudget::unlimited(),
            faults: None,
        }
    }

    /// The target device, or a [`CompileError::MissingPrerequisite`] naming
    /// the pass that needed one.
    pub fn device_for(&self, pass: &'static str) -> Result<&'a Device, CompileError> {
        self.device.ok_or(CompileError::MissingPrerequisite {
            pass,
            needs: "a target device",
        })
    }

    /// The current layout, or a [`CompileError::MissingPrerequisite`] naming
    /// the pass that needed one.
    pub fn layout_for(&self, pass: &'static str) -> Result<&QubitMap, CompileError> {
        self.layout
            .as_ref()
            .ok_or(CompileError::MissingPrerequisite {
                pass,
                needs: "an initial layout (run a placement pass first)",
            })
    }

    /// Installs a freshly produced layout as both the current and the
    /// initial layout (placement passes call this).
    pub fn set_placement(&mut self, layout: QubitMap) {
        self.initial_layout = Some(layout.clone());
        self.layout = Some(layout);
    }

    /// Collapses a finished pipeline context into the uniform
    /// [`CompiledOutput`] shape — the single place the post-run context
    /// invariants (placement, schedule and metrics all present) are
    /// asserted.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline did not run a placement, scheduling and
    /// decompose pass (compilers only call this after a successful
    /// [`PassManager::run`] of a complete pipeline).
    pub fn into_output(self, compiler: &'static str, report: PipelineReport) -> CompiledOutput {
        CompiledOutput {
            compiler,
            initial_placement: self
                .initial_layout
                .expect("a placement pass sets the initial layout")
                .assignment()
                .to_vec(),
            final_placement: self.layout.map(|l| l.assignment().to_vec()),
            hardware_circuit: self.schedule.expect("a scheduling pass sets the schedule"),
            metrics: self.metrics.expect("the decompose pass sets the metrics"),
            basis: self.basis,
            report,
        }
    }

    /// The (two-qubit gate count, depth) snapshot of the most advanced
    /// representation currently in the context, used by the manager to
    /// compute per-pass deltas.
    pub fn progress_snapshot(&self) -> (usize, usize) {
        if let Some(s) = &self.schedule {
            (s.two_qubit_gate_count(), s.depth())
        } else if let Some(gates) = &self.physical_gates {
            (gates.iter().filter(|g| g.is_two_qubit()).count(), 0)
        } else if let Some(r) = &self.routed {
            (r.total_two_qubit_ops(), 0)
        } else {
            (self.circuit.two_qubit_gate_count(), 0)
        }
    }
}

/// Checks that `circuit` fits on `device`, the shared entry guard of every
/// device-constrained [`Compiler`] implementation.
///
/// # Errors
///
/// Returns [`CompileError::TooManyQubits`] when the circuit uses more
/// qubits than the device provides.
pub fn ensure_fits(circuit: &Circuit, device: &Device) -> Result<(), CompileError> {
    if circuit.num_qubits() > device.num_qubits() {
        return Err(CompileError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: device.num_qubits(),
        });
    }
    Ok(())
}

/// One stage of a compilation pipeline.
///
/// A pass reads its inputs from the [`CompilationContext`], does one unit of
/// work (place, route, schedule, decompose, …) and writes its outputs back
/// into the context.  Passes must be deterministic given the context's RNG
/// state, and must report failure through [`CompileError`] instead of
/// panicking so the manager can attribute the failure to the pass.
pub trait Pass {
    /// Stable, kebab-case pass name (used in reports and benchmark JSON).
    fn name(&self) -> &'static str;

    /// Runs the pass over the shared context.
    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError>;
}

/// Wall-clock and circuit-size accounting for one executed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Wall-clock milliseconds spent in the pass (summed over the runs when
    /// the pipeline is run multiple times per compilation, which may run
    /// concurrently; see [`PipelineReport::total_ms`]).
    pub wall_ms: f64,
    /// Two-qubit gate count of the context's most advanced representation
    /// after the pass.
    pub two_qubit_gates_after: usize,
    /// Schedule depth after the pass (0 until a schedule exists).
    pub depth_after: usize,
    /// Two-qubit gate delta introduced by the pass.
    pub gate_delta: isize,
    /// Depth delta introduced by the pass.
    pub depth_delta: isize,
}

/// Which rung of the graceful-degradation ladder produced a compilation.
///
/// The portfolio compiler plans calibration-aware portfolio × multi-trial
/// work, but under a tight [`crate::CompileBudget`] it truncates that plan:
/// first to whatever pipeline runs completed before the deadline (the first
/// is always the hop-count pipeline), and — if not even one completed — to
/// a trivial-placement + routing fallback that always terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationRung {
    /// The full planned portfolio (all trials × all pipelines) ran.
    #[default]
    Full,
    /// The budget truncated the portfolio; at least one complete pipeline
    /// run produced the result.
    SinglePipeline,
    /// No pipeline run completed within budget; the result came from the
    /// trivial placement + routing fallback.
    TrivialFallback,
}

impl DegradationRung {
    /// Stable kebab-case name (used in benchmark JSON).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationRung::Full => "full",
            DegradationRung::SinglePipeline => "single-pipeline",
            DegradationRung::TrivialFallback => "trivial-fallback",
        }
    }
}

/// The instrumentation record of one pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineReport {
    /// Per-pass records, in execution order.
    pub passes: Vec<PassRecord>,
    /// Total wall-clock milliseconds across all passes (and trials).  It is
    /// busy time: a compiler that runs its trials concurrently (the 2QAN
    /// portfolio) sums each trial's pass clocks, so the total can exceed
    /// the compile's own wall time.
    pub total_ms: f64,
    /// Number of pipeline trials merged into this report (compilers that
    /// re-run their pipeline with different seeds and keep the best result
    /// sum each pass's busy time over trials, whether the trials ran one
    /// after another or concurrently; gate/depth snapshots come from the
    /// winning trial).
    pub trials: usize,
    /// Which degradation rung produced the result ([`DegradationRung::Full`]
    /// unless a budget truncated the portfolio).
    pub rung: DegradationRung,
    /// The configured deadline in milliseconds, when one was set.
    pub deadline_ms: Option<f64>,
    /// Wall-clock milliseconds consumed from budget arming to the end of
    /// the compilation (0 for compilers that don't arm a budget).
    pub budget_consumed_ms: f64,
}

impl PipelineReport {
    /// The wall-clock milliseconds attributed to the named pass, if it ran.
    pub fn pass_ms(&self, name: &str) -> Option<f64> {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.wall_ms)
    }

    /// The pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name).collect()
    }

    /// Folds another trial of the same pipeline into this report: wall
    /// clocks are summed per pass; when `winner` is set the other report's
    /// gate/depth snapshots replace the current ones.
    pub fn absorb_trial(&mut self, other: &PipelineReport, winner: bool) {
        if self.passes.is_empty() {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.pass_names(), other.pass_names());
        for (mine, theirs) in self.passes.iter_mut().zip(&other.passes) {
            mine.wall_ms += theirs.wall_ms;
            if winner {
                mine.two_qubit_gates_after = theirs.two_qubit_gates_after;
                mine.depth_after = theirs.depth_after;
                mine.gate_delta = theirs.gate_delta;
                mine.depth_delta = theirs.depth_delta;
            }
        }
        self.total_ms += other.total_ms;
        self.trials += other.trials;
    }
}

/// An ordered pass list plus the instrumentation that runs it.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a manager that runs `passes` in order.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        Self { passes }
    }

    /// Appends a pass to the end of the pipeline.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// The pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` if the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order over `ctx`, recording wall-clock time and
    /// gate/depth deltas per pass.
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass and returns its [`CompileError`]
    /// unchanged (pass errors are already named: they identify the stage
    /// that rejected the input).
    pub fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<PipelineReport, CompileError> {
        let mut report = PipelineReport {
            passes: Vec::with_capacity(self.passes.len()),
            total_ms: 0.0,
            trials: 1,
            ..PipelineReport::default()
        };
        for pass in &self.passes {
            if let Some(injector) = &ctx.faults {
                injector.before_stage(pass.name())?;
            }
            let (gates_before, depth_before) = ctx.progress_snapshot();
            let t0 = Instant::now();
            pass.run(ctx)?;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let (gates_after, depth_after) = ctx.progress_snapshot();
            report.passes.push(PassRecord {
                name: pass.name(),
                wall_ms,
                two_qubit_gates_after: gates_after,
                depth_after,
                gate_delta: gates_after as isize - gates_before as isize,
                depth_delta: depth_after as isize - depth_before as isize,
            });
            report.total_ms += wall_ms;
        }
        Ok(report)
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .finish()
    }
}

/// The one artifact type every workspace compiler returns through the
/// [`Compiler`] trait, built from a finished pipeline by
/// [`CompilationContext::into_output`].
#[derive(Debug, Clone)]
pub struct CompiledOutput {
    /// The compiler's display name (as in tables and CSV files).
    pub compiler: &'static str,
    /// The scheduled hardware circuit over physical qubits.
    pub hardware_circuit: ScheduledCircuit,
    /// Gate counts and depths for `basis`.
    pub metrics: HardwareMetrics,
    /// The native basis the metrics were computed for.
    pub basis: TwoQubitBasis,
    /// The initial `logical → physical` placement the compiler started from.
    pub initial_placement: Vec<usize>,
    /// The final placement after all inserted SWAPs, when the compiler
    /// tracks it.
    pub final_placement: Option<Vec<usize>>,
    /// Per-pass instrumentation of the compilation.
    pub report: PipelineReport,
}

impl CompiledOutput {
    /// Number of inserted SWAPs (plain + dressed).
    pub fn swap_count(&self) -> usize {
        self.metrics.swap_count
    }

    /// Returns `true` if every two-qubit gate acts on adjacent device
    /// qubits.
    pub fn hardware_compatible(&self, device: &Device) -> bool {
        self.hardware_circuit
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1()))
    }
}

/// Compares two compiled artifacts for bit-identity on everything the
/// compiler *decides*: hardware circuit, metrics, basis, placements,
/// compiler name, trial count, degradation rung, deadline and per-pass
/// gate/depth accounting.  The wall-clock *timing* instrumentation
/// (`wall_ms`, `total_ms`, `budget_consumed_ms`) is excluded — it measures
/// the run, not the artifact, and legitimately differs between a cold
/// compile and the compile that populated a cache.
pub fn bit_identical(a: &CompiledOutput, b: &CompiledOutput) -> bool {
    a.compiler == b.compiler
        && a.hardware_circuit == b.hardware_circuit
        && a.metrics == b.metrics
        && a.basis == b.basis
        && a.initial_placement == b.initial_placement
        && a.final_placement == b.final_placement
        && a.report.trials == b.report.trials
        && a.report.rung == b.report.rung
        && a.report.deadline_ms == b.report.deadline_ms
        && a.report.passes.len() == b.report.passes.len()
        && a.report.passes.iter().zip(&b.report.passes).all(|(x, y)| {
            x.name == y.name
                && x.two_qubit_gates_after == y.two_qubit_gates_after
                && x.depth_after == y.depth_after
                && x.gate_delta == y.gate_delta
                && x.depth_delta == y.depth_delta
        })
}

/// The uniform compile entry point over 2QAN and the baseline compilers.
///
/// Implementations run a pass pipeline (see [`PassManager`]) and return the
/// scheduled hardware circuit with its metrics, placements and per-pass
/// report.  `Send + Sync` is required so trait objects can be shared across
/// the batch driver's worker threads.
pub trait Compiler: Send + Sync {
    /// The compiler's display name (stable across the workspace: tables,
    /// CSV files and the conformance reports all use it).
    fn name(&self) -> &'static str;

    /// Whether the compiler preserves the input gate order (and must
    /// therefore pass strict-order equivalence and DAG-preservation checks).
    fn order_respecting(&self) -> bool {
        false
    }

    /// Whether the compiler's output respects the device's connectivity
    /// (`false` only for the NoMap reference, which defines overhead).
    fn constrains_connectivity(&self) -> bool {
        true
    }

    /// Compiles one Trotter step / QAOA layer onto a device.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] when the circuit does not fit
    /// on the device, and propagates pass failures.
    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError>;

    /// A stable fingerprint of this compiler's identity *and* configuration,
    /// folded into compile-cache keys by `twoqan-service`.  Two compilers
    /// with equal fingerprints must produce bit-identical output for the
    /// same (circuit, device); a configurable compiler therefore must
    /// override this to cover every output-affecting knob (seed, trial
    /// count, strategy, …).  The default covers stateless compilers: a
    /// stable hash of [`Compiler::name`] alone.
    fn cache_fingerprint(&self) -> u64 {
        crate::hash::fnv1a_64(self.name())
    }

    /// A reduced-effort variant of this compiler warm-started from a known
    /// good `logical → physical` placement (typically the one this compiler
    /// produced before the device's calibration drifted).  Implementations
    /// must guarantee the warm compile is still fully valid and never ends
    /// up with a placement worse than the seed itself; under that guarantee
    /// they may cut their multi-start effort drastically, which is where
    /// warm recompilation gets its speed-up.  The returned compiler's
    /// [`Compiler::cache_fingerprint`] must cover the seed (it changes the
    /// artifact).  The default — for compilers with no warm path — is
    /// `None`, and callers fall back to a cold compile.
    fn warm_clone(&self, _placement: &[usize]) -> Option<Box<dyn Compiler>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::GateKind;

    struct PushGatePass(&'static str);
    impl Pass for PushGatePass {
        fn name(&self) -> &'static str {
            self.0
        }
        fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
            ctx.circuit.push(Gate::canonical(0, 1, 0.0, 0.0, 0.1));
            Ok(())
        }
    }

    struct FailingPass;
    impl Pass for FailingPass {
        fn name(&self) -> &'static str {
            "failing"
        }
        fn run(&self, _ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
            Err(CompileError::PassFailed {
                pass: "failing",
                reason: "deliberate test failure".into(),
            })
        }
    }

    #[test]
    fn passes_run_in_insertion_order_and_are_recorded() {
        let mut pm = PassManager::new();
        pm.push(PushGatePass("first"));
        pm.push(PushGatePass("second"));
        pm.push(PushGatePass("third"));
        assert_eq!(pm.pass_names(), vec!["first", "second", "third"]);
        assert_eq!(pm.len(), 3);
        let mut ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        let report = pm.run(&mut ctx).unwrap();
        assert_eq!(report.pass_names(), vec!["first", "second", "third"]);
        assert_eq!(ctx.circuit.two_qubit_gate_count(), 3);
        // Each pass added exactly one two-qubit gate.
        for (i, rec) in report.passes.iter().enumerate() {
            assert_eq!(rec.gate_delta, 1, "pass {i}");
            assert_eq!(rec.two_qubit_gates_after, i + 1);
            assert!(rec.wall_ms >= 0.0);
        }
        assert_eq!(report.trials, 1);
    }

    #[test]
    fn failing_pass_surfaces_a_named_error_not_a_panic() {
        let mut pm = PassManager::new();
        pm.push(PushGatePass("ok"));
        pm.push(FailingPass);
        pm.push(PushGatePass("never-runs"));
        let mut ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        let err = pm.run(&mut ctx).unwrap_err();
        assert_eq!(
            err,
            CompileError::PassFailed {
                pass: "failing",
                reason: "deliberate test failure".into(),
            }
        );
        assert!(err.to_string().contains("failing"));
        // The pipeline stopped at the failure: only the first pass ran.
        assert_eq!(ctx.circuit.two_qubit_gate_count(), 1);
    }

    #[test]
    fn missing_prerequisites_are_named_errors() {
        let ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        let err = ctx.device_for("qap-mapping").unwrap_err();
        assert!(matches!(err, CompileError::MissingPrerequisite { .. }));
        assert!(err.to_string().contains("qap-mapping"));
        let err = ctx.layout_for("permutation-routing").unwrap_err();
        assert!(err.to_string().contains("permutation-routing"));
    }

    #[test]
    fn absorb_trial_sums_wall_clock_and_keeps_winner_snapshots() {
        let rec = |wall, gates| PassRecord {
            name: "p",
            wall_ms: wall,
            two_qubit_gates_after: gates,
            depth_after: 0,
            gate_delta: gates as isize,
            depth_delta: 0,
        };
        let mut merged = PipelineReport::default();
        let a = PipelineReport {
            passes: vec![rec(2.0, 10)],
            total_ms: 2.0,
            trials: 1,
            ..PipelineReport::default()
        };
        let b = PipelineReport {
            passes: vec![rec(3.0, 7)],
            total_ms: 3.0,
            trials: 1,
            ..PipelineReport::default()
        };
        merged.absorb_trial(&a, true);
        merged.absorb_trial(&b, true);
        assert_eq!(merged.trials, 2);
        assert!((merged.total_ms - 5.0).abs() < 1e-12);
        assert!((merged.passes[0].wall_ms - 5.0).abs() < 1e-12);
        // b won: its snapshot sticks.
        assert_eq!(merged.passes[0].two_qubit_gates_after, 7);
        let mut merged_keep = PipelineReport::default();
        merged_keep.absorb_trial(&a, true);
        merged_keep.absorb_trial(&b, false);
        assert_eq!(merged_keep.passes[0].two_qubit_gates_after, 10);
        assert_eq!(merged_keep.pass_ms("p"), Some(5.0));
    }

    #[test]
    fn degradation_rungs_have_stable_names_and_a_full_default() {
        assert_eq!(DegradationRung::default(), DegradationRung::Full);
        assert_eq!(DegradationRung::Full.name(), "full");
        assert_eq!(DegradationRung::SinglePipeline.name(), "single-pipeline");
        assert_eq!(DegradationRung::TrivialFallback.name(), "trivial-fallback");
        let report = PipelineReport::default();
        assert_eq!(report.rung, DegradationRung::Full);
        assert_eq!(report.deadline_ms, None);
        assert_eq!(report.budget_consumed_ms, 0.0);
    }

    #[test]
    fn attached_fault_injector_is_consulted_before_every_pass() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut pm = PassManager::new();
        pm.push(PushGatePass("a"));
        pm.push(PushGatePass("b"));
        // An always-erroring injector stops the pipeline before pass "a".
        let mut ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        ctx.faults = Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 3,
            error_probability: 1.0,
            ..FaultConfig::default()
        })));
        let err = pm.run(&mut ctx).unwrap_err();
        assert_eq!(
            err,
            CompileError::PassFailed {
                pass: "a",
                reason: "injected fault".into(),
            }
        );
        assert_eq!(ctx.circuit.two_qubit_gate_count(), 0);
        // A disarmed injector is consulted once per pass and never fires.
        let injector = Arc::new(FaultInjector::disarmed());
        let mut ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        ctx.faults = Some(Arc::clone(&injector));
        pm.run(&mut ctx).unwrap();
        assert_eq!(injector.counts().checks, 2);
    }

    #[test]
    fn hardware_compatibility_detects_non_adjacent_gates() {
        let device = Device::montreal();
        let output = |gate| {
            let hardware_circuit = ScheduledCircuit::asap_from_gates(device.num_qubits(), &[gate]);
            CompiledOutput {
                compiler: "test",
                metrics: HardwareMetrics::of(
                    &hardware_circuit,
                    device.default_basis().cost_model(),
                ),
                hardware_circuit,
                basis: device.default_basis(),
                initial_placement: Vec::new(),
                final_placement: None,
                report: PipelineReport::default(),
            }
        };
        assert!(output(Gate::canonical(0, 1, 0.0, 0.0, 0.4)).hardware_compatible(&device));
        assert!(!output(Gate::canonical(0, 26, 0.0, 0.0, 0.4)).hardware_compatible(&device));
    }

    #[test]
    fn progress_snapshot_prefers_the_most_advanced_representation() {
        let mut ctx = CompilationContext::deviceless(Circuit::new(2), TwoQubitBasis::Cnot);
        ctx.circuit.push(Gate::canonical(0, 1, 0.0, 0.0, 0.1));
        assert_eq!(ctx.progress_snapshot(), (1, 0));
        ctx.physical_gates = Some(vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.1),
            Gate::swap(0, 1),
            Gate::single(GateKind::Rx(0.3), 0),
        ]);
        assert_eq!(ctx.progress_snapshot(), (2, 0));
        ctx.schedule = Some(ScheduledCircuit::asap_from_gates(
            2,
            &[Gate::canonical(0, 1, 0.0, 0.0, 0.1), Gate::swap(0, 1)],
        ));
        assert_eq!(ctx.progress_snapshot(), (2, 2));
    }
}
