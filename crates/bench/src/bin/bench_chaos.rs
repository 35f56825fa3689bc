//! The chaos / fault-injection harness: fuzzes the whole compilation stack
//! with seeded injected panics, typed failures, delays and wall-clock
//! deadlines, and asserts the robustness contract end to end.  See
//! `BENCHMARKS.md` § Chaos.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_chaos [--smoke] \
//!     [--cases N] [--seed S] [--out PATH] [--conformance]
//! ```
//!
//! Full mode runs 240 seeded (fault class × deadline × workload × device ×
//! compiler) cases through the panic-isolated [`BatchCompiler`] and checks:
//!
//! * **no panic escapes** — every injected panic is caught at the batch
//!   isolation boundary and surfaces as `CompileError::Internal`;
//! * **every result is accounted for** — each case either returns a typed
//!   error or a compiled output that passes the full conformance battery
//!   (structural invariants + permutation-aware statevector equivalence),
//!   including the deadline-degraded outputs;
//! * **zero-fault identity** — a disarmed injector plus an unlimited budget
//!   reproduces the stock compiler's output bit for bit;
//! * **anytime deadline probe** — an n = 80 workload compiled under a
//!   10 ms deadline still yields a connectivity-valid circuit.
//!
//! `--smoke` runs the 40-case CI subset.  `--conformance` instead re-runs
//! the conformance fuzz suite in its smoke configuration (the zero-fault
//! chaos configuration *is* the stock pipeline) and writes the standard
//! `VERIFY_conformance.json` schema, so CI can diff it against the
//! `bench_verify --smoke` output byte for byte.  The exit code is non-zero
//! if any contract is violated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twoqan::pipeline::{bit_identical, Compiler};
use twoqan::{
    BatchCompiler, BatchJob, ChaosCompiler, CompileBudget, CompileError, FaultConfig,
    FaultInjector, TwoQanCompiler, TwoQanConfig,
};
use twoqan_baselines::{CompilerRegistry, RegistryOptions};
use twoqan_bench::report::Table;
use twoqan_circuit::Circuit;
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_ham::{nnn_heisenberg, trotter_step};
use twoqan_verify::{
    check_structural, random_device, random_workload, run_fuzz, verify_output, EquivalenceChecker,
    FuzzConfig, RandomTopologyKind, RandomWorkloadKind,
};

/// The injected-fault classes a case cycles through.
const FAULT_CLASSES: [&str; 5] = ["none", "panic", "error", "delay", "mixed"];

/// The deadline classes a case cycles through (`None` = unlimited).
const DEADLINES: [Option<Duration>; 4] = [
    None,
    Some(Duration::from_millis(25)),
    Some(Duration::from_millis(1)),
    Some(Duration::ZERO),
];

/// The baseline compilers that take the chaos wrapper (2QAN itself takes
/// the injector natively).
const BASELINES: [&str; 4] = ["Qiskit-like", "tket-like", "IC-QAOA", "Paulihedral-like"];

fn fault_config(class: &str, seed: u64) -> FaultConfig {
    let base = FaultConfig {
        seed,
        ..FaultConfig::default()
    };
    match class {
        "none" => base,
        "panic" => FaultConfig {
            panic_probability: 0.5,
            ..base
        },
        "error" => FaultConfig {
            error_probability: 0.5,
            ..base
        },
        "delay" => FaultConfig {
            delay_probability: 0.5,
            delay: Duration::from_millis(2),
            ..base
        },
        "mixed" => FaultConfig {
            panic_probability: 0.25,
            error_probability: 0.25,
            delay_probability: 0.25,
            delay: Duration::from_millis(1),
            ..base
        },
        other => unreachable!("unknown fault class {other}"),
    }
}

/// One fully-specified chaos case, owning everything its batch job borrows.
struct CaseSpec {
    fault_class: &'static str,
    deadline: Option<Duration>,
    compiler_name: &'static str,
    circuit: Circuit,
    device: Device,
    compiler: Box<dyn Compiler>,
    injector: Arc<FaultInjector>,
}

fn build_cases(cases: usize, master_seed: u64) -> Vec<CaseSpec> {
    (0..cases)
        .map(|i| {
            let case_seed = master_seed.wrapping_add(i as u64 * 7919);
            let mut rng = StdRng::seed_from_u64(case_seed);
            let workload_kind = RandomWorkloadKind::ALL[i % RandomWorkloadKind::ALL.len()];
            let topology_kind = RandomTopologyKind::ALL[i % RandomTopologyKind::ALL.len()];
            let n = rng.gen_range(4..=9usize);
            let workload = random_workload(workload_kind, n, &mut rng);
            let device = random_device(topology_kind, n, &mut rng);
            let fault_class = FAULT_CLASSES[i % FAULT_CLASSES.len()];
            let deadline = DEADLINES[(i / FAULT_CLASSES.len()) % DEADLINES.len()];
            let injector = Arc::new(FaultInjector::new(fault_config(fault_class, case_seed)));
            let (compiler_name, compiler): (&'static str, Box<dyn Compiler>) = if i % 3 == 0 {
                // A registry baseline behind the chaos wrapper: panics and
                // injected errors exercise the batch isolation boundary.
                let name = BASELINES[(i / 3) % BASELINES.len()];
                let inner = CompilerRegistry::by_name_with_options(
                    name,
                    &RegistryOptions::seeded(case_seed, 1),
                )
                .expect("every baseline name is registered");
                (name, Box::new(ChaosCompiler::new(inner, injector.clone())))
            } else {
                // 2QAN with the budget and the injector threaded natively:
                // deadlines exercise the anytime degradation ladder.
                let budget = match deadline {
                    Some(d) => CompileBudget::with_deadline(d),
                    None => CompileBudget::unlimited(),
                };
                let config = TwoQanConfig {
                    mapping_trials: 2,
                    seed: case_seed,
                    budget,
                    ..TwoQanConfig::default()
                };
                (
                    "2QAN",
                    Box::new(TwoQanCompiler::new(config).with_fault_injector(injector.clone())),
                )
            };
            CaseSpec {
                fault_class,
                deadline,
                compiler_name,
                circuit: workload.circuit,
                device,
                compiler,
                injector,
            }
        })
        .collect()
}

/// The zero-fault identity contract: a disarmed injector plus an unlimited
/// budget must reproduce the stock compiler's output bit for bit.
fn check_zero_fault_identity(master_seed: u64) -> usize {
    let mut mismatches = 0usize;
    for combo in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(master_seed.wrapping_add(combo));
        let workload_kind = RandomWorkloadKind::ALL[combo as usize % RandomWorkloadKind::ALL.len()];
        let topology_kind = RandomTopologyKind::ALL[combo as usize % RandomTopologyKind::ALL.len()];
        let n = rng.gen_range(4..=9usize);
        let workload = random_workload(workload_kind, n, &mut rng);
        let device = random_device(topology_kind, n, &mut rng);
        let config = TwoQanConfig {
            mapping_trials: 2,
            seed: master_seed.wrapping_add(combo),
            ..TwoQanConfig::default()
        };
        let stock = TwoQanCompiler::new(config.clone())
            .compile(&workload.circuit, &device)
            .expect("zero-fault compile succeeds");
        let chaos = TwoQanCompiler::new(config)
            .with_fault_injector(Arc::new(FaultInjector::disarmed()))
            .compile(&workload.circuit, &device)
            .expect("disarmed-injector compile succeeds");
        if !bit_identical(&stock, &chaos) {
            eprintln!("zero-fault identity VIOLATED on combo {combo} ({n} qubits)");
            mismatches += 1;
        }
    }
    mismatches
}

/// The anytime deadline probe: a large workload under a tight wall-clock
/// deadline must still return a connectivity-valid, structurally sound
/// circuit (the degraded rungs are valid placements by construction).
fn deadline_probe() -> (f64, &'static str, bool) {
    let circuit = trotter_step(&nnn_heisenberg(80, 1), 1.0);
    let device = Device::grid(9, 9, TwoQubitBasis::Cnot);
    let config = TwoQanConfig {
        budget: CompileBudget::with_deadline(Duration::from_millis(10)),
        ..TwoQanConfig::default()
    };
    let started = Instant::now();
    let result = TwoQanCompiler::new(config)
        .compile(&circuit, &device)
        .expect("deadline-limited compiles degrade instead of failing");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let compatible = result.hardware_compatible(&device);
    let structural = check_structural(
        &result.hardware_circuit,
        &circuit.unify_same_pair_gates(),
        Some(&device),
    );
    (
        elapsed_ms,
        result.report.rung.name(),
        compatible && structural.is_ok(),
    )
}

fn main() {
    let mut cases = 240usize;
    let mut seed = 20220611u64;
    let mut out = String::from("BENCH_chaos.json");
    let mut conformance = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cases = 40,
            "--cases" => {
                cases = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--cases needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                seed = match args.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--conformance" => conformance = true,
            other => {
                eprintln!(
                    "unknown argument {other}; supported: --smoke, --cases N, --seed S, \
                     --out PATH, --conformance"
                );
                std::process::exit(2);
            }
        }
    }

    if conformance {
        // The zero-fault chaos configuration is the stock pipeline: re-run
        // the conformance smoke suite and emit the standard schema so CI
        // can diff it against the bench_verify --smoke output.
        let report = run_fuzz(&FuzzConfig::smoke());
        std::fs::write(&out, report.to_json()).expect("writing the conformance reproduction");
        println!(
            "conformance reproduction: {}/{} cases passed, wrote {out}",
            report.passed(),
            report.results.len()
        );
        std::process::exit(if report.all_passed() { 0 } else { 1 });
    }

    let specs = build_cases(cases, seed);
    let jobs: Vec<BatchJob<'_>> = specs
        .iter()
        .map(|s| BatchJob {
            circuit: &s.circuit,
            device: &s.device,
            compiler: s.compiler.as_ref(),
        })
        .collect();

    // Injected panics are expected: silence the default hook's backtrace
    // spam while the batch runs behind its catch_unwind boundary.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = BatchCompiler::new(0).with_retries(1).compile_batch(&jobs);
    std::panic::set_hook(hook);

    // Every job slot came back: no panic escaped the isolation boundary.
    assert_eq!(results.len(), specs.len(), "a panic escaped the batch");

    let checker = EquivalenceChecker::default();
    let mut ok = 0usize;
    let mut typed_errors = 0usize;
    let mut caught_panics = 0usize;
    let mut equivalence_failures = 0usize;
    let mut rungs: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut per_class: BTreeMap<&'static str, [usize; 3]> = BTreeMap::new();
    let mut injected = twoqan::FaultCounts::default();
    for (spec, result) in specs.iter().zip(&results) {
        let counts = spec.injector.counts();
        injected.checks += counts.checks;
        injected.panics += counts.panics;
        injected.errors += counts.errors;
        injected.delays += counts.delays;
        let slot = per_class.entry(spec.fault_class).or_default();
        match result {
            Ok(output) => {
                ok += 1;
                slot[0] += 1;
                *rungs.entry(output.report.rung.name()).or_default() += 1;
                // Every produced output — including the deadline-degraded
                // ones — must pass the full conformance battery.
                let verified = verify_output(
                    spec.compiler.as_ref(),
                    &spec.circuit,
                    output,
                    &spec.device,
                    &checker,
                );
                if let Err(reason) = verified.outcome {
                    eprintln!(
                        "equivalence FAILED for {} ({} fault, deadline {:?}): {reason}",
                        spec.compiler_name, spec.fault_class, spec.deadline
                    );
                    equivalence_failures += 1;
                }
            }
            Err(CompileError::Internal { .. }) => {
                caught_panics += 1;
                slot[2] += 1;
            }
            Err(_) => {
                typed_errors += 1;
                slot[1] += 1;
            }
        }
    }

    let mut table = Table::new(
        "Chaos: seeded fault injection across the batch isolation boundary",
        &["fault class", "cases", "ok", "typed error", "caught panic"],
    );
    for (class, [class_ok, class_err, class_panic]) in &per_class {
        table.push_row(vec![
            class.to_string(),
            (class_ok + class_err + class_panic).to_string(),
            class_ok.to_string(),
            class_err.to_string(),
            class_panic.to_string(),
        ]);
    }
    table.print();

    let identity_mismatches = check_zero_fault_identity(seed);
    let (probe_ms, probe_rung, probe_valid) = deadline_probe();
    println!(
        "zero-fault identity: {} mismatches over 8 combos",
        identity_mismatches
    );
    println!(
        "deadline probe: n = 80 under 10 ms deadline compiled in {probe_ms:.1} ms \
         (rung {probe_rung}, valid: {probe_valid})"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"suite\": \"chaos_fault_injection\",\n");
    json.push_str(&format!("  \"cases\": {},\n", specs.len()));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"fault_classes\": {");
    let class_counts: Vec<String> = per_class
        .iter()
        .map(|(c, [a, b, p])| format!("\"{c}\": {}", a + b + p))
        .collect();
    json.push_str(&class_counts.join(", "));
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"outcomes\": {{\"ok\": {ok}, \"typed_error\": {typed_errors}, \
         \"caught_panic\": {caught_panics}}},\n"
    ));
    json.push_str("  \"degradation_rungs\": {");
    let rung_counts: Vec<String> = rungs.iter().map(|(r, n)| format!("\"{r}\": {n}")).collect();
    json.push_str(&rung_counts.join(", "));
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"injected\": {{\"checks\": {}, \"panics\": {}, \"errors\": {}, \"delays\": {}}},\n",
        injected.checks, injected.panics, injected.errors, injected.delays
    ));
    json.push_str("  \"escaped_panics\": 0,\n");
    json.push_str(&format!(
        "  \"equivalence_failures\": {equivalence_failures},\n"
    ));
    json.push_str(&format!(
        "  \"zero_fault_identity_mismatches\": {identity_mismatches},\n"
    ));
    json.push_str(&format!(
        "  \"deadline_probe\": {{\"qubits\": 80, \"deadline_ms\": 10.0, \
         \"elapsed_ms\": {probe_ms:.3}, \"rung\": \"{probe_rung}\", \"valid\": {probe_valid}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("writing the chaos summary");
    println!("wrote {out}");

    let failed = equivalence_failures > 0 || identity_mismatches > 0 || !probe_valid;
    println!(
        "chaos: {}/{} cases produced output ({typed_errors} typed errors, \
         {caught_panics} caught panics), 0 escaped panics",
        ok,
        specs.len()
    );
    if failed {
        eprintln!("chaos contract VIOLATED");
        std::process::exit(1);
    }
}
