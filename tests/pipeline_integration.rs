//! Cross-crate integration tests: the full 2QAN pipeline against every
//! benchmark family and device, checked for hardware compatibility, content
//! preservation, baseline ordering and (where the operators commute) exact
//! semantic equivalence on the state-vector simulator.

use twoqan_repro::prelude::*;
use twoqan_repro::twoqan::decompose::{decompose_to_cnot_exact, timeline_with_target};
use twoqan_repro::twoqan_baselines::{CompilerRegistry, RegistryOptions};
use twoqan_repro::twoqan_circuit::{GateKind, HardwareMetrics};
use twoqan_repro::twoqan_ham::zz_on_edges;
use twoqan_repro::twoqan_math::gates;
use twoqan_repro::twoqan_sim::{evaluate_qaoa, NoiseModel, TargetNoiseModel};
use twoqan_repro::twoqan_verify::{verify_one, EquivalenceChecker, EquivalenceMode};

fn compile_2qan(circuit: &Circuit, device: &Device) -> CompiledOutput {
    TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 2,
        ..TwoQanConfig::default()
    })
    .compile(circuit, device)
    .expect("benchmark circuits fit on their devices")
}

/// Asserts equality of every artifact field a compiler decides: circuit,
/// metrics, basis and placements (not the compiler name or the report,
/// which carries wall-clock timings).
/// The estimated success probability of a compiled circuit under the
/// device target's per-channel noise figures, on its duration-aware
/// timeline (measuring every qubit the timeline touches).
fn target_esp(output: &CompiledOutput, device: &Device) -> f64 {
    let timeline = timeline_with_target(&output.hardware_circuit, output.basis, device.target());
    TargetNoiseModel::new(device.target(), output.basis.cost_model()).esp(
        &output.hardware_circuit,
        &timeline,
        &timeline.used_qubits(),
    )
}

fn assert_same_artifact(a: &CompiledOutput, b: &CompiledOutput, what: &str) {
    assert_eq!(a.hardware_circuit, b.hardware_circuit, "{what}: circuit");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics");
    assert_eq!(a.basis, b.basis, "{what}: basis");
    assert_eq!(a.initial_placement, b.initial_placement, "{what}: initial");
    assert_eq!(a.final_placement, b.final_placement, "{what}: final");
}

#[test]
fn all_models_compile_onto_all_devices_and_stay_hardware_compatible() {
    let devices = [Device::sycamore(), Device::montreal(), Device::aspen()];
    for device in &devices {
        for (name, circuit) in [
            ("ising", trotterize(&nnn_ising(10, 3), 1, 1.0)),
            ("xy", trotterize(&nnn_xy(10, 4), 1, 1.0)),
            ("heisenberg", trotterize(&nnn_heisenberg(10, 5), 1, 1.0)),
        ] {
            let result = compile_2qan(&circuit, device);
            assert!(
                result.hardware_compatible(device),
                "{name} on {}",
                device.name()
            );
            // Every application two-qubit operator survives compilation,
            // either as a standalone gate or merged into a dressed SWAP.
            let unified = circuit.unify_same_pair_gates();
            let app_gates = result
                .hardware_circuit
                .iter_gates()
                .filter(|g| {
                    matches!(
                        g.kind,
                        GateKind::Canonical { .. } | GateKind::DressedSwap { .. }
                    )
                })
                .count();
            assert_eq!(
                app_gates,
                unified.two_qubit_gate_count(),
                "{name} on {}",
                device.name()
            );
        }
    }
}

#[test]
fn two_qan_beats_or_matches_every_baseline_on_swap_count() {
    let device = Device::montreal();
    for seed in [1u64, 2, 3] {
        let problem = QaoaProblem::random_regular(14, 3, seed);
        let circuit = problem.circuit(&[QaoaProblem::optimal_p1_angles_regular3()], false);
        let ours = compile_2qan(&circuit, &device);
        let tket = GenericCompiler::tket_like()
            .compile(&circuit, &device)
            .unwrap();
        let qiskit = GenericCompiler::qiskit_like()
            .compile(&circuit, &device)
            .unwrap();
        let ic = IcQaoaCompiler::default()
            .compile(&circuit, &device)
            .unwrap();
        assert!(ours.swap_count() <= tket.swap_count(), "seed {seed}");
        assert!(ours.swap_count() <= qiskit.swap_count(), "seed {seed}");
        assert!(ours.swap_count() <= ic.swap_count(), "seed {seed}");
        // Hardware gate count ordering holds as well.
        assert!(
            ours.metrics.hardware_two_qubit_count <= qiskit.metrics.hardware_two_qubit_count,
            "seed {seed}"
        );
    }
}

#[test]
fn compiled_commuting_circuit_is_exactly_equivalent_on_the_simulator() {
    // A pure ZZ workload (all operators commute): every permutation the
    // compiler chooses implements the same unitary, so the compiled circuit
    // must reproduce the logical correlators exactly.
    let problem = QaoaProblem::random_regular(8, 3, 11);
    let cost = zz_on_edges(problem.num_qubits(), &problem.graph().edges(), || 1.0);
    let circuit = trotterize(&cost, 1, 0.35);
    let device = Device::aspen();
    let result = compile_2qan(&circuit, &device);
    assert!(result.hardware_compatible(&device));

    let exact =
        decompose_to_cnot_exact(&result.hardware_circuit).expect("ZZ circuits decompose exactly");
    let mut hardware = StateVector::plus_state(device.num_qubits());
    hardware.apply_circuit(&exact);
    let mut logical = StateVector::plus_state(circuit.num_qubits());
    logical.apply_circuit(&circuit);

    // A mixer layer makes the correlators non-trivial; apply it to matching
    // qubits on both sides.
    let final_map = result
        .final_placement
        .as_deref()
        .expect("2QAN records its final placement");
    assert_eq!(final_map.len(), circuit.num_qubits());
    let mixer = gates::rx(0.9);
    for (q, &physical) in final_map.iter().enumerate() {
        logical.apply_single(q, &mixer);
        hardware.apply_single(physical, &mixer);
    }
    for (u, v) in problem.graph().edges() {
        let l = logical.expectation_zz(u, v);
        let h = hardware.expectation_zz(final_map[u], final_map[v]);
        assert!(
            (l - h).abs() < 1e-9,
            "correlator mismatch on edge ({u},{v}): logical {l} vs hardware {h}"
        );
    }
}

#[test]
fn every_compiler_is_equivalence_checked_end_to_end() {
    // All four baseline compilers plus 2QAN, end to end on real workloads
    // and devices, through `verify_one` — the same single source of truth
    // for each compiler's contract (check mode, connectivity constraint,
    // DAG preservation) that the conformance fuzzer uses.  It asserts
    // strict unitary equivalence for the order-respecting compilers and
    // faithful gate-permutation realisation (plus the exact multiset and
    // final-layout checks) for the commutation-exploiting ones.
    let device = Device::aspen();
    let checker = EquivalenceChecker::default();
    for (name, circuit) in [
        ("heisenberg", trotterize(&nnn_heisenberg(8, 5), 1, 1.0)),
        ("ising", trotterize(&nnn_ising(8, 3), 1, 1.0)),
        (
            "qaoa",
            QaoaProblem::random_regular(8, 3, 9)
                .circuit(&[QaoaProblem::optimal_p1_angles_regular3()], true),
        ),
        (
            "zz-commuting",
            trotterize(
                &zz_on_edges(
                    8,
                    &QaoaProblem::random_regular(8, 3, 9).graph().edges(),
                    || 1.0,
                ),
                1,
                0.4,
            ),
        ),
    ] {
        for compiler in CompilerRegistry::with_options(&RegistryOptions::seeded(7, 1)) {
            let verified = verify_one(compiler.as_ref(), &circuit, &device, &checker);
            let report = verified.outcome.unwrap_or_else(|e| {
                panic!("{} on {name}: {e}", compiler.name());
            });
            assert!(
                report.max_amplitude_error <= 1e-10,
                "{} on {name}: {}",
                compiler.name(),
                report.max_amplitude_error
            );
            // Order-respecting compilers (and everyone on the commuting
            // workload) are held to exact unitary equivalence.
            if compiler.order_respecting() || name == "zz-commuting" {
                assert_eq!(
                    verified.mode,
                    EquivalenceMode::StrictOrder,
                    "{} on {name}",
                    compiler.name()
                );
            }
        }
    }
}

/// The pre-refactor `TwoQanCompiler::compile` sequence, inlined: unify
/// once, then per trial seed an RNG, map, route, schedule, compute metrics,
/// and keep the lexicographically best (SWAPs, gates, depth) result.  The
/// pass-pipeline compiler must reproduce this bit for bit.
fn legacy_2qan_compile(
    circuit: &Circuit,
    device: &Device,
    config: &TwoQanConfig,
) -> CompiledOutput {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twoqan_repro::twoqan::mapping::initial_mapping;
    use twoqan_repro::twoqan::routing::route;
    use twoqan_repro::twoqan::scheduling::schedule;

    let prepared = if config.unify_input {
        circuit.unify_same_pair_gates()
    } else {
        circuit.clone()
    };
    let mapping_config = config.mapping_config();
    let mut best: Option<CompiledOutput> = None;
    for trial in 0..config.mapping_trials.max(1) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(trial as u64));
        let map = initial_mapping(
            &prepared,
            device,
            &mapping_config,
            &twoqan_repro::twoqan::SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        let routed = route(&prepared, device, &map, &config.routing_config(), &mut rng).unwrap();
        let hardware_circuit = schedule(&routed, device, config.scheduling);
        let basis = device.default_basis();
        let mut metrics = HardwareMetrics::of(&hardware_circuit, basis.cost_model());
        metrics.duration_ns =
            timeline_with_target(&hardware_circuit, basis, device.target()).total_ns();
        let candidate = CompiledOutput {
            compiler: "2QAN",
            initial_placement: map.assignment().to_vec(),
            final_placement: Some(routed.final_map().assignment().to_vec()),
            hardware_circuit,
            metrics,
            basis: device.default_basis(),
            report: PipelineReport::default(),
        };
        let better = best.as_ref().is_none_or(|b| {
            (
                candidate.metrics.swap_count,
                candidate.metrics.hardware_two_qubit_count,
                candidate.metrics.hardware_two_qubit_depth,
            ) < (
                b.metrics.swap_count,
                b.metrics.hardware_two_qubit_count,
                b.metrics.hardware_two_qubit_depth,
            )
        });
        if better {
            best = Some(candidate);
        }
    }
    best.unwrap()
}

#[test]
fn pipelined_2qan_is_bit_identical_to_the_pre_refactor_path() {
    // The seeded fig09 (Montreal compilation sweep) and fig10 (QAOA
    // fidelity) workloads: `Workload::generate` seeds instances with
    // `1000 * n + instance`, and fig10 uses the fixed optimal p=1 angles.
    let device = Device::montreal();
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    let workloads: Vec<(&str, Circuit)> = vec![
        (
            "fig09-heisenberg-12",
            trotterize(&nnn_heisenberg(12, 12000), 1, 1.0),
        ),
        ("fig09-xy-10", trotterize(&nnn_xy(10, 10000), 1, 1.0)),
        ("fig09-ising-14", trotterize(&nnn_ising(14, 14000), 1, 1.0)),
        (
            "fig09-qaoa-10",
            QaoaProblem::random_regular(10, 3, 10000).circuit(&[(gamma, beta)], false),
        ),
        (
            "fig10-qaoa-8",
            QaoaProblem::random_regular(8, 3, 8000).circuit(&[(gamma, beta)], false),
        ),
    ];
    for config in [
        TwoQanConfig::default(),
        TwoQanConfig {
            mapping_trials: 1,
            seed: 7,
            ..TwoQanConfig::default()
        },
    ] {
        for (name, circuit) in &workloads {
            let legacy = legacy_2qan_compile(circuit, &device, &config);
            let pipelined = TwoQanCompiler::new(config.clone())
                .compile(circuit, &device)
                .unwrap();
            assert_same_artifact(&pipelined, &legacy, name);
            let report = &pipelined.report;
            assert_eq!(
                report.pass_names(),
                vec![
                    "unify",
                    "qap-mapping",
                    "permutation-routing",
                    "alap-schedule",
                    "decompose"
                ],
                "{name}"
            );
            assert_eq!(report.trials, config.mapping_trials, "{name}");
        }
    }
}

#[test]
fn calibration_aware_compilation_is_bit_identical_on_uniform_targets() {
    // Acceptance criterion: with uniform calibration the noise-aware
    // mapping/routing/scheduling outputs must be bit-identical to the
    // hop-count path — every edge weight is exactly 1, the weighted QAP and
    // router scores coincide with the hop scores (including tie sets), and
    // the portfolio degenerates to the single legacy pipeline.
    use twoqan_repro::twoqan::CostModel;
    let device = Device::montreal();
    assert!(device.target().is_uniform());
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    for (name, circuit) in [
        (
            "heisenberg-12",
            trotterize(&nnn_heisenberg(12, 12000), 1, 1.0),
        ),
        ("ising-14", trotterize(&nnn_ising(14, 14000), 1, 1.0)),
        (
            "qaoa-10",
            QaoaProblem::random_regular(10, 3, 10000).circuit(&[(gamma, beta)], false),
        ),
    ] {
        let hop = TwoQanCompiler::new(TwoQanConfig::default())
            .compile(&circuit, &device)
            .unwrap();
        let aware = TwoQanCompiler::new(TwoQanConfig {
            cost_model: CostModel::CalibrationAware,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_same_artifact(&hop, &aware, name);
    }
}

#[test]
fn calibration_aware_compilation_never_loses_esp_on_heterogeneous_targets() {
    // The calibration-aware compiler is a portfolio over {hop-count,
    // weighted} pipelines selected by estimated success probability, so on
    // any heterogeneous target its ESP is at least the hop-count
    // compiler's; across seeds it must strictly win somewhere.
    use twoqan_repro::twoqan::CostModel;
    let circuit = trotterize(&nnn_ising(12, 7), 1, 1.0);
    let mut strict_win = false;
    for calib_seed in [1u64, 2, 3] {
        let device = Device::montreal().with_heterogeneous_calibration(calib_seed);
        let hop = TwoQanCompiler::new(TwoQanConfig::default())
            .compile(&circuit, &device)
            .unwrap();
        let aware = TwoQanCompiler::new(TwoQanConfig {
            cost_model: CostModel::CalibrationAware,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(aware.hardware_compatible(&device), "seed {calib_seed}");
        let esp_hop = target_esp(&hop, &device);
        let esp_aware = target_esp(&aware, &device);
        assert!(
            esp_aware >= esp_hop - 1e-12,
            "seed {calib_seed}: {esp_aware} < {esp_hop}"
        );
        if esp_aware > esp_hop + 1e-12 {
            strict_win = true;
        }
    }
    assert!(
        strict_win,
        "calibration awareness should strictly improve ESP on at least one seed"
    );
}

#[test]
fn core_esp_matches_the_sim_target_noise_model() {
    // The factors the compiler ranks its portfolio by and the sim-side
    // per-channel noise model must agree on the same schedule/target.
    let device = Device::montreal().with_heterogeneous_calibration(5);
    let circuit = trotterize(&nnn_heisenberg(10, 3), 1, 1.0);
    let result = compile_2qan(&circuit, &device);
    let timeline = timeline_with_target(&result.hardware_circuit, result.basis, device.target());
    let (gate, idle, readout) = device.target().esp_factors(
        &result.hardware_circuit,
        &timeline,
        result.basis.cost_model(),
        &timeline.used_qubits(),
    );
    let core_esp = gate * idle * readout;
    let sim_esp = target_esp(&result, &device);
    assert!(
        (core_esp - sim_esp).abs() < 1e-12,
        "core {core_esp} vs sim {sim_esp}"
    );
}

#[test]
fn batch_driver_matches_per_call_compilation() {
    // The batch driver must produce exactly what one-at-a-time compilation
    // produces, in job order.
    let device = Device::montreal();
    let circuits: Vec<Circuit> = (0..4)
        .map(|i| trotterize(&nnn_heisenberg(8 + 2 * i, 5), 1, 1.0))
        .collect();
    let registry = CompilerRegistry::all();
    let device_ref = &device;
    let jobs: Vec<BatchJob<'_>> = circuits
        .iter()
        .flat_map(|c| {
            registry.iter().map(move |compiler| BatchJob {
                circuit: c,
                device: device_ref,
                compiler: compiler.as_ref(),
            })
        })
        .collect();
    let batched = BatchCompiler::new(3).compile_batch(&jobs);
    assert_eq!(batched.len(), circuits.len() * registry.len());
    for (job, result) in jobs.iter().zip(&batched) {
        let direct = job.compiler.compile(job.circuit, job.device).unwrap();
        let batched = result.as_ref().unwrap();
        assert_eq!(batched.metrics, direct.metrics, "{}", job.compiler.name());
        assert_eq!(
            batched.hardware_circuit,
            direct.hardware_circuit,
            "{}",
            job.compiler.name()
        );
    }
}

#[test]
fn every_compiler_is_bit_identical_serial_vs_pooled() {
    // Acceptance criterion for the shared compile pool: for every registered
    // compiler, compiling the seeded fig09/fig10 workloads on an installed
    // pool of any size — directly or through the batch driver — produces
    // exactly the serial result, bit for bit.
    use twoqan_repro::twoqan::CompilePool;
    let device = Device::montreal();
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    let workloads: Vec<(&str, Circuit)> = vec![
        (
            "fig09-heisenberg-12",
            trotterize(&nnn_heisenberg(12, 12000), 1, 1.0),
        ),
        ("fig09-ising-14", trotterize(&nnn_ising(14, 14000), 1, 1.0)),
        (
            "fig10-qaoa-8",
            QaoaProblem::random_regular(8, 3, 8000).circuit(&[(gamma, beta)], false),
        ),
    ];
    let registry = CompilerRegistry::all();
    let jobs: Vec<BatchJob<'_>> = workloads
        .iter()
        .flat_map(|(_, circuit)| {
            registry.iter().map(|compiler| BatchJob {
                circuit,
                device: &device,
                compiler: compiler.as_ref(),
            })
        })
        .collect();
    let serial = BatchCompiler::new(1).compile_batch(&jobs);
    for threads in [2usize, 4, 7] {
        // Through the batch driver at every worker count…
        let pooled = BatchCompiler::new(threads).compile_batch(&jobs);
        for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
            assert_same_artifact(
                s.as_ref().unwrap(),
                p.as_ref().unwrap(),
                &format!("job {i} ({}) at {threads} threads", jobs[i].compiler.name()),
            );
        }
        // …and directly, with a pool installed on the calling thread (the
        // solvers' nested restarts then run on the shared workers).
        let pool = CompilePool::new(threads);
        let guard = pool.install();
        for (job, s) in jobs.iter().zip(&serial) {
            let direct = job.compiler.compile(job.circuit, job.device).unwrap();
            assert_same_artifact(
                &direct,
                s.as_ref().unwrap(),
                &format!("{} direct on a {threads}-worker pool", job.compiler.name()),
            );
        }
        drop(guard);
    }
}

#[test]
fn qaoa_fidelity_ordering_matches_fig10() {
    let device = Device::montreal();
    let noise = NoiseModel::from_device(&device);
    let problem = QaoaProblem::random_regular(10, 3, 21);
    let circuit = problem.circuit(&[QaoaProblem::optimal_p1_angles_regular3()], false);
    let params = vec![QaoaProblem::optimal_p1_angles_regular3()];

    let ours = compile_2qan(&circuit, &device);
    let tket = GenericCompiler::tket_like()
        .compile(&circuit, &device)
        .unwrap();
    let qiskit = GenericCompiler::qiskit_like()
        .compile(&circuit, &device)
        .unwrap();

    let e_ours = evaluate_qaoa(&problem, &params, &ours.metrics, &noise);
    let e_tket = evaluate_qaoa(&problem, &params, &tket.metrics, &noise);
    let e_qiskit = evaluate_qaoa(&problem, &params, &qiskit.metrics, &noise);

    assert!(e_ours.noisy_normalized >= e_tket.noisy_normalized);
    assert!(e_ours.noisy_normalized >= e_qiskit.noisy_normalized);
    assert!(e_ours.noisy_normalized > 0.0);
    assert!(e_ours.noisy_normalized <= e_ours.ideal_normalized);
}

#[test]
fn table3_anchor_values_hold() {
    use twoqan_repro::twoqan_ham::{heisenberg_lattice, trotter_step, LatticeDimensions};

    let all_to_all = Device::all_to_all(30, TwoQubitBasis::Cnot);
    let h1 = heisenberg_lattice(LatticeDimensions::OneD(30), 1);
    let paulihedral = PaulihedralCompiler::new().compile_all_to_all(&h1, 1.0, TwoQubitBasis::Cnot);
    let two_qan = NoMapCompiler::new()
        .compile(&trotter_step(&h1, 1.0), &all_to_all)
        .unwrap();
    // Both achieve 29 edges × 3 CNOTs = 87 on the 1-D chain (Table III row 1).
    assert_eq!(paulihedral.metrics.hardware_two_qubit_count, 87);
    assert_eq!(two_qan.metrics.hardware_two_qubit_count, 87);

    let h2 = heisenberg_lattice(LatticeDimensions::TwoD(5, 6), 1);
    let two_qan_2d = NoMapCompiler::new()
        .compile(&trotter_step(&h2, 1.0), &all_to_all)
        .unwrap();
    assert_eq!(two_qan_2d.metrics.hardware_two_qubit_count, 147);
}

#[test]
fn heisenberg_on_sycamore_has_negligible_syc_overhead() {
    // The paper's headline Fig. 7 observation: on Sycamore, 2QAN's SYC count
    // for the Heisenberg model is essentially the NoMap count because almost
    // every SWAP is dressed.
    let device = Device::sycamore();
    let circuit = trotterize(&nnn_heisenberg(16, 9), 1, 1.0);
    let result = compile_2qan(&circuit, &device);
    let baseline = NoMapCompiler::new().compile(&circuit, &device).unwrap();
    let overhead = result.metrics.hardware_two_qubit_count as f64
        - baseline.metrics.hardware_two_qubit_count as f64;
    let relative = overhead / baseline.metrics.hardware_two_qubit_count as f64;
    assert!(
        relative <= 0.15,
        "Heisenberg SYC overhead should be close to zero, got {:.1}%",
        relative * 100.0
    );
    // And the generic baseline pays much more.
    let tket = GenericCompiler::tket_like()
        .compile(&circuit, &device)
        .unwrap();
    assert!(
        tket.metrics.hardware_two_qubit_count as f64
            > baseline.metrics.hardware_two_qubit_count as f64 * 1.2
    );
}

/// Pins the calibration-aware placement of a 54-qubit QAOA-REG-3 circuit on
/// two heterogeneous Sycamore targets.  Weighted QAP distances are not
/// integers, so a swap delta's value depends on its summation order: this
/// fails on any host whose placement path computes a different delta than
/// the one the committed goldens were recorded with.
#[test]
fn heterogeneous_qaoa_54_placement_is_pinned() {
    use twoqan_repro::twoqan::hash::fnv1a_64;
    let circuit = QaoaProblem::random_regular(54, 3, 0)
        .circuit(&[QaoaProblem::optimal_p1_angles_regular3()], false);
    let pinned: Vec<_> = [1u64, 3]
        .into_iter()
        .map(|seed| {
            let device = Device::sycamore().with_heterogeneous_calibration(seed);
            let r = TwoQanCompiler::new(TwoQanConfig::calibration_aware())
                .compile(&circuit, &device)
                .unwrap();
            let placement = fnv1a_64(&format!("{:?}", r.initial_placement));
            (
                seed,
                r.swap_count(),
                r.metrics.hardware_two_qubit_depth,
                placement,
            )
        })
        .collect();
    // (calibration seed, SWAPs, native two-qubit depth, FNV-1a of the
    // initial placement's Debug form)
    assert_eq!(
        pinned,
        [
            (1, 67, 52, 0x70c9_e077_00fd_51c0),
            (3, 65, 54, 0xd23a_9def_9d08_c558),
        ]
    );
}
