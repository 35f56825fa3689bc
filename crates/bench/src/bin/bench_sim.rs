//! Emits `BENCH_sim.json`: the saved simulation-performance baseline that
//! extends the perf trajectory of `BENCH_compiler.json` to the simulator.
//!
//! Two measurement families, each recorded as naive ("before": the
//! branch-per-index, matrix-rebuilding loops kept as `apply_*_naive`)
//! versus kernelized ("after": stride-enumeration kernels with specialized
//! diagonal / swap-diagonal paths and per-circuit matrix caching):
//!
//! * **gate kernels** — one gate application on a dense `2^n` state, for the
//!   gate classes that dominate 2QAN workloads;
//! * **noisy QAOA trajectories** — the full Monte-Carlo evaluation of a
//!   2QAN-compiled QAOA-REG-3 circuit at fixed shot count, the paper's
//!   table-04/05-style workload.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_sim [--samples N] [--out PATH] [--smoke]
//! ```
//!
//! `--smoke` shrinks every workload (tiny n, few shots, one sample) so CI
//! can assert the bench path still produces its JSON in seconds.  See
//! `BENCHMARKS.md` § Simulation for the schema and how to compare runs.

use twoqan::{TwoQanCompiler, TwoQanConfig};
use twoqan_bench::report::median_ms;
use twoqan_circuit::ScheduledCircuit;
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_ham::QaoaProblem;
use twoqan_math::gates;
use twoqan_sim::kernels::{apply_single_kernel, apply_two_kernel, SingleKernel, TwoKernel};
use twoqan_sim::{NoiseModel, SimEngine, StateVector, TrajectorySimulator};

struct KernelEntry {
    name: &'static str,
    n: usize,
    naive_ms: f64,
    kernelized_ms: f64,
}

struct TrajectoryEntry {
    workload: String,
    n: usize,
    shots: usize,
    naive_ms: f64,
    kernelized_serial_ms: f64,
    kernelized_parallel_ms: f64,
}

/// A boxed gate application used by the naive/kernelized measurement pairs.
type GateOp = Box<dyn Fn(&mut StateVector)>;

/// One gate application, naive vs kernelized, on a `|+⟩^{⊗n}` state.
fn measure_kernels(n: usize, samples: usize) -> Vec<KernelEntry> {
    let qa = n / 2;
    let qb = 0;
    let q_single = n / 2;
    let cases: Vec<(&'static str, GateOp, GateOp)> = vec![
        (
            "single_rx",
            {
                let m = gates::rx(0.4);
                Box::new(move |s: &mut StateVector| s.apply_single_naive(q_single, &m))
            },
            {
                let k = SingleKernel::from_matrix(&gates::rx(0.4));
                Box::new(move |s: &mut StateVector| {
                    apply_single_kernel(s.amplitudes_mut(), q_single, &k, 1)
                })
            },
        ),
        (
            "single_rz_diag",
            {
                let m = gates::rz(0.7);
                Box::new(move |s: &mut StateVector| s.apply_single_naive(q_single, &m))
            },
            {
                let k = SingleKernel::from_matrix(&gates::rz(0.7));
                Box::new(move |s: &mut StateVector| {
                    apply_single_kernel(s.amplitudes_mut(), q_single, &k, 1)
                })
            },
        ),
        (
            "two_rzz_diag",
            {
                let m = gates::zz_interaction(0.61);
                Box::new(move |s: &mut StateVector| s.apply_two_naive(qa, qb, &m))
            },
            {
                let k = TwoKernel::from_matrix(&gates::zz_interaction(0.61));
                Box::new(move |s: &mut StateVector| {
                    apply_two_kernel(s.amplitudes_mut(), qa, qb, &k, 1)
                })
            },
        ),
        (
            "two_swap",
            {
                let m = gates::swap();
                Box::new(move |s: &mut StateVector| s.apply_two_naive(qa, qb, &m))
            },
            {
                let k = TwoKernel::from_matrix(&gates::swap());
                Box::new(move |s: &mut StateVector| {
                    apply_two_kernel(s.amplitudes_mut(), qa, qb, &k, 1)
                })
            },
        ),
        (
            "two_dressed_swap",
            {
                let m = gates::dressed_swap(0.0, 0.0, 0.35);
                Box::new(move |s: &mut StateVector| s.apply_two_naive(qa, qb, &m))
            },
            {
                let k = TwoKernel::from_matrix(&gates::dressed_swap(0.0, 0.0, 0.35));
                Box::new(move |s: &mut StateVector| {
                    apply_two_kernel(s.amplitudes_mut(), qa, qb, &k, 1)
                })
            },
        ),
        (
            "two_canonical_general",
            {
                let m = gates::canonical(0.3, 0.2, 0.1);
                Box::new(move |s: &mut StateVector| s.apply_two_naive(qa, qb, &m))
            },
            {
                let k = TwoKernel::from_matrix(&gates::canonical(0.3, 0.2, 0.1));
                Box::new(move |s: &mut StateVector| {
                    apply_two_kernel(s.amplitudes_mut(), qa, qb, &k, 1)
                })
            },
        ),
    ];
    cases
        .into_iter()
        .map(|(name, naive, kernelized)| {
            let mut state = StateVector::plus_state(n);
            let naive_ms = median_ms(samples, || naive(&mut state));
            let mut state = StateVector::plus_state(n);
            let kernelized_ms = median_ms(samples, || kernelized(&mut state));
            KernelEntry {
                name,
                n,
                naive_ms,
                kernelized_ms,
            }
        })
        .collect()
}

/// Compiles one QAOA-REG-3 instance onto the smallest square-ish grid that
/// matches the qubit count, so the dense state covers exactly the device.
fn compiled_qaoa(n: usize, seed: u64) -> (QaoaProblem, ScheduledCircuit, Vec<(usize, usize)>) {
    let problem = QaoaProblem::random_regular(n, 3, seed);
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    // State preparation included: trajectories start from |+⟩^{⊗n}, and the
    // mapped circuit may permute qubits, so H-layers are already uniform.
    let circuit = problem.circuit(&[(gamma, beta)], false);
    let (rows, cols) = match n {
        8 => (2, 4),
        16 => (4, 4),
        18 => (3, 6),
        20 => (4, 5),
        _ => panic!("no grid shape registered for n = {n}"),
    };
    let device = Device::grid(rows, cols, TwoQubitBasis::Cnot);
    let result = TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 1,
        ..TwoQanConfig::default()
    })
    .compile(&circuit, &device)
    .expect("compilation onto the matching grid succeeds");
    let schedule = result.hardware_circuit.clone();
    // Measurement edges: follow every logical qubit from its initial
    // physical position through the routing SWAPs to its end-of-circuit
    // position.
    let mut logical_at: Vec<Option<usize>> = vec![None; device.num_qubits()];
    for l in 0..n {
        logical_at[result.initial_map.physical(l)] = Some(l);
    }
    for g in schedule.iter_gates() {
        if g.is_two_qubit() && g.kind.is_swap_like() {
            logical_at.swap(g.qubit0(), g.qubit1());
        }
    }
    let mut physical_of = vec![usize::MAX; n];
    for (p, l) in logical_at.iter().enumerate() {
        if let Some(l) = l {
            physical_of[*l] = p;
        }
    }
    let edges: Vec<(usize, usize)> = problem
        .graph()
        .edges()
        .iter()
        .map(|&(u, v)| (physical_of[u], physical_of[v]))
        .collect();
    (problem, schedule, edges)
}

fn measure_trajectories(n: usize, shots: usize, samples: usize) -> TrajectoryEntry {
    let (_, schedule, edges) = compiled_qaoa(n, 7);
    let noise = NoiseModel::from_device(&Device::montreal());
    let base = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, shots, 12345);
    let naive_ms = median_ms(samples, || {
        let sim = base.clone().with_engine(SimEngine::Naive);
        std::hint::black_box(sim.ising_cost_expectation(&schedule, &edges));
    });
    let kernelized_serial_ms = median_ms(samples, || {
        let sim = base.clone().with_parallel(false);
        std::hint::black_box(sim.ising_cost_expectation(&schedule, &edges));
    });
    let kernelized_parallel_ms = median_ms(samples, || {
        let sim = base.clone().with_parallel(true);
        std::hint::black_box(sim.ising_cost_expectation(&schedule, &edges));
    });
    TrajectoryEntry {
        workload: "qaoa_reg3_2qan_grid".into(),
        n,
        shots,
        naive_ms,
        kernelized_serial_ms,
        kernelized_parallel_ms,
    }
}

fn main() {
    let mut samples = 7usize;
    let mut out = String::from("BENCH_sim.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                samples = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--samples needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                out = args.next().expect("--out needs a path");
            }
            "--smoke" => {
                smoke = true;
            }
            other => {
                eprintln!("unknown argument {other}; supported: --samples N, --out PATH, --smoke");
                std::process::exit(2);
            }
        }
    }

    let (kernel_n, traj_n, shots) = if smoke { (8, 8, 2) } else { (20, 16, 32) };
    if smoke {
        samples = 1;
    }

    let kernel_entries = measure_kernels(kernel_n, samples);
    let trajectory = measure_trajectories(traj_n, shots, samples.min(5));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"sim_engine\",\n");
    json.push_str("  \"unit\": \"ms (median wall clock)\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, e) in kernel_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"naive_ms\": {:.4}, \"kernelized_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.n,
            e.naive_ms,
            e.kernelized_ms,
            e.naive_ms / e.kernelized_ms,
            if i + 1 == kernel_entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"trajectories\": [\n");
    let t = &trajectory;
    json.push_str(&format!(
        "    {{\"workload\": \"{}\", \"n\": {}, \"shots\": {}, \"naive_ms\": {:.3}, \"kernelized_serial_ms\": {:.3}, \"kernelized_parallel_ms\": {:.3}, \"speedup_serial\": {:.2}, \"speedup_parallel\": {:.2}}}\n",
        t.workload,
        t.n,
        t.shots,
        t.naive_ms,
        t.kernelized_serial_ms,
        t.kernelized_parallel_ms,
        t.naive_ms / t.kernelized_serial_ms,
        t.naive_ms / t.kernelized_parallel_ms,
    ));
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("writing the baseline file");
    println!("{json}");
    println!("wrote {out}");
}
