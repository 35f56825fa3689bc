//! Criterion benchmarks of the 2QAN compilation passes (the §V-D
//! runtime/scalability analysis): qubit mapping (Tabu search), routing,
//! scheduling and the end-to-end pipeline, as a function of problem size,
//! plus a 2QAN-vs-baseline comparison at a fixed size.
//!
//! Sizes n = 10/20/40 run on the 54-qubit Sycamore device; n = 80 runs on a
//! 9×9 grid (81 qubits), the smallest square grid that fits.  The saved
//! baseline in `BENCH_compiler.json` (regenerated by the `bench_baseline`
//! binary) tracks the same pass/size matrix across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use twoqan::mapping::{initial_mapping, MappingConfig};
use twoqan::routing::{route, RoutingConfig};
use twoqan::scheduling::{schedule, SchedulingStrategy};
use twoqan::{SolverBudget, TwoQanCompiler, TwoQanConfig};
use twoqan_baselines::GenericCompiler;
use twoqan_bench::{scaling_device, SCALING_SIZES};
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, trotter_step, QaoaProblem};

fn bench_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("qubit_mapping_tabu");
    group.sample_size(10);
    for &n in &SCALING_SIZES {
        let device = scaling_device(n);
        let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                initial_mapping(
                    &circuit,
                    &device,
                    &MappingConfig::default(),
                    &SolverBudget::unlimited(),
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_routing_and_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_and_scheduling");
    group.sample_size(10);
    for &n in &SCALING_SIZES {
        let device = scaling_device(n);
        let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let map = initial_mapping(
            &circuit,
            &device,
            &MappingConfig::default(),
            &SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("routing", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                route(&circuit, &device, &map, &RoutingConfig::default(), &mut rng).unwrap()
            })
        });
        let routed = {
            let mut rng = StdRng::seed_from_u64(5);
            route(&circuit, &device, &map, &RoutingConfig::default(), &mut rng).unwrap()
        };
        group.bench_with_input(BenchmarkId::new("scheduling", n), &n, |b, _| {
            b.iter(|| schedule(&routed, &device, SchedulingStrategy::Hybrid))
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_qaoa20_montreal");
    group.sample_size(10);
    let device = Device::montreal();
    let problem = QaoaProblem::random_regular(20, 3, 9);
    let circuit = problem.circuit(&[QaoaProblem::optimal_p1_angles_regular3()], false);
    group.bench_function("2qan", |b| {
        b.iter(|| {
            TwoQanCompiler::new(TwoQanConfig {
                mapping_trials: 1,
                ..TwoQanConfig::default()
            })
            .compile(&circuit, &device)
            .unwrap()
        })
    });
    group.bench_function("tket_like", |b| {
        b.iter(|| {
            GenericCompiler::tket_like()
                .compile(&circuit, &device)
                .unwrap()
        })
    });
    group.bench_function("qiskit_like", |b| {
        b.iter(|| {
            GenericCompiler::qiskit_like()
                .compile(&circuit, &device)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mapping,
    bench_routing_and_scheduling,
    bench_end_to_end
);
criterion_main!(benches);
