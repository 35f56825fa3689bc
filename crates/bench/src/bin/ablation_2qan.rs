//! Ablation study of the 2QAN design choices (not a paper figure, but the
//! natural companion to §III): how much each permutation-aware ingredient
//! contributes.  Configurations compared on the same workloads/devices:
//!
//! * **full 2QAN** — Tabu mapping, dressed SWAPs, hybrid scheduler,
//! * **no dressing** — SWAP unitary unifying disabled,
//! * **order-respecting scheduling** — hybrid scheduler replaced by the
//!   stage-order (generic) scheduler,
//! * **SA mapping** / **trivial mapping** — the initial-placement
//!   alternatives mentioned in §III-A.
//!
//! Usage: `cargo run --release -p twoqan-bench --bin ablation_2qan [--quick]`

use twoqan::mapping::InitialMappingStrategy;
use twoqan::scheduling::SchedulingStrategy;
use twoqan::{Compiler, TwoQanCompiler, TwoQanConfig};
use twoqan_bench::figures::quick_mode;
use twoqan_bench::report::Table;
use twoqan_bench::workloads::{Workload, WorkloadKind};
use twoqan_device::Device;

fn variants() -> Vec<(&'static str, TwoQanConfig)> {
    let base = TwoQanConfig::default();
    vec![
        ("full 2QAN", base.clone()),
        (
            "no dressed SWAPs",
            TwoQanConfig {
                enable_dressing: false,
                ..base.clone()
            },
        ),
        (
            "order-respecting sched.",
            TwoQanConfig {
                scheduling: SchedulingStrategy::OrderRespecting,
                ..base.clone()
            },
        ),
        (
            "SA mapping",
            TwoQanConfig {
                mapping_strategy: InitialMappingStrategy::SimulatedAnnealing,
                ..base.clone()
            },
        ),
        (
            "trivial mapping",
            TwoQanConfig {
                mapping_strategy: InitialMappingStrategy::Trivial,
                mapping_trials: 1,
                ..base
            },
        ),
    ]
}

fn main() {
    let quick = quick_mode();
    let cases: Vec<(WorkloadKind, usize, Device)> = if quick {
        vec![
            (WorkloadKind::NnnHeisenberg, 12, Device::montreal()),
            (WorkloadKind::QaoaRegular(3), 12, Device::montreal()),
        ]
    } else {
        vec![
            (WorkloadKind::NnnHeisenberg, 16, Device::montreal()),
            (WorkloadKind::NnnHeisenberg, 24, Device::sycamore()),
            (WorkloadKind::NnnXy, 16, Device::aspen()),
            (WorkloadKind::QaoaRegular(3), 16, Device::montreal()),
            (WorkloadKind::QaoaRegular(3), 20, Device::montreal()),
        ]
    };

    let mut table = Table::new(
        "Ablation of the 2QAN design choices",
        &[
            "workload", "device", "variant", "SWAPs", "dressed", "2q gates", "2q depth",
        ],
    );
    for (kind, n, device) in cases {
        let workload = Workload::generate(kind, n, 0);
        for (name, config) in variants() {
            let result = TwoQanCompiler::new(config)
                .compile(&workload.circuit, &device)
                .expect("ablation workloads fit on their devices");
            assert!(result.hardware_compatible(&device));
            table.push_row(vec![
                format!("{} (n={n})", kind.name()),
                device.name().to_string(),
                name.to_string(),
                result.swap_count().to_string(),
                result.metrics.dressed_swap_count.to_string(),
                result.metrics.hardware_two_qubit_count.to_string(),
                result.metrics.hardware_two_qubit_depth.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "Expected pattern: disabling dressing raises the gate count, the order-respecting\n\
         scheduler raises the depth, and weaker mapping strategies raise the SWAP count."
    );
}
