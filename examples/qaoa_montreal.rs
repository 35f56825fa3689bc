//! Compile a QAOA MaxCut instance onto IBMQ Montreal with every compiler in
//! the workspace and estimate the application performance (the normalised
//! cost ⟨C⟩/C_min of Fig. 10) under the calibrated Montreal noise model.
//!
//! Run with `cargo run --release --example qaoa_montreal`.

use twoqan_repro::prelude::*;
use twoqan_repro::twoqan_sim::{evaluate_qaoa, optimize_angles};

fn main() {
    let num_qubits = 12;
    let problem = QaoaProblem::random_regular(num_qubits, 3, 7);
    let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
    let layer = problem.circuit(&[(gamma, beta)], false);
    let device = Device::montreal();
    let noise = NoiseModel::from_device(&device);
    let params = optimize_angles(&problem, 1, 10);

    println!(
        "QAOA-REG-3, n = {num_qubits}: {} cost terms, MaxCut = {}",
        problem.num_edges(),
        problem.max_cut_brute_force()
    );
    println!(
        "\n{:<14} {:>6} {:>8} {:>9} {:>10} {:>12}",
        "compiler", "SWAPs", "dressed", "CNOTs", "fidelity", "E(C)/Cmin"
    );

    // 2QAN.
    let two_qan = TwoQanCompiler::new(TwoQanConfig::default())
        .compile(&layer, &device)
        .expect("fits on Montreal");
    let eval = evaluate_qaoa(&problem, &params, &two_qan.metrics, &noise);
    println!(
        "{:<14} {:>6} {:>8} {:>9} {:>10.3} {:>12.3}",
        "2QAN",
        two_qan.swap_count(),
        two_qan.metrics.dressed_swap_count,
        two_qan.metrics.hardware_two_qubit_count,
        eval.fidelity,
        eval.noisy_normalized
    );

    // Baselines.
    let baselines: Vec<(&str, twoqan_repro::twoqan_circuit::HardwareMetrics)> = vec![
        (
            "tket-like",
            GenericCompiler::tket_like()
                .compile(&layer, &device)
                .expect("QAOA layer fits on Montreal")
                .metrics,
        ),
        (
            "Qiskit-like",
            GenericCompiler::qiskit_like()
                .compile(&layer, &device)
                .expect("QAOA layer fits on Montreal")
                .metrics,
        ),
        (
            "IC-QAOA",
            IcQaoaCompiler::default()
                .compile(&layer, &device)
                .expect("QAOA layer fits on Montreal")
                .metrics,
        ),
        (
            "NoMap",
            NoMapCompiler::new()
                .compile(&layer, &device)
                .expect("QAOA layer fits on Montreal")
                .metrics,
        ),
    ];
    for (name, metrics) in baselines {
        let eval = evaluate_qaoa(&problem, &params, &metrics, &noise);
        println!(
            "{:<14} {:>6} {:>8} {:>9} {:>10.3} {:>12.3}",
            name,
            metrics.swap_count,
            metrics.dressed_swap_count,
            metrics.hardware_two_qubit_count,
            eval.fidelity,
            eval.noisy_normalized
        );
    }

    println!("\n(The NoMap row ignores connectivity and is the overhead reference, not an executable circuit.)");
}
