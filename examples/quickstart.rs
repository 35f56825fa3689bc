//! Quickstart: compile one Trotter step of an NNN Heisenberg model onto the
//! IBMQ Montreal device and print the compilation metrics.
//!
//! Run with `cargo run --release --example quickstart`.

use twoqan_repro::prelude::*;

fn main() {
    // 1. Build the application: a 12-qubit NNN Heisenberg Hamiltonian and
    //    the circuit of its first Trotter step.
    let hamiltonian = nnn_heisenberg(12, 42);
    let circuit = trotterize(&hamiltonian, 1, 1.0);
    println!(
        "problem: {} qubits, {} two-qubit operators, {} single-qubit rotations",
        circuit.num_qubits(),
        circuit.two_qubit_gate_count(),
        circuit.single_qubit_gate_count()
    );

    // 2. Pick a target device.
    let device = Device::montreal();
    println!(
        "device: {} ({} qubits, native two-qubit gate {})",
        device.name(),
        device.num_qubits(),
        device.default_basis()
    );

    // 3. Compile with 2QAN.
    let compiler = TwoQanCompiler::new(TwoQanConfig::default());
    let result = compiler
        .compile(&circuit, &device)
        .expect("the 12-qubit model fits on the 27-qubit device");
    assert!(result.hardware_compatible(&device));

    // 4. Inspect the result.
    println!("\n2QAN compilation result:");
    println!("  inserted SWAPs          : {}", result.swap_count());
    println!(
        "  dressed SWAPs (merged)  : {}",
        result.metrics.dressed_swap_count
    );
    println!(
        "  hardware {} gates     : {}",
        result.basis, result.metrics.hardware_two_qubit_count
    );
    println!(
        "  two-qubit depth         : {}",
        result.metrics.hardware_two_qubit_depth
    );
    println!(
        "  total depth (estimate)  : {}",
        result.metrics.total_depth_estimate
    );

    // 5. Compare against the connectivity-unconstrained baseline to see the
    //    compilation overhead.
    let baseline = NoMapCompiler::new()
        .compile(&circuit, &device)
        .expect("NoMap only needs the circuit to fit the device");
    println!("\nNoMap baseline (all-to-all connectivity):");
    println!(
        "  hardware {} gates     : {}",
        baseline.basis, baseline.metrics.hardware_two_qubit_count
    );
    println!(
        "  two-qubit depth         : {}",
        baseline.metrics.hardware_two_qubit_depth
    );
    println!(
        "\ngate-count overhead of the mapped circuit: {} extra {} gates",
        result.metrics.hardware_two_qubit_count as i64
            - baseline.metrics.hardware_two_qubit_count as i64,
        result.basis
    );
}
