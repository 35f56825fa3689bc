//! Equivalence checking and conformance fuzzing for the 2QAN workspace.
//!
//! Nothing in a compilation-metrics benchmark notices when a router or
//! scheduler silently corrupts the circuit it compiles — the SWAP counts
//! still look plausible.  This crate closes that gap with an end-to-end
//! verification subsystem built on the kernelized statevector engine:
//!
//! * [`replay`] — walks a compiled hardware circuit while tracking the
//!   layout permutation its SWAPs induce, recovering the *logical* gate
//!   sequence it implements;
//! * [`equivalence`] — the permutation-aware statevector checker: runs the
//!   input and compiled circuits from identical random product states,
//!   undoes the final layout permutation and compares amplitudes up to a
//!   global phase at `≤ 1e-10`;
//! * [`invariants`] — exact structural checks: connectivity, moment
//!   validity, gate-count accounting and (for order-respecting compilers)
//!   dependency-DAG preservation;
//! * [`workloads`] — random 2-local Hamiltonians (Heisenberg / XY /
//!   transverse-Ising / QAOA) on random graphs and random device topologies
//!   (grid / heavy-hex-like / random-connected / linear);
//! * [`fuzz`] — the seeded harness that compiles every random workload
//!   through **all** compilers (2QAN + the four baselines) and cross-checks
//!   every contract, producing a conformance report.
//!
//! Run the conformance suite with the `bench_verify` binary:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_verify            # full, ≥200 cases
//! cargo run --release -p twoqan-bench --bin bench_verify -- --smoke # CI subset
//! ```
//!
//! # Example
//!
//! ```
//! use twoqan::{Compiler, TwoQanCompiler, TwoQanConfig};
//! use twoqan_device::{Device, TwoQubitBasis};
//! use twoqan_ham::{nnn_heisenberg, trotter_step};
//! use twoqan_verify::{EquivalenceChecker, EquivalenceMode};
//!
//! let circuit = trotter_step(&nnn_heisenberg(6, 1), 1.0);
//! let device = Device::grid(2, 4, TwoQubitBasis::Cnot);
//! let result = TwoQanCompiler::new(TwoQanConfig::default())
//!     .compile(&circuit, &device)
//!     .unwrap();
//! let report = EquivalenceChecker::default()
//!     .check(
//!         &circuit.unify_same_pair_gates(),
//!         &result.hardware_circuit,
//!         &result.initial_placement,
//!         EquivalenceMode::TermPermutation,
//!         result.final_placement.as_deref(),
//!     )
//!     .unwrap();
//! assert!(report.max_amplitude_error <= 1e-10);
//! ```

#![deny(missing_docs)]

pub mod equivalence;
pub mod error;
pub mod fuzz;
pub mod invariants;
pub mod replay;
pub mod workloads;

pub use equivalence::{all_gates_commute, EquivalenceChecker, EquivalenceMode, EquivalenceReport};
pub use error::VerifyError;
pub use fuzz::{
    run_fuzz, verify_one, verify_output, CaseResult, ConformanceReport, FuzzConfig, VerifiedCase,
};
pub use invariants::{check_order_preserved, check_structural, StructuralReport};
pub use replay::{check_gate_multiset, extract_logical_replay, gate_signature, LogicalReplay};
pub use workloads::{
    heavy_hex_like_graph, random_connected_graph, random_device, random_workload,
    RandomTopologyKind, RandomWorkload, RandomWorkloadKind,
};
