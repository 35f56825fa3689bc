//! The 2QAN compiler — the primary contribution of the reproduced paper.
//!
//! 2QAN compiles circuits for 2-local qubit Hamiltonian simulation (and
//! QAOA) onto connectivity-constrained NISQ devices by exploiting the
//! freedom to permute the exponentials of Hamiltonian terms, *whether or not
//! they commute*.  The pipeline (Fig. 2 of the paper) is:
//!
//! 1. **Circuit unitary unifying** — merge all same-pair two-local
//!    exponentials into single canonical gates (a pre-pass, §III-C),
//! 2. **Qubit mapping** — a Quadratic Assignment Problem solved with Tabu
//!    search (§III-A, [`mapping`]),
//! 3. **Permutation-aware routing** — Algorithm 1 with the three-criteria
//!    SWAP selection (§III-B, [`routing`]),
//! 4. **SWAP unitary unifying** — merge inserted SWAPs with circuit gates on
//!    the same qubit pair into "dressed SWAPs" (§III-C, part of routing),
//! 5. **Permutation-aware hybrid scheduling** — Algorithm 2, graph colouring
//!    for the initial map plus dependency-respecting ALAP for the rest
//!    (§III-D, [`scheduling`]),
//! 6. **Gate decomposition** — map application-level unitaries onto the
//!    device's native basis ([`decompose`]); because all previous passes are
//!    basis-agnostic, 2QAN targets CNOT, CZ, SYC and iSWAP devices alike.
//!
//! The [`TwoQanCompiler`] type runs the whole pipeline through
//! [`Compiler::compile`] and returns a [`CompiledOutput`] with the hardware
//! circuit, its metrics, the placements and the per-pass report.
//!
//! # Architecture
//!
//! Since the pass-pipeline refactor, the stages above are standalone
//! [`Pass`]es (`[UnifyPass, QapMappingPass, PermutationRoutingPass,
//! AlapSchedulePass, DecomposePass]`, see [`passes`]) run by a
//! [`PassManager`] over a shared [`CompilationContext`] ([`pipeline`]);
//! every run is instrumented into a [`PipelineReport`] with per-pass
//! wall-clock and gate/depth deltas.  The [`Compiler`] trait is the only
//! compile entry point of 2QAN and the `twoqan_baselines` compilers
//! (dispatch happens through `twoqan_baselines::CompilerRegistry`), and
//! [`BatchCompiler`] ([`batch`]) fans whole workload × device × compiler
//! sweeps out over a shared work-stealing [`pool::CompilePool`] with
//! deterministic result ordering; the pool is provisioned once per batch
//! run and reused by each compile's portfolio candidates and the solvers'
//! nested multi-start restarts, so a run at `--threads N` uses exactly `N`
//! workers with no nested spawning.  A standalone compile with no pool
//! installed runs its candidates on a transient pool with one worker per
//! core, provisioned by [`pool::run_indexed`].
//!
//! # Example
//!
//! ```
//! use twoqan::{Compiler, TwoQanCompiler, TwoQanConfig};
//! use twoqan_device::Device;
//! use twoqan_ham::{nnn_ising, trotterize};
//!
//! let hamiltonian = nnn_ising(8, 7);
//! let circuit = trotterize(&hamiltonian, 1, 1.0);
//! let result = TwoQanCompiler::new(TwoQanConfig::default())
//!     .compile(&circuit, &Device::montreal())
//!     .unwrap();
//! assert!(result.metrics.hardware_two_qubit_count > 0);
//! assert!(result.hardware_compatible(&Device::montreal()));
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod budget;
pub mod compiler;
pub mod decompose;
pub mod error;
pub mod fault;
pub mod hash;
pub mod mapping;
pub mod passes;
pub mod pipeline;
pub mod routing;
pub mod scheduling;

pub use twoqan_pool as pool;

pub use batch::{compile_isolated, BatchCompiler, BatchJob};
pub use budget::{CancelToken, CompileBudget, SolverBudget};
pub use compiler::{TwoQanCompiler, TwoQanConfig};
pub use error::CompileError;
pub use fault::{ChaosCompiler, FaultConfig, FaultCounts, FaultInjector};
pub use mapping::{CostModel, InitialMappingStrategy, MappingConfig, QubitMap};
pub use passes::{
    AlapSchedulePass, DecomposePass, PermutationRoutingPass, QapMappingPass, UnifyPass,
};
pub use pipeline::{
    ensure_fits, CompilationContext, CompiledOutput, Compiler, DegradationRung, Pass, PassManager,
    PassRecord, PipelineReport,
};
pub use pool::CompilePool;
pub use routing::{RoutedCircuit, RoutingConfig, RoutingStage, SwapAction};
