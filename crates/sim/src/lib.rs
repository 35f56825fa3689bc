//! Simulation backend for the 2QAN reproduction.
//!
//! The paper's Fig. 10 runs QAOA benchmarks on the real IBMQ Montreal device
//! and measures the normalised cost `⟨C⟩ / C_min`.  Real hardware is not
//! available here, so this crate substitutes a simulation for it: an exact
//! state-vector simulator for the noiseless expectation values, plus a
//! depolarizing/readout/decoherence noise model calibrated with the
//! Montreal figures quoted in §IV, and a stochastic Pauli-error trajectory
//! sampler used to validate the analytic model.
//!
//! The key property the substitution must preserve is the *monotone*
//! relationship between compilation quality (fewer native two-qubit gates,
//! shallower circuits) and application performance — which is exactly what a
//! calibrated depolarizing model yields.
//!
//! Gate application runs on the kernels of [`kernels`]: stride-enumeration
//! kernels with specialized fast paths for the diagonal / swap-like gate
//! classes that dominate 2QAN workloads, per-kind matrix caching, and
//! deterministic amplitude-chunk / shot-level parallelism on the shared
//! compile pool (`twoqan_pool`; bit-identical results for any worker
//! count).  The naive branch-per-index loops and the serial trajectory
//! estimator they replaced are test oracles only: the `kernels` and
//! `trajectories` test modules and the workspace property suite compare
//! against them.  See `BENCHMARKS.md` § Simulation for the perf history.

#![deny(missing_docs)]

pub mod kernels;
pub mod noise;
pub mod qaoa_eval;
mod simd;
pub mod statevector;
pub mod trajectories;

pub use kernels::{CompiledCircuit, CompiledOp, SingleKernel, TwoKernel};
pub use noise::{EspBreakdown, NoiseModel, TargetNoiseModel};
pub use qaoa_eval::{evaluate_qaoa, optimize_angles, QaoaEvaluation};
pub use statevector::StateVector;
pub use trajectories::{IsingCostTable, TrajectorySimulator};
