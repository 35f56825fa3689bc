//! Graph algorithms and combinatorial-optimisation substrates for the 2QAN
//! reproduction.
//!
//! The 2QAN compiler relies on a handful of classical algorithms:
//!
//! * all-pairs shortest-path distances between hardware qubits
//!   (Floyd–Warshall, §III-A of the paper),
//! * greedy graph colouring for scheduling gates without dependencies
//!   (§III-D, the paper uses NetworkX's default greedy strategy),
//! * random d-regular graph generation for the QAOA-REG-d benchmarks
//!   (§IV), and
//! * the Quadratic Assignment Problem formulation of initial qubit mapping,
//!   solved with Tabu search (§III-A) — simulated annealing is provided as
//!   the alternative the paper mentions.
//!
//! All of these are implemented here from scratch so the workspace has no
//! external graph/optimisation dependencies.
//!
//! The two QAP solvers share one signature,
//! `solver(problem, config, warm, budget, rng)` — [`tabu_search`] and
//! [`simulated_annealing`].  Each runs `config.restarts` seeded restarts
//! through [`twoqan_pool::run_indexed`] (on the installed compile pool, or
//! on a transient one) and keeps the best; `warm: Some(assignment)` starts
//! restart slot 0 from a known placement, and `budget` is a cooperative
//! [`SolverBudget`] ([`SolverBudget::unlimited`] for an unbounded search).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod budget;
pub mod coloring;
pub mod distance;
pub mod graph;
pub mod qap;
pub mod random_regular;
mod simd;
mod spare;
pub mod tabu;
pub mod weighted;

pub use annealing::{simulated_annealing, AnnealingConfig, AnnealingResult};
pub use budget::{CancelToken, SolverBudget};
pub use coloring::{greedy_coloring, ColoringResult};
pub use distance::DistanceMatrix;
pub use graph::Graph;
pub use qap::QapProblem;
pub use random_regular::{random_regular_graph, try_random_regular_graph, RandomRegularError};
pub use tabu::{select_best_move, tabu_search, DeltaTable, ScanOutcome, TabuConfig, TabuResult};
pub use weighted::WeightedDistanceMatrix;

#[cfg(test)]
pub(crate) mod tests {
    /// Runs `f` with a 1-worker pool installed, so every restart fan-out
    /// inside it runs inline on the calling thread: the serial reference of
    /// the solvers' determinism tests.
    pub(crate) fn serially<T>(f: impl FnOnce() -> T) -> T {
        let pool = twoqan_pool::CompilePool::new(1);
        let _guard = pool.install();
        f()
    }
}
