//! Benchmark harness reproducing every table and figure of the 2QAN paper.
//!
//! Each figure/table has a thin binary under `src/bin/` that calls into the
//! shared machinery here:
//!
//! * [`workloads`] — the benchmark circuit generators (NNN Ising/XY/
//!   Heisenberg, Heisenberg lattices, QAOA-REG-d),
//! * [`compilers`] — a uniform interface over 2QAN and all baseline
//!   compilers,
//! * [`figures`] — the per-figure sweeps (compilation metrics per qubit
//!   count per compiler) and the Fig. 10 application-performance evaluation,
//! * [`report`] — plain-text table printing and CSV output under
//!   `results/`.
//!
//! Run e.g. `cargo run --release -p twoqan-bench --bin fig09_montreal` to
//! regenerate the Montreal panel of the evaluation; every binary accepts
//! `--quick` to run a reduced sweep.

#![deny(missing_docs)]

pub mod compilers;
pub mod figures;
pub mod noise;
pub mod report;
pub mod workloads;

pub use compilers::{CompilerKind, MetricsRow};
pub use report::{write_csv, Table};
pub use workloads::{Workload, WorkloadKind};
