//! Quantum circuit intermediate representation for the 2QAN reproduction.
//!
//! The 2QAN compiler performs its permutation-aware passes on circuits whose
//! two-qubit operations are *application-level unitaries* — exponentials of
//! two-local Pauli terms (`Can(a,b,c) = exp(i(a·XX + b·YY + c·ZZ))`), SWAPs,
//! and "dressed SWAPs" (a SWAP merged with such an exponential).  Gate
//! decomposition into a hardware basis happens only at the very end, so the
//! IR must carry these unitaries symbolically; this crate provides that IR:
//!
//! * [`Gate`] / [`GateKind`] — single- and two-qubit operations, including
//!   the application-level unitaries and the hardware gates of the three
//!   devices evaluated in the paper,
//! * [`Circuit`] — an ordered list of gates over `n` qubits,
//! * [`dag::DependencyDag`] — the gate-order dependency structure used by
//!   order-respecting (generic) compilers,
//! * [`ScheduledCircuit`] / [`Moment`] — a circuit arranged into parallel
//!   cycles, with depth metrics,
//! * [`metrics::HardwareMetrics`] — gate counts and depths after decomposing
//!   every two-qubit unitary into a native basis using the Weyl-class cost
//!   model from `twoqan-math`.

#![deny(missing_docs)]

pub mod circuit;
pub mod dag;
pub mod gate;
pub mod matrix_cache;
pub mod metrics;
pub mod moment;
pub mod timeline;

pub use circuit::Circuit;
pub use dag::DependencyDag;
pub use gate::{Gate, GateKind};
pub use matrix_cache::MatrixCache;
pub use metrics::HardwareMetrics;
pub use moment::{Moment, ScheduledCircuit};
pub use timeline::{TimedGate, Timeline};

/// Identifier of a qubit (circuit/logical qubits before mapping, hardware
/// qubits after mapping — both are dense indices starting at 0).
pub type Qubit = usize;
