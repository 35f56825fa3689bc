//! Baseline compilers the paper compares 2QAN against.
//!
//! The original evaluation uses Qiskit (optimisation level 3), t|ket⟩
//! ('FullPass' / 'LinePlacement'), the IC-QAOA compiler of Alam et al. and
//! the Paulihedral compiler.  None of those are available as Rust libraries,
//! so this crate implements comparators from scratch that belong to the same
//! behavioural classes (see DESIGN.md §2 for the substitution argument):
//!
//! * [`NoMapCompiler`] — the connectivity-unconstrained baseline ("NoMap")
//!   that defines compilation *overhead*,
//! * [`GenericCompiler`] — an order-respecting mapper/router/scheduler with
//!   two configurations: [`GenericConfig::qiskit_like`] (trivial placement,
//!   no look-ahead) and [`GenericConfig::tket_like`] (line placement,
//!   look-ahead swap selection),
//! * [`IcQaoaCompiler`] — a commutation-aware compiler for QAOA-style
//!   circuits (it may reorder commuting ZZ terms but has no unitary
//!   unifying and no permutation-aware scheduling),
//! * [`PaulihedralCompiler`] — a block-ordered Hamiltonian-simulation
//!   compiler (term-scheduling flexibility, order-respecting routing, no
//!   dressed SWAPs).
//!
//! All baselines receive the same circuit-unified input as 2QAN (the paper
//! pre-processes the inputs of Qiskit and t|ket⟩ the same way).
//!
//! Every baseline is expressed as a pass pipeline over the shared
//! `twoqan::pipeline` framework (see [`passes`]), compiles only through
//! `twoqan::Compiler::compile` into a `twoqan::CompiledOutput`, and is
//! registered — together with 2QAN itself — in the [`CompilerRegistry`],
//! the single dispatch point benchmark and verification code constructs
//! compilers through.

#![deny(missing_docs)]

pub mod generic;
pub mod ic_qaoa;
pub mod nomap;
pub mod passes;
pub mod paulihedral;
pub mod registry;

pub use generic::{GenericCompiler, GenericConfig};
pub use ic_qaoa::IcQaoaCompiler;
pub use nomap::NoMapCompiler;
pub use passes::{
    AnnealingPlacementPass, AsapSchedulePass, ColorSchedulePass, CommutationRoutingPass,
    OrderedRoutingPass, PlacementPass,
};
pub use paulihedral::PaulihedralCompiler;
pub use registry::{CompilerRegistry, RegistryOptions};
