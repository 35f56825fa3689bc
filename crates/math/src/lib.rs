//! Linear-algebra and two-qubit-gate theory substrate for the 2QAN
//! reproduction.
//!
//! The 2QAN compiler ([paper](https://arxiv.org/abs/2108.02099)) performs its
//! permutation-aware optimisation passes *before* gate decomposition, so the
//! circuit intermediate representation carries application-level two-qubit
//! unitaries (exponentials of two-local Pauli terms, SWAPs merged with such
//! exponentials, …).  Translating those unitaries into hardware gate counts
//! for different native bases (CNOT, CZ, SYC, iSWAP) requires the canonical
//! ("Weyl chamber") classification of two-qubit gates.  This crate provides:
//!
//! * [`Complex`] — a minimal `f64` complex number type,
//! * [`Matrix2`] / [`Matrix4`] — dense 2×2 and 4×4 complex matrices,
//! * [`pauli`] — single-qubit Pauli operators and their matrices,
//! * [`gates`] — the standard gate matrices used throughout the workspace,
//! * [`weyl`] — Weyl (canonical) coordinates and the local-equivalence
//!   classification of two-qubit unitaries,
//! * [`cost`] — per-basis two-qubit gate-cost models used by the gate
//!   decomposition pass and the benchmark harness,
//! * [`synthesis`] — explicit CNOT/CZ-basis synthesis of canonical gates
//!   (the identities of Fig. 5 in the paper).
//!
//! # Example
//!
//! ```
//! use twoqan_math::{gates, weyl::WeylCoordinates, cost::TwoQubitBasisCost};
//!
//! // A SWAP merged with exp(i θ ZZ) (a "dressed SWAP") still needs only
//! // three CNOTs, exactly as Fig. 5 of the paper shows.
//! let dressed = gates::swap().mul(&gates::canonical(0.0, 0.0, 0.3));
//! let coords = WeylCoordinates::of(&dressed);
//! assert_eq!(TwoQubitBasisCost::Cnot.gate_count(&coords), 3);
//! ```

#![deny(missing_docs)]

pub mod complex;
pub mod cost;
pub mod gates;
pub mod matrix;
pub mod pauli;
pub mod synthesis;
pub mod weyl;

pub use complex::Complex;
pub use matrix::{Matrix2, Matrix4};

/// Numerical tolerance used for approximate floating-point comparisons across
/// the workspace (unitarity checks, Weyl-chamber classification, …).
pub const EPSILON: f64 = 1e-9;

/// A slightly looser tolerance for quantities accumulated over many
/// floating-point operations (eigenvalue phases, matrix products, …).
pub const LOOSE_EPSILON: f64 = 1e-6;

/// Returns `true` if two floating point numbers are within [`EPSILON`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() < EPSILON
}

/// Reduces an angle to the half-open interval `[0, period)`.
#[inline]
pub fn wrap_angle(theta: f64, period: f64) -> f64 {
    let mut t = theta % period;
    if t < 0.0 {
        t += period;
    }
    // Guard against `-1e-18 % p == p` style round-off.
    if (t - period).abs() < 1e-15 {
        t = 0.0;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_angle_wraps_into_period() {
        assert!(approx_eq(
            wrap_angle(3.5 * std::f64::consts::PI, std::f64::consts::PI),
            0.5 * std::f64::consts::PI
        ));
        assert!(approx_eq(wrap_angle(-0.25, 1.0), 0.75));
        assert!(approx_eq(wrap_angle(0.0, 1.0), 0.0));
    }

    #[test]
    fn approx_eq_tolerates_tiny_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }
}
