//! Single-qubit Pauli operators and their dense matrices.
//!
//! 2-local qubit Hamiltonians (Eq. 3 of the paper) are sums of one- and
//! two-qubit Pauli terms; the Hamiltonian crate names each term's operators
//! with [`Pauli`], and the trajectory simulator draws its Pauli errors from
//! their matrices.

use crate::complex::{c64, Complex};
use crate::matrix::Matrix2;

/// A single-qubit Pauli operator (including the identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// Dense 2×2 matrix of the operator.
    pub fn matrix(self) -> Matrix2 {
        match self {
            Pauli::I => Matrix2::identity(),
            Pauli::X => Matrix2::new([
                [Complex::zero(), Complex::one()],
                [Complex::one(), Complex::zero()],
            ]),
            Pauli::Y => Matrix2::new([
                [Complex::zero(), c64(0.0, -1.0)],
                [c64(0.0, 1.0), Complex::zero()],
            ]),
            Pauli::Z => Matrix2::new([
                [Complex::one(), Complex::zero()],
                [Complex::zero(), c64(-1.0, 0.0)],
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::matrix::Matrix4;

    /// The exponential `exp(i θ P⊗Q)` of a two-qubit Pauli product, as a dense
    /// 4×4 matrix (`P` on the most-significant qubit).
    ///
    /// Because `(P⊗Q)² = I`, the exponential is `cos(θ)·I + i·sin(θ)·P⊗Q`.
    fn exp_two_qubit_pauli(theta: f64, p: Pauli, q: Pauli) -> Matrix4 {
        let pq = p.matrix().kron(&q.matrix());
        Matrix4::identity()
            .scale(c64(theta.cos(), 0.0))
            .add(&pq.scale(c64(0.0, theta.sin())))
    }

    /// The exponential `exp(i θ P)` of a single-qubit Pauli, as a dense 2×2
    /// matrix.
    fn exp_single_qubit_pauli(theta: f64, p: Pauli) -> Matrix2 {
        let m = p.matrix();
        Matrix2::identity()
            .scale(c64(theta.cos(), 0.0))
            .add(&m.scale(c64(0.0, theta.sin())))
    }

    #[test]
    fn pauli_matrices_square_to_identity() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            let m = p.matrix();
            assert!(
                m.mul(&m).approx_eq(&Matrix2::identity(), 1e-12),
                "{p:?}² ≠ I"
            );
            assert!(m.is_unitary(1e-12));
        }
    }

    #[test]
    fn exp_zz_matches_canonical_gate() {
        let theta = 0.37;
        let direct = exp_two_qubit_pauli(theta, Pauli::Z, Pauli::Z);
        let canonical = gates::canonical(0.0, 0.0, theta);
        assert!(direct.approx_eq(&canonical, 1e-12));
    }

    #[test]
    fn exp_single_pauli_matches_rotation() {
        // exp(iθX) = Rx(-2θ) (Rx(φ) = exp(-i φ X / 2)).
        let theta = 0.81;
        let lhs = exp_single_qubit_pauli(theta, Pauli::X);
        let rhs = gates::rx(-2.0 * theta);
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn exp_commuting_terms_compose_additively() {
        // XX, YY, ZZ on the same pair commute, so the product of their
        // exponentials equals the exponential of the sum.
        let (a, b, c) = (0.2, 0.5, -0.3);
        let prod = exp_two_qubit_pauli(a, Pauli::X, Pauli::X)
            .mul(&exp_two_qubit_pauli(b, Pauli::Y, Pauli::Y))
            .mul(&exp_two_qubit_pauli(c, Pauli::Z, Pauli::Z));
        let direct = gates::canonical(a, b, c);
        assert!(prod.approx_eq(&direct, 1e-10));
    }
}
