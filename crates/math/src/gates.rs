//! Standard single- and two-qubit gate matrices.
//!
//! Matrix conventions: basis order `|00⟩, |01⟩, |10⟩, |11⟩` with the *first*
//! qubit as the most significant bit; rotation gates follow the usual
//! `R_P(θ) = exp(-i θ P / 2)` convention.

use crate::complex::{c64, Complex};
use crate::matrix::{Matrix2, Matrix4};
use std::f64::consts::{FRAC_1_SQRT_2, PI};

// ------------------------------------------------------------------------
// Single-qubit gates
// ------------------------------------------------------------------------

/// Pauli X.
pub fn pauli_x() -> Matrix2 {
    Matrix2::new([
        [Complex::zero(), Complex::one()],
        [Complex::one(), Complex::zero()],
    ])
}

/// Pauli Y.
pub fn pauli_y() -> Matrix2 {
    Matrix2::new([
        [Complex::zero(), c64(0.0, -1.0)],
        [c64(0.0, 1.0), Complex::zero()],
    ])
}

/// Pauli Z.
pub fn pauli_z() -> Matrix2 {
    Matrix2::new([
        [Complex::one(), Complex::zero()],
        [Complex::zero(), c64(-1.0, 0.0)],
    ])
}

/// Hadamard gate.
pub fn hadamard() -> Matrix2 {
    Matrix2::from_real([
        [FRAC_1_SQRT_2, FRAC_1_SQRT_2],
        [FRAC_1_SQRT_2, -FRAC_1_SQRT_2],
    ])
}

/// Phase gate S = diag(1, i).
pub fn s_gate() -> Matrix2 {
    Matrix2::new([
        [Complex::one(), Complex::zero()],
        [Complex::zero(), Complex::i()],
    ])
}

/// Rotation about X: `Rx(θ) = exp(-i θ X / 2)`.
pub fn rx(theta: f64) -> Matrix2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Matrix2::new([[c64(c, 0.0), c64(0.0, -s)], [c64(0.0, -s), c64(c, 0.0)]])
}

/// Rotation about Y: `Ry(θ) = exp(-i θ Y / 2)`.
pub fn ry(theta: f64) -> Matrix2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Matrix2::new([[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]])
}

/// Rotation about Z: `Rz(θ) = exp(-i θ Z / 2) = diag(e^{-iθ/2}, e^{iθ/2})`.
pub fn rz(theta: f64) -> Matrix2 {
    Matrix2::new([
        [Complex::cis(-theta / 2.0), Complex::zero()],
        [Complex::zero(), Complex::cis(theta / 2.0)],
    ])
}

/// The general single-qubit unitary
/// `U3(θ, φ, λ) = Rz(φ) Ry(θ) Rz(λ)` up to global phase (OpenQASM convention).
pub fn u3(theta: f64, phi: f64, lambda: f64) -> Matrix2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Matrix2::new([
        [c64(c, 0.0), Complex::cis(lambda).scale(-s)],
        [
            Complex::cis(phi).scale(s),
            Complex::cis(phi + lambda).scale(c),
        ],
    ])
}

// ------------------------------------------------------------------------
// Two-qubit gates
// ------------------------------------------------------------------------

/// CNOT with the first (most-significant) qubit as control.
pub fn cnot() -> Matrix4 {
    Matrix4::from_real([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
}

/// Controlled-Z (symmetric in its qubits).
pub fn cz() -> Matrix4 {
    Matrix4::diagonal([
        Complex::one(),
        Complex::one(),
        Complex::one(),
        c64(-1.0, 0.0),
    ])
}

/// SWAP gate.
pub fn swap() -> Matrix4 {
    Matrix4::from_real([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
}

/// iSWAP gate: `|01⟩ → i|10⟩`, `|10⟩ → i|01⟩` (the Rigetti Aspen native gate).
pub fn iswap() -> Matrix4 {
    let mut m = Matrix4::zero();
    m.data[0][0] = Complex::one();
    m.data[3][3] = Complex::one();
    m.data[1][2] = Complex::i();
    m.data[2][1] = Complex::i();
    m
}

/// The `fSim(θ, φ)` gate family: an iSWAP-like interaction of angle θ with a
/// controlled phase φ on `|11⟩`.
pub fn fsim(theta: f64, phi: f64) -> Matrix4 {
    let mut m = Matrix4::zero();
    m.data[0][0] = Complex::one();
    m.data[1][1] = c64(theta.cos(), 0.0);
    m.data[2][2] = c64(theta.cos(), 0.0);
    m.data[1][2] = c64(0.0, -theta.sin());
    m.data[2][1] = c64(0.0, -theta.sin());
    m.data[3][3] = Complex::cis(-phi);
    m
}

/// The Google Sycamore gate, `SYC = fSim(π/2, π/6)`.
///
/// Note: the matrix printed in Fig. 1 of the paper contains `1/√2` entries
/// that belong to `√iSWAP`; the Sycamore two-qubit gate used in the
/// evaluation is the standard `fSim(π/2, π/6)` gate, which is what this
/// function returns.
pub fn syc() -> Matrix4 {
    fsim(PI / 2.0, PI / 6.0)
}

/// The canonical (non-local) two-qubit gate
/// `Can(a, b, c) = exp(i (a·XX + b·YY + c·ZZ))`.
///
/// All application-level two-qubit unitaries produced by the 2QAN pipeline
/// are of this form (possibly composed with SWAP, which is itself
/// `e^{-iπ/4}·Can(π/4, π/4, π/4)`).
pub fn canonical(a: f64, b: f64, c: f64) -> Matrix4 {
    // XX + YY + ZZ is block diagonal over {|00>,|11>} and {|01>,|10>}:
    //   span{|00>,|11>}: c·I + (a−b)·σx
    //   span{|01>,|10>}: −c·I + (a+b)·σx
    // exp(i(d·I + e·σx)) = e^{id}(cos e · I + i sin e · σx).
    let mut m = Matrix4::zero();
    let outer_phase = Complex::cis(c);
    let inner_phase = Complex::cis(-c);
    let (amb, apb) = (a - b, a + b);
    m.data[0][0] = outer_phase.scale(amb.cos());
    m.data[3][3] = outer_phase.scale(amb.cos());
    m.data[0][3] = outer_phase * c64(0.0, amb.sin());
    m.data[3][0] = outer_phase * c64(0.0, amb.sin());
    m.data[1][1] = inner_phase.scale(apb.cos());
    m.data[2][2] = inner_phase.scale(apb.cos());
    m.data[1][2] = inner_phase * c64(0.0, apb.sin());
    m.data[2][1] = inner_phase * c64(0.0, apb.sin());
    m
}

/// A "dressed SWAP": the product `SWAP · Can(a, b, c)` produced by the
/// unitary-unifying pass when a routing SWAP is merged with a circuit gate
/// acting on the same qubit pair.
pub fn dressed_swap(a: f64, b: f64, c: f64) -> Matrix4 {
    swap().mul(&canonical(a, b, c))
}

/// Embeds a single-qubit unitary acting on one of two qubits into a 4×4
/// matrix (`which = 0` acts on the most-significant qubit).
pub fn embed_single(u: &Matrix2, which: usize) -> Matrix4 {
    match which {
        0 => u.kron(&Matrix2::identity()),
        1 => Matrix2::identity().kron(u),
        _ => panic!("two-qubit embedding index must be 0 or 1, got {which}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Controlled-phase gate `diag(1, 1, 1, e^{iφ})`.
    fn cphase(phi: f64) -> Matrix4 {
        Matrix4::diagonal([
            Complex::one(),
            Complex::one(),
            Complex::one(),
            Complex::cis(phi),
        ])
    }

    fn assert_unitary(m: &Matrix4) {
        assert!(m.is_unitary(1e-10), "matrix is not unitary: {m:?}");
    }

    #[test]
    fn all_two_qubit_gates_are_unitary() {
        for m in [
            cnot(),
            cnot().exchange_qubits(),
            cz(),
            swap(),
            iswap(),
            syc(),
            fsim(0.4, 1.1),
            canonical(0.3, -0.2, 0.9),
            dressed_swap(0.1, 0.2, 0.3),
        ] {
            assert_unitary(&m);
        }
    }

    #[test]
    fn all_single_qubit_gates_are_unitary() {
        for m in [
            pauli_x(),
            pauli_y(),
            pauli_z(),
            hadamard(),
            s_gate(),
            s_gate().dagger(),
            rx(0.3),
            ry(-1.2),
            rz(2.5),
            u3(0.4, 1.1, -0.6),
        ] {
            assert!(m.is_unitary(1e-10));
        }
    }

    #[test]
    fn rotation_gates_match_pauli_exponentials() {
        // Rz(θ) = exp(-iθZ/2): check entry-wise.
        let theta = 0.93;
        let expected = Matrix2::new([
            [Complex::cis(-theta / 2.0), Complex::zero()],
            [Complex::zero(), Complex::cis(theta / 2.0)],
        ]);
        assert!(rz(theta).approx_eq(&expected, 1e-12));
        // Rx(π) = -iX.
        assert!(rx(PI).approx_eq(&pauli_x().scale(c64(0.0, -1.0)), 1e-12));
        // Ry(π) = -iY.
        assert!(ry(PI).approx_eq(&pauli_y().scale(c64(0.0, -1.0)), 1e-12));
    }

    #[test]
    fn hadamard_conjugates_z_to_x() {
        let h = hadamard();
        let hzh = h.mul(&pauli_z()).mul(&h);
        assert!(hzh.approx_eq(&pauli_x(), 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        // U3(0,0,λ) = diag(1, e^{iλ}) — a phase gate.
        let lam = 0.42;
        let expected = Matrix2::new([
            [Complex::one(), Complex::zero()],
            [Complex::zero(), Complex::cis(lam)],
        ]);
        assert!(u3(0.0, 0.0, lam).approx_eq(&expected, 1e-12));
        // U3(π/2, 0, π) = H up to phase.
        assert!(u3(PI / 2.0, 0.0, PI).approx_eq(&hadamard(), 1e-12));
    }

    #[test]
    fn cnot_maps_basis_states_correctly() {
        let cx = cnot();
        // |10> (index 2) -> |11> (index 3).
        assert!(cx.data[3][2].approx_eq(Complex::one(), 1e-12));
        // |00> fixed.
        assert!(cx.data[0][0].approx_eq(Complex::one(), 1e-12));
        // Reversed CNOT: |01> -> |11>.
        let reversed = cnot().exchange_qubits();
        assert!(reversed.data[3][1].approx_eq(Complex::one(), 1e-12));
    }

    #[test]
    fn cz_is_cphase_pi_and_symmetric() {
        assert!(cz().approx_eq(&cphase(PI), 1e-12));
        assert!(cz().exchange_qubits().approx_eq(&cz(), 1e-12));
    }

    #[test]
    fn canonical_special_points() {
        // Can(0,0,0) = I.
        assert!(canonical(0.0, 0.0, 0.0).approx_eq(&Matrix4::identity(), 1e-12));
        // Can(π/4,π/4,π/4) = e^{iπ/4}·SWAP.
        let c = canonical(PI / 4.0, PI / 4.0, PI / 4.0);
        assert!(c.approx_eq(&swap().scale(Complex::cis(PI / 4.0)), 1e-12));
        assert!(c.approx_eq_up_to_phase(&swap(), 1e-9));
        // Can(π/4,π/4,0) = iSWAP exactly.
        assert!(canonical(PI / 4.0, PI / 4.0, 0.0).approx_eq(&iswap(), 1e-12));
        // Can(0,0,θ) = exp(iθ ZZ) = diag(e^{iθ}, e^{-iθ}, e^{-iθ}, e^{iθ}).
        let theta = 0.61;
        let expected = Matrix4::diagonal([
            Complex::cis(theta),
            Complex::cis(-theta),
            Complex::cis(-theta),
            Complex::cis(theta),
        ]);
        assert!(canonical(0.0, 0.0, theta).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn canonical_is_symmetric_under_qubit_exchange() {
        let c = canonical(0.4, 0.1, -0.7);
        assert!(c.exchange_qubits().approx_eq(&c, 1e-12));
    }

    #[test]
    fn cphase_is_locally_equivalent_to_zz_interaction() {
        // CPhase(φ) = e^{-iφ/4} · (Rz(φ/2)⊗Rz(φ/2)) · exp(i φ/4 ZZ).
        let phi = 0.83;
        let local = embed_single(&rz(phi / 2.0), 0).mul(&embed_single(&rz(phi / 2.0), 1));
        let reconstructed = local.mul(&canonical(0.0, 0.0, phi / 4.0));
        assert!(reconstructed.approx_eq_up_to_phase(&cphase(phi), 1e-9));
    }

    #[test]
    fn syc_is_fsim_pi_2_pi_6() {
        let m = syc();
        assert!(m.data[1][2].approx_eq(c64(0.0, -1.0), 1e-12));
        assert!(m.data[2][1].approx_eq(c64(0.0, -1.0), 1e-12));
        assert!(m.data[1][1].approx_eq(Complex::zero(), 1e-12));
        assert!(m.data[3][3].approx_eq(Complex::cis(-PI / 6.0), 1e-12));
    }

    #[test]
    fn dressed_swap_is_swap_times_canonical() {
        let d = dressed_swap(0.0, 0.0, 0.5);
        assert!(d.approx_eq(&swap().mul(&canonical(0.0, 0.0, 0.5)), 1e-12));
        // The dressed SWAP of the identity canonical gate is just a SWAP.
        assert!(dressed_swap(0.0, 0.0, 0.0).approx_eq(&swap(), 1e-12));
    }

    #[test]
    fn embed_single_acts_on_correct_qubit() {
        let x0 = embed_single(&pauli_x(), 0);
        let x1 = embed_single(&pauli_x(), 1);
        // X on qubit 0 maps |00> (idx 0) to |10> (idx 2).
        assert!(x0.data[2][0].approx_eq(Complex::one(), 1e-12));
        // X on qubit 1 maps |00> to |01> (idx 1).
        assert!(x1.data[1][0].approx_eq(Complex::one(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn embed_single_rejects_bad_index() {
        let _ = embed_single(&pauli_x(), 2);
    }
}
