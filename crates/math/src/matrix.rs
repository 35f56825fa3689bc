//! Dense 2×2 and 4×4 complex matrices.
//!
//! These are the only matrix sizes the compiler needs: single-qubit unitaries
//! are 2×2 and two-qubit unitaries are 4×4.  The types are plain stack
//! arrays with the handful of operations required by gate theory
//! (multiplication, Kronecker product, adjoint, determinant, trace,
//! unitarity checks, equality up to global phase).

use crate::complex::Complex;

/// A 2×2 complex matrix stored in row-major order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix2 {
    /// Row-major entries `[[a, b], [c, d]]`.
    pub data: [[Complex; 2]; 2],
}

/// A 4×4 complex matrix stored in row-major order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix4 {
    /// Row-major entries.
    pub data: [[Complex; 4]; 4],
}

impl Matrix2 {
    /// Builds a matrix from row-major entries.
    pub const fn new(data: [[Complex; 2]; 2]) -> Self {
        Self { data }
    }

    /// Builds a matrix from real row-major entries.
    pub fn from_real(rows: [[f64; 2]; 2]) -> Self {
        let mut data = [[Complex::zero(); 2]; 2];
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                data[i][j] = Complex::new(v, 0.0);
            }
        }
        Self { data }
    }

    /// The 2×2 zero matrix.
    pub fn zero() -> Self {
        Self::new([[Complex::zero(); 2]; 2])
    }

    /// The 2×2 identity matrix.
    pub fn identity() -> Self {
        let mut m = Self::zero();
        m.data[0][0] = Complex::one();
        m.data[1][1] = Complex::one();
        m
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = Complex::zero();
                for k in 0..2 {
                    acc += self.data[i][k] * rhs.data[k][j];
                }
                out.data[i][j] = acc;
            }
        }
        out
    }

    /// Entry-wise sum.
    pub fn add(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for i in 0..2 {
            for j in 0..2 {
                out.data[i][j] += rhs.data[i][j];
            }
        }
        out
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: Complex) -> Self {
        let mut out = *self;
        for row in out.data.iter_mut() {
            for e in row.iter_mut() {
                *e *= s;
            }
        }
        out
    }

    /// Conjugate transpose (adjoint).
    pub fn dagger(&self) -> Self {
        let mut out = Self::zero();
        for i in 0..2 {
            for j in 0..2 {
                out.data[i][j] = self.data[j][i].conj();
            }
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zero();
        for i in 0..2 {
            for j in 0..2 {
                out.data[i][j] = self.data[j][i];
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> Complex {
        self.data[0][0] + self.data[1][1]
    }

    /// Determinant.
    pub fn det(&self) -> Complex {
        self.data[0][0] * self.data[1][1] - self.data[0][1] * self.data[1][0]
    }

    /// Kronecker (tensor) product `self ⊗ rhs`, producing a 4×4 matrix where
    /// `self` acts on the first (most significant) qubit.
    pub fn kron(&self, rhs: &Self) -> Matrix4 {
        let mut out = Matrix4::zero();
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        out.data[2 * i + k][2 * j + l] = self.data[i][j] * rhs.data[k][l];
                    }
                }
            }
        }
        out
    }

    /// Returns `true` if `self† self ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.dagger().mul(self).approx_eq(&Self::identity(), tol)
    }

    /// Returns `true` if every entry matches `other` within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for i in 0..2 {
            for j in 0..2 {
                if !self.data[i][j].approx_eq(other.data[i][j], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// If the matrix is diagonal (both off-diagonal entries exactly zero),
    /// returns its diagonal `[d0, d1]`.  Exactness is deliberate: the gate
    /// constructors produce exact zeros for the structured gates (`Rz`, `Z`,
    /// phase gates), and the simulator kernels dispatch on this form.
    pub fn as_diagonal(&self) -> Option<[Complex; 2]> {
        let m = &self.data;
        if m[0][1] == Complex::zero() && m[1][0] == Complex::zero() {
            Some([m[0][0], m[1][1]])
        } else {
            None
        }
    }

    /// If the matrix is anti-diagonal (both diagonal entries exactly zero),
    /// returns `[m01, m10]` — the X/Y-like permutation-with-phase form
    /// `|0⟩ → m10|1⟩`, `|1⟩ → m01|0⟩`.
    pub fn as_anti_diagonal(&self) -> Option<[Complex; 2]> {
        let m = &self.data;
        if m[0][0] == Complex::zero() && m[1][1] == Complex::zero() {
            Some([m[0][1], m[1][0]])
        } else {
            None
        }
    }

    /// If every entry is exactly real, returns the real entries row-major —
    /// the `Ry`/Hadamard form, whose application needs half the floating
    /// point work of a dense complex 2×2.
    pub fn as_real(&self) -> Option<[[f64; 2]; 2]> {
        let m = &self.data;
        if m.iter().flatten().all(|z| z.im == 0.0) {
            Some([[m[0][0].re, m[0][1].re], [m[1][0].re, m[1][1].re]])
        } else {
            None
        }
    }

    /// If the diagonal is exactly real and the off-diagonal exactly
    /// imaginary — the `Rx` form `[[c, i·s01], [i·s10, c']]` — returns
    /// `[c, s01, s10, c']` (imaginary parts for the off-diagonal).  Like
    /// [`Self::as_real`], this halves the application arithmetic.
    pub fn as_real_diag_imag_off(&self) -> Option<[f64; 4]> {
        let m = &self.data;
        if m[0][0].im == 0.0 && m[1][1].im == 0.0 && m[0][1].re == 0.0 && m[1][0].re == 0.0 {
            Some([m[0][0].re, m[0][1].im, m[1][0].im, m[1][1].re])
        } else {
            None
        }
    }
}

impl Matrix4 {
    /// Builds a matrix from row-major entries.
    pub const fn new(data: [[Complex; 4]; 4]) -> Self {
        Self { data }
    }

    /// Builds a matrix from real row-major entries.
    pub fn from_real(rows: [[f64; 4]; 4]) -> Self {
        let mut data = [[Complex::zero(); 4]; 4];
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                data[i][j] = Complex::new(v, 0.0);
            }
        }
        Self { data }
    }

    /// Builds a diagonal matrix from four complex entries.
    pub fn diagonal(d: [Complex; 4]) -> Self {
        let mut m = Self::zero();
        for (i, &v) in d.iter().enumerate() {
            m.data[i][i] = v;
        }
        m
    }

    /// The 4×4 zero matrix.
    pub fn zero() -> Self {
        Self::new([[Complex::zero(); 4]; 4])
    }

    /// The 4×4 identity matrix.
    pub fn identity() -> Self {
        let mut m = Self::zero();
        for i in 0..4 {
            m.data[i][i] = Complex::one();
        }
        m
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = Complex::zero();
                for k in 0..4 {
                    acc += self.data[i][k] * rhs.data[k][j];
                }
                out.data[i][j] = acc;
            }
        }
        out
    }

    /// Entry-wise sum.
    pub fn add(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for i in 0..4 {
            for j in 0..4 {
                out.data[i][j] += rhs.data[i][j];
            }
        }
        out
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: Complex) -> Self {
        let mut out = *self;
        for row in out.data.iter_mut() {
            for e in row.iter_mut() {
                *e *= s;
            }
        }
        out
    }

    /// Conjugate transpose (adjoint).
    pub fn dagger(&self) -> Self {
        let mut out = Self::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.data[i][j] = self.data[j][i].conj();
            }
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.data[i][j] = self.data[j][i];
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> Complex {
        (0..4).map(|i| self.data[i][i]).sum()
    }

    /// Determinant via cofactor expansion.
    pub fn det(&self) -> Complex {
        let m = &self.data;
        let det3 = |r: [usize; 3], c: [usize; 3]| -> Complex {
            m[r[0]][c[0]] * (m[r[1]][c[1]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[1]])
                - m[r[0]][c[1]] * (m[r[1]][c[0]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[0]])
                + m[r[0]][c[2]] * (m[r[1]][c[0]] * m[r[2]][c[1]] - m[r[1]][c[1]] * m[r[2]][c[0]])
        };
        let rows = [1usize, 2, 3];
        let cols_for = |skip: usize| -> [usize; 3] {
            let mut out = [0usize; 3];
            let mut idx = 0;
            for c in 0..4 {
                if c != skip {
                    out[idx] = c;
                    idx += 1;
                }
            }
            out
        };
        let mut det = Complex::zero();
        for (j, &m0j) in m[0].iter().enumerate() {
            let minor = det3(rows, cols_for(j));
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            det += m0j * minor * sign;
        }
        det
    }

    /// Returns `true` if `self† self ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.dagger().mul(self).approx_eq(&Self::identity(), tol)
    }

    /// Returns `true` if every entry matches `other` within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for i in 0..4 {
            for j in 0..4 {
                if !self.data[i][j].approx_eq(other.data[i][j], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if `self ≈ e^{iφ} other` for some global phase φ.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        phase_match(
            self.data.iter().flatten().copied(),
            other.data.iter().flatten().copied(),
            tol,
        )
    }

    /// If the matrix is diagonal (every off-diagonal entry exactly zero),
    /// returns its diagonal `[d00, d01, d10, d11]` in basis order.  The
    /// structured two-qubit gates (`CZ`, `CPhase`, `exp(iθZZ)` and every
    /// `Can(0, 0, c)`) are built with exact zeros off the diagonal, so the
    /// simulator kernels can dispatch on this form without a tolerance.
    pub fn as_diagonal(&self) -> Option<[Complex; 4]> {
        let m = &self.data;
        for (i, row) in m.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                if i != j && e != Complex::zero() {
                    return None;
                }
            }
        }
        Some([m[0][0], m[1][1], m[2][2], m[3][3]])
    }

    /// If the matrix is a SWAP composed with a diagonal — the only nonzero
    /// entries are `m[0][0]`, `m[1][2]`, `m[2][1]`, `m[3][3]` — returns
    /// `[m00, m12, m21, m33]`.  This is the form of plain SWAPs and of the
    /// dressed SWAPs `SWAP · Can(0, 0, c)` that dominate routed QAOA
    /// circuits: `|00⟩ → m00|00⟩`, `|10⟩ → m12|01⟩`, `|01⟩ → m21|10⟩`,
    /// `|11⟩ → m33|11⟩`.
    pub fn as_swap_diagonal(&self) -> Option<[Complex; 4]> {
        let m = &self.data;
        let keep = [(0usize, 0usize), (1, 2), (2, 1), (3, 3)];
        for (i, row) in m.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                if !keep.contains(&(i, j)) && e != Complex::zero() {
                    return None;
                }
            }
        }
        Some([m[0][0], m[1][2], m[2][1], m[3][3]])
    }

    /// If the matrix is block-structured like a canonical gate — the only
    /// nonzero entries are the outer block `m[0][0]`, `m[0][3]`, `m[3][0]`,
    /// `m[3][3]` on span{|00⟩, |11⟩} and the inner block `m[1][1]`,
    /// `m[1][2]`, `m[2][1]`, `m[2][2]` on span{|01⟩, |10⟩} — returns
    /// `[m00, m03, m30, m33, m11, m12, m21, m22]`.  Every `Can(a, b, c)`
    /// has this shape, so the general Trotter-step interactions that are
    /// neither diagonal nor SWAP-like land here: two independent complex
    /// 2×2 blocks, half the arithmetic of a dense 4×4.
    pub fn as_canonical_blocks(&self) -> Option<[Complex; 8]> {
        let m = &self.data;
        let keep = [
            (0usize, 0usize),
            (0, 3),
            (3, 0),
            (3, 3),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ];
        for (i, row) in m.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                if !keep.contains(&(i, j)) && e != Complex::zero() {
                    return None;
                }
            }
        }
        Some([
            m[0][0], m[0][3], m[3][0], m[3][3], m[1][1], m[1][2], m[2][1], m[2][2],
        ])
    }

    /// Conjugates `self` by the permutation that exchanges the two qubits,
    /// i.e. returns `SWAP · self · SWAP`.  Useful for reasoning about gates
    /// whose qubit arguments are given in either order.
    pub fn exchange_qubits(&self) -> Self {
        // SWAP permutes basis states |01> <-> |10>, i.e. indices 1 and 2.
        let p = [0usize, 2, 1, 3];
        let mut out = Self::zero();
        for i in 0..4 {
            for j in 0..4 {
                out.data[i][j] = self.data[p[i]][p[j]];
            }
        }
        out
    }
}

/// Checks whether two flattened matrices agree up to a single global phase.
fn phase_match<I, J>(a: I, b: J, tol: f64) -> bool
where
    I: Iterator<Item = Complex>,
    J: Iterator<Item = Complex>,
{
    let av: Vec<Complex> = a.collect();
    let bv: Vec<Complex> = b.collect();
    if av.len() != bv.len() {
        return false;
    }
    // Find the largest-magnitude reference entry of b to fix the phase.
    let mut best = 0usize;
    let mut best_mag = -1.0;
    for (idx, z) in bv.iter().enumerate() {
        if z.abs() > best_mag {
            best_mag = z.abs();
            best = idx;
        }
    }
    if best_mag < tol {
        // b is (numerically) zero; a must be too.
        return av.iter().all(|z| z.abs() < tol);
    }
    if av[best].abs() < tol {
        return false;
    }
    let phase = av[best] / bv[best];
    if (phase.abs() - 1.0).abs() > 100.0 * tol {
        return false;
    }
    av.iter()
        .zip(bv.iter())
        .all(|(x, y)| x.approx_eq(*y * phase, tol * 10.0))
}

impl Default for Matrix2 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Default for Matrix4 {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gates;

    #[test]
    fn identity_is_unitary_and_multiplicative_identity() {
        let i2 = Matrix2::identity();
        let i4 = Matrix4::identity();
        assert!(i2.is_unitary(1e-12));
        assert!(i4.is_unitary(1e-12));
        let x = gates::pauli_x();
        assert!(x.mul(&i2).approx_eq(&x, 1e-12));
        let cx = gates::cnot();
        assert!(cx.mul(&i4).approx_eq(&cx, 1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = gates::hadamard();
        let b = gates::rz(0.3);
        let lhs = a.mul(&b).dagger();
        let rhs = b.dagger().mul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = gates::pauli_x();
        let i = Matrix2::identity();
        let xi = x.kron(&i);
        // X ⊗ I flips the first qubit: |00> -> |10>, i.e. column 0 maps to row 2.
        assert!(xi.data[2][0].approx_eq(Complex::one(), 1e-12));
        assert!(xi.data[0][0].approx_eq(Complex::zero(), 1e-12));
        assert!(xi.is_unitary(1e-12));
    }

    #[test]
    fn determinant_of_known_matrices() {
        assert!(Matrix4::identity().det().approx_eq(Complex::one(), 1e-12));
        // det(SWAP) = -1 (odd permutation of 4 basis states: one transposition).
        assert!(gates::swap().det().approx_eq(c64(-1.0, 0.0), 1e-12));
        // det(CNOT) = -1.
        assert!(gates::cnot().det().approx_eq(c64(-1.0, 0.0), 1e-12));
        assert!(gates::pauli_y().det().approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn trace_of_known_matrices() {
        assert!(Matrix4::identity().trace().approx_eq(c64(4.0, 0.0), 1e-12));
        assert!(gates::swap().trace().approx_eq(c64(2.0, 0.0), 1e-12));
        assert!(gates::pauli_z().trace().approx_eq(Complex::zero(), 1e-12));
    }

    #[test]
    fn global_phase_equality() {
        let cz = gates::cz();
        let phased = cz.scale(Complex::cis(0.73));
        assert!(phased.approx_eq_up_to_phase(&cz, 1e-9));
        assert!(!phased.approx_eq(&cz, 1e-9));
        assert!(!gates::cnot().approx_eq_up_to_phase(&cz, 1e-9));
    }

    #[test]
    fn exchange_qubits_on_cnot_gives_reversed_cnot() {
        // CNOT with control 0 target 1, exchanged, equals CNOT with control 1 target 0.
        let cx01 = gates::cnot();
        let cx10 = cx01.exchange_qubits();
        // |01> (index 1) should map to |11> (index 3) under cx10.
        assert!(cx10.data[3][1].approx_eq(Complex::one(), 1e-12));
        assert!(cx10.is_unitary(1e-12));
        // SWAP is symmetric under qubit exchange.
        assert!(gates::swap()
            .exchange_qubits()
            .approx_eq(&gates::swap(), 1e-12));
    }

    #[test]
    fn diagonal_and_anti_diagonal_forms_are_detected() {
        let d = gates::rz(0.7).as_diagonal().expect("Rz is diagonal");
        assert!(d[0].approx_eq(Complex::cis(-0.35), 1e-12));
        assert!(d[1].approx_eq(Complex::cis(0.35), 1e-12));
        assert!(gates::pauli_z().as_diagonal().is_some());
        assert!(gates::hadamard().as_diagonal().is_none());
        assert!(gates::rx(0.3).as_diagonal().is_none());

        let a = gates::pauli_x()
            .as_anti_diagonal()
            .expect("X is anti-diagonal");
        assert!(a[0].approx_eq(Complex::one(), 1e-12));
        assert!(a[1].approx_eq(Complex::one(), 1e-12));
        let y = gates::pauli_y().as_anti_diagonal().expect("Y");
        assert!(y[0].approx_eq(c64(0.0, -1.0), 1e-12));
        assert!(y[1].approx_eq(c64(0.0, 1.0), 1e-12));
        assert!(gates::hadamard().as_anti_diagonal().is_none());
        assert!(gates::rz(0.7).as_anti_diagonal().is_none());
    }

    #[test]
    fn two_qubit_diagonal_and_swap_diagonal_forms_are_detected() {
        let theta = 0.61;
        let d = gates::canonical(0.0, 0.0, theta)
            .as_diagonal()
            .expect("exp(iθZZ) is diagonal");
        assert!(d[0].approx_eq(Complex::cis(theta), 1e-12));
        assert!(d[1].approx_eq(Complex::cis(-theta), 1e-12));
        assert!(gates::cz().as_diagonal().is_some());
        assert!(gates::cnot().as_diagonal().is_none());
        assert!(gates::swap().as_diagonal().is_none());

        let s = gates::swap().as_swap_diagonal().expect("SWAP");
        for e in s {
            assert!(e.approx_eq(Complex::one(), 1e-12));
        }
        let ds = gates::dressed_swap(0.0, 0.0, theta)
            .as_swap_diagonal()
            .expect("dressed SWAP of a ZZ term");
        assert!(ds[0].approx_eq(Complex::cis(theta), 1e-12));
        assert!(ds[1].approx_eq(Complex::cis(-theta), 1e-12));
        assert!(ds[2].approx_eq(Complex::cis(-theta), 1e-12));
        assert!(ds[3].approx_eq(Complex::cis(theta), 1e-12));
        assert!(gates::iswap().as_swap_diagonal().is_some());
        assert!(gates::cnot().as_swap_diagonal().is_none());
        assert!(gates::cz().as_swap_diagonal().is_none());
        // A generic canonical gate is neither.
        let c = gates::canonical(0.3, 0.2, 0.1);
        assert!(c.as_diagonal().is_none());
        assert!(c.as_swap_diagonal().is_none());
    }
}
