//! The [`Hamiltonian`] type: a 2-local qubit Hamiltonian.

use twoqan_math::pauli::Pauli;

/// A two-qubit term `xx·X_uX_v + yy·Y_uY_v + zz·Z_uZ_v` acting on the qubit
/// pair `(u, v)`.
///
/// Grouping the XX/YY/ZZ couplings of a pair into one term mirrors the
/// "circuit unitary unifying" observation of §III-C: the three exponentials
/// commute and are implemented as a single canonical two-qubit unitary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoQubitTerm {
    /// First qubit.
    pub u: usize,
    /// Second qubit.
    pub v: usize,
    /// Coefficient of `X_uX_v`.
    pub xx: f64,
    /// Coefficient of `Y_uY_v`.
    pub yy: f64,
    /// Coefficient of `Z_uZ_v`.
    pub zz: f64,
}

impl TwoQubitTerm {
    /// Number of non-zero Pauli couplings in this term.
    pub fn num_pauli_terms(&self) -> usize {
        [self.xx, self.yy, self.zz]
            .iter()
            .filter(|c| **c != 0.0)
            .count()
    }

    /// The unordered qubit pair, normalised as `(min, max)`.
    pub fn pair(&self) -> (usize, usize) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

/// A single-qubit term `coefficient · P_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleQubitTerm {
    /// The qubit the term acts on.
    pub qubit: usize,
    /// The Pauli operator.
    pub pauli: Pauli,
    /// The coefficient.
    pub coefficient: f64,
}

/// A 2-local qubit Hamiltonian (Eq. 3 of the paper):
/// `H = Σ_{(u,v)} (xx·XX + yy·YY + zz·ZZ) + Σ_k c_k·P_k`.
///
/// # Example
///
/// ```
/// use twoqan_ham::Hamiltonian;
///
/// let mut h = Hamiltonian::new(3);
/// h.add_zz(0, 1, 0.5);
/// h.add_zz(1, 2, 0.25);
/// h.add_x_field(0, 1.0);
/// assert_eq!(h.interaction_pairs(), vec![(0, 1), (1, 2)]);
/// assert_eq!(h.num_pauli_terms(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hamiltonian {
    num_qubits: usize,
    two_qubit_terms: Vec<TwoQubitTerm>,
    single_qubit_terms: Vec<SingleQubitTerm>,
}

impl Hamiltonian {
    /// Creates an empty Hamiltonian over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            two_qubit_terms: Vec::new(),
            single_qubit_terms: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Adds a full two-qubit term with explicit XX/YY/ZZ couplings.
    ///
    /// If a term on the same (unordered) pair already exists, the couplings
    /// are accumulated into it instead of creating a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range or `u == v`.
    pub fn add_two_qubit_term(&mut self, u: usize, v: usize, xx: f64, yy: f64, zz: f64) {
        assert!(
            u < self.num_qubits && v < self.num_qubits,
            "qubit index out of range"
        );
        assert_ne!(u, v, "two-qubit term requires distinct qubits");
        let pair = (u.min(v), u.max(v));
        if let Some(term) = self.two_qubit_terms.iter_mut().find(|t| t.pair() == pair) {
            term.xx += xx;
            term.yy += yy;
            term.zz += zz;
        } else {
            self.two_qubit_terms.push(TwoQubitTerm {
                u: pair.0,
                v: pair.1,
                xx,
                yy,
                zz,
            });
        }
    }

    /// Adds a `Z_uZ_v` coupling.
    pub fn add_zz(&mut self, u: usize, v: usize, coefficient: f64) {
        self.add_two_qubit_term(u, v, 0.0, 0.0, coefficient);
    }

    /// Adds a single-qubit term.
    ///
    /// # Panics
    ///
    /// Panics if the qubit index is out of range or the Pauli is the
    /// identity.
    pub fn add_field(&mut self, qubit: usize, pauli: Pauli, coefficient: f64) {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        assert_ne!(
            pauli,
            Pauli::I,
            "identity terms only shift the global phase"
        );
        self.single_qubit_terms.push(SingleQubitTerm {
            qubit,
            pauli,
            coefficient,
        });
    }

    /// Adds a transverse-field `X_k` term.
    pub fn add_x_field(&mut self, qubit: usize, coefficient: f64) {
        self.add_field(qubit, Pauli::X, coefficient);
    }

    /// The two-qubit terms.
    pub fn two_qubit_terms(&self) -> &[TwoQubitTerm] {
        &self.two_qubit_terms
    }

    /// The single-qubit terms.
    pub fn single_qubit_terms(&self) -> &[SingleQubitTerm] {
        &self.single_qubit_terms
    }

    /// Total number of individual (non-zero) Pauli terms, two-qubit and
    /// single-qubit combined.
    pub fn num_pauli_terms(&self) -> usize {
        self.two_qubit_terms
            .iter()
            .map(TwoQubitTerm::num_pauli_terms)
            .sum::<usize>()
            + self.single_qubit_terms.len()
    }

    /// The interaction pairs, one per two-qubit term.
    pub fn interaction_pairs(&self) -> Vec<(usize, usize)> {
        self.two_qubit_terms
            .iter()
            .map(TwoQubitTerm::pair)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_same_pair_couplings() {
        let mut h = Hamiltonian::new(4);
        h.add_two_qubit_term(0, 1, 0.3, 0.0, 0.0);
        h.add_two_qubit_term(1, 0, 0.0, 0.4, 0.0);
        h.add_zz(0, 1, 0.5);
        h.add_zz(2, 3, 0.1);
        assert_eq!(h.two_qubit_terms().len(), 2);
        assert_eq!(h.num_pauli_terms(), 4);
        let t = &h.two_qubit_terms()[0];
        assert_eq!(t.pair(), (0, 1));
        assert!((t.xx - 0.3).abs() < 1e-12);
        assert!((t.yy - 0.4).abs() < 1e-12);
        assert!((t.zz - 0.5).abs() < 1e-12);
        assert_eq!(t.num_pauli_terms(), 3);
    }

    #[test]
    fn interaction_graph_reflects_pairs() {
        let mut h = Hamiltonian::new(5);
        h.add_zz(0, 1, 1.0);
        h.add_zz(1, 2, 1.0);
        h.add_zz(0, 2, 1.0);
        assert_eq!(h.interaction_pairs(), vec![(0, 1), (1, 2), (0, 2)]);
    }

    #[test]
    fn single_qubit_fields() {
        let mut h = Hamiltonian::new(3);
        h.add_x_field(0, 0.7);
        h.add_field(2, Pauli::Z, -0.2);
        assert_eq!(h.single_qubit_terms().len(), 2);
        assert_eq!(h.single_qubit_terms()[0].pauli, Pauli::X);
        assert_eq!(h.num_pauli_terms(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn rejects_diagonal_two_qubit_terms() {
        let mut h = Hamiltonian::new(3);
        h.add_zz(1, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "identity terms")]
    fn rejects_identity_fields() {
        let mut h = Hamiltonian::new(3);
        h.add_field(0, Pauli::I, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qubits() {
        let mut h = Hamiltonian::new(2);
        h.add_zz(0, 5, 0.5);
    }
}
