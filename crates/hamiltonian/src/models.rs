//! Benchmark Hamiltonian generators (§IV of the paper).
//!
//! The NNN (nearest-neighbour + next-nearest-neighbour) linear-chain models
//! have `2n − 3` two-qubit terms; coefficients are sampled uniformly from
//! `(0, π)` as in the paper.  The Heisenberg lattice models of Table III use
//! nearest-neighbour couplings on 1-D/2-D/3-D lattices.

use crate::hamiltonian::Hamiltonian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a coefficient uniformly from the open interval `(0, π)`.
fn coefficient<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against an exact 0 (measure-zero but keeps the contract literal).
    loop {
        let c: f64 = rng.gen_range(0.0..std::f64::consts::PI);
        if c > 0.0 {
            return c;
        }
    }
}

/// The edges of a linear chain with nearest and next-nearest neighbour
/// couplings: `(i, i+1)` and `(i, i+2)`, giving `2n − 3` pairs.
fn nnn_chain_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n.saturating_sub(1) {
        edges.push((i, i + 1));
    }
    for i in 0..n.saturating_sub(2) {
        edges.push((i, i + 2));
    }
    edges
}

/// A Heisenberg model `H = Σ (α_uv X_uX_v + β_uv Y_uY_v + γ_uv Z_uZ_v)` on
/// an arbitrary edge list.  `coeff` is called three times per edge, in
/// `(α, β, γ)` order, so callers control both the distribution and the
/// determinism of the couplings.
pub fn heisenberg_on_edges(
    n: usize,
    edges: &[(usize, usize)],
    mut coeff: impl FnMut() -> f64,
) -> Hamiltonian {
    let mut h = Hamiltonian::new(n);
    for &(u, v) in edges {
        let alpha = coeff();
        let beta = coeff();
        let gamma = coeff();
        h.add_two_qubit_term(u, v, alpha, beta, gamma);
    }
    h
}

/// An XY model `H = Σ (α_uv X_uX_v + β_uv Y_uY_v)` on an arbitrary edge
/// list.  `coeff` is called twice per edge, in `(α, β)` order.
pub fn xy_on_edges(
    n: usize,
    edges: &[(usize, usize)],
    mut coeff: impl FnMut() -> f64,
) -> Hamiltonian {
    let mut h = Hamiltonian::new(n);
    for &(u, v) in edges {
        let alpha = coeff();
        let beta = coeff();
        h.add_two_qubit_term(u, v, alpha, beta, 0.0);
    }
    h
}

/// A transverse-field Ising model `H = Σ γ_uv Z_uZ_v + Σ β_k X_k` on an
/// arbitrary edge list.  `coeff` is called once per edge (the ZZ couplings,
/// in edge order) and then once per qubit (the X fields, in qubit order).
pub fn transverse_ising_on_edges(
    n: usize,
    edges: &[(usize, usize)],
    mut coeff: impl FnMut() -> f64,
) -> Hamiltonian {
    let mut h = Hamiltonian::new(n);
    for &(u, v) in edges {
        let gamma = coeff();
        h.add_zz(u, v, gamma);
    }
    for k in 0..n {
        let beta = coeff();
        h.add_x_field(k, beta);
    }
    h
}

/// A pure-ZZ (QAOA-cost-style) Hamiltonian `H = Σ γ_uv Z_uZ_v` on an
/// arbitrary edge list.  `coeff` is called once per edge, in edge order.
pub fn zz_on_edges(
    n: usize,
    edges: &[(usize, usize)],
    mut coeff: impl FnMut() -> f64,
) -> Hamiltonian {
    let mut h = Hamiltonian::new(n);
    for &(u, v) in edges {
        let gamma = coeff();
        h.add_zz(u, v, gamma);
    }
    h
}

/// The NNN transverse-field Ising model (Eq. 4):
/// `H = Σ γ_uv Z_uZ_v + Σ β_k X_k` on a linear chain with NN and NNN
/// couplings.  Coefficients are sampled from `(0, π)` with the given seed.
pub fn nnn_ising(n: usize, seed: u64) -> Hamiltonian {
    assert!(n >= 2, "the NNN Ising model needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    transverse_ising_on_edges(n, &nnn_chain_edges(n), || coefficient(&mut rng))
}

/// The NNN XY model (Eq. 5):
/// `H = Σ (α_uv X_uX_v + β_uv Y_uY_v)` on a linear chain with NN and NNN
/// couplings.
pub fn nnn_xy(n: usize, seed: u64) -> Hamiltonian {
    assert!(n >= 2, "the NNN XY model needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    xy_on_edges(n, &nnn_chain_edges(n), || coefficient(&mut rng))
}

/// The NNN Heisenberg model (Eq. 6):
/// `H = Σ (α_uv X_uX_v + β_uv Y_uY_v + γ_uv Z_uZ_v)` on a linear chain with
/// NN and NNN couplings.
pub fn nnn_heisenberg(n: usize, seed: u64) -> Hamiltonian {
    assert!(n >= 2, "the NNN Heisenberg model needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    heisenberg_on_edges(n, &nnn_chain_edges(n), || coefficient(&mut rng))
}

/// Lattice dimensions for [`heisenberg_lattice`] (Table III uses 30-qubit
/// 1-D, 2-D and 3-D lattices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatticeDimensions {
    /// A chain of `n` sites.
    OneD(usize),
    /// A `rows × cols` rectangular lattice.
    TwoD(usize, usize),
    /// An `x × y × z` cubic lattice.
    ThreeD(usize, usize, usize),
}

impl LatticeDimensions {
    /// Total number of sites.
    pub fn num_sites(&self) -> usize {
        match *self {
            LatticeDimensions::OneD(n) => n,
            LatticeDimensions::TwoD(r, c) => r * c,
            LatticeDimensions::ThreeD(x, y, z) => x * y * z,
        }
    }

    /// Nearest-neighbour edges of the lattice.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        match *self {
            LatticeDimensions::OneD(n) => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            LatticeDimensions::TwoD(rows, cols) => {
                let mut edges = Vec::new();
                for r in 0..rows {
                    for c in 0..cols {
                        let v = r * cols + c;
                        if c + 1 < cols {
                            edges.push((v, v + 1));
                        }
                        if r + 1 < rows {
                            edges.push((v, v + cols));
                        }
                    }
                }
                edges
            }
            LatticeDimensions::ThreeD(nx, ny, nz) => {
                let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
                let mut edges = Vec::new();
                for x in 0..nx {
                    for y in 0..ny {
                        for z in 0..nz {
                            if x + 1 < nx {
                                edges.push((idx(x, y, z), idx(x + 1, y, z)));
                            }
                            if y + 1 < ny {
                                edges.push((idx(x, y, z), idx(x, y + 1, z)));
                            }
                            if z + 1 < nz {
                                edges.push((idx(x, y, z), idx(x, y, z + 1)));
                            }
                        }
                    }
                }
                edges
            }
        }
    }
}

/// A Heisenberg model with nearest-neighbour couplings on the given lattice
/// (Table III benchmarks).  Coefficients are sampled from `(0, π)`.
pub fn heisenberg_lattice(dims: LatticeDimensions, seed: u64) -> Hamiltonian {
    let n = dims.num_sites();
    assert!(n >= 2, "a Heisenberg lattice needs at least 2 sites");
    let mut rng = StdRng::seed_from_u64(seed);
    heisenberg_on_edges(n, &dims.edges(), || coefficient(&mut rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn nnn_models_have_2n_minus_3_pairs() {
        for n in [6usize, 8, 12, 20, 50] {
            assert_eq!(
                nnn_ising(n, 1).two_qubit_terms().len(),
                2 * n - 3,
                "Ising n={n}"
            );
            assert_eq!(nnn_xy(n, 1).two_qubit_terms().len(), 2 * n - 3, "XY n={n}");
            assert_eq!(
                nnn_heisenberg(n, 1).two_qubit_terms().len(),
                2 * n - 3,
                "Heisenberg n={n}"
            );
        }
    }

    #[test]
    fn ising_has_zz_couplings_and_transverse_fields() {
        let h = nnn_ising(8, 3);
        for t in h.two_qubit_terms() {
            assert_eq!(t.xx, 0.0);
            assert_eq!(t.yy, 0.0);
            assert!(t.zz > 0.0 && t.zz < PI);
        }
        assert_eq!(h.single_qubit_terms().len(), 8);
    }

    #[test]
    fn xy_has_xx_and_yy_but_no_zz_or_fields() {
        let h = nnn_xy(10, 5);
        for t in h.two_qubit_terms() {
            assert!(t.xx > 0.0 && t.xx < PI);
            assert!(t.yy > 0.0 && t.yy < PI);
            assert_eq!(t.zz, 0.0);
        }
        assert!(h.single_qubit_terms().is_empty());
    }

    #[test]
    fn heisenberg_has_all_three_couplings() {
        let h = nnn_heisenberg(6, 7);
        for t in h.two_qubit_terms() {
            assert!(t.xx > 0.0 && t.yy > 0.0 && t.zz > 0.0);
            assert_eq!(t.num_pauli_terms(), 3);
        }
        assert!(h.single_qubit_terms().is_empty());
        // 3 Pauli terms per pair.
        assert_eq!(h.num_pauli_terms(), 3 * (2 * 6 - 3));
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        assert_eq!(nnn_heisenberg(10, 42), nnn_heisenberg(10, 42));
        assert_ne!(nnn_heisenberg(10, 42), nnn_heisenberg(10, 43));
    }

    #[test]
    fn interaction_graph_includes_next_nearest_neighbours() {
        let pairs = nnn_ising(6, 0).interaction_pairs();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(0, 3)));
    }

    #[test]
    fn lattice_dimensions_and_edge_counts() {
        assert_eq!(LatticeDimensions::OneD(30).num_sites(), 30);
        assert_eq!(LatticeDimensions::OneD(30).edges().len(), 29);
        let two_d = LatticeDimensions::TwoD(5, 6);
        assert_eq!(two_d.num_sites(), 30);
        assert_eq!(two_d.edges().len(), 5 * 5 + 4 * 6); // 49
        let three_d = LatticeDimensions::ThreeD(2, 3, 5);
        assert_eq!(three_d.num_sites(), 30);
        assert_eq!(three_d.edges().len(), 3 * 5 + 2 * 2 * 5 + 2 * 3 * 4); // 59
    }

    #[test]
    fn edge_list_constructors_match_the_nnn_models() {
        // The nnn_* generators are thin wrappers over the shared edge-list
        // constructors; replaying the same RNG through the shared entry
        // points must reproduce them exactly.
        use rand::SeedableRng;
        let n = 9;
        let edges = nnn_chain_edges(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        assert_eq!(
            heisenberg_on_edges(n, &edges, || coefficient(&mut rng)),
            nnn_heisenberg(n, 17)
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        assert_eq!(
            xy_on_edges(n, &edges, || coefficient(&mut rng)),
            nnn_xy(n, 17)
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        assert_eq!(
            transverse_ising_on_edges(n, &edges, || coefficient(&mut rng)),
            nnn_ising(n, 17)
        );
    }

    #[test]
    fn zz_on_edges_builds_pure_cost_hamiltonians() {
        let h = zz_on_edges(4, &[(0, 1), (1, 2), (2, 3)], || 0.7);
        assert_eq!(h.two_qubit_terms().len(), 3);
        for t in h.two_qubit_terms() {
            assert_eq!((t.xx, t.yy), (0.0, 0.0));
            assert_eq!(t.zz, 0.7);
        }
        assert!(h.single_qubit_terms().is_empty());
    }

    #[test]
    fn heisenberg_lattice_builds_expected_terms() {
        let h = heisenberg_lattice(LatticeDimensions::TwoD(5, 6), 11);
        assert_eq!(h.num_qubits(), 30);
        assert_eq!(h.two_qubit_terms().len(), 49);
        assert_eq!(h.num_pauli_terms(), 3 * 49);
    }
}
