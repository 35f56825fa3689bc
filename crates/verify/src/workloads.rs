//! Random 2-local workloads and random device topologies for the fuzzing
//! harness.
//!
//! Workloads cover the paper's benchmark families with randomised structure
//! *and* coefficients: Heisenberg / XY / transverse-field Ising models on
//! random connected interaction graphs, pure-ZZ QAOA cost layers (whose
//! gates all commute, enabling strict-order checking of every compiler) and
//! full QAOA layers with mixer.  Devices cover grids, heavy-hex-like
//! lattices, linear chains and random connected degree-bounded graphs.

use rand::Rng;
use twoqan_circuit::Circuit;
use twoqan_device::{Calibration, Device, GateSet, TwoQubitBasis};
use twoqan_graphs::Graph;
use twoqan_ham::{trotter_step, QaoaProblem};
// The model constructors are shared with `twoqan_bench::workloads` — both
// re-export them from `twoqan-ham`, the single home of the benchmark-model
// builders.
pub use twoqan_ham::{heisenberg_on_edges, transverse_ising_on_edges, xy_on_edges, zz_on_edges};

/// The randomised workload families the fuzzer draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomWorkloadKind {
    /// Random-graph Heisenberg model (XX+YY+ZZ, random coefficients).
    Heisenberg,
    /// Random-graph XY model (XX+YY, random coefficients).
    Xy,
    /// Random-graph transverse-field Ising model (ZZ + X fields).
    TransverseIsing,
    /// A pure-ZZ QAOA cost layer (all gates commute).
    QaoaCost,
    /// A full QAOA layer (state prep + cost + mixer).
    QaoaLayer,
}

impl RandomWorkloadKind {
    /// All families, in the order the fuzzer cycles through them.
    pub const ALL: [RandomWorkloadKind; 5] = [
        RandomWorkloadKind::Heisenberg,
        RandomWorkloadKind::Xy,
        RandomWorkloadKind::TransverseIsing,
        RandomWorkloadKind::QaoaCost,
        RandomWorkloadKind::QaoaLayer,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RandomWorkloadKind::Heisenberg => "rand-heisenberg",
            RandomWorkloadKind::Xy => "rand-xy",
            RandomWorkloadKind::TransverseIsing => "rand-ising",
            RandomWorkloadKind::QaoaCost => "rand-qaoa-cost",
            RandomWorkloadKind::QaoaLayer => "rand-qaoa-layer",
        }
    }
}

/// One random workload instance.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    /// The family it was drawn from.
    pub kind: RandomWorkloadKind,
    /// The application circuit (one Trotter step / QAOA layer).
    pub circuit: Circuit,
}

/// A random connected graph on `n` vertices: a random spanning tree plus
/// `extra_edges` additional distinct edges.
pub fn random_connected_graph<R: Rng + ?Sized>(n: usize, extra_edges: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v, rng.gen_range(0..v));
    }
    let max_edges = n * (n - 1) / 2;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && g.num_edges() < max_edges && attempts < 50 * extra_edges.max(1) {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

/// Draws one random workload of the given family on `n` qubits.
pub fn random_workload<R: Rng + ?Sized>(
    kind: RandomWorkloadKind,
    n: usize,
    rng: &mut R,
) -> RandomWorkload {
    let extra = rng.gen_range(0..=n / 2);
    let graph = random_connected_graph(n, extra, rng);
    let dt = rng.gen_range(0.2..1.0);
    let edges = graph.edges();
    let circuit = match kind {
        RandomWorkloadKind::Heisenberg => trotter_step(
            &heisenberg_on_edges(n, &edges, || rng.gen_range(0.1..1.3)),
            dt,
        ),
        RandomWorkloadKind::Xy => {
            trotter_step(&xy_on_edges(n, &edges, || rng.gen_range(0.1..1.3)), dt)
        }
        RandomWorkloadKind::TransverseIsing => trotter_step(
            &transverse_ising_on_edges(n, &edges, || rng.gen_range(0.1..1.3)),
            dt,
        ),
        RandomWorkloadKind::QaoaCost => {
            trotter_step(&zz_on_edges(n, &edges, || rng.gen_range(0.1..1.3)), dt)
        }
        RandomWorkloadKind::QaoaLayer => {
            let problem = QaoaProblem::new(graph);
            let gamma = rng.gen_range(0.2..1.0);
            let beta = rng.gen_range(0.1..0.7);
            let include_prep = rng.gen_bool(0.5);
            problem.circuit(&[(gamma, beta)], include_prep)
        }
    };
    RandomWorkload { kind, circuit }
}

/// The randomised device-topology families the fuzzer draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomTopologyKind {
    /// A rectangular grid (the Sycamore-class structure).
    Grid,
    /// A heavy-hex-like lattice (the IBM Falcon-class structure): rows of
    /// chains joined by sparse rungs.
    HeavyHex,
    /// A random connected degree-bounded graph.
    RandomConnected,
    /// A linear chain (worst-case routing pressure).
    Linear,
}

impl RandomTopologyKind {
    /// All families, in the order the fuzzer cycles through them.
    pub const ALL: [RandomTopologyKind; 4] = [
        RandomTopologyKind::Grid,
        RandomTopologyKind::HeavyHex,
        RandomTopologyKind::RandomConnected,
        RandomTopologyKind::Linear,
    ];
}

/// A heavy-hex-like lattice: `rows` horizontal chains of `cols` qubits with
/// vertical rungs every four columns, offset by two on alternating row
/// pairs (the qualitative structure of IBM's heavy-hex maps at small size).
pub fn heavy_hex_like_graph(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 2, "lattice too small");
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols.saturating_sub(1) {
            g.add_edge(r * cols + c, r * cols + c + 1);
        }
    }
    for r in 0..rows.saturating_sub(1) {
        let offset = if r % 2 == 0 { 0 } else { 2 % cols };
        let mut c = offset;
        loop {
            g.add_edge(r * cols + c, (r + 1) * cols + c);
            if c + 4 >= cols {
                break;
            }
            c += 4;
        }
    }
    g
}

/// Draws a random device with at least `min_qubits` qubits (and at most 16,
/// so compiled circuits stay cheap to simulate exactly).
pub fn random_device<R: Rng + ?Sized>(
    kind: RandomTopologyKind,
    min_qubits: usize,
    rng: &mut R,
) -> Device {
    assert!(min_qubits <= 16, "fuzz devices are capped at 16 qubits");
    let basis = TwoQubitBasis::Cnot;
    match kind {
        RandomTopologyKind::Grid => {
            const SHAPES: [(usize, usize); 9] = [
                (2, 2),
                (2, 3),
                (2, 4),
                (3, 3),
                (2, 5),
                (3, 4),
                (2, 7),
                (3, 5),
                (4, 4),
            ];
            let fitting: Vec<(usize, usize)> = SHAPES
                .iter()
                .copied()
                .filter(|&(r, c)| r * c >= min_qubits)
                .collect();
            let (r, c) = fitting[rng.gen_range(0..fitting.len())];
            Device::grid(r, c, basis)
        }
        RandomTopologyKind::HeavyHex => {
            let rows = rng.gen_range(2..=3usize);
            let cols = min_qubits.div_ceil(rows).max(3).min(16 / rows);
            // Fall back to two rows if the degree-capped shape came up short.
            let (rows, cols) = if rows * cols < min_qubits {
                (2, min_qubits.div_ceil(2))
            } else {
                (rows, cols)
            };
            let graph = heavy_hex_like_graph(rows, cols);
            Device::from_topology(
                format!("heavy-hex-{rows}x{cols}"),
                graph,
                GateSet::single(basis),
                Calibration::default(),
            )
        }
        RandomTopologyKind::RandomConnected => {
            let n = rng.gen_range(min_qubits..=(min_qubits + 3).min(16));
            let extra = rng.gen_range(1..=n / 2 + 1);
            let graph = random_connected_graph(n, extra, rng);
            Device::from_topology(
                format!("random-{n}"),
                graph,
                GateSet::single(basis),
                Calibration::default(),
            )
        }
        RandomTopologyKind::Linear => {
            let n = rng.gen_range(min_qubits..=(min_qubits + 2).min(16));
            Device::linear(n, basis)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_graphs_are_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 2..12 {
            let g = random_connected_graph(n, n / 2, &mut rng);
            assert!(g.is_connected(), "n = {n}");
            assert_eq!(g.num_vertices(), n);
        }
    }

    #[test]
    fn heavy_hex_like_lattices_are_connected_and_sparse() {
        for (rows, cols) in [(2, 4), (2, 7), (3, 5), (3, 4)] {
            let g = heavy_hex_like_graph(rows, cols);
            assert!(g.is_connected(), "{rows}x{cols}");
            assert!(
                (0..g.num_vertices()).all(|v| g.degree(v) <= 3),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn all_workload_families_generate_valid_circuits() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in RandomWorkloadKind::ALL {
            for n in [4usize, 6, 9] {
                let w = random_workload(kind, n, &mut rng);
                assert_eq!(w.circuit.num_qubits(), n);
                assert!(w.circuit.two_qubit_gate_count() >= n - 1, "{kind:?}");
                if kind == RandomWorkloadKind::QaoaCost {
                    assert!(crate::equivalence::all_gates_commute(&w.circuit));
                }
            }
        }
    }

    #[test]
    fn all_topology_families_generate_fitting_devices() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in RandomTopologyKind::ALL {
            for min in [4usize, 7, 10] {
                let d = random_device(kind, min, &mut rng);
                assert!(d.num_qubits() >= min, "{kind:?} min {min}");
                assert!(d.num_qubits() <= 16, "{kind:?} min {min}");
            }
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let wa = random_workload(RandomWorkloadKind::Heisenberg, 6, &mut a);
        let wb = random_workload(RandomWorkloadKind::Heisenberg, 6, &mut b);
        assert_eq!(wa.circuit, wb.circuit);
    }
}
