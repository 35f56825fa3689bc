//! Qubit-coupling topologies of the evaluated devices.
//!
//! * **Sycamore** — Google's 54-qubit processor.  Its coupler layout is a
//!   degree-≤4 planar square lattice (drawn diagonally in Fig. 1a of the
//!   paper); we model it as a 6 × 9 grid, which has the same qubit count,
//!   the same maximum degree and the same grid distance structure.
//! * **Montreal** — IBM's 27-qubit Falcon processor with the standard
//!   heavy-hexagon ("dodecagon lattice") coupling map.
//! * **Aspen** — Rigetti's 16-qubit processor: two octagonal rings joined by
//!   two couplers.

use twoqan_graphs::Graph;
/// Number of qubits of the Montreal model.
pub const MONTREAL_QUBITS: usize = 27;
/// Number of qubits of the Aspen model.
pub const ASPEN_QUBITS: usize = 16;

/// The Sycamore coupling graph (modelled as a 6 × 9 grid, 54 qubits).
pub fn sycamore_graph() -> Graph {
    Graph::grid(6, 9)
}

/// The IBMQ Montreal heavy-hex coupling graph (27 qubits, 28 couplers —
/// the standard Falcon r4 coupling map).
pub fn montreal_graph() -> Graph {
    let edges: [(usize, usize); 28] = [
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (3, 5),
        (4, 7),
        (5, 8),
        (6, 7),
        (7, 10),
        (8, 9),
        (8, 11),
        (10, 12),
        (11, 14),
        (12, 13),
        (12, 15),
        (13, 14),
        (14, 16),
        (15, 18),
        (16, 19),
        (17, 18),
        (18, 21),
        (19, 20),
        (19, 22),
        (21, 23),
        (22, 25),
        (23, 24),
        (24, 25),
        (25, 26),
    ];
    Graph::from_edges(MONTREAL_QUBITS, &edges)
}

/// The Rigetti Aspen coupling graph: two octagons (qubits 0–7 and 8–15)
/// joined by two couplers.
pub fn aspen_graph() -> Graph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for ring in 0..2 {
        let base = ring * 8;
        for i in 0..8 {
            edges.push((base + i, base + (i + 1) % 8));
        }
    }
    // Two couplers joining the octagons (adjacent corners of each ring).
    edges.push((1, 14));
    edges.push((2, 13));
    Graph::from_edges(ASPEN_QUBITS, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_graphs::DistanceMatrix;

    fn max_degree(g: &Graph) -> usize {
        (0..g.num_vertices())
            .map(|v| g.degree(v))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn sycamore_is_a_54_qubit_degree_4_grid() {
        let g = sycamore_graph();
        assert_eq!(g.num_vertices(), 54);
        assert!(g.is_connected());
        assert_eq!(max_degree(&g), 4);
        // 6×9 grid edge count: 6·8 + 5·9 = 93.
        assert_eq!(g.num_edges(), 93);
    }

    #[test]
    fn montreal_is_the_27_qubit_heavy_hex_map() {
        let g = montreal_graph();
        assert_eq!(g.num_vertices(), MONTREAL_QUBITS);
        assert_eq!(g.num_edges(), 28);
        assert!(g.is_connected());
        // Heavy-hex degree is at most 3.
        assert_eq!(max_degree(&g), 3);
        // A few spot checks against the Falcon coupling map.
        assert!(g.has_edge(1, 4));
        assert!(g.has_edge(12, 15));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn aspen_is_two_connected_octagons() {
        let g = aspen_graph();
        assert_eq!(g.num_vertices(), ASPEN_QUBITS);
        assert_eq!(g.num_edges(), 18);
        assert!(g.is_connected());
        assert!(g.has_edge(0, 7));
        assert!(g.has_edge(8, 15));
        assert!(g.has_edge(1, 14));
        assert!(g.has_edge(2, 13));
        assert!(max_degree(&g) <= 3);
    }

    #[test]
    fn device_diameters_are_reasonable() {
        let diameter = |g: &Graph| {
            let d = DistanceMatrix::bfs(g);
            let n = g.num_vertices();
            (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| d.distance(i, j))
                .max()
        };
        assert_eq!(diameter(&sycamore_graph()), Some(13)); // (6-1) + (9-1)
        assert!(diameter(&montreal_graph()).unwrap() >= 8);
        assert!(diameter(&aspen_graph()).unwrap() <= 8);
    }
}
