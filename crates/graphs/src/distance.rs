//! All-pairs shortest-path distances for device coupling graphs.
//!
//! The qubit-mapping QAP cost (Eq. 7 of the paper) uses the hardware
//! distance `d_{φ(i)φ(j)}` between physical qubits, "calculated by using the
//! Floyd–Warshall algorithm"; the routing pass uses the same matrix to pick
//! which non-adjacent gate to route first and which SWAP brings its qubits
//! closer.
//!
//! Device graphs are unweighted, so a breadth-first search per vertex
//! ([`DistanceMatrix::bfs`], O(V·(V+E))) produces the identical matrix much
//! faster than Floyd–Warshall's O(V³); the unit tests keep Floyd–Warshall as
//! the reference the BFS is checked against.

use crate::graph::Graph;
use std::sync::{Arc, OnceLock};

/// Distance value used for disconnected vertex pairs.
pub const UNREACHABLE: u32 = u32::MAX / 4;

/// A dense all-pairs shortest-path distance matrix (unit edge weights).
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
    /// The matrix as `f64`, built once on first use and shared by every
    /// QAP instance built from this matrix (and from its clones).
    as_f64: OnceLock<Arc<[f64]>>,
}

impl PartialEq for DistanceMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.data == other.data
    }
}

impl Eq for DistanceMatrix {}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths with one breadth-first search per
    /// vertex.
    ///
    /// For the unweighted coupling graphs the compiler targets this yields
    /// exactly the same matrix as Floyd–Warshall in O(V·(V+E)) instead of
    /// O(V³).
    pub fn bfs(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let adjacency: Vec<Vec<usize>> = (0..n).map(|v| graph.neighbors(v).collect()).collect();
        let mut data = vec![UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        for source in 0..n {
            let row = &mut data[source * n..(source + 1) * n];
            row[source] = 0;
            queue.clear();
            queue.push_back(source);
            while let Some(v) = queue.pop_front() {
                let next = row[v] + 1;
                for &w in &adjacency[v] {
                    if row[w] == UNREACHABLE {
                        row[w] = next;
                        queue.push_back(w);
                    }
                }
            }
        }
        Self::from_data(n, data)
    }

    fn from_data(n: usize, data: Vec<u32>) -> Self {
        Self {
            n,
            data,
            as_f64: OnceLock::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Distance between `a` and `b` (0 on the diagonal, [`UNREACHABLE`] when
    /// no path exists).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.data[a * self.n + b]
    }

    /// Returns `true` if `a` and `b` are adjacent (distance exactly 1).
    #[inline]
    pub fn adjacent(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// The whole row-major matrix as `f64` (the QAP's distance side),
    /// converted on the first call and shared afterwards.
    pub(crate) fn shared_f64(&self) -> Arc<[f64]> {
        let view = self
            .as_f64
            .get_or_init(|| self.data.iter().map(|&d| f64::from(d)).collect());
        Arc::clone(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All-pairs shortest paths by Floyd–Warshall: the reference oracle for
    /// [`DistanceMatrix::bfs`].
    fn floyd_warshall(graph: &Graph) -> DistanceMatrix {
        let n = graph.num_vertices();
        let mut data = vec![UNREACHABLE; n * n];
        for v in 0..n {
            data[v * n + v] = 0;
        }
        for (a, b) in graph.edges() {
            data[a * n + b] = 1;
            data[b * n + a] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                let dik = data[i * n + k];
                if dik == UNREACHABLE {
                    continue;
                }
                for j in 0..n {
                    let through = dik + data[k * n + j];
                    if through < data[i * n + j] {
                        data[i * n + j] = through;
                    }
                }
            }
        }
        DistanceMatrix::from_data(n, data)
    }

    #[test]
    fn path_graph_distances() {
        let d = DistanceMatrix::bfs(&Graph::path(5));
        assert_eq!(d.distance(0, 4), 4);
        assert_eq!(d.distance(1, 3), 2);
        assert_eq!(d.distance(2, 2), 0);
        assert!(d.adjacent(0, 1));
        assert!(!d.adjacent(0, 2));
    }

    #[test]
    fn grid_graph_distances_are_manhattan() {
        let d = DistanceMatrix::bfs(&Graph::grid(3, 4));
        // Vertex (r, c) = r*4 + c; distance between (0,0) and (2,3) is 5.
        assert_eq!(d.distance(0, 11), 5);
        assert_eq!(d.distance(5, 6), 1);
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let d = DistanceMatrix::bfs(&g);
        assert_eq!(d.distance(0, 1), 1);
        assert_eq!(d.distance(0, 2), UNREACHABLE);
    }

    #[test]
    fn cycle_distances_wrap_around() {
        let d = DistanceMatrix::bfs(&Graph::cycle(6));
        assert_eq!(d.distance(0, 3), 3);
        assert_eq!(d.distance(0, 5), 1);
        assert_eq!(d.distance(1, 4), 3);
    }

    #[test]
    fn bfs_matches_floyd_warshall_on_varied_graphs() {
        let mut disconnected = Graph::new(5);
        disconnected.add_edge(0, 1);
        disconnected.add_edge(3, 4);
        for g in [
            Graph::path(7),
            Graph::grid(3, 5),
            Graph::cycle(9),
            Graph::complete(6),
            Graph::new(1),
            disconnected,
        ] {
            assert_eq!(DistanceMatrix::bfs(&g), floyd_warshall(&g));
        }
    }

    #[test]
    fn trivial_graphs() {
        let d = DistanceMatrix::bfs(&Graph::new(1));
        assert_eq!(d.num_vertices(), 1);
        assert_eq!(d.distance(0, 0), 0);
    }
}
