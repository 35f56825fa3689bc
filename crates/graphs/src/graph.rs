//! A simple undirected graph on vertices `0..n`.

use std::collections::{BTreeSet, VecDeque};

/// An undirected simple graph on vertices `0..num_vertices`.
///
/// Vertices are dense integer indices, which matches how both hardware
/// qubits and circuit qubits are identified throughout the workspace.
///
/// # Example
///
/// ```
/// use twoqan_graphs::Graph;
///
/// let g = Graph::path(4);
/// assert_eq!(g.num_edges(), 3);
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 3));
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    adjacency: Vec<BTreeSet<usize>>,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            num_vertices: n,
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Creates a graph from an edge list; the vertex count is inferred as
    /// one plus the largest endpoint (or `min_vertices` if larger).
    pub fn from_edges(min_vertices: usize, edges: &[(usize, usize)]) -> Self {
        let max = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        let mut g = Self::new(min_vertices.max(max));
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// A path graph `0 — 1 — … — (n−1)`.
    pub fn path(n: usize) -> Self {
        let mut g = Self::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// A cycle graph on `n ≥ 3` vertices.
    pub fn cycle(n: usize) -> Self {
        let mut g = Self::path(n);
        if n >= 3 {
            g.add_edge(n - 1, 0);
        }
        g
    }

    /// A complete graph on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut g = Self::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        g
    }

    /// A `rows × cols` grid graph (vertices numbered row-major).
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut g = Self::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(v, v + 1);
                }
                if r + 1 < rows {
                    g.add_edge(v, v + cols);
                }
            }
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge; parallel edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the endpoints coincide.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(
            a < self.num_vertices && b < self.num_vertices,
            "edge endpoint out of range"
        );
        assert_ne!(a, b, "self-loops are not supported");
        self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
    }

    /// Returns `true` if the edge `(a, b)` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.num_vertices && b < self.num_vertices && self.adjacency[a].contains(&b)
    }

    /// Neighbours of a vertex, in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[v].iter().copied()
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// All edges `(a, b)` with `a < b`, in lexicographic order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for a in 0..self.num_vertices {
            for &b in &self.adjacency[a] {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Returns `true` if the graph is connected (the empty graph and the
    /// single-vertex graph are considered connected).
    pub fn is_connected(&self) -> bool {
        if self.num_vertices <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_vertices];
        let mut queue = VecDeque::new();
        queue.push_back(0);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == self.num_vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_cycle_grid_complete_shapes() {
        assert_eq!(Graph::path(5).num_edges(), 4);
        assert_eq!(Graph::cycle(5).num_edges(), 5);
        assert_eq!(Graph::complete(5).num_edges(), 10);
        let g = Graph::grid(2, 3);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 7);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn connectivity_detection() {
        assert!(Graph::path(6).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = Graph::cycle(4);
        assert_eq!(g.degree(0), 2);
        assert_eq!((0..4).map(|v| g.degree(v)).max(), Some(2));
        let n: Vec<usize> = g.neighbors(0).collect();
        assert_eq!(n, vec![1, 3]);
    }

    #[test]
    fn from_edges_infers_size_and_dedups() {
        let g = Graph::from_edges(0, &[(0, 1), (1, 0), (1, 4)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
        let g2 = Graph::from_edges(10, &[(0, 1)]);
        assert_eq!(g2.num_vertices(), 10);
    }

    #[test]
    fn edges_are_canonical_and_sorted() {
        let g = Graph::from_edges(0, &[(3, 1), (0, 2)]);
        assert_eq!(g.edges(), vec![(0, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = Graph::new(3);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let mut g = Graph::new(3);
        g.add_edge(0, 3);
    }
}
