//! Greedy graph colouring.
//!
//! The 2QAN scheduling pass colours a "conflict graph" whose nodes are gates
//! and whose edges connect gates that share a qubit (and therefore cannot run
//! in the same cycle); the colour classes become circuit cycles (§III-D).
//! The paper uses NetworkX's default greedy strategy; this implementation
//! provides the same family of strategies (largest-degree-first and natural
//! order).

use crate::graph::Graph;

/// Vertex-ordering strategy for the greedy colouring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringStrategy {
    /// Visit vertices in descending degree order (NetworkX `largest_first`,
    /// its default strategy).
    #[default]
    LargestFirst,
    /// Visit vertices in natural index order.
    NaturalOrder,
}

/// Result of a greedy colouring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringResult {
    /// Colour assigned to each vertex.
    pub colors: Vec<usize>,
    /// Total number of colours used.
    pub num_colors: usize,
}

impl ColoringResult {
    /// The vertices of each colour class, indexed by colour.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_colors];
        for (v, &c) in self.colors.iter().enumerate() {
            out[c].push(v);
        }
        out
    }
}

/// Greedily colours `graph` with the given strategy.
///
/// Each vertex receives the smallest colour not used by an already-coloured
/// neighbour.  The number of colours never exceeds the maximum degree + 1.
pub fn greedy_coloring(graph: &Graph, strategy: ColoringStrategy) -> ColoringResult {
    let n = graph.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    if strategy == ColoringStrategy::LargestFirst {
        order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    }
    let mut colors = vec![usize::MAX; n];
    let mut num_colors = 0;
    let mut used = Vec::new();
    for &v in &order {
        used.clear();
        used.resize(num_colors + 1, false);
        for w in graph.neighbors(v) {
            let c = colors[w];
            if c != usize::MAX && c < used.len() {
                used[c] = true;
            }
        }
        let color = (0..)
            .find(|&c| c >= used.len() || !used[c])
            .expect("a free colour always exists");
        colors[v] = color;
        num_colors = num_colors.max(color + 1);
    }
    ColoringResult { colors, num_colors }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No edge joins two vertices of the same colour.
    fn is_proper_coloring(graph: &Graph, colors: &[usize]) -> bool {
        graph.edges().iter().all(|&(a, b)| colors[a] != colors[b])
    }

    #[test]
    fn colors_paths_with_two_colors() {
        let g = Graph::path(7);
        let r = greedy_coloring(&g, ColoringStrategy::LargestFirst);
        assert!(is_proper_coloring(&g, &r.colors));
        assert!(r.num_colors <= 3);
        let r2 = greedy_coloring(&g, ColoringStrategy::NaturalOrder);
        assert!(is_proper_coloring(&g, &r2.colors));
        assert_eq!(r2.num_colors, 2);
    }

    #[test]
    fn colors_complete_graph_with_n_colors() {
        let g = Graph::complete(5);
        let r = greedy_coloring(&g, ColoringStrategy::LargestFirst);
        assert!(is_proper_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 5);
    }

    #[test]
    fn colors_empty_graph_with_one_color() {
        let g = Graph::new(4);
        let r = greedy_coloring(&g, ColoringStrategy::LargestFirst);
        assert_eq!(r.num_colors, 1);
        assert!(r.colors.iter().all(|&c| c == 0));
    }

    #[test]
    fn never_exceeds_degree_plus_one() {
        let g = Graph::grid(4, 5);
        for strategy in [
            ColoringStrategy::LargestFirst,
            ColoringStrategy::NaturalOrder,
        ] {
            let r = greedy_coloring(&g, strategy);
            assert!(is_proper_coloring(&g, &r.colors));
            let max_degree = (0..g.num_vertices()).map(|v| g.degree(v)).max();
            assert!(r.num_colors <= max_degree.unwrap_or(0) + 1);
        }
    }

    #[test]
    fn classes_partition_vertices() {
        let g = Graph::cycle(6);
        let r = greedy_coloring(&g, ColoringStrategy::LargestFirst);
        let classes = r.classes();
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(classes.len(), r.num_colors);
    }

    #[test]
    fn odd_cycle_needs_three_colors() {
        let g = Graph::cycle(5);
        let r = greedy_coloring(&g, ColoringStrategy::NaturalOrder);
        assert!(is_proper_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 3);
    }
}
