//! All-pairs shortest-path distances over *weighted* coupling graphs.
//!
//! The calibration-aware compiler passes replace the unit hop count with a
//! per-edge cost (the −log-fidelity of the edge's native two-qubit gate, see
//! `twoqan-device`), so "distance" becomes the cheapest-error path between
//! two hardware qubits.  Edge weights are strictly positive, which makes one
//! Dijkstra search per vertex (O(V·(E log V))) the weighted analogue of the
//! per-vertex BFS used for [`DistanceMatrix`](crate::DistanceMatrix).
//!
//! When every edge has weight exactly `1.0` the matrix reproduces the hop
//! counts bit for bit (path costs are sums of `1.0`, exact in `f64`), which
//! is what makes the calibration-aware cost model degenerate to the
//! hop-count model on uniform calibrations.

use crate::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Distance value used for disconnected vertex pairs.
pub const UNREACHABLE_WEIGHTED: f64 = f64::INFINITY;

/// A dense all-pairs shortest-path distance matrix over positive edge
/// weights.  The row-major entries are shared, not copied, by every QAP
/// instance built from the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedDistanceMatrix {
    n: usize,
    data: Arc<[f64]>,
}

/// A heap entry ordered by path cost (costs are finite and non-NaN, so
/// `total_cmp` gives a total order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    vertex: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then(self.vertex.cmp(&other.vertex))
    }
}

impl WeightedDistanceMatrix {
    /// Computes all-pairs shortest paths with one Dijkstra search per
    /// vertex.  `weight(a, b)` is queried once per directed edge and must be
    /// strictly positive and symmetric.
    ///
    /// # Panics
    ///
    /// Panics if any queried edge weight is non-positive or non-finite.
    pub fn dijkstra(graph: &Graph, weight: &dyn Fn(usize, usize) -> f64) -> Self {
        let n = graph.num_vertices();
        // Materialise the weighted adjacency once; every per-source search
        // then reads plain slices.
        let adjacency: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|v| {
                graph
                    .neighbors(v)
                    .map(|w| {
                        let cost = weight(v, w);
                        assert!(
                            cost.is_finite() && cost > 0.0,
                            "edge ({v}, {w}) has non-positive weight {cost}"
                        );
                        (w, cost)
                    })
                    .collect()
            })
            .collect();
        let mut data: Arc<[f64]> = std::iter::repeat_n(UNREACHABLE_WEIGHTED, n * n).collect();
        let rows = Arc::get_mut(&mut data).expect("a freshly built matrix is not shared");
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(n);
        for source in 0..n {
            let row = &mut rows[source * n..(source + 1) * n];
            row[source] = 0.0;
            heap.clear();
            heap.push(Reverse(HeapEntry {
                cost: 0.0,
                vertex: source,
            }));
            while let Some(Reverse(HeapEntry { cost, vertex })) = heap.pop() {
                if cost > row[vertex] {
                    continue; // stale entry
                }
                for &(next, w) in &adjacency[vertex] {
                    let through = cost + w;
                    if through < row[next] {
                        row[next] = through;
                        heap.push(Reverse(HeapEntry {
                            cost: through,
                            vertex: next,
                        }));
                    }
                }
            }
        }
        Self { n, data }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Shortest-path cost between `a` and `b` (0 on the diagonal,
    /// [`UNREACHABLE_WEIGHTED`] when no path exists).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.data[a * self.n + b]
    }

    /// The whole row-major matrix, shared.
    pub(crate) fn shared(&self) -> Arc<[f64]> {
        Arc::clone(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;

    #[test]
    fn unit_weights_reproduce_hop_counts_exactly() {
        for g in [
            Graph::path(7),
            Graph::grid(3, 5),
            Graph::cycle(9),
            Graph::complete(6),
        ] {
            let hops = DistanceMatrix::bfs(&g);
            let weighted = WeightedDistanceMatrix::dijkstra(&g, &|_, _| 1.0);
            for a in 0..g.num_vertices() {
                for b in 0..g.num_vertices() {
                    assert_eq!(
                        weighted.distance(a, b),
                        f64::from(hops.distance(a, b)),
                        "({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn cheap_detours_beat_expensive_direct_edges() {
        // Triangle where the direct 0–2 edge costs 5 but the 0–1–2 detour
        // costs 2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let weight = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (0, 2) {
                5.0
            } else {
                1.0
            }
        };
        let d = WeightedDistanceMatrix::dijkstra(&g, &weight);
        assert_eq!(d.distance(0, 2), 2.0);
        assert_eq!(d.distance(2, 0), 2.0);
        assert_eq!(d.distance(0, 1), 1.0);
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let d = WeightedDistanceMatrix::dijkstra(&g, &|_, _| 1.0);
        assert_eq!(d.distance(0, 1), 1.0);
        assert_eq!(d.distance(0, 2), UNREACHABLE_WEIGHTED);
        assert_eq!(d.distance(1, 1), 0.0);
    }

    #[test]
    fn matrix_is_symmetric_for_symmetric_weights() {
        let g = Graph::grid(3, 3);
        let weight = |a: usize, b: usize| 0.5 + ((a.min(b) * 7 + a.max(b)) % 5) as f64 * 0.3;
        let d = WeightedDistanceMatrix::dijkstra(&g, &weight);
        for a in 0..9 {
            for b in 0..9 {
                // Path costs are summed in opposite orders for the two
                // directions, so symmetry holds up to rounding only.
                assert!(
                    (d.distance(a, b) - d.distance(b, a)).abs() < 1e-12,
                    "({a}, {b})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn rejects_non_positive_weights() {
        let g = Graph::path(3);
        let _ = WeightedDistanceMatrix::dijkstra(&g, &|_, _| 0.0);
    }
}
