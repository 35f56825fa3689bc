//! The Quadratic Assignment Problem (QAP) used for initial qubit mapping.
//!
//! §III-A of the paper formulates qubit mapping as a QAP: circuit qubits are
//! "facilities", hardware qubits are "locations", the *flow* between two
//! circuit qubits is the number of two-qubit gates acting on them, and the
//! *distance* between two hardware qubits is their shortest-path distance.
//! The objective (Eq. 7) is
//! `min_φ Σ_{i,j} f_{ij} · d_{φ(i)φ(j)}`.
//!
//! Interaction graphs of 2-local Hamiltonians and QAOA have bounded degree
//! (about 3–4 non-zeros per row at n = 200), so the flows are stored as
//! sparse rows.  The distances are the device's own row-major matrix,
//! shared rather than copied, so `distance_row` exposes whole rows for
//! cache-friendly scans.  The one dense `n × n` table an instance owns is
//! the symmetric flow sums the Tabu delta kernels read; each of its rows
//! also carries a bitset of its non-zero columns, and those kernels sum
//! over a row's support rather than all `n` columns.

use crate::distance::DistanceMatrix;
use crate::weighted::WeightedDistanceMatrix;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// A QAP instance: an `n × n` flow matrix between facilities and an
/// `m × m` (`m ≥ n`) distance matrix between locations.
#[derive(Debug, Clone)]
pub struct QapProblem {
    n: usize,
    m: usize,
    /// The non-zero flows as sparse rows: row `i` is
    /// `flows[flow_start[i]..flow_start[i + 1]]`, `(column, flow)` pairs in
    /// ascending column order.
    flow_start: Vec<usize>,
    flows: Vec<(usize, f64)>,
    /// Row-major `m × m` distances, shared with the matrix they came from.
    distance: Arc<[f64]>,
    /// Symmetric flow sums, `sym[i·n + j] = flow(i, j) + flow(j, i)`.
    sym: Vec<f64>,
    /// Bitsets of the non-zero columns of each `sym` row, `n.div_ceil(64)`
    /// words per row: bit `j % 64` of word `i·words + j / 64` is set iff
    /// `sym(i, j) ≠ 0`.  OR-ing two rows' words yields the union of their
    /// supports in ascending column order without a data-dependent merge.
    sym_support: Vec<u64>,
    /// `active[i]` is `false` for facilities whose flow row and column are
    /// all zero — the dummy facilities introduced by device-size padding.
    /// Exchanging two inactive facilities never changes the cost, so the
    /// solvers skip those pairs.
    active: Vec<bool>,
    /// Index of the highest-numbered active facility (`None` when every
    /// facility is a dummy).  Rows past this index contain only dummy-dummy
    /// pairs, so neighbourhood scans truncate there (the per-row "active
    /// span").
    last_active: Option<usize>,
}

impl QapProblem {
    /// Builds the qubit-mapping QAP from gate interaction counts and a
    /// hardware distance matrix.
    ///
    /// `interactions` lists `(circuit_qubit_a, circuit_qubit_b)` pairs, one
    /// entry per two-qubit gate (repetitions increase the flow).
    pub fn from_interactions(
        num_circuit_qubits: usize,
        interactions: &[(usize, usize)],
        hardware: &DistanceMatrix,
    ) -> Self {
        let (flow_start, flows) = interaction_flows(num_circuit_qubits, interactions);
        let m = hardware.num_vertices();
        Self::from_sparse(
            num_circuit_qubits,
            flow_start,
            flows,
            m,
            hardware.shared_f64(),
        )
    }

    /// Builds the qubit-mapping QAP with a *weighted* hardware distance
    /// matrix — the calibration-aware variant of
    /// [`from_interactions`](Self::from_interactions), where location
    /// distances are −log-fidelity path costs instead of hop counts.  The
    /// flow matrix (gate counts) is identical; only the distance side
    /// changes, so the same Tabu/annealing solvers (and their delta tables)
    /// apply unchanged.
    pub fn from_interactions_weighted(
        num_circuit_qubits: usize,
        interactions: &[(usize, usize)],
        hardware: &WeightedDistanceMatrix,
    ) -> Self {
        let (flow_start, flows) = interaction_flows(num_circuit_qubits, interactions);
        let m = hardware.num_vertices();
        Self::from_sparse(num_circuit_qubits, flow_start, flows, m, hardware.shared())
    }

    /// The instance over sparse flow rows (non-zero flows only, ascending
    /// columns) and a shared row-major distance matrix.
    fn from_sparse(
        n: usize,
        flow_start: Vec<usize>,
        flows: Vec<(usize, f64)>,
        m: usize,
        distance: Arc<[f64]>,
    ) -> Self {
        assert!(
            m >= n,
            "need at least as many locations ({m}) as facilities ({n})"
        );
        let words = n.div_ceil(64);
        let mut sym = vec![0.0; n * n];
        let mut active = vec![false; n];
        // Each cell receives `flow(i, j)` and `flow(j, i)` in some order;
        // `0.0 + x` is `x` for the non-zero flows stored here and addition
        // commutes, so every cell is `flow(i, j) + flow(j, i)` bit for bit.
        for i in 0..n {
            for &(j, f) in &flows[flow_start[i]..flow_start[i + 1]] {
                sym[i * n + j] += f;
                sym[j * n + i] += f;
                active[i] = true;
                active[j] = true;
            }
        }
        // Only cells that received a flow can be non-zero.
        let mut sym_support = vec![0u64; n * words];
        for i in 0..n {
            for &(j, _) in &flows[flow_start[i]..flow_start[i + 1]] {
                if sym[i * n + j] != 0.0 {
                    sym_support[i * words + j / 64] |= 1 << (j % 64);
                    sym_support[j * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        let last_active = active.iter().rposition(|&a| a);
        Self {
            n,
            m,
            flow_start,
            flows,
            distance,
            sym,
            sym_support,
            active,
            last_active,
        }
    }

    /// Number of facilities (circuit qubits).
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.n
    }

    /// Flow between two facilities.
    pub fn flow(&self, i: usize, j: usize) -> f64 {
        let row = self.flow_row(i);
        row.binary_search_by_key(&j, |&(k, _)| k)
            .map_or(0.0, |at| row[at].1)
    }

    /// The non-zero flows of row `i`, `(column, flow)` in ascending column
    /// order.
    #[inline]
    fn flow_row(&self, i: usize) -> &[(usize, f64)] {
        &self.flows[self.flow_start[i]..self.flow_start[i + 1]]
    }

    /// Distance between two locations.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.distance[a * self.m + b]
    }

    /// The `a`-th row of the distance matrix.
    #[inline]
    pub fn distance_row(&self, a: usize) -> &[f64] {
        &self.distance[a * self.m..(a + 1) * self.m]
    }

    /// The `i`-th row of the symmetric flow sums,
    /// `sym_row(i)[j] = flow(i, j) + flow(j, i)`.
    #[inline]
    pub fn sym_row(&self, i: usize) -> &[f64] {
        &self.sym[i * self.n..(i + 1) * self.n]
    }

    /// The support of [`sym_row(i)`](Self::sym_row) as a bitset of
    /// `n.div_ceil(64)` words: bit `j % 64` of word `j / 64` is set iff
    /// `sym_row(i)[j] ≠ 0`.
    #[inline]
    pub(crate) fn sym_support(&self, i: usize) -> &[u64] {
        let words = self.n.div_ceil(64);
        &self.sym_support[i * words..(i + 1) * words]
    }

    /// Returns `false` for dummy facilities (all-zero flow row and column)
    /// introduced by padding the QAP up to the device size.
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Index of the highest-numbered active facility, or `None` when all
    /// facilities are dummies.
    #[inline]
    pub fn last_active(&self) -> Option<usize> {
        self.last_active
    }

    /// Scan span for row `i` of the swap neighbourhood: candidate partners
    /// are `j ∈ (i, span)`.  Active rows pair with every later facility;
    /// dummy rows only pair with later *active* facilities (dummy-dummy
    /// swaps never change the cost), so their span truncates at the last
    /// active facility.
    #[inline]
    pub fn scan_span(&self, i: usize) -> usize {
        if self.active[i] {
            self.n
        } else {
            self.last_active.map_or(0, |last| last + 1)
        }
    }

    /// The QAP objective (Eq. 7) for an assignment `φ`:
    /// `Σ_{i,j} f_{ij} · d_{φ(i)φ(j)}`, summed over the non-zero flows in
    /// row-major order.
    ///
    /// `assignment[i]` is the location of facility `i`.
    pub fn cost(&self, assignment: &[usize]) -> f64 {
        debug_assert_eq!(assignment.len(), self.n);
        let mut total = 0.0;
        for (i, &loc) in assignment.iter().enumerate() {
            let drow = self.distance_row(loc);
            for &(j, f) in self.flow_row(i) {
                total += f * drow[assignment[j]];
            }
        }
        total
    }

    /// Change in cost when the locations of facilities `i` and `j` are
    /// exchanged, in O(deg + n/64) instead of recomputing the full cost.
    ///
    /// The sum runs over ascending `k` in the union of the two facilities'
    /// flow supports; every `k` outside it adds two `±0.0` terms, which
    /// leave a sum that started at `+0.0` unchanged, so the result is the
    /// dense O(n) sum bit for bit.  Distances must be finite.
    pub fn swap_delta(&self, assignment: &[usize], i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (pi, pj) = (assignment[i], assignment[j]);
        let (sym_i, sym_j) = (self.sym_row(i), self.sym_row(j));
        let di = self.distance_row(pi);
        let dj = self.distance_row(pj);
        let mut delta = 0.0;
        let supports = self.sym_support(i).iter().zip(self.sym_support(j));
        for (word, (&a, &b)) in supports.enumerate() {
            let mut bits = a | b;
            while bits != 0 {
                let k = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if k == i || k == j {
                    continue;
                }
                let pk = assignment[k];
                delta += sym_i[k] * (dj[pk] - di[pk]);
                delta += sym_j[k] * (di[pk] - dj[pk]);
            }
        }
        delta += self.flow(i, j) * (dj[pi] - di[pj]);
        delta += self.flow(j, i) * (di[pj] - dj[pi]);
        delta
    }

    /// A random assignment of facilities to distinct locations.
    pub fn random_assignment<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut locations: Vec<usize> = (0..self.m).collect();
        locations.shuffle(rng);
        locations.truncate(self.n);
        locations
    }

    /// Verifies that an assignment is injective and within range.
    pub fn is_valid_assignment(&self, assignment: &[usize]) -> bool {
        if assignment.len() != self.n {
            return false;
        }
        let mut seen = vec![false; self.m];
        for &loc in assignment {
            if loc >= self.m || seen[loc] {
                return false;
            }
            seen[loc] = true;
        }
        true
    }
}

/// Sparse flow rows of `n` facilities from one `(a, b)` entry per
/// two-qubit gate: `flow(a, b)` and `flow(b, a)` each count the gates on
/// the pair.  Returns the row starts and the `(column, flow)` entries.
fn interaction_flows(n: usize, interactions: &[(usize, usize)]) -> (Vec<usize>, Vec<(usize, f64)>) {
    let mut directed: Vec<(usize, usize)> = interactions
        .iter()
        .flat_map(|&(a, b)| {
            assert!(a < n && b < n, "interaction qubit out of range");
            [(a, b), (b, a)]
        })
        .collect();
    directed.sort_unstable();
    let mut flow_start = vec![0; n + 1];
    let mut flows = Vec::new();
    for gates in directed.chunk_by(|x, y| x == y) {
        let (a, b) = gates[0];
        flows.push((b, gates.len() as f64));
        flow_start[a + 1] += 1;
    }
    for i in 0..n {
        flow_start[i + 1] += flow_start[i];
    }
    (flow_start, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl QapProblem {
        /// An arbitrary instance from dense row-major matrices, `flow`
        /// `n × n` and `distance` `m × m`: the tests' constructor for flows
        /// that no circuit produces (asymmetric, non-integer).
        pub(crate) fn from_flat(n: usize, flow: Vec<f64>, m: usize, distance: Vec<f64>) -> Self {
            assert_eq!(flow.len(), n * n, "flow matrix must be n × n");
            assert_eq!(distance.len(), m * m, "distance matrix must be m × m");
            let mut flow_start = Vec::with_capacity(n + 1);
            let mut flows = Vec::new();
            for i in 0..n {
                flow_start.push(flows.len());
                let row = flow[i * n..(i + 1) * n].iter().enumerate();
                flows.extend(row.filter(|&(_, &f)| f != 0.0).map(|(j, &f)| (j, f)));
            }
            flow_start.push(flows.len());
            Self::from_sparse(n, flow_start, flows, m, distance.into())
        }
    }

    fn small_problem() -> QapProblem {
        // 3 facilities on a 4-location path graph.
        let hw = DistanceMatrix::bfs(&Graph::path(4));
        QapProblem::from_interactions(3, &[(0, 1), (1, 2), (0, 1)], &hw)
    }

    /// A dense random problem with an asymmetric flow matrix, to exercise
    /// the general (non-symmetric) delta formulas.
    fn random_problem(n: usize, rng: &mut StdRng) -> QapProblem {
        let flow: Vec<f64> = (0..n * n)
            .map(|_| f64::from(rng.gen_range(0..5u32)))
            .collect();
        let hw = DistanceMatrix::bfs(&Graph::grid(2, n.div_ceil(2)));
        let m = hw.num_vertices();
        let mut distance = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                distance[i * m + j] = f64::from(hw.distance(i, j));
            }
        }
        QapProblem::from_flat(n, flow, m, distance)
    }

    #[test]
    fn flow_counts_interactions_symmetrically() {
        let p = small_problem();
        assert_eq!(p.flow(0, 1), 2.0);
        assert_eq!(p.flow(1, 0), 2.0);
        assert_eq!(p.flow(1, 2), 1.0);
        assert_eq!(p.flow(0, 2), 0.0);
        assert_eq!(p.num_facilities(), 3);
        assert_eq!(p.m, 4);
        assert_eq!(p.flow_row(0), &[(1, 2.0)]);
        assert_eq!(p.distance_row(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn cost_of_adjacent_placement_is_minimal() {
        let p = small_problem();
        // Facilities 0,1,2 on consecutive path locations: every interacting
        // pair is adjacent, cost = 2·(2·1) + 2·(1·1) = 6 (flow counted both ways).
        let lined_up = vec![0, 1, 2];
        assert_eq!(p.cost(&lined_up), 6.0);
        // Spreading qubit 1 away increases the cost.
        let spread = vec![0, 3, 1];
        assert!(p.cost(&spread) > p.cost(&lined_up));
    }

    #[test]
    fn swap_delta_matches_full_recomputation() {
        let p = small_problem();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = p.random_assignment(&mut rng);
            for i in 0..3 {
                for j in 0..3 {
                    let mut swapped = a.clone();
                    swapped.swap(i, j);
                    let delta = p.swap_delta(&a, i, j);
                    let expected = p.cost(&swapped) - p.cost(&a);
                    assert!(
                        (delta - expected).abs() < 1e-9,
                        "delta mismatch for swap ({i},{j}): {delta} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_delta_handles_asymmetric_flow() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let p = random_problem(6, &mut rng);
            let a = p.random_assignment(&mut rng);
            for i in 0..6 {
                for j in (i + 1)..6 {
                    let mut swapped = a.clone();
                    swapped.swap(i, j);
                    let delta = p.swap_delta(&a, i, j);
                    let expected = p.cost(&swapped) - p.cost(&a);
                    assert!(
                        (delta - expected).abs() < 1e-9,
                        "asymmetric delta mismatch ({i},{j}): {delta} vs {expected}"
                    );
                }
            }
        }
    }

    /// The dense sums the sparse rows replaced, kept as their oracle:
    /// `cost` over every non-zero entry of the full flow matrix in
    /// row-major order, and `swap_delta` over every `k` in index order.
    fn dense_cost(flow: &[f64], distance: &[f64], m: usize, a: &[usize]) -> f64 {
        let n = a.len();
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                let f = flow[i * n + j];
                if f != 0.0 {
                    total += f * distance[a[i] * m + a[j]];
                }
            }
        }
        total
    }

    fn dense_swap_delta(
        flow: &[f64],
        distance: &[f64],
        m: usize,
        a: &[usize],
        i: usize,
        j: usize,
    ) -> f64 {
        let n = a.len();
        let f = |x: usize, y: usize| flow[x * n + y];
        let d = |x: usize, y: usize| distance[x * m + y];
        let (pi, pj) = (a[i], a[j]);
        let mut delta = 0.0;
        for (k, &pk) in a.iter().enumerate() {
            if k == i || k == j {
                continue;
            }
            delta += (f(i, k) + f(k, i)) * (d(pj, pk) - d(pi, pk));
            delta += (f(j, k) + f(k, j)) * (d(pi, pk) - d(pj, pk));
        }
        delta += f(i, j) * (d(pj, pi) - d(pi, pj));
        delta += f(j, i) * (d(pi, pj) - d(pj, pi));
        delta
    }

    #[test]
    fn sparse_flows_reproduce_the_dense_sums_bit_for_bit() {
        // Sparse, asymmetric, non-integer flows (self-flows included) and
        // non-integer asymmetric distances, so any change of summation
        // order would show in the low bits; n = 70 spans two support words.
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..8 {
            let n = rng.gen_range(2..70usize);
            let m = n + rng.gen_range(0..4usize);
            let mut flow = vec![0.0; n * n];
            for _ in 0..3 * n {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                flow[a * n + b] = rng.gen::<f64>() * 3.0 - 1.0;
            }
            let distance: Vec<f64> = (0..m * m).map(|_| 0.1 + rng.gen::<f64>() * 4.0).collect();
            let p = QapProblem::from_flat(n, flow.clone(), m, distance.clone());
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(p.flow(i, j).to_bits(), flow[i * n + j].to_bits());
                }
            }
            for _ in 0..5 {
                let a = p.random_assignment(&mut rng);
                let cost = dense_cost(&flow, &distance, m, &a);
                assert_eq!(p.cost(&a).to_bits(), cost.to_bits(), "case {case}: cost");
                for i in 0..n {
                    for j in (0..n).filter(|&j| j != i) {
                        let delta = dense_swap_delta(&flow, &distance, m, &a, i, j);
                        assert_eq!(
                            p.swap_delta(&a, i, j).to_bits(),
                            delta.to_bits(),
                            "case {case}: swap_delta({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sym_support_marks_exactly_the_nonzero_symmetric_flows() {
        let mut rng = StdRng::seed_from_u64(13);
        // 70 facilities: the support spans two words.
        let mut flow = vec![0.0; 70 * 70];
        for _ in 0..120 {
            let (a, b) = (rng.gen_range(0..70), rng.gen_range(0..70));
            flow[a * 70 + b] = f64::from(rng.gen_range(1..4u32));
        }
        let hw = DistanceMatrix::bfs(&Graph::grid(7, 10));
        let mut distance = vec![0.0; 70 * 70];
        for a in 0..70 {
            for b in 0..70 {
                distance[a * 70 + b] = f64::from(hw.distance(a, b));
            }
        }
        let p = QapProblem::from_flat(70, flow, 70, distance);
        for i in 0..70 {
            let support = p.sym_support(i);
            assert_eq!(support.len(), 2);
            for j in 0..70 {
                let marked = support[j / 64] >> (j % 64) & 1 == 1;
                assert_eq!(marked, p.sym_row(i)[j] != 0.0, "({i}, {j})");
            }
        }
    }

    #[test]
    fn weighted_qap_matches_hop_qap_on_unit_weights() {
        let g = Graph::path(4);
        let interactions = [(0usize, 1usize), (1, 2), (0, 1)];
        let hop = QapProblem::from_interactions(3, &interactions, &DistanceMatrix::bfs(&g));
        let unit = WeightedDistanceMatrix::dijkstra(&g, &|_, _| 1.0);
        let weighted = QapProblem::from_interactions_weighted(3, &interactions, &unit);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let a = hop.random_assignment(&mut rng);
            assert_eq!(hop.cost(&a), weighted.cost(&a));
            assert_eq!(hop.swap_delta(&a, 0, 2), weighted.swap_delta(&a, 0, 2));
        }
    }

    #[test]
    fn weighted_qap_prefers_low_error_locations() {
        // Path 0–1–2–3 where the 2–3 edge is 10× more expensive: placing an
        // interacting pair on (0, 1) must cost less than on (2, 3).
        let g = Graph::path(4);
        let weight = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (2, 3) {
                10.0
            } else {
                1.0
            }
        };
        let w = WeightedDistanceMatrix::dijkstra(&g, &weight);
        let p = QapProblem::from_interactions_weighted(2, &[(0, 1)], &w);
        assert!(p.cost(&[0, 1]) < p.cost(&[2, 3]));
    }

    #[test]
    fn padding_facilities_are_inactive() {
        let hw = DistanceMatrix::bfs(&Graph::path(5));
        let p = QapProblem::from_interactions(5, &[(0, 1), (1, 2)], &hw);
        assert!(p.is_active(0));
        assert!(p.is_active(1));
        assert!(p.is_active(2));
        assert!(!p.is_active(3));
        assert!(!p.is_active(4));
        // Swapping two inactive facilities never changes the cost.
        let a: Vec<usize> = (0..p.num_facilities()).collect();
        assert_eq!(p.swap_delta(&a, 3, 4), 0.0);
    }

    #[test]
    fn random_assignments_are_valid() {
        let p = small_problem();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = p.random_assignment(&mut rng);
            assert!(p.is_valid_assignment(&a));
        }
        assert!(p.is_valid_assignment(&[0, 1, 2]));
        assert!(!p.is_valid_assignment(&[0, 0, 1]));
        assert!(!p.is_valid_assignment(&[0, 1]));
        assert!(!p.is_valid_assignment(&[0, 1, 9]));
    }

    #[test]
    #[should_panic(expected = "at least as many locations")]
    fn rejects_too_few_locations() {
        let hw = DistanceMatrix::bfs(&Graph::path(2));
        let _ = QapProblem::from_interactions(3, &[(0, 1)], &hw);
    }
}
