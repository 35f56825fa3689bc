//! Tabu search for the Quadratic Assignment Problem.
//!
//! §III-A of the paper: "QAP is a NP-hard problem and we use the Tabu search
//! heuristic algorithm to efficiently find good qubit mappings".  This is a
//! classic swap-neighbourhood Tabu search with an aspiration criterion:
//! recently swapped facility pairs are forbidden for a configurable tenure
//! unless the move improves on the best cost seen so far.
//!
//! Two things make it fast:
//!
//! * a Taillard-style **delta table** — the cost change of every candidate
//!   swap is computed once up front and then updated incrementally after
//!   each accepted move.  The flow side is sparse (interaction graphs have
//!   bounded degree `deg`), so recomputing one delta visits only the
//!   O(deg) columns of two flow supports (found through n/64-word bitsets,
//!   at most four words for n ≤ 256) and an accepted move costs O(n·deg);
//!   one iteration is dominated by the neighbourhood scan, which reads at
//!   most the O(n²) cached deltas and early-aborts most rows;
//! * **parallel restarts** — the independent random restarts run on the
//!   compile pool (`twoqan_pool::run_indexed`) with per-restart seeds
//!   pre-drawn from the caller's RNG, so results are bit-identical for a
//!   fixed seed regardless of thread count.

use crate::budget::SolverBudget;
use crate::qap::QapProblem;
use crate::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the Tabu search.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuConfig {
    /// Maximum number of iterations (each iteration evaluates the whole swap
    /// neighbourhood).
    pub max_iterations: usize,
    /// Number of iterations a swapped pair stays tabu.
    pub tenure: usize,
    /// Stop early after this many iterations without improvement.
    pub stall_limit: usize,
    /// Number of restarts; the best result over all restarts is kept.
    pub restarts: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tenure: 8,
            stall_limit: 60,
            restarts: 2,
        }
    }
}

/// Result of a Tabu search run.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuResult {
    /// Best assignment found (facility → location).
    pub assignment: Vec<usize>,
    /// Cost of the best assignment.
    pub cost: f64,
    /// Total number of neighbourhood iterations performed.
    pub iterations: usize,
}

/// Runs Tabu search on a QAP instance and returns the best assignment found
/// across `config.restarts` restarts (ties broken in favour of the earlier
/// restart).
///
/// One seed per restart is drawn from `rng` up front, so the outcome is
/// independent of execution order and thread count; the restarts run on the
/// installed [`twoqan_pool::CompilePool`] when there is one.  Restart slot 0
/// starts from `warm` when it is given — a valid assignment, typically the
/// previous placement of the same problem — and ignores its seed; every
/// other slot starts from a random assignment drawn from its own seed.  A
/// warm result never costs more than `warm` itself: slot 0's best-so-far
/// starts there and the reduction keeps the minimum.
///
/// Under a limited `budget` each restart stops at its next iteration
/// boundary and returns its best-so-far assignment — the start is always
/// valid, so the result is valid no matter how early the budget runs out.
/// An unlimited budget never reads the clock.
///
/// # Panics
///
/// Panics if `warm` is not a valid assignment of `problem`.
pub fn tabu_search<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &TabuConfig,
    warm: Option<&[usize]>,
    budget: &SolverBudget,
    rng: &mut R,
) -> TabuResult {
    let restarts = config.restarts.max(1);
    let seeds: Vec<u64> = (0..restarts).map(|_| rng.gen::<u64>()).collect();
    let results = twoqan_pool::run_indexed(restarts, |k| {
        let start = match warm {
            Some(start) if k == 0 => start.to_vec(),
            _ => problem.random_assignment(&mut StdRng::seed_from_u64(seeds[k])),
        };
        tabu_core(problem, start, config, budget)
    });
    results
        .into_iter()
        .reduce(|best, r| if r.cost < best.cost { r } else { best })
        .expect("at least one restart is always performed")
}

/// How many scan/build rows are processed between cooperative budget
/// checks — one "tile" of the blocked sweep.
const BUDGET_CHECK_ROWS: usize = 32;

/// Incrementally maintained swap-delta table over facility pairs `i < j`.
///
/// `delta(i, j)` always equals `QapProblem::swap_delta(&current, i, j)` for
/// the solver's current assignment; [`DeltaTable::apply_swap`] keeps that
/// invariant after an accepted move.  Pairs of two inactive (dummy
/// padding) facilities are excluded: their delta is identically zero and
/// swapping them never helps, so the neighbourhood scan skips them — each
/// row's candidate partners are its *active span*
/// ([`QapProblem::scan_span`]).
///
/// The table is the hot path of a compile.  With `deg` the largest number
/// of non-zeros in a row of the symmetric flow matrix:
///
/// * `dloc` caches the assignment-permuted distance matrix
///   (`dloc[r·n + k] = d(φ(r), φ(k))`), so a delta recomputation
///   (`delta_pair`) is an O(deg) sum over the union of its two
///   facilities' flow supports, found by OR-ing [`QapProblem`]'s support
///   bitsets; the build is O(n²·deg);
/// * [`DeltaTable::apply_swap`] applies the Taillard update
///   `(sg[i] − sg[j])·(h[i] − h[j])` as a rank-1 SIMD row sweep
///   (`simd::update_row`) only on the rows where `sg[i] ≠ 0` — the flow
///   neighbours of the swapped pair.  Every other row changes only in the
///   O(deg) columns where `sg[j] ≠ 0`, plus its two recomputed columns, for
///   O(n·deg) per accepted move;
/// * each row's minimum is cached (`row_min`), giving the neighbourhood
///   scan a lower bound to early-abort whole rows.  It stays exact: a row
///   is rescanned only when an entry that held its minimum grew.
///
/// The sparse sums keep the floating-point order of an `L`-lane dense dot
/// product, `L` being the platform's `simd::dot_lanes`, so every delta is
/// bit-identical to a dense evaluation, also on non-integer
/// (calibration-weighted) distances.  Only the sign of a zero delta may
/// differ, and no comparison or cost update can see it.
#[derive(Debug, Clone)]
pub struct DeltaTable {
    n: usize,
    /// `L − 1` for the `L` summation lanes of `delta_pair`.
    lane_mask: usize,
    /// Upper-triangle swap deltas in a full row-major `n × n` buffer.
    delta: Vec<f64>,
    /// Assignment-permuted distances: `dloc[r·n + k] = d(φ(r), φ(k))`.
    dloc: Vec<f64>,
    /// `row_min[i] = min over j ∈ (i, span(i)) of delta(i, j)`; `+∞` for
    /// empty rows.  A conservative lower bound for the early-abort scan
    /// (it ignores tabu status, so it never overestimates).
    row_min: Vec<f64>,
    /// Scratch for [`DeltaTable::apply_swap`]: `sg`, `h`, `sg·h`.
    scratch: Vec<f64>,
    /// Scratch for [`DeltaTable::apply_swap`]: the columns `j` with
    /// `sg[j] ≠ 0`, ascending.
    touched: Vec<usize>,
}

impl DeltaTable {
    /// Builds the table for `assignment` (O(n²·deg)).
    pub fn new(problem: &QapProblem, assignment: &[usize]) -> Self {
        Self::new_budgeted(problem, assignment, &SolverBudget::unlimited())
            .expect("an unlimited budget never expires")
    }

    /// Builds the table under a cooperative budget, checked once per
    /// `BUDGET_CHECK_ROWS`-row tile.  Returns `None` if the budget expires
    /// mid-build so deadline-limited solvers can fall back to best-so-far
    /// without paying for the rest of the build.
    pub fn new_budgeted(
        problem: &QapProblem,
        assignment: &[usize],
        budget: &SolverBudget,
    ) -> Option<Self> {
        Self::build(problem, assignment, budget, simd::dot_lanes())
    }

    /// [`new_budgeted`](Self::new_budgeted) summing in the order of an
    /// `lanes`-lane dot product (1, 2 or 4).
    fn build(
        problem: &QapProblem,
        assignment: &[usize],
        budget: &SolverBudget,
        lanes: usize,
    ) -> Option<Self> {
        debug_assert!(matches!(lanes, 1 | 2 | 4));
        let n = problem.num_facilities();
        let lane_mask = lanes - 1;
        let mut dloc = vec![0.0; n * n];
        for (r, row) in dloc.chunks_exact_mut(n).enumerate() {
            let drow = problem.distance_row(assignment[r]);
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = drow[assignment[k]];
            }
        }
        let mut delta = vec![0.0; n * n];
        let mut row_min = vec![f64::INFINITY; n];
        for i in 0..n {
            if i % BUDGET_CHECK_ROWS == 0 && budget.expired() {
                return None;
            }
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            for j in lo..span {
                delta[i * n + j] = delta_pair(problem, &dloc, n, lane_mask, i, j);
            }
            row_min[i] = simd::row_min(&delta[i * n + lo..i * n + span]);
        }
        Some(Self {
            n,
            lane_mask,
            delta,
            dloc,
            row_min,
            scratch: vec![0.0; 3 * n],
            touched: Vec::new(),
        })
    }

    /// The cached cost change of exchanging facilities `i` and `j`
    /// (requires `i < j`).
    #[inline]
    pub fn delta(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < j);
        self.delta[i * self.n + j]
    }

    /// Lower bound on `delta(i, j)` over row `i`'s active span (`+∞` for
    /// rows with no candidate partner).
    #[inline]
    pub fn row_lower_bound(&self, i: usize) -> f64 {
        self.row_min[i]
    }

    /// Updates the table after the swap of facilities `u` and `v` has been
    /// applied to `assignment` (which must already reflect the swap).
    ///
    /// Pairs disjoint from `{u, v}` get the O(1) Taillard update; the pairs
    /// touching `u` or `v` are recomputed as O(deg) sums.  Only
    /// entries whose update is non-zero are written, for O(n·deg) in total.
    pub fn apply_swap(&mut self, problem: &QapProblem, assignment: &[usize], u: usize, v: usize) {
        let n = self.n;
        debug_assert!(u != v && u < n && v < n);
        debug_assert_eq!(assignment.len(), n);
        let (u, v) = (u.min(v), u.max(v));
        let lane_mask = self.lane_mask;

        // 1. Re-permute the cached distance matrix: swapping facilities u, v
        //    permutes dloc by the transposition (u v) on both axes.
        for r in 0..n {
            self.dloc.swap(r * n + u, r * n + v);
        }
        let (head, tail) = self.dloc.split_at_mut(v * n);
        head[u * n..(u + 1) * n].swap_with_slice(&mut tail[..n]);
        debug_assert_eq!(
            self.dloc[u * n + v],
            problem.distance(assignment[u], assignment[v])
        );

        // 2. Difference vectors for the rank-1 Taillard update: for any pair
        //    {i, j} disjoint from {u, v},
        //    Δ'(i, j) = Δ(i, j) + (sg[i] − sg[j])·(h[i] − h[j])
        //    with sg[i] = sym(i, u) − sym(i, v) (flow side, rows + columns
        //    folded through the symmetric sums) and h[i] = d(φ(i), a) −
        //    d(φ(i), b) (distance side; a/b are u/v's pre-swap locations,
        //    i.e. φ(v)/φ(u) *after* the swap — dloc columns v/u).  sg is
        //    non-zero only on the flow neighbours of u and v: `touched`.
        let (sg, rest) = self.scratch.split_at_mut(n);
        let (h, sgh) = rest.split_at_mut(n);
        // sym(i, u) = sym(u, i) bit for bit, so rows u and v serve as the
        // columns.
        let (sym_u, sym_v) = (problem.sym_row(u), problem.sym_row(v));
        self.touched.clear();
        for i in 0..n {
            sg[i] = sym_u[i] - sym_v[i];
            h[i] = self.dloc[i * n + v] - self.dloc[i * n + u];
            sgh[i] = sg[i] * h[i];
            if sg[i] != 0.0 {
                self.touched.push(i);
            }
        }

        // 3. Sweep the rows.  Where sg[i] = sg[j] = 0 the update is
        //    (0 − 0)·(h[i] − h[j]): adding that ±0.0 leaves an entry
        //    unchanged, so those entries are not visited.  Inactive-inactive
        //    pairs stay at exactly 0.0: dummy facilities have all-zero sym
        //    rows, so sg vanishes on both.
        let mut first_touched = 0;
        for i in 0..n {
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            let base = i * n;
            if i == u || i == v {
                for j in lo..span {
                    self.delta[base + j] = delta_pair(problem, &self.dloc, n, lane_mask, i, j);
                }
                self.row_min[i] = simd::row_min(&self.delta[base + lo..base + span]);
            } else if sg[i] != 0.0 {
                // A flow neighbour of u or v: the whole row moves.
                simd::update_row(
                    &mut self.delta[base + lo..base + span],
                    &sg[lo..span],
                    &h[lo..span],
                    &sgh[lo..span],
                    sg[i],
                    h[i],
                );
                // The blanket update is wrong for the two recompute columns;
                // overwrite them with exact recomputations.
                for w in [u, v] {
                    if w > i && w < span {
                        self.delta[base + w] = delta_pair(problem, &self.dloc, n, lane_mask, i, w);
                    }
                }
                self.row_min[i] = simd::row_min(&self.delta[base + lo..base + span]);
            } else {
                // Only the touched columns and the two recompute columns
                // change.  The touched ones use `update_row`'s elementwise
                // formula and operation order, so they match a full sweep.
                while first_touched < self.touched.len() && self.touched[first_touched] <= i {
                    first_touched += 1;
                }
                let (a_sg, a_h) = (sg[i], h[i]);
                let ab = a_sg * a_h;
                let old_min = self.row_min[i];
                let mut min = old_min;
                let mut grew_from_min = false;
                let mut record = |old: f64, new: f64| {
                    min = min.min(new);
                    grew_from_min |= old == old_min && new > old;
                };
                for &j in &self.touched[first_touched..] {
                    if j >= span {
                        break;
                    }
                    if j == u || j == v {
                        continue;
                    }
                    let slot = &mut self.delta[base + j];
                    let old = *slot;
                    *slot += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
                    record(old, *slot);
                }
                for w in [u, v] {
                    if w > i && w < span {
                        let old = self.delta[base + w];
                        let new = delta_pair(problem, &self.dloc, n, lane_mask, i, w);
                        self.delta[base + w] = new;
                        record(old, new);
                    }
                }
                // The minimum can only have moved up if an entry that held it
                // grew; otherwise it is the smaller of the old minimum and
                // the new values.
                self.row_min[i] = if grew_from_min {
                    simd::row_min(&self.delta[base + lo..base + span])
                } else {
                    min
                };
            }
        }
    }
}

/// Recomputation of `QapProblem::swap_delta(φ, i, j)` from the permuted
/// distance cache:
/// `Σ_{k ≠ i,j} (sym_i[k] − sym_j[k])·(dloc_j[k] − dloc_i[k])` (the direct
/// `{i, j}` term cancels because hardware distance matrices are symmetric),
/// evaluated as the full sum over `k` minus its `k = i` and `k = j` terms.
///
/// Only `k` in the union of the two flow supports can contribute, so the
/// sum visits the set bits of the OR of the two support bitsets, in
/// ascending `k`: O(deg + n/64).  It replays the order of an `L`-lane dense
/// dot product (`lane_mask = L − 1`, see `simd::dot_lanes`): term `k` of
/// the body `k < n − n mod L` goes to lane `k & lane_mask`, the lanes are
/// reduced as `(a0 + a2) + (a1 + a3)` and the tail terms follow in index
/// order.  Leaving out the terms off the union is exact: each is ±0.0, and
/// adding ±0.0 to a lane that started at +0.0 never changes it (a sum is
/// −0.0 only if both operands are).  For the same reason the one reduction
/// formula is exact for `L` = 1 and 2, whose unused lanes stay +0.0.
/// Distances must be finite.
#[inline]
fn delta_pair(
    problem: &QapProblem,
    dloc: &[f64],
    n: usize,
    lane_mask: usize,
    i: usize,
    j: usize,
) -> f64 {
    let sym_i = problem.sym_row(i);
    let sym_j = problem.sym_row(j);
    let dloc_i = &dloc[i * n..(i + 1) * n];
    let dloc_j = &dloc[j * n..(j + 1) * n];
    let term = |k: usize| (sym_i[k] - sym_j[k]) * (dloc_j[k] - dloc_i[k]);
    let body = n & !lane_mask;
    let mut lanes = [0.0f64; 4];
    let mut tail = [0.0f64; 3];
    let mut tail_len = 0;
    let supports = problem.sym_support(i).iter().zip(problem.sym_support(j));
    for (word, (&a, &b)) in supports.enumerate() {
        let mut bits = a | b;
        while bits != 0 {
            let k = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if k < body {
                lanes[k & lane_mask] += term(k);
            } else {
                tail[tail_len] = term(k);
                tail_len += 1;
            }
        }
    }
    let mut full = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for &t in &tail[..tail_len] {
        full += t;
    }
    full - term(i) - term(j)
}

/// Outcome of one neighbourhood scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanOutcome {
    /// Best admissible move `(i, j, delta)` under the usual Tabu rules.
    Move(usize, usize, f64),
    /// No admissible move exists (everything tabu without aspiration).
    Exhausted,
    /// The solver budget expired mid-scan; stop and keep best-so-far.
    Expired,
}

/// Blocked, early-aborting neighbourhood scan over the cached delta table.
///
/// Semantically identical to a full first-wins scan of every admissible pair
/// in index order (same move, same delta, same tie-breaks) whenever the
/// budget does not expire; `tests/scan_equivalence.rs` holds that reference
/// scan and checks the equivalence.  Two filters cut the scanned volume:
///
/// 1. **Best-bound-first incumbent seeding** — the row with the globally
///    smallest cached lower bound ([`DeltaTable::row_lower_bound`]) is
///    scanned first, so the incumbent is near-optimal before the index-order
///    sweep begins.  This pays off most on warm-started searches sitting in a
///    local optimum, where almost every row's bound is non-negative.
/// 2. **Per-row early abort** — a row is skipped when its lower bound (a min
///    over a *superset* of the admissible moves, so never an overestimate)
///    proves it cannot beat the incumbent, nor tie it at a
///    lexicographically smaller pair.
///
/// Candidate replacement is tie-aware (`delta < d`, or `delta == d` at a
/// lex-smaller `(i, j)`), which makes the result order-independent and equal
/// to the full scan's first-wins winner.  The budget is checked once
/// per `BUDGET_CHECK_ROWS`-row tile.
pub fn select_best_move(
    table: &DeltaTable,
    problem: &QapProblem,
    tabu_until: &[usize],
    iter: usize,
    current_cost: f64,
    best_cost: f64,
    budget: &SolverBudget,
) -> ScanOutcome {
    let n = problem.num_facilities();
    if budget.expired() {
        return ScanOutcome::Expired;
    }
    let mut best: Option<(usize, usize, f64)> = None;
    let scan_row = |i: usize, best: &mut Option<(usize, usize, f64)>| {
        let span = problem.scan_span(i);
        let lo = i + 1;
        if lo >= span {
            return;
        }
        let i_active = problem.is_active(i);
        for j in lo..span {
            // The span truncates dummy rows at the last active facility, but
            // dummy partners *below* it still need the dummy-dummy
            // exclusion.
            if !i_active && !problem.is_active(j) {
                continue;
            }
            let delta = table.delta(i, j);
            let is_tabu = tabu_until[i * n + j] > iter;
            let aspires = current_cost + delta < best_cost - 1e-12;
            if is_tabu && !aspires {
                continue;
            }
            let replace = match *best {
                None => true,
                Some((bi, bj, d)) => delta < d || (delta == d && (i, j) < (bi, bj)),
            };
            if replace {
                *best = Some((i, j, delta));
            }
        }
    };
    // Seed the incumbent from the most promising row so the per-row filter
    // below starts strong.  O(n) to find, one row to scan.
    let mut seed_row = None;
    let mut seed_bound = f64::INFINITY;
    for i in 0..n {
        let bound = table.row_lower_bound(i);
        if bound < seed_bound {
            seed_bound = bound;
            seed_row = Some(i);
        }
    }
    if let Some(s) = seed_row {
        scan_row(s, &mut best);
    }
    for i in 0..n {
        if i % BUDGET_CHECK_ROWS == 0 && budget.expired() {
            return ScanOutcome::Expired;
        }
        if Some(i) == seed_row {
            continue;
        }
        if let Some((bi, _, d)) = best {
            let bound = table.row_lower_bound(i);
            // `bound > d`: every move in the row is strictly worse.
            // `bound == d && i > bi`: a tie here loses the lex tie-break.
            // `bound == d && i < bi` must still be scanned — it may hold an
            // equal-delta move at a lex-smaller pair.
            if bound > d || (bound == d && i > bi) {
                continue;
            }
        }
        scan_row(i, &mut best);
    }
    match best {
        Some((i, j, delta)) => ScanOutcome::Move(i, j, delta),
        None => ScanOutcome::Exhausted,
    }
}

/// The Tabu descent of one restart, from a valid starting assignment,
/// polling `budget` once per neighbourhood iteration.
fn tabu_core(
    problem: &QapProblem,
    start: Vec<usize>,
    config: &TabuConfig,
    budget: &SolverBudget,
) -> TabuResult {
    assert!(
        problem.is_valid_assignment(&start),
        "tabu search requires a valid starting assignment"
    );
    let n = problem.num_facilities();
    let mut current = start;
    let mut current_cost = problem.cost(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    // tabu_until[i * n + j] = iteration until which swapping (i, j) is forbidden.
    let mut tabu_until = vec![0usize; n * n];
    let mut stall = 0usize;
    let mut iterations = 0usize;
    // The delta table costs O(n²·deg) up front — the budgeted build bails out
    // per row tile, so a zero-deadline call returns (the valid start)
    // immediately and a mid-build expiry wastes at most one tile.
    let mut deltas = if n >= 2 && !budget.expired() {
        DeltaTable::new_budgeted(problem, &current, budget)
    } else {
        None
    };

    for iter in 1..=config.max_iterations {
        if budget.expired() {
            break;
        }
        iterations = iter;
        let Some(deltas) = deltas.as_mut() else { break };
        // Blocked early-abort scan of the swap neighbourhood using the
        // cached deltas and per-row lower bounds; pairs of two dummy
        // facilities are never worth exchanging and are outside every row's
        // active span.  The budget is re-checked per row tile so deadline
        // expiry mid-scan still returns the best-so-far assignment.
        let (i, j, delta) = match select_best_move(
            deltas,
            problem,
            &tabu_until,
            iter,
            current_cost,
            best_cost,
            budget,
        ) {
            ScanOutcome::Move(i, j, delta) => (i, j, delta),
            ScanOutcome::Exhausted | ScanOutcome::Expired => break,
        };
        current.swap(i, j);
        current_cost += delta;
        deltas.apply_swap(problem, &current, i, j);
        // Only the upper triangle (i < j) is ever read by the scan above.
        tabu_until[i * n + j] = iter + config.tenure;

        if current_cost < best_cost - 1e-12 {
            best_cost = current_cost;
            best.copy_from_slice(&current);
            stall = 0;
        } else {
            stall += 1;
            if stall >= config.stall_limit {
                break;
            }
        }
        // A cost of zero cannot be improved upon (all interacting pairs adjacent
        // or no interactions at all).
        if best_cost <= 1e-12 {
            break;
        }
    }

    TabuResult {
        assignment: best,
        cost: best_cost,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::graph::Graph;
    use crate::random_regular::random_regular_graph;
    use crate::tests::serially;
    use crate::weighted::WeightedDistanceMatrix;
    use std::time::Duration;

    /// A line of interacting qubits on a grid device: the optimum places the
    /// line along adjacent hardware qubits (cost = number of gates, counted
    /// twice by the symmetric objective).
    fn line_on_grid(n: usize, rows: usize, cols: usize) -> QapProblem {
        let hw = DistanceMatrix::floyd_warshall(&Graph::grid(rows, cols));
        let interactions: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        QapProblem::from_interactions(n, &interactions, &hw)
    }

    /// One restart, so a `warm` start is the whole search.
    fn single_restart() -> TabuConfig {
        TabuConfig {
            restarts: 1,
            ..TabuConfig::default()
        }
    }

    #[test]
    fn finds_optimal_line_placement_on_grid() {
        let p = line_on_grid(6, 2, 3);
        let mut rng = StdRng::seed_from_u64(17);
        let r = tabu_search(
            &p,
            &TabuConfig::default(),
            None,
            &SolverBudget::unlimited(),
            &mut rng,
        );
        // Five chain gates, each of distance 1, counted symmetrically → 10.
        assert_eq!(r.cost, 10.0);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn improves_over_random_start() {
        let p = line_on_grid(8, 3, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let start = p.random_assignment(&mut rng);
        let start_cost = p.cost(&start);
        let r = tabu_search(
            &p,
            &single_restart(),
            Some(&start),
            &SolverBudget::unlimited(),
            &mut rng,
        );
        assert!(r.cost <= start_cost);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn handles_single_facility() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(3));
        let p = QapProblem::from_interactions(1, &[], &hw);
        let mut rng = StdRng::seed_from_u64(0);
        let r = tabu_search(
            &p,
            &TabuConfig::default(),
            None,
            &SolverBudget::unlimited(),
            &mut rng,
        );
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.assignment.len(), 1);
    }

    #[test]
    fn respects_iteration_budget() {
        let p = line_on_grid(9, 3, 3);
        let config = TabuConfig {
            max_iterations: 3,
            ..TabuConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let r = tabu_search(&p, &config, None, &SolverBudget::unlimited(), &mut rng);
        assert!(r.iterations <= 3);
    }

    #[test]
    fn parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(9, 4, 4);
        let config = TabuConfig {
            restarts: 6,
            ..TabuConfig::default()
        };
        let unlimited = SolverBudget::unlimited();
        for seed in 0..5 {
            let search = || {
                tabu_search(
                    &p,
                    &config,
                    None,
                    &unlimited,
                    &mut StdRng::seed_from_u64(seed),
                )
            };
            assert_eq!(
                serially(search),
                search(),
                "seed {seed} diverged across thread modes"
            );
        }
    }

    #[test]
    fn delta_table_tracks_accepted_swaps() {
        let p = line_on_grid(7, 3, 3);
        let mut rng = StdRng::seed_from_u64(40);
        let mut assignment = p.random_assignment(&mut rng);
        let n = p.num_facilities();
        let mut table = DeltaTable::new(&p, &assignment);
        for step in 0..30 {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                v = (v + 1) % n;
            }
            assignment.swap(u, v);
            table.apply_swap(&p, &assignment, u, v);
            for i in 0..n {
                for j in (i + 1)..n {
                    if !p.is_active(i) && !p.is_active(j) {
                        continue;
                    }
                    let expected = p.swap_delta(&assignment, i, j);
                    assert!(
                        (table.delta(i, j) - expected).abs() < 1e-9,
                        "step {step}: table ({i},{j}) = {} but swap_delta = {expected}",
                        table.delta(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn expired_budget_returns_the_valid_start() {
        let p = line_on_grid(8, 3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let start = p.random_assignment(&mut rng);
        let start_cost = p.cost(&start);
        let budget = SolverBudget::with_deadline(Duration::ZERO);
        let r = tabu_search(&p, &single_restart(), Some(&start), &budget, &mut rng);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.cost, start_cost);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    #[should_panic(expected = "valid starting assignment")]
    fn rejects_invalid_start() {
        let p = line_on_grid(4, 2, 2);
        let _ = tabu_search(
            &p,
            &single_restart(),
            Some(&[0, 0, 1, 2]),
            &SolverBudget::unlimited(),
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn warm_start_never_loses_to_its_seed() {
        let p = line_on_grid(9, 4, 4);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = p.random_assignment(&mut rng);
            let start_cost = p.cost(&start);
            let r = tabu_search(
                &p,
                &TabuConfig::default(),
                Some(&start),
                &SolverBudget::unlimited(),
                &mut rng,
            );
            assert!(r.cost <= start_cost, "seed {seed}: warm lost to its seed");
            assert!(p.is_valid_assignment(&r.assignment));
        }
    }

    #[test]
    fn warm_start_from_an_optimum_returns_it_unchanged() {
        // Find the optimum cold, then warm-start from it: the warm slot's
        // best-so-far starts at the optimum and can never be displaced.
        let p = line_on_grid(6, 2, 3);
        let unlimited = SolverBudget::unlimited();
        let config = TabuConfig::default();
        let cold = tabu_search(
            &p,
            &config,
            None,
            &unlimited,
            &mut StdRng::seed_from_u64(17),
        );
        assert_eq!(cold.cost, 10.0);
        let r = tabu_search(
            &p,
            &config,
            Some(&cold.assignment),
            &unlimited,
            &mut StdRng::seed_from_u64(99),
        );
        assert_eq!(r.cost, 10.0);
    }

    #[test]
    fn warm_start_at_slot_zeros_own_random_start_reproduces_the_cold_search() {
        // Every restart seed is drawn up front and slot 0 is the only slot a
        // warm start replaces, so warm-starting from the very assignment
        // cold slot 0 would draw must reproduce the cold search exactly.
        let p = line_on_grid(9, 4, 4);
        let config = TabuConfig {
            restarts: 3,
            ..TabuConfig::default()
        };
        let unlimited = SolverBudget::unlimited();
        for seed in 0..4 {
            let slot_zero_seed = StdRng::seed_from_u64(seed).gen::<u64>();
            let start = p.random_assignment(&mut StdRng::seed_from_u64(slot_zero_seed));
            let cold = tabu_search(
                &p,
                &config,
                None,
                &unlimited,
                &mut StdRng::seed_from_u64(seed),
            );
            let warm = tabu_search(
                &p,
                &config,
                Some(&start),
                &unlimited,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(cold, warm, "seed {seed}");
        }
    }

    #[test]
    fn warm_parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(9, 4, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let warm = p.random_assignment(&mut rng);
        let config = TabuConfig {
            restarts: 5,
            ..TabuConfig::default()
        };
        let unlimited = SolverBudget::unlimited();
        for seed in 0..4 {
            let search = || {
                tabu_search(
                    &p,
                    &config,
                    Some(&warm),
                    &unlimited,
                    &mut StdRng::seed_from_u64(seed),
                )
            };
            assert_eq!(
                serially(search),
                search(),
                "seed {seed} diverged across thread modes"
            );
        }
    }

    /// The dense delta table the sparse kernels replaced, kept as their
    /// oracle: every delta is a full O(n) dot product over whole `sym` and
    /// `dloc` rows, and every accepted swap sweeps all O(n²) entries.
    struct DenseTable {
        n: usize,
        lanes: usize,
        delta: Vec<f64>,
        dloc: Vec<f64>,
        row_min: Vec<f64>,
    }

    impl DenseTable {
        fn new(problem: &QapProblem, assignment: &[usize], lanes: usize) -> Self {
            let n = problem.num_facilities();
            let mut dloc = vec![0.0; n * n];
            for r in 0..n {
                for k in 0..n {
                    dloc[r * n + k] = problem.distance(assignment[r], assignment[k]);
                }
            }
            let mut table = Self {
                n,
                lanes,
                delta: vec![0.0; n * n],
                dloc,
                row_min: vec![f64::INFINITY; n],
            };
            for i in 0..n {
                let span = problem.scan_span(i);
                if i + 1 >= span {
                    continue;
                }
                for j in i + 1..span {
                    table.delta[i * n + j] = table.delta_pair(problem, i, j);
                }
                table.row_min[i] = simd::row_min(&table.delta[i * n + i + 1..i * n + span]);
            }
            table
        }

        fn delta_pair(&self, problem: &QapProblem, i: usize, j: usize) -> f64 {
            let n = self.n;
            let sym_i = problem.sym_row(i);
            let sym_j = problem.sym_row(j);
            let dloc_i = &self.dloc[i * n..(i + 1) * n];
            let dloc_j = &self.dloc[j * n..(j + 1) * n];
            let full = dense_dot(sym_i, sym_j, dloc_j, dloc_i, self.lanes);
            let at_i = (sym_i[i] - sym_j[i]) * (dloc_j[i] - dloc_i[i]);
            let at_j = (sym_i[j] - sym_j[j]) * (dloc_j[j] - dloc_i[j]);
            full - at_i - at_j
        }

        fn apply_swap(&mut self, problem: &QapProblem, u: usize, v: usize) {
            let n = self.n;
            let (u, v) = (u.min(v), u.max(v));
            for r in 0..n {
                self.dloc.swap(r * n + u, r * n + v);
            }
            for k in 0..n {
                self.dloc.swap(u * n + k, v * n + k);
            }
            let mut sg = vec![0.0; n];
            let mut h = vec![0.0; n];
            let mut sgh = vec![0.0; n];
            for i in 0..n {
                let sym_i = problem.sym_row(i);
                sg[i] = sym_i[u] - sym_i[v];
                h[i] = self.dloc[i * n + v] - self.dloc[i * n + u];
                sgh[i] = sg[i] * h[i];
            }
            for i in 0..n {
                let span = problem.scan_span(i);
                let lo = i + 1;
                if lo >= span {
                    continue;
                }
                if i == u || i == v {
                    for j in lo..span {
                        self.delta[i * n + j] = self.delta_pair(problem, i, j);
                    }
                } else {
                    simd::update_row(
                        &mut self.delta[i * n + lo..i * n + span],
                        &sg[lo..span],
                        &h[lo..span],
                        &sgh[lo..span],
                        sg[i],
                        h[i],
                    );
                    for w in [u, v] {
                        if w > i && w < span {
                            self.delta[i * n + w] = self.delta_pair(problem, i, w);
                        }
                    }
                }
                self.row_min[i] = simd::row_min(&self.delta[i * n + lo..i * n + span]);
            }
        }
    }

    /// `Σ_k (a[k] − b[k])·(c[k] − d[k])` in the order of the dense
    /// `lanes`-lane kernel.  The AVX2 (4 lanes) and NEON (2 lanes) kernels'
    /// lane operations are IEEE-754 per lane with no FMA, so these scalar
    /// accumulators reproduce them exactly.
    fn dense_dot(a: &[f64], b: &[f64], c: &[f64], d: &[f64], lanes: usize) -> f64 {
        let n = a.len();
        let body = n - n % lanes;
        let mut acc = [0.0f64; 4];
        for k in 0..body {
            acc[k % lanes] += (a[k] - b[k]) * (c[k] - d[k]);
        }
        let mut total = match lanes {
            4 => (acc[0] + acc[2]) + (acc[1] + acc[3]),
            2 => acc[0] + acc[1],
            _ => acc[0],
        };
        for k in body..n {
            total += (a[k] - b[k]) * (c[k] - d[k]);
        }
        total
    }

    /// Every in-span delta and every row bound of the sparse table equals
    /// the dense oracle's.  `==`, not `to_bits`: the sign of a zero delta
    /// is the one allowed difference.
    fn assert_lockstep(sparse: &DeltaTable, dense: &DenseTable, p: &QapProblem, what: &str) {
        let n = p.num_facilities();
        for i in 0..n {
            for j in i + 1..p.scan_span(i) {
                assert!(
                    sparse.delta(i, j) == dense.delta[i * n + j],
                    "{what}: delta({i}, {j}) = {} but the dense oracle has {}",
                    sparse.delta(i, j),
                    dense.delta[i * n + j]
                );
            }
            assert!(
                sparse.row_lower_bound(i) == dense.row_min[i],
                "{what}: row_min[{i}] = {} but the dense oracle has {}",
                sparse.row_lower_bound(i),
                dense.row_min[i]
            );
        }
    }

    /// Drives both tables through a Tabu descent (the production scan, tabu
    /// list and aspiration) and then a hot annealing chain, `steps` accepted
    /// swaps each, comparing them after every accepted swap.
    fn run_lockstep(p: &QapProblem, lanes: usize, steps: usize, seed: u64, what: &str) {
        let n = p.num_facilities();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = p.random_assignment(&mut rng);
        let unlimited = SolverBudget::unlimited();
        let mut sparse = DeltaTable::build(p, &current, &unlimited, lanes).unwrap();
        let mut dense = DenseTable::new(p, &current, lanes);
        assert_lockstep(&sparse, &dense, p, &format!("{what}, L = {lanes}, build"));

        let mut current_cost = p.cost(&current);
        let mut best_cost = current_cost;
        let mut tabu_until = vec![0usize; n * n];
        for iter in 1..=steps {
            let (i, j, delta) = match select_best_move(
                &sparse,
                p,
                &tabu_until,
                iter,
                current_cost,
                best_cost,
                &unlimited,
            ) {
                ScanOutcome::Move(i, j, delta) => (i, j, delta),
                _ => break,
            };
            current.swap(i, j);
            current_cost += delta;
            best_cost = best_cost.min(current_cost);
            tabu_until[i * n + j] = iter + 8;
            sparse.apply_swap(p, &current, i, j);
            dense.apply_swap(p, i, j);
            assert_lockstep(
                &sparse,
                &dense,
                p,
                &format!("{what}, L = {lanes}, tabu {iter}"),
            );
        }

        let temperature = 1.0 + current_cost.abs() / n as f64;
        let mut accepted = 0;
        for _ in 0..100 * steps {
            if accepted == steps {
                break;
            }
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i == j || (!p.is_active(i) && !p.is_active(j)) {
                continue;
            }
            let (i, j) = (i.min(j), i.max(j));
            let delta = sparse.delta(i, j);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                current.swap(i, j);
                sparse.apply_swap(p, &current, i, j);
                dense.apply_swap(p, i, j);
                accepted += 1;
                assert_lockstep(
                    &sparse,
                    &dense,
                    p,
                    &format!("{what}, L = {lanes}, anneal {accepted}"),
                );
            }
        }
    }

    /// A mapping QAP: `interactions` padded onto every qubit of `hardware`,
    /// once with hop distances and once with heterogeneous non-integer
    /// −log-fidelity edge weights, as the calibration-aware cost model has.
    fn mapping_qaps(hardware: &Graph, interactions: &[(usize, usize)]) -> [QapProblem; 2] {
        let m = hardware.num_vertices();
        let hop = QapProblem::from_interactions(m, interactions, &DistanceMatrix::bfs(hardware));
        let weight = |a: usize, b: usize| {
            let (a, b) = (a.min(b) as u64, a.max(b) as u64);
            let x = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                >> 11;
            let error = 0.003 * (1.0 + 9.0 * (x as f64 / (1u64 << 53) as f64));
            -(1.0 - error).ln()
        };
        let weighted = QapProblem::from_interactions_weighted(
            m,
            interactions,
            &WeightedDistanceMatrix::dijkstra(hardware, &weight),
        );
        [hop, weighted]
    }

    /// Next-nearest-neighbour chain interactions over `n` qubits.
    fn nnn_chain(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|i| [(i, i + 1), (i, i + 2)])
            .filter(|&(_, j)| j < n)
            .collect()
    }

    #[test]
    fn sparse_kernels_match_the_dense_table_in_lockstep_on_mapping_qaps() {
        let qaoa = random_regular_graph(76, 3, &mut StdRng::seed_from_u64(3)).edges();
        // (device, interactions, accepted swaps per phase): the Sycamore
        // model (6 × 9), 9 × 9 and 15 × 14, each padded with dummies; the
        // n = 210 trajectories are short to keep debug test runs fast.
        let cases = [
            ("sycamore nnn", Graph::grid(6, 9), nnn_chain(50), 40),
            ("9x9 qaoa", Graph::grid(9, 9), qaoa, 25),
            ("15x14 nnn", Graph::grid(15, 14), nnn_chain(200), 6),
        ];
        for (name, hardware, interactions, steps) in &cases {
            let [hop, weighted] = mapping_qaps(hardware, interactions);
            for lanes in [1, 2, 4] {
                run_lockstep(&hop, lanes, *steps, 11, &format!("{name} hop"));
                run_lockstep(&weighted, lanes, *steps, 12, &format!("{name} weighted"));
            }
        }
    }

    #[test]
    fn sparse_kernels_match_the_dense_table_in_lockstep_on_random_qaps() {
        // Random non-integer asymmetric flows and distances, with dummy
        // facilities (all-zero flow) in the middle and at the end.
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..6 {
            let n = rng.gen_range(9..40usize);
            let m = n + rng.gen_range(0..5usize);
            let dummy = |i: usize| i % 7 == 3 || i + 2 >= n;
            let mut flow = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j && !dummy(i) && !dummy(j) && rng.gen::<f64>() < 0.15 {
                        flow[i * n + j] = rng.gen::<f64>() * 3.0;
                    }
                }
            }
            let mut distance = vec![0.0; m * m];
            for a in 0..m {
                for b in a + 1..m {
                    let d = 0.5 + rng.gen::<f64>() * 4.0;
                    distance[a * m + b] = d;
                    distance[b * m + a] = d;
                }
            }
            let p = QapProblem::from_flat(n, flow, m, distance);
            for lanes in [1, 2, 4] {
                run_lockstep(
                    &p,
                    lanes,
                    30,
                    case,
                    &format!("random case {case} (n = {n})"),
                );
            }
        }
    }
}
