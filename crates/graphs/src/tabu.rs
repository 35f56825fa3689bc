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
//!   each accepted move (O(1) for pairs not touching the swapped facilities,
//!   O(n) for the O(n) pairs that do), so one iteration costs O(n²) instead
//!   of the O(n³) of re-deriving every swap delta from scratch;
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
/// The table is the 95% hot path of a compile, so it is built for streaming:
///
/// * `dloc` caches the assignment-permuted distance matrix
///   (`dloc[r·n + k] = d(φ(r), φ(k))`), turning every delta recomputation
///   into a gather-free dot product over four contiguous rows
///   (`simd::delta_dot`);
/// * [`DeltaTable::apply_swap`] applies the Taillard update as a rank-1
///   row sweep (`(sg[i] − sg[j])·(h[i] − h[j])` from two O(n) difference
///   vectors) via the explicit-SIMD seam (`simd::update_row`);
/// * each row's minimum is cached while its data is hot (`row_min`), giving
///   the neighbourhood scan a lower bound to early-abort whole rows.
#[derive(Debug, Clone)]
pub struct DeltaTable {
    n: usize,
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
}

impl DeltaTable {
    /// Builds the table for `assignment` (O(n³), but streaming + SIMD).
    pub fn new(problem: &QapProblem, assignment: &[usize]) -> Self {
        Self::new_budgeted(problem, assignment, &SolverBudget::unlimited())
            .expect("an unlimited budget never expires")
    }

    /// Builds the table under a cooperative budget, checked once per
    /// `BUDGET_CHECK_ROWS`-row tile.  Returns `None` if the budget expires
    /// mid-build so deadline-limited solvers can fall back to best-so-far
    /// without paying for the rest of the O(n³) build.
    pub fn new_budgeted(
        problem: &QapProblem,
        assignment: &[usize],
        budget: &SolverBudget,
    ) -> Option<Self> {
        let n = problem.num_facilities();
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
                delta[i * n + j] = delta_pair(problem, &dloc, n, i, j);
            }
            row_min[i] = simd::row_min(&delta[i * n + lo..i * n + span]);
        }
        Some(Self {
            n,
            delta,
            dloc,
            row_min,
            scratch: vec![0.0; 3 * n],
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
    /// Pairs disjoint from `{u, v}` get the O(1) Taillard update, applied as
    /// a SIMD rank-1 row sweep; the O(n) pairs touching `u` or `v` are
    /// recomputed as streaming dot products, for an O(n²) total — the same
    /// order as one neighbourhood scan.
    pub fn apply_swap(&mut self, problem: &QapProblem, assignment: &[usize], u: usize, v: usize) {
        let n = self.n;
        debug_assert!(u != v && u < n && v < n);
        debug_assert_eq!(assignment.len(), n);
        let (u, v) = (u.min(v), u.max(v));

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
        //    i.e. φ(v)/φ(u) *after* the swap — dloc columns v/u).
        let (sg, rest) = self.scratch.split_at_mut(n);
        let (h, sgh) = rest.split_at_mut(n);
        for i in 0..n {
            let sym_i = problem.sym_row(i);
            sg[i] = sym_i[u] - sym_i[v];
            h[i] = self.dloc[i * n + v] - self.dloc[i * n + u];
            sgh[i] = sg[i] * h[i];
        }

        // 3. Sweep the rows.  Inactive-inactive pairs stay at exactly 0.0:
        //    dummy facilities have all-zero sym rows, so sg (and sgh) vanish
        //    and the blanket update adds 0.0·(h[i] − h[j]) = ±0.0.
        for i in 0..n {
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            let row = &mut self.delta[i * n + lo..i * n + span];
            if i == u || i == v {
                for (off, slot) in row.iter_mut().enumerate() {
                    *slot = delta_pair(problem, &self.dloc, n, i, lo + off);
                }
            } else {
                simd::update_row(
                    row,
                    &sg[lo..span],
                    &h[lo..span],
                    &sgh[lo..span],
                    sg[i],
                    h[i],
                );
                // The blanket update is wrong for the two recompute columns;
                // overwrite them with exact streaming recomputations.
                if u > i && u < span {
                    self.delta[i * n + u] = delta_pair(problem, &self.dloc, n, i, u);
                }
                if v > i && v < span {
                    self.delta[i * n + v] = delta_pair(problem, &self.dloc, n, i, v);
                }
            }
            self.row_min[i] = simd::row_min(&self.delta[i * n + lo..i * n + span]);
        }
    }
}

/// Streaming recomputation of `QapProblem::swap_delta(φ, i, j)` from the
/// permuted distance cache:
/// `Σ_{k ≠ i,j} (sym_i[k] − sym_j[k])·(dloc_j[k] − dloc_i[k])` (the direct
/// `{i, j}` term cancels because hardware distance matrices are symmetric).
/// Exact — not merely close — on integer-valued matrices, since every
/// intermediate is an exactly-representable integer.
#[inline]
fn delta_pair(problem: &QapProblem, dloc: &[f64], n: usize, i: usize, j: usize) -> f64 {
    let sym_i = problem.sym_row(i);
    let sym_j = problem.sym_row(j);
    let dloc_i = &dloc[i * n..(i + 1) * n];
    let dloc_j = &dloc[j * n..(j + 1) * n];
    let full = simd::delta_dot(sym_i, sym_j, dloc_j, dloc_i);
    let at_i = (sym_i[i] - sym_j[i]) * (dloc_j[i] - dloc_i[i]);
    let at_j = (sym_i[j] - sym_j[j]) * (dloc_j[j] - dloc_i[j]);
    full - at_i - at_j
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
    // The delta table costs O(n³) up front — the budgeted build bails out
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
    use crate::tests::serially;
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
}
