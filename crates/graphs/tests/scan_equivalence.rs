//! Property tests: the blocked delta-table build and the early-abort
//! neighbourhood scan must be bit-identical to their straight-line
//! reference implementations, which live here as the oracles — the O(n³)
//! `swap_delta` table build and the full first-wins scan.
//!
//! The scan is compared on seeded QAP instances at the sizes the compiler
//! actually feeds it (n ∈ {40, 81, 210}, padded NNN mapping instances on
//! grid devices) and on small random padded instances.  The trajectories
//! are realistic: each case runs the actual Tabu descent loop (accepted
//! moves, tenure updates, delta-table maintenance) and compares the two
//! scans at every iteration, both from random starts and from warm (locally
//! optimized) starts where almost every row's lower bound is non-negative —
//! the regime the best-bound-first seeding is built for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan_graphs::{
    select_best_move, tabu_search, DeltaTable, DistanceMatrix, Graph, QapProblem, ScanOutcome,
    SolverBudget, TabuConfig,
};

/// Reference full scan of the swap neighbourhood: every admissible pair in
/// index order, the first strictly smaller delta wins.  Never checks a
/// budget.
fn select_best_move_reference(
    table: &DeltaTable,
    problem: &QapProblem,
    tabu_until: &[usize],
    iter: usize,
    current_cost: f64,
    best_cost: f64,
) -> ScanOutcome {
    let n = problem.num_facilities();
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..n {
        let i_active = problem.is_active(i);
        for j in (i + 1)..n {
            if !i_active && !problem.is_active(j) {
                continue;
            }
            let delta = table.delta(i, j);
            let is_tabu = tabu_until[i * n + j] > iter;
            let aspires = current_cost + delta < best_cost - 1e-12;
            if is_tabu && !aspires {
                continue;
            }
            if best.map(|(_, _, d)| delta < d).unwrap_or(true) {
                best = Some((i, j, delta));
            }
        }
    }
    match best {
        Some((i, j, delta)) => ScanOutcome::Move(i, j, delta),
        None => ScanOutcome::Exhausted,
    }
}

/// Reference O(n³) delta-table build on top of `QapProblem::swap_delta`.
/// Returns the full upper-triangle buffer.
fn build_delta_table_reference(problem: &QapProblem, assignment: &[usize]) -> Vec<f64> {
    let n = problem.num_facilities();
    let mut delta = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            if problem.is_active(i) || problem.is_active(j) {
                delta[i * n + j] = problem.swap_delta(assignment, i, j);
            }
        }
    }
    delta
}

/// Runs `property` over `cases` independent random cases drawn from a
/// deterministically seeded generator.
fn for_random_cases(cases: usize, seed: u64, mut property: impl FnMut(&mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        property(&mut rng);
    }
}

/// A random QAP instance: random interactions over `n` circuit qubits,
/// padded onto a random grid device — the exact shape the mapping pass
/// produces.
fn arbitrary_qap(rng: &mut StdRng) -> QapProblem {
    let rows = rng.gen_range(2..4usize);
    let cols = rng.gen_range(3..5usize);
    let m = rows * cols;
    let n = rng.gen_range(3..=m.min(9));
    let num_gates = rng.gen_range(1..12usize);
    let mut interactions = Vec::with_capacity(num_gates);
    for _ in 0..num_gates {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        interactions.push((a, b));
    }
    let hw = DistanceMatrix::bfs(&Graph::grid(rows, cols));
    // Pad to the device size, as `initial_mapping` does, so the instance has
    // dummy facilities and the dummy-skipping paths are exercised.
    QapProblem::from_interactions(m, &interactions, &hw)
}

/// The padded NNN-chain mapping instance: an NNN chain over all but one
/// qubit of a `rows × cols` grid, padded with one dummy facility — the shape
/// the QAP-mapping pass solves.
fn nnn_mapping_qap(rows: usize, cols: usize) -> QapProblem {
    let hw = DistanceMatrix::bfs(&Graph::grid(rows, cols));
    let m = hw.num_vertices();
    let circuit_qubits = m - 1;
    let mut interactions = Vec::new();
    for i in 0..circuit_qubits {
        if i + 1 < circuit_qubits {
            interactions.push((i, i + 1));
        }
        if i + 2 < circuit_qubits {
            interactions.push((i, i + 2));
        }
    }
    QapProblem::from_interactions(m, &interactions, &hw)
}

/// Runs a Tabu descent from `start`, asserting scan equivalence at every
/// iteration, and returns the number of iterations compared.
fn descend_comparing(problem: &QapProblem, start: Vec<usize>, iterations: usize) -> usize {
    let n = problem.num_facilities();
    let tenure = 8;
    let mut current = start;
    let mut current_cost = problem.cost(&current);
    let mut best_cost = current_cost;
    let mut tabu_until = vec![0usize; n * n];
    let mut table = DeltaTable::new(problem, &current);
    let budget = SolverBudget::unlimited();
    let mut compared = 0;
    for iter in 1..=iterations {
        let blocked = select_best_move(
            &table,
            problem,
            &tabu_until,
            iter,
            current_cost,
            best_cost,
            &budget,
        );
        let reference =
            select_best_move_reference(&table, problem, &tabu_until, iter, current_cost, best_cost);
        assert_eq!(
            blocked, reference,
            "iter {iter} (n = {n}): early-abort scan diverged from the reference"
        );
        compared += 1;
        let (i, j, delta) = match reference {
            ScanOutcome::Move(i, j, delta) => (i, j, delta),
            _ => break,
        };
        current.swap(i, j);
        current_cost += delta;
        table.apply_swap(problem, &current, i, j);
        tabu_until[i * n + j] = iter + tenure;
        if current_cost < best_cost {
            best_cost = current_cost;
        }
    }
    compared
}

#[test]
fn early_abort_scan_matches_reference_on_seeded_instances() {
    // (rows, cols, iterations): n = 40, 81 and 210 padded QAPs.  The large
    // instance gets a shorter trajectory to keep the test fast; the scans
    // are still compared on dozens of distinct (table, tabu, cost) states.
    for &(rows, cols, iters) in &[(5usize, 8usize, 60usize), (9, 9, 40), (15, 14, 12)] {
        let problem = nnn_mapping_qap(rows, cols);
        assert_eq!(problem.num_facilities(), rows * cols);
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let start = problem.random_assignment(&mut rng);
            let compared = descend_comparing(&problem, start, iters);
            assert!(compared > 0, "no iterations compared at {rows}x{cols}");
        }
    }
}

#[test]
fn early_abort_scan_matches_reference_from_warm_starts() {
    // Warm starts sit at/near a local optimum: most deltas are >= 0, so the
    // early-abort filter skips almost every row.  The tie-handling (equal
    // lower bounds, equal deltas at different pairs) is exercised hardest
    // here.
    for &(rows, cols) in &[(5usize, 8usize), (9, 9)] {
        let problem = nnn_mapping_qap(rows, cols);
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(7 + seed);
            let start = problem.random_assignment(&mut rng);
            let optimized = tabu_search(
                &problem,
                &TabuConfig {
                    max_iterations: 40,
                    restarts: 1,
                    ..TabuConfig::default()
                },
                Some(&start),
                &SolverBudget::unlimited(),
                &mut rng,
            );
            let compared = descend_comparing(&problem, optimized.assignment, 30);
            assert!(compared > 0);
        }
    }
}

#[test]
fn early_abort_scan_matches_reference_under_heavy_tabu_pressure() {
    // Saturate the tabu list so aspiration and exhaustion paths are hit:
    // with every pair tabu and no aspiring move, both scans must agree on
    // `Exhausted` too.
    let problem = nnn_mapping_qap(5, 8);
    let n = problem.num_facilities();
    let mut rng = StdRng::seed_from_u64(42);
    let current = problem.random_assignment(&mut rng);
    let current_cost = problem.cost(&current);
    let table = DeltaTable::new(&problem, &current);
    let budget = SolverBudget::unlimited();
    // Random tabu states, including the all-tabu extreme.
    for case in 0..20 {
        let mut tabu_until = vec![0usize; n * n];
        if case == 19 {
            tabu_until.iter_mut().for_each(|t| *t = usize::MAX);
        } else {
            for t in tabu_until.iter_mut() {
                if rng.gen::<f64>() < 0.7 {
                    *t = rng.gen_range(0..20);
                }
            }
        }
        for iter in [1usize, 5, 15] {
            // A best cost below the current cost disables aspiration for
            // non-improving moves; one far above enables it everywhere.
            for best_cost in [current_cost - 50.0, current_cost, current_cost + 50.0] {
                let blocked = select_best_move(
                    &table,
                    &problem,
                    &tabu_until,
                    iter,
                    current_cost,
                    best_cost,
                    &budget,
                );
                let reference = select_best_move_reference(
                    &table,
                    &problem,
                    &tabu_until,
                    iter,
                    current_cost,
                    best_cost,
                );
                assert_eq!(blocked, reference, "case {case}, iter {iter}");
            }
        }
    }
}

/// The sparse 4-lane delta-table build is bit-identical to the O(n³)
/// `swap_delta` reference on padded mapping instances (hop-count matrices
/// are small integers, so every reassociation is exact).
#[test]
fn blocked_delta_table_build_matches_the_reference() {
    for_random_cases(24, 201, |rng| {
        let p = arbitrary_qap(rng);
        let n = p.num_facilities();
        let a = p.random_assignment(rng);
        let table = DeltaTable::new(&p, &a);
        let reference = build_delta_table_reference(&p, &a);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    table.delta(i, j),
                    reference[i * n + j],
                    "pair ({i},{j}) diverged from the reference build"
                );
            }
        }
    });
}

/// The blocked, early-aborting neighbourhood scan picks exactly the move
/// the full reference scan picks — same pair, same delta, same tie-breaks —
/// under random tabu state, aspiration thresholds and accepted-swap
/// history.  This is the "early abort never skips the true best move"
/// guarantee.
#[test]
fn blocked_scan_matches_the_reference_scan() {
    for_random_cases(24, 202, |rng| {
        let p = arbitrary_qap(rng);
        let n = p.num_facilities();
        let mut assignment = p.random_assignment(rng);
        let mut table = DeltaTable::new(&p, &assignment);
        let budget = SolverBudget::unlimited();
        for step in 0..6 {
            // Random tabu state: some pairs forbidden, some recently freed.
            let tabu_until: Vec<usize> = (0..n * n).map(|_| rng.gen_range(0..8usize)).collect();
            let iter = rng.gen_range(0..8usize);
            let current_cost = p.cost(&assignment);
            // best_cost sometimes below current (aspiration can fire) and
            // sometimes above (it cannot).
            let best_cost = current_cost + rng.gen_range(-4.0..4.0);
            let blocked = select_best_move(
                &table,
                &p,
                &tabu_until,
                iter,
                current_cost,
                best_cost,
                &budget,
            );
            let reference =
                select_best_move_reference(&table, &p, &tabu_until, iter, current_cost, best_cost);
            assert_eq!(blocked, reference, "step {step} diverged");
            // Walk the search forward so later scans see updated tables.
            if let ScanOutcome::Move(i, j, _) = blocked {
                assignment.swap(i, j);
                table.apply_swap(&p, &assignment, i, j);
            } else {
                break;
            }
        }
    });
}
