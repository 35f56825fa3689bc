//! Property tests: the early-abort neighbourhood scan must be bit-identical
//! to the PR-1 reference full scan — same move, same delta, same tie-breaks
//! — across seeded QAP instances at the sizes the compiler actually feeds
//! it (n ∈ {40, 81, 210}, padded NNN mapping instances on grid devices).
//!
//! The trajectories are realistic: each case runs the actual Tabu descent
//! loop (accepted moves, tenure updates, delta-table maintenance) and
//! compares the two scans at every iteration, both from random starts and
//! from warm (locally optimized) starts where almost every row's lower
//! bound is non-negative — the regime the best-bound-first seeding is built
//! for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan_graphs::{
    select_best_move, select_best_move_reference, tabu_search, DeltaTable, DistanceMatrix, Graph,
    QapProblem, ScanOutcome, SolverBudget, TabuConfig,
};

/// The `bench_baseline --kernels` instance family: an NNN chain over all but
/// one qubit of a `rows × cols` grid, padded with one dummy facility.
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
