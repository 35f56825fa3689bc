//! Simulated annealing for the Quadratic Assignment Problem.
//!
//! The paper (§III-A) notes that "other heuristics such as simulated
//! annealing … can be also used" for the qubit-mapping QAP.  This module
//! provides that alternative so the mapping pass can be configured with
//! either solver (and so the ablation benches can compare them).
//!
//! Like the Tabu solver, annealing runs independent restart schedules on the
//! compile pool with per-restart seeds pre-drawn from the caller's RNG, so
//! results are bit-identical for a fixed seed regardless of thread count —
//! and, once the chain has cooled enough that most proposals are rejected,
//! evaluates moves through the same incrementally maintained
//! [`DeltaTable`], so a proposal costs O(1) instead of the O(n) of
//! recomputing `swap_delta` from scratch.

use crate::budget::SolverBudget;
use crate::qap::QapProblem;
use crate::tabu::DeltaTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the simulated-annealing solver.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingConfig {
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied after every sweep.
    pub cooling_rate: f64,
    /// Number of proposed moves per temperature level (a "sweep").
    pub moves_per_temperature: usize,
    /// Stop when the temperature drops below this value.
    pub final_temperature: f64,
    /// Number of independent annealing schedules; the best result is kept.
    pub restarts: usize,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 10.0,
            cooling_rate: 0.95,
            moves_per_temperature: 100,
            final_temperature: 1e-3,
            restarts: 1,
        }
    }
}

/// Result of a simulated-annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingResult {
    /// Best assignment found (facility → location).
    pub assignment: Vec<usize>,
    /// Cost of the best assignment.
    pub cost: f64,
    /// Number of accepted moves (in the restart that produced the result).
    pub accepted_moves: usize,
}

/// Runs simulated annealing on a QAP instance and returns the best result
/// over `config.restarts` independent schedules (ties broken in favour of
/// the earlier schedule).
///
/// Seeding follows [`tabu_search`](crate::tabu::tabu_search): one seed per
/// schedule is drawn from `rng` up front, and schedule `k` anneals with its
/// own generator seeded from it.  Schedule slot 0 anneals from `warm` when
/// it is given (still drawing its moves from its own generator), every
/// other slot from a random start drawn from its generator; a warm result
/// never costs more than `warm` itself.  Under a limited `budget` each
/// schedule stops at its next temperature-sweep boundary and returns its
/// best-so-far assignment.
///
/// # Panics
///
/// Panics if `warm` is not a valid assignment of `problem`.
pub fn simulated_annealing<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &AnnealingConfig,
    warm: Option<&[usize]>,
    budget: &SolverBudget,
    rng: &mut R,
) -> AnnealingResult {
    let restarts = config.restarts.max(1);
    let seeds: Vec<u64> = (0..restarts).map(|_| rng.gen::<u64>()).collect();
    let results = twoqan_pool::run_indexed(restarts, |k| {
        let mut restart_rng = StdRng::seed_from_u64(seeds[k]);
        let start = match warm {
            Some(start) if k == 0 => start.to_vec(),
            _ => problem.random_assignment(&mut restart_rng),
        };
        anneal(problem, config, start, budget, &mut restart_rng)
    });
    results
        .into_iter()
        .reduce(|best, r| if r.cost < best.cost { r } else { best })
        .expect("at least one restart is always performed")
}

/// One annealing schedule from a valid starting assignment, polling
/// `budget` once per temperature sweep.  The best-so-far assignment starts
/// at `start`, so the result never costs more than the start itself.
fn anneal<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &AnnealingConfig,
    start: Vec<usize>,
    budget: &SolverBudget,
    rng: &mut R,
) -> AnnealingResult {
    assert!(
        problem.is_valid_assignment(&start),
        "annealing requires a valid starting assignment"
    );
    let n = problem.num_facilities();
    let mut current = start;
    let mut current_cost = problem.cost(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut accepted = 0usize;

    if n < 2 {
        return AnnealingResult {
            assignment: current,
            cost: current_cost,
            accepted_moves: 0,
        };
    }

    // O(1) amortized move evaluation via the Tabu solver's DeltaTable.
    // The table read is O(1) but every *accepted* move pays the O(n·deg)
    // Taillard update, whereas recomputing `swap_delta` directly is O(n)
    // per proposal with no update cost.  Run table-free while the chain is
    // hot and switch (once, deterministically) as soon as a sweep's
    // acceptance rate drops under 1/n, which the cooling schedule
    // guarantees eventually.  The switch point is part of the annealed
    // placement: moving it changes the chain's floating-point deltas.
    let mut deltas: Option<DeltaTable> = None;

    let mut temperature = config.initial_temperature.max(config.final_temperature);
    while temperature > config.final_temperature {
        if budget.expired() {
            break;
        }
        let mut accepted_this_sweep = 0usize;
        let mut evaluated_this_sweep = 0usize;
        for _ in 0..config.moves_per_temperature {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            if i == j {
                j = (j + 1) % n;
            }
            if !problem.is_active(i) && !problem.is_active(j) {
                // Dummy–dummy exchange: always a zero-cost no-op, skip it.
                continue;
            }
            evaluated_this_sweep += 1;
            let delta = match &deltas {
                Some(table) => table.delta(i.min(j), i.max(j)),
                None => problem.swap_delta(&current, i, j),
            };
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                current.swap(i, j);
                current_cost += delta;
                if let Some(table) = &mut deltas {
                    table.apply_swap(problem, &current, i, j);
                }
                accepted += 1;
                accepted_this_sweep += 1;
                if current_cost < best_cost - 1e-12 {
                    best_cost = current_cost;
                    best.copy_from_slice(&current);
                }
            }
        }
        temperature *= config.cooling_rate;
        if best_cost <= 1e-12 {
            break;
        }
        // Acceptance is measured against *evaluated* proposals only —
        // dummy–dummy skips never reach the accept test and would deflate
        // the rate on heavily padded instances.
        if deltas.is_none() && accepted_this_sweep * n < evaluated_this_sweep {
            deltas = Some(DeltaTable::new(problem, &current));
        }
    }

    AnnealingResult {
        assignment: best,
        cost: best_cost,
        accepted_moves: accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::graph::Graph;
    use crate::tests::serially;

    fn line_on_grid(n: usize, rows: usize, cols: usize) -> QapProblem {
        let hw = DistanceMatrix::bfs(&Graph::grid(rows, cols));
        let interactions: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        QapProblem::from_interactions(n, &interactions, &hw)
    }

    /// A cold, unbudgeted anneal.
    fn anneal_cold(p: &QapProblem, config: &AnnealingConfig, seed: u64) -> AnnealingResult {
        simulated_annealing(
            p,
            config,
            None,
            &SolverBudget::unlimited(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn finds_optimal_line_placement_on_small_grid() {
        let p = line_on_grid(6, 2, 3);
        let r = anneal_cold(&p, &AnnealingConfig::default(), 23);
        assert_eq!(r.cost, 10.0);
        assert!(p.is_valid_assignment(&r.assignment));
        assert!(r.accepted_moves > 0);
    }

    #[test]
    fn never_returns_worse_than_reported_cost() {
        let p = line_on_grid(8, 3, 3);
        let r = anneal_cold(&p, &AnnealingConfig::default(), 9);
        assert!((p.cost(&r.assignment) - r.cost).abs() < 1e-9);
    }

    #[test]
    fn single_facility_is_trivial() {
        let hw = DistanceMatrix::bfs(&Graph::path(2));
        let p = QapProblem::from_interactions(1, &[], &hw);
        let r = anneal_cold(&p, &AnnealingConfig::default(), 1);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.accepted_moves, 0);
    }

    #[test]
    fn short_schedule_still_produces_valid_assignment() {
        let p = line_on_grid(9, 3, 3);
        let config = AnnealingConfig {
            initial_temperature: 1.0,
            cooling_rate: 0.5,
            moves_per_temperature: 10,
            final_temperature: 0.5,
            ..AnnealingConfig::default()
        };
        let r = anneal_cold(&p, &config, 4);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn multi_start_parallel_and_serial_agree() {
        let p = line_on_grid(8, 3, 4);
        let config = AnnealingConfig {
            restarts: 5,
            ..AnnealingConfig::default()
        };
        for seed in 0..5 {
            let search = || anneal_cold(&p, &config, seed);
            assert_eq!(
                serially(search),
                search(),
                "seed {seed} diverged across thread modes"
            );
        }
    }

    #[test]
    fn expired_budget_returns_a_valid_assignment_immediately() {
        use std::time::Duration;
        let p = line_on_grid(9, 3, 3);
        let budget = SolverBudget::with_deadline(Duration::ZERO);
        let mut rng = StdRng::seed_from_u64(8);
        let r = simulated_annealing(&p, &AnnealingConfig::default(), None, &budget, &mut rng);
        assert_eq!(r.accepted_moves, 0);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn more_restarts_never_hurt() {
        let p = line_on_grid(9, 3, 3);
        let one = anneal_cold(
            &p,
            &AnnealingConfig {
                restarts: 1,
                ..AnnealingConfig::default()
            },
            6,
        );
        let four = anneal_cold(
            &p,
            &AnnealingConfig {
                restarts: 4,
                ..AnnealingConfig::default()
            },
            6,
        );
        // Both runs draw their restart seeds from the same stream, so the
        // 4-restart run's first schedule is exactly the 1-restart run; the
        // extra schedules can only improve on it.
        assert!(p.is_valid_assignment(&one.assignment));
        assert!(p.is_valid_assignment(&four.assignment));
        assert!(four.cost <= one.cost);
    }

    #[test]
    fn warm_start_never_loses_to_its_seed() {
        let p = line_on_grid(9, 4, 4);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = p.random_assignment(&mut rng);
            let start_cost = p.cost(&start);
            let r = simulated_annealing(
                &p,
                &AnnealingConfig::default(),
                Some(&start),
                &SolverBudget::unlimited(),
                &mut rng,
            );
            assert!(r.cost <= start_cost, "seed {seed}: warm lost to its seed");
            assert!(p.is_valid_assignment(&r.assignment));
        }
    }

    #[test]
    fn warm_slot_zero_anneals_with_its_own_restart_generator() {
        // Slot 0 ignores nothing but its random start: it anneals from the
        // warm assignment with the generator seeded from the first seed
        // drawn, exactly as a cold slot anneals after drawing its start.
        let p = line_on_grid(8, 3, 4);
        let config = AnnealingConfig::default();
        let unlimited = SolverBudget::unlimited();
        for seed in 0..4 {
            let start = p.random_assignment(&mut StdRng::seed_from_u64(100 + seed));
            let slot_zero_seed = StdRng::seed_from_u64(seed).gen::<u64>();
            let expected = anneal(
                &p,
                &config,
                start.clone(),
                &unlimited,
                &mut StdRng::seed_from_u64(slot_zero_seed),
            );
            let warm = simulated_annealing(
                &p,
                &config,
                Some(&start),
                &unlimited,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(warm, expected, "seed {seed}");
        }
    }

    #[test]
    fn warm_parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(8, 3, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let warm = p.random_assignment(&mut rng);
        let config = AnnealingConfig {
            restarts: 4,
            ..AnnealingConfig::default()
        };
        let unlimited = SolverBudget::unlimited();
        for seed in 0..4 {
            let search = || {
                simulated_annealing(
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
