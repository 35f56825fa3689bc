//! Where the mapping pass's memory comes from.
//!
//! A QAP built from a device's distance matrix allocates exactly one
//! `n × n` buffer, its symmetric-flow table: the flows are sparse and the
//! distances are shared.  The Tabu restarts and the annealing delta table
//! borrow their `n × n` buffers from a per-thread spare, so once a thread
//! has run one search, later searches on it allocate none.  And since a
//! reused buffer that was not re-initialised would leak one search's state
//! into the next, searches of mixed sizes interleaved on one thread must
//! return exactly what the same searches return on fresh threads.
//!
//! A counting global allocator counts only the test thread's large
//! allocations, and a 1-worker pool runs every restart inline on that
//! thread.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use twoqan_graphs::{
    simulated_annealing, tabu_search, AnnealingConfig, AnnealingResult, DistanceMatrix, Graph,
    QapProblem, SolverBudget, TabuConfig, TabuResult, WeightedDistanceMatrix,
};
use twoqan_pool::CompilePool;

/// The system allocator, counting the current thread's allocations of at
/// least the thread's threshold while one is set.
struct CountingAllocator;

thread_local! {
    static THRESHOLD: Cell<Option<usize>> = const { Cell::new(None) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = THRESHOLD.try_with(|threshold| {
        if threshold.get().is_some_and(|min| size >= min) {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; `note` only touches const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations of at
/// least `n × n` bytes it made on this thread: every `n × n` buffer,
/// whatever its element type.
fn square_allocations<T>(n: usize, f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|count| count.set(0));
    THRESHOLD.with(|threshold| threshold.set(Some(n * n)));
    let result = f();
    THRESHOLD.with(|threshold| threshold.set(None));
    (result, COUNT.with(Cell::get))
}

/// Runs `f` with a 1-worker pool installed: every restart fan-out inside
/// runs inline on the calling thread.
fn on_this_thread<T>(f: impl FnOnce() -> T) -> T {
    let pool = CompilePool::new(1);
    let _guard = pool.install();
    f()
}

/// Next-nearest-neighbour chain interactions over `n` qubits.
fn nnn_chain(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| [(i, i + 1), (i, i + 2)])
        .filter(|&(_, j)| j < n)
        .collect()
}

/// Heterogeneous non-integer −log-fidelity edge weights, as the
/// calibration-aware cost model has.
fn weighted_distances(device: &Graph) -> WeightedDistanceMatrix {
    WeightedDistanceMatrix::dijkstra(device, &|a, b| {
        let (a, b) = (a.min(b), a.max(b));
        let error = 0.003 * (1.0 + ((a * 31 + b * 17) % 10) as f64);
        -(1.0 - error).ln()
    })
}

/// A short Tabu search: allocation does not depend on the iteration
/// count, and unoptimised test builds stay fast at n = 210.
fn short_tabu() -> TabuConfig {
    TabuConfig {
        max_iterations: 25,
        ..TabuConfig::default()
    }
}

fn search(problem: &QapProblem, config: &TabuConfig, seed: u64) -> TabuResult {
    tabu_search(
        problem,
        config,
        None,
        &SolverBudget::unlimited(),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The default schedule, which cools far enough to switch to the delta
/// table (at n = 210 too).
fn anneal(problem: &QapProblem, warm: Option<&[usize]>, seed: u64) -> AnnealingResult {
    simulated_annealing(
        problem,
        &AnnealingConfig::default(),
        warm,
        &SolverBudget::unlimited(),
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn a_warm_thread_maps_with_one_square_buffer_per_qap() {
    let device = Graph::grid(15, 14);
    let n = device.num_vertices();
    let interactions = nnn_chain(200);
    let weighted = weighted_distances(&device);
    let hops = DistanceMatrix::bfs(&device);
    on_this_thread(|| {
        let (qap, built) = square_allocations(n, || {
            QapProblem::from_interactions_weighted(n, &interactions, &weighted)
        });
        assert_eq!(built, 1, "a weighted QAP allocates only its sym table");
        // The first hop-count QAP also builds the matrix's shared f64 view.
        let (_, first) =
            square_allocations(n, || QapProblem::from_interactions(n, &interactions, &hops));
        let (_, second) =
            square_allocations(n, || QapProblem::from_interactions(n, &interactions, &hops));
        assert_eq!((first, second), (2, 1), "hop-count QAPs share one f64 view");

        let config = short_tabu();
        let (_, cold) = square_allocations(n, || search(&qap, &config, 1));
        assert!(cold > 0, "the thread's first search allocates its spare");
        let (_, warm) = square_allocations(n, || search(&qap, &config, 2));
        assert_eq!(warm, 0, "a second search allocated {warm} n × n buffers");
        let (_, annealed) = square_allocations(n, || anneal(&qap, None, 3));
        assert_eq!(annealed, 0, "annealing allocated {annealed} n × n buffers");
    });
}

#[test]
fn interleaved_searches_match_searches_on_fresh_threads() {
    // Sizes up and down, so every reuse meets a spare both larger and
    // smaller than it needs; hop and weighted distances; cold and warm.
    let cases: Vec<(QapProblem, u64)> = [(15, 14, 180), (3, 3, 7), (9, 9, 60), (6, 9, 54)]
        .into_iter()
        .flat_map(|(rows, cols, qubits)| {
            let device = Graph::grid(rows, cols);
            let m = device.num_vertices();
            let interactions = nnn_chain(qubits);
            let hop =
                QapProblem::from_interactions(m, &interactions, &DistanceMatrix::bfs(&device));
            let weighted = QapProblem::from_interactions_weighted(
                m,
                &interactions,
                &weighted_distances(&device),
            );
            [(hop, rows as u64), (weighted, cols as u64)]
        })
        .collect();
    let config = short_tabu();
    let run = |problem: &QapProblem, seed: u64| {
        let tabu = search(problem, &config, seed);
        let warm = anneal(problem, Some(&tabu.assignment), seed + 1);
        let cold = anneal(problem, None, seed + 2);
        (tabu, warm, cold)
    };
    let order = [0, 3, 6, 1, 7, 2, 4, 5, 0, 3];
    let interleaved: Vec<_> = on_this_thread(|| {
        order
            .iter()
            .map(|&k| run(&cases[k].0, cases[k].1))
            .collect()
    });
    for (&k, got) in order.iter().zip(&interleaved) {
        let (problem, seed) = &cases[k];
        let fresh = std::thread::scope(|s| {
            s.spawn(|| on_this_thread(|| run(problem, *seed)))
                .join()
                .expect("fresh-thread search panicked")
        });
        assert_eq!(got, &fresh, "case {k} diverged after buffer reuse");
    }
}
