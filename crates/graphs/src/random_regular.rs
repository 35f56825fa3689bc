//! Random d-regular graph generation (configuration / pairing model).
//!
//! The QAOA-REG-d benchmarks of the paper solve MaxCut on random d-regular
//! graphs (3-regular for the main evaluation, 4/8/12-regular for the
//! Paulihedral comparison in Table III), with 10 random instances per
//! problem size.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// The bounded-retry cap of [`try_random_regular_graph`]: how many stub
/// pairings are attempted before giving up with
/// [`RandomRegularError::AttemptsExhausted`].  The Steger–Wormald-style
/// matching almost never needs a restart at benchmark sizes, so this cap is
/// effectively unreachable for valid `(n, d)`.
pub const MAX_ATTEMPTS: usize = 10_000;

/// Why random d-regular graph generation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomRegularError {
    /// `n·d` is odd, so no d-regular graph on n vertices exists.
    OddDegreeSum {
        /// Requested vertex count.
        n: usize,
        /// Requested degree.
        d: usize,
    },
    /// `d ≥ n`, so no *simple* d-regular graph on n vertices exists.
    DegreeTooLarge {
        /// Requested vertex count.
        n: usize,
        /// Requested degree.
        d: usize,
    },
    /// No valid pairing was found within [`MAX_ATTEMPTS`] restarts.
    AttemptsExhausted {
        /// Requested vertex count.
        n: usize,
        /// Requested degree.
        d: usize,
        /// The attempt cap that was exhausted.
        attempts: usize,
    },
}

impl fmt::Display for RandomRegularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RandomRegularError::OddDegreeSum { n, d } => write!(
                f,
                "n*d must be even for a d-regular graph to exist (n = {n}, d = {d})"
            ),
            RandomRegularError::DegreeTooLarge { n, d } => write!(
                f,
                "degree must be smaller than the number of vertices (n = {n}, d = {d})"
            ),
            RandomRegularError::AttemptsExhausted { n, d, attempts } => write!(
                f,
                "failed to generate a simple {d}-regular graph on {n} vertices \
                 after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for RandomRegularError {}

/// Generates a random simple `d`-regular graph on `n` vertices using the
/// configuration (pairing) model with rejection of self-loops and parallel
/// edges, returning a typed error instead of panicking so a fuzzing run
/// cannot be aborted by an unlucky or invalid draw.
pub fn try_random_regular_graph<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, RandomRegularError> {
    if !(n * d).is_multiple_of(2) {
        return Err(RandomRegularError::OddDegreeSum { n, d });
    }
    if d >= n {
        return Err(RandomRegularError::DegreeTooLarge { n, d });
    }
    if d == 0 {
        return Ok(Graph::new(n));
    }
    for _ in 0..MAX_ATTEMPTS {
        if let Some(g) = try_pairing(n, d, rng) {
            return Ok(g);
        }
    }
    Err(RandomRegularError::AttemptsExhausted {
        n,
        d,
        attempts: MAX_ATTEMPTS,
    })
}

/// Generates a random simple `d`-regular graph on `n` vertices using the
/// configuration (pairing) model with rejection of self-loops and parallel
/// edges.
///
/// # Panics
///
/// Panics if `n·d` is odd or `d ≥ n` (no simple d-regular graph exists), or
/// if a valid pairing cannot be found after [`MAX_ATTEMPTS`] attempts
/// (which for the modest sizes used in the benchmarks does not happen).
/// Use [`try_random_regular_graph`] to receive a typed error instead.
pub fn random_regular_graph<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    try_random_regular_graph(n, d, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// One attempt of stub matching in the style of Steger–Wormald: repeatedly
/// join two *valid* stubs chosen uniformly at random (no self-loops, no
/// parallel edges) until every vertex reaches degree `d`, or fail if the
/// remaining stubs admit no valid pair (the caller then restarts).
///
/// Unlike naive configuration-model rejection sampling, this remains
/// practical for the denser QAOA-REG-8 / QAOA-REG-12 benchmark graphs.
fn try_pairing<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Option<Graph> {
    let mut g = Graph::new(n);
    let mut remaining: Vec<usize> = vec![d; n];
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    while !stubs.is_empty() {
        stubs.shuffle(rng);
        // Try to find a valid pair among the shuffled stubs.
        let mut found = None;
        'outer: for i in 0..stubs.len() {
            for j in (i + 1)..stubs.len() {
                let (a, b) = (stubs[i], stubs[j]);
                if a != b && !g.has_edge(a, b) {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = found?;
        let (a, b) = (stubs[i], stubs[j]);
        g.add_edge(a, b);
        remaining[a] -= 1;
        remaining[b] -= 1;
        // Remove the larger index first so the smaller one stays valid.
        stubs.swap_remove(j.max(i));
        stubs.swap_remove(j.min(i));
    }
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, d) in &[(4, 3), (8, 3), (10, 3), (12, 4), (20, 3), (20, 8)] {
            let g = random_regular_graph(n, d, &mut rng);
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), n * d / 2);
            for v in 0..n {
                assert_eq!(g.degree(v), d, "vertex {v} of ({n},{d})");
            }
        }
    }

    #[test]
    fn zero_regular_graph_is_edgeless() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_regular_graph(6, 0, &mut rng);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn instances_are_independent_samples() {
        let mut rng = StdRng::seed_from_u64(42);
        let instances: Vec<Graph> = (0..10)
            .map(|_| random_regular_graph(10, 3, &mut rng))
            .collect();
        assert_eq!(instances.len(), 10);
        // At least two of the ten instances should differ (overwhelmingly likely).
        assert!(instances.iter().any(|g| g != &instances[0]));
        for g in &instances {
            assert_eq!(g.num_edges(), 15);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = random_regular_graph(12, 3, &mut StdRng::seed_from_u64(5));
        let g2 = random_regular_graph(12, 3, &mut StdRng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }

    #[test]
    fn try_variant_returns_typed_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            try_random_regular_graph(5, 3, &mut rng),
            Err(RandomRegularError::OddDegreeSum { n: 5, d: 3 })
        );
        assert_eq!(
            try_random_regular_graph(4, 4, &mut rng),
            Err(RandomRegularError::DegreeTooLarge { n: 4, d: 4 })
        );
        let g = try_random_regular_graph(10, 3, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn error_display_is_informative() {
        let e = RandomRegularError::AttemptsExhausted {
            n: 6,
            d: 3,
            attempts: MAX_ATTEMPTS,
        };
        let msg = e.to_string();
        assert!(msg.contains("6 vertices"));
        assert!(msg.contains("10000 attempts"));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn rejects_odd_degree_sum() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_regular_graph(5, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "smaller than")]
    fn rejects_degree_too_large() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_regular_graph(4, 4, &mut rng);
    }
}
