//! Vectorizable inner loops for the QAP delta-table kernels.
//!
//! Two primitives cover the dense hot paths of the Taillard delta table
//! ([`crate::tabu::DeltaTable`]):
//!
//! * [`update_row`] — the rank-1 Taillard update of one delta-table row after
//!   an accepted swap, `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`;
//! * [`row_min`] — the per-row lower bound used by the early-abort
//!   neighbourhood scan.
//!
//! Each is one safe body that the compiler vectorizes for the build target
//! (SSE2 on baseline x86_64, NEON on aarch64).  There is no runtime
//! dispatch: an AVX2 clone of both bodies ran no faster end to end
//! (`BENCHMARKS.md` § QAP kernels).  Neither result depends on the target:
//! `update_row` is elementwise IEEE-754 arithmetic in one fixed order with
//! no multiply-add contraction, and the minimum of non-NaN values is exact
//! (only the sign of a zero minimum may differ, and no comparison can see
//! it).

/// Rank-1 Taillard row update: `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`
/// with `A = a_sg`, `B = a_h`.  All slices must have the same length.
#[inline]
pub fn update_row(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
    debug_assert!(row.len() == sg.len() && row.len() == h.len() && row.len() == sgh.len());
    let ab = a_sg * a_h;
    for (((r, &sg), &h), &sgh) in row.iter_mut().zip(sg).zip(h).zip(sgh) {
        *r += (ab + sgh) - (a_sg * h + a_h * sg);
    }
}

/// Minimum of a slice (`+∞` for an empty one).  Inputs are finite deltas,
/// never NaN.  Four independent select-min accumulators run over the
/// 4-element chunks, so the loop vectorizes, then the tail.
#[inline]
pub fn row_min(xs: &[f64]) -> f64 {
    let smaller = |a: f64, b: f64| if b < a { b } else { a };
    let mut acc = [f64::INFINITY; 4];
    let chunks = xs.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a = smaller(*a, x);
        }
    }
    let body = smaller(smaller(acc[0], acc[2]), smaller(acc[1], acc[3]));
    tail.iter().fold(body, |min, &x| smaller(min, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| f64::from(rng.gen_range(-9..10))).collect()
    }

    /// The scalar oracle of [`update_row`]: one index loop, same formula.
    fn update_row_scalar(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
        let ab = a_sg * a_h;
        for j in 0..row.len() {
            row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
        }
    }

    /// The scalar oracle of [`row_min`]: one compare per element, in order.
    fn row_min_scalar(xs: &[f64]) -> f64 {
        let mut min = f64::INFINITY;
        for &x in xs {
            if x < min {
                min = x;
            }
        }
        min
    }

    #[test]
    fn update_row_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [0usize, 1, 2, 4, 7, 31, 81, 200] {
            let base: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect();
            let sg: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let h: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let sgh: Vec<f64> = sg.iter().zip(&h).map(|(&s, &t)| s * t).collect();
            let (a_sg, a_h) = (rng.gen::<f64>() * 3.0, rng.gen::<f64>() * 3.0);
            let mut vectorized = base.clone();
            let mut scalar = base;
            update_row(&mut vectorized, &sg, &h, &sgh, a_sg, a_h);
            update_row_scalar(&mut scalar, &sg, &h, &sgh, a_sg, a_h);
            // Non-integer inputs on purpose: both loops share the exact
            // operation order, so equality is bitwise, not just approximate.
            assert_eq!(vectorized, scalar, "n = {n}");
        }
    }

    #[test]
    fn row_min_matches_scalar_and_handles_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(row_min(&[]), f64::INFINITY);
        for n in [1usize, 2, 3, 4, 5, 9, 64, 81, 203] {
            let xs = random_vec(&mut rng, n);
            let expect = row_min_scalar(&xs);
            assert_eq!(row_min(&xs), expect);
            assert_eq!(xs.iter().copied().fold(f64::INFINITY, f64::min), expect);
        }
    }
}
