//! Explicit-SIMD inner loops for the QAP delta-table kernels.
//!
//! Two primitives cover the dense hot paths of the Taillard delta table
//! ([`crate::tabu::DeltaTable`]):
//!
//! * [`update_row`] — the rank-1 Taillard update of one delta-table row after
//!   an accepted swap, `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`;
//! * [`row_min`] — the per-row lower bound used by the early-abort
//!   neighbourhood scan.
//!
//! `std::simd` is nightly-only, so the wide paths use stable `core::arch`
//! intrinsics — AVX2 on x86_64 and NEON on aarch64, selected at runtime —
//! with portable scalar fallbacks (`*_scalar`) behind the same seam.  The
//! fallbacks are the reference semantics: `update_row` performs the exact
//! same elementwise operation order as the vector path (no FMA
//! contraction), and `row_min` returns the same minimum.
//!
//! The swap deltas themselves are sparse sums (`tabu::delta_pair`) that
//! keep the floating-point order of an explicit-SIMD dense dot product
//! `Σ_k x[k]`, so a placement does not depend on the flow's sparsity and
//! stays the same across releases on each platform.  [`dot_lanes`] is that
//! product's accumulator count `L`: 4 under AVX2, 2 under NEON, 1
//! otherwise.  Term `k` of the vector body `k < n − n mod L` goes to lane
//! `k mod L`, the lanes are reduced as `(a0 + a2) + (a1 + a3)` (`L = 4`)
//! or `a0 + a1` (`L = 2`), and the tail terms are added after that, in
//! index order.

/// Accumulator lanes of the platform's dot-product order: 4 with AVX2, 2
/// with NEON, 1 for the scalar fallback.
pub fn dot_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return 4;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return 2;
        }
    }
    1
}

/// Rank-1 Taillard row update: `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`
/// with `A = a_sg`, `B = a_h`.  All slices must have the same length.
///
/// The vector and scalar paths perform identical elementwise operations in
/// identical order (multiply, add, subtract — no FMA), so they are
/// bit-identical on every input, not just integer-valued ones.
#[inline]
pub fn update_row(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
    debug_assert!(row.len() == sg.len() && row.len() == h.len() && row.len() == sgh.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { x86::update_row(row, sg, h, sgh, a_sg, a_h) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            unsafe { neon::update_row(row, sg, h, sgh, a_sg, a_h) };
            return;
        }
    }
    update_row_scalar(row, sg, h, sgh, a_sg, a_h);
}

/// Scalar reference implementation of [`update_row`].
#[inline]
pub fn update_row_scalar(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
    let ab = a_sg * a_h;
    for j in 0..row.len() {
        row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
    }
}

/// Minimum of a slice (`+∞` for an empty one).  Inputs are finite deltas,
/// never NaN.
#[inline]
pub fn row_min(xs: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::row_min(xs) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { neon::row_min(xs) };
        }
    }
    row_min_scalar(xs)
}

/// Scalar reference implementation of [`row_min`].
#[inline]
pub fn row_min_scalar(xs: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    for &x in xs {
        if x < min {
            min = x;
        }
    }
    min
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn update_row(
        row: &mut [f64],
        sg: &[f64],
        h: &[f64],
        sgh: &[f64],
        a_sg: f64,
        a_h: f64,
    ) {
        let n = row.len();
        let ab = a_sg * a_h;
        let vab = _mm256_set1_pd(ab);
        let va = _mm256_set1_pd(a_sg);
        let vb = _mm256_set1_pd(a_h);
        let mut j = 0;
        while j + 4 <= n {
            let vh = _mm256_loadu_pd(h.as_ptr().add(j));
            let vsg = _mm256_loadu_pd(sg.as_ptr().add(j));
            let vsgh = _mm256_loadu_pd(sgh.as_ptr().add(j));
            let vrow = _mm256_loadu_pd(row.as_ptr().add(j));
            // Same operation order as the scalar path: no FMA contraction.
            let pos = _mm256_add_pd(vab, vsgh);
            let neg = _mm256_add_pd(_mm256_mul_pd(va, vh), _mm256_mul_pd(vb, vsg));
            let out = _mm256_add_pd(vrow, _mm256_sub_pd(pos, neg));
            _mm256_storeu_pd(row.as_mut_ptr().add(j), out);
            j += 4;
        }
        while j < n {
            row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
            j += 1;
        }
    }

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_min(xs: &[f64]) -> f64 {
        let n = xs.len();
        let mut acc = _mm256_set1_pd(f64::INFINITY);
        let mut k = 0;
        while k + 4 <= n {
            acc = _mm256_min_pd(acc, _mm256_loadu_pd(xs.as_ptr().add(k)));
            k += 4;
        }
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let m2 = _mm_min_pd(lo, hi);
        let m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
        let mut min = _mm_cvtsd_f64(m1);
        while k < n {
            if xs[k] < min {
                min = xs[k];
            }
            k += 1;
        }
        min
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn update_row(
        row: &mut [f64],
        sg: &[f64],
        h: &[f64],
        sgh: &[f64],
        a_sg: f64,
        a_h: f64,
    ) {
        let n = row.len();
        let ab = a_sg * a_h;
        let vab = vdupq_n_f64(ab);
        let va = vdupq_n_f64(a_sg);
        let vb = vdupq_n_f64(a_h);
        let mut j = 0;
        while j + 2 <= n {
            let vh = vld1q_f64(h.as_ptr().add(j));
            let vsg = vld1q_f64(sg.as_ptr().add(j));
            let vsgh = vld1q_f64(sgh.as_ptr().add(j));
            let vrow = vld1q_f64(row.as_ptr().add(j));
            // Same operation order as the scalar path: no FMA contraction.
            let pos = vaddq_f64(vab, vsgh);
            let neg = vaddq_f64(vmulq_f64(va, vh), vmulq_f64(vb, vsg));
            let out = vaddq_f64(vrow, vsubq_f64(pos, neg));
            vst1q_f64(row.as_mut_ptr().add(j), out);
            j += 2;
        }
        while j < n {
            row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
            j += 1;
        }
    }

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_min(xs: &[f64]) -> f64 {
        let n = xs.len();
        let mut acc = vdupq_n_f64(f64::INFINITY);
        let mut k = 0;
        while k + 2 <= n {
            acc = vminq_f64(acc, vld1q_f64(xs.as_ptr().add(k)));
            k += 2;
        }
        let mut min = {
            let a = vgetq_lane_f64::<0>(acc);
            let b = vgetq_lane_f64::<1>(acc);
            if b < a {
                b
            } else {
                a
            }
        };
        while k < n {
            if xs[k] < min {
                min = xs[k];
            }
            k += 1;
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| f64::from(rng.gen_range(-9..10))).collect()
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
            let mut wide = base.clone();
            let mut scalar = base;
            update_row(&mut wide, &sg, &h, &sgh, a_sg, a_h);
            update_row_scalar(&mut scalar, &sg, &h, &sgh, a_sg, a_h);
            // Non-integer inputs on purpose: the two paths share the exact
            // operation order, so equality is bitwise, not just approximate.
            assert_eq!(wide, scalar, "n = {n}");
        }
    }

    #[test]
    fn row_min_matches_scalar_and_handles_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(row_min(&[]), f64::INFINITY);
        assert_eq!(row_min_scalar(&[]), f64::INFINITY);
        for n in [1usize, 2, 3, 4, 5, 9, 64, 81, 203] {
            let xs = random_vec(&mut rng, n);
            let expect = row_min_scalar(&xs);
            assert_eq!(row_min(&xs), expect);
            assert_eq!(xs.iter().copied().fold(f64::INFINITY, f64::min), expect);
        }
    }
}
