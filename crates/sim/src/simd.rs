//! Explicit-SIMD inner loops for the dense two-qubit (`General`) kernel and
//! the block-structured canonical (`CanonicalBlocks`) kernel.
//!
//! The dense 4×4 path is the slowest two-qubit kernel of the statevector
//! engine: every amplitude quad takes 16 complex multiply–adds with no
//! structure to exploit.  Canonical-shaped gates — every `Can(a, b, c)`
//! interaction term — are two independent complex 2×2 blocks, so
//! [`apply_canonical_blocks`] does 8 multiply–adds per quad instead.  Both
//! vectorise the long-run branch over the amplitude axis with stable
//! `core::arch` intrinsics, chosen at run time: AVX2 on x86_64 (two
//! complexes per 256-bit vector), NEON on aarch64 (one complex per 128-bit
//! vector), and a scalar fallback that *is* the original loop.
//!
//! The vector paths keep the scalar operation order exactly — a complex
//! product is `x·re(w) + swap(x)·(∓im(w))` lane-wise, which matches
//! `Complex::mul` bit for bit (negating one factor of a product and adding
//! is bitwise identical to subtracting the product), and row accumulation
//! stays left-associated — so kernel output is bit-identical to the scalar
//! path on every input, preserving the engine's determinism guarantees.

use twoqan_math::{Complex, Matrix4};

/// Applies a dense 4×4 unitary to four equal-length amplitude runs
/// (`s00`, `s01`, `s10`, `s11` — the four basis-pair slices of a quad run).
#[inline]
pub fn apply_general4(
    m: &Matrix4,
    s00: &mut [Complex],
    s01: &mut [Complex],
    s10: &mut [Complex],
    s11: &mut [Complex],
) {
    debug_assert!(
        s00.len() == s01.len() && s00.len() == s10.len() && s00.len() == s11.len(),
        "quad runs must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { x86::apply_general4(m, s00, s01, s10, s11) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            unsafe { neon::apply_general4(m, s00, s01, s10, s11) };
            return;
        }
    }
    apply_general4_scalar(m, s00, s01, s10, s11);
}

/// Scalar reference implementation of [`apply_general4`] — the original
/// zipped long-run loop.
#[inline]
pub fn apply_general4_scalar(
    m: &Matrix4,
    s00: &mut [Complex],
    s01: &mut [Complex],
    s10: &mut [Complex],
    s11: &mut [Complex],
) {
    let m = &m.data;
    for (((a, b), c), e) in s00
        .iter_mut()
        .zip(s01.iter_mut())
        .zip(s10.iter_mut())
        .zip(s11.iter_mut())
    {
        let v = [*a, *b, *c, *e];
        *a = m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2] + m[0][3] * v[3];
        *b = m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2] + m[1][3] * v[3];
        *c = m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2] + m[2][3] * v[3];
        *e = m[3][0] * v[0] + m[3][1] * v[1] + m[3][2] * v[2] + m[3][3] * v[3];
    }
}

/// Applies a canonical-block 4×4 unitary — outer block `[b0, b1; b2, b3]`
/// on the (`s00`, `s11`) amplitude pair, inner block `[b4, b5; b6, b7]` on
/// (`s01`, `s10`) — to four equal-length amplitude runs.  `blocks` is the
/// `[m00, m03, m30, m33, m11, m12, m21, m22]` layout of
/// `Matrix4::as_canonical_blocks`.
#[inline]
pub fn apply_canonical_blocks(
    blocks: &[Complex; 8],
    s00: &mut [Complex],
    s01: &mut [Complex],
    s10: &mut [Complex],
    s11: &mut [Complex],
) {
    debug_assert!(
        s00.len() == s01.len() && s00.len() == s10.len() && s00.len() == s11.len(),
        "quad runs must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { x86::apply_canonical_blocks(blocks, s00, s01, s10, s11) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            unsafe { neon::apply_canonical_blocks(blocks, s00, s01, s10, s11) };
            return;
        }
    }
    apply_canonical_blocks_scalar(blocks, s00, s01, s10, s11);
}

/// Scalar reference implementation of [`apply_canonical_blocks`].
#[inline]
pub fn apply_canonical_blocks_scalar(
    b: &[Complex; 8],
    s00: &mut [Complex],
    s01: &mut [Complex],
    s10: &mut [Complex],
    s11: &mut [Complex],
) {
    for (((a, x), y), e) in s00
        .iter_mut()
        .zip(s01.iter_mut())
        .zip(s10.iter_mut())
        .zip(s11.iter_mut())
    {
        let (va, ve) = (*a, *e);
        *a = b[0] * va + b[1] * ve;
        *e = b[2] * va + b[3] * ve;
        let (vx, vy) = (*x, *y);
        *x = b[4] * vx + b[5] * vy;
        *y = b[6] * vx + b[7] * vy;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use twoqan_math::{Complex, Matrix4};

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn apply_general4(
        m: &Matrix4,
        s00: &mut [Complex],
        s01: &mut [Complex],
        s10: &mut [Complex],
        s11: &mut [Complex],
    ) {
        let n = s00.len();
        // Broadcast each matrix entry: the real part to all lanes, and the
        // imaginary part with alternating signs [-im, +im, -im, +im] so a
        // complex product is two multiplies and one add, lane-exact with
        // the scalar `re·re − im·im` / `im·re + re·im` forms.
        let mut wre = [[_mm256_setzero_pd(); 4]; 4];
        let mut wim = [[_mm256_setzero_pd(); 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                let w = m.data[r][c];
                wre[r][c] = _mm256_set1_pd(w.re);
                wim[r][c] = _mm256_setr_pd(-w.im, w.im, -w.im, w.im);
            }
        }
        let ptrs: [*mut f64; 4] = [
            s00.as_mut_ptr().cast(),
            s01.as_mut_ptr().cast(),
            s10.as_mut_ptr().cast(),
            s11.as_mut_ptr().cast(),
        ];
        let mut j = 0;
        // Two complexes (four doubles) per iteration.
        while j + 2 <= n {
            let off = 2 * j;
            let v = [
                _mm256_loadu_pd(ptrs[0].add(off)),
                _mm256_loadu_pd(ptrs[1].add(off)),
                _mm256_loadu_pd(ptrs[2].add(off)),
                _mm256_loadu_pd(ptrs[3].add(off)),
            ];
            // [re, im] → [im, re] per complex, for the cross terms.
            let sw = [
                _mm256_permute_pd::<0b0101>(v[0]),
                _mm256_permute_pd::<0b0101>(v[1]),
                _mm256_permute_pd::<0b0101>(v[2]),
                _mm256_permute_pd::<0b0101>(v[3]),
            ];
            for r in 0..4 {
                // Left-associated accumulation, matching the scalar path.
                let mut acc = _mm256_add_pd(
                    _mm256_mul_pd(v[0], wre[r][0]),
                    _mm256_mul_pd(sw[0], wim[r][0]),
                );
                for c in 1..4 {
                    let prod = _mm256_add_pd(
                        _mm256_mul_pd(v[c], wre[r][c]),
                        _mm256_mul_pd(sw[c], wim[r][c]),
                    );
                    acc = _mm256_add_pd(acc, prod);
                }
                _mm256_storeu_pd(ptrs[r].add(off), acc);
            }
            j += 2;
        }
        if j < n {
            super::apply_general4_scalar(
                m,
                &mut s00[j..],
                &mut s01[j..],
                &mut s10[j..],
                &mut s11[j..],
            );
        }
    }

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn apply_canonical_blocks(
        blocks: &[Complex; 8],
        s00: &mut [Complex],
        s01: &mut [Complex],
        s10: &mut [Complex],
        s11: &mut [Complex],
    ) {
        let n = s00.len();
        // Broadcast each block entry like `apply_general4`: real part to
        // every lane, imaginary part with alternating signs.
        let mut wre = [_mm256_setzero_pd(); 8];
        let mut wim = [_mm256_setzero_pd(); 8];
        for (i, w) in blocks.iter().enumerate() {
            wre[i] = _mm256_set1_pd(w.re);
            wim[i] = _mm256_setr_pd(-w.im, w.im, -w.im, w.im);
        }
        let pa: *mut f64 = s00.as_mut_ptr().cast();
        let px: *mut f64 = s01.as_mut_ptr().cast();
        let py: *mut f64 = s10.as_mut_ptr().cast();
        let pe: *mut f64 = s11.as_mut_ptr().cast();
        let mut j = 0;
        // Two complexes (four doubles) per iteration.
        while j + 2 <= n {
            let off = 2 * j;
            let va = _mm256_loadu_pd(pa.add(off));
            let ve = _mm256_loadu_pd(pe.add(off));
            let sa = _mm256_permute_pd::<0b0101>(va);
            let se = _mm256_permute_pd::<0b0101>(ve);
            // Outer block: new|00⟩ = b0·a + b1·e, new|11⟩ = b2·a + b3·e,
            // left-associated like the scalar path.
            let a_new = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(va, wre[0]), _mm256_mul_pd(sa, wim[0])),
                _mm256_add_pd(_mm256_mul_pd(ve, wre[1]), _mm256_mul_pd(se, wim[1])),
            );
            let e_new = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(va, wre[2]), _mm256_mul_pd(sa, wim[2])),
                _mm256_add_pd(_mm256_mul_pd(ve, wre[3]), _mm256_mul_pd(se, wim[3])),
            );
            _mm256_storeu_pd(pa.add(off), a_new);
            _mm256_storeu_pd(pe.add(off), e_new);
            // Inner block on the |01⟩ / |10⟩ pair.
            let vx = _mm256_loadu_pd(px.add(off));
            let vy = _mm256_loadu_pd(py.add(off));
            let sx = _mm256_permute_pd::<0b0101>(vx);
            let sy = _mm256_permute_pd::<0b0101>(vy);
            let x_new = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(vx, wre[4]), _mm256_mul_pd(sx, wim[4])),
                _mm256_add_pd(_mm256_mul_pd(vy, wre[5]), _mm256_mul_pd(sy, wim[5])),
            );
            let y_new = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(vx, wre[6]), _mm256_mul_pd(sx, wim[6])),
                _mm256_add_pd(_mm256_mul_pd(vy, wre[7]), _mm256_mul_pd(sy, wim[7])),
            );
            _mm256_storeu_pd(px.add(off), x_new);
            _mm256_storeu_pd(py.add(off), y_new);
            j += 2;
        }
        if j < n {
            super::apply_canonical_blocks_scalar(
                blocks,
                &mut s00[j..],
                &mut s01[j..],
                &mut s10[j..],
                &mut s11[j..],
            );
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;
    use twoqan_math::{Complex, Matrix4};

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn apply_general4(
        m: &Matrix4,
        s00: &mut [Complex],
        s01: &mut [Complex],
        s10: &mut [Complex],
        s11: &mut [Complex],
    ) {
        let n = s00.len();
        let mut wre = [[vdupq_n_f64(0.0); 4]; 4];
        let mut wim = [[vdupq_n_f64(0.0); 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                let w = m.data[r][c];
                wre[r][c] = vdupq_n_f64(w.re);
                // Alternating signs so a complex product is mul + mul + add.
                let signed = [-w.im, w.im];
                wim[r][c] = vld1q_f64(signed.as_ptr());
            }
        }
        let ptrs: [*mut f64; 4] = [
            s00.as_mut_ptr().cast(),
            s01.as_mut_ptr().cast(),
            s10.as_mut_ptr().cast(),
            s11.as_mut_ptr().cast(),
        ];
        // One complex (two doubles) per iteration.
        for j in 0..n {
            let off = 2 * j;
            let v = [
                vld1q_f64(ptrs[0].add(off)),
                vld1q_f64(ptrs[1].add(off)),
                vld1q_f64(ptrs[2].add(off)),
                vld1q_f64(ptrs[3].add(off)),
            ];
            let sw = [
                vextq_f64::<1>(v[0], v[0]),
                vextq_f64::<1>(v[1], v[1]),
                vextq_f64::<1>(v[2], v[2]),
                vextq_f64::<1>(v[3], v[3]),
            ];
            for r in 0..4 {
                let mut acc = vaddq_f64(vmulq_f64(v[0], wre[r][0]), vmulq_f64(sw[0], wim[r][0]));
                for c in 1..4 {
                    let prod = vaddq_f64(vmulq_f64(v[c], wre[r][c]), vmulq_f64(sw[c], wim[r][c]));
                    acc = vaddq_f64(acc, prod);
                }
                vst1q_f64(ptrs[r].add(off), acc);
            }
        }
    }

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn apply_canonical_blocks(
        blocks: &[Complex; 8],
        s00: &mut [Complex],
        s01: &mut [Complex],
        s10: &mut [Complex],
        s11: &mut [Complex],
    ) {
        let n = s00.len();
        let mut wre = [vdupq_n_f64(0.0); 8];
        let mut wim = [vdupq_n_f64(0.0); 8];
        for (i, w) in blocks.iter().enumerate() {
            wre[i] = vdupq_n_f64(w.re);
            // Alternating signs so a complex product is mul + mul + add.
            let signed = [-w.im, w.im];
            wim[i] = vld1q_f64(signed.as_ptr());
        }
        let pa: *mut f64 = s00.as_mut_ptr().cast();
        let px: *mut f64 = s01.as_mut_ptr().cast();
        let py: *mut f64 = s10.as_mut_ptr().cast();
        let pe: *mut f64 = s11.as_mut_ptr().cast();
        // One complex (two doubles) per iteration.
        for j in 0..n {
            let off = 2 * j;
            let va = vld1q_f64(pa.add(off));
            let ve = vld1q_f64(pe.add(off));
            let sa = vextq_f64::<1>(va, va);
            let se = vextq_f64::<1>(ve, ve);
            let a_new = vaddq_f64(
                vaddq_f64(vmulq_f64(va, wre[0]), vmulq_f64(sa, wim[0])),
                vaddq_f64(vmulq_f64(ve, wre[1]), vmulq_f64(se, wim[1])),
            );
            let e_new = vaddq_f64(
                vaddq_f64(vmulq_f64(va, wre[2]), vmulq_f64(sa, wim[2])),
                vaddq_f64(vmulq_f64(ve, wre[3]), vmulq_f64(se, wim[3])),
            );
            vst1q_f64(pa.add(off), a_new);
            vst1q_f64(pe.add(off), e_new);
            let vx = vld1q_f64(px.add(off));
            let vy = vld1q_f64(py.add(off));
            let sx = vextq_f64::<1>(vx, vx);
            let sy = vextq_f64::<1>(vy, vy);
            let x_new = vaddq_f64(
                vaddq_f64(vmulq_f64(vx, wre[4]), vmulq_f64(sx, wim[4])),
                vaddq_f64(vmulq_f64(vy, wre[5]), vmulq_f64(sy, wim[5])),
            );
            let y_new = vaddq_f64(
                vaddq_f64(vmulq_f64(vx, wre[6]), vmulq_f64(sx, wim[6])),
                vaddq_f64(vmulq_f64(vy, wre[7]), vmulq_f64(sy, wim[7])),
            );
            vst1q_f64(px.add(off), x_new);
            vst1q_f64(py.add(off), y_new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use twoqan_math::gates;

    fn random_runs(rng: &mut StdRng, n: usize) -> Vec<Vec<Complex>> {
        (0..4)
            .map(|_| {
                (0..n)
                    .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn simd_general4_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(31);
        let matrices = [
            gates::canonical(0.3, 0.2, 0.1),
            gates::canonical(1.1, -0.7, 0.4),
            gates::cnot(),
        ];
        for m in &matrices {
            for n in [0usize, 1, 2, 3, 5, 8, 64, 129] {
                let runs = random_runs(&mut rng, n);
                let mut wide = runs.clone();
                let mut scalar = runs;
                {
                    let [a, b, c, d] = &mut wide[..] else {
                        unreachable!()
                    };
                    apply_general4(m, a, b, c, d);
                }
                {
                    let [a, b, c, d] = &mut scalar[..] else {
                        unreachable!()
                    };
                    apply_general4_scalar(m, a, b, c, d);
                }
                // Identical operation order → bitwise equality, not ≈.
                assert_eq!(wide, scalar, "n = {n}");
            }
        }
    }

    #[test]
    fn simd_canonical_blocks_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(47);
        let matrices = [
            gates::canonical(0.3, 0.2, 0.1),
            gates::canonical(1.1, -0.7, 0.4),
            gates::canonical(0.0, 0.9, -1.3),
        ];
        for m in &matrices {
            let blocks = m
                .as_canonical_blocks()
                .expect("every Can(a, b, c) is canonical-block structured");
            for n in [0usize, 1, 2, 3, 5, 8, 64, 129] {
                let runs = random_runs(&mut rng, n);
                let mut wide = runs.clone();
                let mut scalar = runs;
                {
                    let [a, b, c, d] = &mut wide[..] else {
                        unreachable!()
                    };
                    apply_canonical_blocks(&blocks, a, b, c, d);
                }
                {
                    let [a, b, c, d] = &mut scalar[..] else {
                        unreachable!()
                    };
                    apply_canonical_blocks_scalar(&blocks, a, b, c, d);
                }
                assert_eq!(wide, scalar, "n = {n}");
            }
        }
    }

    /// The block kernel must agree with the dense 4×4 path on the matrices
    /// it replaces — same inputs, same outputs, bit for bit (the skipped
    /// products are exact zeros whose contributions the dense path adds; on
    /// canonical matrices those additions are exact no-ops except for the
    /// sign of a ±0.0, which `Complex` equality treats as equal).
    #[test]
    fn canonical_blocks_matches_the_dense_kernel() {
        let mut rng = StdRng::seed_from_u64(53);
        let m = gates::canonical(0.3, 0.2, 0.1);
        let blocks = m.as_canonical_blocks().unwrap();
        let runs = random_runs(&mut rng, 64);
        let mut dense = runs.clone();
        let mut blocked = runs;
        {
            let [a, b, c, d] = &mut dense[..] else {
                unreachable!()
            };
            apply_general4(&m, a, b, c, d);
        }
        {
            let [a, b, c, d] = &mut blocked[..] else {
                unreachable!()
            };
            apply_canonical_blocks(&blocks, a, b, c, d);
        }
        for (x, y) in dense.iter().flatten().zip(blocked.iter().flatten()) {
            assert!(x.approx_eq(*y, 1e-15), "{x} vs {y}");
        }
    }
}
