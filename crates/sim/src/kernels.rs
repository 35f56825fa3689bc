//! Kernelized gate application for the dense state-vector backend.
//!
//! The naive simulator walks all `2^n` basis indices per gate and
//! branch-skips the half (single-qubit) or three quarters (two-qubit) that
//! are not base indices.  The kernels here instead *enumerate* exactly the
//! `2^(n-1)` / `2^(n-2)` base indices by bit insertion — contiguous runs
//! below the lowest gate qubit, so the inner loops are branch-free and
//! vectorizable — and dispatch on the structural class of the gate:
//!
//! * **diagonal** gates (`Rz`, `Z`, `CZ`, and the `exp(iθZZ)` cost
//!   exponentials of QAOA layers) are pure phase multiplies — no amplitude
//!   shuffling, and unit phases are skipped entirely;
//! * **anti-diagonal** single-qubit gates (`X`, `Y`) are bit flips with
//!   phases — a swap of each amplitude pair;
//! * **swap-diagonal** two-qubit gates (SWAP, iSWAP, and the dressed SWAPs
//!   `SWAP · Can(0,0,c)` that routed QAOA circuits are full of) exchange
//!   the `|01⟩`/`|10⟩` amplitudes with at most four phase multiplies;
//! * **canonical-block** two-qubit gates — every `Can(a, b, c)`, so the
//!   general Heisenberg-style interaction terms — split into two
//!   independent complex 2×2 blocks (on span{|00⟩, |11⟩} and
//!   span{|01⟩, |10⟩}): 8 complex multiply–adds per quad instead of the
//!   dense path's 16, SIMD-vectorized in `crate::simd`;
//! * everything else takes the dense 2×2 / 4×4 path, still with stride
//!   enumeration.
//!
//! [`CompiledCircuit`] classifies every gate of a circuit once (through the
//! per-[`GateKind`] [`MatrixCache`]), so repeated application — one noisy
//! trajectory shot after another — pays neither matrix construction nor
//! classification again.
//!
//! # Determinism
//!
//! Kernels optionally split the base-index range into a fixed number of
//! chunks and run them on the compile pool (`twoqan_pool::run_indexed`).
//! Every output amplitude is a pure function of input amplitudes computed by
//! exactly one chunk with exactly the same arithmetic as the serial path,
//! so results are **bit-identical** for any thread count.

use twoqan_circuit::{Circuit, Gate, GateKind, MatrixCache, ScheduledCircuit};

#[cfg(doc)]
use twoqan_circuit::SingleQubitClass;
use twoqan_math::{Complex, Matrix2, Matrix4};

/// A classified single-qubit operation ready for kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SingleKernel {
    /// `diag(d0, d1)` — a pure phase multiply per amplitude.
    Diagonal([Complex; 2]),
    /// Anti-diagonal `[m01, m10]`: `|0⟩ → m10|1⟩`, `|1⟩ → m01|0⟩`.
    AntiDiagonal([Complex; 2]),
    /// An exactly real 2×2 (`Ry`, Hadamard): half the flops of the dense
    /// complex path.
    Real([[f64; 2]; 2]),
    /// Real diagonal, imaginary off-diagonal — the `Rx` mixer form
    /// `[[c, i·s01], [i·s10, c']]`, stored as `[c, s01, s10, c']`.
    RealDiagImagOff([f64; 4]),
    /// A dense 2×2 unitary.
    General(Matrix2),
}

/// A classified two-qubit operation ready for kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TwoKernel {
    /// `diag(d00, d01, d10, d11)` in `|q_a q_b⟩` basis order.
    Diagonal([Complex; 4]),
    /// SWAP composed with a diagonal: `[m00, m12, m21, m33]` — the only
    /// nonzero entries of the 4×4 matrix.
    SwapDiagonal([Complex; 4]),
    /// Canonical block structure `[m00, m03, m30, m33, m11, m12, m21, m22]`:
    /// an outer complex 2×2 on span{|00⟩, |11⟩} and an inner one on
    /// span{|01⟩, |10⟩} — the shape of every `Can(a, b, c)`.
    CanonicalBlocks([Complex; 8]),
    /// A dense 4×4 unitary.
    General(Matrix4),
}

impl SingleKernel {
    /// Classifies a 2×2 unitary by its exact structural zeros.
    pub fn from_matrix(m: &Matrix2) -> Self {
        if let Some(d) = m.as_diagonal() {
            SingleKernel::Diagonal(d)
        } else if let Some(a) = m.as_anti_diagonal() {
            SingleKernel::AntiDiagonal(a)
        } else if let Some(r) = m.as_real() {
            SingleKernel::Real(r)
        } else if let Some(x) = m.as_real_diag_imag_off() {
            SingleKernel::RealDiagImagOff(x)
        } else {
            SingleKernel::General(*m)
        }
    }

    /// Classifies a gate kind, reusing `cache` for the matrix.  The
    /// kind-level [`SingleQubitClass`] documents the structural contract;
    /// dispatch is on the matrix itself so that any drift between the two
    /// degrades to the dense kernel instead of panicking (and numerically
    /// structured kinds like `U3(0, 0, λ)` still get their fast path).
    pub fn from_kind(kind: &GateKind, cache: &mut MatrixCache) -> Self {
        SingleKernel::from_matrix(&cache.single(kind))
    }
}

impl TwoKernel {
    /// Classifies a 4×4 unitary by its exact structural zeros.
    pub fn from_matrix(m: &Matrix4) -> Self {
        if let Some(d) = m.as_diagonal() {
            TwoKernel::Diagonal(d)
        } else if let Some(s) = m.as_swap_diagonal() {
            TwoKernel::SwapDiagonal(s)
        } else if let Some(b) = m.as_canonical_blocks() {
            // Checked after the diagonal forms: both are sub-shapes of the
            // canonical keep-set and should win when they apply.
            TwoKernel::CanonicalBlocks(b)
        } else {
            TwoKernel::General(*m)
        }
    }

    /// Classifies a gate kind, reusing `cache` for the matrix; see
    /// [`SingleKernel::from_kind`] for why dispatch is matrix-based.
    pub fn from_kind(kind: &GateKind, cache: &mut MatrixCache) -> Self {
        TwoKernel::from_matrix(&cache.two(kind))
    }
}

/// One classified operation of a [`CompiledCircuit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledOp {
    /// A single-qubit operation.
    Single {
        /// Target qubit.
        qubit: usize,
        /// The classified kernel.
        kernel: SingleKernel,
    },
    /// A two-qubit operation; `qubit_a` is the most-significant qubit of
    /// the underlying 4×4 matrix.
    Two {
        /// First (most-significant) operand.
        qubit_a: usize,
        /// Second operand.
        qubit_b: usize,
        /// The classified kernel.
        kernel: TwoKernel,
    },
}

impl CompiledOp {
    /// Applies this operation to a `2^n` amplitude buffer.
    pub fn apply(&self, amps: &mut [Complex], threads: usize) {
        match self {
            CompiledOp::Single { qubit, kernel } => {
                apply_single_kernel(amps, *qubit, kernel, threads)
            }
            CompiledOp::Two {
                qubit_a,
                qubit_b,
                kernel,
            } => apply_two_kernel(amps, *qubit_a, *qubit_b, kernel, threads),
        }
    }
}

/// A circuit pre-classified for repeated kernel application.
///
/// Construction walks the gate list once, building each distinct
/// [`GateKind`]'s unitary a single time (via [`MatrixCache`]) and
/// classifying it into its kernel form.  Applying the compiled circuit to a
/// state performs no matrix construction and no classification.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    num_qubits: usize,
    ops: Vec<CompiledOp>,
}

impl CompiledCircuit {
    /// Compiles an ordered gate list.
    pub fn from_gates<'a>(num_qubits: usize, gates: impl IntoIterator<Item = &'a Gate>) -> Self {
        let mut cache = MatrixCache::new();
        // Kernel classification is cached per distinct kind as well; the
        // matrix cache alone would still re-run the (cheap) form analysis.
        let mut single_kinds: Vec<(GateKind, SingleKernel)> = Vec::new();
        let mut two_kinds: Vec<(GateKind, TwoKernel)> = Vec::new();
        let ops = gates
            .into_iter()
            .map(|gate| {
                if gate.is_two_qubit() {
                    let kernel = match two_kinds.iter().find(|(k, _)| *k == gate.kind) {
                        Some((_, kernel)) => *kernel,
                        None => {
                            let kernel = TwoKernel::from_kind(&gate.kind, &mut cache);
                            two_kinds.push((gate.kind, kernel));
                            kernel
                        }
                    };
                    CompiledOp::Two {
                        qubit_a: gate.qubit0(),
                        qubit_b: gate.qubit1(),
                        kernel,
                    }
                } else {
                    let kernel = match single_kinds.iter().find(|(k, _)| *k == gate.kind) {
                        Some((_, kernel)) => *kernel,
                        None => {
                            let kernel = SingleKernel::from_kind(&gate.kind, &mut cache);
                            single_kinds.push((gate.kind, kernel));
                            kernel
                        }
                    };
                    CompiledOp::Single {
                        qubit: gate.qubit0(),
                        kernel,
                    }
                }
            })
            .collect();
        Self { num_qubits, ops }
    }

    /// Compiles a [`Circuit`] in gate order.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.num_qubits(), circuit.iter())
    }

    /// Compiles a [`ScheduledCircuit`] in moment order.
    pub fn from_scheduled(schedule: &ScheduledCircuit) -> Self {
        Self::from_gates(schedule.num_qubits(), schedule.iter_gates())
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The classified operations in application order.
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies every operation to `amps` using up to `threads` threads per
    /// kernel.  Bit-identical for any `threads` value.
    pub fn apply(&self, amps: &mut [Complex], threads: usize) {
        assert_eq!(
            amps.len(),
            1usize << self.num_qubits,
            "amplitude buffer does not match the compiled qubit count"
        );
        for op in &self.ops {
            op.apply(amps, threads);
        }
    }
}

// ------------------------------------------------------------------------
// Threading machinery
// ------------------------------------------------------------------------

/// State size (amplitudes) below which [`auto_threads`] stays serial.
/// Each kernel invocation is one pool batch (and, with no pool installed,
/// provisions a transient one), so fan-out only amortizes once per-gate
/// work reaches the ~millisecond scale — around `2^20` amplitudes on
/// current hardware.  The threshold is consulted *only* by the automatic
/// policy: explicit chunk counts passed to the kernels are always honoured
/// (the determinism tests rely on forcing chunked execution on small
/// states).
const PAR_MIN_DIM: usize = 1 << 20;

/// The thread count the state-vector front end uses for a state of `dim`
/// amplitudes: one chunk per core once the state is large enough to
/// amortize per-kernel fan-out, serial otherwise.
pub fn auto_threads(dim: usize) -> usize {
    if dim < PAR_MIN_DIM {
        1
    } else {
        twoqan_pool::max_useful_workers()
    }
}

/// A raw shared view of the amplitude buffer for concurrent kernel chunks.
///
/// Safety: every kernel partitions the *base-index* space into disjoint
/// ranges, and distinct base indices address disjoint amplitude pairs /
/// quads (each amplitude index decomposes uniquely into a base index plus
/// inserted gate-qubit bits).  No amplitude is therefore ever accessed by
/// two threads.
struct SharedAmps {
    ptr: *mut Complex,
    len: usize,
}

unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    fn new(amps: &mut [Complex]) -> Self {
        Self {
            ptr: amps.as_mut_ptr(),
            len: amps.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds and not concurrently accessed by another
    /// thread (guaranteed by the disjoint base-range partition).
    #[allow(clippy::mut_from_ref)] // raw shared buffer; disjointness is the safety contract
    #[inline(always)]
    unsafe fn at(&self, i: usize) -> &mut Complex {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// # Safety
    ///
    /// `start..start + len` must be in bounds and disjoint from every other
    /// live slice or element reference (guaranteed by the kernels: runs
    /// never overlap across base indices or bit offsets).
    #[allow(clippy::mut_from_ref)] // raw shared buffer; disjointness is the safety contract
    #[inline(always)]
    unsafe fn slice(&self, start: usize, len: usize) -> &mut [Complex] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Runs `body(start, end)` over a partition of `0..total` into up to
/// `threads` chunks, run on the compile pool (inline when `threads <= 1`;
/// thresholds on the state size are the caller's job, see
/// [`auto_threads`]).  The partition depends only on `total` and `threads`,
/// and every index is processed by exactly one invocation, so any `body`
/// whose writes are per-index pure functions yields bit-identical results
/// in all modes.
fn run_chunked<F: Fn(usize, usize) + Sync>(total: usize, threads: usize, body: F) {
    let threads = threads.clamp(1, total.max(1));
    if threads == 1 {
        body(0, total);
        return;
    }
    let chunk = total.div_ceil(threads);
    twoqan_pool::run_indexed(threads, |t| {
        let start = t * chunk;
        let end = ((t + 1) * chunk).min(total);
        if start < end {
            body(start, end);
        }
    });
}

// ------------------------------------------------------------------------
// Single-qubit kernels
// ------------------------------------------------------------------------

/// Minimum contiguous run length for the slice-based loops.  Below a gate
/// qubit of this stride the per-run slice bookkeeping costs more than it
/// buys, and the scalar bit-expansion loop wins.
const MIN_RUN: usize = 8;

/// Applies a classified single-qubit operation to a `2^n` amplitude buffer.
///
/// # Panics
///
/// Panics if `amps.len()` is not a power of two or `qubit` is out of range.
pub fn apply_single_kernel(
    amps: &mut [Complex],
    qubit: usize,
    kernel: &SingleKernel,
    threads: usize,
) {
    let dim = amps.len();
    assert!(
        dim.is_power_of_two(),
        "amplitude count must be a power of two"
    );
    assert!(1usize << qubit < dim, "qubit {qubit} out of range");
    let bases = dim / 2;
    let bit = 1usize << qubit;
    let mask = bit - 1;
    let shared = SharedAmps::new(amps);
    match kernel {
        SingleKernel::Diagonal(d) => {
            let (d0, d1) = (d[0], d[1]);
            let one = Complex::one();
            let (mul0, mul1) = (d0 != one, d1 != one);
            run_chunked(bases, threads, |start, end| unsafe {
                if bit >= MIN_RUN {
                    let mut k = start;
                    while k < end {
                        let low = k & mask;
                        let run = (bit - low).min(end - k);
                        let i0 = ((k >> qubit) << (qubit + 1)) | low;
                        if mul0 {
                            for a in shared.slice(i0, run) {
                                *a *= d0;
                            }
                        }
                        if mul1 {
                            for a in shared.slice(i0 + bit, run) {
                                *a *= d1;
                            }
                        }
                        k += run;
                    }
                } else {
                    for k in start..end {
                        let i0 = ((k >> qubit) << (qubit + 1)) | (k & mask);
                        if mul0 {
                            *shared.at(i0) *= d0;
                        }
                        if mul1 {
                            *shared.at(i0 + bit) *= d1;
                        }
                    }
                }
            });
        }
        SingleKernel::AntiDiagonal(a) => {
            let (a01, a10) = (a[0], a[1]);
            let one = Complex::one();
            let pure_flip = a01 == one && a10 == one;
            run_chunked(bases, threads, |start, end| unsafe {
                if bit >= MIN_RUN {
                    let mut k = start;
                    while k < end {
                        let low = k & mask;
                        let run = (bit - low).min(end - k);
                        let i0 = ((k >> qubit) << (qubit + 1)) | low;
                        let lo = shared.slice(i0, run);
                        let hi = shared.slice(i0 + bit, run);
                        if pure_flip {
                            lo.swap_with_slice(hi);
                        } else {
                            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                                let t = *l;
                                *l = a01 * *h;
                                *h = a10 * t;
                            }
                        }
                        k += run;
                    }
                } else {
                    for k in start..end {
                        let i0 = ((k >> qubit) << (qubit + 1)) | (k & mask);
                        let l = shared.at(i0);
                        let h = shared.at(i0 + bit);
                        if pure_flip {
                            std::mem::swap(l, h);
                        } else {
                            let t = *l;
                            *l = a01 * *h;
                            *h = a10 * t;
                        }
                    }
                }
            });
        }
        SingleKernel::Real(r) => {
            let [[r00, r01], [r10, r11]] = *r;
            run_chunked(bases, threads, |start, end| unsafe {
                for_each_pair(&shared, start, end, qubit, bit, mask, |l, h| {
                    let (a0, a1) = (*l, *h);
                    *l = Complex::new(r00 * a0.re + r01 * a1.re, r00 * a0.im + r01 * a1.im);
                    *h = Complex::new(r10 * a0.re + r11 * a1.re, r10 * a0.im + r11 * a1.im);
                });
            });
        }
        SingleKernel::RealDiagImagOff(x) => {
            let [c0, s01, s10, c1] = *x;
            run_chunked(bases, threads, |start, end| unsafe {
                for_each_pair(&shared, start, end, qubit, bit, mask, |l, h| {
                    // (c + i·s)·(a.re + i·a.im): diag real, off-diag imag.
                    let (a0, a1) = (*l, *h);
                    *l = Complex::new(c0 * a0.re - s01 * a1.im, c0 * a0.im + s01 * a1.re);
                    *h = Complex::new(c1 * a1.re - s10 * a0.im, c1 * a1.im + s10 * a0.re);
                });
            });
        }
        SingleKernel::General(u) => {
            let [[u00, u01], [u10, u11]] = u.data;
            run_chunked(bases, threads, |start, end| unsafe {
                for_each_pair(&shared, start, end, qubit, bit, mask, |l, h| {
                    let a0 = *l;
                    let a1 = *h;
                    *l = u00 * a0 + u01 * a1;
                    *h = u10 * a0 + u11 * a1;
                });
            });
        }
    }
}

/// Drives `body(&mut lo, &mut hi)` over every amplitude pair of the base
/// range `start..end`: zipped noalias subslices for long runs, scalar bit
/// expansion for short ones.
///
/// # Safety
///
/// The range must partition disjointly across concurrent callers (see
/// [`SharedAmps`]).
#[inline(always)]
unsafe fn for_each_pair(
    shared: &SharedAmps,
    start: usize,
    end: usize,
    qubit: usize,
    bit: usize,
    mask: usize,
    mut body: impl FnMut(&mut Complex, &mut Complex),
) {
    if bit >= MIN_RUN {
        let mut k = start;
        while k < end {
            let low = k & mask;
            let run = (bit - low).min(end - k);
            let i0 = ((k >> qubit) << (qubit + 1)) | low;
            let lo = shared.slice(i0, run);
            let hi = shared.slice(i0 + bit, run);
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                body(l, h);
            }
            k += run;
        }
    } else {
        for k in start..end {
            let i0 = ((k >> qubit) << (qubit + 1)) | (k & mask);
            body(shared.at(i0), shared.at(i0 + bit));
        }
    }
}

// ------------------------------------------------------------------------
// Two-qubit kernels
// ------------------------------------------------------------------------

/// The index geometry of a two-qubit kernel: base indices (both gate bits
/// clear) decompose as high | mid | low segments around the two bit
/// positions.
#[derive(Clone, Copy)]
struct QuadGeometry {
    p_lo: usize,
    p_hi: usize,
    b_lo: usize,
    m_lo: usize,
    m_hi: usize,
}

impl QuadGeometry {
    fn new(qubit_a: usize, qubit_b: usize) -> Self {
        let p_lo = qubit_a.min(qubit_b);
        let p_hi = qubit_a.max(qubit_b);
        Self {
            p_lo,
            p_hi,
            b_lo: 1usize << p_lo,
            m_lo: (1usize << p_lo) - 1,
            m_hi: (1usize << p_hi) - 1,
        }
    }

    /// The amplitude index of base `k` (both gate bits inserted as zeros).
    #[inline(always)]
    fn expand(&self, k: usize) -> usize {
        let t = ((k >> self.p_lo) << (self.p_lo + 1)) | (k & self.m_lo);
        ((t >> self.p_hi) << (self.p_hi + 1)) | (t & self.m_hi)
    }

    /// Iterates `start..end` as `(i00, run)` pairs where `i00..i00+run` are
    /// consecutive amplitude indices (runs never cross a gate-bit stride).
    #[inline(always)]
    fn for_each_run(&self, start: usize, end: usize, mut body: impl FnMut(usize, usize)) {
        let mut k = start;
        while k < end {
            let low = k & self.m_lo;
            let run = (self.b_lo - low).min(end - k);
            body(self.expand(k), run);
            k += run;
        }
    }
}

/// Applies a classified two-qubit operation; `qubit_a` is the
/// most-significant qubit of the 4×4 matrix convention.
///
/// # Panics
///
/// Panics if the qubits coincide or are out of range, or if `amps.len()` is
/// not a power of two.
pub fn apply_two_kernel(
    amps: &mut [Complex],
    qubit_a: usize,
    qubit_b: usize,
    kernel: &TwoKernel,
    threads: usize,
) {
    let dim = amps.len();
    assert!(
        dim.is_power_of_two(),
        "amplitude count must be a power of two"
    );
    assert!(
        (1usize << qubit_a) < dim && (1usize << qubit_b) < dim,
        "qubit out of range"
    );
    assert_ne!(qubit_a, qubit_b, "two-qubit gate requires distinct qubits");
    let bases = dim / 4;
    let bit_a = 1usize << qubit_a;
    let bit_b = 1usize << qubit_b;
    let geo = QuadGeometry::new(qubit_a, qubit_b);
    let long_runs = geo.b_lo >= MIN_RUN;
    let shared = SharedAmps::new(amps);
    match kernel {
        TwoKernel::Diagonal(d) => {
            let d = *d;
            let one = Complex::one();
            let active = [d[0] != one, d[1] != one, d[2] != one, d[3] != one];
            run_chunked(bases, threads, |start, end| unsafe {
                if long_runs {
                    geo.for_each_run(start, end, |i00, run| {
                        for (slot, offset) in [0usize, bit_b, bit_a, bit_a + bit_b]
                            .into_iter()
                            .enumerate()
                        {
                            if active[slot] {
                                for a in shared.slice(i00 + offset, run) {
                                    *a *= d[slot];
                                }
                            }
                        }
                    });
                } else {
                    for k in start..end {
                        let i00 = geo.expand(k);
                        if active[0] {
                            *shared.at(i00) *= d[0];
                        }
                        if active[1] {
                            *shared.at(i00 + bit_b) *= d[1];
                        }
                        if active[2] {
                            *shared.at(i00 + bit_a) *= d[2];
                        }
                        if active[3] {
                            *shared.at(i00 + bit_a + bit_b) *= d[3];
                        }
                    }
                }
            });
        }
        TwoKernel::SwapDiagonal(s) => {
            let s = *s;
            let one = Complex::one();
            let pure_swap = s.iter().all(|&e| e == one);
            let outer_active = [s[0] != one, s[3] != one];
            run_chunked(bases, threads, |start, end| unsafe {
                if long_runs {
                    geo.for_each_run(start, end, |i00, run| {
                        let a01 = shared.slice(i00 + bit_b, run);
                        let a10 = shared.slice(i00 + bit_a, run);
                        if pure_swap {
                            a01.swap_with_slice(a10);
                            return;
                        }
                        // new|01⟩ = m12·old|10⟩, new|10⟩ = m21·old|01⟩.
                        for (x, y) in a01.iter_mut().zip(a10.iter_mut()) {
                            let t = *x;
                            *x = s[1] * *y;
                            *y = s[2] * t;
                        }
                        if outer_active[0] {
                            for a in shared.slice(i00, run) {
                                *a *= s[0];
                            }
                        }
                        if outer_active[1] {
                            for a in shared.slice(i00 + bit_a + bit_b, run) {
                                *a *= s[3];
                            }
                        }
                    });
                } else {
                    for k in start..end {
                        let i00 = geo.expand(k);
                        let x = shared.at(i00 + bit_b);
                        let y = shared.at(i00 + bit_a);
                        if pure_swap {
                            std::mem::swap(x, y);
                            continue;
                        }
                        let t = *x;
                        *x = s[1] * *y;
                        *y = s[2] * t;
                        if outer_active[0] {
                            *shared.at(i00) *= s[0];
                        }
                        if outer_active[1] {
                            *shared.at(i00 + bit_a + bit_b) *= s[3];
                        }
                    }
                }
            });
        }
        TwoKernel::CanonicalBlocks(b) => {
            let b = *b;
            run_chunked(bases, threads, |start, end| unsafe {
                if long_runs {
                    geo.for_each_run(start, end, |i00, run| {
                        let s00 = shared.slice(i00, run);
                        let s01 = shared.slice(i00 + bit_b, run);
                        let s10 = shared.slice(i00 + bit_a, run);
                        let s11 = shared.slice(i00 + bit_a + bit_b, run);
                        // Explicit-SIMD two-block update (bit-identical to
                        // the scalar fallback — see `crate::simd`).
                        crate::simd::apply_canonical_blocks(&b, s00, s01, s10, s11);
                    });
                } else {
                    for k in start..end {
                        let i00 = geo.expand(k);
                        let (a, x, y, e) = (
                            shared.at(i00),
                            shared.at(i00 + bit_b),
                            shared.at(i00 + bit_a),
                            shared.at(i00 + bit_a + bit_b),
                        );
                        let (va, ve) = (*a, *e);
                        *a = b[0] * va + b[1] * ve;
                        *e = b[2] * va + b[3] * ve;
                        let (vx, vy) = (*x, *y);
                        *x = b[4] * vx + b[5] * vy;
                        *y = b[6] * vx + b[7] * vy;
                    }
                }
            });
        }
        TwoKernel::General(u) => {
            let m = u.data;
            run_chunked(bases, threads, |start, end| unsafe {
                if long_runs {
                    geo.for_each_run(start, end, |i00, run| {
                        let s00 = shared.slice(i00, run);
                        let s01 = shared.slice(i00 + bit_b, run);
                        let s10 = shared.slice(i00 + bit_a, run);
                        let s11 = shared.slice(i00 + bit_a + bit_b, run);
                        // Explicit-SIMD dense 4×4 update (bit-identical to
                        // the scalar fallback — see `crate::simd`).
                        crate::simd::apply_general4(u, s00, s01, s10, s11);
                    });
                } else {
                    for k in start..end {
                        let i00 = geo.expand(k);
                        let (a, b, c, e) = (
                            shared.at(i00),
                            shared.at(i00 + bit_b),
                            shared.at(i00 + bit_a),
                            shared.at(i00 + bit_a + bit_b),
                        );
                        let v = [*a, *b, *c, *e];
                        *a = m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2] + m[0][3] * v[3];
                        *b = m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2] + m[1][3] * v[3];
                        *c = m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2] + m[2][3] * v[3];
                        *e = m[3][0] * v[0] + m[3][1] * v[1] + m[3][2] * v[2] + m[3][3] * v[3];
                    }
                }
            });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use twoqan_math::gates;

    /// A random normalized state on `n` qubits.
    fn random_state(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut amps: Vec<Complex> = (0..1usize << n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = Complex::new(a.re / norm, a.im / norm);
        }
        amps
    }

    /// Reference single-qubit application (the naive branch-per-index loop).
    pub(crate) fn naive_single(amps: &mut [Complex], qubit: usize, u: &Matrix2) {
        let bit = 1usize << qubit;
        for idx in 0..amps.len() {
            if idx & bit == 0 {
                let other = idx | bit;
                let a0 = amps[idx];
                let a1 = amps[other];
                amps[idx] = u.data[0][0] * a0 + u.data[0][1] * a1;
                amps[other] = u.data[1][0] * a0 + u.data[1][1] * a1;
            }
        }
    }

    /// Reference two-qubit application.
    pub(crate) fn naive_two(amps: &mut [Complex], qa: usize, qb: usize, u: &Matrix4) {
        let (ba, bb) = (1usize << qa, 1usize << qb);
        for idx in 0..amps.len() {
            if idx & ba == 0 && idx & bb == 0 {
                let v = [
                    amps[idx],
                    amps[idx | bb],
                    amps[idx | ba],
                    amps[idx | ba | bb],
                ];
                let w = u.mul_vec(v);
                amps[idx] = w[0];
                amps[idx | bb] = w[1];
                amps[idx | ba] = w[2];
                amps[idx | ba | bb] = w[3];
            }
        }
    }

    /// Reference application of a circuit-IR gate, rebuilding its matrix.
    pub(crate) fn naive_gate(amps: &mut [Complex], gate: &Gate) {
        if gate.is_two_qubit() {
            naive_two(
                amps,
                gate.qubit0(),
                gate.qubit1(),
                &gate.kind.two_qubit_matrix(),
            );
        } else {
            naive_single(amps, gate.qubit0(), &gate.kind.single_qubit_matrix());
        }
    }

    fn assert_close(a: &[Complex], b: &[Complex]) {
        for (x, y) in a.iter().zip(b) {
            assert!(x.approx_eq(*y, 1e-12), "{x} vs {y}");
        }
    }

    #[test]
    fn single_kernels_match_naive_on_all_qubits() {
        let n = 7;
        for (name, m) in [
            ("rz", gates::rz(0.7)),
            ("z", gates::pauli_z()),
            ("s", gates::s_gate()),
            ("x", gates::pauli_x()),
            ("y", gates::pauli_y()),
            ("h", gates::hadamard()),
            ("rx", gates::rx(0.4)),
            ("ry", gates::ry(-0.9)),
            ("u3", gates::u3(0.2, 0.9, -0.4)),
        ] {
            let kernel = SingleKernel::from_matrix(&m);
            for q in 0..n {
                let mut reference = random_state(n, 11);
                let mut fast = reference.clone();
                naive_single(&mut reference, q, &m);
                apply_single_kernel(&mut fast, q, &kernel, 1);
                assert_close(&fast, &reference);
                let mut threaded = random_state(n, 11);
                apply_single_kernel(&mut threaded, q, &kernel, 4);
                assert_eq!(threaded, fast, "{name} q{q} diverged across thread counts");
            }
        }
    }

    #[test]
    fn two_qubit_kernels_match_naive_on_all_pairs() {
        let n = 6;
        for (name, m) in [
            ("rzz", gates::zz_interaction(0.61)),
            ("cz", gates::cz()),
            ("cphase", gates::cphase(0.8)),
            ("swap", gates::swap()),
            ("iswap", gates::iswap()),
            ("dressed", gates::dressed_swap(0.0, 0.0, 0.35)),
            ("cnot", gates::cnot()),
            ("syc", gates::syc()),
            ("can", gates::canonical(0.3, 0.2, 0.1)),
        ] {
            let kernel = TwoKernel::from_matrix(&m);
            for qa in 0..n {
                for qb in 0..n {
                    if qa == qb {
                        continue;
                    }
                    let mut reference = random_state(n, 23);
                    let mut fast = reference.clone();
                    naive_two(&mut reference, qa, qb, &m);
                    apply_two_kernel(&mut fast, qa, qb, &kernel, 1);
                    assert_close(&fast, &reference);
                    let mut threaded = random_state(n, 23);
                    apply_two_kernel(&mut threaded, qa, qb, &kernel, 3);
                    assert_eq!(
                        threaded, fast,
                        "{name} ({qa},{qb}) diverged across thread counts"
                    );
                }
            }
        }
    }

    #[test]
    fn classification_picks_the_specialized_forms() {
        assert!(matches!(
            SingleKernel::from_matrix(&gates::rz(0.3)),
            SingleKernel::Diagonal(_)
        ));
        assert!(matches!(
            SingleKernel::from_matrix(&gates::pauli_y()),
            SingleKernel::AntiDiagonal(_)
        ));
        assert!(matches!(
            SingleKernel::from_matrix(&gates::hadamard()),
            SingleKernel::Real(_)
        ));
        assert!(matches!(
            SingleKernel::from_matrix(&gates::ry(0.4)),
            SingleKernel::Real(_)
        ));
        assert!(matches!(
            SingleKernel::from_matrix(&gates::rx(0.4)),
            SingleKernel::RealDiagImagOff(_)
        ));
        assert!(matches!(
            SingleKernel::from_matrix(&gates::u3(0.2, 0.9, -0.4)),
            SingleKernel::General(_)
        ));
        assert!(matches!(
            TwoKernel::from_matrix(&gates::zz_interaction(0.4)),
            TwoKernel::Diagonal(_)
        ));
        assert!(matches!(
            TwoKernel::from_matrix(&gates::dressed_swap(0.0, 0.0, 0.4)),
            TwoKernel::SwapDiagonal(_)
        ));
        assert!(matches!(
            TwoKernel::from_matrix(&gates::canonical(0.3, 0.2, 0.1)),
            TwoKernel::CanonicalBlocks(_)
        ));
        // CNOT's |10⟩ ↔ |11⟩ exchange sits outside the canonical block
        // structure, so it stays dense.
        assert!(matches!(
            TwoKernel::from_matrix(&gates::cnot()),
            TwoKernel::General(_)
        ));
        // U3(0, 0, λ) is diagonal even though its kind-level class is
        // General — the matrix analysis catches it.
        let mut cache = MatrixCache::new();
        assert!(matches!(
            SingleKernel::from_kind(&GateKind::U3(0.0, 0.0, 0.4), &mut cache),
            SingleKernel::Diagonal(_)
        ));
    }

    #[test]
    fn compiled_circuit_reuses_kernels_and_counts_specialized_ops() {
        let mut c = Circuit::new(4);
        for i in 0..3 {
            c.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.4));
        }
        c.push(Gate::two(GateKind::Swap, 0, 3));
        c.push(Gate::canonical(1, 2, 0.3, 0.2, 0.1));
        for q in 0..4 {
            c.push(Gate::single(GateKind::Rx(0.8), q));
        }
        let compiled = CompiledCircuit::from_circuit(&c);
        assert_eq!(compiled.len(), 9);
        assert_eq!(compiled.num_qubits(), 4);
        assert!(!compiled.is_empty());
        // 3 RZZ (diagonal) + 1 SWAP (swap-diagonal) + the Heisenberg term
        // (canonical blocks): no two-qubit op falls back to the dense kernel.
        let specialized = compiled
            .ops()
            .iter()
            .filter(|op| {
                matches!(op, CompiledOp::Two { kernel, .. } if !matches!(kernel, TwoKernel::General(_)))
            })
            .count();
        assert_eq!(specialized, 5);
        // Applying the compiled circuit equals applying the gates naively.
        let mut reference = random_state(4, 5);
        let mut fast = reference.clone();
        for g in c.iter() {
            naive_gate(&mut reference, g);
        }
        compiled.apply(&mut fast, 1);
        assert_close(&fast, &reference);
        let mut threaded = random_state(4, 5);
        compiled.apply(&mut threaded, 8);
        assert_eq!(threaded, fast);
    }

    #[test]
    fn auto_threads_is_serial_for_small_states() {
        assert_eq!(auto_threads(1 << 4), 1);
        assert!(auto_threads(1 << 22) >= 1);
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn two_qubit_kernel_rejects_equal_qubits() {
        let mut amps = vec![Complex::zero(); 4];
        apply_two_kernel(&mut amps, 1, 1, &TwoKernel::from_matrix(&gates::swap()), 1);
    }
}
