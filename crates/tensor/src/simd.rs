//! Runtime-dispatched SIMD kernels (AVX2 + FMA) with scalar fallbacks.
//!
//! The GEMM and element-wise hot loops in [`crate::gemm`] and [`crate::ops`]
//! dispatch through [`active_level`]: on an x86-64 host where
//! `is_x86_feature_detected!` confirms AVX2 and FMA they run the explicit
//! 8-lane (`f32x8`) microkernels in this module; everywhere else they run
//! the portable scalar kernels that live next to the call sites.
//!
//! Dispatch is resolved once per process (a relaxed atomic memo) from CPU
//! detection plus the `HETERO_SIMD` environment variable:
//!
//! | `HETERO_SIMD` | effect |
//! |---|---|
//! | `0` / `off` / `scalar` | force the portable scalar path |
//! | `1` / `on` / `avx2` | request AVX2 (clamped to what the CPU supports) |
//! | unset / anything else | auto: use AVX2 iff detected |
//!
//! Tests and benches that need *both* paths in one process use
//! [`with_level`], a thread-scoped override (the global memo is shared
//! state; a scoped override keeps concurrently-running tests independent).
//!
//! Dense GEMM has exactly two AVX2 inner loops:
//!
//! | loop | shape | registers | used for |
//! |---|---|---|---|
//! | `tile_6x16` | 6×16 tile of C over one packed `kc×6` A panel and one packed `kc×16` B panel | 12 accumulators + 2 B vectors + 1 broadcast of 16 ymm | every NN / TN / NT product that is not skinny |
//! | `dot_block` | 4×2 (or 1×4) full-length row·row dots, tail by masked load | 8 (4) accumulators | NT with fewer than 18 rows or fewer than 8 output columns |
//!
//! The packed path is BLIS-shaped: B is packed `KC×NC` at a time into
//! 16-column panels, A `MC×KC` at a time into 6-row panels, both
//! zero-padded to whole panels, so the microkernel has no edge cases — row
//! edges are not stored, column edges are masked stores. NN, TN and NT
//! differ only in which of the four packers (`pack::<6|16>`, straight or
//! 8×8-transposing) feeds each operand. β·C or the fused bias row is added
//! when the first k-block is stored (β = 0 stores without reading C); later
//! k-blocks accumulate. NN / TN with fewer than 4 output rows cannot repay
//! any packing and run the portable kernels in [`crate::gemm`]. All three
//! choices read the shape of the whole product only (`is_skinny`).
//!
//! Safety discipline: every `unsafe` block in this module carries a SAFETY
//! comment, and every function that touches an intrinsic is annotated
//! `#[target_feature(enable = "avx2,fma")]` — `cargo xtask lint` enforces
//! both rules.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel family [`active_level`] resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernels (the reference semantics).
    Scalar,
    /// AVX2 + FMA microkernels in this module.
    Avx2,
}

const UNRESOLVED: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;

// Ordering discipline for this file: `GLOBAL_LEVEL` is a write-once memo of
// a pure function of the host CPU and the `HETERO_SIMD` variable. Racing
// initializers compute identical values, and no other memory depends on the
// store, so every access can be `Relaxed` — atomicity alone is enough.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(UNRESOLVED);

thread_local! {
    /// Thread-scoped override installed by [`with_level`]; `UNRESOLVED`
    /// means "defer to the global memo".
    static THREAD_OVERRIDE: Cell<u8> = const { Cell::new(UNRESOLVED) };
}

/// True when the running CPU supports the AVX2+FMA kernels.
pub fn host_supports_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn clamp_to_host(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Avx2 if host_supports_avx2() => LEVEL_AVX2,
        _ => LEVEL_SCALAR,
    }
}

#[cold]
fn resolve_global() -> u8 {
    let requested = match std::env::var("HETERO_SIMD").as_deref() {
        Ok("0") | Ok("off") | Ok("scalar") => SimdLevel::Scalar,
        _ => SimdLevel::Avx2, // auto and explicit "on" both clamp to the host
    };
    let level = clamp_to_host(requested);
    // Relaxed store: see the ordering note at the top of the file.
    GLOBAL_LEVEL.store(level, Ordering::Relaxed);
    level
}

/// The kernel family the current thread should run.
///
/// Checks the thread-scoped [`with_level`] override first, then the cached
/// process-wide resolution (CPU detection + `HETERO_SIMD`).
#[inline]
pub fn active_level() -> SimdLevel {
    let t = THREAD_OVERRIDE.with(Cell::get);
    let raw = if t != UNRESOLVED {
        t
    } else {
        // Relaxed load: see the ordering note at the top of the file.
        match GLOBAL_LEVEL.load(Ordering::Relaxed) {
            UNRESOLVED => resolve_global(),
            resolved => resolved,
        }
    };
    if raw == LEVEL_AVX2 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Run `f` with the dispatch level forced for the current thread.
///
/// Requests for [`SimdLevel::Avx2`] are clamped to what the host supports,
/// so the closure can never execute instructions the CPU lacks. The
/// override does not propagate to threads spawned inside `f` (rayon tasks
/// fall back to the global resolution); use `HETERO_SIMD` to force a whole
/// process.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(Cell::get);
    let _restore = Restore(prev);
    THREAD_OVERRIDE.with(|c| c.set(clamp_to_host(level)));
    f()
}

// ---------------------------------------------------------------------------
// Safe crate-internal entry points. `gemm`/`ops` call these only after
// `active_level()` returned `Avx2`, which implies the CPUID check passed.
// ---------------------------------------------------------------------------

macro_rules! avx2_entry {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($($arg: $ty),*) {
            // SAFETY: callers dispatch here only when `active_level()`
            // returned `Avx2`, which requires `is_x86_feature_detected!`
            // to have confirmed both AVX2 and FMA on this CPU.
            unsafe { imp::$name($($arg),*) }
        }
        $(#[$doc])*
        #[cfg(not(target_arch = "x86_64"))]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($(_: $ty),*) {
            unreachable!("AVX2 kernels are never dispatched off x86-64")
        }
    };
}

/// One GEMM operand as the packers read it. `x` is the operand's C-side
/// index (a row of C for A, a column of C for B) and `p` the reduction
/// index; element `(x, p)` lives at `data[x·ld + p]` when `k_contig`
/// (row-major `A` of NN/NT, the `n×k` `B` of NT) and at `data[p·ld + x]`
/// otherwise (the `k×m` `A` of TN, the `k×n` `B` of NN/TN).
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) ld: usize,
    pub(crate) k_contig: bool,
}

/// Per-thread packed-panel storage for [`gemm_packed`]; grows to the
/// blocking constants' working set on first use and is reused afterwards.
pub(crate) struct PackBufs {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl PackBufs {
    pub(crate) const fn new() -> Self {
        Self {
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

/// Rows of the register tile (and of a packed A panel). The `par_gemm_*`
/// wrappers align their per-thread row ranges to it.
pub(crate) const MR: usize = 6;

/// NT keeps the dot-product body below three row tiles (measured crossover).
const NT_DOT_MAX_ROWS: usize = 3 * MR;
/// NN / TN run the portable row-axpy kernels below 4 rows (measured).
const SCALAR_MAX_ROWS: usize = 4;

/// Shapes the packed path does not take, decided from the whole product's
/// shape alone. Packing costs `O(mk + kn)` against `O(mnk)` of compute, so it
/// cannot pay for itself when C has very few rows: NT then keeps the
/// dot-product body (also when the output is narrower than one vector and a
/// 16-wide tile would be mostly padding), NN and TN fall back to the portable
/// kernels. Crossover tables: DESIGN.md §4f.
pub(crate) fn is_skinny(nt: bool, m: usize, n: usize) -> bool {
    if nt {
        m < NT_DOT_MAX_ROWS || n < 8
    } else {
        m < SCALAR_MAX_ROWS
    }
}

avx2_entry!(
    /// `C[m×n] ← α·op(A)·op(B) + β·C`, or `+ bias` per row when `bias` is
    /// non-empty (then β is ignored): the packed 6×16 path behind every
    /// dense GEMM. `a`'s C-side index starts at `i0` (a row range of a
    /// larger product); `c` holds exactly the `m` output rows.
    gemm_packed(
        alpha: f32,
        a: Operand<'_>,
        i0: usize,
        b: Operand<'_>,
        beta: f32,
        bias: &[f32],
        m: usize,
        n: usize,
        k: usize,
        c: &mut [f32],
        bufs: &mut PackBufs,
    )
);
avx2_entry!(
    /// Skinny-shape NT: `C[rows×n] ← α·A[rows×k]·B[n×k]ᵀ + β·C` (or
    /// `+ bias` when `bias` is non-empty) by row-against-row dot products,
    /// no packing.
    gemm_nt_dot(
        alpha: f32,
        a_rows: &[f32],
        b: &[f32],
        beta: f32,
        bias: &[f32],
        n: usize,
        k: usize,
        c_rows: &mut [f32],
    )
);
avx2_entry!(
    /// `y += α·x` (mul+add, bit-identical to the scalar loop).
    axpy(alpha: f32, x: &[f32], y: &mut [f32])
);
avx2_entry!(
    /// `y = α·x + β·y` (bit-identical to the scalar loop).
    axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32])
);
avx2_entry!(
    /// `x *= α`.
    scale(alpha: f32, x: &mut [f32])
);
avx2_entry!(
    /// `a *= b` element-wise.
    hadamard_assign(a: &mut [f32], b: &[f32])
);
avx2_entry!(
    /// `out = a ⊙ b` element-wise.
    hadamard(a: &[f32], b: &[f32], out: &mut [f32])
);
avx2_entry!(
    /// Add `row` to every `cols`-wide row of `m`.
    add_row_broadcast(m: &mut [f32], cols: usize, row: &[f32])
);
avx2_entry!(
    /// Accumulate every `cols`-wide row of `m` into `out` (adds in row
    /// order, bit-identical to the scalar column sum).
    col_sum_into(m: &[f32], cols: usize, out: &mut [f32])
);
avx2_entry!(
    /// In-place logistic sigmoid via the polynomial `exp` (≈1e-7 relative
    /// accuracy; *not* bit-identical to the scalar libm path).
    sigmoid(xs: &mut [f32])
);
avx2_entry!(
    /// In-place tanh via the polynomial `exp` (≈1e-6 absolute accuracy).
    tanh(xs: &mut [f32])
);
avx2_entry!(
    /// In-place ReLU: `x = max(x, 0)`.
    relu(xs: &mut [f32])
);
avx2_entry!(
    /// `delta *= a·(1−a)` — sigmoid derivative from the stored output.
    mul_sigmoid_deriv(out: &[f32], delta: &mut [f32])
);
avx2_entry!(
    /// `delta *= 1−a²` — tanh derivative from the stored output.
    mul_tanh_deriv(out: &[f32], delta: &mut [f32])
);
avx2_entry!(
    /// `delta` zeroed wherever `a ≤ 0` — ReLU derivative.
    mul_relu_deriv(out: &[f32], delta: &mut [f32])
);
avx2_entry!(
    /// Health-scan reduction: adds `Σ x²` (finite lanes only, f64
    /// accumulators, lane-parallel order — *not* bit-identical to the
    /// sequential scalar sum) into `sumsq` and the number of NaN/±Inf
    /// lanes into `nonfinite`. Read-only over `x`: safe to run on racy
    /// shared buffers without perturbing training math.
    sumsq_nonfinite(x: &[f32], sumsq: &mut f64, nonfinite: &mut u64)
);
avx2_entry!(
    /// Sparse first-layer forward: for each CSR row `r`,
    /// `z[r,:] = bias + Σ v·wt[c,:]` over the row's stored `(c,v)` entries,
    /// with `wt` the `cols×out` weights (layer 0's storage) so every gather
    /// is a contiguous row. Empty `bias` means all-zero. Mul+add in scalar
    /// element order — bit-identical to the portable loop.
    spmm_csr(
        indptr: &[usize],
        indices: &[u32],
        values: &[f32],
        wt: &[f32],
        bias: &[f32],
        out: usize,
        z: &mut [f32],
    )
);
avx2_entry!(
    /// Sparse first-layer weight gradient: for each stored `(r,c,v)`,
    /// `grad[c,:] += v·delta[r,:]` — a contiguous-row scatter into the
    /// `cols×out` gradient (layer 0's storage). The caller pre-zeroes the
    /// rows of `grad` whose columns appear in the batch. Mul+add in scalar
    /// element order — bit-identical to the portable loop.
    spmm_tn_csr(
        indptr: &[usize],
        indices: &[u32],
        values: &[f32],
        delta: &[f32],
        out: usize,
        grad: &mut [f32],
    )
);

#[cfg(target_arch = "x86_64")]
mod imp {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::{Operand, PackBufs, MR};

    /// Columns of the register tile: two ymm vectors.
    const NR: usize = 16;
    /// Reduction-block depth. One `KC×NR` B panel (24 KiB) plus two `KC×MR`
    /// A panels (9 KiB each, the one in use and the one streaming in) fit a
    /// 48 KiB L1d, and the benchmark networks' widest layer (k = 300) is a
    /// single block, so C is stored once and never re-read.
    const KC: usize = 384;
    /// Rows of A packed per block: 16 panels, `MC·KC` floats = 144 KiB of L2.
    const MC: usize = 96;
    /// Columns of B packed per block: 32 panels — the paper's 512-wide
    /// layers in one block; `KC·NC` floats = 768 KiB at most (the buffers
    /// grow only to what a call needs: 230 KiB for 300×192).
    const NC: usize = 512;

    // --- tiny helpers ------------------------------------------------------

    /// Unaligned 8-lane load from `s[off..off+8]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn load8(s: &[f32], off: usize) -> __m256 {
        debug_assert!(off + 8 <= s.len());
        // SAFETY: every caller advances `off` in steps of 8 while
        // `off + 8 <= s.len()` (debug-asserted); `loadu` needs no alignment.
        unsafe { _mm256_loadu_ps(s.as_ptr().add(off)) }
    }

    /// Unaligned 8-lane store to `s[off..off+8]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn store8(s: &mut [f32], off: usize, v: __m256) {
        debug_assert!(off + 8 <= s.len());
        // SAFETY: same bounds discipline as `load8`.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(off), v) }
    }

    /// Mask with the first `lanes` (saturating at 8) of 8 lanes enabled.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn lane_mask(lanes: usize) -> __m256i {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes.min(8) as i32), idx)
    }

    /// Horizontal sum of all 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn hsum(v: __m256) -> f32 {
        let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    // --- skinny NT: row-against-row dot products, no packing ----------------

    /// `R×C` block of full-length dot products `a[r]·b[c]`: `R·C` 8-lane
    /// accumulators, the `k % 8` tail folded in by one masked load, one
    /// horizontal reduction per output. Every output's value depends only
    /// on its own two rows, never on `R`, `C` or its place in the block.
    ///
    /// (Index loops, not iterator adaptors: a closure handed to a generic
    /// std function is compiled without this function's target features
    /// and cannot be inlined back.)
    #[target_feature(enable = "avx2,fma")]
    fn dot_block<const R: usize, const C: usize>(
        a: [&[f32]; R],
        b: [&[f32]; C],
        k: usize,
    ) -> [[f32; C]; R] {
        for row in a.iter().chain(&b) {
            assert_eq!(row.len(), k);
        }
        let k8 = k & !7;
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let mut fma = |va: [__m256; R], vb: [__m256; C]| {
            for r in 0..R {
                for c in 0..C {
                    acc[r][c] = _mm256_fmadd_ps(va[r], vb[c], acc[r][c]);
                }
            }
        };
        let (mut va, mut vb) = ([_mm256_setzero_ps(); R], [_mm256_setzero_ps(); C]);
        let mut p = 0;
        while p < k8 {
            for r in 0..R {
                va[r] = load8(a[r], p);
            }
            for c in 0..C {
                vb[c] = load8(b[c], p);
            }
            fma(va, vb);
            p += 8;
        }
        if k8 < k {
            let tail = lane_mask(k - k8);
            // SAFETY: the mask enables exactly the `k - k8` lanes that lie
            // inside the row (length `k`, asserted above); `maskload`
            // neither reads nor faults on disabled lanes.
            let ld = |row: &[f32]| unsafe { _mm256_maskload_ps(row.as_ptr().add(k8), tail) };
            for r in 0..R {
                va[r] = ld(a[r]);
            }
            for c in 0..C {
                vb[c] = ld(b[c]);
            }
            fma(va, vb);
        }
        let mut out = [[0.0; C]; R];
        for r in 0..R {
            for c in 0..C {
                out[r][c] = hsum(acc[r][c]);
            }
        }
        out
    }

    /// `R` rows of C against every row of `b`, `C` columns at a time.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    fn nt_dot_rows<const R: usize, const C: usize>(
        alpha: f32,
        a: [&[f32]; R],
        b: &[f32],
        beta: f32,
        bias: &[f32],
        n: usize,
        k: usize,
        c_rows: &mut [f32],
    ) {
        let put = |c: &mut f32, j: usize, dot: f32| {
            let v = alpha * dot;
            *c = if !bias.is_empty() {
                v + bias[j]
            } else if beta == 0.0 {
                v // never reads C: β = 0 overwrites NaN like BLAS
            } else {
                v + beta * *c
            };
        };
        let mut j = 0;
        while j + C <= n {
            let mut b_rows = [&b[..0]; C];
            for q in 0..C {
                b_rows[q] = &b[(j + q) * k..][..k];
            }
            let d = dot_block(a, b_rows, k);
            for r in 0..R {
                for q in 0..C {
                    put(&mut c_rows[r * n + j + q], j + q, d[r][q]);
                }
            }
            j += C;
        }
        while j < n {
            let d = dot_block(a, [&b[j * k..][..k]], k);
            for r in 0..R {
                put(&mut c_rows[r * n + j], j, d[r][0]);
            }
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_nt_dot(
        alpha: f32,
        a_rows: &[f32],
        b: &[f32],
        beta: f32,
        bias: &[f32],
        n: usize,
        k: usize,
        c_rows: &mut [f32],
    ) {
        let row = |i: usize| &a_rows[i * k..][..k];
        let mut c_iter = c_rows.chunks_exact_mut(4 * n);
        let mut i = 0;
        // 4×2 blocks (8 accumulators), then single rows 1×4.
        for c4 in &mut c_iter {
            let a4 = [row(i), row(i + 1), row(i + 2), row(i + 3)];
            nt_dot_rows::<4, 2>(alpha, a4, b, beta, bias, n, k, c4);
            i += 4;
        }
        for c1 in c_iter.into_remainder().chunks_exact_mut(n) {
            nt_dot_rows::<1, 4>(alpha, [row(i)], b, beta, bias, n, k, c1);
            i += 1;
        }
    }

    // --- packed GEMM: four packers, one 6×16 microkernel --------------------

    /// In-register transpose of an 8×8 block of floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn transpose8(v: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// Pack the `xlen × kc` block of `op` starting at `(x0, p0)` into
    /// `W`-wide panels: panel `q` holds `dst[q·kc·W + p·W + c] =
    /// op(x0 + q·W + c, p0 + p)`, zero where `x` runs past the block, so
    /// the microkernel never sees an edge. `W = MR` packs A, `W = NR` packs
    /// B; `k_contig` picks the transposing or the straight copy — these four
    /// instantiations are the only place NN, NT and TN differ.
    #[target_feature(enable = "avx2,fma")]
    fn pack<const W: usize>(
        op: Operand<'_>,
        x0: usize,
        xlen: usize,
        p0: usize,
        kc: usize,
        dst: &mut Vec<f32>,
    ) {
        let need = xlen.div_ceil(W) * W * kc;
        if dst.len() < need {
            dst.resize(need, 0.0);
        }
        for (q, panel) in dst[..need].chunks_exact_mut(kc * W).enumerate() {
            let x = x0 + q * W;
            let w = W.min(x0 + xlen - x);
            if op.k_contig {
                pack_transposed::<W>(op, x, w, p0, kc, panel);
            } else {
                for (p, out) in panel.chunks_exact_mut(W).enumerate() {
                    let src = &op.data[(p0 + p) * op.ld + x..][..w];
                    if w == W {
                        out.copy_from_slice(src); // constant length: two moves
                    } else {
                        out[..w].copy_from_slice(src);
                        out[w..].fill(0.0);
                    }
                }
            }
        }
    }

    /// The transposing half of [`pack`]: rows `x..x+w` of a `k_contig`
    /// operand (they run along p) become the columns of one `kc×W` panel,
    /// 8 rows × 8 k-steps at a time through [`transpose8`]. Rows `w..W`
    /// read as zero.
    #[target_feature(enable = "avx2,fma")]
    fn pack_transposed<const W: usize>(
        op: Operand<'_>,
        x: usize,
        w: usize,
        p0: usize,
        kc: usize,
        panel: &mut [f32],
    ) {
        for g in (0..W).step_by(8) {
            let lanes_out = 8.min(W - g); // panel columns g..g+lanes_out
            let keep = lane_mask(lanes_out);
            let rows = w.saturating_sub(g).min(8);
            let mut src = [&op.data[..0]; 8];
            for (r, row) in src.iter_mut().enumerate().take(rows) {
                *row = &op.data[(x + g + r) * op.ld + p0..][..kc];
            }
            let mut p = 0;
            while p < kc {
                let steps = 8.min(kc - p);
                let take = lane_mask(steps);
                let mut v = [_mm256_setzero_ps(); 8];
                for r in 0..8 {
                    if r < rows {
                        // SAFETY: `src[r]` has length `kc` and the mask
                        // enables `steps ≤ kc - p` lanes from offset `p`;
                        // `maskload` does not touch disabled lanes.
                        v[r] = unsafe { _mm256_maskload_ps(src[r].as_ptr().add(p), take) };
                    }
                }
                let t = transpose8(v);
                for i in 0..8 {
                    if i < steps {
                        let line = &mut panel[(p + i) * W + g..][..lanes_out];
                        // SAFETY: `line` holds exactly the `lanes_out` lanes
                        // the mask enables; disabled lanes are not written.
                        unsafe { _mm256_maskstore_ps(line.as_mut_ptr(), keep, t[i]) };
                    }
                }
                p += 8;
            }
        }
    }

    /// The one dense-GEMM inner loop: a 6×16 tile of `Σ_p A[i,p]·B[p,j]`
    /// over one packed A panel and one packed B panel — 12 accumulators,
    /// 2 B vectors and 1 broadcast fill 15 of the 16 ymm registers. Then
    /// `C ← α·acc + β·add` on the tile's valid `mr×nr` corner; a null `add`
    /// stores `α·acc` without reading anything.
    ///
    /// # Safety
    /// `ap` / `bp` must be readable for `kc·MR` / `kc·NR` floats. `c` must
    /// be writable for `nr` floats at each of `mr` rows `ldc` apart, and
    /// `add`, when non-null, readable for `nr` floats at each of `mr` rows
    /// `add_ld` apart (it may alias `c`). `mr ≤ MR` and `nr ≤ NR`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: contract above; the body reads `kc` whole lines of each panel
    // and touches C / `add` only through masks enabling `nr` lanes of the
    // first `mr` rows.
    unsafe fn tile_6x16(
        kc: usize,
        mut ap: *const f32,
        mut bp: *const f32,
        alpha: f32,
        beta: f32,
        add: *const f32,
        add_ld: usize,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(r));
                acc_r[0] = _mm256_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(a, b1, acc_r[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        // Column edges are masked, not looped over; a disabled lane is
        // neither read nor written, so the high half's address may lie past
        // the row (hence `wrapping_add`).
        let (lo, hi) = (lane_mask(nr), lane_mask(nr.saturating_sub(8)));
        let (alpha, beta) = (_mm256_set1_ps(alpha), _mm256_set1_ps(beta));
        for (r, acc_r) in acc.iter().enumerate() {
            if r >= mr {
                break;
            }
            let mut v0 = _mm256_mul_ps(acc_r[0], alpha);
            let mut v1 = _mm256_mul_ps(acc_r[1], alpha);
            if !add.is_null() {
                let src = add.wrapping_add(r * add_ld);
                v0 = _mm256_fmadd_ps(_mm256_maskload_ps(src, lo), beta, v0);
                v1 = _mm256_fmadd_ps(_mm256_maskload_ps(src.wrapping_add(8), hi), beta, v1);
            }
            let dst = c.wrapping_add(r * ldc);
            _mm256_maskstore_ps(dst, lo, v0);
            _mm256_maskstore_ps(dst.wrapping_add(8), hi, v1);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_packed(
        alpha: f32,
        a: Operand<'_>,
        i0: usize,
        b: Operand<'_>,
        beta: f32,
        bias: &[f32],
        m: usize,
        n: usize,
        k: usize,
        c: &mut [f32],
        bufs: &mut PackBufs,
    ) {
        assert_eq!(c.len(), m * n, "gemm_packed: C length");
        assert!(
            bias.is_empty() || bias.len() == n,
            "gemm_packed: bias length"
        );
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack::<NR>(b, jc, nc, pc, kc, &mut bufs.b);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack::<MR>(a, i0 + ic, mc, pc, kc, &mut bufs.a);
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let bp = bufs.b[jr * kc..][..kc * NR].as_ptr();
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let ap = bufs.a[ir * kc..][..kc * MR].as_ptr();
                            let (row, col) = (ic + ir, jc + jr);
                            let tile = &mut c[row * n + col..(row + mr - 1) * n + col + nr];
                            let cp = tile.as_mut_ptr();
                            // First k-block: β·C, the bias row, or nothing;
                            // later blocks accumulate onto what it stored.
                            let (add, add_ld, beta) = if pc > 0 {
                                (cp.cast_const(), n, 1.0)
                            } else if !bias.is_empty() {
                                (bias[col..col + nr].as_ptr(), 0, 1.0)
                            } else if beta != 0.0 {
                                (cp.cast_const(), n, beta)
                            } else {
                                (std::ptr::null(), 0, 0.0)
                            };
                            // SAFETY: `ap` / `bp` were just sliced to one
                            // whole `kc·MR` / `kc·NR` panel; `tile` spans
                            // rows `row..row+mr` × columns `col..col+nr` of
                            // C (bounds-checked above), which is what the
                            // kernel writes and, through `add = cp`, reads;
                            // the bias slice holds `nr` floats and is re-read
                            // for every row (`add_ld = 0`); `mr ≤ MR` and
                            // `nr ≤ NR` by the `min`s.
                            unsafe {
                                tile_6x16(kc, ap, bp, alpha, beta, add, add_ld, cp, n, mr, nr);
                            }
                        }
                    }
                }
            }
        }
    }

    // --- element-wise kernels ----------------------------------------------
    //
    // The linear kernels use separate mul/add (never FMA) and walk elements
    // in the same order as the scalar loops, so their results are
    // bit-identical to the portable path. Only sigmoid/tanh (polynomial
    // exp) differ, within ~1e-6.

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn spmm_csr(
        indptr: &[usize],
        indices: &[u32],
        values: &[f32],
        wt: &[f32],
        bias: &[f32],
        out: usize,
        z: &mut [f32],
    ) {
        let rows = indptr.len().saturating_sub(1);
        let n8 = out & !7;
        for r in 0..rows {
            let zr = &mut z[r * out..(r + 1) * out];
            if bias.is_empty() {
                zr.fill(0.0);
            } else {
                zr.copy_from_slice(bias);
            }
            for p in indptr[r]..indptr[r + 1] {
                let c = indices[p] as usize;
                let v = values[p];
                let vv = _mm256_set1_ps(v);
                let wr = &wt[c * out..(c + 1) * out];
                let mut q = 0;
                while q < n8 {
                    let acc = _mm256_add_ps(load8(zr, q), _mm256_mul_ps(vv, load8(wr, q)));
                    store8(zr, q, acc);
                    q += 8;
                }
                for q in n8..out {
                    zr[q] += v * wr[q];
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn spmm_tn_csr(
        indptr: &[usize],
        indices: &[u32],
        values: &[f32],
        delta: &[f32],
        out: usize,
        grad: &mut [f32],
    ) {
        let rows = indptr.len().saturating_sub(1);
        let n8 = out & !7;
        for r in 0..rows {
            let d = &delta[r * out..(r + 1) * out];
            for p in indptr[r]..indptr[r + 1] {
                let c = indices[p] as usize;
                let v = values[p];
                let vv = _mm256_set1_ps(v);
                let g = &mut grad[c * out..(c + 1) * out];
                let mut q = 0;
                while q < n8 {
                    let acc = _mm256_add_ps(load8(g, q), _mm256_mul_ps(vv, load8(d, q)));
                    store8(g, q, acc);
                    q += 8;
                }
                for q in n8..out {
                    g[q] += v * d[q];
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let n8 = n & !7;
        let va = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < n8 {
            let v = _mm256_add_ps(load8(y, p), _mm256_mul_ps(va, load8(x, p)));
            store8(y, p, v);
            p += 8;
        }
        for p in n8..n {
            y[p] += alpha * x[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        let n = x.len();
        let n8 = n & !7;
        let va = _mm256_set1_ps(alpha);
        let vb = _mm256_set1_ps(beta);
        let mut p = 0;
        while p < n8 {
            let v = _mm256_add_ps(
                _mm256_mul_ps(va, load8(x, p)),
                _mm256_mul_ps(vb, load8(y, p)),
            );
            store8(y, p, v);
            p += 8;
        }
        for p in n8..n {
            y[p] = alpha * x[p] + beta * y[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn scale(alpha: f32, x: &mut [f32]) {
        let n = x.len();
        let n8 = n & !7;
        let va = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < n8 {
            store8(x, p, _mm256_mul_ps(va, load8(x, p)));
            p += 8;
        }
        for v in &mut x[n8..] {
            *v *= alpha;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn hadamard_assign(a: &mut [f32], b: &[f32]) {
        let n = a.len();
        let n8 = n & !7;
        let mut p = 0;
        while p < n8 {
            store8(a, p, _mm256_mul_ps(load8(a, p), load8(b, p)));
            p += 8;
        }
        for p in n8..n {
            a[p] *= b[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn hadamard(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = a.len();
        let n8 = n & !7;
        let mut p = 0;
        while p < n8 {
            store8(out, p, _mm256_mul_ps(load8(a, p), load8(b, p)));
            p += 8;
        }
        for p in n8..n {
            out[p] = a[p] * b[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn add_row_broadcast(m: &mut [f32], cols: usize, row: &[f32]) {
        let n8 = cols & !7;
        for r in m.chunks_exact_mut(cols) {
            let mut p = 0;
            while p < n8 {
                store8(r, p, _mm256_add_ps(load8(r, p), load8(row, p)));
                p += 8;
            }
            for p in n8..cols {
                r[p] += row[p];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn col_sum_into(m: &[f32], cols: usize, out: &mut [f32]) {
        out.fill(0.0);
        if cols == 0 {
            return;
        }
        let n8 = cols & !7;
        for r in m.chunks_exact(cols) {
            let mut p = 0;
            while p < n8 {
                store8(out, p, _mm256_add_ps(load8(out, p), load8(r, p)));
                p += 8;
            }
            for p in n8..cols {
                out[p] += r[p];
            }
        }
    }

    /// Cephes-style polynomial `e^x` over the clamped f32 range
    /// (`x ∈ [-87.34, 88.38]`, degree-5 minimax in the reduced argument).
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_set1_ps(88.376_26), x);
        let x = _mm256_max_ps(_mm256_set1_ps(-87.336_54), x);
        // n = round(x / ln 2); r = x − n·ln2 using a two-part ln2.
        let fx = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), r);
        let r2 = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.666_666_5e-1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.000_000_3e-1));
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // Scale by 2^n through the exponent field.
        let n = _mm256_cvtps_epi32(fx);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(0x7f),
        )));
        _mm256_mul_ps(y, pow2)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sigmoid(xs: &mut [f32]) {
        let n = xs.len();
        let n8 = n & !7;
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < n8 {
            let x = load8(xs, p);
            // e = exp(−|x|) ∈ (0, 1]: never overflows, mirroring the
            // branch-free stable scalar form.
            let e = exp8(_mm256_or_ps(_mm256_andnot_ps(sign, x), sign));
            let denom = _mm256_add_ps(one, e);
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
            let num = _mm256_blendv_ps(e, one, ge);
            store8(xs, p, _mm256_div_ps(num, denom));
            p += 8;
        }
        for v in &mut xs[n8..] {
            let x = *v;
            *v = if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            };
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tanh(xs: &mut [f32]) {
        let n = xs.len();
        let n8 = n & !7;
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let mut p = 0;
        while p < n8 {
            let x = load8(xs, p);
            let xsign = _mm256_and_ps(sign, x);
            let ax = _mm256_andnot_ps(sign, x);
            // tanh(x) = sign(x) · (1 − e) / (1 + e) with e = exp(−2|x|).
            let e = exp8(_mm256_or_ps(_mm256_mul_ps(two, ax), sign));
            let t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
            store8(xs, p, _mm256_or_ps(t, xsign));
            p += 8;
        }
        for v in &mut xs[n8..] {
            *v = v.tanh();
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn relu(xs: &mut [f32]) {
        let n = xs.len();
        let n8 = n & !7;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < n8 {
            store8(xs, p, _mm256_max_ps(load8(xs, p), zero));
            p += 8;
        }
        for v in &mut xs[n8..] {
            *v = v.max(0.0);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn mul_sigmoid_deriv(out: &[f32], delta: &mut [f32]) {
        let n = out.len();
        let n8 = n & !7;
        let one = _mm256_set1_ps(1.0);
        let mut p = 0;
        while p < n8 {
            let a = load8(out, p);
            let d = _mm256_mul_ps(load8(delta, p), _mm256_mul_ps(a, _mm256_sub_ps(one, a)));
            store8(delta, p, d);
            p += 8;
        }
        for p in n8..n {
            delta[p] *= out[p] * (1.0 - out[p]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn mul_tanh_deriv(out: &[f32], delta: &mut [f32]) {
        let n = out.len();
        let n8 = n & !7;
        let one = _mm256_set1_ps(1.0);
        let mut p = 0;
        while p < n8 {
            let a = load8(out, p);
            let d = _mm256_mul_ps(load8(delta, p), _mm256_sub_ps(one, _mm256_mul_ps(a, a)));
            store8(delta, p, d);
            p += 8;
        }
        for p in n8..n {
            delta[p] *= 1.0 - out[p] * out[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn mul_relu_deriv(out: &[f32], delta: &mut [f32]) {
        let n = out.len();
        let n8 = n & !7;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < n8 {
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(load8(out, p), zero);
            store8(delta, p, _mm256_and_ps(load8(delta, p), mask));
            p += 8;
        }
        for p in n8..n {
            if out[p] <= 0.0 {
                delta[p] = 0.0;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sumsq_nonfinite(x: &[f32], sumsq: &mut f64, nonfinite: &mut u64) {
        let n = x.len();
        let n8 = n & !7;
        // A float is non-finite iff its exponent field is all ones.
        let exp_mask = _mm256_set1_epi32(0x7f80_0000_u32 as i32);
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut bad = 0u64;
        let mut p = 0;
        while p < n8 {
            let v = load8(x, p);
            let exp = _mm256_and_si256(_mm256_castps_si256(v), exp_mask);
            let is_bad = _mm256_castsi256_ps(_mm256_cmpeq_epi32(exp, exp_mask));
            bad += _mm256_movemask_ps(is_bad).count_ones() as u64;
            // Zero the non-finite lanes so the norm reflects the finite part
            // (and never collapses to NaN when a single lane is poisoned).
            let v = _mm256_andnot_ps(is_bad, v);
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
            acc_lo = _mm256_fmadd_pd(lo, lo, acc_lo);
            acc_hi = _mm256_fmadd_pd(hi, hi, acc_hi);
            p += 8;
        }
        let acc = _mm256_add_pd(acc_lo, acc_hi);
        let q = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
        let mut total = _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
        for &v in &x[n8..] {
            if v.is_finite() {
                total += v as f64 * v as f64;
            } else {
                bad += 1;
            }
        }
        *sumsq += total;
        *nonfinite += bad;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_level_scopes_and_restores() {
        let outer = active_level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(active_level(), SimdLevel::Scalar);
            with_level(SimdLevel::Avx2, || {
                // Clamped to the host; never panics either way.
                let l = active_level();
                assert_eq!(
                    l,
                    if host_supports_avx2() {
                        SimdLevel::Avx2
                    } else {
                        SimdLevel::Scalar
                    }
                );
            });
            assert_eq!(active_level(), SimdLevel::Scalar);
        });
        assert_eq!(active_level(), outer);
    }

    #[test]
    fn avx2_requests_clamp_to_host() {
        with_level(SimdLevel::Avx2, || {
            if !host_supports_avx2() {
                assert_eq!(active_level(), SimdLevel::Scalar);
            }
        });
    }
}
