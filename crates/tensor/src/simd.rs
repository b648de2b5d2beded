//! Runtime-dispatched SIMD kernels (AVX2 + FMA, AVX-512F) with scalar
//! fallbacks.
//!
//! The GEMM and element-wise hot loops in [`crate::gemm`], [`crate::ops`]
//! and [`crate::sparse`] dispatch through [`active_level`]: on an x86-64
//! host where `is_x86_feature_detected!` confirms AVX2 and FMA they run the
//! explicit 8-lane (`f32x8`) kernels in this module, and where it also
//! confirms AVX-512F the GEMM microkernel and the two CSR kernels run
//! 16-lane (`f32x16`) bodies instead; everywhere else they run the portable
//! scalar kernels that live next to the call sites.
//!
//! | level | chosen when | kernels |
//! |---|---|---|
//! | [`SimdLevel::Scalar`] | no AVX2+FMA, or `HETERO_SIMD=0` | the portable loops (the reference semantics) |
//! | [`SimdLevel::Avx2`] | AVX2+FMA but no AVX-512F, or `HETERO_SIMD=avx2` | every ymm kernel below |
//! | [`SimdLevel::Avx512`] | AVX-512F (auto) | zmm `tile_12x32`, `spmm_csr`, `spmm_tn_csr`; the ymm kernels for the rest |
//!
//! Dispatch is resolved once per process (a relaxed atomic memo) from CPU
//! detection plus the `HETERO_SIMD` environment variable:
//!
//! | `HETERO_SIMD` | effect |
//! |---|---|
//! | `0` / `off` / `scalar` | force the portable scalar path |
//! | `avx2` | cap the process at AVX2 (clamped to what the CPU supports) |
//! | `avx512` | request AVX-512 (clamped to what the CPU supports) |
//! | unset / `1` / `on` / anything else | auto: the highest level the CPU supports |
//!
//! Tests and benches that need several levels in one process use
//! [`with_level`], a thread-scoped override (the global memo is shared
//! state; a scoped override keeps concurrently-running tests independent),
//! and [`host_levels`] to walk every level the host has.
//!
//! **The zmm bodies store the ymm bodies' bits.** Which level runs changes
//! hardware efficiency only, never a loss curve:
//!
//! | kernel | zmm body | why the bits are the AVX2 body's |
//! |---|---|---|
//! | packed GEMM tile | `tile_12x32` over 12-row A and 32-column B panels | each C element is the same FMA chain over k within the same `KC` blocks, then `×α` and `+β·C` (or `+ bias`) |
//! | `spmm_csr`, `spmm_tn_csr` | 16 lanes, masked tail | mul + add per element in the scalar loop's order (also the scalar bits) |
//! | `dot_block`, `sumsq_nonfinite` | none | reductions: their bits depend on the lane count |
//! | element-wise kernels, `keep_mask` | none | memory-bound; the ymm body runs at both levels |
//! | `normal_pairs` | none | drawn once per run: a 16-pair body saved ~1.3 ms of a ~35 ms real-sim run, inside the run-to-run spread |
//!
//! Dense GEMM has exactly two AVX2 inner loops and one AVX-512 one:
//!
//! | loop | shape | registers | used for |
//! |---|---|---|---|
//! | `tile_6x16` | 6×16 tile of C over one packed `kc×6` A panel and one packed `kc×16` B panel | 12 accumulators + 2 B vectors + 1 broadcast of 16 ymm | every NN / TN / NT product that is not skinny (AVX2) |
//! | `tile_12x32` | 12×32 tile of C over one packed `kc×12` A panel and one packed `kc×32` B panel | 24 accumulators + 2 B vectors + 1 broadcast of 32 zmm | the same products at the AVX-512 level |
//! | `dot_block` | 4×2 (or 1×4) full-length row·row dots, tail by masked load | 8 (4) accumulators | NT with fewer than 18 rows or fewer than 8 output columns (both levels) |
//!
//! The packed path is BLIS-shaped: B is packed `KC×NC` at a time into
//! 16-column panels, A `MC×KC` at a time into 6-row panels (32 and 12 at
//! AVX-512), both zero-padded to whole panels, so the microkernel has no
//! edge cases — row edges are not stored, column edges are masked stores.
//! NN, TN and NT differ only in which of the packers (`pack::<W>`, straight
//! or 8×8-transposing) feeds each operand. β·C or the fused bias row is added
//! when the first k-block is stored (β = 0 stores without reading C); later
//! k-blocks accumulate. NN / TN with fewer than 4 output rows cannot repay
//! any packing and run the portable kernels in [`crate::gemm`]. All three
//! choices read the shape of the whole product only (`is_skinny`), never
//! the level.
//!
//! The element-wise kernels, and how each compares with its portable loop:
//!
//! | kernels | polynomials | against the portable loop |
//! |---|---|---|
//! | `axpy`, `axpby`, `scale`, `hadamard*`, `add_row_broadcast`, `col_sum_into`, `relu`, the three `mul_*_deriv`, `spmm_csr`, `spmm_tn_csr` | — | bit-identical |
//! | `sigmoid`, `tanh` | `exp8` (FMA) | within ~1e-6 (the loop calls libm) |
//! | `normal_pairs` (the initial-weight stream) | `ln8`, `sincos8` (mul + add, never FMA) | bit-identical |
//! | `keep_mask` (the CSR compaction) | — | bit-identical |
//! | `sumsq_nonfinite` | — | to f64 rounding (lane-parallel sum) |
//!
//! Safety discipline: every `unsafe` block in this module carries a SAFETY
//! comment, and every function that touches an intrinsic is annotated
//! `#[target_feature(enable = "avx2,fma")]` (`"avx512f,avx2,fma"` for the
//! zmm bodies) — `cargo xtask lint` enforces both rules.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel family [`active_level`] resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernels (the reference semantics).
    Scalar,
    /// AVX2 + FMA microkernels in this module.
    Avx2,
    /// AVX-512F bodies for the GEMM tile and the CSR kernels, the AVX2
    /// kernels for everything else; the same bits as [`SimdLevel::Avx2`].
    Avx512,
}

const UNRESOLVED: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;
const LEVEL_AVX512: u8 = 3;

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

/// True when the running CPU supports the AVX-512F bodies (and with them
/// the AVX2+FMA kernels the level keeps for everything else).
pub fn host_supports_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        host_supports_avx2() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The highest level at or below `level` that the host supports.
fn clamp_to_host(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Avx512 if host_supports_avx512() => LEVEL_AVX512,
        SimdLevel::Avx512 | SimdLevel::Avx2 if host_supports_avx2() => LEVEL_AVX2,
        _ => LEVEL_SCALAR,
    }
}

fn level_of(raw: u8) -> SimdLevel {
    match raw {
        LEVEL_AVX512 => SimdLevel::Avx512,
        LEVEL_AVX2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

#[cold]
fn resolve_global() -> u8 {
    let requested = match std::env::var("HETERO_SIMD").as_deref() {
        Ok("0") | Ok("off") | Ok("scalar") => SimdLevel::Scalar,
        Ok("avx2") => SimdLevel::Avx2,
        _ => SimdLevel::Avx512, // auto, "on" and "avx512" all clamp to the host
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
    level_of(raw)
}

/// Every level the host can run, lowest first: what a test that compares
/// the levels walks. Always starts with [`SimdLevel::Scalar`].
pub fn host_levels() -> impl Iterator<Item = SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| level_of(clamp_to_host(l)) == l)
}

/// Run `f` with the dispatch level forced for the current thread.
///
/// Requests are clamped to the highest level at or below them that the
/// host supports, so the closure can never execute instructions the CPU
/// lacks. The override does not propagate to threads spawned inside `f`
/// (rayon tasks fall back to the global resolution); use `HETERO_SIMD` to
/// force a whole process.
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
// Safe crate-internal entry points. `gemm`/`ops`/`sparse` call a kernel
// only after `active_level()` returned the level it is written for: `Avx2`
// or `Avx512` for the ymm kernels, `Avx512` for the `_avx512` ones.
// ---------------------------------------------------------------------------

macro_rules! simd_entry {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($($arg: $ty),*) {
            // SAFETY: callers dispatch here only when `active_level()`
            // returned the kernel's level, which requires
            // `is_x86_feature_detected!` to have confirmed every feature
            // its `#[target_feature]` enables (AVX2 and FMA; AVX-512F too
            // for an `_avx512` kernel) on this CPU.
            unsafe { imp::$name($($arg),*) }
        }
        $(#[$doc])*
        #[cfg(not(target_arch = "x86_64"))]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($(_: $ty),*) {
            unreachable!("SIMD kernels are never dispatched off x86-64")
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

/// The stored entries a CSR kernel walks: row `r`'s are `lo[r]..hi[r]` of
/// `indices` / `values`, and an entry of column `c` reads or writes row
/// `c − c0` of the dense operand — a whole CSR matrix (`lo`, `hi` its
/// offsets, `c0 = 0`), or the entries of one block of its columns
/// (`crate::sparse::CsrBlock`).
#[derive(Clone, Copy)]
pub(crate) struct CsrRows<'a> {
    pub(crate) lo: &'a [usize],
    pub(crate) hi: &'a [usize],
    pub(crate) indices: &'a [u32],
    pub(crate) values: &'a [f32],
    pub(crate) c0: usize,
}

impl CsrRows<'_> {
    /// Row `r`'s `(dense row, value)` entries.
    #[inline]
    pub(crate) fn entries_of(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (lo, hi, c0) = (self.lo[r], self.hi[r], self.c0);
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(move |(&c, &v)| (c as usize - c0, v))
    }
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

/// Rows of the AVX2 register tile (and of its packed A panels; the AVX-512
/// tile has twice as many). The `par_gemm_*` wrappers align their
/// per-thread row ranges to it.
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

simd_entry!(
    /// `C[m×n] ← α·op(A)·op(B) + β·C`, or `+ bias` per row when `bias` is
    /// non-empty (then β is ignored): the packed 6×16 path behind every
    /// dense GEMM at AVX2. `a`'s C-side index starts at `i0` (a row range of a
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
simd_entry!(
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
simd_entry!(
    /// `y += α·x` (mul+add, bit-identical to the scalar loop).
    axpy(alpha: f32, x: &[f32], y: &mut [f32])
);
simd_entry!(
    /// `y = α·x + β·y` (bit-identical to the scalar loop).
    axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32])
);
simd_entry!(
    /// `x *= α`.
    scale(alpha: f32, x: &mut [f32])
);
simd_entry!(
    /// `a *= b` element-wise.
    hadamard_assign(a: &mut [f32], b: &[f32])
);
simd_entry!(
    /// `out = a ⊙ b` element-wise.
    hadamard(a: &[f32], b: &[f32], out: &mut [f32])
);
simd_entry!(
    /// Add `row` to every `cols`-wide row of `m`.
    add_row_broadcast(m: &mut [f32], cols: usize, row: &[f32])
);
simd_entry!(
    /// Accumulate every `cols`-wide row of `m` into `out` (adds in row
    /// order, bit-identical to the scalar column sum).
    col_sum_into(m: &[f32], cols: usize, out: &mut [f32])
);
simd_entry!(
    /// In-place logistic sigmoid via the polynomial `exp` (≈1e-7 relative
    /// accuracy; *not* bit-identical to the scalar libm path).
    sigmoid(xs: &mut [f32])
);
simd_entry!(
    /// In-place tanh via the polynomial `exp` (≈1e-6 absolute accuracy).
    tanh(xs: &mut [f32])
);
simd_entry!(
    /// In-place ReLU: `x = max(x, 0)`.
    relu(xs: &mut [f32])
);
simd_entry!(
    /// `delta *= a·(1−a)` — sigmoid derivative from the stored output.
    mul_sigmoid_deriv(out: &[f32], delta: &mut [f32])
);
simd_entry!(
    /// `delta *= 1−a²` — tanh derivative from the stored output.
    mul_tanh_deriv(out: &[f32], delta: &mut [f32])
);
simd_entry!(
    /// `delta` zeroed wherever `a ≤ 0` — ReLU derivative.
    mul_relu_deriv(out: &[f32], delta: &mut [f32])
);
simd_entry!(
    /// Health-scan reduction: adds `Σ x²` (finite lanes only, f64
    /// accumulators, lane-parallel order — *not* bit-identical to the
    /// sequential scalar sum) into `sumsq` and the number of NaN/±Inf
    /// lanes into `nonfinite`. Read-only over `x`: safe to run on racy
    /// shared buffers without perturbing training math.
    sumsq_nonfinite(x: &[f32], sumsq: &mut f64, nonfinite: &mut u64)
);
simd_entry!(
    /// Sparse first-layer forward: for each CSR row `r`,
    /// `z[r,:] = init + Σ v·wt[c − c0,:]` over the row's stored `(c,v)`
    /// entries, with `wt` the weights (layer 0's storage, or a block of its
    /// rows) so every gather is a contiguous row. `init` is `bias` (empty:
    /// all-zero), or with `None` what `z` holds. Mul+add in scalar element
    /// order — bit-identical to the portable loop.
    spmm_csr(x: CsrRows<'_>, wt: &[f32], bias: Option<&[f32]>, out: usize, z: &mut [f32])
);
simd_entry!(
    /// Sparse first-layer weight gradient: for each stored `(r,c,v)`,
    /// `grad[c − c0,:] += v·delta[r,:]` — a contiguous-row scatter into the
    /// gradient (layer 0's storage, or a block of its rows). The caller
    /// pre-zeroes the rows of `grad` whose columns appear in the batch.
    /// Mul+add in scalar element order — bit-identical to the portable loop.
    spmm_tn_csr(x: CsrRows<'_>, delta: &[f32], out: usize, grad: &mut [f32])
);
simd_entry!(
    /// [`gemm_packed`] through the 12×32 zmm tile over 12-row A and
    /// 32-column B panels: the same bits, every element the same FMA chain
    /// in the same k-blocks.
    gemm_packed_avx512(
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
simd_entry!(
    /// [`spmm_csr`] 16 lanes at a time, each row's pre-activations held in
    /// registers across its entries: the same bits.
    spmm_csr_avx512(x: CsrRows<'_>, wt: &[f32], bias: Option<&[f32]>, out: usize, z: &mut [f32])
);
simd_entry!(
    /// [`spmm_tn_csr`] 16 lanes at a time: the same bits.
    spmm_tn_csr_avx512(x: CsrRows<'_>, delta: &[f32], out: usize, grad: &mut [f32])
);

simd_entry!(
    /// Bit `c % 64` of `keep[c / 64]` set iff `row[c]` is stored by
    /// `CsrMatrix::from_dense` — `v != 0 && |v| ≥ threshold`, so never
    /// `±0.0` or NaN — and every other bit clear; eight lanes per compare.
    keep_mask(row: &[f32], threshold: f32, keep: &mut [u64])
);

simd_entry!(
    /// Pairs `pair, pair + 1, …` of the normal stream into `out` (even
    /// length), eight pairs per step: the same integer hash and the same
    /// separate mul/add sequence as `ops::normal_pair`, which draws the
    /// tail — bit-identical to the portable loop.
    normal_pairs(key: [u32; 2], pair: u32, sigma: f32, out: &mut [f32])
);

#[cfg(target_arch = "x86_64")]
mod imp {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::{CsrRows, Operand, PackBufs, MR};
    use crate::ops::{ANGLE_STEP, COS_POLY, LN2, LN_POLY, MIX, SIN_POLY, TWO_POW_M24};

    /// Columns of the AVX2 register tile: two ymm vectors.
    const NR: usize = 16;
    /// Rows of the AVX-512 register tile (and of its packed A panels).
    const MR512: usize = 12;
    /// Columns of the AVX-512 register tile: two zmm vectors.
    const NR512: usize = 32;
    /// Reduction-block depth. One `KC×NR` B panel (24 KiB) plus two `KC×MR`
    /// A panels (9 KiB each, the one in use and the one streaming in) fit a
    /// 48 KiB L1d, and the benchmark networks' widest layer (k = 300) is a
    /// single block, so C is stored once and never re-read. Both tiles
    /// block k here: a C element's FMA chain restarts at the same places at
    /// both levels, which is what makes their bits equal.
    const KC: usize = 384;
    /// Rows of A packed per block: 16 6-row (8 12-row) panels, `MC·KC`
    /// floats = 144 KiB of L2.
    const MC: usize = 96;
    /// Columns of B packed per block: 32 16-column (16 32-column) panels —
    /// the paper's 512-wide layers in one block; `KC·NC` floats = 768 KiB at
    /// most (the buffers grow only to what a call needs: 230 KiB for
    /// 300×192).
    const NC: usize = 512;
    const _: () = assert!(
        MC.is_multiple_of(MR)
            && MC.is_multiple_of(MR512)
            && NC.is_multiple_of(NR)
            && NC.is_multiple_of(NR512)
    );

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

    // --- packed GEMM: the packers and the 6×16 / 12×32 microkernels --------

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
    /// the microkernel never sees an edge. `W = MR` (or `MR512`) packs A,
    /// `W = NR` (or `NR512`) packs B; `k_contig` picks the transposing or
    /// the straight copy — these instantiations are the only place NN, NT
    /// and TN differ.
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

    /// The AVX2 dense-GEMM inner loop: a 6×16 tile of `Σ_p A[i,p]·B[p,j]`
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

    /// The AVX-512 dense-GEMM inner loop: a 12×32 tile over one packed
    /// `kc×12` A panel and one packed `kc×32` B panel — 24 accumulators, 2 B
    /// vectors and 1 broadcast fill 27 of the 32 zmm registers, and each k
    /// step loads 14 vectors for 24 FMAs. Each lane computes what
    /// [`tile_6x16`]'s lane for the same element computes — `acc = fma(a,
    /// b, acc)` from zero over the block's k in order, then `α·acc` and `+
    /// β·add` by one more FMA — so the two tiles store the same bits.
    ///
    /// # Safety
    /// As [`tile_6x16`], with `MR512` / `NR512` for `MR` / `NR`; the CPU
    /// must support AVX-512F.
    #[target_feature(enable = "avx512f,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: contract above; the body reads `kc` whole lines of each panel
    // and touches C / `add` only through masks enabling `nr` lanes of the
    // first `mr` rows.
    unsafe fn tile_12x32(
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
        let mut acc = [[_mm512_setzero_ps(); 2]; MR512];
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.add(r));
                acc_r[0] = _mm512_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm512_fmadd_ps(a, b1, acc_r[1]);
            }
            ap = ap.add(MR512);
            bp = bp.add(NR512);
        }
        // `hetero_avx512_edge_mask` is the seeded bug of
        // `scripts/check_mutation.sh`: an edge tile drops its last column.
        let nr = if cfg!(hetero_avx512_edge_mask) && nr < NR512 {
            nr - 1
        } else {
            nr
        };
        // A masked-off lane is neither read nor written (nor faults), so the
        // high half's address may lie past the row (hence `wrapping_add`).
        let (lo, hi) = (mask16(nr), mask16(nr.saturating_sub(16)));
        let (alpha, beta) = (_mm512_set1_ps(alpha), _mm512_set1_ps(beta));
        for (r, acc_r) in acc.iter().enumerate() {
            if r >= mr {
                break;
            }
            let mut v0 = _mm512_mul_ps(acc_r[0], alpha);
            let mut v1 = _mm512_mul_ps(acc_r[1], alpha);
            if !add.is_null() {
                let src = add.wrapping_add(r * add_ld);
                v0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(lo, src), beta, v0);
                v1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(hi, src.wrapping_add(16)), beta, v1);
            }
            let dst = c.wrapping_add(r * ldc);
            _mm512_mask_storeu_ps(dst, lo, v0);
            _mm512_mask_storeu_ps(dst.wrapping_add(16), hi, v1);
        }
    }

    /// Mask with the first `lanes` (saturating at 16) of 16 lanes enabled.
    #[inline]
    fn mask16(lanes: usize) -> __mmask16 {
        ((1u32 << lanes.min(16)) - 1) as __mmask16
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
        // SAFETY: 16-column panels run `tile_6x16`, which needs only the
        // AVX2+FMA this function is compiled for.
        unsafe { blocked::<MR, NR>(alpha, a, i0, b, beta, bias, m, n, k, c, bufs) }
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_packed_avx512(
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
        // SAFETY: 32-column panels run `tile_12x32`, whose AVX-512F this
        // function is compiled for.
        unsafe { blocked::<MR512, NR512>(alpha, a, i0, b, beta, bias, m, n, k, c, bufs) }
    }

    /// The BLIS loops around the register tile: B packed into `W`-column
    /// panels and A into `M`-row ones, one tile per pair of panels —
    /// `tile_6x16` for `(MR, NR)`, `tile_12x32` for `(MR512, NR512)`, the
    /// only two instantiations.
    ///
    /// # Safety
    /// With `W = NR512` the CPU must support AVX-512F.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: contract above; every pointer handed to a tile is checked
    // where it is made (see the call).
    unsafe fn blocked<const M: usize, const W: usize>(
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
        const {
            assert!(if W == NR512 {
                M == MR512
            } else {
                M == MR && W == NR
            })
        };
        assert_eq!(c.len(), m * n, "gemm_packed: C length");
        assert!(
            bias.is_empty() || bias.len() == n,
            "gemm_packed: bias length"
        );
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack::<W>(b, jc, nc, pc, kc, &mut bufs.b);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack::<M>(a, i0 + ic, mc, pc, kc, &mut bufs.a);
                    let (tiles_m, tiles_n) = (mc.div_ceil(M), nc.div_ceil(W));
                    for t in 0..tiles_m * tiles_n {
                        // The ymm tile walks down a column of tiles, its
                        // 16-column B panel (24 KiB at KC) held in L1 across
                        // the A panels; a 32-column one (48 KiB) would not
                        // fit beside them, so the zmm tile walks along a row,
                        // its A panel held and the B panels streamed from L2.
                        let (ti, tj) = if W == NR512 {
                            (t / tiles_n, t % tiles_n)
                        } else {
                            (t % tiles_m, t / tiles_m)
                        };
                        let (ir, jr) = (ti * M, tj * W);
                        let (mr, nr) = (M.min(mc - ir), W.min(nc - jr));
                        let ap = bufs.a[ir * kc..][..kc * M].as_ptr();
                        let bp = bufs.b[jr * kc..][..kc * W].as_ptr();
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
                        // SAFETY: `ap` / `bp` were just sliced to one whole
                        // `kc·M` / `kc·W` panel; `tile` spans rows
                        // `row..row+mr` × columns `col..col+nr` of C
                        // (bounds-checked above), which is what the kernel
                        // writes and, through `add = cp`, reads; the bias
                        // slice holds `nr` floats and is re-read for every
                        // row (`add_ld = 0`); `mr ≤ M` and `nr ≤ W` by the
                        // `min`s, and `(M, W)` is the tile's own shape (the
                        // const assert); the zmm tile runs only with
                        // `W = NR512`, on AVX-512F (the caller's contract).
                        unsafe {
                            if W == NR512 {
                                tile_12x32(kc, ap, bp, alpha, beta, add, add_ld, cp, n, mr, nr);
                            } else {
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
        x: CsrRows<'_>,
        wt: &[f32],
        bias: Option<&[f32]>,
        out: usize,
        z: &mut [f32],
    ) {
        let n8 = out & !7;
        for r in 0..x.lo.len() {
            let zr = &mut z[r * out..(r + 1) * out];
            match bias {
                Some([]) => zr.fill(0.0),
                Some(bias) => zr.copy_from_slice(bias),
                None => {}
            }
            for p in x.lo[r]..x.hi[r] {
                let c = x.indices[p] as usize - x.c0;
                let v = x.values[p];
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
    pub(super) fn spmm_tn_csr(x: CsrRows<'_>, delta: &[f32], out: usize, grad: &mut [f32]) {
        let n8 = out & !7;
        for r in 0..x.lo.len() {
            let d = &delta[r * out..(r + 1) * out];
            for p in x.lo[r]..x.hi[r] {
                let c = x.indices[p] as usize - x.c0;
                let v = x.values[p];
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

    /// Pre-activation columns [`spmm_csr_avx512`] holds in registers per
    /// pass over a row's entries: 12 zmm, a 192-wide (w8a) row whole.
    const SPMM_VECS: usize = 12;

    /// Unaligned 16-lane load from `s[off..off+16]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn load16(s: &[f32], off: usize) -> __m512 {
        debug_assert!(off + 16 <= s.len());
        // SAFETY: every caller advances `off` in steps of 16 while
        // `off + 16 <= s.len()` (debug-asserted); `loadu` needs no alignment.
        unsafe { _mm512_loadu_ps(s.as_ptr().add(off)) }
    }

    /// Unaligned 16-lane store to `s[off..off+16]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn store16(s: &mut [f32], off: usize, v: __m512) {
        debug_assert!(off + 16 <= s.len());
        // SAFETY: same bounds discipline as `load16`.
        unsafe { _mm512_storeu_ps(s.as_mut_ptr().add(off), v) }
    }

    /// Masked 16-lane load from `s[off..]`; disabled lanes read as zero.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn load16_masked(s: &[f32], off: usize, mask: __mmask16) -> __m512 {
        debug_assert!(off + mask.count_ones() as usize <= s.len());
        // SAFETY: every caller passes a `mask16` prefix mask enabling only
        // lanes inside `s` from `off` (debug-asserted); a disabled lane is
        // neither read nor faults.
        unsafe { _mm512_maskz_loadu_ps(mask, s.as_ptr().add(off)) }
    }

    /// Masked 16-lane store to `s[off..]`; disabled lanes are not written.
    /// (A masked store does not forward to a later load of the same line:
    /// loops that re-read what they store use it for the tail only.)
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn store16_masked(s: &mut [f32], off: usize, mask: __mmask16, v: __m512) {
        debug_assert!(off + mask.count_ones() as usize <= s.len());
        // SAFETY: same bounds discipline as `load16_masked`.
        unsafe { _mm512_mask_storeu_ps(s.as_mut_ptr().add(off), mask, v) }
    }

    /// [`spmm_csr`] in 16-lane vectors: a row's pre-activations, up to
    /// `16·SPMM_VECS` columns at a time, start in registers (from the bias,
    /// or from `z`), stay there while the row's entries are added in order,
    /// and are stored once. Each element is the same `z + v·w` sequence, so
    /// the bits are the ymm body's. The register block is sized to `out`
    /// (4 vectors up to 64 columns, else 12) and its lane masks are set
    /// once per call, not per row: a CSR block of a few entries per row (a
    /// batch cut by `ColumnCuts`) is dominated by that per-row work.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn spmm_csr_avx512(
        x: CsrRows<'_>,
        wt: &[f32],
        bias: Option<&[f32]>,
        out: usize,
        z: &mut [f32],
    ) {
        match out.div_ceil(16) {
            ..=4 => spmm_vecs::<4>(x, wt, bias, out, z),
            _ => spmm_vecs::<SPMM_VECS>(x, wt, bias, out, z),
        }
    }

    /// [`spmm_csr_avx512`] holding up to `V` vectors of a row.
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn spmm_vecs<const V: usize>(
        x: CsrRows<'_>,
        wt: &[f32],
        bias: Option<&[f32]>,
        out: usize,
        z: &mut [f32],
    ) {
        for q0 in (0..out).step_by(16 * V) {
            let width = (out - q0).min(16 * V);
            let vecs = width.div_ceil(16);
            let mut mask = [0; V];
            for (j, m) in mask.iter_mut().enumerate() {
                *m = mask16(width.saturating_sub(16 * j));
            }
            for r in 0..x.lo.len() {
                let zr = &mut z[r * out..(r + 1) * out];
                let mut acc = [_mm512_setzero_ps(); V];
                let init = match bias {
                    Some([]) => None,
                    Some(bias) => Some(bias),
                    None => Some(&*zr),
                };
                if let Some(init) = init {
                    for j in 0..vecs {
                        acc[j] = load16_masked(init, q0 + 16 * j, mask[j]);
                    }
                }
                for p in x.lo[r]..x.hi[r] {
                    let vv = _mm512_set1_ps(x.values[p]);
                    let wr = &wt[(x.indices[p] as usize - x.c0) * out + q0..][..width];
                    for j in 0..V {
                        if j < vecs {
                            let vw = _mm512_mul_ps(vv, load16_masked(wr, 16 * j, mask[j]));
                            acc[j] = _mm512_add_ps(acc[j], vw);
                        }
                    }
                }
                for j in 0..vecs {
                    store16_masked(zr, q0 + 16 * j, mask[j], acc[j]);
                }
            }
        }
    }

    /// [`spmm_tn_csr`] in 16-lane vectors, the tail masked: the same `g +
    /// v·δ` per element in the same order, so the ymm body's bits.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn spmm_tn_csr_avx512(x: CsrRows<'_>, delta: &[f32], out: usize, grad: &mut [f32]) {
        let n16 = out & !15;
        for r in 0..x.lo.len() {
            let d = &delta[r * out..(r + 1) * out];
            for p in x.lo[r]..x.hi[r] {
                let c = x.indices[p] as usize - x.c0;
                let vv = _mm512_set1_ps(x.values[p]);
                let g = &mut grad[c * out..(c + 1) * out];
                let mut q = 0;
                while q < n16 {
                    let acc = _mm512_add_ps(load16(g, q), _mm512_mul_ps(vv, load16(d, q)));
                    store16(g, q, acc);
                    q += 16;
                }
                if n16 < out {
                    let m = mask16(out - n16);
                    let vd = _mm512_mul_ps(vv, load16_masked(d, n16, m));
                    store16_masked(g, n16, m, _mm512_add_ps(load16_masked(g, n16, m), vd));
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn keep_mask(row: &[f32], threshold: f32, keep: &mut [u64]) {
        keep.fill(0);
        let n8 = row.len() & !7;
        let (zero, t) = (_mm256_setzero_ps(), _mm256_set1_ps(threshold));
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut p = 0;
        while p < n8 {
            let v = load8(row, p);
            // `v != 0` is unordered-true for NaN, and `|v| ≥ t` ordered-false.
            let nonzero = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero);
            let large = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_and_ps(v, magnitude), t);
            let bits = _mm256_movemask_ps(_mm256_and_ps(nonzero, large)) as u8;
            // Eight-lane groups never straddle a 64-bit word.
            keep[p / 64] |= u64::from(bits) << (p % 64);
            p += 8;
        }
        for (c, &v) in row.iter().enumerate().skip(n8) {
            keep[c / 64] |= u64::from(v != 0.0 && v.abs() >= threshold) << (c % 64);
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

    /// `a·b + c` rounded twice, the portable twin's order. `--cfg
    /// hetero_init_fma` fuses it — a seeded mutation the cross-level test
    /// of the normal stream must catch.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn madd(a: __m256, b: __m256, c: __m256) -> __m256 {
        #[cfg(not(hetero_init_fma))]
        let y = _mm256_add_ps(_mm256_mul_ps(a, b), c);
        #[cfg(hetero_init_fma)]
        let y = _mm256_fmadd_ps(a, b, c);
        y
    }

    /// Horner's rule over `coef` (highest degree first) through [`madd`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn horner(coef: &[f32], z: __m256) -> __m256 {
        coef[1..].iter().fold(_mm256_set1_ps(coef[0]), |y, &c| {
            madd(y, z, _mm256_set1_ps(c))
        })
    }

    /// `ops::mix32` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn mix8(x: __m256i) -> __m256i {
        let x = _mm256_xor_si256(x, _mm256_srli_epi32::<16>(x));
        let x = _mm256_mullo_epi32(x, _mm256_set1_epi32(MIX[0] as i32));
        let x = _mm256_xor_si256(x, _mm256_srli_epi32::<15>(x));
        let x = _mm256_mullo_epi32(x, _mm256_set1_epi32(MIX[1] as i32));
        _mm256_xor_si256(x, _mm256_srli_epi32::<16>(x))
    }

    /// `ops::ln_poly` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn ln8(u: __m256) -> __m256 {
        let bits = _mm256_castps_si256(u);
        let m = _mm256_castsi256_ps(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)),
            _mm256_set1_epi32(0x3f00_0000),
        ));
        let e = _mm256_sub_epi32(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(126));
        let low = _mm256_cmp_ps::<_CMP_LT_OQ>(m, _mm256_set1_ps(std::f32::consts::FRAC_1_SQRT_2));
        // `low` is −1 in its lanes: e − 1 and m + m there, e and m + 0 elsewhere.
        let e = _mm256_cvtepi32_ps(_mm256_add_epi32(e, _mm256_castps_si256(low)));
        let m = _mm256_add_ps(m, _mm256_and_ps(low, m));
        let z = _mm256_sub_ps(m, _mm256_set1_ps(1.0));
        let z2 = _mm256_mul_ps(z, z);
        let y = _mm256_mul_ps(_mm256_mul_ps(horner(&LN_POLY, z), z), z2);
        let y = madd(e, _mm256_set1_ps(LN2[1]), y);
        let y = madd(z2, _mm256_set1_ps(-0.5), y);
        madd(e, _mm256_set1_ps(LN2[0]), _mm256_add_ps(z, y))
    }

    /// `ops::sincos_poly` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn sincos8(phi: __m256) -> (__m256, __m256) {
        let z = _mm256_mul_ps(phi, phi);
        let sin = madd(_mm256_mul_ps(horner(&SIN_POLY, z), z), phi, phi);
        let cos = madd(
            _mm256_mul_ps(horner(&COS_POLY, z), z),
            z,
            _mm256_mul_ps(z, _mm256_set1_ps(-0.5)),
        );
        (sin, _mm256_add_ps(cos, _mm256_set1_ps(1.0)))
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn normal_pairs(key: [u32; 2], pair: u32, sigma: f32, out: &mut [f32]) {
        let n16 = out.len() & !15;
        let i32x8 = |v: u32| _mm256_set1_epi32(v as i32);
        let (one, two) = (i32x8(1), i32x8(2));
        let hash = |c: __m256i| {
            mix8(_mm256_xor_si256(
                mix8(_mm256_xor_si256(c, i32x8(key[0]))),
                i32x8(key[1]),
            ))
        };
        let mut p = 0;
        while p < n16 {
            let first = 2 * (pair + (p / 2) as u32);
            let ca = _mm256_add_epi32(i32x8(first), _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14));
            let (a, b) = (hash(ca), hash(_mm256_add_epi32(ca, one)));
            let m = _mm256_add_epi32(_mm256_srli_epi32::<8>(a), one);
            let u = _mm256_mul_ps(_mm256_cvtepi32_ps(m), _mm256_set1_ps(TWO_POW_M24));
            let r = _mm256_sqrt_ps(_mm256_mul_ps(ln8(u), _mm256_set1_ps(-2.0)));
            let sr = _mm256_mul_ps(_mm256_set1_ps(sigma), r);
            let w = _mm256_and_si256(
                _mm256_add_epi32(_mm256_srli_epi32::<8>(b), i32x8(1 << 21)),
                i32x8(0xff_ffff),
            );
            let frac = _mm256_sub_epi32(_mm256_and_si256(w, i32x8(0x3f_ffff)), i32x8(1 << 21));
            let (s, c) = sincos8(_mm256_mul_ps(
                _mm256_cvtepi32_ps(frac),
                _mm256_set1_ps(ANGLE_STEP),
            ));
            let q = _mm256_srli_epi32::<22>(w);
            let swap = _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(q, one), one));
            let (c, s) = (_mm256_blendv_ps(c, s, swap), _mm256_blendv_ps(s, c, swap));
            let cos_sign = _mm256_slli_epi32::<30>(_mm256_and_si256(_mm256_add_epi32(q, one), two));
            let sin_sign = _mm256_slli_epi32::<30>(_mm256_and_si256(q, two));
            let zc = _mm256_mul_ps(sr, _mm256_xor_ps(c, _mm256_castsi256_ps(cos_sign)));
            let zs = _mm256_mul_ps(sr, _mm256_xor_ps(s, _mm256_castsi256_ps(sin_sign)));
            // [c0 s0 c1 s1 | c4 s4 c5 s5] and [c2 s2 c3 s3 | c6 s6 c7 s7].
            let (lo, hi) = (_mm256_unpacklo_ps(zc, zs), _mm256_unpackhi_ps(zc, zs));
            store8(out, p, _mm256_permute2f128_ps::<0x20>(lo, hi));
            store8(out, p + 8, _mm256_permute2f128_ps::<0x31>(lo, hi));
            p += 16;
        }
        crate::ops::normal_pairs(key, pair + (n16 / 2) as u32, sigma, &mut out[n16..]);
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

    /// An AVX-512 request runs the highest level the host has at or below
    /// it, and `host_levels` lists exactly the levels that run as asked.
    #[test]
    fn avx512_requests_clamp_to_host() {
        let best = if host_supports_avx512() {
            SimdLevel::Avx512
        } else if host_supports_avx2() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        };
        assert_eq!(with_level(SimdLevel::Avx512, active_level), best);
        let levels: Vec<_> = host_levels().collect();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert_eq!(levels.last(), Some(&best));
        for level in levels {
            assert_eq!(with_level(level, active_level), level);
        }
    }

    /// The process-wide level is what `HETERO_SIMD` asks for, clamped to
    /// the host; the test prints it (CI's SIMD legs run it with
    /// `--nocapture` to show which kernels they tested).
    #[test]
    fn the_process_level_follows_hetero_simd() {
        let var = std::env::var("HETERO_SIMD").ok();
        let asked = match var.as_deref() {
            Some("0" | "off" | "scalar") => SimdLevel::Scalar,
            Some("avx2") => SimdLevel::Avx2,
            _ => SimdLevel::Avx512,
        };
        // A fresh thread: no `with_level` override of another test applies.
        let level = std::thread::spawn(active_level).join().unwrap();
        eprintln!("resolved SIMD level: {level:?} (HETERO_SIMD={var:?})");
        assert_eq!(level, with_level(asked, active_level));
    }
}
