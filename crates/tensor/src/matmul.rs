//! Panel-packed, register-blocked matrix multiplication kernels.
//!
//! Three variants cover the needs of forward and backward passes without
//! materialising transposes:
//!
//! * [`Tensor::matmul`] / [`matmul_into`] — `C = A · B`
//! * [`matmul_tn`] — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_nt`] — `C = A · Bᵀ` (input gradients)
//! * [`matmul_nt_samples_with`] — `C += Σ_s A_s · B_sᵀ` (per-sample weight
//!   gradients, summed in sample order)
//!
//! NN and TN share one loop nest and two schedules over the same register
//! tile. When the `B` k-slab outgrows L1 (`worth_packing`), operands are
//! first repacked into contiguous panels inside a reusable [`PackBuf`] —
//! `B` into `KC × NR` column panels (tail columns zero-padded to the full
//! lane width), `A` into `KC × MR` row panels — and the micro-kernel
//! streams those panels with sequential loads. Otherwise the **direct**
//! schedule runs the same register tile straight over the raw operands,
//! one tile per `NR`-column slice of `B`; the last, ragged tile (`w < NR`
//! columns) is a *masked* register tile, not a scalar loop — its `B` rows
//! load with masked lanes that read 0.0. Either way every floating-point
//! operation happens in the same order, so results are bit-for-bit
//! identical, and padded or masked lanes are discarded before write-back
//! so they never contribute.
//!
//! The micro-kernel accumulates an `MR`-row × `NR`-column tile of `C` in
//! local arrays across a k-block, touching `C` once per k-block. With the
//! `simd` cargo feature the tile runs on explicit `std::arch` intrinsics
//! (AVX2 on x86_64 for both schedules, NEON on aarch64 for the packed one)
//! using *separate* multiply and add instructions — never FMA — so the
//! SIMD lanes compute the exact same IEEE-754 sequence as the scalar
//! fallback and stay bit-deterministic. Without the feature (or on other
//! architectures) a scalar tile with independent lanes autovectorises and
//! produces the same bits.
//!
//! ```text
//! B panel layout (one KC-deep k-block, NR = 16 lanes per column tile):
//!
//!   b[(kb+kk)*n + j .. +NR]  ──pack──▶  panel[jt][kk*NR .. kk*NR+NR]
//!
//!   jt=0 tile               jt=1 tile              … (tail zero-padded)
//!   ┌────────────────┐      ┌────────────────┐
//!   │ kk=0: 16 lanes │      │ kk=0: 16 lanes │
//!   │ kk=1: 16 lanes │      │ kk=1: 16 lanes │
//!   │      …         │      │      …         │
//!   │ kk=KC-1        │      │ kk=KC-1        │
//!   └────────────────┘      └────────────────┘
//!   contiguous in memory ── the micro-kernel walks straight through.
//! ```
//!
//! The kernels are dense on purpose: sparsity-aware paths live in
//! `crates/compression`, not here.
//!
//! The [`oracle`] module keeps the naive triple-loop kernels as a reference
//! for approximate checks, plus `*_ordered` variants that replicate the
//! exact blocked reduction order for bitwise-equality tests.

use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

/// k-blocking factor: bounds the `B` panel touched by one micro-kernel pass
/// to `KC × NR × 4` bytes (16 KiB), which stays L1-resident.
const KC: usize = 256;
/// Rows of `C` accumulated per micro-kernel invocation.
const MR: usize = 4;
/// Columns of `C` accumulated per micro-kernel invocation: the register
/// tile's width. Sized so the `MR × NR` accumulator block (eight 256-bit
/// vectors) fits the AVX2 register file without spilling, leaving registers
/// for the `B` panel. A product narrower than `NR` columns leaves the rest of
/// the tile's lanes idle, so callers that can widen `n` (convolution groups
/// its samples' patches) size their products to at least this.
pub const NR: usize = 16;
/// Lane width for the dot-product (`NT`) kernel accumulators: two 256-bit
/// vectors per dot product, giving eight independent multiply-add chains
/// across a 4-wide column tile to cover arithmetic latency.
const LANES: usize = 16;

/// Reusable packing scratch for the matmul kernels.
///
/// Holds the packed `A` and `B` panels between calls so steady-state
/// training performs no per-step heap allocation. Buffers only ever grow;
/// a `PackBuf` can be reused across arbitrary shapes. The convenience
/// wrappers ([`matmul_into`] etc.) fall back to a thread-local `PackBuf`;
/// hot paths thread one through explicitly via the `*_with` variants.
#[derive(Debug, Default)]
pub struct PackBuf {
    a: Vec<f32>,
    b: Vec<f32>,
    /// Transpose scratch for the short-`k` NT path, which rewrites the
    /// transposed operand once and reruns the NN kernel; also one grouped
    /// sample's rows for [`matmul_nt_samples_with`].
    t: Vec<f32>,
}

impl PackBuf {
    /// Creates an empty packing buffer; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static PACK: RefCell<PackBuf> = RefCell::new(PackBuf::new());
}

/// Grows `v` to at least `len` elements without shrinking capacity.
fn ensure_len(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
            op,
        });
    }
    Ok((t.shape().dims()[0], t.shape().dims()[1]))
}

impl Tensor {
    /// Matrix product `self · rhs` for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use adafl_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok::<(), adafl_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = dims2(self, "matmul")?;
        let (k2, n) = dims2(rhs, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: rhs.shape().dims().to_vec(),
                op: "matmul",
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self.as_slice(), rhs.as_slice(), out.as_mut_slice(), m, k, n);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Whether panel-packing pays for an NN/TN problem of this shape.
///
/// Packing wins once the `B` k-slab outgrows half of a typical L1d (strided
/// panel walks start missing) or the column count is ragged past one tile
/// (packed tiles zero-pad the tail lanes once; the direct schedule re-reads
/// its masked tail tile strided per row block). Below that the raw slab is
/// cache-resident, every pass over it is cheap, and the pack writes are
/// pure overhead — the direct register tiles, ragged ones masked, are
/// faster. That holds for products narrower than one tile too: the
/// logistic-regression head's 10 columns run the masked direct tile, which
/// beat packing them and needs no pack panels in any workspace.
fn worth_packing(k: usize, n: usize) -> bool {
    let slab_bytes = k.min(KC) * n * core::mem::size_of::<f32>();
    slab_bytes > 16 * 1024 || (n > NR && !n.is_multiple_of(NR))
}

/// Whether the explicit SIMD micro-kernels may run on this CPU. Call once
/// per kernel invocation and thread the answer down — the cached feature
/// probe is cheap but not free in a per-tile loop.
#[inline]
fn simd_tiles_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        true
    }
    #[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        false
    }
}

/// Packs the `kb..ke` k-slab of row-major `b` (`k×n`) into contiguous
/// `kc×NR` column tiles; tail lanes beyond `n` are zero-filled so the
/// micro-kernel always streams full `NR`-wide rows.
fn pack_b_panels(b: &[f32], kb: usize, ke: usize, n: usize, out: &mut Vec<f32>) {
    let kc = ke - kb;
    let tiles = n.div_ceil(NR);
    ensure_len(out, tiles * kc * NR);
    for jt in 0..tiles {
        let j = jt * NR;
        let w = NR.min(n - j);
        let tile = &mut out[jt * kc * NR..][..kc * NR];
        for kk in 0..kc {
            let dst = &mut tile[kk * NR..][..NR];
            dst[..w].copy_from_slice(&b[(kb + kk) * n + j..][..w]);
            dst[w..].fill(0.0);
        }
    }
}

/// Packs `r` rows of row-major `a` (`m×k`) starting at row `i`, k-slab
/// `kb..ke`, into `kc×r` layout: the `r` values for one `kk` are adjacent.
fn pack_a_nn(a: &[f32], i: usize, r: usize, kb: usize, ke: usize, k: usize, out: &mut Vec<f32>) {
    let kc = ke - kb;
    ensure_len(out, kc * r);
    for rr in 0..r {
        let row = &a[(i + rr) * k + kb..][..kc];
        for (kk, &v) in row.iter().enumerate() {
            out[kk * r + rr] = v;
        }
    }
}

/// Packs `r` columns of column-stored `a` (`k×m`, the TN operand) starting
/// at column `i`, k-slab `kb..ke`, into the same `kc×r` layout as
/// [`pack_a_nn`]. The source values are already adjacent per `kk`.
fn pack_a_tn(a: &[f32], i: usize, r: usize, kb: usize, ke: usize, m: usize, out: &mut Vec<f32>) {
    let kc = ke - kb;
    ensure_len(out, kc * r);
    for kk in 0..kc {
        out[kk * r..][..r].copy_from_slice(&a[(kb + kk) * m + i..][..r]);
    }
}

// ---------------------------------------------------------------------------
// Micro-kernel tiles (scalar + SIMD)
// ---------------------------------------------------------------------------

/// Scalar `R×NR` tile: independent accumulator lanes, `kk` ascending, so
/// LLVM autovectorises without reordering any reduction.
#[allow(clippy::needless_range_loop)]
fn tile_scalar<const R: usize>(
    a_pack: &[f32],
    b_tile: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; R],
) {
    for kk in 0..kc {
        let av = &a_pack[kk * R..][..R];
        let bv = &b_tile[kk * NR..][..NR];
        for r in 0..R {
            let a = av[r];
            for (x, &b) in acc[r].iter_mut().zip(bv) {
                *x += a * b;
            }
        }
    }
}

/// AVX2 `R×NR` tile. Uses separate multiply and add (never FMA) so every
/// lane computes the exact IEEE-754 sequence of [`tile_scalar`].
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `a_pack` holds at least
/// `kc*R` and `b_tile` at least `kc*NR` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<const R: usize>(
    a_pack: &[f32],
    b_tile: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; R],
) {
    use core::arch::x86_64::*;
    // The last reads below: `A` element `(kc-1)·R + R-1`, `B` lanes up to
    // `(kc-1)·NR + NR-1`.
    debug_assert!(kc * R <= a_pack.len(), "last A element");
    debug_assert!(kc * NR <= b_tile.len(), "last B element");
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    let ap = a_pack.as_ptr();
    let bp = b_tile.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(kk * NR));
        let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
        for r in 0..R {
            let a = _mm256_set1_ps(*ap.add(kk * R + r));
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(a, b0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(a, b1));
        }
    }
    for r in 0..R {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), lo[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), hi[r]);
    }
}

/// NEON `R×NR` tile; same bit-exact separate multiply/add discipline as
/// [`tile_avx2`].
///
/// # Safety
///
/// Caller must ensure `a_pack` holds at least `kc*R` and `b_tile` at least
/// `kc*NR` elements. NEON itself is mandatory on aarch64.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
unsafe fn tile_neon<const R: usize>(
    a_pack: &[f32],
    b_tile: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; R],
) {
    use core::arch::aarch64::*;
    let mut v = [[vdupq_n_f32(0.0); 4]; R];
    let ap = a_pack.as_ptr();
    let bp = b_tile.as_ptr();
    for kk in 0..kc {
        let b0 = vld1q_f32(bp.add(kk * NR));
        let b1 = vld1q_f32(bp.add(kk * NR + 4));
        let b2 = vld1q_f32(bp.add(kk * NR + 8));
        let b3 = vld1q_f32(bp.add(kk * NR + 12));
        for r in 0..R {
            let a = vdupq_n_f32(*ap.add(kk * R + r));
            v[r][0] = vaddq_f32(v[r][0], vmulq_f32(a, b0));
            v[r][1] = vaddq_f32(v[r][1], vmulq_f32(a, b1));
            v[r][2] = vaddq_f32(v[r][2], vmulq_f32(a, b2));
            v[r][3] = vaddq_f32(v[r][3], vmulq_f32(a, b3));
        }
    }
    for r in 0..R {
        for q in 0..4 {
            vst1q_f32(acc[r].as_mut_ptr().add(q * 4), v[r][q]);
        }
    }
}

/// Runs one `R×NR` tile over a packed k-slab, dispatching to the widest
/// bit-compatible implementation available. `simd` is the hoisted
/// [`simd_tiles_available`] answer.
#[cfg_attr(
    not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(unused_variables)
)]
#[inline]
fn run_tile<const R: usize>(
    simd: bool,
    a_pack: &[f32],
    b_tile: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; R],
) {
    debug_assert!(a_pack.len() >= kc * R);
    debug_assert!(b_tile.len() >= kc * NR);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: AVX2 presence checked by the caller; lengths asserted.
        unsafe { tile_avx2::<R>(a_pack, b_tile, kc, acc) };
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd {
        // SAFETY: NEON is mandatory on aarch64; lengths asserted above.
        unsafe { tile_neon::<R>(a_pack, b_tile, kc, acc) };
        return;
    }
    tile_scalar::<R>(a_pack, b_tile, kc, acc);
}

/// Scalar direct tile over the raw operands: lanes `0..w` of an `R×NR`
/// tile, `kk` ascending. `a` starts at the tile's first `A` element, whose
/// `(row, kk)` neighbours sit `rs` / `ks` apart; `b` starts at its first
/// `B` element, whose rows are `n` apart. The bitwise reference for
/// [`direct_tile_avx2`], and the direct path's tile where that does not run.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn direct_tile_scalar<const R: usize>(
    a: &[f32],
    rs: usize,
    ks: usize,
    b: &[f32],
    n: usize,
    kc: usize,
    w: usize,
    acc: &mut [[f32; NR]; R],
) {
    for kk in 0..kc {
        let b_row = &b[kk * n..][..w];
        for (r, lane) in acc.iter_mut().enumerate() {
            let av = a[r * rs + kk * ks];
            for (x, &bv) in lane[..w].iter_mut().zip(b_row) {
                *x += av * bv;
            }
        }
    }
}

/// AVX2 direct tile: [`direct_tile_scalar`] on the register tile of
/// [`tile_avx2`], reading `B` rows straight from the operand. A ragged tile
/// (`w < NR`) loads its rows with `_mm256_maskload_ps`: masked lanes read
/// 0.0 and are never written back; `FULL` (`w == NR`) compiles the masks
/// out. Separate multiply and add (never FMA), so every live lane computes
/// the scalar tile's IEEE-754 sequence.
///
/// Panics unless `1 <= w <= NR`, `kc >= 1`, `FULL == (w == NR)`, `a`
/// holds element `(R-1)·rs + (kc-1)·ks` and `b` elements
/// `(kc-1)·n .. (kc-1)·n + w` — the reach its raw loads rely on, checked
/// once per tile.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_tile_avx2<const R: usize, const FULL: bool>(
    a: &[f32],
    rs: usize,
    ks: usize,
    b: &[f32],
    n: usize,
    kc: usize,
    w: usize,
    acc: &mut [[f32; NR]; R],
) {
    use core::arch::x86_64::*;
    assert!((1..=NR).contains(&w) && kc >= 1 && FULL == (w == NR));
    assert!((R - 1) * rs + (kc - 1) * ks < a.len(), "last A element");
    assert!((kc - 1) * n + w <= b.len(), "last B element");
    let live = _mm256_set1_epi32(w as i32);
    let mask_lo = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mask_hi = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for kk in 0..kc {
        // SAFETY: every `A` offset `r·rs + kk·ks` is at most the asserted
        // last `A` element. Lane 0 of every `B` row is live (`w >= 1`) and
        // the last row's last live lane is inside `b` (asserted above), so
        // each pointer formed here is in bounds. `_mm256_maskload_ps` does
        // not access masked-out lanes — no read, no fault — so lanes
        // `w..NR` may lie past the end of `b`; they load 0.0.
        let row = bp.add(kk * n);
        let b0 = if FULL || w >= 8 {
            _mm256_loadu_ps(row)
        } else {
            _mm256_maskload_ps(row, mask_lo)
        };
        let b1 = if FULL {
            _mm256_loadu_ps(row.add(8))
        } else if w > 8 {
            _mm256_maskload_ps(row.add(8), mask_hi)
        } else {
            _mm256_setzero_ps()
        };
        for r in 0..R {
            let av = _mm256_set1_ps(*ap.add(r * rs + kk * ks));
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
        }
    }
    for r in 0..R {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), lo[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), hi[r]);
    }
}

/// Runs one direct `R×NR` tile (lanes `0..w` live) over the raw operands,
/// dispatching like [`run_tile`]. On aarch64 and without the `simd`
/// feature the scalar tile runs.
#[cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    allow(unused_variables)
)]
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_direct_tile<const R: usize>(
    simd: bool,
    a: &[f32],
    rs: usize,
    ks: usize,
    b: &[f32],
    n: usize,
    kc: usize,
    w: usize,
    acc: &mut [[f32; NR]; R],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: AVX2 presence checked by the caller; the tile asserts
        // its own reach into `a` and `b`.
        unsafe {
            if w == NR {
                direct_tile_avx2::<R, true>(a, rs, ks, b, n, kc, w, acc);
            } else {
                direct_tile_avx2::<R, false>(a, rs, ks, b, n, kc, w, acc);
            }
        }
        return;
    }
    // A constant full width lets the common tile vectorise unmasked.
    if w == NR {
        direct_tile_scalar::<R>(a, rs, ks, b, n, kc, NR, acc);
    } else {
        direct_tile_scalar::<R>(a, rs, ks, b, n, kc, w, acc);
    }
}

/// Adds lanes `0..w` of an `R`-row accumulator tile into `c` (row stride
/// `n`) at row `i`, column `j`.
fn add_tile<const R: usize>(
    c: &mut [f32],
    acc: &[[f32; NR]; R],
    i: usize,
    j: usize,
    n: usize,
    w: usize,
) {
    for (r, lane) in acc.iter().enumerate() {
        let c_row = &mut c[(i + r) * n + j..][..w];
        for (cv, &x) in c_row.iter_mut().zip(&lane[..w]) {
            *cv += x;
        }
    }
}

/// Accumulates `R` packed rows against every packed `B` column tile of one
/// k-slab, writing `c +=` for the first `w` real lanes of each tile.
fn gemm_packed<const R: usize>(
    simd: bool,
    a_pack: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
    i: usize,
    kc: usize,
    n: usize,
) {
    for (jt, j) in (0..n).step_by(NR).enumerate() {
        let b_tile = &b_pack[jt * kc * NR..][..kc * NR];
        let mut acc = [[0.0f32; NR]; R];
        run_tile::<R>(simd, &a_pack[..kc * R], b_tile, kc, &mut acc);
        add_tile(c, &acc, i, j, n, NR.min(n - j));
    }
}

/// How the `A` operand of an NN / TN product is stored.
#[derive(Clone, Copy)]
enum Lhs {
    /// `m×k` row-major ([`matmul_into`]): a row's `k` values are adjacent.
    RowMajor,
    /// `k×m`, the transposed operand ([`matmul_tn`]): the `m` values of one
    /// `kk` are adjacent.
    Transposed,
}

/// One `c += A · b` product with `b` `k×n` and `c` `m×n`; NN and TN differ
/// only in how `A` is stored, so one loop nest serves both.
struct Gemm<'a> {
    a: &'a [f32],
    lhs: Lhs,
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    /// The hoisted [`simd_tiles_available`] answer.
    simd: bool,
}

impl<'a> Gemm<'a> {
    fn new(a: &'a [f32], lhs: Lhs, b: &'a [f32], m: usize, k: usize, n: usize) -> Self {
        let simd = simd_tiles_available();
        Gemm {
            a,
            lhs,
            b,
            m,
            k,
            n,
            simd,
        }
    }

    /// Runs the product `KC` slab by slab, `MR` rows at a time, packed or
    /// direct as [`worth_packing`] decides.
    fn run(&self, c: &mut [f32], pack: &mut PackBuf) {
        if self.m == 0 || self.n == 0 {
            return;
        }
        let packed = worth_packing(self.k, self.n);
        for kb in (0..self.k).step_by(KC) {
            let ke = (kb + KC).min(self.k);
            if packed {
                pack_b_panels(self.b, kb, ke, self.n, &mut pack.b);
            }
            let mut i = 0;
            while i < self.m {
                let r = MR.min(self.m - i);
                match r {
                    1 => self.rows::<1>(c, pack, packed, i, kb, ke),
                    2 => self.rows::<2>(c, pack, packed, i, kb, ke),
                    3 => self.rows::<3>(c, pack, packed, i, kb, ke),
                    _ => self.rows::<MR>(c, pack, packed, i, kb, ke),
                }
                i += r;
            }
        }
    }

    /// `R` rows of `C` from row `i` over the k-slab `kb..ke`: through the
    /// packed panels (`pack.b` already holds this slab's), or one direct
    /// register tile per `NR`-column tile over the raw operands. The
    /// per-element accumulation order is the same either way.
    fn rows<const R: usize>(
        &self,
        c: &mut [f32],
        pack: &mut PackBuf,
        packed: bool,
        i: usize,
        kb: usize,
        ke: usize,
    ) {
        let kc = ke - kb;
        if packed {
            match self.lhs {
                Lhs::RowMajor => pack_a_nn(self.a, i, R, kb, ke, self.k, &mut pack.a),
                Lhs::Transposed => pack_a_tn(self.a, i, R, kb, ke, self.m, &mut pack.a),
            }
            gemm_packed::<R>(self.simd, &pack.a, &pack.b, c, i, kc, self.n);
            return;
        }
        // Strides of `A`: element `(row, kk)` sits at `a[row·rs + kk·ks]`.
        let (rs, ks) = match self.lhs {
            Lhs::RowMajor => (self.k, 1),
            Lhs::Transposed => (1, self.m),
        };
        let a = &self.a[i * rs + kb * ks..];
        for j in (0..self.n).step_by(NR) {
            let w = NR.min(self.n - j);
            let b = &self.b[kb * self.n + j..];
            let mut acc = [[0.0f32; NR]; R];
            run_direct_tile::<R>(self.simd, a, rs, ks, b, self.n, kc, w, &mut acc);
            add_tile(c, &acc, i, j, self.n, w);
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Computes `c += a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`,
/// all row-major flat slices. Uses a thread-local [`PackBuf`]; hot paths
/// should prefer [`matmul_into_with`].
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    PACK.with(|p| matmul_into_with(a, b, c, m, k, n, &mut p.borrow_mut()));
}

/// [`matmul_into`] with an explicit packing buffer.
///
/// When `worth_packing` approves, each `KC`-deep slab of `b` is packed
/// once into contiguous `NR`-wide column tiles and reused across every row
/// block of `a`, whose rows are packed `kc×MR`; the micro-kernel then
/// streams both panels with unit-stride loads. Cache-resident shapes skip
/// the packing and run the same tiles over the raw strided operands.
/// Accumulation order is identical either way, so results are bit-for-bit
/// unchanged.
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_into_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pack: &mut PackBuf,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    Gemm::new(a, Lhs::RowMajor, b, m, k, n).run(c, pack);
}

/// Computes `c += aᵀ · b` where `a` is `k×m`, `b` is `k×n`, `c` is `m×n`.
/// Uses a thread-local [`PackBuf`]; hot paths should prefer
/// [`matmul_tn_with`].
///
/// This is the weight-gradient kernel: `dW = Xᵀ · dY` without materialising
/// `Xᵀ`.
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    PACK.with(|p| matmul_tn_with(a, b, c, k, m, n, &mut p.borrow_mut()));
}

/// [`matmul_tn`] with an explicit packing buffer. Same panel scheme,
/// shape-dependent pack/direct split and bitwise guarantee as
/// [`matmul_into_with`]; the transposed `a` layout makes its panel packing
/// a straight `memcpy` per `kk`.
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_tn_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    pack: &mut PackBuf,
) {
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    Gemm::new(a, Lhs::Transposed, b, m, k, n).run(c, pack);
}

// ---------------------------------------------------------------------------
// NT (A · Bᵀ) kernel
// ---------------------------------------------------------------------------

/// `Q` simultaneous dot products of `a` against rows of `b` starting at row
/// `j`, each accumulated in [`LANES`] independent lanes and horizontally
/// summed in a fixed order (left to right), so results are deterministic.
/// Unpacked fallback used for column tails and `k < LANES`.
fn nt_dots<const Q: usize>(a: &[f32], b: &[f32], j: usize, k: usize) -> [f32; Q] {
    let b_rows: [&[f32]; Q] = core::array::from_fn(|q| &b[(j + q) * k..][..k]);
    let mut acc = [[0.0f32; LANES]; Q];
    let chunks = k / LANES;
    for t in 0..chunks {
        let al = &a[t * LANES..][..LANES];
        for (q, lane) in acc.iter_mut().enumerate() {
            let bl = &b_rows[q][t * LANES..][..LANES];
            for ((x, &av), &bv) in lane.iter_mut().zip(al).zip(bl) {
                *x += av * bv;
            }
        }
    }
    let mut out = [0.0f32; Q];
    for (q, lane) in acc.iter().enumerate() {
        let mut sum = 0.0f32;
        for &x in lane {
            sum += x;
        }
        for kk in chunks * LANES..k {
            sum += a[kk] * b_rows[q][kk];
        }
        out[q] = sum;
    }
    out
}

/// Packs full 4-row column tiles of `b` (`n×k`) into chunk-interleaved
/// layout: chunk `t` of tile rows `q∈0..4` lands at `(t*4+q)*LANES`, so the
/// micro-kernel reads one `a` chunk and four adjacent `b` chunks per step.
fn pack_b_nt(b: &[f32], n: usize, k: usize, chunks: usize, out: &mut Vec<f32>) {
    let tiles4 = n / 4;
    let tile_len = chunks * 4 * LANES;
    ensure_len(out, tiles4 * tile_len);
    for jt in 0..tiles4 {
        let tile = &mut out[jt * tile_len..][..tile_len];
        for q in 0..4 {
            let row = &b[(jt * 4 + q) * k..][..k];
            for t in 0..chunks {
                tile[(t * 4 + q) * LANES..][..LANES].copy_from_slice(&row[t * LANES..][..LANES]);
            }
        }
    }
}

/// Scalar lane accumulation over a packed NT tile; bit-identical to the
/// chunked phase of `nt_dots`.
#[allow(clippy::needless_range_loop)]
fn nt_acc_scalar(a_row: &[f32], b_tile: &[f32], chunks: usize, acc: &mut [[f32; LANES]; 4]) {
    for t in 0..chunks {
        let al = &a_row[t * LANES..][..LANES];
        let bt = &b_tile[t * 4 * LANES..][..4 * LANES];
        for q in 0..4 {
            let bl = &bt[q * LANES..][..LANES];
            for ((x, &av), &bv) in acc[q].iter_mut().zip(al).zip(bl) {
                *x += av * bv;
            }
        }
    }
}

/// AVX2 NT tile: lane accumulation over the packed chunks (separate
/// mul/add, no FMA), then the horizontal finish done in-register — the
/// `4×LANES` accumulator block is transposed with shuffles so one SSE lane
/// per dot product walks the exact left-to-right scalar sum sequence of
/// [`nt_finish`], 16 sequential vector adds replacing 60 scalar ones.
/// Returns the four chunk-phase dot values; the `k % LANES` tail is the
/// caller's job.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `a_row` holds at least
/// `chunks*LANES` and `b_tile` at least `chunks*4*LANES` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn nt_tile_avx2(a_row: &[f32], b_tile: &[f32], chunks: usize) -> [f32; 4] {
    use core::arch::x86_64::*;
    // The last reads below: `a_row` lanes up to `(chunks-1)·LANES + 15`,
    // `b_tile` lanes up to `((chunks-1)·4 + 3)·LANES + 15`.
    debug_assert!(chunks * LANES <= a_row.len(), "last A element");
    debug_assert!(chunks * 4 * LANES <= b_tile.len(), "last B element");
    let mut lo = [_mm256_setzero_ps(); 4];
    let mut hi = [_mm256_setzero_ps(); 4];
    let ap = a_row.as_ptr();
    let bp = b_tile.as_ptr();
    for t in 0..chunks {
        let a0 = _mm256_loadu_ps(ap.add(t * LANES));
        let a1 = _mm256_loadu_ps(ap.add(t * LANES + 8));
        for q in 0..4 {
            let base = (t * 4 + q) * LANES;
            let b0 = _mm256_loadu_ps(bp.add(base));
            let b1 = _mm256_loadu_ps(bp.add(base + 8));
            lo[q] = _mm256_add_ps(lo[q], _mm256_mul_ps(a0, b0));
            hi[q] = _mm256_add_ps(hi[q], _mm256_mul_ps(a1, b1));
        }
    }
    // Transpose the 4×8 `lo` block: `v{t}` holds lane column `t` of all
    // four dots in its low 128 bits and column `t+4` in its high bits.
    let u0 = _mm256_unpacklo_ps(lo[0], lo[1]);
    let u1 = _mm256_unpackhi_ps(lo[0], lo[1]);
    let u2 = _mm256_unpacklo_ps(lo[2], lo[3]);
    let u3 = _mm256_unpackhi_ps(lo[2], lo[3]);
    let v0 = _mm256_shuffle_ps(u0, u2, 0b0100_0100);
    let v1 = _mm256_shuffle_ps(u0, u2, 0b1110_1110);
    let v2 = _mm256_shuffle_ps(u1, u3, 0b0100_0100);
    let v3 = _mm256_shuffle_ps(u1, u3, 0b1110_1110);
    // Same for the `hi` block: columns 8..11 low, 12..15 high.
    let u4 = _mm256_unpacklo_ps(hi[0], hi[1]);
    let u5 = _mm256_unpackhi_ps(hi[0], hi[1]);
    let u6 = _mm256_unpacklo_ps(hi[2], hi[3]);
    let u7 = _mm256_unpackhi_ps(hi[2], hi[3]);
    let w0 = _mm256_shuffle_ps(u4, u6, 0b0100_0100);
    let w1 = _mm256_shuffle_ps(u4, u6, 0b1110_1110);
    let w2 = _mm256_shuffle_ps(u5, u7, 0b0100_0100);
    let w3 = _mm256_shuffle_ps(u5, u7, 0b1110_1110);
    // Strict left-to-right sum of the 16 lane columns, all four dots in
    // parallel lanes: identical IEEE sequence to the scalar finish.
    let mut s = _mm_setzero_ps();
    s = _mm_add_ps(s, _mm256_castps256_ps128(v0));
    s = _mm_add_ps(s, _mm256_castps256_ps128(v1));
    s = _mm_add_ps(s, _mm256_castps256_ps128(v2));
    s = _mm_add_ps(s, _mm256_castps256_ps128(v3));
    s = _mm_add_ps(s, _mm256_extractf128_ps(v0, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(v1, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(v2, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(v3, 1));
    s = _mm_add_ps(s, _mm256_castps256_ps128(w0));
    s = _mm_add_ps(s, _mm256_castps256_ps128(w1));
    s = _mm_add_ps(s, _mm256_castps256_ps128(w2));
    s = _mm_add_ps(s, _mm256_castps256_ps128(w3));
    s = _mm_add_ps(s, _mm256_extractf128_ps(w0, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(w1, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(w2, 1));
    s = _mm_add_ps(s, _mm256_extractf128_ps(w3, 1));
    let mut out = [0.0f32; 4];
    _mm_storeu_ps(out.as_mut_ptr(), s);
    out
}

/// NEON lane accumulation over a packed NT tile (separate mul/add, no FMA).
///
/// # Safety
///
/// Caller must ensure `a_row` holds at least `chunks*LANES` and `b_tile` at
/// least `chunks*4*LANES` elements. NEON itself is mandatory on aarch64.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
unsafe fn nt_acc_neon(a_row: &[f32], b_tile: &[f32], chunks: usize, acc: &mut [[f32; LANES]; 4]) {
    use core::arch::aarch64::*;
    let mut v = [[vdupq_n_f32(0.0); 4]; 4];
    let ap = a_row.as_ptr();
    let bp = b_tile.as_ptr();
    for t in 0..chunks {
        let a0 = vld1q_f32(ap.add(t * LANES));
        let a1 = vld1q_f32(ap.add(t * LANES + 4));
        let a2 = vld1q_f32(ap.add(t * LANES + 8));
        let a3 = vld1q_f32(ap.add(t * LANES + 12));
        for q in 0..4 {
            let base = (t * 4 + q) * LANES;
            v[q][0] = vaddq_f32(v[q][0], vmulq_f32(a0, vld1q_f32(bp.add(base))));
            v[q][1] = vaddq_f32(v[q][1], vmulq_f32(a1, vld1q_f32(bp.add(base + 4))));
            v[q][2] = vaddq_f32(v[q][2], vmulq_f32(a2, vld1q_f32(bp.add(base + 8))));
            v[q][3] = vaddq_f32(v[q][3], vmulq_f32(a3, vld1q_f32(bp.add(base + 12))));
        }
    }
    for q in 0..4 {
        for h in 0..4 {
            vst1q_f32(acc[q].as_mut_ptr().add(h * 4), v[q][h]);
        }
    }
}

/// Four dot products against one packed NT tile: lane accumulation on the
/// packed chunks, then the fixed-order horizontal sum and sequential tail
/// of [`nt_finish`] (done in-register on AVX2), reading tail elements from
/// the raw `b` rows. Bit-identical to `nt_dots::<4>`. `simd` is the hoisted
/// [`simd_tiles_available`] answer.
#[cfg_attr(
    not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(unused_variables)
)]
#[inline]
fn nt_tile4(
    simd: bool,
    a_row: &[f32],
    b_tile: &[f32],
    b: &[f32],
    j: usize,
    k: usize,
    chunks: usize,
) -> [f32; 4] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: AVX2 presence checked by the caller; callers size slices.
        let mut d = unsafe { nt_tile_avx2(a_row, b_tile, chunks) };
        let tail = chunks * LANES;
        if tail < k {
            for (q, sum) in d.iter_mut().enumerate() {
                let b_row = &b[(j + q) * k..][..k];
                for kk in tail..k {
                    *sum += a_row[kk] * b_row[kk];
                }
            }
        }
        return d;
    }
    let mut acc = [[0.0f32; LANES]; 4];
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd {
        // SAFETY: NEON is mandatory on aarch64; callers size the slices.
        unsafe { nt_acc_neon(a_row, b_tile, chunks, &mut acc) };
        return nt_finish(a_row, b, j, k, chunks, &acc);
    }
    nt_acc_scalar(a_row, b_tile, chunks, &mut acc);
    nt_finish(a_row, b, j, k, chunks, &acc)
}

/// Rewrites the short-`k` NT operand `b` (`n×k`, `k < LANES`) as its `k×n`
/// transpose so the NN kernel can take over. With no full lane chunk, the
/// NT dot order degenerates to a plain ascending-`k` sum — exactly the NN
/// kernel's per-element order — so the handoff is bit-exact while replacing
/// `n` short serial dot chains per row with full-width column tiles.
fn transpose_short_k(b: &[f32], n: usize, k: usize, out: &mut Vec<f32>) {
    ensure_len(out, k * n);
    for (j, row) in b.chunks_exact(k).enumerate() {
        for (kk, &v) in row.iter().enumerate() {
            out[kk * n + j] = v;
        }
    }
}

/// Shared NT finishing step: fixed-order horizontal lane sum plus the
/// sequential `k % LANES` tail from the raw operand.
fn nt_finish(
    a_row: &[f32],
    b: &[f32],
    j: usize,
    k: usize,
    chunks: usize,
    acc: &[[f32; LANES]; 4],
) -> [f32; 4] {
    let mut out = [0.0f32; 4];
    for (q, lane) in acc.iter().enumerate() {
        let mut sum = 0.0f32;
        for &x in lane {
            sum += x;
        }
        let b_row = &b[(j + q) * k..][..k];
        for kk in chunks * LANES..k {
            sum += a_row[kk] * b_row[kk];
        }
        out[q] = sum;
    }
    out
}

/// Computes `c += a · bᵀ` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
/// Uses a thread-local [`PackBuf`]; hot paths should prefer
/// [`matmul_nt_with`].
///
/// This is the input-gradient kernel: `dX = dY · Wᵀ` without materialising
/// `Wᵀ`.
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    PACK.with(|p| matmul_nt_with(a, b, c, m, k, n, &mut p.borrow_mut()));
}

/// [`matmul_nt`] with an explicit packing buffer.
///
/// Three shape-dependent schedules, all computing the identical per-element
/// reduction:
///
/// * `k < LANES` — no full lane chunk exists, so the dot order degenerates
///   to a plain ascending-`k` sum; `b` is transposed once (tiny) and the
///   problem reruns as [`matmul_into_with`], which vectorises across output
///   columns instead of running short serial dots.
/// * `k ≥ LANES` with `n ≥ 4` — full 4-row column tiles of `b` are packed
///   once into a chunk-interleaved panel (fixing the strided-access penalty
///   of walking four `k`-long rows in parallel) and reused across every row
///   of `a`; on AVX2 the per-tile horizontal finish runs in-register.
/// * Otherwise — the unpacked `nt_dots` fallback.
///
/// # Panics
///
/// Panics when slice lengths do not match the stated dimensions.
pub fn matmul_nt_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pack: &mut PackBuf,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    if m == 0 || n == 0 {
        return;
    }
    let chunks = k / LANES;
    if chunks == 0 && k > 0 {
        transpose_short_k(b, n, k, &mut pack.t);
        let bt = core::mem::take(&mut pack.t);
        matmul_into_with(a, &bt[..k * n], c, m, k, n, pack);
        pack.t = bt;
        return;
    }
    let packed = chunks > 0 && n >= 4;
    let simd = simd_tiles_available();
    if packed {
        pack_b_nt(b, n, k, chunks, &mut pack.b);
    }
    let tile_len = chunks * 4 * LANES;
    for i in 0..m {
        let a_row = &a[i * k..][..k];
        let c_row = &mut c[i * n..][..n];
        let mut j = 0;
        while j + 4 <= n {
            let d = if packed {
                let b_tile = &pack.b[(j / 4) * tile_len..][..tile_len];
                nt_tile4(simd, a_row, b_tile, b, j, k, chunks)
            } else {
                nt_dots::<4>(a_row, b, j, k)
            };
            for (cv, &x) in c_row[j..j + 4].iter_mut().zip(&d) {
                *cv += x;
            }
            j += 4;
        }
        while j < n {
            let d = nt_dots::<1>(a_row, b, j, k);
            c_row[j] += d[0];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-sample NT products (Σ_s A_s · B_sᵀ)
// ---------------------------------------------------------------------------

/// Fills the per-sample `B` panel of the column tile `j..j+w` for
/// [`matmul_nt_samples_with`]: `panel[(s·k + kk)·NR + l] = b_s[j+l, kk]`,
/// lanes `w..NR` zero. `b` holds the samples in groups of `group`, each an
/// `[n, g·k]` matrix (sample `s0 + t` of the group in columns `t·k..`), so
/// column `idx` of a group's rows is panel row `s0·k + idx`.
#[allow(clippy::too_many_arguments)]
fn pack_samples_panel(
    b: &[f32],
    samples: usize,
    group: usize,
    k: usize,
    n: usize,
    j: usize,
    w: usize,
    panel: &mut [f32],
) {
    for s0 in (0..samples).step_by(group) {
        let gk = group.min(samples - s0) * k;
        let rows = &b[s0 * n * k + j * gk..][..w * gk];
        let dst = &mut panel[s0 * k * NR..][..gk * NR];
        // Contiguous panel writes, strided reads: about half the time of
        // the transposed loop order on the conv shape.
        for (idx, lanes) in dst.chunks_exact_mut(NR).enumerate() {
            for (x, row) in lanes.iter_mut().zip(rows.chunks_exact(gk)) {
                *x = row[idx];
            }
            lanes[w..].fill(0.0);
        }
    }
}

/// Scalar fused tile: lanes `0..w` of the `R×NR` tile of `c` that starts
/// at `c[0]` (rows `n` apart), plus the products of every sample. Sample
/// `s`'s product is summed from `+0.0` with `kk` ascending and then added
/// into the tile, in sample order — the bits of one `c +=` per sample.
/// `a` starts at sample 0's first tile row (samples `sa` apart, rows `k`
/// apart); `panel` is [`pack_samples_panel`]'s. The bitwise reference for
/// [`samples_tile_avx2`], and the tile wherever that does not run.
#[allow(clippy::too_many_arguments)]
fn samples_tile_scalar<const R: usize>(
    a: &[f32],
    sa: usize,
    k: usize,
    panel: &[f32],
    samples: usize,
    c: &mut [f32],
    n: usize,
    w: usize,
) {
    let mut tile = [[0.0f32; NR]; R];
    for (r, lanes) in tile.iter_mut().enumerate() {
        lanes[..w].copy_from_slice(&c[r * n..][..w]);
    }
    for s in 0..samples {
        let a_s = &a[s * sa..];
        let mut acc = [[0.0f32; NR]; R];
        for (kk, bv) in panel[s * k * NR..][..k * NR].chunks_exact(NR).enumerate() {
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = a_s[r * k + kk];
                for (x, &bl) in lanes.iter_mut().zip(bv) {
                    *x += av * bl;
                }
            }
        }
        for (t, x) in tile.iter_mut().zip(&acc) {
            for (tv, &xv) in t.iter_mut().zip(x) {
                *tv += xv;
            }
        }
    }
    for (r, lanes) in tile.iter().enumerate() {
        c[r * n..][..w].copy_from_slice(&lanes[..w]);
    }
}

/// AVX2 fused tile: [`samples_tile_scalar`] with the `R×NR` tile of `c`
/// held in registers across every sample — loaded once, stored once.
/// Per sample a zeroed accumulator tile takes `k` steps of separate
/// multiply and add (never FMA), then is added into the `c` tile, so every
/// live lane computes the scalar tile's IEEE-754 sequence. A ragged tile
/// (`w < NR`) loads and stores `c` with masked lanes; `FULL` (`w == NR`)
/// compiles the masks out. Panel rows are always `NR` lanes wide.
///
/// Panics unless `1 <= w <= NR`, `samples >= 1`, `FULL == (w == NR)`, `a`
/// holds element `(samples-1)·sa + (R-1)·k + k-1` (when `k >= 1`), `panel`
/// `samples·k·NR` elements and `c` elements up to `(R-1)·n + w - 1` — the
/// reach its raw loads and stores rely on, checked once per tile.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn samples_tile_avx2<const R: usize, const FULL: bool>(
    a: &[f32],
    sa: usize,
    k: usize,
    panel: &[f32],
    samples: usize,
    c: &mut [f32],
    n: usize,
    w: usize,
) {
    use core::arch::x86_64::*;
    assert!((1..=NR).contains(&w) && samples >= 1 && FULL == (w == NR));
    assert!(
        k == 0 || (samples - 1) * sa + R * k <= a.len(),
        "last A element"
    );
    assert!(samples * k * NR <= panel.len(), "last panel element");
    assert!((R - 1) * n + w <= c.len(), "last C element");
    let live = _mm256_set1_epi32(w as i32);
    let mask_lo = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mask_hi = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
    let cp = c.as_mut_ptr();
    let mut c_lo = [_mm256_setzero_ps(); R];
    let mut c_hi = [_mm256_setzero_ps(); R];
    for r in 0..R {
        // SAFETY: lane 0 of every tile row is live (`w >= 1`) and the last
        // row's last live lane is inside `c` (asserted above), so each row
        // pointer is in bounds; `row.add(8)` is formed only when lane 8 is
        // live. Masked-out lanes are not accessed and load 0.0.
        let row = cp.add(r * n);
        c_lo[r] = if FULL || w >= 8 {
            _mm256_loadu_ps(row)
        } else {
            _mm256_maskload_ps(row, mask_lo)
        };
        c_hi[r] = if FULL {
            _mm256_loadu_ps(row.add(8))
        } else if w > 8 {
            _mm256_maskload_ps(row.add(8), mask_hi)
        } else {
            _mm256_setzero_ps()
        };
    }
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    for s in 0..samples {
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for kk in 0..k {
            // SAFETY: panel offsets stay below `samples·k·NR` and `A`
            // offsets `s·sa + r·k + kk` at or below the asserted last `A`
            // element.
            let bp = pp.add((s * k + kk) * NR);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for r in 0..R {
                let av = _mm256_set1_ps(*ap.add(s * sa + r * k + kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
            }
        }
        for r in 0..R {
            c_lo[r] = _mm256_add_ps(c_lo[r], lo[r]);
            c_hi[r] = _mm256_add_ps(c_hi[r], hi[r]);
        }
    }
    for r in 0..R {
        // SAFETY: the same row pointers as the loads above.
        let row = cp.add(r * n);
        if FULL || w >= 8 {
            _mm256_storeu_ps(row, c_lo[r]);
        } else {
            _mm256_maskstore_ps(row, mask_lo, c_lo[r]);
        }
        if FULL {
            _mm256_storeu_ps(row.add(8), c_hi[r]);
        } else if w > 8 {
            _mm256_maskstore_ps(row.add(8), mask_hi, c_hi[r]);
        }
    }
}

/// Runs one fused `R×NR` tile (lanes `0..w` live), dispatching like
/// [`run_direct_tile`]: AVX2 under the `simd` feature, the scalar tile
/// elsewhere.
#[cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    allow(unused_variables)
)]
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_samples_tile<const R: usize>(
    simd: bool,
    a: &[f32],
    sa: usize,
    k: usize,
    panel: &[f32],
    samples: usize,
    c: &mut [f32],
    n: usize,
    w: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: AVX2 presence checked by the caller; the tile asserts its
        // own reach into `a`, `panel` and `c`.
        unsafe {
            if w == NR {
                samples_tile_avx2::<R, true>(a, sa, k, panel, samples, c, n, w);
            } else {
                samples_tile_avx2::<R, false>(a, sa, k, panel, samples, c, n, w);
            }
        }
        return;
    }
    samples_tile_scalar::<R>(a, sa, k, panel, samples, c, n, w);
}

/// Computes `c += Σ_s a_s · b_sᵀ` over `samples` products, each `a_s`
/// `m×k` and `b_s` `n×k`, into one `m×n` `c`: the convolution weight
/// gradient `dW += Σ_s dY_s · cols_sᵀ`. `a` holds the `a_s` back to back.
/// `b` holds the `b_s` in groups of `group` samples, each group one
/// `[n, g·k]` matrix with its `t`-th sample in columns `t·k..` (the last
/// group may hold fewer): convolution's grouped patch layout, and with
/// `group == 1` simply the `b_s` back to back.
///
/// Bit for bit a loop of [`matmul_nt_with`], one call per sample in sample
/// order. For `k < LANES` that call sums each element from `+0.0` in
/// ascending `k` and adds the sum into `c`; here one pass does the same for
/// every sample with an `MR×NR` tile of `c` held in registers, loaded and
/// stored once per tile rather than once per sample. Its `B` panel is built
/// one column tile at a time (`samples·k·NR` floats in `pack`). For
/// `k >= LANES` (lane-split dot products) the loop itself runs, with a
/// grouped sample's rows first copied out into `pack`.
///
/// # Panics
///
/// Panics when `group` is zero or slice lengths do not match the stated
/// dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_samples_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    samples: usize,
    group: usize,
    m: usize,
    k: usize,
    n: usize,
    pack: &mut PackBuf,
) {
    assert!(group > 0, "sample group must be non-empty");
    assert_eq!(a.len(), samples * m * k, "lhs length");
    assert_eq!(b.len(), samples * n * k, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    if samples == 0 || m == 0 || n == 0 {
        return;
    }
    if k >= LANES {
        let mut rows = core::mem::take(&mut pack.t);
        for s in 0..samples {
            let b_s = sample_rows(b, s, group, samples, n, k, &mut rows);
            matmul_nt_with(&a[s * m * k..][..m * k], b_s, c, m, k, n, pack);
        }
        pack.t = rows;
        return;
    }
    let simd = simd_tiles_available();
    ensure_len(&mut pack.b, samples * k * NR);
    let panel = &mut pack.b[..samples * k * NR];
    let sa = m * k;
    for j in (0..n).step_by(NR) {
        let w = NR.min(n - j);
        pack_samples_panel(b, samples, group, k, n, j, w, panel);
        let mut i = 0;
        while i < m {
            let r = MR.min(m - i);
            let (a, c) = (&a[i * k..], &mut c[i * n + j..]);
            match r {
                1 => run_samples_tile::<1>(simd, a, sa, k, panel, samples, c, n, w),
                2 => run_samples_tile::<2>(simd, a, sa, k, panel, samples, c, n, w),
                3 => run_samples_tile::<3>(simd, a, sa, k, panel, samples, c, n, w),
                _ => run_samples_tile::<MR>(simd, a, sa, k, panel, samples, c, n, w),
            }
            i += r;
        }
    }
}

/// Sample `s`'s `n×k` rows out of [`matmul_nt_samples_with`]'s grouped
/// `b`: borrowed when its group holds one sample, else copied into `buf`.
fn sample_rows<'a>(
    b: &'a [f32],
    s: usize,
    group: usize,
    samples: usize,
    n: usize,
    k: usize,
    buf: &'a mut Vec<f32>,
) -> &'a [f32] {
    let s0 = s - s % group;
    let gk = group.min(samples - s0) * k;
    let block = &b[s0 * n * k..][..n * gk];
    if gk == k {
        return block;
    }
    ensure_len(buf, n * k);
    for (dst, row) in buf.chunks_exact_mut(k).zip(block.chunks_exact(gk)) {
        dst.copy_from_slice(&row[(s - s0) * k..][..k]);
    }
    &buf[..n * k]
}

/// Naive triple-loop reference kernels plus ordered-reduction references.
///
/// The naive kernels are the approximate-correctness oracle for the packed
/// kernels above; the `*_ordered` variants replicate the production
/// kernels' exact reduction order (k-blocked partial sums, lane-split dot
/// products) with simple loops, so tests can assert *bitwise* f32 equality.
/// Never call any of them from production code.
pub mod oracle {
    /// `C = A · B` by the textbook i-j-k triple loop.
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    /// `C = Aᵀ · B` with `a` stored `k×m`.
    pub fn matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[kk * m + i] * b[kk * n + j];
                }
            }
        }
        c
    }

    /// `C = A · Bᵀ` with `b` stored `n×k`.
    pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[j * k + kk];
                }
            }
        }
        c
    }

    /// `C = A · B` with the production reduction order: per-element partial
    /// sums over each `KC`-deep k-block, accumulated left to right. Bitwise
    /// equal to [`super::matmul_into`] on a zeroed output.
    pub fn matmul_ordered(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for kb in (0..k).step_by(super::KC) {
            let ke = (kb + super::KC).min(k);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in kb..ke {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    /// `C = Aᵀ · B` with the production reduction order (k-blocked partial
    /// sums). Bitwise equal to [`super::matmul_tn`] on a zeroed output.
    pub fn matmul_tn_ordered(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for kb in (0..k).step_by(super::KC) {
            let ke = (kb + super::KC).min(k);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in kb..ke {
                        acc += a[kk * m + i] * b[kk * n + j];
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    /// `C = A · Bᵀ` with the production reduction order: `LANES` independent
    /// lanes over the chunked prefix, a left-to-right horizontal sum, then
    /// the sequential tail. Bitwise equal to [`super::matmul_nt`] on a
    /// zeroed output.
    pub fn matmul_nt_ordered(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        const LANES: usize = super::LANES;
        let chunks = k / LANES;
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut lanes = [0.0f32; LANES];
                for t in 0..chunks {
                    for (l, x) in lanes.iter_mut().enumerate() {
                        *x += a[i * k + t * LANES + l] * b[j * k + t * LANES + l];
                    }
                }
                let mut sum = 0.0f32;
                for &x in &lanes {
                    sum += x;
                }
                for kk in chunks * LANES..k {
                    sum += a[i * k + kk] * b[j * k + kk];
                }
                c[i * n + j] = sum;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::zeros(&[3]).matmul(&b).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]).unwrap();
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        // Sizes chosen to straddle both the row/column tiles and the k-block.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 66, 67),
            (2, 130, 3),
            (4, 257, 16),
            (5, 300, 17),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 13) as f32) - 6.0).collect();
            let mut c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            let expected = oracle::matmul(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-3, "mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let (k, m, n) = (4, 3, 5);
        let a: Vec<f32> = (0..k * m).map(|i| i as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * 0.25 - 1.0).collect();
        // Explicit transpose of a (k×m → m×k).
        let mut at = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                at[i * k + kk] = a[kk * m + i];
            }
        }
        let expected = oracle::matmul(&at, &b, m, k, n);
        let mut c = vec![0.0; m * n];
        matmul_tn(&a, &b, &mut c, k, m, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..n * k).map(|i| i as f32 * 0.25 - 1.0).collect();
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b[j * k + kk];
            }
        }
        let expected = oracle::matmul(&a, &bt, m, k, n);
        let mut c = vec![0.0; m * n];
        matmul_nt(&a, &b, &mut c, m, k, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        // All three kernels are `c +=`, not `c =`.
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [100.0f32; 4];
        matmul_into(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [119.0, 122.0, 143.0, 150.0]);
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn packed_bitwise_matches_ordered_oracle() {
        // Shapes straddle every boundary: MR/NR tails, k-block edges, the
        // LANES remainder, and the 4-wide NT column tiles.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 17, 3),
            (4, 256, 16),
            (7, 257, 19),
            (13, 300, 33),
            (65, 66, 67),
        ] {
            let a = fill(m * k, (m * 1000 + k * 10 + n) as u64);
            let b_nn = fill(k * n, (n * 1000 + m) as u64);
            let mut c = vec![0.0f32; m * n];
            matmul_into(&a, &b_nn, &mut c, m, k, n);
            assert_eq!(
                c,
                oracle::matmul_ordered(&a, &b_nn, m, k, n),
                "{m}x{k}x{n} nn"
            );

            let a_tn = fill(k * m, (m + k + n) as u64);
            let mut c = vec![0.0f32; m * n];
            matmul_tn(&a_tn, &b_nn, &mut c, k, m, n);
            assert_eq!(
                c,
                oracle::matmul_tn_ordered(&a_tn, &b_nn, k, m, n),
                "{m}x{k}x{n} tn"
            );

            let b_nt = fill(n * k, (k * 7 + 3) as u64);
            let mut c = vec![0.0f32; m * n];
            matmul_nt(&a, &b_nt, &mut c, m, k, n);
            assert_eq!(
                c,
                oracle::matmul_nt_ordered(&a, &b_nt, m, k, n),
                "{m}x{k}x{n} nt"
            );
        }
    }

    #[test]
    fn pack_buf_reuse_across_shapes() {
        // One PackBuf serving shrinking and growing shapes must not leak
        // stale panel data between calls.
        let mut pack = PackBuf::new();
        for &(m, k, n) in &[(9, 280, 21), (2, 3, 2), (33, 64, 47), (1, 500, 1)] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            matmul_into_with(&a, &b, &mut c, m, k, n, &mut pack);
            assert_eq!(c, oracle::matmul_ordered(&a, &b, m, k, n));

            let b_nt = fill(n * k, 3);
            let mut c = vec![0.0f32; m * n];
            matmul_nt_with(&a, &b_nt, &mut c, m, k, n, &mut pack);
            assert_eq!(c, oracle::matmul_nt_ordered(&a, &b_nt, m, k, n));
        }
    }
}
