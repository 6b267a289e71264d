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
//! registers across a k-block, touching `C` once per k-block. Each tile
//! body is written once, over a 16-lane row type (`Row`), and runs at the
//! widest width the CPU has, chosen at run time once per kernel call
//! (`Isa`): with the `simd` cargo feature on x86_64, one `__m512` per row
//! in 8-row tiles on AVX-512 or two `__m256` per row in 4-row tiles on
//! AVX2; otherwise a `[f32; 16]` row in 4-row tiles, which LLVM
//! autovectorises. Every width uses *separate* multiply and add — never
//! FMA — in the same operand order, so each lane computes the same
//! IEEE-754 sequence at any width and the results stay bit-deterministic.
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
/// Columns of `C` accumulated per micro-kernel invocation: the register
/// tile's width, one 16-lane row — one `zmm` register on AVX-512, two `ymm`
/// on AVX2. The tile's row count (`MR`) follows the register file: 4 rows
/// (eight `ymm` accumulators of 16) on AVX2 and the scalar tile, 8 rows
/// (eight `zmm` accumulators of 32, eight independent add chains) on
/// AVX-512. A product narrower than `NR` columns leaves the rest of the
/// tile's lanes idle, so callers that can widen `n` (convolution groups its
/// samples' patches) size their products to at least this.
pub const NR: usize = 16;
/// Lane width for the dot-product (`NT`) kernel accumulators: one 16-lane
/// row per dot product — one `zmm`, or two `ymm` — so a 4-wide column tile
/// runs four (AVX-512) or eight (AVX2) independent multiply-add chains.
const LANES: usize = NR;

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
    /// The tile width the tests run, in place of the host's widest.
    #[cfg(test)]
    isa: Option<Isa>,
}

impl PackBuf {
    /// Creates an empty packing buffer; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tile width for one kernel call: the host's widest
    /// ([`Isa::host`]), or the tests' pick.
    fn isa(&self) -> Isa {
        #[cfg(test)]
        if let Some(isa) = self.isa {
            return isa;
        }
        Isa::host()
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

/// The `len`-element window of `v` that starts on a 64-byte boundary,
/// growing `v` to hold it: every 16-lane panel row is then one cache line,
/// which a full-width `zmm` load reads without a line split. The same `v`
/// and `len` give the same window until `v` grows.
fn aligned(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    ensure_len(v, len + 15);
    let skip = (v.as_ptr() as usize).wrapping_neg() % 64 / 4;
    &mut v[skip..][..len]
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
/// Packing wins once the column count is ragged past one tile (packed
/// tiles zero-pad the tail lanes once; the direct schedule re-reads its
/// masked tail tile strided per row block) or the `B` k-slab grows past
/// 128 KiB. Below that the raw slab streams from L1 or L2 row by row, and
/// the pack writes are pure overhead — the direct register tiles, ragged
/// ones masked, are faster. That holds for products narrower than one
/// tile too: the logistic-regression head's 10 columns run the masked
/// direct tile, which beat packing them and needs no pack panels in any
/// workspace.
///
/// Minimum µs per call, AVX-512 / AVX2 tiles, alternated in one binary
/// (2-vCPU Xeon, 3 × 40 × 50 calls; 28 × 28 CNN = the paper's input size):
///
/// | product | slab | packed | direct |
/// |---|---|---|---|
/// | NN 16 × 256 × 32 | 32 KiB | 7.9 / 9.0 | 3.5 / 4.7 |
/// | NN 128 × 256 × 32 | 32 KiB | 47.2 / 57.0 | 27.5 / 35.9 |
/// | TN 16 × 256 × 32 | 2 KiB | 6.0 / 9.4 | 4.4 / 6.3 |
/// | NN 16 × 256 × 64 | 64 KiB | 19.7 / 16.1 | 13.2 / 10.0 |
/// | NN 32 × 256 × 128 | 128 KiB | 42.4 / 52.4 | 30.1 / 38.4 |
/// | 28 × 28 conv1 NN 20 × 25 × 576 | 56 KiB | 13.0 / 15.5 | 9.1 / 12.7 |
/// | 28 × 28 conv2 NN 50 × 500 × 64 | 64 KiB | 65.9 / 83.0 | 44.4 / 60.3 |
///
/// The limit is the largest slab measured. Every product of the 16 × 16
/// CNN, the MLP and the logistic regression keeps the schedule it had at
/// 32 KiB: none has a whole-tile `n` with a slab between the two limits.
fn worth_packing(k: usize, n: usize) -> bool {
    let slab_bytes = k.min(KC) * n * core::mem::size_of::<f32>();
    slab_bytes > 128 * 1024 || (n > NR && !n.is_multiple_of(NR))
}

/// Packs the `kb..ke` k-slab of row-major `b` (`k×n`) into contiguous
/// `kc×NR` column tiles; tail lanes beyond `n` are zero-filled so the
/// micro-kernel always streams full `NR`-wide rows.
fn pack_b_panels(b: &[f32], kb: usize, ke: usize, n: usize, out: &mut Vec<f32>) {
    let kc = ke - kb;
    let tiles = n.div_ceil(NR);
    let out = aligned(out, tiles * kc * NR);
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
// Register tiles: one body per kernel, one row type per instruction set
// ---------------------------------------------------------------------------

/// The instruction set the register tiles run on: detected once per kernel
/// call by [`Isa::host`] and threaded down, since the cached feature probe
/// is cheap but not free in a per-tile loop. Private to this module, whose
/// code creates an x86 value only after detecting its features — the
/// condition [`Isa::run`]'s `unsafe` dispatch relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// `[f32; 16]` rows: every CPU, and the bits every width reproduces.
    Scalar,
    /// `[__m256; 2]` rows.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// `__m512` rows.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
}

impl Isa {
    /// The widest width this CPU runs; scalar without the `simd` feature
    /// and off x86_64.
    fn host() -> Isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }

    /// Rows of the next register tile with `left` rows of `C` to go: `MR`
    /// while they last, then 4, 3, 2 or 1 — the row counts `with_rows!`
    /// compiles. `MR` is 8 on AVX-512, whose 32 `zmm` registers hold eight
    /// one-register accumulator rows (eight independent add chains) and
    /// the operands; 4 on the two-register AVX2 rows and the scalar tile.
    /// Rows are independent, so the split never touches a bit.
    fn tile_rows(self, left: usize) -> usize {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if self == Isa::Avx512 && left >= 8 {
            return 8;
        }
        left.min(4)
    }

    /// Runs `tile`'s body on this ISA's row type.
    #[inline]
    fn run<T: Tile>(self, tile: T) -> T::Out {
        // SAFETY: an x86 `Isa` exists only after `host` (or the tests)
        // detected its features on this CPU.
        unsafe {
            match self {
                Isa::Scalar => tile.run::<[f32; NR]>(),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                Isa::Avx2 => x86::on_avx2(tile),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                Isa::Avx512 => x86::on_avx512(tile),
            }
        }
    }
}

/// Evaluates `$body` with the const `$R` set to the tile row count `$r`
/// (one of [`Isa::tile_rows`]'s 1, 2, 3, 4 or 8).
#[rustfmt::skip]
macro_rules! with_rows {
    ($r:expr, $R:ident => $body:expr) => {
        match $r {
            1 => { const $R: usize = 1; $body }
            2 => { const $R: usize = 2; $body }
            3 => { const $R: usize = 3; $body }
            4 => { const $R: usize = 4; $body }
            _ => { const $R: usize = 8; $body }
        }
    };
}

/// One 16-lane row of a register tile on one instruction set. Each method
/// is one lane-wise IEEE-754 operation — multiply and add stay separate,
/// never fused — so a tile body computes the same bits over any row type.
///
/// # Safety
///
/// Every method may only run where the row type's instruction set is
/// available. `load` and `store` need lanes `0..NR` (with `FULL`) or
/// `0..w` in bounds of `p`; lanes past `w` are neither read nor written,
/// and load as 0.0.
trait Row: Copy {
    unsafe fn zero() -> Self;
    /// Every lane `x`: the broadcast `A` element.
    unsafe fn splat(x: f32) -> Self;
    unsafe fn add(self, x: Self) -> Self;
    unsafe fn mul(self, x: Self) -> Self;
    /// `self + a·b`: multiply, then add.
    #[inline(always)]
    unsafe fn add_mul(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }
    unsafe fn load<const FULL: bool>(p: *const f32, w: usize) -> Self;
    unsafe fn store<const FULL: bool>(self, p: *mut f32, w: usize);
    /// The left-to-right horizontal sums `((0 + x₀) + x₁) + … + x₁₅` of
    /// four rows.
    unsafe fn hsum4(rows: [Self; 4]) -> [f32; 4];
}

impl Row for [f32; NR] {
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; NR]
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; NR]
    }
    #[inline(always)]
    unsafe fn add(self, x: Self) -> Self {
        core::array::from_fn(|l| self[l] + x[l])
    }
    #[inline(always)]
    unsafe fn mul(self, x: Self) -> Self {
        core::array::from_fn(|l| self[l] * x[l])
    }
    #[inline(always)]
    unsafe fn load<const FULL: bool>(p: *const f32, w: usize) -> Self {
        core::array::from_fn(|l| if FULL || l < w { *p.add(l) } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn store<const FULL: bool>(self, p: *mut f32, w: usize) {
        for (l, &x) in self.iter().enumerate().take(if FULL { NR } else { w }) {
            *p.add(l) = x;
        }
    }
    #[inline(always)]
    unsafe fn hsum4(rows: [Self; 4]) -> [f32; 4] {
        rows.map(|row| row.into_iter().fold(0.0, |sum, x| sum + x))
    }
}

/// A register tile's body, written once over the row type and run at one
/// ISA by [`Isa::run`].
trait Tile {
    type Out;
    /// # Safety
    ///
    /// `V`'s instruction set must be available.
    unsafe fn run<V: Row>(self) -> Self::Out;
}

/// The NN / TN register tile over one k-slab: `c += A·B` on lanes `0..cw`
/// of `R` rows of `C`. Each element's product is summed from 0.0 with `kk`
/// ascending, each step `acc + a·b` with `a` the broadcast, and then added
/// into `c`. `a` starts at the tile's first `A` element, whose `(row, kk)`
/// neighbours sit `rs` / `ks` apart; `b` at its first `B` element, rows `bs`
/// apart with lanes `0..w` live; `c` at its first `C` element, rows `n`
/// apart. Ragged rows (`w` or `cw` below `NR`) load and store masked: the
/// dead lanes read 0.0 and are never written.
///
/// Panics unless `1 <= cw <= w <= NR`, `kc >= 1`, `a` holds element
/// `(R-1)·rs + (kc-1)·ks`, `b` elements `(kc-1)·bs .. (kc-1)·bs + w` and
/// `c` elements up to `(R-1)·n + cw - 1` — the reach its raw loads and
/// stores rely on, checked once per tile.
struct GemmTile<'a, const R: usize> {
    a: &'a [f32],
    rs: usize,
    ks: usize,
    b: &'a [f32],
    bs: usize,
    w: usize,
    c: &'a mut [f32],
    n: usize,
    cw: usize,
    kc: usize,
}

impl<const R: usize> GemmTile<'_, R> {
    /// The k-loop, with the `B` rows' masks compiled out when `FULL`.
    ///
    /// # Safety
    ///
    /// `V`'s instruction set must be available and the reach asserted.
    #[inline(always)]
    unsafe fn acc<V: Row, const FULL: bool>(&self) -> [V; R] {
        let mut acc = [V::zero(); R];
        let (ap, bp) = (self.a.as_ptr(), self.b.as_ptr());
        for kk in 0..self.kc {
            // SAFETY: every `A` offset `r·rs + kk·ks` is at most the
            // asserted last `A` element. Lane 0 of every `B` row is live
            // (`w >= 1`) and the last row's last live lane is inside `b`, so
            // each row pointer is in bounds and its live lanes are readable.
            let bv = V::load::<FULL>(bp.add(kk * self.bs), self.w);
            for (r, x) in acc.iter_mut().enumerate() {
                *x = x.add_mul(V::splat(*ap.add(r * self.rs + kk * self.ks)), bv);
            }
        }
        acc
    }
}

impl<const R: usize> Tile for GemmTile<'_, R> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Row>(self) {
        let (rs, ks, bs, w, n, cw, kc) =
            (self.rs, self.ks, self.bs, self.w, self.n, self.cw, self.kc);
        assert!((1..=w).contains(&cw) && w <= NR && kc >= 1);
        assert!(
            (R - 1) * rs + (kc - 1) * ks < self.a.len(),
            "last A element"
        );
        assert!((kc - 1) * bs + w <= self.b.len(), "last B element");
        assert!((R - 1) * n + cw <= self.c.len(), "last C element");
        let acc = if w == NR {
            self.acc::<V, true>()
        } else {
            self.acc::<V, false>()
        };
        let cp = self.c.as_mut_ptr();
        for (r, x) in acc.into_iter().enumerate() {
            // SAFETY: lane 0 of every `C` row is live (`cw >= 1`) and the
            // last row's last live lane is inside `c` (asserted above).
            let row = cp.add(r * n);
            if cw == NR {
                V::load::<true>(row, NR).add(x).store::<true>(row, NR);
                continue;
            }
            // A ragged edge adds lane by lane: masked stores cost more.
            let mut lanes = [0.0f32; NR];
            x.store::<true>(lanes.as_mut_ptr(), NR);
            for (l, &v) in lanes.iter().enumerate().take(cw) {
                *row.add(l) += v;
            }
        }
    }
}

/// [`GemmTile`] over packed panels — `A` rows 1 apart, `kk` steps `R`
/// apart, `B` rows `NR` apart, every lane live — with those strides
/// constant, so the packed loop compiles like a dedicated one.
struct PackedTile<'a, const R: usize> {
    a: &'a [f32],
    b: &'a [f32],
    c: &'a mut [f32],
    n: usize,
    cw: usize,
    kc: usize,
}

impl<const R: usize> Tile for PackedTile<'_, R> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Row>(self) {
        let (a, b, c, n, cw, kc) = (self.a, self.b, self.c, self.n, self.cw, self.kc);
        let (rs, ks, bs, w) = (1, R, NR, NR);
        GemmTile::<R> {
            a,
            rs,
            ks,
            b,
            bs,
            w,
            c,
            n,
            cw,
            kc,
        }
        .run::<V>()
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
    /// The hoisted [`PackBuf::isa`] answer.
    isa: Isa,
}

impl<'a> Gemm<'a> {
    /// Runs the product `KC` slab by slab, one register tile of rows at a
    /// time, packed or direct as [`worth_packing`] decides.
    fn new(a: &'a [f32], lhs: Lhs, b: &'a [f32], m: usize, k: usize, n: usize, isa: Isa) -> Self {
        Gemm {
            a,
            lhs,
            b,
            m,
            k,
            n,
            isa,
        }
    }

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
                let r = self.isa.tile_rows(self.m - i);
                with_rows!(r, R => self.rows::<R>(c, pack, packed, i, kb, ke));
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
        let (kc, n) = (ke - kb, self.n);
        if packed {
            match self.lhs {
                Lhs::RowMajor => pack_a_nn(self.a, i, R, kb, ke, self.k, &mut pack.a),
                Lhs::Transposed => pack_a_tn(self.a, i, R, kb, ke, self.m, &mut pack.a),
            }
            let (a, b_pack) = (
                &pack.a[..kc * R],
                aligned(&mut pack.b, n.div_ceil(NR) * kc * NR),
            );
            for (jt, j) in (0..n).step_by(NR).enumerate() {
                let b = &b_pack[jt * kc * NR..][..kc * NR];
                let (c, cw) = (&mut c[i * n + j..], NR.min(n - j));
                self.isa.run(PackedTile::<R> { a, b, c, n, cw, kc });
            }
            return;
        }
        // Strides of `A`: element `(row, kk)` sits at `a[row·rs + kk·ks]`.
        let (rs, ks) = match self.lhs {
            Lhs::RowMajor => (self.k, 1),
            Lhs::Transposed => (1, self.m),
        };
        let a = &self.a[i * rs + kb * ks..];
        for j in (0..n).step_by(NR) {
            let (b, w, c) = (&self.b[kb * n + j..], NR.min(n - j), &mut c[i * n + j..]);
            let (bs, cw) = (n, w);
            self.isa.run(GemmTile::<R> {
                a,
                rs,
                ks,
                b,
                bs,
                w,
                c,
                n,
                cw,
                kc,
            });
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
    Gemm::new(a, Lhs::RowMajor, b, m, k, n, pack.isa()).run(c, pack);
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
    Gemm::new(a, Lhs::Transposed, b, m, k, n, pack.isa()).run(c, pack);
}

// ---------------------------------------------------------------------------
// NT (A · Bᵀ) kernel
// ---------------------------------------------------------------------------

/// The dot product of `a` and `b_row` in the NT order: [`LANES`]
/// independent lanes over the full chunks, summed left to right, then the
/// sequential `k % LANES` tail. The unpacked fallback for the `n % 4`
/// column tail.
fn nt_dot(a: &[f32], b_row: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (al, bl) in a.chunks_exact(LANES).zip(b_row.chunks_exact(LANES)) {
        for ((x, &av), &bv) in lanes.iter_mut().zip(al).zip(bl) {
            *x += av * bv;
        }
    }
    let tail = a.len() / LANES * LANES;
    let sum = lanes.iter().fold(0.0, |sum, &x| sum + x);
    (tail..a.len()).fold(sum, |sum, kk| sum + a[kk] * b_row[kk])
}

/// Packs full 4-row column tiles of `b` (`n×k`) into chunk-interleaved
/// layout: chunk `t` of tile rows `q∈0..4` lands at `(t*4+q)*LANES`, so the
/// micro-kernel reads one `a` chunk and four adjacent `b` chunks per step.
fn pack_b_nt(b: &[f32], n: usize, k: usize, chunks: usize, out: &mut [f32]) {
    let tiles4 = n / 4;
    let tile_len = chunks * 4 * LANES;
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

/// The NT register tile: four dot products of `a_row` against one packed
/// NT tile over its `chunks` full lane chunks, each split across the
/// [`LANES`] lanes of one row (`acc + a·b`, no FMA) and finished by the
/// left-to-right horizontal sum — [`nt_dot`]'s order, without the
/// `k % LANES` tail.
///
/// Panics unless `a_row` holds `chunks·LANES` and `b_tile`
/// `chunks·4·LANES` elements — the reach its raw loads rely on.
struct NtTile<'a> {
    a_row: &'a [f32],
    b_tile: &'a [f32],
    chunks: usize,
}

impl Tile for NtTile<'_> {
    type Out = [f32; 4];

    #[inline(always)]
    unsafe fn run<V: Row>(self) -> [f32; 4] {
        let chunks = self.chunks;
        assert!(chunks * LANES <= self.a_row.len(), "last A element");
        assert!(chunks * 4 * LANES <= self.b_tile.len(), "last B element");
        let mut acc = [V::zero(); 4];
        let (ap, bp) = (self.a_row.as_ptr(), self.b_tile.as_ptr());
        for t in 0..chunks {
            // SAFETY: the chunk offsets stay within the asserted lengths.
            let av = V::load::<true>(ap.add(t * LANES), LANES);
            for (q, x) in acc.iter_mut().enumerate() {
                let bv = V::load::<true>(bp.add((t * 4 + q) * LANES), LANES);
                *x = x.add_mul(av, bv);
            }
        }
        V::hsum4(acc)
    }
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
/// * `k ≥ LANES` — full 4-row column tiles of `b` are packed
///   once into a chunk-interleaved panel (fixing the strided-access penalty
///   of walking four `k`-long rows in parallel) and reused across every row
///   of `a`; with the `simd` feature the per-tile horizontal finish runs
///   in-register.
/// * The last `n % 4` columns — the unpacked `nt_dot` fallback.
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
    let isa = pack.isa();
    let tile_len = chunks * 4 * LANES;
    let panel = aligned(&mut pack.b, n / 4 * tile_len);
    pack_b_nt(b, n, k, chunks, panel);
    for i in 0..m {
        let a_row = &a[i * k..][..k];
        let c_row = &mut c[i * n..][..n];
        let mut j = 0;
        while j + 4 <= n {
            let b_tile = &panel[(j / 4) * tile_len..][..tile_len];
            let mut d = isa.run(NtTile {
                a_row,
                b_tile,
                chunks,
            });
            let tail = chunks * LANES;
            if tail < k {
                // The sequential `k % LANES` tail, from the raw `b` rows.
                for (q, sum) in d.iter_mut().enumerate() {
                    let b_row = &b[(j + q) * k..][..k];
                    for (&av, &bv) in a_row[tail..].iter().zip(&b_row[tail..]) {
                        *sum += av * bv;
                    }
                }
            }
            for (cv, &x) in c_row[j..j + 4].iter_mut().zip(&d) {
                *cv += x;
            }
            j += 4;
        }
        for (j, cv) in c_row.iter_mut().enumerate().skip(j) {
            *cv += nt_dot(a_row, &b[j * k..][..k]);
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

/// The fused per-sample weight-gradient tile: lanes `0..w` of the `R×NR`
/// tile of `c` that starts at `c[0]` (rows `n` apart), held in registers
/// across every sample — loaded once, stored once. Per sample a zeroed
/// accumulator tile takes `k` steps of `acc + a·b` (`kk` ascending, no
/// FMA) and is then added into the `c` tile, in sample order — the bits of
/// one `c +=` per sample. `a` starts at sample 0's first tile row (samples
/// `sa` apart, rows `k` apart); `panel` is [`pack_samples_panel`]'s, its
/// rows always `NR` lanes wide. A ragged tile (`w < NR`) loads and stores
/// `c` masked, once per tile.
///
/// Panics unless `1 <= w <= NR`, `samples >= 1`, `a`
/// holds element `(samples-1)·sa + (R-1)·k + k-1` (when `k >= 1`), `panel`
/// `samples·k·NR` elements and `c` elements up to `(R-1)·n + w - 1` — the
/// reach its raw loads and stores rely on, checked once per tile.
struct SamplesTile<'a, const R: usize> {
    a: &'a [f32],
    sa: usize,
    k: usize,
    panel: &'a [f32],
    samples: usize,
    c: &'a mut [f32],
    n: usize,
    w: usize,
}

impl<const R: usize> Tile for SamplesTile<'_, R> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Row>(self) {
        let (sa, k, samples, n, w) = (self.sa, self.k, self.samples, self.n, self.w);
        assert!((1..=NR).contains(&w) && samples >= 1);
        assert!(
            k == 0 || (samples - 1) * sa + R * k <= self.a.len(),
            "last A element"
        );
        assert!(samples * k * NR <= self.panel.len(), "last panel element");
        assert!((R - 1) * n + w <= self.c.len(), "last C element");
        let cp = self.c.as_mut_ptr();
        let mut tile = [V::zero(); R];
        for (r, t) in tile.iter_mut().enumerate() {
            // SAFETY: lane 0 of every tile row is live (`w >= 1`) and the
            // last row's last live lane is inside `c` (asserted above), so
            // each row pointer is in bounds and its live lanes readable.
            *t = V::load::<false>(cp.add(r * n), w);
        }
        let (ap, pp) = (self.a.as_ptr(), self.panel.as_ptr());
        for s in 0..samples {
            let mut acc = [V::zero(); R];
            for kk in 0..k {
                // SAFETY: panel offsets stay below `samples·k·NR` and `A`
                // offsets `s·sa + r·k + kk` at or below the asserted last
                // `A` element.
                let bv = V::load::<true>(pp.add((s * k + kk) * NR), NR);
                for (r, x) in acc.iter_mut().enumerate() {
                    *x = x.add_mul(V::splat(*ap.add(s * sa + r * k + kk)), bv);
                }
            }
            for (t, x) in tile.iter_mut().zip(acc) {
                *t = t.add(x);
            }
        }
        for (r, t) in tile.into_iter().enumerate() {
            // SAFETY: the same row pointers as the loads above.
            t.store::<false>(cp.add(r * n), w);
        }
    }
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
    let isa = pack.isa();
    let panel = aligned(&mut pack.b, samples * k * NR);
    let sa = m * k;
    for j in (0..n).step_by(NR) {
        let w = NR.min(n - j);
        pack_samples_panel(b, samples, group, k, n, j, w, panel);
        let panel = &*panel;
        let mut i = 0;
        while i < m {
            let r = isa.tile_rows(m - i);
            let (a, c) = (&a[i * k..], &mut c[i * n + j..]);
            with_rows!(r, R => {
                isa.run(SamplesTile::<R> { a, sa, k, panel, samples, c, n, w })
            });
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

/// The x86 row types and the `#[target_feature]` entries that compile a
/// tile's `#[inline(always)]` body, with every row method inlined, to
/// straight `ymm` / `zmm` code.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{Row, Tile};
    use core::arch::x86_64::*;

    /// Runs `tile` on `[__m256; 2]` rows (lanes `0..8`, `8..16`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn on_avx2<T: Tile>(tile: T) -> T::Out {
        tile.run::<[__m256; 2]>()
    }

    /// Runs `tile` on `__m512` rows.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn on_avx512<T: Tile>(tile: T) -> T::Out {
        tile.run::<__m512>()
    }

    /// Lane masks for the two halves of a `w`-lane row. Loop-invariant in
    /// every tile, so it is computed once per tile, not per load.
    #[inline(always)]
    unsafe fn halves_mask(w: usize) -> [__m256i; 2] {
        let live = _mm256_set1_epi32(w as i32);
        [
            _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            _mm256_cmpgt_epi32(live, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15)),
        ]
    }

    impl Row for [__m256; 2] {
        #[inline(always)]
        unsafe fn zero() -> Self {
            [_mm256_setzero_ps(); 2]
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            [_mm256_set1_ps(x); 2]
        }
        #[inline(always)]
        unsafe fn add(self, x: Self) -> Self {
            [_mm256_add_ps(self[0], x[0]), _mm256_add_ps(self[1], x[1])]
        }
        #[inline(always)]
        unsafe fn mul(self, x: Self) -> Self {
            [_mm256_mul_ps(self[0], x[0]), _mm256_mul_ps(self[1], x[1])]
        }
        #[inline(always)]
        unsafe fn load<const FULL: bool>(p: *const f32, w: usize) -> Self {
            // `p.add(8)` is formed only when lane 8 is live, so in bounds;
            // `_mm256_maskload_ps` does not access masked-out lanes.
            let mask = halves_mask(w);
            let lo = if FULL || w >= 8 {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, mask[0])
            };
            let hi = if FULL {
                _mm256_loadu_ps(p.add(8))
            } else if w > 8 {
                _mm256_maskload_ps(p.add(8), mask[1])
            } else {
                _mm256_setzero_ps()
            };
            [lo, hi]
        }
        #[inline(always)]
        unsafe fn store<const FULL: bool>(self, p: *mut f32, w: usize) {
            let mask = halves_mask(w);
            if FULL || w >= 8 {
                _mm256_storeu_ps(p, self[0]);
            } else {
                _mm256_maskstore_ps(p, mask[0], self[0]);
            }
            if FULL {
                _mm256_storeu_ps(p.add(8), self[1]);
            } else if w > 8 {
                _mm256_maskstore_ps(p.add(8), mask[1], self[1]);
            }
        }
        /// Transposes the four rows' 4 × 4 blocks with shuffles so one SSE
        /// lane per row walks the left-to-right sum: 16 sequential vector
        /// adds in place of 60 scalar ones.
        #[inline(always)]
        unsafe fn hsum4(rows: [Self; 4]) -> [f32; 4] {
            let mut s = _mm_setzero_ps();
            for half in [rows.map(|r| r[0]), rows.map(|r| r[1])] {
                // `cols[c]` holds lane column `c` of the half's first 4 × 4
                // block in its low 128 bits and column `c + 4` in its high.
                let u0 = _mm256_unpacklo_ps(half[0], half[1]);
                let u1 = _mm256_unpackhi_ps(half[0], half[1]);
                let u2 = _mm256_unpacklo_ps(half[2], half[3]);
                let u3 = _mm256_unpackhi_ps(half[2], half[3]);
                let cols = [
                    _mm256_shuffle_ps(u0, u2, 0b0100_0100),
                    _mm256_shuffle_ps(u0, u2, 0b1110_1110),
                    _mm256_shuffle_ps(u1, u3, 0b0100_0100),
                    _mm256_shuffle_ps(u1, u3, 0b1110_1110),
                ];
                for &col in &cols {
                    s = _mm_add_ps(s, _mm256_castps256_ps128(col));
                }
                for &col in &cols {
                    s = _mm_add_ps(s, _mm256_extractf128_ps(col, 1));
                }
            }
            let mut out = [0.0f32; 4];
            _mm_storeu_ps(out.as_mut_ptr(), s);
            out
        }
    }

    impl Row for __m512 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn add(self, x: Self) -> Self {
            _mm512_add_ps(self, x)
        }
        #[inline(always)]
        unsafe fn mul(self, x: Self) -> Self {
            _mm512_mul_ps(self, x)
        }
        #[inline(always)]
        unsafe fn load<const FULL: bool>(p: *const f32, w: usize) -> Self {
            // Masked-out lanes are not accessed: no read, no fault.
            if FULL {
                _mm512_loadu_ps(p)
            } else {
                _mm512_maskz_loadu_ps(((1u32 << w) - 1) as __mmask16, p)
            }
        }
        #[inline(always)]
        unsafe fn store<const FULL: bool>(self, p: *mut f32, w: usize) {
            if FULL {
                _mm512_storeu_ps(p, self);
            } else {
                _mm512_mask_storeu_ps(p, ((1u32 << w) - 1) as __mmask16, self);
            }
        }
        /// The 4 × 4 transposes of the rows' 128-bit quarters put lane
        /// column `4q + c` of all four rows in quarter `q` of `cols[c]`;
        /// one SSE lane per row then walks the left-to-right sum.
        #[inline(always)]
        unsafe fn hsum4(rows: [Self; 4]) -> [f32; 4] {
            let u0 = _mm512_unpacklo_ps(rows[0], rows[1]);
            let u1 = _mm512_unpackhi_ps(rows[0], rows[1]);
            let u2 = _mm512_unpacklo_ps(rows[2], rows[3]);
            let u3 = _mm512_unpackhi_ps(rows[2], rows[3]);
            let cols = [
                _mm512_shuffle_ps(u0, u2, 0b0100_0100),
                _mm512_shuffle_ps(u0, u2, 0b1110_1110),
                _mm512_shuffle_ps(u1, u3, 0b0100_0100),
                _mm512_shuffle_ps(u1, u3, 0b1110_1110),
            ];
            let mut s = _mm_setzero_ps();
            for &col in &cols {
                s = _mm_add_ps(s, _mm512_castps512_ps128(col));
            }
            for &col in &cols {
                s = _mm_add_ps(s, _mm512_extractf32x4_ps(col, 1));
            }
            for &col in &cols {
                s = _mm_add_ps(s, _mm512_extractf32x4_ps(col, 2));
            }
            for &col in &cols {
                s = _mm_add_ps(s, _mm512_extractf32x4_ps(col, 3));
            }
            let mut out = [0.0f32; 4];
            _mm_storeu_ps(out.as_mut_ptr(), s);
            out
        }
    }
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

    /// Every ISA this CPU runs, scalar first.
    fn host_isas() -> Vec<Isa> {
        let isas = vec![Isa::Scalar];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let isas = {
            let mut isas = isas;
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
            isas
        };
        isas
    }

    /// [`fill`] with signed zeros and subnormals mixed in.
    fn fill_special(len: usize, seed: u64) -> Vec<f32> {
        let special = [0.0, -0.0, 1.0e-40, -3.0e-39];
        let mut v = fill(len, seed);
        for (i, x) in v.iter_mut().enumerate() {
            if let Some(&s) = special.get((i as u64).wrapping_add(seed) as usize % 9) {
                *x = s;
            }
        }
        v
    }

    fn bits(c: &[f32]) -> Vec<u32> {
        c.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that `kernel` writes the same bits into a copy of `c0` at
    /// every ISA the host has, each through its own `PackBuf`.
    fn same_at_every_width(c0: &[f32], what: &str, kernel: impl Fn(&mut [f32], &mut PackBuf)) {
        let mut reference = None;
        for isa in host_isas() {
            let mut pack = PackBuf::new();
            pack.isa = Some(isa);
            let mut c = c0.to_vec();
            kernel(&mut c, &mut pack);
            let reference = reference.get_or_insert_with(|| bits(&c));
            assert!(
                bits(&c) == *reference,
                "{what}: {isa:?} differs from scalar"
            );
        }
    }

    #[test]
    fn every_width_computes_the_same_bits() {
        // `m` straddles both row-tile heights (4 and 8) and 16, `n` covers
        // every ragged width 1–16 and both schedules (160 whole tiles pack
        // past `k` = 204), `k` the KC edge and the NT lane chunks.
        for m in [1, 3, 4, 7, 8, 9, 15, 16, 17] {
            for k in [1, 5, 15, 16, 17, 63, 128, 256, 257, 300] {
                for n in (1..=17).chain([32, 63, 64, 160]) {
                    let seed = (m * 100_000 + k * 100 + n) as u64;
                    let a = fill_special(m * k, seed);
                    let b = fill_special(k * n, seed ^ 1);
                    let c0 = fill_special(m * n, seed ^ 2);
                    let shape = format!("{m}x{k}x{n}");
                    same_at_every_width(&c0, &format!("nn {shape}"), |c, pack| {
                        matmul_into_with(&a, &b, c, m, k, n, pack)
                    });
                    same_at_every_width(&c0, &format!("tn {shape}"), |c, pack| {
                        matmul_tn_with(&a, &b, c, k, m, n, pack)
                    });
                    same_at_every_width(&c0, &format!("nt {shape}"), |c, pack| {
                        matmul_nt_with(&a, &b, c, m, k, n, pack)
                    });
                }
            }
        }
    }

    #[test]
    fn every_width_computes_the_same_sample_product_bits() {
        for (samples, group) in [(1, 1), (4, 1), (5, 2), (3, 4)] {
            for m in [1, 3, 7, 8, 9, 16, 17] {
                for k in [1, 4, 15, 16, 17] {
                    for n in (1..=17).chain([32, 50]) {
                        let seed = (samples * 1_000_000 + m * 10_000 + k * 100 + n) as u64;
                        let a = fill_special(samples * m * k, seed);
                        let b = fill_special(samples * n * k, seed ^ 1);
                        let c0 = fill_special(m * n, seed ^ 2);
                        let what = format!("{samples}/{group} samples of {m}x{k}x{n}");
                        same_at_every_width(&c0, &what, |c, pack| {
                            matmul_nt_samples_with(&a, &b, c, samples, group, m, k, n, pack)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn nt_lanes_finish_left_to_right_at_every_width() {
        // Each dot's 16 lane products are 1e8, -1e8 and small values 1–3
        // that vanish while the 1e8 is in the running sum (its ulp is 8), so
        // the result is the sum of the small values added outside that
        // window. Sixteen dots place the window differently, so a finish
        // that adds the lanes in any other order fails at least one. The
        // `k % LANES` tail is added last.
        let (k, n) = (LANES + 3, 16);
        let a = vec![1.0f32; k];
        let mut b = vec![0.0f32; n * k];
        let mut expected = vec![0.0f32; n];
        for j in 0..n {
            let big = j * 5 % LANES;
            let low = (big + 1 + (2 * j + 3) % (LANES - 1)) % LANES;
            let row = &mut b[j * k..][..k];
            for (l, x) in row.iter_mut().enumerate() {
                *x = match l {
                    _ if l == big => 1e8,
                    _ if l == low => -1e8,
                    _ => (1 + (l + j) % 3) as f32,
                };
            }
            expected[j] = row.iter().fold(0.0, |s, &x| s + x);
            let reversed = row[..LANES].iter().rev().fold(0.0, |s, &x| s + x);
            let reversed = row[LANES..].iter().fold(reversed, |s, &x| s + x);
            assert_ne!(expected[j], reversed, "dot {j} must expose the order");
        }
        for isa in host_isas() {
            let mut pack = PackBuf::new();
            pack.isa = Some(isa);
            let mut c = vec![0.0f32; n];
            matmul_nt_with(&a, &b, &mut c, 1, k, n, &mut pack);
            assert_eq!(bits(&c), bits(&expected), "{isa:?}");
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
