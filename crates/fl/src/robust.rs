//! Byzantine-robust pre-aggregation (ByzFL-style robust aggregators).
//!
//! The [`DefenseGate`](crate::defense::DefenseGate) screens *individually
//! implausible* updates — non-finite values, norm outliers. A colluding
//! adversary defeats it with updates that are plausible one at a time yet
//! poisonous in aggregate (sign-flips preserve norms; little-is-enough
//! shifts stay inside the norm envelope). A [`RobustAggregator`] closes
//! that gap: it runs **between** the gate's screen and the aggregation
//! policy, replacing the screened cohort with a robust estimate of its
//! centre before any [`AggregationPolicy`](crate::runtime::AggregationPolicy)
//! sees it. Because it transforms `Vec<RoundUpdate>` → `Vec<RoundUpdate>`,
//! it composes with every aggregation policy (FedAvg, FedProx, Scaffold,
//! AdaFL) and every wire codec — estimators operate on the decoded dense
//! views, so dense, sparse, quantized and ternary uplinks all feed the
//! same math.
//!
//! # Estimators and breakdown points
//!
//! | method | estimate | tolerates |
//! |---|---|---|
//! | [`RobustMethod::TrimmedMean`] | coordinate-wise mean after dropping the `t` smallest and largest values | `f ≤ t`, `2t < n` |
//! | [`RobustMethod::Median`] | coordinate-wise median | `f < n/2` |
//! | [`RobustMethod::Krum`] | the single update closest to its `n−f−2` nearest neighbours | `2f + 2 < n` |
//! | [`RobustMethod::MultiKrum`] | the `m` best-scored updates, passed through | `2f + 2 < n` |
//! | [`RobustMethod::GeometricMedian`] | Weiszfeld fixed point of Σ‖x − vᵢ‖ | `f < n/2` |
//!
//! # Determinism
//!
//! Every estimator is a pure function of the screened update set: the
//! stage first sorts the cohort by client id, so all floating-point
//! accumulation orders are fixed and the output is **bitwise identical
//! under any permutation of the input** (property-tested). No estimator
//! draws randomness. All comparison-based selection uses
//! [`f32::total_cmp`]/[`f64::total_cmp`], so even non-finite values that
//! slip past a disabled gate order deterministically.
//!
//! # Count, don't sort
//!
//! Trimmed mean and median need two order statistics per coordinate, not
//! an ordering. Each value becomes an integer key that orders exactly as
//! `total_cmp` does. Where the build has the `simd` feature and the CPU
//! AVX2, eight adjacent columns are one register per view, and the key at
//! each wanted rank is found by a 32-step bit-serial count (see
//! `lanes`); elsewhere, and for the last columns short of a whole
//! register, panels of sixteen columns find the boundary ranks with
//! `select_nth_unstable`. Either way the survivors are summed in view
//! order — the same survivor set and the same accumulation order as
//! sorting each column, which [`oracle`] still does so that tests can
//! demand equal bits.
//!
//! The estimators read full-width payloads where they lie, with no dense
//! copy of the cohort. Their results are nonetheless defined on the
//! cohort as an accumulation into zeros loads it, `0.0 + x`: `-0.0` reads
//! as `+0.0` and a signalling NaN reads quiet. The coordinate-wise kernels
//! and [`oracle`] get those bits by reading every value as `x + 0.0`;
//! Krum's distances and the Weiszfeld loop widen to `f64` and subtract,
//! which gives the same result for either load.

use crate::pool::WorkerPool;
use crate::runtime::{RoundUpdate, UpdatePayload};
use adafl_compression::ViewDescriptor;
use std::borrow::Cow;

/// Columns gathered per panel by the coordinate-wise estimators: one
/// 64-byte line of every view row, so the gather reads whole cache lines
/// and the ordered sum runs lane-wise across the panel.
const PANEL: usize = 16;

/// Column blocks queued per pool worker. Workers pull blocks from one
/// shared queue, so a few blocks each let the pool absorb a worker that
/// loses its core mid-stage; one block each would wait for the slowest.
const BLOCKS_PER_WORKER: usize = 4;

/// Fewest cohort values (columns × views) worth one pool dispatch.
const MIN_BLOCK_VALUES: usize = 1 << 13;

/// Which robust estimator replaces the plain weighted mean.
///
/// All parameters are validated by [`RobustAggregator::try_new`].
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RobustMethod {
    /// Coordinate-wise trimmed mean: per coordinate, drop the
    /// `⌊trim_ratio·n⌋` smallest and largest values, average the rest.
    /// `trim_ratio = 0` reproduces the plain unweighted mean bit-for-bit.
    TrimmedMean {
        /// Fraction of the cohort trimmed from **each** end, in `[0, 0.5)`.
        trim_ratio: f64,
    },
    /// Coordinate-wise median. Even cohorts average the two middle values
    /// (the same tie-break as the defense gate's norm screen).
    Median,
    /// Krum (Blanchard et al.): score each update by the summed squared
    /// distance to its `n−f−2` nearest neighbours; pass through the single
    /// lowest-scored update.
    Krum {
        /// Number of Byzantine clients the scores budget for.
        f: usize,
    },
    /// Multi-Krum: pass through the `m` lowest-scored updates (ties broken
    /// by client order). `f = 0, m ≥ n` passes every update through
    /// unchanged, reproducing plain aggregation exactly.
    MultiKrum {
        /// Number of Byzantine clients the scores budget for.
        f: usize,
        /// Number of updates passed through (clamped to the cohort size).
        m: usize,
    },
    /// Geometric median via Weiszfeld iteration, started at the
    /// coordinate-wise mean. `max_iters = 0` reproduces the plain
    /// unweighted mean bit-for-bit.
    GeometricMedian {
        /// Iteration cap (64 is plenty at these dimensions).
        max_iters: usize,
        /// Stop once the iterate moves less than this L2 distance.
        tol: f64,
    },
}

impl RobustMethod {
    /// The method's canonical lowercase name, round-tripping through
    /// [`FromStr`](std::str::FromStr) — the spelling JSON experiment
    /// configs and telemetry fields use.
    pub fn as_str(&self) -> &'static str {
        match self {
            RobustMethod::TrimmedMean { .. } => "trimmed-mean",
            RobustMethod::Median => "median",
            RobustMethod::Krum { .. } => "krum",
            RobustMethod::MultiKrum { .. } => "multi-krum",
            RobustMethod::GeometricMedian { .. } => "geometric-median",
        }
    }
}

impl std::str::FromStr for RobustMethod {
    type Err = String;

    /// Parses `name[:param[:param]]`: a canonical method name
    /// (case-insensitive), then its parameters in declaration order. An
    /// omitted parameter keeps its default: `trimmed-mean` → ratio 0.25,
    /// `krum` → f 1, `multi-krum` → f 1, m 3, `geometric-median` → 64
    /// iterations at tolerance 1e-9.
    ///
    /// # Errors
    ///
    /// An unknown name, a parameter that does not parse or that
    /// [`RobustAggregator::try_new`] refuses, or more parameters than the
    /// method has.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, mut params) = crate::spec::split(s);
        let method = match name.as_str() {
            "trimmed-mean" | "trimmed_mean" => RobustMethod::TrimmedMean {
                trim_ratio: params.next("trim ratio", 0.25)?,
            },
            "median" => RobustMethod::Median,
            "krum" => RobustMethod::Krum {
                f: params.next("f", 1)?,
            },
            "multi-krum" | "multi_krum" => RobustMethod::MultiKrum {
                f: params.next("f", 1)?,
                m: params.next("m", 3)?,
            },
            "geometric-median" | "geometric_median" => RobustMethod::GeometricMedian {
                max_iters: params.next("iteration cap", 64)?,
                tol: params.next("tolerance", 1e-9)?,
            },
            other => {
                return Err(format!(
                    "unknown robust method {other:?}; expected one of \
                     trimmed-mean, median, krum, multi-krum, geometric-median"
                ))
            }
        };
        params.done()?;
        RobustAggregator::try_new(method).map_err(|reason| format!("{s:?}: {reason}"))?;
        Ok(method)
    }
}

impl std::fmt::Display for RobustMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one robust pre-aggregation pass did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustStats {
    /// Updates entering the stage (post-screen).
    pub input: usize,
    /// Updates leaving the stage (1 for blend estimators, `m` for
    /// Multi-Krum).
    pub output: usize,
    /// Updates fully excluded by selection (Krum family); 0 for blend
    /// estimators, which down-weight instead of rejecting.
    pub rejected: usize,
    /// Coordinate entries dropped by trimming (`2t·dim` for trimmed mean).
    pub trimmed_values: u64,
}

/// The robust pre-aggregation stage: validated method + the
/// [`RobustAggregator::pre_aggregate_with`] entry the runtime calls between
/// defense screening and the aggregation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustAggregator {
    method: RobustMethod,
}

impl RobustAggregator {
    /// Wraps a method, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics when `trim_ratio ∉ [0, 0.5)`, `m = 0`, or `tol` is not a
    /// finite non-negative number; [`RobustAggregator::try_new`] returns
    /// the same reason instead.
    pub fn new(method: RobustMethod) -> Self {
        Self::try_new(method).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Wraps a method, validating its parameters.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint when `trim_ratio ∉ [0, 0.5)`,
    /// `m = 0`, or `tol` is not a finite non-negative number.
    pub fn try_new(method: RobustMethod) -> Result<Self, &'static str> {
        match method {
            RobustMethod::TrimmedMean { trim_ratio } if !(0.0..0.5).contains(&trim_ratio) => {
                Err("trim ratio must be in [0, 0.5)")
            }
            RobustMethod::MultiKrum { m: 0, .. } => Err("multi-krum must keep at least one update"),
            RobustMethod::GeometricMedian { tol, .. } if !(tol.is_finite() && tol >= 0.0) => {
                Err("weiszfeld tolerance must be finite and non-negative")
            }
            _ => Ok(RobustAggregator { method }),
        }
    }

    /// The configured method.
    pub fn method(&self) -> &RobustMethod {
        &self.method
    }

    /// Replaces a screened cohort with its robust estimate.
    ///
    /// The cohort is first sorted by client id (the canonical order that
    /// makes every estimator permutation-invariant); the estimator then
    /// reads each update's `dim` values in place, and only a payload that
    /// does not hold them densely (sparse) is expanded to a row. Selection
    /// methods (Krum, Multi-Krum) pass the winning updates through
    /// untouched — original payloads, weights and client ids. Blend
    /// methods (trimmed mean, median, geometric median) synthesize a single
    /// dense update carrying the estimate, attributed to the lowest
    /// surviving client id with weight 1.0 — robust
    /// estimators are deliberately *unweighted*, since sample counts are
    /// self-reported and a Byzantine client would lie about them.
    ///
    /// Cohorts of one update pass through unchanged: no estimator can
    /// out-vote a lone sender.
    ///
    /// Updates are compared only within their coverage group: those that
    /// share a view descriptor are comparable coordinate-for-coordinate at
    /// view width, whereas densifying mixed-width updates would let the
    /// zero padding outside narrow views masquerade as small coordinates
    /// and skew medians and distance rankings. Each group (in order of
    /// first appearance) is unwrapped to its view-local inner payloads,
    /// estimated at its own width and re-wrapped under the shared
    /// descriptor; a group of one passes through — there is nothing to
    /// compare a singleton against. A cohort without views is the single
    /// group at `dim`.
    ///
    /// The estimator's dominant loops (pairwise Krum distances, coordinate
    /// column blocks) fan across `pool`; every job computes a disjoint
    /// output slice with an unchanged per-element reduction order, and [`WorkerPool::scope_run`] collects in
    /// submission order — so results are byte-identical to the serial path
    /// at any pool width.
    pub fn pre_aggregate_with(
        &self,
        dim: usize,
        updates: Vec<RoundUpdate>,
        pool: Option<&WorkerPool>,
    ) -> (Vec<RoundUpdate>, RobustStats) {
        let mut groups: Vec<(Option<ViewDescriptor>, Vec<RoundUpdate>)> = Vec::new();
        for u in updates {
            let key = u.payload.view_descriptor();
            match groups.iter_mut().find(|(k, _)| k.as_ref() == key) {
                Some((_, group)) => group.push(u),
                None => groups.push((key.cloned(), vec![u])),
            }
        }
        let mut out: Vec<RoundUpdate> = Vec::new();
        let mut total = RobustStats::default();
        for (key, group) in groups {
            let width = key.as_ref().map_or(dim, ViewDescriptor::view_len);
            let inner = group.into_iter().map(|u| RoundUpdate {
                payload: match u.payload {
                    UpdatePayload::SubView { inner, .. } => *inner,
                    full => full,
                },
                ..u
            });
            let (estimate, stats) = self.estimate_group(width, inner.collect(), pool);
            total.input += stats.input;
            total.output += stats.output;
            total.rejected += stats.rejected;
            total.trimmed_values += stats.trimmed_values;
            out.extend(estimate.into_iter().map(|u| match &key {
                Some(desc) => RoundUpdate {
                    payload: UpdatePayload::sub_view(desc.clone(), u.payload),
                    ..u
                },
                None => u,
            }));
        }
        (out, total)
    }

    /// The estimator over one coverage group of `dim`-wide payloads.
    fn estimate_group(
        &self,
        dim: usize,
        mut updates: Vec<RoundUpdate>,
        pool: Option<&WorkerPool>,
    ) -> (Vec<RoundUpdate>, RobustStats) {
        let n = updates.len();
        let mut stats = RobustStats {
            input: n,
            output: n,
            ..RobustStats::default()
        };
        if n <= 1 {
            return (updates, stats);
        }
        updates.sort_by_key(|a| a.client);
        let rows: Vec<Cow<'_, [f32]>> =
            updates.iter().map(|u| dense_row(&u.payload, dim)).collect();
        let views: Vec<&[f32]> = rows.iter().map(|row| &**row).collect();

        // Selection methods pass the winners through; blend methods
        // synthesize one unweighted dense estimate under the lowest id.
        let estimate = match self.method {
            RobustMethod::TrimmedMean { trim_ratio } => {
                let trim = trim_count(n, trim_ratio);
                stats.trimmed_values = (2 * trim * dim) as u64;
                coordinate_trimmed_mean_with(&views, trim, pool)
            }
            RobustMethod::Median => coordinate_median_with(&views, pool),
            RobustMethod::GeometricMedian { max_iters, tol } => {
                geometric_median(&views, max_iters, tol)
            }
            RobustMethod::Krum { f } | RobustMethod::MultiKrum { f, .. } => {
                let m = match self.method {
                    RobustMethod::MultiKrum { m, .. } => m,
                    _ => 1, // Krum keeps the single best-scored update.
                };
                let winners = krum_select_with(&views, f, m, pool);
                stats.output = winners.len();
                stats.rejected = n - winners.len();
                return (take_indices(updates, &winners), stats);
            }
        };
        stats.output = 1;
        let blend = RoundUpdate {
            client: updates[0].client,
            payload: UpdatePayload::dense(estimate),
            weight: 1.0,
        };
        (vec![blend], stats)
    }
}

/// The payload as one `dim`-wide row of the cohort matrix: its values in
/// place where it holds them densely at that width, else (sparse)
/// accumulated into zeros.
fn dense_row(payload: &UpdatePayload, dim: usize) -> Cow<'_, [f32]> {
    let values = match payload {
        UpdatePayload::Dense(d) => Some(d.values()),
        UpdatePayload::Quantized { values, .. } | UpdatePayload::Ternary { values, .. } => {
            Some(values.as_slice())
        }
        UpdatePayload::Sparse(_) | UpdatePayload::SubView { .. } => None,
    };
    match values {
        Some(values) if values.len() == dim => Cow::Borrowed(values),
        _ => {
            let mut row = vec![0.0f32; dim];
            payload.add_scaled_into(&mut row, 1.0);
            Cow::Owned(row)
        }
    }
}

/// Updates trimmed from each end for a cohort of `n`: `⌊ratio·n⌋`, clamped
/// so at least one value survives (`2t < n`).
pub fn trim_count(n: usize, ratio: f64) -> usize {
    ((ratio * n as f64).floor() as usize).min(n.saturating_sub(1) / 2)
}

/// Keeps `indices` (ascending positions into `updates`), dropping the rest.
fn take_indices(updates: Vec<RoundUpdate>, indices: &[usize]) -> Vec<RoundUpdate> {
    let mut keep = vec![false; updates.len()];
    for &i in indices {
        keep[i] = true;
    }
    updates
        .into_iter()
        .zip(keep)
        .filter_map(|(u, k)| k.then_some(u))
        .collect()
}

/// Coordinate-wise trimmed mean over equal-length views: per coordinate,
/// the `trim` smallest and largest values are dropped and the survivors
/// averaged **in view order**, so `trim = 0` is bit-identical to a plain
/// sequential mean. Every value is read as `x + 0.0` (see the module
/// docs).
///
/// With a worker pool, columns are split into blocks sized from the
/// dimension and the pool width; each column's math is untouched, so the
/// result is byte-identical at any pool width.
///
/// # Panics
///
/// Panics when `views` is empty or `2·trim ≥ n`.
pub fn coordinate_trimmed_mean_with(
    views: &[&[f32]],
    trim: usize,
    pool: Option<&WorkerPool>,
) -> Vec<f32> {
    let n = views.len();
    assert!(n > 0, "trimmed mean of an empty cohort");
    assert!(2 * trim < n, "trim must leave at least one survivor");
    assert!(
        u32::try_from(n).is_ok(),
        "view index must fit the key's low half"
    );
    let mut estimate = vec![0.0f32; views[0].len()];
    run_columns(pool, n, &mut estimate, &|base, cols| {
        trimmed_mean_columns(views, trim, base, cols)
    });
    estimate
}

/// Maps a float to the integer whose unsigned order is
/// [`f32::total_cmp`]'s: negative floats flip every bit, the rest set the
/// sign bit. Equal keys mean equal bit patterns.
fn order_key(x: f32) -> u32 {
    let bits = x.to_bits();
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`order_key`].
fn key_value(key: u32) -> f32 {
    let flipped = if key >> 31 == 1 {
        0x8000_0000
    } else {
        u32::MAX
    };
    f32::from_bits(key ^ flipped)
}

/// [`order_key`] with the view index in the low half as tie-break: the
/// integer order of these keys is the order of `(value, view)` under
/// `total_cmp` then index, and no two views of a column share a key.
fn tie_key(x: f32, view: usize) -> u64 {
    u64::from(order_key(x)) << 32 | view as u64
}

/// Keys between the starts of two panel columns for a cohort of `n`: the
/// column itself plus a cache line or two, so that the columns of a
/// power-of-two cohort do not all land in the same cache sets.
fn column_stride(n: usize) -> usize {
    n + 16
}

/// Transposes columns `j0..j0 + w` of the cohort matrix into `keys`, so
/// that column `c` of the panel is the contiguous `keys[c·stride..][..n]`
/// with `stride` = [`column_stride`]. Values are loaded as `x + 0.0`.
fn gather_panel<K>(
    views: &[&[f32]],
    j0: usize,
    w: usize,
    keys: &mut [K],
    key: impl Fn(f32, usize) -> K,
) {
    let stride = column_stride(views.len());
    for (i, v) in views.iter().enumerate() {
        for (col, &x) in keys.chunks_exact_mut(stride).zip(&v[j0..j0 + w]) {
            col[i] = key(x + 0.0, i);
        }
    }
}

/// One block of trimmed-mean columns: `cols[off]` receives column
/// `base + off`. Shared by the serial and pooled paths. Whole
/// lane-width panels run the counting kernel where the CPU has it
/// ([`lanes`]); the remaining columns run the select panels below.
fn trimmed_mean_columns(views: &[&[f32]], trim: usize, base: usize, cols: &mut [f32]) {
    let done = lanes::trimmed_mean(views, trim, base, cols);
    trimmed_mean_select(views, trim, base + done, &mut cols[done..]);
}

/// The portable trimmed-mean panel.
///
/// Per column, two `select_nth_unstable` calls over [`tie_key`]s find the
/// smallest and largest surviving key; nothing is sorted. The survivors
/// are then summed in ascending view order (not sorted-value order),
/// which pins the float accumulation order independently of the data — a
/// view outside the bounds adds `+0.0`, which leaves a sum that started
/// at `+0.0` (and so is never `-0.0`) bit-for-bit alone.
fn trimmed_mean_select(views: &[&[f32]], trim: usize, base: usize, cols: &mut [f32]) {
    let n = views.len();
    let kept = n - 2 * trim;
    // Scratch for the whole block; with nothing to trim every key is
    // inside the default bounds and no column needs selecting.
    let stride = column_stride(n);
    let selecting = trim > 0 && !cols.is_empty();
    let mut keys = vec![0u64; if selecting { stride * PANEL } else { 0 }];
    let mut lo = [u64::MIN; PANEL];
    let mut hi = [u64::MAX; PANEL];
    for (p, out) in cols.chunks_mut(PANEL).enumerate() {
        let j0 = base + p * PANEL;
        let w = out.len();
        if trim > 0 {
            gather_panel(views, j0, w, &mut keys, tie_key);
            for (c, col) in keys.chunks_exact_mut(stride).take(w).enumerate() {
                let (_, &mut first, above) = col[..n].select_nth_unstable(trim);
                lo[c] = first;
                hi[c] = match kept {
                    1 => first,
                    _ => *above.select_nth_unstable(kept - 2).1,
                };
            }
        }
        let mut sums = [0.0f32; PANEL];
        for (i, v) in views.iter().enumerate() {
            let row = &v[j0..j0 + w];
            for (((sum, &x), &lo), &hi) in sums.iter_mut().zip(row).zip(&lo).zip(&hi) {
                let x = x + 0.0;
                let key = tie_key(x, i);
                *sum += if lo <= key && key <= hi { x } else { 0.0 };
            }
        }
        for (out, sum) in out.iter_mut().zip(sums) {
            *out = sum / kept as f32;
        }
    }
}

/// Columns per job for a `dim`-column estimate over `n` views: an even
/// split into [`BLOCKS_PER_WORKER`] blocks per worker, but no block so
/// small that dispatching it costs more than computing it, rounded up to
/// whole panels. Without workers the whole estimate is one block.
fn block_cols(dim: usize, n: usize, workers: usize) -> usize {
    if workers == 0 {
        return dim;
    }
    dim.div_ceil(workers * BLOCKS_PER_WORKER)
        .max(MIN_BLOCK_VALUES.div_ceil(n))
        .next_multiple_of(PANEL)
}

/// Runs `work(base, block)` over `out` split into [`block_cols`] column
/// blocks — across the pool when one is provided and the split pays off,
/// inline otherwise. Blocks are disjoint, so the pool changes nothing but
/// wall-clock time.
fn run_columns(
    pool: Option<&WorkerPool>,
    n: usize,
    out: &mut [f32],
    work: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    if out.is_empty() {
        return;
    }
    let block = block_cols(out.len(), n, pool.map_or(0, WorkerPool::workers));
    match pool {
        Some(pool) if block < out.len() => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(block)
                .enumerate()
                .map(|(b, cols)| Box::new(move || work(b * block, cols)) as Box<_>)
                .collect();
            pool.scope_run(jobs);
        }
        _ => work(0, out),
    }
}

/// Coordinate-wise median over equal-length views. Even cohorts average
/// the two middle values — the same symmetric tie-break the defense gate's
/// norm screen uses. Every value is read as `x + 0.0`.
///
/// Column blocks are independent, so the result is byte-identical at any
/// pool width.
///
/// # Panics
///
/// Panics when `views` is empty.
pub fn coordinate_median_with(views: &[&[f32]], pool: Option<&WorkerPool>) -> Vec<f32> {
    let n = views.len();
    assert!(n > 0, "median of an empty cohort");
    let mut estimate = vec![0.0f32; views[0].len()];
    run_columns(pool, n, &mut estimate, &|base, cols| {
        median_columns(views, base, cols)
    });
    estimate
}

/// One block of median columns: `cols[off]` receives column `base + off`.
/// Whole lane-width panels run the counting kernel where the CPU has it;
/// the remaining columns run the select panel.
fn median_columns(views: &[&[f32]], base: usize, cols: &mut [f32]) {
    let done = lanes::median(views, base, cols);
    median_select(views, base + done, &mut cols[done..]);
}

/// The portable median panel.
///
/// Values that compare equal under `total_cmp` are the same bits, so the
/// middle ranks need no tie-break: one `select_nth_unstable` over plain
/// [`order_key`]s places the upper middle, and the lower middle of an
/// even cohort is the largest key left below it.
fn median_select(views: &[&[f32]], base: usize, cols: &mut [f32]) {
    let n = views.len();
    let stride = column_stride(n);
    let mut keys = vec![0u32; if cols.is_empty() { 0 } else { stride * PANEL }];
    for (p, out) in cols.chunks_mut(PANEL).enumerate() {
        gather_panel(views, base + p * PANEL, out.len(), &mut keys, |x, _| {
            order_key(x)
        });
        for (out, col) in out.iter_mut().zip(keys.chunks_exact_mut(stride)) {
            let (below, &mut upper, _) = col[..n].select_nth_unstable(n / 2);
            let upper = key_value(upper);
            *out = if n % 2 == 1 {
                upper
            } else {
                // An even cohort has `n / 2 ≥ 1` keys below the upper middle.
                let lower = below.iter().fold(u32::MIN, |max, &key| max.max(key));
                0.5 * (key_value(lower) + upper)
            };
        }
    }
}

/// The counting kernel: eight adjacent columns as one AVX2 register per
/// view, so that a panel is a plain row load from every view, with no
/// transpose.
///
/// The key at rank `r` of a lane's column is the largest key with at most
/// `r` keys strictly below it. [`lanes::select`] builds it one bit at a
/// time from the top: set the next bit in a candidate, count the keys
/// below the candidate in every lane at once, and keep the bit where that
/// count is at most `r` — 32 counting passes per rank at most, fewer once
/// every lane is done (see [`lanes::select`]). Trimmed mean
/// selects ranks `t` and `n−1−t`; the median selects `⌊n/2⌋`, and an even
/// cohort's lower middle, rank `⌈n/2⌉−1`, takes one more pass.
///
/// Ties stay exact. Trimmed mean's survivors are ranks `t..=n−1−t` of the
/// `(value, view)` order; with `lo`, `hi` the keys at the two boundary
/// ranks, every key strictly between them survives, and of the views whose
/// key equals a boundary the sum pass keeps, in view order, exactly those
/// whose rank lands inside — counting up from the number of keys strictly
/// below that boundary. That is the select panel's survivor set, summed in
/// the same view order with `+0.0` for every other view.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod lanes {
    use std::arch::x86_64::*;

    /// Columns per panel: one register of `f32` lanes.
    const LANES: usize = 8;

    /// Runs the whole lane-width panels of a trimmed-mean block (`cols[off]`
    /// is column `base + off`) and returns how many columns it wrote: none
    /// without AVX2, with nothing to trim, or when the views are not one
    /// width.
    pub(super) fn trimmed_mean(
        views: &[&[f32]],
        trim: usize,
        base: usize,
        cols: &mut [f32],
    ) -> usize {
        let full = panel_columns(views, cols.len());
        if trim == 0 || full == 0 {
            return 0;
        }
        // SAFETY: `panel_columns` found AVX2 and views of one width.
        unsafe { trimmed_mean_avx2(views, trim, base, &mut cols[..full]) };
        full
    }

    /// [`trimmed_mean`]'s twin for the median.
    pub(super) fn median(views: &[&[f32]], base: usize, cols: &mut [f32]) -> usize {
        let full = panel_columns(views, cols.len());
        if full == 0 {
            return 0;
        }
        // SAFETY: `panel_columns` found AVX2 and views of one width.
        unsafe { median_avx2(views, base, &mut cols[..full]) };
        full
    }

    /// The columns of `cols` that whole panels cover, or 0 when the
    /// kernel cannot run: no AVX2, a cohort whose ranks overflow `i32`,
    /// or views of different widths (the panels load every row at the
    /// last row's reach).
    fn panel_columns(views: &[&[f32]], cols: usize) -> usize {
        let Some(last) = views.last() else { return 0 };
        let usable = std::arch::is_x86_feature_detected!("avx2")
            && i32::try_from(views.len()).is_ok()
            && views.iter().all(|v| v.len() == last.len());
        if usable {
            cols / LANES * LANES
        } else {
            0
        }
    }

    /// # Safety
    ///
    /// AVX2 must be available and every view as long as the last.
    #[target_feature(enable = "avx2")]
    unsafe fn trimmed_mean_avx2(views: &[&[f32]], trim: usize, base: usize, cols: &mut [f32]) {
        let n = views.len();
        let kept = _mm256_set1_ps((n - 2 * trim) as f32);
        let mut keys = vec![_mm256_setzero_si256(); n];
        for (p, out) in cols.chunks_exact_mut(LANES).enumerate() {
            gather(views, base + p * LANES, &mut keys);
            let (lo, hi) = (select(&keys, trim), select(&keys, n - 1 - trim));
            let sum = survivor_sum(&keys, lo, hi, trim);
            // SAFETY: `out` is one whole panel, `LANES` floats.
            _mm256_storeu_ps(out.as_mut_ptr(), _mm256_div_ps(sum, kept));
        }
    }

    /// # Safety
    ///
    /// AVX2 must be available and every view as long as the last.
    #[target_feature(enable = "avx2")]
    unsafe fn median_avx2(views: &[&[f32]], base: usize, cols: &mut [f32]) {
        let n = views.len();
        let half = _mm256_set1_ps(0.5);
        let mut keys = vec![_mm256_setzero_si256(); n];
        for (p, out) in cols.chunks_exact_mut(LANES).enumerate() {
            gather(views, base + p * LANES, &mut keys);
            let upper = select(&keys, n / 2);
            let median = if n % 2 == 1 {
                values(upper)
            } else {
                let lower = values(next_below(&keys, upper, n / 2));
                _mm256_mul_ps(half, _mm256_add_ps(lower, values(upper)))
            };
            // SAFETY: `out` is one whole panel, `LANES` floats.
            _mm256_storeu_ps(out.as_mut_ptr(), median);
        }
    }

    /// Loads columns `j0..j0 + LANES` of every view as `x + 0.0` into
    /// `keys`, one register per view, as signed order keys: `i32` order is
    /// [`f32::total_cmp`]'s.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and every view as long as the last.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather(views: &[&[f32]], j0: usize, keys: &mut [__m256i]) {
        let n = views.len();
        assert!(
            keys.len() == n && j0 + LANES <= views[n - 1].len(),
            "last view row and column"
        );
        let zero = _mm256_setzero_ps();
        for (key, v) in keys.iter_mut().zip(views) {
            // SAFETY: every view is as long as the last (the caller's
            // contract) and the last reaches column `j0 + LANES − 1`
            // (asserted above), so all `LANES` floats are inside `v`.
            let x = _mm256_add_ps(_mm256_loadu_ps(v.as_ptr().add(j0)), zero);
            *key = flip(_mm256_castps_si256(x));
        }
    }

    /// Between `f32` bits and signed order keys, both ways: a negative
    /// value flips every bit but the sign. (The unsigned key of
    /// `super::order_key` is this one with the sign bit flipped.)
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn flip(bits: __m256i) -> __m256i {
        _mm256_xor_si256(bits, _mm256_srli_epi32::<1>(_mm256_srai_epi32::<31>(bits)))
    }

    /// The floats whose order keys these are.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn values(keys: __m256i) -> __m256 {
        _mm256_castsi256_ps(flip(keys))
    }

    /// Per lane, the key at `rank` (0-based, ascending) of the column
    /// `keys` holds, by bit-serial counting. The prefix starts at the
    /// smallest key, `i32::MIN`; setting bit `k` of the underlying unsigned
    /// key is `xor` with `1 << k` in this signed form too.
    ///
    /// Before bit `k` is decided a lane's key lies in `at..=at + 2^(k+1) − 1`,
    /// and each pass counts the keys below one end of that interval. A lane
    /// is done once `rank` is the interval's first or last key; when all
    /// are, one min/max pass finishes instead of the remaining bits.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn select(keys: &[__m256i], rank: usize) -> __m256i {
        let rank = _mm256_set1_epi32(rank as i32);
        let (zero, minus_one) = (_mm256_setzero_si256(), _mm256_set1_epi32(-1));
        let (smallest, largest) = (_mm256_set1_epi32(i32::MIN), _mm256_set1_epi32(i32::MAX));
        let mut at = smallest;
        // Minus the counts of keys below `at` and at most the top.
        let (mut below_at, mut to_top) = (zero, _mm256_set1_epi32(-(keys.len() as i32)));
        for bit in (0..32).rev() {
            let first = _mm256_cmpeq_epi32(_mm256_add_epi32(rank, below_at), zero);
            let last = _mm256_cmpeq_epi32(_mm256_add_epi32(rank, to_top), minus_one);
            if _mm256_movemask_epi8(_mm256_or_si256(first, last)) == -1 {
                // The smallest key from `at` up where `first` is set, else
                // the largest key up to the top.
                let top =
                    _mm256_add_epi32(at, _mm256_set1_epi32(((2u64 << bit) - 1) as u32 as i32));
                let (mut least, mut most) = (largest, smallest);
                for &key in keys {
                    let under = _mm256_cmpgt_epi32(at, key);
                    least = _mm256_min_epi32(least, _mm256_blendv_epi8(key, largest, under));
                    let over = _mm256_cmpgt_epi32(key, top);
                    most = _mm256_max_epi32(most, _mm256_blendv_epi8(key, smallest, over));
                }
                return _mm256_blendv_epi8(most, least, first);
            }
            let candidate = _mm256_xor_si256(at, _mm256_set1_epi32((1u32 << bit) as i32));
            // Minus the number of keys below the candidate, on four
            // independent chains (integer adds are exact in any order).
            let mut chains = [zero; 4];
            let mut quads = keys.chunks_exact(4);
            for quad in &mut quads {
                for (chain, &key) in chains.iter_mut().zip(quad) {
                    *chain = _mm256_add_epi32(*chain, _mm256_cmpgt_epi32(candidate, key));
                }
            }
            for (chain, &key) in chains.iter_mut().zip(quads.remainder()) {
                *chain = _mm256_add_epi32(*chain, _mm256_cmpgt_epi32(candidate, key));
            }
            let [c0, c1, c2, c3] = chains;
            let below = _mm256_add_epi32(_mm256_add_epi32(c0, c1), _mm256_add_epi32(c2, c3));
            // Keep the bit where at most `rank` keys lie below: −below ≤ rank.
            let keep = _mm256_cmpgt_epi32(_mm256_add_epi32(rank, below), minus_one);
            at = _mm256_blendv_epi8(at, candidate, keep);
            below_at = _mm256_blendv_epi8(below_at, below, keep);
            to_top = _mm256_blendv_epi8(below, to_top, keep);
        }
        at
    }

    /// Per lane, the key at `rank − 1` given `at`, the key at `rank ≥ 1`:
    /// `at` itself where ties give it that rank too, else the largest key
    /// below it — one pass instead of another [`select`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn next_below(keys: &[__m256i], at: __m256i, rank: usize) -> __m256i {
        let smallest = _mm256_set1_epi32(i32::MIN);
        let mut below = _mm256_setzero_si256();
        let mut largest_below = smallest;
        for &key in keys {
            let under = _mm256_cmpgt_epi32(at, key);
            below = _mm256_sub_epi32(below, under);
            largest_below =
                _mm256_max_epi32(largest_below, _mm256_blendv_epi8(smallest, key, under));
        }
        // `at` fills ranks from `below` on, so rank − 1 too if below < rank.
        let tied = _mm256_cmpgt_epi32(_mm256_set1_epi32(rank as i32), below);
        _mm256_blendv_epi8(largest_below, at, tied)
    }

    /// The trimmed-mean sum of a panel whose boundary keys are `lo` (rank
    /// `trim`) and `hi` (rank `n − 1 − trim`): the survivors' values added
    /// in view order, `+0.0` for every other view.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn survivor_sum(keys: &[__m256i], lo: __m256i, hi: __m256i, trim: usize) -> __m256 {
        // The rank the next view equal to `lo` (to `hi`) takes: the count
        // of keys strictly below that boundary, then one more per view.
        let mut rank_lo = _mm256_setzero_si256();
        let mut rank_hi = _mm256_setzero_si256();
        for &key in keys {
            rank_lo = _mm256_sub_epi32(rank_lo, _mm256_cmpgt_epi32(lo, key));
            rank_hi = _mm256_sub_epi32(rank_hi, _mm256_cmpgt_epi32(hi, key));
        }
        // Survivors' ranks are `first..=last`.
        let before_first = _mm256_set1_epi32(trim as i32 - 1);
        let after_last = _mm256_set1_epi32((keys.len() - trim) as i32);
        let mut sum = _mm256_setzero_ps();
        for &key in keys {
            let at_lo = _mm256_cmpeq_epi32(key, lo);
            let at_hi = _mm256_cmpeq_epi32(key, hi);
            let above_lo = _mm256_or_si256(
                _mm256_cmpgt_epi32(key, lo),
                _mm256_and_si256(at_lo, _mm256_cmpgt_epi32(rank_lo, before_first)),
            );
            let below_hi = _mm256_or_si256(
                _mm256_cmpgt_epi32(hi, key),
                _mm256_and_si256(at_hi, _mm256_cmpgt_epi32(after_last, rank_hi)),
            );
            rank_lo = _mm256_sub_epi32(rank_lo, at_lo);
            rank_hi = _mm256_sub_epi32(rank_hi, at_hi);
            let keep = _mm256_castsi256_ps(_mm256_and_si256(above_lo, below_hi));
            sum = _mm256_add_ps(sum, _mm256_and_ps(keep, values(key)));
        }
        sum
    }
}

/// Without the `simd` feature, or off x86-64, every column runs the
/// portable select panels.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod lanes {
    pub(super) fn trimmed_mean(_: &[&[f32]], _: usize, _: usize, _: &mut [f32]) -> usize {
        0
    }

    pub(super) fn median(_: &[&[f32]], _: usize, _: &mut [f32]) -> usize {
        0
    }
}

/// The sorting estimators the selection kernels above replaced, kept as
/// their reference: tests and bench asserts require the kernels to match
/// these **bitwise**, whatever the cohort holds. Like the kernels, they
/// read every value as `x + 0.0`. Never call them from production code.
pub mod oracle {
    /// Trimmed mean by full sort: order each column by `total_cmp` then
    /// view index, keep ranks `trim..n − trim`, sum them in view order.
    pub fn trimmed_mean(views: &[&[f32]], trim: usize) -> Vec<f32> {
        let n = views.len();
        let kept = (n - 2 * trim) as f32;
        let mut col: Vec<(f32, usize)> = Vec::with_capacity(n);
        let mut survivors: Vec<usize> = Vec::with_capacity(n);
        (0..views[0].len())
            .map(|j| {
                col.clear();
                col.extend(views.iter().enumerate().map(|(i, v)| (v[j] + 0.0, i)));
                col.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                survivors.clear();
                survivors.extend(col[trim..n - trim].iter().map(|&(_, i)| i));
                survivors.sort_unstable();
                let mut sum = 0.0f32;
                for &i in &survivors {
                    sum += views[i][j] + 0.0;
                }
                sum / kept
            })
            .collect()
    }

    /// Median by full sort under `total_cmp`; even cohorts average the
    /// two middle values.
    pub fn median(views: &[&[f32]]) -> Vec<f32> {
        let n = views.len();
        let mut col: Vec<f32> = Vec::with_capacity(n);
        (0..views[0].len())
            .map(|j| {
                col.clear();
                col.extend(views.iter().map(|v| v[j] + 0.0));
                col.sort_by(f32::total_cmp);
                if n % 2 == 1 {
                    col[n / 2]
                } else {
                    0.5 * (col[n / 2 - 1] + col[n / 2])
                }
            })
            .collect()
    }
}

/// Krum/Multi-Krum selection: scores each view by the summed squared
/// distance to its `k = max(1, n−f−2)` nearest neighbours and returns the
/// positions of the `m` lowest-scored views, ascending. Ties break toward
/// the lower position, so selection is deterministic and
/// permutation-stable; distances involving non-finite values order last
/// under `total_cmp`, so NaN-laden views are never preferred.
///
/// With a worker pool, the O(n²·d) pairwise distance matrix is computed
/// one strict-upper-triangle row per job (each row is a disjoint `&mut`
/// slice, so the pool cannot change any value), then mirrored. The per-pair distance itself runs `dist2`'s fixed
/// lane-split reduction, identical at any pool width.
///
/// # Panics
///
/// Panics when `views` is empty.
pub fn krum_select_with(
    views: &[&[f32]],
    f: usize,
    m: usize,
    pool: Option<&WorkerPool>,
) -> Vec<usize> {
    let n = views.len();
    assert!(n > 0, "krum over an empty cohort");
    let m = m.clamp(1, n);
    if n == 1 {
        return vec![0];
    }
    let mut d2 = vec![0.0f64; n * n];
    match pool {
        Some(pool) if pool.workers() > 0 => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = d2
                .chunks_mut(n)
                .enumerate()
                .map(|(i, row)| {
                    Box::new(move || {
                        for j in (i + 1)..n {
                            row[j] = dist2(views[i], views[j]);
                        }
                    }) as Box<_>
                })
                .collect();
            pool.scope_run(jobs);
        }
        _ => {
            for (i, row) in d2.chunks_mut(n).enumerate() {
                for j in (i + 1)..n {
                    row[j] = dist2(views[i], views[j]);
                }
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            d2[i * n + j] = d2[j * n + i];
        }
    }
    let k = n.saturating_sub(f + 2).clamp(1, n - 1);
    let mut scores: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut row: Vec<f64> = Vec::with_capacity(n - 1);
    for i in 0..n {
        row.clear();
        row.extend((0..n).filter(|&j| j != i).map(|j| d2[i * n + j]));
        row.sort_by(f64::total_cmp);
        // Ascending partial sum: a fixed accumulation order per candidate.
        let score: f64 = row[..k].iter().sum();
        scores.push((score, i));
    }
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut selected: Vec<usize> = scores[..m].iter().map(|&(_, i)| i).collect();
    selected.sort_unstable();
    selected
}

/// Squared L2 distance between two equal-length views, accumulated in
/// `f64` across eight independent lanes combined left to right plus a
/// sequential tail. The lane split breaks the serial add-latency chain of
/// a naive running sum (~4-8× faster on the Krum hot path) while keeping
/// a single fixed reduction order — the function is deterministic and is
/// *the* definition of distance for [`krum_select_with`] at any pool width.
fn dist2(a: &[f32], b: &[f32]) -> f64 {
    const L: usize = 8;
    let mut lanes = [0.0f64; L];
    let chunks = a.len() / L;
    for t in 0..chunks {
        let av = &a[t * L..][..L];
        let bv = &b[t * L..][..L];
        for (x, (&va, &vb)) in lanes.iter_mut().zip(av.iter().zip(bv)) {
            let e = f64::from(va) - f64::from(vb);
            *x += e * e;
        }
    }
    let mut sum = 0.0f64;
    for &x in &lanes {
        sum += x;
    }
    for i in chunks * L..a.len() {
        let e = f64::from(a[i]) - f64::from(b[i]);
        sum += e * e;
    }
    sum
}

/// Geometric median via Weiszfeld iteration, started at the plain mean
/// (`max_iters = 0` returns that mean bit-for-bit). Iterates in `f64`;
/// a view coinciding with the iterate gets its inverse-distance weight
/// clamped at `1e12` instead of dividing by zero.
///
/// # Panics
///
/// Panics when `views` is empty.
pub fn geometric_median(views: &[&[f32]], max_iters: usize, tol: f64) -> Vec<f32> {
    let mean = coordinate_trimmed_mean_with(views, 0, None);
    if max_iters == 0 {
        return mean;
    }
    let mut x: Vec<f64> = mean.iter().map(|&v| f64::from(v)).collect();
    let mut next = vec![0.0f64; x.len()];
    for _ in 0..max_iters {
        let mut weight_sum = 0.0f64;
        next.iter_mut().for_each(|v| *v = 0.0);
        for v in views {
            let d2: f64 = v
                .iter()
                .zip(&x)
                .map(|(&a, &b)| {
                    let e = f64::from(a) - b;
                    e * e
                })
                .sum();
            let w = if d2 > 1e-24 { d2.sqrt().recip() } else { 1e12 };
            weight_sum += w;
            for (acc, &a) in next.iter_mut().zip(v.iter()) {
                *acc += w * f64::from(a);
            }
        }
        let mut shift2 = 0.0f64;
        for (acc, xv) in next.iter_mut().zip(x.iter_mut()) {
            *acc /= weight_sum;
            let e = *acc - *xv;
            shift2 += e * e;
            *xv = *acc;
        }
        if shift2.sqrt() <= tol {
            break;
        }
    }
    x.iter().map(|&v| v as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn update(client: usize, values: Vec<f32>, weight: f32) -> RoundUpdate {
        RoundUpdate {
            client,
            payload: UpdatePayload::dense(values),
            weight,
        }
    }

    /// `n` honest views clustered near `base` plus `f` adversarial views.
    fn cohort(
        honest: usize,
        base: f32,
        attackers: usize,
        poison: f32,
        dim: usize,
    ) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for i in 0..honest {
            // Small deterministic spread so honest clients are not identical.
            out.push(
                (0..dim)
                    .map(|j| base + 0.01 * ((i + j) % 5) as f32)
                    .collect(),
            );
        }
        for _ in 0..attackers {
            out.push(vec![poison; dim]);
        }
        out
    }

    fn views(cohort: &[Vec<f32>]) -> Vec<&[f32]> {
        cohort.iter().map(|v| v.as_slice()).collect()
    }

    fn l2(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let e = f64::from(x) - f64::from(y);
                e * e
            })
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn method_names_round_trip() {
        let methods = [
            RobustMethod::TrimmedMean { trim_ratio: 0.25 },
            RobustMethod::Median,
            RobustMethod::Krum { f: 1 },
            RobustMethod::MultiKrum { f: 1, m: 3 },
            RobustMethod::GeometricMedian {
                max_iters: 64,
                tol: 1e-9,
            },
        ];
        for m in methods {
            let parsed = RobustMethod::from_str(m.as_str()).expect("canonical name parses");
            assert_eq!(parsed.as_str(), m.as_str());
            assert_eq!(format!("{m}"), m.as_str());
        }
        assert!(RobustMethod::from_str("majority-vote").is_err());

        // `name[:param[:param]]`: spelled parameters replace the defaults.
        for (spec, parsed) in [
            ("trimmed-mean:0.3", "TrimmedMean { trim_ratio: 0.3 }"),
            ("krum:3", "Krum { f: 3 }"),
            ("multi-krum:3", "MultiKrum { f: 3, m: 3 }"),
            ("Multi-Krum:3:5", "MultiKrum { f: 3, m: 5 }"),
            (
                "geometric-median:64:1e-9",
                "GeometricMedian { max_iters: 64, tol: 1e-9 }",
            ),
            (
                "geometric-median:8",
                "GeometricMedian { max_iters: 8, tol: 1e-9 }",
            ),
        ] {
            assert_eq!(
                format!("{:?}", RobustMethod::from_str(spec).unwrap()),
                parsed
            );
        }
        for (spec, complaint) in [
            ("krum:three", "bad f \"three\""),
            ("median:1", "stray parameter \"1\""),
            ("multi-krum:3:5:7", "stray parameter \"7\""),
            ("trimmed-mean:0.5", "trim ratio must be in [0, 0.5)"),
            ("multi-krum:1:0", "multi-krum must keep at least one update"),
            (
                "geometric-median:64:-1",
                "weiszfeld tolerance must be finite",
            ),
        ] {
            let error = RobustMethod::from_str(spec).expect_err(spec);
            assert!(error.contains(complaint), "{spec}: {error}");
        }
    }

    /// Bit patterns that stress the order: zeros, infinities, quiet and
    /// signalling NaNs of both signs, subnormals, extremes — then noise.
    fn bit_patterns(count: usize) -> Vec<u32> {
        let mut out = vec![
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fff_ffff,
            0xffff_ffff,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
            0x3f80_0000,
            0xbf80_0000,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        while out.len() < count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push((state >> 32) as u32);
        }
        out
    }

    #[test]
    fn order_key_orders_bit_patterns_as_total_cmp() {
        let patterns = bit_patterns(320);
        for (i, &a) in patterns.iter().enumerate() {
            let fa = f32::from_bits(a);
            assert_eq!(key_value(order_key(fa)).to_bits(), a, "round trip");
            for (j, &b) in patterns.iter().enumerate() {
                let fb = f32::from_bits(b);
                assert_eq!(
                    order_key(fa).cmp(&order_key(fb)),
                    fa.total_cmp(&fb),
                    "{a:#010x} vs {b:#010x}"
                );
                assert_eq!(
                    tie_key(fa, i).cmp(&tie_key(fb, j)),
                    fa.total_cmp(&fb).then(i.cmp(&j)),
                    "({a:#010x}, {i}) vs ({b:#010x}, {j})"
                );
            }
        }
    }

    /// `to_bits` of every coordinate, except that a NaN only has to be a
    /// NaN: Rust leaves the sign and payload of an arithmetic NaN
    /// unspecified, so two compilations of the same sum need not agree on
    /// them.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// An `n × dim` cohort whose columns cycle through the shapes that
    /// stress the rank boundaries: all equal; mixed `±0.0`; NaNs (one
    /// signalling) and `±inf` among finite values; three tie groups whose
    /// outer two straddle both boundaries of `trim` = 1 and `⌊n/4⌋`; and
    /// plain noise. Each view's position in a column is scrambled, so tie
    /// groups interleave in view order.
    fn boundary_cohort(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7f80_0001),
            -f32::NAN,
            1.5,
            -3.0,
        ];
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| {
                        let pos = (i * 37 + j * 11) % n;
                        match j % 5 {
                            0 => 2.5,
                            1 if pos.is_multiple_of(4) => 1.0,
                            1 if pos % 8 == 1 => 0.0,
                            1 => -0.0,
                            2 => special[pos % special.len()],
                            3 if pos <= n / 4 => -1.0,
                            3 if pos >= n - 1 - n / 4 => 1.0,
                            3 => 0.5,
                            _ => (pos as f32 * 0.37).sin() * 8.0,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lane_kernels_match_the_oracle_on_every_tail_and_tie() {
        let mut shapes: Vec<(usize, usize)> = [2, 3, 4, 5, 16, 255, 256, 257]
            .into_iter()
            .flat_map(|n| (1..=17).map(move |dim| (n, dim)))
            .collect();
        shapes.push((256, 8554));
        for (n, dim) in shapes {
            let cohort = boundary_cohort(n, dim);
            let v = views(&cohort);
            // Whole panels run the lane kernel whenever the build and the
            // CPU have it; the tail runs the select panel.
            let mut probe = vec![0.0f32; dim];
            let lane_cols = lanes::median(&v, 0, &mut probe);
            if cfg!(all(feature = "simd", target_arch = "x86_64")) && lanes_detected() {
                assert_eq!(lane_cols, dim / 8 * 8, "n={n} dim={dim}");
            }
            for trim in [0, 1, n / 4, (n - 1) / 2] {
                let trim = trim.min((n - 1) / 2);
                assert_eq!(
                    bits(&coordinate_trimmed_mean_with(&v, trim, None)),
                    bits(&oracle::trimmed_mean(&v, trim)),
                    "trimmed mean n={n} dim={dim} trim={trim}"
                );
            }
            assert_eq!(
                bits(&coordinate_median_with(&v, None)),
                bits(&oracle::median(&v)),
                "median n={n} dim={dim}"
            );
        }
    }

    /// Whether this CPU runs the lane kernels.
    fn lanes_detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[test]
    fn kernels_match_the_oracle_on_either_side_of_a_block_boundary() {
        for (n, workers) in [(5usize, 2usize), (64, 4), (256, 2)] {
            let pool = WorkerPool::new(workers);
            let smallest = block_cols(1, n, workers);
            let jobs = workers * BLOCKS_PER_WORKER;
            for dim in [
                smallest - 1,
                smallest,
                smallest + 1,
                2 * smallest + PANEL + 1,
                jobs * (smallest + PANEL) - 1,
            ] {
                // A small palette, so every column is mostly ties; the
                // rarer picks seed it with signed zeros, an infinity, a
                // subnormal and a NaN that trimming may or may not drop.
                let palette = [1.0, -1.0, 0.5, 3.25, -7.5, 0.0, -0.0];
                let rare = [f32::INFINITY, 1e-41, -f32::NAN];
                let cohort: Vec<Vec<f32>> = (0..n)
                    .map(|i| {
                        (0..dim)
                            .map(|j| match (i * 31 + j * 17 + i * j) % 41 {
                                h @ 0..=2 => rare[h],
                                h => palette[h % 7],
                            })
                            .collect()
                    })
                    .collect();
                let v = views(&cohort);
                for trim in [0, 1, (n - 1) / 2] {
                    assert_eq!(
                        bits(&coordinate_trimmed_mean_with(&v, trim, Some(&pool))),
                        bits(&oracle::trimmed_mean(&v, trim)),
                        "trimmed mean n={n} dim={dim} trim={trim}"
                    );
                }
                assert_eq!(
                    bits(&coordinate_median_with(&v, Some(&pool))),
                    bits(&oracle::median(&v)),
                    "median n={n} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn trim_count_clamps_to_leave_a_survivor() {
        assert_eq!(trim_count(10, 0.25), 2);
        assert_eq!(trim_count(10, 0.0), 0);
        assert_eq!(trim_count(10, 0.49), 4);
        assert_eq!(trim_count(3, 0.49), 1);
        assert_eq!(trim_count(2, 0.49), 0);
        assert_eq!(trim_count(1, 0.49), 0);
    }

    // --- breakdown-point tests: honest majority recovers, past-breakdown
    // fails as expected ---

    #[test]
    fn trimmed_mean_survives_minority_then_breaks_past_trim() {
        let honest_mean = {
            let c = cohort(6, 1.0, 0, 0.0, 8);
            coordinate_trimmed_mean_with(&views(&c), 0, None)
        };
        // 4 of 10 sign-flip-and-boost attackers, trim 4 from each end:
        // estimate stays near the honest mean.
        let c = cohort(6, 1.0, 4, -100.0, 8);
        let est = coordinate_trimmed_mean_with(&views(&c), 4, None);
        assert!(l2(&est, &honest_mean) < 0.1, "robust estimate drifted");
        // Same attack but trim 1 < f=4: poison survives trimming and the
        // estimate is dragged far from the honest mean.
        let est = coordinate_trimmed_mean_with(&views(&c), 1, None);
        assert!(l2(&est, &honest_mean) > 10.0, "expected breakdown");
    }

    #[test]
    fn median_survives_minority_then_breaks_at_majority() {
        let c = cohort(6, 1.0, 4, -100.0, 4);
        let est = coordinate_median_with(&views(&c), None);
        assert!(est.iter().all(|&v| v > 0.5), "median captured by minority");
        // 6 of 10 attackers: the median sits inside the attacker mass.
        let c = cohort(4, 1.0, 6, -100.0, 4);
        let est = coordinate_median_with(&views(&c), None);
        assert!(est.iter().all(|&v| v < -50.0), "expected breakdown");
    }

    #[test]
    fn krum_selects_honest_then_breaks_under_collusion() {
        // 7 honest + 3 boosted outliers, f = 3 (2f+2 = 8 < 10): Krum must
        // pick an honest update.
        let c = cohort(7, 1.0, 3, 250.0, 8);
        let sel = krum_select_with(&views(&c), 3, 1, None);
        assert!(sel[0] < 7, "krum picked an attacker at {}", sel[0]);
        // 4 colluders sending the *same* vector in a cohort of 6 with an
        // under-budgeted f = 1: each colluder's nearest neighbours are its
        // accomplices at distance 0, so a colluder wins (2f+2 < n fails).
        let c = cohort(2, 1.0, 4, -50.0, 8);
        let sel = krum_select_with(&views(&c), 1, 1, None);
        assert!(sel[0] >= 2, "expected a colluder to win past breakdown");
    }

    #[test]
    fn multi_krum_keeps_honest_updates() {
        let c = cohort(7, 1.0, 3, 250.0, 8);
        let sel = krum_select_with(&views(&c), 3, 4, None);
        assert_eq!(sel.len(), 4);
        assert!(sel.iter().all(|&i| i < 7), "multi-krum kept an attacker");
        // m clamps to the cohort size.
        assert_eq!(krum_select_with(&views(&c), 0, 99, None).len(), 10);
    }

    #[test]
    fn geometric_median_survives_minority_then_breaks_at_majority() {
        let honest_mean = {
            let c = cohort(7, 1.0, 0, 0.0, 8);
            coordinate_trimmed_mean_with(&views(&c), 0, None)
        };
        let c = cohort(7, 1.0, 3, 1000.0, 8);
        let est = geometric_median(&views(&c), 128, 1e-9);
        assert!(
            l2(&est, &honest_mean) < 0.5,
            "geometric median dragged to {est:?}"
        );
        // Plain mean is destroyed by the same attack (sanity check that
        // the test attack is actually doing something).
        let mean = coordinate_trimmed_mean_with(&views(&c), 0, None);
        assert!(l2(&mean, &honest_mean) > 100.0);
        // 6 of 10 attackers: majority mass wins the geometric median.
        let c = cohort(4, 1.0, 6, 1000.0, 8);
        let est = geometric_median(&views(&c), 128, 1e-9);
        assert!(l2(&est, &honest_mean) > 100.0, "expected breakdown");
    }

    #[test]
    fn weiszfeld_zero_iters_is_exactly_the_mean() {
        let c = cohort(5, 0.3, 2, -7.0, 16);
        let v = views(&c);
        assert_eq!(
            geometric_median(&v, 0, 1e-9),
            coordinate_trimmed_mean_with(&v, 0, None)
        );
    }

    #[test]
    fn weiszfeld_handles_coincident_points() {
        // All views identical: the iterate coincides with every view and
        // the clamped weight must not produce NaN.
        let c = vec![vec![2.0f32; 4]; 5];
        let est = geometric_median(&views(&c), 32, 1e-12);
        assert!(est.iter().all(|v| (v - 2.0).abs() < 1e-6), "{est:?}");
    }

    // --- stage-level behaviour ---

    #[test]
    fn pre_aggregate_is_deterministic_and_permutation_invariant() {
        let agg = RobustAggregator::new(RobustMethod::TrimmedMean { trim_ratio: 0.3 });
        let base = vec![
            update(3, vec![1.0, 2.0, 3.0], 5.0),
            update(0, vec![-1.0, 0.5, 2.0], 7.0),
            update(7, vec![100.0, -100.0, 0.0], 1.0),
            update(1, vec![0.9, 1.9, 2.9], 2.0),
        ];
        let mut shuffled = base.clone();
        shuffled.reverse();
        shuffled.swap(0, 2);
        let (a, sa) = agg.pre_aggregate_with(3, base, None);
        let (b, sb) = agg.pre_aggregate_with(3, shuffled, None);
        assert_eq!(a, b, "output depends on arrival order");
        assert_eq!(sa, sb);
        // Blend estimators attribute the synthetic update to the lowest
        // surviving client id with unit weight.
        assert_eq!(a[0].client, 0);
        assert_eq!(a[0].weight, 1.0);
    }

    #[test]
    fn selection_methods_pass_originals_through() {
        let agg = RobustAggregator::new(RobustMethod::MultiKrum { f: 1, m: 2 });
        let updates = vec![
            update(2, vec![1.0, 1.0], 3.0),
            update(5, vec![1.1, 0.9], 4.0),
            update(9, vec![50.0, -50.0], 2.0),
        ];
        let (out, stats) = agg.pre_aggregate_with(2, updates.clone(), None);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.output, 2);
        // Winners keep their payloads, weights and client ids.
        assert_eq!(out[0], updates[0]);
        assert_eq!(out[1], updates[1]);
    }

    #[test]
    fn singleton_and_empty_cohorts_pass_through() {
        let agg = RobustAggregator::new(RobustMethod::Median);
        let one = vec![update(4, vec![1.0, 2.0], 6.0)];
        let (out, stats) = agg.pre_aggregate_with(2, one.clone(), None);
        assert_eq!(out, one);
        assert_eq!(stats.rejected, 0);
        let (out, _) = agg.pre_aggregate_with(2, Vec::new(), None);
        assert!(out.is_empty());
    }

    #[test]
    fn cohorts_are_estimated_per_coverage_group() {
        let agg = RobustAggregator::new(RobustMethod::Median);
        let dim = 8;
        let wrap = |desc: &ViewDescriptor, client: usize, values: Vec<f32>| RoundUpdate {
            client,
            payload: UpdatePayload::sub_view(desc.clone(), UpdatePayload::dense(values)),
            weight: 2.0,
        };
        // Two three-client groups of different widths and a lone sender
        // under a third descriptor, interleaved as they might arrive.
        let head = ViewDescriptor::new(dim, vec![(0, 4)]);
        let tail = ViewDescriptor::new(dim, vec![(2, 6)]);
        let lone = ViewDescriptor::new(dim, vec![(1, 2)]);
        let mixed = vec![
            wrap(&tail, 5, vec![1.0; 6]),
            wrap(&head, 0, vec![1.0, 2.0, 3.0, 4.0]),
            wrap(&lone, 9, vec![7.0, 7.0]),
            wrap(&head, 1, vec![3.0, 2.0, 1.0, 0.0]),
            wrap(&tail, 3, vec![2.0; 6]),
            wrap(&head, 2, vec![2.0, 9.0, 2.0, 9.0]),
            wrap(&tail, 4, vec![-50.0; 6]),
        ];
        let (out, stats) = agg.pre_aggregate_with(dim, mixed.clone(), None);
        // Blend estimates are unweighted, under the lowest client id.
        let estimate = |desc, client, values| RoundUpdate {
            weight: 1.0,
            ..wrap(desc, client, values)
        };
        // Groups come back in order of first appearance, each estimated at
        // its own width: no zero padding from the narrow views leaks into
        // the wide group's medians.
        assert_eq!(
            out,
            vec![
                estimate(&tail, 3, vec![1.0; 6]),
                estimate(&head, 0, vec![2.0, 2.0, 2.0, 4.0]),
                mixed[2].clone(),
            ]
        );
        assert_eq!(
            stats,
            RobustStats {
                input: 7,
                output: 3,
                ..RobustStats::default()
            }
        );

        // Without views the grouping is the identity around the estimator.
        for method in [
            RobustMethod::TrimmedMean { trim_ratio: 0.25 },
            RobustMethod::MultiKrum { f: 1, m: 3 },
        ] {
            let agg = RobustAggregator::new(method);
            let flat: Vec<RoundUpdate> = cohort(5, 0.5, 1, 40.0, dim)
                .into_iter()
                .enumerate()
                .map(|(c, v)| update(5 - c, v, 3.0))
                .collect();
            assert_eq!(
                agg.pre_aggregate_with(dim, flat.clone(), None),
                agg.estimate_group(dim, flat, None)
            );
        }
    }

    #[test]
    fn blend_estimate_densifies_every_codec() {
        use adafl_compression::top_k;
        // A sparse update must contribute its dense expansion, not its
        // packed value list.
        let agg = RobustAggregator::new(RobustMethod::TrimmedMean { trim_ratio: 0.0 });
        let dense = vec![0.0f32, 4.0, 0.0, -2.0];
        let updates = vec![
            update(0, dense.clone(), 1.0),
            RoundUpdate {
                client: 1,
                payload: UpdatePayload::Sparse(top_k(&dense, 2)),
                weight: 1.0,
            },
        ];
        let (out, _) = agg.pre_aggregate_with(4, updates, None);
        assert_eq!(out[0].payload.clone().into_dense(), dense);
    }

    #[test]
    #[should_panic(expected = "trim ratio")]
    fn half_trim_ratio_panics() {
        RobustAggregator::new(RobustMethod::TrimmedMean { trim_ratio: 0.5 });
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn zero_m_panics() {
        RobustAggregator::new(RobustMethod::MultiKrum { f: 1, m: 0 });
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn negative_tol_panics() {
        RobustAggregator::new(RobustMethod::GeometricMedian {
            max_iters: 8,
            tol: -1.0,
        });
    }

    #[test]
    fn nonfinite_values_cannot_win_selection() {
        // Without a defense gate, NaN views must never be preferred.
        let c = vec![
            vec![1.0f32, 1.0],
            vec![1.1, 0.9],
            vec![0.95, 1.05],
            vec![f32::NAN, 1.0],
        ];
        let sel = krum_select_with(&views(&c), 1, 1, None);
        assert!(sel[0] < 3, "krum selected the NaN view");
        // Trimmed mean orders NaN to one end; with trim ≥ 1 it is dropped.
        let est = coordinate_trimmed_mean_with(&views(&c), 1, None);
        assert!(est.iter().all(|v| v.is_finite()), "{est:?}");
    }
}
