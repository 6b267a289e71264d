//! Property tests for the Byzantine-robust pre-aggregators (satellite of
//! the robustness PR): every estimator is **permutation-invariant** over
//! client arrival order (bitwise — the stage canonicalises by client id
//! before any float touches an accumulator), **deterministic** (same
//! cohort in, same bytes out), and the parameter-free configurations
//! (`trim_ratio = 0`, Weiszfeld with zero iterations, Multi-Krum with
//! `f = 0, m ≥ n`) **exactly reproduce plain aggregation** on an honest
//! cohort.
//!
//! The two coordinate-wise estimators are order-statistic kernels; the
//! last two properties hold them **bitwise** to the sorting estimators
//! they replaced (`robust::oracle`), over cohorts seeded with ties,
//! signed zeros, infinities, NaNs and subnormals, at every legal trim and
//! at pool widths 1, 2 and 4. Both kernels read every value as `x + 0.0`,
//! and so does the oracle. The counting kernel stops early once every
//! lane's rank is an end of the interval its bits leave open; a further
//! property shapes columns, at cohort sizes 2 to 300, where it stops on
//! either end and where it cannot (all-equal or two-valued columns, ties
//! at both boundaries).
//!
//! The stage reads full-width payloads in place rather than copying the
//! cohort into one dense matrix first; the last property holds all five
//! estimators to that copy — the densify-then-estimate path the stage
//! used to run — over dense, quantized and sparse payloads holding the
//! same adversarial values.
//!
//! `PROPTEST_CASES` scales the case count (CI runs these elevated).

use adafl_compression::{QsgdQuantizer, SparseUpdate};
use adafl_fl::pool::WorkerPool;
use adafl_fl::robust::{
    coordinate_median_with, coordinate_trimmed_mean_with, geometric_median, krum_select_with,
    oracle, trim_count, RobustAggregator, RobustMethod,
};
use adafl_fl::runtime::{RoundUpdate, UpdatePayload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const MAX_N: usize = 6;
const MAX_DIM: usize = 16;

fn values() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, MAX_N * MAX_DIM)
}

/// Builds a cohort of `n` updates of dimension `dim` with ascending,
/// non-contiguous client ids and varying weights.
fn cohort(values: &[f32], n: usize, dim: usize) -> Vec<RoundUpdate> {
    (0..n)
        .map(|i| RoundUpdate {
            client: 3 * i + 1,
            payload: UpdatePayload::dense(values[i * dim..(i + 1) * dim].to_vec()),
            weight: (i + 1) as f32,
        })
        .collect()
}

/// Plain sequential mean in client order — the reference the zero-trim and
/// zero-iteration estimators must hit bit-for-bit.
fn plain_mean(updates: &[RoundUpdate], dim: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    for u in updates {
        u.payload.add_scaled_into(&mut acc, 1.0);
    }
    acc.iter().map(|a| a / updates.len() as f32).collect()
}

fn every_method() -> [RobustMethod; 5] {
    [
        RobustMethod::TrimmedMean { trim_ratio: 0.3 },
        RobustMethod::Median,
        RobustMethod::Krum { f: 1 },
        RobustMethod::MultiKrum { f: 1, m: 2 },
        RobustMethod::GeometricMedian {
            max_iters: 16,
            tol: 1e-9,
        },
    ]
}

/// Cohort sizes the parity properties sweep: every small size, then the
/// benchmark's sizes and an odd neighbour.
fn cohort_size(pick: usize) -> usize {
    match pick {
        0..=31 => pick + 2,
        32 => 64,
        33 => 255,
        _ => 256,
    }
}

/// A dimension near a multiple of the 16-column panel, up to a few
/// column blocks wide for the cohort size (a block holds at least 8 192
/// values, and a 4-wide pool cuts 16 of them).
fn dimension(n: usize, pick: usize, nudge: usize) -> usize {
    let block = 8192usize.div_ceil(n).next_multiple_of(16);
    let widest = if pick.is_multiple_of(8) {
        17 * block
    } else {
        3 * block
    };
    ((pick % (widest / 16 + 1)) * 16 + nudge)
        .saturating_sub(1)
        .max(1)
}

/// An `n × dim` cohort whose columns are, by turns, plain noise, a
/// three-value palette (ties), noise salted with special values, and
/// arbitrary bit patterns.
fn adversarial_cohort(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
    const SPECIAL: [u32; 16] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // +NaN
        0xffc0_0000, // -NaN
        0x7f80_0001, // +sNaN
        0xffff_ffff, // -NaN, full payload
        0x0000_0001, // smallest subnormal
        0x8000_0001,
        0x007f_ffff, // largest subnormal
        0x807f_ffff,
        0x0080_0000, // smallest normal
        0x7f7f_ffff, // MAX
        0xff7f_ffff, // MIN
        0x3f80_0000, // 1.0
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cohort = vec![vec![0.0f32; dim]; n];
    for j in 0..dim {
        let style = rng.gen_range(0..4u32);
        let palette: [f32; 3] = std::array::from_fn(|_| rng.gen_range(-4.0f32..4.0));
        for row in cohort.iter_mut() {
            row[j] = match style {
                0 => rng.gen_range(-100.0f32..100.0),
                1 => palette[rng.gen_range(0..3usize)],
                2 if rng.gen_range(0..4u32) == 0 => {
                    f32::from_bits(SPECIAL[rng.gen_range(0..SPECIAL.len())])
                }
                2 => palette[0] * rng.gen_range(-1.0f32..1.0),
                _ => f32::from_bits(rng.gen::<u32>()),
            };
        }
    }
    cohort
}

/// No pool, then pools of width 1, 2 and 4, built once for the binary.
fn pools() -> [Option<&'static WorkerPool>; 4] {
    static POOLS: OnceLock<[WorkerPool; 3]> = OnceLock::new();
    let [a, b, c] = POOLS.get_or_init(|| [1, 2, 4].map(WorkerPool::new));
    [None, Some(a), Some(b), Some(c)]
}

/// `to_bits` of every coordinate. A NaN only has to be a NaN: Rust leaves
/// the sign and payload of a NaN that arithmetic produced unspecified, so
/// two compilations of one sum need not agree on them — every other
/// value, signed zeros and infinities included, is compared exactly.
fn bits(estimate: &[f32]) -> Vec<u32> {
    estimate
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// The adversarial cohort as the stage receives it, in shuffled order:
/// by turns a dense payload, a quantized payload whose decoded view holds
/// the values, and a sparse payload listing every nonzero bit pattern
/// (so `-0.0` and NaNs travel in it too).
fn payload_cohort(cohort: &[Vec<f32>], shuffle_seed: u64) -> Vec<RoundUpdate> {
    let dim = cohort[0].len();
    let mut updates: Vec<RoundUpdate> = cohort
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let payload = match i % 3 {
                0 => UpdatePayload::dense(row.clone()),
                1 => UpdatePayload::Quantized {
                    wire: QsgdQuantizer::new(4, 1).quantize(&vec![0.0; dim]),
                    values: row.clone(),
                },
                _ => {
                    let (indices, values): (Vec<u32>, Vec<f32>) =
                        (0u32..).zip(row).filter(|(_, x)| x.to_bits() != 0).unzip();
                    UpdatePayload::Sparse(SparseUpdate::new(indices, values, dim))
                }
            };
            RoundUpdate {
                client: 5 * i + 2,
                payload,
                weight: 1.0 + i as f32,
            }
        })
        .collect();
    updates.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
    updates
}

/// The stage's former first step, kept as the reference: sort by client,
/// then accumulate every payload into a zeroed `dim`-wide row.
fn densify(updates: &[RoundUpdate], dim: usize) -> (Vec<RoundUpdate>, Vec<Vec<f32>>) {
    let mut sorted = updates.to_vec();
    sorted.sort_by_key(|u| u.client);
    let rows = sorted
        .iter()
        .map(|u| {
            let mut row = vec![0.0f32; dim];
            u.payload.add_scaled_into(&mut row, 1.0);
            row
        })
        .collect();
    (sorted, rows)
}

/// The float whose ascending order key (as in `f32::total_cmp`) is `key`.
fn from_order_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key ^ 0x8000_0000
    } else {
        !key
    })
}

/// An `n × dim` cohort shaped around the ranks a selection wants, one
/// column style per column, each column shuffled across the views. The
/// sorted column is built in order-key space from a finite start by
/// gaps: wide (the rank's bits split from a neighbour early), one key
/// (late), or none (a tie). Styles: the wanted rank is the first key of
/// a close pair (the counting kernel can stop on its lower end), the last
/// of one (on its upper end), tied with both neighbours (at both
/// boundaries of a trimmed mean), all keys equal, two values (these keep
/// a rank inside a run of ties, where no early stop is possible and every
/// bit is counted), or noise mixing all three gaps.
fn shaped_cohort(seed: u64, n: usize, dim: usize, ranks: &[usize]) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cohort = vec![vec![0.0f32; dim]; n];
    let mut column = vec![0.0f32; n];
    for j in 0..dim {
        let style = rng.gen_range(0..6u32);
        let mut gaps: Vec<u32> = (1..n)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => 0,
                1 | 2 => 1,
                _ => rng.gen_range(1u32 << 12..1 << 20),
            })
            .collect();
        let wide = |rng: &mut StdRng| rng.gen_range(1u32 << 12..1 << 20);
        for &r in ranks {
            // `gaps[i]` separates sorted keys `i` and `i + 1`.
            let (below, above) = (r.checked_sub(1), (r + 1 < n).then_some(r));
            let mut set = |at: Option<usize>, gap: u32| {
                if let Some(i) = at {
                    gaps[i] = gap;
                }
            };
            match style {
                0 => {
                    set(below, wide(&mut rng));
                    set(above, 1);
                }
                1 => {
                    set(below, 1);
                    set(above, wide(&mut rng));
                }
                2 => {
                    set(below, 0);
                    set(above, 0);
                }
                _ => {}
            }
        }
        match style {
            3 => gaps.fill(0),
            4 if n > 1 => {
                gaps.fill(0);
                let split = rng.gen_range(0..n - 1);
                gaps[split] = wide(&mut rng);
            }
            _ => {}
        }
        let start: f32 = rng.gen_range(-10.0f32..10.0);
        let bits = start.to_bits();
        let mut key = if bits >> 31 == 1 {
            !bits
        } else {
            bits | 0x8000_0000
        };
        column[0] = from_order_key(key);
        for (slot, &gap) in column[1..].iter_mut().zip(&gaps) {
            key += gap;
            *slot = from_order_key(key);
        }
        column.shuffle(&mut rng);
        for (row, &x) in cohort.iter_mut().zip(&column) {
            row[j] = x;
        }
    }
    cohort
}

proptest! {
    #[test]
    fn pre_aggregate_reads_payloads_as_the_densified_cohort(
        seed in 0u64..u64::MAX,
        n in 2usize..24,
        dim in 1usize..40,
    ) {
        let cohort = adversarial_cohort(seed, n, dim);
        let arrivals = payload_cohort(&cohort, seed.rotate_left(17));
        let (sorted, rows) = densify(&arrivals, dim);
        let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let f = n / 4;
        for method in [
            RobustMethod::TrimmedMean { trim_ratio: 0.25 },
            RobustMethod::Median,
            RobustMethod::Krum { f },
            RobustMethod::MultiKrum { f, m: n / 2 + 1 },
            RobustMethod::GeometricMedian { max_iters: 8, tol: 1e-9 },
        ] {
            let agg = RobustAggregator::new(method);
            for pool in pools() {
                let (out, _) = agg.pre_aggregate_with(dim, arrivals.clone(), pool);
                let blend = |expected: Vec<f32>| {
                    out.len() == 1
                        && out[0].client == sorted[0].client
                        && bits(&out[0].payload.clone().into_dense()) == bits(&expected)
                };
                let same = match method {
                    RobustMethod::TrimmedMean { trim_ratio } => {
                        blend(oracle::trimmed_mean(&views, trim_count(n, trim_ratio)))
                    }
                    RobustMethod::Median => blend(oracle::median(&views)),
                    RobustMethod::GeometricMedian { max_iters, tol } => {
                        blend(geometric_median(&views, max_iters, tol))
                    }
                    RobustMethod::Krum { f } | RobustMethod::MultiKrum { f, .. } => {
                        let m = match method {
                            RobustMethod::MultiKrum { m, .. } => m,
                            _ => 1,
                        };
                        // Winners pass through untouched: same senders,
                        // same weights, in client order.
                        let winners: Vec<(usize, f32)> = krum_select_with(&views, f, m, None)
                            .into_iter()
                            .map(|i| (sorted[i].client, sorted[i].weight))
                            .collect();
                        out.iter().map(|u| (u.client, u.weight)).eq(winners)
                    }
                    _ => unreachable!("every method is listed above"),
                };
                prop_assert!(same, "{} n {n} dim {dim}", method.as_str());
            }
        }
    }

    #[test]
    fn trimmed_mean_kernel_matches_the_sorting_oracle_bitwise(
        seed in 0u64..u64::MAX,
        n_pick in 0usize..35,
        dim_pick in 0usize..usize::MAX / 2,
        nudge in 0usize..3,
        trim_pick in 0usize..usize::MAX / 2,
    ) {
        let n = cohort_size(n_pick);
        let dim = dimension(n, dim_pick, nudge);
        // Every legal trim, the two ends (plain mean, one survivor or
        // two) twice as often as the rest.
        let most = (n - 1) / 2;
        let trim = match trim_pick % (most + 3) {
            t if t <= most => t,
            t if t == most + 1 => 0,
            _ => most,
        };
        let cohort = adversarial_cohort(seed, n, dim);
        let views: Vec<&[f32]> = cohort.iter().map(Vec::as_slice).collect();
        let expected = bits(&oracle::trimmed_mean(&views, trim));
        for pool in pools() {
            let got = coordinate_trimmed_mean_with(&views, trim, pool);
            prop_assert!(bits(&got) == expected, "n {n} dim {dim} trim {trim}");
        }
    }

    #[test]
    fn median_kernel_matches_the_sorting_oracle_bitwise(
        seed in 0u64..u64::MAX,
        n_pick in 0usize..35,
        dim_pick in 0usize..usize::MAX / 2,
        nudge in 0usize..3,
    ) {
        let n = cohort_size(n_pick);
        let dim = dimension(n, dim_pick, nudge);
        let cohort = adversarial_cohort(seed, n, dim);
        let views: Vec<&[f32]> = cohort.iter().map(Vec::as_slice).collect();
        let expected = bits(&oracle::median(&views));
        for pool in pools() {
            let got = coordinate_median_with(&views, pool);
            prop_assert!(bits(&got) == expected, "n {n} dim {dim}");
        }
    }

    #[test]
    fn selection_matches_the_sorting_oracle_where_counting_stops_early_and_where_it_cannot(
        seed in 0u64..u64::MAX,
        n in 2usize..301,
        panels in 1usize..5,
        nudge in 0usize..8,
        trim_pick in 0usize..usize::MAX / 2,
    ) {
        let dim = 8 * panels + nudge;
        let trim = trim_pick % ((n - 1) / 2 + 1);
        let cohort = shaped_cohort(seed, n, dim, &[trim, n - 1 - trim]);
        let views: Vec<&[f32]> = cohort.iter().map(Vec::as_slice).collect();
        let expected = bits(&oracle::trimmed_mean(&views, trim));
        let got = coordinate_trimmed_mean_with(&views, trim, None);
        prop_assert!(bits(&got) == expected, "trimmed mean n {n} dim {dim} trim {trim}");

        let cohort = shaped_cohort(seed ^ 1, n, dim, &[n / 2, (n - 1) / 2]);
        let views: Vec<&[f32]> = cohort.iter().map(Vec::as_slice).collect();
        let expected = bits(&oracle::median(&views));
        let got = coordinate_median_with(&views, None);
        prop_assert!(bits(&got) == expected, "median n {n} dim {dim}");
    }

    #[test]
    fn every_estimator_is_permutation_invariant(
        values in values(),
        n in 2usize..MAX_N + 1,
        dim in 1usize..MAX_DIM + 1,
        perm_seed in 0u64..u64::MAX,
    ) {
        let base = cohort(&values, n, dim);
        let mut shuffled = base.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(perm_seed));
        for method in every_method() {
            let agg = RobustAggregator::new(method);
            let (a, sa) = agg.pre_aggregate_with(dim, base.clone(), None);
            let (b, sb) = agg.pre_aggregate_with(dim, shuffled.clone(), None);
            // Bitwise equality: RoundUpdate derives PartialEq over f32
            // payloads, so any accumulation-order drift fails here.
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(sa, sb);
        }
    }

    #[test]
    fn every_estimator_is_deterministic(
        values in values(),
        n in 2usize..MAX_N + 1,
        dim in 1usize..MAX_DIM + 1,
    ) {
        let base = cohort(&values, n, dim);
        for method in every_method() {
            let agg = RobustAggregator::new(method);
            let (a, _) = agg.pre_aggregate_with(dim, base.clone(), None);
            let (b, _) = agg.pre_aggregate_with(dim, base.clone(), None);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_parameter_estimators_reproduce_plain_aggregation(
        values in values(),
        n in 2usize..MAX_N + 1,
        dim in 1usize..MAX_DIM + 1,
        perm_seed in 0u64..u64::MAX,
    ) {
        // The honest cohort arrives in arbitrary order; the stage must
        // still reproduce the client-ordered plain mean exactly.
        let base = cohort(&values, n, dim);
        let mean = plain_mean(&base, dim);
        let mut arrivals = base.clone();
        arrivals.shuffle(&mut StdRng::seed_from_u64(perm_seed));

        // Trimmed mean with nothing trimmed is the plain mean, bit-for-bit.
        let agg = RobustAggregator::new(RobustMethod::TrimmedMean { trim_ratio: 0.0 });
        let (out, stats) = agg.pre_aggregate_with(dim, arrivals.clone(), None);
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].payload.clone().into_dense(), mean.clone());
        prop_assert_eq!(stats.trimmed_values, 0);

        // Weiszfeld starts at the plain mean; zero iterations returns it.
        let agg = RobustAggregator::new(RobustMethod::GeometricMedian {
            max_iters: 0,
            tol: 1e-9,
        });
        let (out, _) = agg.pre_aggregate_with(dim, arrivals.clone(), None);
        prop_assert_eq!(out[0].payload.clone().into_dense(), mean);

        // Multi-Krum with no Byzantine budget and a full keep-count passes
        // every update through untouched (in client order), so whatever
        // aggregation policy follows sees exactly the honest cohort.
        let agg = RobustAggregator::new(RobustMethod::MultiKrum { f: 0, m: MAX_N });
        let (out, stats) = agg.pre_aggregate_with(dim, arrivals, None);
        prop_assert_eq!(out, base);
        prop_assert_eq!(stats.rejected, 0);
    }
}
