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
//! at pool widths 1, 2 and 4.
//!
//! `PROPTEST_CASES` scales the case count (CI runs these elevated).

use adafl_fl::pool::WorkerPool;
use adafl_fl::robust::{
    coordinate_median_with, coordinate_trimmed_mean_with, oracle, RobustAggregator, RobustMethod,
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

proptest! {
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
