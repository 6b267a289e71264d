//! The utility score `S_i = f(B_i^down, B_i^up, U(g_i, ĝ))` (Eq. 6).
//!
//! A client's utility combines how *useful* its update is (gradient
//! similarity to the previous global gradient — aligned updates help
//! convergence, misaligned ones add noise) with how *cheap* it is to obtain
//! (link bandwidth). Both terms are normalised to `[0, 1]` and blended with
//! weight `β`.

use adafl_netsim::LinkSpec;

/// Time window within which a client's (compressed) update should fit for
/// its bandwidth to count as fully "sufficient" (Eq. 6's `B` inputs).
const BW_SUFFICIENCY_WINDOW_S: f64 = 1.0;

/// Gradient-similarity metric for the utility score.
///
/// The paper uses cosine similarity and notes L2-norm ratio and Euclidean
/// distance as alternatives \[33]; all three are provided for the ablation
/// bench.
#[derive(
    serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
#[non_exhaustive]
pub enum SimilarityMetric {
    /// Cosine similarity, mapped from `[-1, 1]` to `[0, 1]`. Directionally
    /// sensitive, robust to gradient-magnitude oscillations.
    #[default]
    Cosine,
    /// Closeness of L2 norms: `min(‖a‖,‖b‖)/max(‖a‖,‖b‖)`. Ignores
    /// direction entirely.
    L2Norm,
    /// Inverse Euclidean distance: `1/(1 + ‖a−b‖/‖b‖)`. Sensitive to both
    /// direction and magnitude.
    Euclidean,
}

impl SimilarityMetric {
    /// Similarity of `local` to `global_ref` in `[0, 1]`.
    ///
    /// Returns `0.5` (neutral) when either vector is zero — a client with
    /// no gradient information is neither aligned nor opposed.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn similarity01(&self, local: &[f32], global_ref: &[f32]) -> f32 {
        assert_eq!(local.len(), global_ref.len(), "gradient length mismatch");
        let sums = Sums::of(local, global_ref);
        let nl = sums.local.sqrt();
        let ng = sums.global.sqrt();
        if nl == 0.0 || ng == 0.0 {
            return 0.5;
        }
        match self {
            SimilarityMetric::Cosine => ((sums.dot / (nl * ng)).clamp(-1.0, 1.0) + 1.0) / 2.0,
            SimilarityMetric::L2Norm => nl.min(ng) / nl.max(ng),
            SimilarityMetric::Euclidean => {
                let d = sums.distance.sqrt() / ng;
                1.0 / (1.0 + d)
            }
        }
    }
}

/// The four sums the metrics read, from one pass over both gradients.
/// Each runs in index order from `-0.0`, as `Iterator::sum` does, so each
/// carries the bits of its own pass in [`adafl_tensor::vecops`]:
/// `l2_norm`'s squares, `dot`, and `l2_distance`'s squared differences.
struct Sums {
    local: f32,
    global: f32,
    dot: f32,
    distance: f32,
}

impl Sums {
    fn of(local: &[f32], global: &[f32]) -> Sums {
        let mut s = Sums {
            local: -0.0,
            global: -0.0,
            dot: -0.0,
            distance: -0.0,
        };
        for (&x, &y) in local.iter().zip(global) {
            s.local += x * x;
            s.global += y * y;
            s.dot += x * y;
            let d = x - y;
            s.distance += d * d;
        }
        s
    }
}

/// Inputs to one client's utility score.
#[derive(Debug, Clone, Copy)]
pub struct UtilityInputs<'a> {
    /// The client's local gradient estimate `g_i`.
    pub local_gradient: &'a [f32],
    /// The previous round's global gradient `ĝ`.
    pub global_gradient: &'a [f32],
    /// The client's current link conditions.
    pub link: LinkSpec,
    /// Expected size of the client's (compressed) uplink payload in bytes,
    /// used to judge bandwidth *sufficiency*.
    pub expected_payload: usize,
}

/// Bandwidth **sufficiency** in `[0, 1]`: 1 when the slower link direction
/// can move `expected_payload` within `BW_SUFFICIENCY_WINDOW_S`,
/// degrading proportionally below that.
///
/// The paper selects "clients with meaningful updates and *sufficient*
/// network bandwidth". A sufficiency test — rather than an absolute
/// bandwidth ranking — matters under persistently heterogeneous fleets: an
/// absolute ranking permanently excludes every constrained client (and its
/// data classes with it), while sufficiency only penalises links that
/// genuinely cannot keep up with the compressed payloads AdaFL sends (see
/// DESIGN.md §5b).
pub fn bandwidth01(link: &LinkSpec, expected_payload: usize) -> f32 {
    let bw = link
        .uplink_bandwidth()
        .min(link.downlink_bandwidth())
        .max(1.0);
    let deliverable = bw * BW_SUFFICIENCY_WINDOW_S;
    ((deliverable / expected_payload.max(1) as f64).clamp(0.0, 1.0)) as f32
}

/// Computes the utility score `S_i ∈ [0, 1]` (Eq. 6):
/// `β · U(g_i, ĝ) + (1−β) · bw01`.
///
/// # Panics
///
/// Panics when `similarity_weight` is outside `[0, 1]` or gradient lengths
/// differ.
pub fn utility_score(
    inputs: &UtilityInputs<'_>,
    metric: SimilarityMetric,
    similarity_weight: f32,
) -> f32 {
    assert!(
        (0.0..=1.0).contains(&similarity_weight),
        "similarity weight must be in [0, 1]"
    );
    let sim = metric.similarity01(inputs.local_gradient, inputs.global_gradient);
    let bw = bandwidth01(&inputs.link, inputs.expected_payload);
    similarity_weight * sim + (1.0 - similarity_weight) * bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_netsim::LinkProfile;
    use adafl_tensor::vecops;

    fn link() -> LinkSpec {
        LinkProfile::Broadband.spec()
    }

    #[test]
    fn cosine_maps_to_unit_interval() {
        let m = SimilarityMetric::Cosine;
        assert!((m.similarity01(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((m.similarity01(&[1.0, 0.0], &[-1.0, 0.0])).abs() < 1e-6);
        assert!((m.similarity01(&[1.0, 0.0], &[0.0, 1.0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_gradient_is_neutral_for_all_metrics() {
        for m in [
            SimilarityMetric::Cosine,
            SimilarityMetric::L2Norm,
            SimilarityMetric::Euclidean,
        ] {
            assert_eq!(m.similarity01(&[0.0, 0.0], &[1.0, 1.0]), 0.5);
            assert_eq!(m.similarity01(&[1.0, 1.0], &[0.0, 0.0]), 0.5);
        }
    }

    #[test]
    fn l2_metric_ignores_direction() {
        let m = SimilarityMetric::L2Norm;
        let a = m.similarity01(&[3.0, 0.0], &[0.0, 3.0]);
        assert!(
            (a - 1.0).abs() < 1e-6,
            "equal norms score 1 regardless of direction"
        );
        assert!((m.similarity01(&[1.0, 0.0], &[4.0, 0.0]) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn euclidean_decreases_with_distance() {
        let m = SimilarityMetric::Euclidean;
        let near = m.similarity01(&[1.0, 0.0], &[1.1, 0.0]);
        let far = m.similarity01(&[5.0, 0.0], &[1.0, 0.0]);
        assert!(near > far);
        assert!((m.similarity01(&[1.0], &[1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_sufficiency_saturates_for_adequate_links() {
        // A 10 KB payload fits comfortably on every profile except the
        // slowest: sufficiency separates "can keep up" from "cannot".
        let payload = 10_000;
        let broadband = bandwidth01(&LinkProfile::Broadband.spec(), payload);
        let constrained = bandwidth01(&LinkProfile::Constrained.spec(), payload);
        assert_eq!(broadband, 1.0);
        assert_eq!(constrained, 1.0);
        // A dense 1.64 MB payload overwhelms the constrained uplink.
        let dense = 1_640_000;
        assert!(bandwidth01(&LinkProfile::Constrained.spec(), dense) < 0.1);
        assert_eq!(bandwidth01(&LinkProfile::Broadband.spec(), dense), 1.0);
    }

    #[test]
    fn bandwidth_sufficiency_is_monotone_in_bandwidth() {
        let payload = 100_000;
        let slow = bandwidth01(&LinkProfile::Lossy.spec(), payload);
        let mid = bandwidth01(&LinkProfile::Cellular.spec(), payload);
        assert!(slow < mid);
        assert!((0.0..=1.0).contains(&slow));
    }

    #[test]
    fn beta_blends_similarity_and_bandwidth() {
        let g = [1.0f32, 0.0];
        let inputs = UtilityInputs {
            local_gradient: &g,
            global_gradient: &g,
            link: link(),
            expected_payload: 10_000,
        };
        // β = 1: pure similarity (aligned → 1.0).
        assert!((utility_score(&inputs, SimilarityMetric::Cosine, 1.0) - 1.0).abs() < 1e-6);
        // β = 0: pure bandwidth.
        let bw_only = utility_score(&inputs, SimilarityMetric::Cosine, 0.0);
        assert!((bw_only - bandwidth01(&link(), 10_000)).abs() < 1e-6);
        // Intermediate β is between the extremes.
        let mid = utility_score(&inputs, SimilarityMetric::Cosine, 0.5);
        assert!(mid <= 1.0 && mid >= bw_only.min(1.0));
    }

    #[test]
    fn aligned_fast_clients_beat_misaligned_slow_ones() {
        let g_hat = [1.0f32, 0.0];
        let aligned = UtilityInputs {
            local_gradient: &[2.0, 0.0],
            global_gradient: &g_hat,
            link: LinkProfile::Broadband.spec(),
            expected_payload: 100_000,
        };
        let misaligned = UtilityInputs {
            local_gradient: &[-1.0, 0.0],
            global_gradient: &g_hat,
            link: LinkProfile::Lossy.spec(),
            expected_payload: 100_000,
        };
        let sa = utility_score(&aligned, SimilarityMetric::Cosine, 0.7);
        let sm = utility_score(&misaligned, SimilarityMetric::Cosine, 0.7);
        assert!(sa > sm + 0.3, "scores too close: {sa} vs {sm}");
    }

    /// `similarity01` as five separate passes: both norms, then the
    /// metric's own `vecops` call, which takes its norms again. Kept as
    /// the reference the one-pass form must match bitwise.
    fn five_pass(metric: SimilarityMetric, local: &[f32], global_ref: &[f32]) -> f32 {
        let nl = vecops::l2_norm(local);
        let ng = vecops::l2_norm(global_ref);
        if nl == 0.0 || ng == 0.0 {
            return 0.5;
        }
        match metric {
            SimilarityMetric::Cosine => (vecops::cosine_similarity(local, global_ref) + 1.0) / 2.0,
            SimilarityMetric::L2Norm => nl.min(ng) / nl.max(ng),
            SimilarityMetric::Euclidean => {
                let d = vecops::l2_distance(local, global_ref) / ng;
                1.0 / (1.0 + d)
            }
        }
    }

    /// A pair of `len`-long gradients from `seed`: mostly ordinary values,
    /// with signed zeros, subnormals, huge values (whose squares overflow)
    /// and the odd NaN mixed in; `zeros` in 8 makes one side all ±0.0.
    fn gradient_pair(seed: u64, len: usize) -> (Vec<f32>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let zeros = next() % 8;
        let mut draw = |all_zero: bool| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    let r = next();
                    let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                    let x = match (r >> 1) % 64 {
                        _ if all_zero => 0.0,
                        0..=3 => 0.0,
                        4 => f32::from_bits((r >> 40) as u32 & 0x007f_ffff),
                        5 => 3e19,
                        6 if r % 7 == 0 => f32::NAN,
                        _ => ((r >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.02,
                    };
                    x * sign
                })
                .collect()
        };
        let local = draw(zeros == 0);
        let global = draw(zeros == 1);
        (local, global)
    }

    proptest::proptest! {
        #[test]
        fn one_pass_matches_the_five_pass_form_bitwise(seed in 0u64..u64::MAX, len in 0usize..700) {
            let (local, global) = gradient_pair(seed, len);
            for metric in [SimilarityMetric::Cosine, SimilarityMetric::L2Norm, SimilarityMetric::Euclidean] {
                let (got, want) = (metric.similarity01(&local, &global), five_pass(metric, &local, &global));
                // A NaN's payload is the compiler's to pick (it may swap
                // the operands of a commutative op); that it is NaN is not.
                let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                proptest::prop_assert!(same, "{metric:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn sums_start_from_negative_zero_like_the_vecops_passes() {
        // Every product is -0.0: a sum started at +0.0 would end at +0.0.
        let (a, b) = ([1.0f32, -0.0, 2.0], [-0.0f32, 3.0, -0.0]);
        let sums = Sums::of(&a, &b);
        assert_eq!(sums.dot.to_bits(), (-0.0f32).to_bits());
        assert_eq!(sums.dot.to_bits(), vecops::dot(&a, &b).to_bits());
        let empty = Sums::of(&[], &[]);
        for sum in [empty.local, empty.global, empty.dot, empty.distance] {
            assert_eq!(sum.to_bits(), (-0.0f32).to_bits());
        }
        assert_eq!(empty.local.sqrt().to_bits(), vecops::l2_norm(&[]).to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_gradients_panic() {
        SimilarityMetric::Cosine.similarity01(&[1.0], &[1.0, 2.0]);
    }
}
