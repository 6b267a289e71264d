//! Property-based tests for the compression stack.

use adafl_compression::{oracle, top_k, DgcCompressor, QsgdQuantizer, SparseUpdate, WireCodec};
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-50.0f32..50.0, len)
}

/// A `len`-long input for the top-k oracle check, drawn from `seed` in one
/// of four shapes: a palette of a few values (heavy exact ties), keys
/// packed into a narrow range (so the select descends every digit), raw
/// bit patterns (subnormals, ±inf, ±0.0 among them), or the same with
/// NaNs sprinkled in.
fn topk_input(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
    ];
    let shape = next() % 4;
    let palette: Vec<f32> = (0..1 + next() % 6)
        .map(|_| specials[(next() % specials.len() as u64) as usize])
        .collect();
    let base = (next() as u32) & 0x7f00_0000;
    let span = 1 + (next() % (1 << 20)) as u32;
    (0..len)
        .map(|_| {
            let r = next();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            match shape {
                0 => palette[(r >> 1) as usize % palette.len()] * sign,
                1 => f32::from_bits((base + (r >> 8) as u32 % span).min(0x7f80_0000)) * sign,
                _ if r % 97 == 0 => specials[(r >> 8) as usize % specials.len()],
                _ if shape == 3 && r % 89 == 0 => f32::NAN,
                _ => {
                    let x = f32::from_bits((r >> 32) as u32);
                    if x.is_nan() {
                        f32::INFINITY * sign
                    } else {
                        x
                    }
                }
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn top_k_keeps_exactly_k(dense in vec_f32(64), k in 0usize..80) {
        let u = top_k(&dense, k);
        prop_assert_eq!(u.nnz(), k.min(64));
        prop_assert_eq!(u.dense_len(), 64);
    }

    #[test]
    fn top_k_values_dominate_dropped_values(dense in vec_f32(32), k in 1usize..32) {
        let u = top_k(&dense, k);
        let kept_min = u.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        let kept: std::collections::HashSet<u32> = u.indices().iter().copied().collect();
        for (i, v) in dense.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(v.abs() <= kept_min + 1e-6);
            }
        }
    }

    #[test]
    fn top_k_matches_the_oracle_bitwise(seed in 0u64..u64::MAX, len in 0usize..5001, extra in 0usize..5004) {
        let dense = topk_input(seed, len);
        let k = extra % (len + 4);
        let (got, want) = (top_k(&dense, k), oracle::top_k(&dense, k));
        prop_assert_eq!(got.dense_len(), want.dense_len());
        prop_assert_eq!(got.indices(), want.indices());
        let bits = |u: &SparseUpdate| u.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn sparse_codec_round_trips(dense in vec_f32(48), k in 0usize..48) {
        let u = top_k(&dense, k);
        let decoded = SparseUpdate::decode(&u.encode()).unwrap();
        prop_assert_eq!(decoded, u);
    }

    #[test]
    fn dgc_conserves_gradient_mass(grads in proptest::collection::vec(vec_f32(16), 1..6)) {
        // With momentum 0 and no clipping, transmitted + residual == sum of
        // inputs at every point in time.
        let mut dgc = DgcCompressor::new(16, 0.0, 1e12);
        let mut transmitted = vec![0.0f32; 16];
        let mut expected = vec![0.0f32; 16];
        for g in &grads {
            dgc.compress(g, 8.0).add_into(&mut transmitted, 1.0);
            for (e, x) in expected.iter_mut().zip(g) {
                *e += x;
            }
        }
        // Drain residual.
        for _ in 0..64 {
            dgc.compress(&[0.0; 16], 8.0).add_into(&mut transmitted, 1.0);
        }
        for (t, e) in transmitted.iter().zip(&expected) {
            prop_assert!((t - e).abs() < 1e-2 * (1.0 + e.abs()), "mass leak {t} vs {e}");
        }
    }

    #[test]
    fn dgc_nnz_matches_ratio(g in vec_f32(100), ratio in 1.0f32..100.0) {
        let mut dgc = DgcCompressor::new(100, 0.9, 10.0);
        let u = dgc.compress(&g, ratio);
        let expected = ((100.0 / ratio).round() as usize).max(1);
        prop_assert_eq!(u.nnz(), expected.min(100));
    }

    #[test]
    fn quantizer_error_bounded_by_norm(g in vec_f32(32)) {
        let mut q = QsgdQuantizer::new(8, 9);
        let u = q.quantize(&g);
        let d = u.to_dense();
        let norm = adafl_tensor::vecops::l2_norm(&g);
        for (a, b) in g.iter().zip(&d) {
            // Each coordinate is off by at most one quantization step.
            prop_assert!((a - b).abs() <= norm / 8.0 + 1e-4);
        }
    }
}
