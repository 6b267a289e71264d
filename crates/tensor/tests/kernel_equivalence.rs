//! Property tests: the panel-packed matmul kernels must agree with the
//! naive triple-loop oracle on ragged shapes.
//!
//! Shapes are drawn from {1..17} ∪ {63, 64, 256} per dimension, straddling
//! every kernel boundary: partial MR row tiles, partial NR column tiles,
//! and the KC k-block edge. Two comparison tiers:
//!
//! * against the **naive** oracles, whose accumulation order differs,
//!   equality holds up to a small relative tolerance;
//! * against the **ordered** oracles, which replay the production
//!   reduction order in plain scalar code, equality is **exact** — the
//!   bitwise contract the golden traces rely on, and the property that
//!   pins the SIMD tiles (`--features simd`) to the scalar ones.
//!
//! The convolution's per-sample weight-gradient pass must equal a loop of
//! per-sample NT products, and the grouped `im2col` / `col2im` transforms
//! the per-element loops, both bit for bit.

use adafl_tensor::{
    col2im_grouped_into, col2im_into, im2col_grouped_into, im2col_into, matmul_into,
    matmul_into_with, matmul_nt, matmul_nt_samples_with, matmul_nt_with, matmul_tn, matmul_tn_with,
    oracle, Conv2dGeometry, PackBuf,
};
use proptest::prelude::*;

/// Maps a raw draw in `0..20` onto {1..17} ∪ {63, 64, 256}.
///
/// A `k × n` of 256 × 256 pushes the `B` k-slab past the pack-vs-direct
/// threshold (128 KiB), while 64 × 256 and 256 × 64 stay under it, so shape
/// pairs drawn here exercise both schedules of every kernel; a `k` of 256
/// also fills one `KC` slab exactly.
fn dim(raw: usize) -> usize {
    match raw {
        0..=16 => raw + 1,
        17 => 63,
        18 => 64,
        _ => 256,
    }
}

/// Deterministic data fill: small signed values, varied per seed.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed)
                .rotate_left(17);
            ((x % 31) as f32 - 15.0) * 0.25
        })
        .collect()
}

/// [`fill`] with signed zeros and subnormals mixed in, so the bitwise
/// checks cover `-0.0` products and subnormal arithmetic.
fn fill_special(len: usize, seed: u64) -> Vec<f32> {
    fill(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match (i as u64).wrapping_add(seed) % 9 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0e-40,
            3 => -3.0e-39,
            _ => v,
        })
        .collect()
}

/// Sample `s`'s `n×k` rows out of a `b` stored in groups of `group`
/// samples, each group an `[n, g·k]` matrix.
fn grouped_sample(
    b: &[f32],
    s: usize,
    group: usize,
    samples: usize,
    n: usize,
    k: usize,
) -> Vec<f32> {
    let s0 = s / group * group;
    let gk = group.min(samples - s0) * k;
    (0..n)
        .flat_map(|j| {
            let at = s0 * n * k + j * gk + (s - s0) * k;
            b[at..at + k].iter().copied()
        })
        .collect()
}

/// A geometry with `ow` output columns and `oh` rows. Padding is capped so
/// the input is at least one pixel wide; it does not change `ow`.
fn geometry(
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) -> Conv2dGeometry {
    let reach = |o: usize| (o - 1) * stride + kernel;
    let padding = padding.min((reach(oh).min(reach(ow)) - 1) / 2);
    let geom = Conv2dGeometry::new(
        channels,
        reach(oh) - 2 * padding,
        reach(ow) - 2 * padding,
        kernel,
        stride,
        padding,
    );
    assert_eq!((geom.out_h(), geom.out_w()), (oh, ow));
    geom
}

fn close(x: f32, y: f32) -> bool {
    (x - y).abs() <= 1e-3 * (1.0 + y.abs())
}

fn same_bits(c: &[f32], expected: &[f32]) -> bool {
    c.iter()
        .zip(expected)
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The workloads' own narrow products, plus every ragged width below one
/// column tile at a `k` spanning two `KC` slabs (the proptests' dims stop at
/// one): NN and TN must equal the ordered oracles bit for bit, through a
/// fresh `PackBuf` and through one reused across every shape.
#[test]
fn workload_shapes_bitwise_match_ordered_oracle() {
    let narrow = (1..=15).map(|n| (16, 300, n));
    let nn = [
        (16, 256, 32),
        (32, 256, 32),
        (16, 256, 10),
        (8, 256, 10),
        (32, 500, 10),
        (64, 500, 10),
        (16, 32, 10),
    ];
    // TN shapes are `(k, m, n)`: `a` is stored `k×m`.
    let tn = [
        (256, 16, 32),
        (16, 256, 10),
        (8, 256, 10),
        (32, 500, 10),
        (16, 32, 10),
        (50, 500, 4),
    ];
    let mut reused = PackBuf::new();
    for (m, k, n) in nn.into_iter().chain(narrow.clone()) {
        let a = fill(m * k, (m * k + n) as u64);
        let b = fill(k * n, (k + n) as u64 ^ 0xA5A5);
        let expected = oracle::matmul_ordered(&a, &b, m, k, n);
        for pack in [&mut PackBuf::new(), &mut reused] {
            let mut c = vec![0.0f32; m * n];
            matmul_into_with(&a, &b, &mut c, m, k, n, pack);
            assert!(same_bits(&c, &expected), "nn m={m} k={k} n={n}");
        }
    }
    for (k, m, n) in tn.into_iter().chain(narrow.map(|(m, k, n)| (k, m, n))) {
        let a = fill(k * m, (k * m + n) as u64);
        let b = fill(k * n, (k + n) as u64 ^ 0x5A5A);
        let expected = oracle::matmul_tn_ordered(&a, &b, k, m, n);
        for pack in [&mut PackBuf::new(), &mut reused] {
            let mut c = vec![0.0f32; m * n];
            matmul_tn_with(&a, &b, &mut c, k, m, n, pack);
            assert!(same_bits(&c, &expected), "tn k={k} m={m} n={n}");
        }
    }
}

proptest! {
    #[test]
    fn blocked_matmul_matches_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xA5A5);
        let mut c = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        let expected = oracle::matmul(&a, &b, m, k, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(close(x, y), "C[{i}] = {x} vs oracle {y} (m={m} k={k} n={n})");
        }
    }

    #[test]
    fn blocked_matmul_tn_matches_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        // A stored k×m (transposed operand).
        let a = fill(k * m, seed);
        let b = fill(k * n, seed ^ 0x5A5A);
        let mut c = vec![0.0f32; m * n];
        matmul_tn(&a, &b, &mut c, k, m, n);
        let expected = oracle::matmul_tn(&a, &b, k, m, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(close(x, y), "C[{i}] = {x} vs oracle {y} (m={m} k={k} n={n})");
        }
    }

    #[test]
    fn blocked_matmul_nt_matches_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let a = fill(m * k, seed);
        // B stored n×k (transposed operand).
        let b = fill(n * k, seed ^ 0x3C3C);
        let mut c = vec![0.0f32; m * n];
        matmul_nt(&a, &b, &mut c, m, k, n);
        let expected = oracle::matmul_nt(&a, &b, m, k, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(close(x, y), "C[{i}] = {x} vs oracle {y} (m={m} k={k} n={n})");
        }
    }

    #[test]
    fn packed_matmul_bitwise_matches_ordered_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xA5A5);
        let mut c = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        let expected = oracle::matmul_ordered(&a, &b, m, k, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "C[{i}] = {x:?} vs ordered oracle {y:?} (m={m} k={k} n={n})"
            );
        }
    }

    #[test]
    fn packed_matmul_tn_bitwise_matches_ordered_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let a = fill(k * m, seed);
        let b = fill(k * n, seed ^ 0x5A5A);
        let mut c = vec![0.0f32; m * n];
        matmul_tn(&a, &b, &mut c, k, m, n);
        let expected = oracle::matmul_tn_ordered(&a, &b, k, m, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "C[{i}] = {x:?} vs ordered oracle {y:?} (m={m} k={k} n={n})"
            );
        }
    }

    #[test]
    fn packed_matmul_nt_bitwise_matches_ordered_oracle(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let a = fill(m * k, seed);
        let b = fill(n * k, seed ^ 0x3C3C);
        let mut c = vec![0.0f32; m * n];
        matmul_nt(&a, &b, &mut c, m, k, n);
        let expected = oracle::matmul_nt_ordered(&a, &b, m, k, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "C[{i}] = {x:?} vs ordered oracle {y:?} (m={m} k={k} n={n})"
            );
        }
    }

    #[test]
    fn reused_pack_buffer_is_bitwise_equivalent(
        rm in 0usize..20, rk in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        // One PackBuf carried across all three kernels and a second,
        // differently-shaped call: stale panel contents must never leak.
        let (m, k, n) = (dim(rm), dim(rk), dim(rn));
        let mut pack = PackBuf::new();
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xA5A5);
        let bt = fill(n * k, seed ^ 0x3C3C);
        let at = fill(k * m, seed ^ 0x5A5A);

        let mut c = vec![0.0f32; m * n];
        matmul_into_with(&a, &b, &mut c, m, k, n, &mut pack);
        let mut fresh = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut fresh, m, k, n);
        prop_assert_eq!(&c, &fresh);

        let mut c = vec![0.0f32; m * n];
        matmul_tn_with(&at, &b, &mut c, k, m, n, &mut pack);
        let mut fresh = vec![0.0f32; m * n];
        matmul_tn(&at, &b, &mut fresh, k, m, n);
        prop_assert_eq!(&c, &fresh);

        let mut c = vec![0.0f32; m * n];
        matmul_nt_with(&a, &bt, &mut c, m, k, n, &mut pack);
        let mut fresh = vec![0.0f32; m * n];
        matmul_nt(&a, &bt, &mut fresh, m, k, n);
        prop_assert_eq!(&c, &fresh);

        // Smaller follow-up shape through the same (now oversized) buffer.
        let (m2, k2, n2) = (m.div_ceil(2), k.div_ceil(2), n.div_ceil(2));
        let a2 = fill(m2 * k2, seed ^ 0x99);
        let b2 = fill(k2 * n2, seed ^ 0x66);
        let mut c = vec![0.0f32; m2 * n2];
        matmul_into_with(&a2, &b2, &mut c, m2, k2, n2, &mut pack);
        let expected = oracle::matmul_ordered(&a2, &b2, m2, k2, n2);
        prop_assert_eq!(&c, &expected);
    }

    #[test]
    fn blocked_kernels_accumulate_into_c(
        rm in 0usize..20, rn in 0usize..20, seed in 0u64..1_000_000
    ) {
        // The kernels accumulate (C += A·B); engines rely on this for
        // per-sample gradient accumulation.
        let (m, k, n) = (dim(rm), 8, dim(rn));
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0x77);
        let mut c = vec![1.0f32; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        let expected = oracle::matmul(&a, &b, m, k, n);
        for (i, (&x, &y)) in c.iter().zip(&expected).enumerate() {
            prop_assert!(close(x, y + 1.0), "C[{i}] = {x} vs oracle+1 {} ", y + 1.0);
        }
    }
}

/// Every product `-0.0` and `c` all `-0.0`: each sample's sum starts from
/// `+0.0`, so it is `+0.0` and so is `c` after adding it. A sum seeded
/// with its first product would leave `-0.0` — a case the random fills
/// below reach only now and then.
#[test]
fn sample_products_sum_from_positive_zero() {
    let (samples, group, m, n) = (3, 2, 5, 19);
    for k in [1, 4, 15, 16, 20] {
        let a = vec![0.0f32; samples * m * k];
        let b = vec![-1.0f32; samples * n * k];
        let mut c = vec![-0.0f32; m * n];
        matmul_nt_samples_with(&a, &b, &mut c, samples, group, m, k, n, &mut PackBuf::new());
        assert!(c.iter().all(|x| x.to_bits() == 0), "k={k}");
    }
}

proptest! {
    #[test]
    fn sample_products_match_a_per_sample_nt_loop_bit_for_bit(
        samples in 1usize..34, group in 1usize..5, m in 1usize..10, k in 1usize..21,
        n in 1usize..41, seed in 0u64..1_000_000
    ) {
        // `k` straddles `LANES` (16): below it the fused register pass
        // runs, from it the per-sample loop; `n` leaves ragged column tiles.
        let a = fill_special(samples * m * k, seed);
        let b = fill_special(samples * n * k, seed ^ 0x3C3C);
        let c0 = fill_special(m * n, seed ^ 0x99);
        let mut expected = c0.clone();
        let mut pack = PackBuf::new();
        for s in 0..samples {
            let b_s = grouped_sample(&b, s, group, samples, n, k);
            matmul_nt_with(&a[s * m * k..][..m * k], &b_s, &mut expected, m, k, n, &mut pack);
        }
        let mut c = c0;
        matmul_nt_samples_with(&a, &b, &mut c, samples, group, m, k, n, &mut pack);
        prop_assert!(
            same_bits(&c, &expected),
            "samples={samples} group={group} m={m} k={k} n={n}"
        );
    }

    #[test]
    fn grouped_im2col_and_col2im_match_the_element_loops_bit_for_bit(
        channels in 1usize..4, kernel in 1usize..6, stride in 1usize..3,
        padding in 0usize..3, oh in 1usize..5, ow in 1usize..13, group in 1usize..5,
        seed in 0u64..1_000_000
    ) {
        let geom = geometry(channels, kernel, stride, padding, oh, ow);
        let (volume, np, pl) = (geom.input_volume(), geom.n_patches(), geom.patch_len());
        let width = group * np;
        let imgs = fill_special(group * volume, seed);
        // Stale contents: every position must be overwritten.
        let mut cols = vec![f32::NAN; pl * width];
        im2col_grouped_into(&imgs, &geom, group, &mut cols);
        let dcols = fill_special(pl * width, seed ^ 0x5A5A);
        let mut dimgs = vec![f32::NAN; group * volume];
        col2im_grouped_into(&dcols, &geom, group, &mut dimgs);
        let (mut one, mut block, mut img) =
            (vec![0.0; pl * np], vec![0.0; pl * np], vec![0.0; volume]);
        for s in 0..group {
            let at = format!("sample {s} of {group}, {geom:?}");
            let image = &imgs[s * volume..][..volume];
            oracle::im2col_into(image, &geom, &mut one);
            for (r, row) in one.chunks_exact(np).enumerate() {
                prop_assert!(same_bits(&cols[r * width + s * np..][..np], row), "im2col {}", at);
            }
            let mut ungrouped = vec![f32::NAN; pl * np];
            im2col_into(image, &geom, &mut ungrouped);
            prop_assert!(same_bits(&ungrouped, &one), "im2col_into {}", at);

            for (r, dst) in block.chunks_exact_mut(np).enumerate() {
                dst.copy_from_slice(&dcols[r * width + s * np..][..np]);
            }
            oracle::col2im_into(&block, &geom, &mut img);
            prop_assert!(same_bits(&dimgs[s * volume..][..volume], &img), "col2im {}", at);
            let mut ungrouped = vec![f32::NAN; volume];
            col2im_into(&block, &geom, &mut ungrouped);
            prop_assert!(same_bits(&ungrouped, &img), "col2im_into {}", at);
        }
    }
}
