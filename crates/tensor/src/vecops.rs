//! Flat-vector kernels used at the federated-learning boundary.
//!
//! Model updates travel between clients and the server as plain `&[f32]`
//! slices. The AdaFL utility score, gradient aggregation and compression all
//! operate on these flat vectors, so the kernels live here in the tensor
//! crate where both `adafl-nn` and `adafl-fl` can share them.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Index of the first maximum of `a`; `0` when empty.
/// Shared by [`crate::Tensor::argmax_rows`] and per-row callers that count
/// predictions without collecting them.
pub fn argmax(a: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in a.iter().enumerate() {
        if x > a[best] {
            best = i;
        }
    }
    best
}

/// Euclidean (L2) norm.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity in `[-1, 1]`.
///
/// Returns `0.0` when either vector has zero norm — the conventional choice
/// for "no directional information", which the AdaFL utility score treats as
/// neutral.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// In-place `a += k * b`.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn axpy(a: &mut [f32], k: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += k * y;
    }
}

/// In-place `a *= k`.
pub fn scale(a: &mut [f32], k: f32) {
    for x in a.iter_mut() {
        *x *= k;
    }
}

/// Weighted average of vectors: `Σ wᵢ·vᵢ / Σ wᵢ`.
///
/// Returns `None` when `vectors` is empty, the weights sum to zero, or any
/// vector length differs from the first.
pub fn weighted_average(vectors: &[&[f32]], weights: &[f32]) -> Option<Vec<f32>> {
    if vectors.is_empty() || vectors.len() != weights.len() {
        return None;
    }
    let len = vectors[0].len();
    if vectors.iter().any(|v| v.len() != len) {
        return None;
    }
    let total: f32 = weights.iter().sum();
    if total == 0.0 {
        return None;
    }
    let mut out = vec![0.0f32; len];
    for (v, &w) in vectors.iter().zip(weights) {
        axpy(&mut out, w / total, v);
    }
    Some(out)
}

/// Gathers the coordinates covered by `segments` (sorted, disjoint
/// `(offset, len)` ranges into `src`) into `out`, clearing it first.
///
/// These segment kernels are the flat-vector face of parameter sub-views:
/// a sliced weight matrix (an output-neuron column range of a row-major
/// gemm operand) flattens to a run of strided segments, and gathering
/// them materialises the sub-view's contiguous value vector.
///
/// # Panics
///
/// Panics when a segment reaches past `src.len()`.
pub fn gather_segments_into(src: &[f32], segments: &[(u32, u32)], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(segments.iter().map(|&(_, len)| len as usize).sum());
    for &(off, len) in segments {
        out.extend_from_slice(&src[off as usize..off as usize + len as usize]);
    }
}

/// Scatters `values` (a vector gathered by [`gather_segments_into`]) back
/// into the covered coordinates of `dst`; uncovered coordinates are left
/// untouched.
///
/// # Panics
///
/// Panics when `values.len()` differs from the segments' total length or a
/// segment reaches past `dst.len()`.
pub fn scatter_segments(dst: &mut [f32], segments: &[(u32, u32)], values: &[f32]) {
    let mut at = 0usize;
    for &(off, len) in segments {
        let len = len as usize;
        dst[off as usize..off as usize + len].copy_from_slice(&values[at..at + len]);
        at += len;
    }
    assert_eq!(at, values.len(), "segment/value length mismatch");
}

/// Accumulates `dst[covered] += k · values` over the covered coordinates,
/// the scatter-add counterpart of [`scatter_segments`].
///
/// # Panics
///
/// Panics when `values.len()` differs from the segments' total length or a
/// segment reaches past `dst.len()`.
pub fn scatter_add_segments(dst: &mut [f32], segments: &[(u32, u32)], values: &[f32], k: f32) {
    let mut at = 0usize;
    for &(off, len) in segments {
        let len = len as usize;
        axpy(
            &mut dst[off as usize..off as usize + len],
            k,
            &values[at..at + len],
        );
        at += len;
    }
    assert_eq!(at, values.len(), "segment/value length mismatch");
}

/// Zeroes every coordinate of `buf` *outside* the covered segments — the
/// gradient mask of sub-view training (frozen coordinates must not move).
///
/// # Panics
///
/// Panics when segments are unsorted, overlapping, or out of range.
pub fn zero_outside_segments(buf: &mut [f32], segments: &[(u32, u32)]) {
    let mut at = 0usize;
    for &(off, len) in segments {
        let off = off as usize;
        assert!(off >= at, "segments must be sorted and disjoint");
        buf[at..off].fill(0.0);
        at = off + len as usize;
    }
    buf[at..].fill(0.0);
}

/// Clips `a` in place to the L2 ball of radius `max_norm`, returning the
/// scaling factor applied (1.0 when no clipping occurred).
///
/// Used by DGC's local gradient clipping.
pub fn clip_l2(a: &mut [f32], max_norm: f32) -> f32 {
    let n = l2_norm(a);
    if n > max_norm && n > 0.0 {
        let k = max_norm / n;
        scale(a, k);
        k
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert!((l2_distance(&[1.0, 1.0], &[4.0, 5.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-3.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_neutral() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_is_clamped_against_rounding() {
        let a = [1e-20f32, 1e-20, 1e-20];
        let c = cosine_similarity(&a, &a);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = vec![1.0, 2.0];
        axpy(&mut a, 2.0, &[10.0, 20.0]);
        assert_eq!(a, vec![21.0, 42.0]);
        scale(&mut a, 0.5);
        assert_eq!(a, vec![10.5, 21.0]);
    }

    #[test]
    fn weighted_average_normalises() {
        let v1 = [0.0f32, 0.0];
        let v2 = [4.0f32, 8.0];
        let avg = weighted_average(&[&v1, &v2], &[1.0, 3.0]).unwrap();
        assert_eq!(avg, vec![3.0, 6.0]);
    }

    #[test]
    fn weighted_average_rejects_bad_input() {
        assert!(weighted_average(&[], &[]).is_none());
        let v1 = [1.0f32];
        let v2 = [1.0f32, 2.0];
        assert!(weighted_average(&[&v1, &v2], &[1.0, 1.0]).is_none());
        assert!(weighted_average(&[&v1], &[0.0]).is_none());
        assert!(weighted_average(&[&v1], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn segment_gather_scatter_round_trip() {
        let src: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let segs = [(1u32, 2u32), (5, 1), (8, 2)];
        let mut gathered = Vec::new();
        gather_segments_into(&src, &segs, &mut gathered);
        assert_eq!(gathered, vec![1.0, 2.0, 5.0, 8.0, 9.0]);

        let mut dst = vec![0.0f32; 10];
        scatter_segments(&mut dst, &segs, &gathered);
        assert_eq!(dst, vec![0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 0.0, 0.0, 8.0, 9.0]);

        let mut acc = vec![1.0f32; 10];
        scatter_add_segments(&mut acc, &segs, &gathered, 2.0);
        assert_eq!(acc[1], 3.0);
        assert_eq!(acc[0], 1.0);
        assert_eq!(acc[9], 19.0);
    }

    #[test]
    fn zero_outside_segments_masks_complement() {
        let mut buf = vec![1.0f32; 8];
        zero_outside_segments(&mut buf, &[(2, 2), (6, 1)]);
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let mut all = vec![1.0f32; 4];
        zero_outside_segments(&mut all, &[(0, 4)]);
        assert_eq!(all, vec![1.0; 4]);
        let mut none = vec![1.0f32; 3];
        zero_outside_segments(&mut none, &[]);
        assert_eq!(none, vec![0.0; 3]);
    }

    #[test]
    fn clip_l2_caps_norm() {
        let mut a = vec![3.0, 4.0];
        let k = clip_l2(&mut a, 1.0);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-6);
        assert!((k - 0.2).abs() < 1e-6);
        let mut b = vec![0.1, 0.1];
        assert_eq!(clip_l2(&mut b, 1.0), 1.0);
        assert_eq!(b, vec![0.1, 0.1]);
    }
}
