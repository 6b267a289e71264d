//! Sparse gradient updates and their wire codec.

use crate::codec::{DecodeError, WireCodec, SPARSE_HEADER_BYTES, SPARSE_PAIR_BYTES};
use bytes::{Buf, BufMut};

/// A sparsified gradient: the surviving `(index, value)` pairs of a dense
/// vector of length `dense_len`.
///
/// Indices are strictly increasing `u32`s, which the codec relies on.
///
/// # Examples
///
/// ```
/// use adafl_compression::{SparseUpdate, WireCodec};
///
/// let u = SparseUpdate::new(vec![1, 3], vec![0.5, -0.5], 4);
/// assert_eq!(u.to_dense(), vec![0.0, 0.5, 0.0, -0.5]);
/// let bytes = u.encode();
/// assert_eq!(bytes.len(), u.encoded_len());
/// assert_eq!(SparseUpdate::decode(&bytes), Ok(u));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseUpdate {
    indices: Vec<u32>,
    values: Vec<f32>,
    dense_len: usize,
}

impl SparseUpdate {
    /// Creates a sparse update.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ, indices are not strictly increasing, or
    /// any index is `≥ dense_len`.
    pub fn new(indices: Vec<u32>, values: Vec<f32>, dense_len: usize) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dense_len,
                "index {last} out of range {dense_len}"
            );
        }
        SparseUpdate {
            indices,
            values,
            dense_len,
        }
    }

    /// An all-zero update of the given dense length.
    pub fn zero(dense_len: usize) -> Self {
        SparseUpdate {
            indices: Vec::new(),
            values: Vec::new(),
            dense_len,
        }
    }

    /// Number of transmitted (non-zero) elements.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Length of the dense vector this update sparsifies.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// The surviving indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The surviving values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the surviving values — lets fault injectors and
    /// defensive scrubbers rewrite a payload in place without re-checking
    /// the (unchanged) index invariants.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Achieved compression ratio `dense_len / nnz` (`∞` → `f64::INFINITY`
    /// for an empty update).
    pub fn compression_ratio(&self) -> f64 {
        if self.indices.is_empty() {
            f64::INFINITY
        } else {
            self.dense_len as f64 / self.indices.len() as f64
        }
    }

    /// Materialises the dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Adds this update into `dense` (scaled by `scale`).
    ///
    /// # Panics
    ///
    /// Panics when `dense.len() != dense_len`.
    pub fn add_into(&self, dense: &mut [f32], scale: f32) {
        assert_eq!(dense.len(), self.dense_len, "dense length mismatch");
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            dense[i as usize] += scale * v;
        }
    }
}

impl WireCodec for SparseUpdate {
    /// Wire size in bytes: 16-byte header + 8 bytes per element.
    fn encoded_len(&self) -> usize {
        SPARSE_HEADER_BYTES + SPARSE_PAIR_BYTES * self.indices.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.put_u64_le(self.dense_len as u64);
        out.put_u64_le(self.indices.len() as u64);
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out.put_u32_le(i);
            out.put_f32_le(v);
        }
    }

    /// Parses the wire format produced by [`WireCodec::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] for short buffers,
    /// [`DecodeError::TrailingBytes`] for long ones, and
    /// [`DecodeError::InvalidIndices`] for malformed index streams. The
    /// element count from the header is validated against the actual
    /// buffer length (checked arithmetic) before any allocation, so a
    /// lying header cannot panic or over-allocate.
    fn decode(mut buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.len() < SPARSE_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let dense_len = usize::try_from(buf.get_u64_le()).map_err(|_| DecodeError::Truncated)?;
        let nnz = usize::try_from(buf.get_u64_le()).map_err(|_| DecodeError::Truncated)?;
        let need = nnz
            .checked_mul(SPARSE_PAIR_BYTES)
            .ok_or(DecodeError::Truncated)?;
        if buf.len() < need {
            return Err(DecodeError::Truncated);
        }
        if buf.len() > need {
            return Err(DecodeError::TrailingBytes);
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut prev: Option<u32> = None;
        for _ in 0..nnz {
            let i = buf.get_u32_le();
            let v = buf.get_f32_le();
            if (i as usize) >= dense_len || prev.is_some_and(|p| p >= i) {
                return Err(DecodeError::InvalidIndices);
            }
            prev = Some(i);
            indices.push(i);
            values.push(v);
        }
        Ok(SparseUpdate {
            indices,
            values,
            dense_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let u = SparseUpdate::new(vec![0, 2], vec![1.0, -2.0], 3);
        assert_eq!(u.to_dense(), vec![1.0, 0.0, -2.0]);
        assert_eq!(u.nnz(), 2);
        assert_eq!(u.dense_len(), 3);
    }

    #[test]
    fn add_into_accumulates_with_scale() {
        let u = SparseUpdate::new(vec![1], vec![4.0], 2);
        let mut dense = vec![1.0, 1.0];
        u.add_into(&mut dense, 0.5);
        assert_eq!(dense, vec![1.0, 3.0]);
    }

    #[test]
    fn codec_round_trips() {
        let u = SparseUpdate::new(vec![3, 7, 100], vec![0.25, -1.5, 3.75], 128);
        let bytes = u.encode();
        assert_eq!(bytes.len(), u.encoded_len());
        assert_eq!(SparseUpdate::decode(&bytes).unwrap(), u);
    }

    #[test]
    fn decode_rejects_truncation() {
        let u = SparseUpdate::new(vec![0, 1], vec![1.0, 2.0], 4);
        let bytes = u.encode();
        assert_eq!(
            SparseUpdate::decode(&bytes[..10]).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            SparseUpdate::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn decode_rejects_bad_indices() {
        // Hand-craft a buffer with decreasing indices.
        let mut buf = bytes::BytesMut::new();
        buf.put_u64_le(10);
        buf.put_u64_le(2);
        buf.put_u32_le(5);
        buf.put_f32_le(1.0);
        buf.put_u32_le(3);
        buf.put_f32_le(1.0);
        assert_eq!(
            SparseUpdate::decode(&buf).unwrap_err(),
            DecodeError::InvalidIndices
        );
    }

    #[test]
    fn compression_ratio_math() {
        let u = SparseUpdate::new(vec![0], vec![1.0], 210);
        assert_eq!(u.compression_ratio(), 210.0);
        assert_eq!(SparseUpdate::zero(100).compression_ratio(), f64::INFINITY);
    }

    #[test]
    fn sparse_beats_dense_on_wire_when_sparse_enough() {
        let dense_bytes = crate::dense_wire_size(1000);
        let u = SparseUpdate::new(vec![1, 2, 3], vec![0.0; 3], 1000);
        assert!(u.encoded_len() < dense_bytes);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_panic() {
        SparseUpdate::new(vec![2, 1], vec![0.0, 0.0], 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        SparseUpdate::new(vec![4], vec![0.0], 4);
    }
}
