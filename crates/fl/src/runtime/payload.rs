//! Update payloads flowing through the round runtime.
//!
//! A [`CompressionPolicy`](super::CompressionPolicy) decides the wire form
//! of each client update — dense for the identity baseline, sparse for
//! top-k/DGC, quantized for QSGD, ternary for TernGrad — and the runtime
//! handles every form uniformly for corruption faults, the defensive gate
//! and aggregation. Each variant carries the real [`WireCodec`] value, so
//! `encoded_len()` (what the ledger charges) and the bytes produced by
//! `encode()` (what corruption faults flip) can never disagree.

use adafl_compression::{
    DecodeError, DenseUpdate, QuantizedUpdate, SparseUpdate, TernaryUpdate, ViewDescriptor,
    WireCodec,
};

/// Which of the four wire forms a buffer holds. The simulated network
/// moves opaque byte counts, so the form travels out of band (a real
/// transport would tag frames); [`UpdatePayload::decode`] dispatches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireForm {
    /// Dense `f32` delta.
    Dense,
    /// Sparse top-k/DGC delta.
    Sparse,
    /// QSGD quantized delta.
    Quantized,
    /// TernGrad ternary delta.
    Ternary,
}

/// One client update in its transmitted form.
///
/// The quantized and ternary forms also carry their decoded dense view:
/// aggregation and the defensive gate work on values, and scrubbing may
/// rewrite the view in place — the wire form stays what was transmitted.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdatePayload {
    /// A dense parameter delta (identity compression).
    Dense(DenseUpdate),
    /// A sparse top-k delta (DGC).
    Sparse(SparseUpdate),
    /// A QSGD-quantized delta plus its decoded view.
    Quantized {
        /// The transmitted form.
        wire: QuantizedUpdate,
        /// `wire.to_dense()`, the surface defense and aggregation touch.
        values: Vec<f32>,
    },
    /// A TernGrad ternary delta plus its decoded view.
    Ternary {
        /// The transmitted form.
        wire: TernaryUpdate,
        /// `wire.to_dense()`, the surface defense and aggregation touch.
        values: Vec<f32>,
    },
    /// A sub-model update: a coordinate-view descriptor framing an inner
    /// payload whose values are *view-local* (length = `desc.view_len()`,
    /// not the global dimension). The descriptor travels on the wire ahead
    /// of the inner form and its bytes are part of `encoded_len()`, so the
    /// ledger charges the framing overhead of heterogeneous capacity.
    SubView {
        /// Which global coordinates the inner values occupy.
        desc: ViewDescriptor,
        /// The view-local update in any of the four base wire forms
        /// (never a nested `SubView`).
        inner: Box<UpdatePayload>,
    },
}

impl UpdatePayload {
    /// Wraps a raw dense delta.
    pub fn dense(values: Vec<f32>) -> Self {
        UpdatePayload::Dense(DenseUpdate::new(values))
    }

    /// Wraps a quantized update, materialising its decoded view.
    pub fn quantized(wire: QuantizedUpdate) -> Self {
        let values = wire.to_dense();
        UpdatePayload::Quantized { wire, values }
    }

    /// Wraps a ternary update, materialising its decoded view.
    pub fn ternary(wire: TernaryUpdate) -> Self {
        let values = wire.to_dense();
        UpdatePayload::Ternary { wire, values }
    }

    /// Frames a view-local payload with its coordinate descriptor. The
    /// inner values must be view-local: `inner`'s dense length equals
    /// `desc.view_len()`, not the global dimension.
    ///
    /// # Panics
    ///
    /// Panics on a nested `SubView` — the wire format has exactly one
    /// descriptor per frame.
    pub fn sub_view(desc: ViewDescriptor, inner: UpdatePayload) -> Self {
        assert!(
            !matches!(inner, UpdatePayload::SubView { .. }),
            "sub-view payloads cannot nest"
        );
        UpdatePayload::SubView {
            desc,
            inner: Box::new(inner),
        }
    }

    /// The wire form this payload travels as; for a sub-view, the inner
    /// payload's form (the descriptor framing travels out of band, like
    /// the form tag itself).
    pub fn form(&self) -> WireForm {
        match self {
            UpdatePayload::Dense(_) => WireForm::Dense,
            UpdatePayload::Sparse(_) => WireForm::Sparse,
            UpdatePayload::Quantized { .. } => WireForm::Quantized,
            UpdatePayload::Ternary { .. } => WireForm::Ternary,
            UpdatePayload::SubView { inner, .. } => inner.form(),
        }
    }

    /// The view descriptor, when this payload is a sub-view frame.
    pub fn view_descriptor(&self) -> Option<&ViewDescriptor> {
        match self {
            UpdatePayload::SubView { desc, .. } => Some(desc),
            _ => None,
        }
    }

    /// Exact wire size in bytes, straight from the codec. This is the
    /// number [`RoundIo`](super::RoundIo) charges the ledger with — no
    /// hand-maintained size formula sits between accounting and encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            UpdatePayload::Dense(d) => d.encoded_len(),
            UpdatePayload::Sparse(s) => s.encoded_len(),
            UpdatePayload::Quantized { wire, .. } => wire.encoded_len(),
            UpdatePayload::Ternary { wire, .. } => wire.encoded_len(),
            UpdatePayload::SubView { desc, inner } => desc.encoded_len() + inner.encoded_len(),
        }
    }

    /// Serialises the transmitted form. A sub-view frame is the descriptor
    /// bytes followed by the inner payload's encoding.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            UpdatePayload::Dense(d) => d.encode(),
            UpdatePayload::Sparse(s) => s.encode(),
            UpdatePayload::Quantized { wire, .. } => wire.encode(),
            UpdatePayload::Ternary { wire, .. } => wire.encode(),
            UpdatePayload::SubView { desc, inner } => {
                let mut out = Vec::with_capacity(self.encoded_len());
                desc.encode_into(&mut out);
                out.extend_from_slice(&inner.encode());
                out
            }
        }
    }

    /// Parses `buf` as the given wire form (the inverse of
    /// [`UpdatePayload::encode`]).
    ///
    /// # Errors
    ///
    /// Propagates the form's [`DecodeError`]; corrupted buffers are
    /// rejected here, before the payload reaches the defense gate.
    pub fn decode(form: WireForm, buf: &[u8]) -> Result<Self, DecodeError> {
        Ok(match form {
            WireForm::Dense => UpdatePayload::Dense(DenseUpdate::decode(buf)?),
            WireForm::Sparse => UpdatePayload::Sparse(SparseUpdate::decode(buf)?),
            WireForm::Quantized => UpdatePayload::quantized(QuantizedUpdate::decode(buf)?),
            WireForm::Ternary => UpdatePayload::ternary(TernaryUpdate::decode(buf)?),
        })
    }

    /// Parses a sub-view frame: a [`ViewDescriptor`] prefix followed by an
    /// inner payload of the given wire form (the inverse of
    /// [`UpdatePayload::encode`] for the `SubView` variant).
    ///
    /// # Errors
    ///
    /// Propagates descriptor and inner-form [`DecodeError`]s; also rejects
    /// an inner payload whose dense length disagrees with the descriptor's
    /// view length.
    pub fn decode_view(inner_form: WireForm, buf: &[u8]) -> Result<Self, DecodeError> {
        let (desc, consumed) = ViewDescriptor::decode_prefix(buf)?;
        let inner = UpdatePayload::decode(inner_form, &buf[consumed..])?;
        if inner.dense_len() != desc.view_len() {
            return Err(DecodeError::InvalidIndices);
        }
        Ok(UpdatePayload::sub_view(desc, inner))
    }

    /// The dense length of this payload's value space: the global
    /// dimension for base forms, the view-local length for a sub-view's
    /// inner payload, and the *global* dimension for the sub-view frame
    /// itself.
    pub fn dense_len(&self) -> usize {
        match self {
            UpdatePayload::Dense(d) => d.len(),
            UpdatePayload::Sparse(s) => s.dense_len(),
            UpdatePayload::Quantized { values, .. } => values.len(),
            UpdatePayload::Ternary { values, .. } => values.len(),
            UpdatePayload::SubView { desc, .. } => desc.dense_len(),
        }
    }

    /// Mutable view of the transmitted values — the surface corruption
    /// faults and the defensive gate's scrubbing operate on. The L2 norm
    /// of a sparse update's values equals the norm of its dense form, so
    /// norm screening is form-independent. For the quantized and ternary
    /// forms this is the decoded view; scrubbing rewrites the view without
    /// touching the transmitted bytes.
    pub fn values_mut(&mut self) -> &mut [f32] {
        match self {
            UpdatePayload::Dense(d) => d.values_mut(),
            UpdatePayload::Sparse(s) => s.values_mut(),
            UpdatePayload::Quantized { values, .. } => values,
            UpdatePayload::Ternary { values, .. } => values,
            // View-local values: screening and scrubbing operate on what
            // was transmitted, which for a sub-view is the covered slice.
            UpdatePayload::SubView { inner, .. } => inner.values_mut(),
        }
    }

    /// Accumulates `scale · self` into `dest`. For a sub-view, `dest` is
    /// the *global* vector and the inner values scatter into the covered
    /// coordinates only.
    pub fn add_scaled_into(&self, dest: &mut [f32], scale: f32) {
        match self {
            UpdatePayload::Dense(d) => {
                for (out, x) in dest.iter_mut().zip(d.values()) {
                    *out += scale * x;
                }
            }
            UpdatePayload::Sparse(s) => s.add_into(dest, scale),
            UpdatePayload::Quantized { values, .. } | UpdatePayload::Ternary { values, .. } => {
                for (out, x) in dest.iter_mut().zip(values) {
                    *out += scale * x;
                }
            }
            UpdatePayload::SubView { desc, inner } => match inner.as_ref() {
                UpdatePayload::Dense(d) => desc.scatter_add_scaled(d.values(), dest, scale),
                UpdatePayload::Quantized { values, .. } | UpdatePayload::Ternary { values, .. } => {
                    desc.scatter_add_scaled(values, dest, scale)
                }
                UpdatePayload::Sparse(s) => {
                    // A sparse inner is sparse *within the view*: densify
                    // to view-local, then scatter through the descriptor.
                    desc.scatter_add_scaled(&s.to_dense(), dest, scale)
                }
                nested @ UpdatePayload::SubView { .. } => {
                    // `sub_view` never nests frames; a nested one built by
                    // hand still has a view-local dense form to scatter.
                    let mut local = vec![0.0f32; desc.view_len()];
                    nested.add_scaled_into(&mut local, 1.0);
                    desc.scatter_add_scaled(&local, dest, scale)
                }
            },
        }
    }

    /// The payload as a dense vector (moves the dense/decoded form out
    /// without a copy; expands the sparse form). A sub-view densifies to
    /// the *global* dimension with zeros outside its coverage.
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            UpdatePayload::Dense(d) => d.into_values(),
            UpdatePayload::Sparse(s) => s.to_dense(),
            UpdatePayload::Quantized { values, .. } => values,
            UpdatePayload::Ternary { values, .. } => values,
            UpdatePayload::SubView { ref desc, .. } => {
                let mut dense = vec![0.0f32; desc.dense_len()];
                self.add_scaled_into(&mut dense, 1.0);
                dense
            }
        }
    }
}

/// One delivered update awaiting aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundUpdate {
    /// Sender.
    pub client: usize,
    /// The (possibly compressed, possibly corrupted) update.
    pub payload: UpdatePayload,
    /// Aggregation weight (the client's `n_i`).
    pub weight: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_compression::{top_k, QsgdQuantizer, TernGrad};

    #[test]
    fn dense_add_scaled_matches_sparse_for_sparse_vectors() {
        let v = vec![0.0, 2.0, 0.0, -4.0];
        let sparse = top_k(&v, 2);
        let mut a = vec![1.0f32; 4];
        let mut b = vec![1.0f32; 4];
        UpdatePayload::dense(v.clone()).add_scaled_into(&mut a, 0.5);
        UpdatePayload::Sparse(sparse).add_scaled_into(&mut b, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn into_dense_is_identity_for_dense() {
        let v = vec![1.0, -2.0, 3.0];
        assert_eq!(UpdatePayload::dense(v.clone()).into_dense(), v);
    }

    #[test]
    fn quantized_and_ternary_views_match_their_wire_form() {
        let g = [1.0f32, -0.5, 0.25, 0.0];
        let q = UpdatePayload::quantized(QsgdQuantizer::new(8, 1).quantize(&g));
        let UpdatePayload::Quantized { wire, values } = &q else {
            unreachable!()
        };
        assert_eq!(values, &wire.to_dense());

        let t = UpdatePayload::ternary(TernGrad::new(1).ternarize(&g));
        let UpdatePayload::Ternary { wire, values } = &t else {
            unreachable!()
        };
        assert_eq!(values, &wire.to_dense());
    }

    #[test]
    fn sub_view_scatters_through_its_descriptor() {
        let desc = ViewDescriptor::new(6, vec![(1, 2), (4, 1)]);
        let p = UpdatePayload::sub_view(desc.clone(), UpdatePayload::dense(vec![1.0, 2.0, 3.0]));
        assert_eq!(p.dense_len(), 6);
        let mut dest = vec![0.0f32; 6];
        p.add_scaled_into(&mut dest, 2.0);
        assert_eq!(dest, vec![0.0, 2.0, 4.0, 0.0, 6.0, 0.0]);
        assert_eq!(p.into_dense(), vec![0.0, 1.0, 2.0, 0.0, 3.0, 0.0]);

        // Sparse inner: sparse *within the view*.
        let sparse_inner = UpdatePayload::Sparse(top_k(&[5.0, 0.0, -7.0], 2));
        let p = UpdatePayload::sub_view(desc, sparse_inner);
        assert_eq!(p.into_dense(), vec![0.0, 5.0, 0.0, 0.0, -7.0, 0.0]);
    }

    #[test]
    fn sub_view_wire_frame_round_trips_and_charges_descriptor() {
        let g = [0.5f32, -2.0, 3.5];
        let desc = ViewDescriptor::new(10, vec![(2, 2), (8, 1)]);
        for inner in [
            UpdatePayload::dense(g.to_vec()),
            UpdatePayload::Sparse(top_k(&g, 2)),
            UpdatePayload::quantized(QsgdQuantizer::new(4, 2).quantize(&g)),
            UpdatePayload::ternary(TernGrad::new(2).ternarize(&g)),
        ] {
            let inner_len = inner.encoded_len();
            let p = UpdatePayload::sub_view(desc.clone(), inner);
            assert_eq!(p.encoded_len(), desc.encoded_len() + inner_len);
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.encoded_len());
            assert_eq!(UpdatePayload::decode_view(p.form(), &bytes).unwrap(), p);
        }
    }

    #[test]
    fn decode_view_rejects_length_mismatch() {
        // Descriptor says 3 covered coordinates, inner carries 2.
        let p = UpdatePayload::sub_view(
            ViewDescriptor::new(10, vec![(0, 3)]),
            UpdatePayload::dense(vec![1.0, 2.0, 3.0]),
        );
        let mut bytes = p.encode();
        // Rewrite the inner dense header's length field (descriptor is
        // 12 + 8 bytes, then the dense u64 length).
        bytes[20] = 2;
        bytes.truncate(bytes.len() - 4);
        assert!(UpdatePayload::decode_view(WireForm::Dense, &bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot nest")]
    fn sub_view_rejects_nesting() {
        let inner = UpdatePayload::sub_view(
            ViewDescriptor::full(2),
            UpdatePayload::dense(vec![1.0, 2.0]),
        );
        let _ = UpdatePayload::sub_view(ViewDescriptor::full(2), inner);
    }

    #[test]
    fn every_form_round_trips_through_its_encoding() {
        let g = [0.5f32, -2.0, 0.0, 3.5];
        let payloads = [
            UpdatePayload::dense(g.to_vec()),
            UpdatePayload::Sparse(top_k(&g, 2)),
            UpdatePayload::quantized(QsgdQuantizer::new(4, 2).quantize(&g)),
            UpdatePayload::ternary(TernGrad::new(2).ternarize(&g)),
        ];
        for p in payloads {
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.encoded_len(), "{:?}", p.form());
            assert_eq!(UpdatePayload::decode(p.form(), &bytes).unwrap(), p);
        }
    }
}
