//! Gradient compression for communication-efficient federated learning.
//!
//! Implements the compression stack AdaFL builds on:
//!
//! * [`WireCodec`] (the [`codec`] module) — the single serialization
//!   authority: every payload form ([`DenseUpdate`], [`SparseUpdate`],
//!   [`QuantizedUpdate`], [`TernaryUpdate`]) encodes/decodes through one
//!   trait whose `encoded_len()` is byte-exact, so ledger accounting and
//!   the real byte stream can never drift apart.
//! * [`SparseUpdate`] — the wire format of a sparsified gradient, with
//!   byte-exact size accounting and a binary codec.
//! * [`top_k`] — magnitude-based sparsification.
//! * [`DgcCompressor`] — Deep Gradient Compression (Lin et al. \[10]): top-k
//!   sparsification with **local gradient accumulation**, **momentum
//!   correction** and **local gradient clipping**, the three components the
//!   paper integrates.
//! * [`QsgdQuantizer`] — QSGD-style stochastic quantization \[11] and
//!   [`TernGrad`] ternary quantization \[13], the model-level baselines
//!   from related work.
//! * [`ErrorFeedback`] — the EF-SGD / DoubleSqueeze \[15] residual wrapper
//!   that makes any lossy compressor unbiased in the long run.
//!
//! The compression *ratio* vocabulary follows the paper's Tables I/II: a
//! ratio of `210×` means one in 210 gradient elements is transmitted.
//!
//! # Examples
//!
//! ```
//! use adafl_compression::DgcCompressor;
//!
//! let mut dgc = DgcCompressor::new(4, 0.9, 1.0);
//! let update = dgc.compress(&[0.0, 5.0, 0.1, -0.2], 4.0);
//! assert_eq!(update.nnz(), 1); // ratio 4× on 4 elements keeps 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod dgc;
mod error_feedback;
mod quantize;
mod sparse;
mod telemetry;
mod terngrad;
mod topk;

pub use codec::{DecodeError, DenseUpdate, ViewDescriptor, WireCodec};
pub use dgc::DgcCompressor;
pub use error_feedback::ErrorFeedback;
pub use quantize::{QsgdQuantizer, QuantizedUpdate};
pub use sparse::SparseUpdate;
pub use telemetry::record_compression;
pub use terngrad::{TernGrad, TernaryUpdate};
pub use topk::{oracle, top_k};

/// Wire size in bytes of a dense `f32` gradient of `len` elements.
///
/// Four bytes per element plus an 8-byte length header — the format all
/// dense baselines (FedAvg etc.) are accounted at; equal by definition to
/// [`DenseUpdate`]'s `encoded_len()`, which a unit test pins.
pub fn dense_wire_size(len: usize) -> usize {
    codec::DENSE_HEADER_BYTES + 4 * len
}

/// Wire size in bytes of a [`SparseUpdate`] holding `nnz` pairs: a 16-byte
/// header plus 8 bytes per pair. Equal by definition to the update's
/// `encoded_len()`, which a unit test pins; [`top_k`] of `k` coordinates
/// holds `min(k, len)` pairs.
pub fn sparse_wire_size(nnz: usize) -> usize {
    codec::SPARSE_HEADER_BYTES + codec::SPARSE_PAIR_BYTES * nnz
}

#[cfg(test)]
mod size_tests {
    use super::*;

    #[test]
    fn dense_wire_size_matches_the_codec() {
        for len in [0usize, 1, 7, 300] {
            let u = DenseUpdate::new(vec![0.25; len]);
            assert_eq!(dense_wire_size(len), u.encoded_len());
            assert_eq!(dense_wire_size(len), u.encode().len());
        }
    }

    #[test]
    fn sparse_wire_size_matches_top_k() {
        for dim in (0usize..=300).chain([56_080]) {
            let dense: Vec<f32> = (0..dim).map(|i| (i % 7) as f32 - 3.0).collect();
            for k in [0, 1, dim / 100, dim.max(1) / 100 + 1, dim, dim + 5] {
                let u = top_k(&dense, k);
                assert_eq!(
                    sparse_wire_size(k.min(dim)),
                    u.encoded_len(),
                    "dim {dim} k {k}"
                );
                assert_eq!(sparse_wire_size(u.nnz()), u.encode().len());
            }
        }
    }
}
