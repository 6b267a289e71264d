//! Static (non-adaptive) client-side update compression for the baseline
//! strategies.
//!
//! The paper's related-work critique is that existing model-level
//! techniques — sparsification [10][14], QSGD quantization [11], TernGrad
//! [13] — apply a *fixed* compression scheme regardless of network
//! conditions or update utility. This module provides exactly those static
//! schemes as engine-level options, so experiments can contrast
//! static-compressed baselines against AdaFL's utility-adaptive rates.

use crate::runtime::UpdatePayload;
use adafl_compression::{top_k, ErrorFeedback, QsgdQuantizer, SparseUpdate, TernGrad};

/// A fixed compression scheme applied to every uplink of every client.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum StaticCompression {
    /// Dense `f32` transmission (the default for all baselines).
    #[default]
    None,
    /// Magnitude top-k at a fixed ratio, with error-feedback residuals so
    /// dropped mass is retransmitted later.
    TopK {
        /// Compression ratio ≥ 1 (`32.0` transmits 1 in 32 coordinates).
        ratio: f32,
    },
    /// QSGD stochastic quantization \[11] at a fixed level count.
    Qsgd {
        /// Quantization levels (1–127).
        levels: u8,
    },
    /// TernGrad ternary quantization \[13].
    TernGrad,
}

impl StaticCompression {
    /// Short scheme label used to scope telemetry metric names,
    /// e.g. `compression.bytes_post.topk`.
    pub fn label(&self) -> &'static str {
        match self {
            StaticCompression::None => "none",
            StaticCompression::TopK { .. } => "topk",
            StaticCompression::Qsgd { .. } => "qsgd",
            StaticCompression::TernGrad => "terngrad",
        }
    }
}

/// Per-client compressor state for a [`StaticCompression`] scheme.
#[derive(Debug)]
pub(crate) enum CompressorState {
    None,
    TopK { feedback: ErrorFeedback, ratio: f32 },
    Qsgd(QsgdQuantizer),
    Tern(TernGrad),
}

impl CompressorState {
    pub(crate) fn new(scheme: StaticCompression, dim: usize, seed: u64) -> Self {
        match scheme {
            StaticCompression::None => CompressorState::None,
            StaticCompression::TopK { ratio } => {
                assert!(ratio >= 1.0, "top-k ratio must be ≥ 1");
                CompressorState::TopK {
                    feedback: ErrorFeedback::new(dim),
                    ratio,
                }
            }
            StaticCompression::Qsgd { levels } => {
                CompressorState::Qsgd(QsgdQuantizer::new(levels, seed))
            }
            StaticCompression::TernGrad => CompressorState::Tern(TernGrad::new(seed)),
        }
    }

    /// Compresses `delta` into its typed wire form; the payload's
    /// `encoded_len()` is what the ledger gets charged and its decoded
    /// view is what the server will apply.
    pub(crate) fn compress(&mut self, delta: &[f32]) -> UpdatePayload {
        match self {
            CompressorState::None => UpdatePayload::dense(delta.to_vec()),
            CompressorState::TopK { feedback, ratio } => {
                let k = ((delta.len() as f32 / *ratio).round() as usize).max(1);
                // The error-feedback wrapper wants the dense decoding of
                // what was sent; the sparse form itself is the payload.
                let mut sent = SparseUpdate::default();
                feedback.compress(delta, |g| {
                    sent = top_k(g, k);
                    sent.to_dense()
                });
                UpdatePayload::Sparse(sent)
            }
            CompressorState::Qsgd(q) => UpdatePayload::quantized(q.quantize(delta)),
            CompressorState::Tern(t) => UpdatePayload::ternary(t.ternarize(delta)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::WireForm;
    use adafl_compression::dense_wire_size;

    fn delta() -> Vec<f32> {
        (0..64).map(|i| ((i as f32) * 0.37).sin()).collect()
    }

    #[test]
    fn none_is_identity_at_dense_cost() {
        let mut c = CompressorState::new(StaticCompression::None, 64, 0);
        let payload = c.compress(&delta());
        assert_eq!(payload.encoded_len(), dense_wire_size(64));
        assert_eq!(payload.into_dense(), delta());
    }

    #[test]
    fn top_k_cuts_wire_size_and_keeps_mass_via_feedback() {
        let mut c = CompressorState::new(StaticCompression::TopK { ratio: 8.0 }, 64, 0);
        let payload = c.compress(&delta());
        assert_eq!(payload.form(), WireForm::Sparse);
        assert!(payload.encoded_len() < dense_wire_size(64) / 2);
        let sent1 = payload.into_dense();
        assert_eq!(sent1.iter().filter(|&&v| v != 0.0).count(), 8);
        // Feeding zeros drains the residual: eventually everything arrives.
        let mut total = sent1;
        for _ in 0..32 {
            let sent = c.compress(&vec![0.0; 64]).into_dense();
            for (t, s) in total.iter_mut().zip(&sent) {
                *t += s;
            }
        }
        for (t, d) in total.iter().zip(&delta()) {
            assert!((t - d).abs() < 1e-4, "mass lost: {t} vs {d}");
        }
    }

    #[test]
    fn qsgd_and_terngrad_shrink_wire() {
        for (scheme, form) in [
            (StaticCompression::Qsgd { levels: 8 }, WireForm::Quantized),
            (StaticCompression::TernGrad, WireForm::Ternary),
        ] {
            let mut c = CompressorState::new(scheme, 64, 1);
            let payload = c.compress(&delta());
            assert_eq!(payload.form(), form);
            assert!(
                payload.encoded_len() < dense_wire_size(64),
                "{scheme:?} did not compress"
            );
            assert_eq!(payload.into_dense().len(), 64);
        }
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn sub_unit_ratio_panics() {
        CompressorState::new(StaticCompression::TopK { ratio: 0.5 }, 4, 0);
    }
}
