//! Deep Gradient Compression (Lin et al. [10]).
//!
//! DGC transmits only the largest-magnitude gradient coordinates each round
//! while **accumulating** the untransmitted remainder locally, so small
//! gradients are not lost — merely delayed. Two refinements keep convergence
//! intact at high compression, both of which the paper integrates:
//!
//! * **Momentum correction** — momentum is applied *before* accumulation
//!   (`u ← m·u + g; v ← v + u`), so the sparse updates follow the same
//!   trajectory dense momentum SGD would.
//! * **Local gradient clipping** — each new gradient is L2-clipped before
//!   accumulation to prevent exploding accumulated values under aggressive
//!   sparsity.

use crate::{top_k, SparseUpdate};
use adafl_tensor::vecops;

/// Stateful per-client DGC compressor.
///
/// One instance per federated client: the momentum and accumulation buffers
/// are local state that persists across rounds.
///
/// # Examples
///
/// ```
/// use adafl_compression::DgcCompressor;
///
/// let mut dgc = DgcCompressor::new(8, 0.9, 2.0);
/// let sparse = dgc.compress(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0], 4.0);
/// assert_eq!(sparse.nnz(), 2); // 8 elements at ratio 4× → 2 kept
/// ```
#[derive(Debug, Clone)]
pub struct DgcCompressor {
    momentum: f32,
    clip_norm: f32,
    /// Momentum buffer `u`.
    velocity: Vec<f32>,
    /// Local accumulation buffer `v`.
    accumulator: Vec<f32>,
}

impl DgcCompressor {
    /// Creates a compressor for gradients of length `dim` with momentum `m`
    /// and local clipping norm `clip_norm`.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is zero, `m` is outside `[0, 1)`, or `clip_norm` is
    /// not positive.
    pub fn new(dim: usize, momentum: f32, clip_norm: f32) -> Self {
        assert!(dim > 0, "gradient dimension must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(clip_norm > 0.0, "clip norm must be positive");
        DgcCompressor {
            momentum,
            clip_norm,
            velocity: vec![0.0; dim],
            accumulator: vec![0.0; dim],
        }
    }

    /// Gradient dimension this compressor was sized for.
    pub fn dim(&self) -> usize {
        self.velocity.len()
    }

    /// Momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Current residual (accumulated, untransmitted) energy — useful for
    /// diagnostics and tests.
    pub fn residual_norm(&self) -> f32 {
        vecops::l2_norm(&self.accumulator)
    }

    /// Compresses `gradient` at `compression_ratio` (e.g. `210.0` transmits
    /// one in 210 coordinates; `1.0` transmits everything).
    ///
    /// Applies clipping → momentum correction → accumulation → top-k, then
    /// zeroes the transmitted coordinates of both local buffers (the
    /// momentum-factor masking step of DGC).
    ///
    /// # Panics
    ///
    /// Panics when `gradient.len()` differs from [`DgcCompressor::dim`] or
    /// `compression_ratio < 1`.
    pub fn compress(&mut self, gradient: &[f32], compression_ratio: f32) -> SparseUpdate {
        assert_eq!(gradient.len(), self.dim(), "gradient length mismatch");
        assert!(compression_ratio >= 1.0, "compression ratio must be ≥ 1");

        // Local gradient clipping (pre-accumulation) without a copy: the
        // factor `vecops::clip_l2` would scale by, applied as the gradient
        // is read, with the multiply `vecops::scale` does. An unclipped
        // gradient reads as `gᵢ · 1.0`, which is `gᵢ` (deltas are
        // arithmetic results, never signalling NaNs).
        let norm = vecops::l2_norm(gradient);
        let s = if norm > self.clip_norm && norm > 0.0 {
            self.clip_norm / norm
        } else {
            1.0
        };

        // Momentum correction: u ← m·u + g; v ← v + u.
        let m = self.momentum;
        for ((u, v), &gi) in self
            .velocity
            .iter_mut()
            .zip(&mut self.accumulator)
            .zip(gradient)
        {
            *u = m * *u + gi * s;
            *v += *u;
        }

        let k = ((self.dim() as f32 / compression_ratio).round() as usize).max(1);
        let update = top_k(&self.accumulator, k);

        // Momentum-factor masking: clear transmitted coordinates locally.
        for &i in update.indices() {
            self.accumulator[i as usize] = 0.0;
            self.velocity[i as usize] = 0.0;
        }
        update
    }

    /// Drops all local state (used when a client resynchronises to a fresh
    /// global model).
    pub fn reset(&mut self) {
        self.velocity.fill(0.0);
        self.accumulator.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_one_transmits_everything_eventually() {
        let mut dgc = DgcCompressor::new(4, 0.0, 100.0);
        let u = dgc.compress(&[1.0, -2.0, 3.0, -4.0], 1.0);
        assert_eq!(u.nnz(), 4);
        assert_eq!(u.to_dense(), vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(dgc.residual_norm(), 0.0);
    }

    #[test]
    fn untransmitted_gradient_accumulates_locally() {
        let mut dgc = DgcCompressor::new(4, 0.0, 100.0);
        // Ratio 4 on 4 elements → 1 kept. The small coordinate accumulates.
        let u1 = dgc.compress(&[10.0, 1.0, 0.0, 0.0], 4.0);
        assert_eq!(u1.indices(), &[0]);
        assert!(dgc.residual_norm() > 0.0);
        // Feed zeros; the accumulated coordinate must eventually win top-k.
        let u2 = dgc.compress(&[0.0, 0.0, 0.0, 0.0], 4.0);
        assert_eq!(u2.indices(), &[1]);
        assert_eq!(u2.values(), &[1.0]);
        assert!(dgc.residual_norm() < 1e-6);
    }

    #[test]
    fn no_gradient_information_is_ever_lost() {
        // Sum of transmitted updates equals sum of inputs once drained
        // (momentum 0, no clipping).
        let mut dgc = DgcCompressor::new(8, 0.0, 1e9);
        let inputs: Vec<Vec<f32>> = (0..10)
            .map(|r| (0..8).map(|i| ((r * 8 + i) % 5) as f32 - 2.0).collect())
            .collect();
        let mut transmitted = vec![0.0f32; 8];
        for g in &inputs {
            dgc.compress(g, 4.0).add_into(&mut transmitted, 1.0);
        }
        // Drain the residual.
        for _ in 0..20 {
            dgc.compress(&[0.0; 8], 4.0).add_into(&mut transmitted, 1.0);
        }
        let mut expected = vec![0.0f32; 8];
        for g in &inputs {
            for (e, x) in expected.iter_mut().zip(g) {
                *e += x;
            }
        }
        for (t, e) in transmitted.iter().zip(&expected) {
            assert!((t - e).abs() < 1e-4, "leaked gradient: {t} vs {e}");
        }
    }

    #[test]
    fn ratio_one_sends_plain_gradient_every_round() {
        // With everything transmitted, masking clears the buffers each
        // round, so the sent update is exactly the (clipped) gradient.
        let mut dgc = DgcCompressor::new(2, 0.9, 1e9);
        let g = [1.0f32, -1.0];
        for _ in 0..5 {
            let sent = dgc.compress(&g, 1.0).to_dense();
            for (s, expected) in sent.iter().zip(&g) {
                assert!((s - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn delayed_coordinates_carry_momentum_weighted_sums() {
        // A coordinate held back for k rounds accumulates Σ u_t where
        // u_t = m·u_{t-1} + g — more than k·g when momentum is active.
        let mut dgc = DgcCompressor::new(2, 0.9, 1e9);
        // Coordinate 0 always dominates, so coordinate 1 is delayed.
        let g = [10.0f32, 1.0];
        dgc.compress(&g, 2.0); // sends coord 0 only (k = 1)
        dgc.compress(&g, 2.0);
        // After 2 rounds: u₁ = 0.9·1 + 1 = 1.9; v₁ = 1 + 1.9 = 2.9.
        // Force coordinate 1 out by sending a zero gradient round.
        let sent = dgc.compress(&[0.0, 0.0], 2.0);
        assert_eq!(sent.indices(), &[1]);
        // v₁ after third round: u₁ = 0.9·1.9 = 1.71, v₁ = 2.9 + 1.71 = 4.61.
        assert!(
            (sent.values()[0] - 4.61).abs() < 1e-4,
            "got {}",
            sent.values()[0]
        );
        // Strictly more than the plain sum 2.0 — momentum correction at work.
        assert!(sent.values()[0] > 2.0);
    }

    #[test]
    fn clipping_bounds_accumulated_energy() {
        let mut dgc = DgcCompressor::new(4, 0.0, 1.0);
        let huge = [100.0f32, 100.0, 100.0, 100.0];
        let u = dgc.compress(&huge, 1.0);
        // The transmitted vector reflects the clipped gradient (norm 1).
        let norm = adafl_tensor::vecops::l2_norm(&u.to_dense());
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reset_clears_state() {
        let mut dgc = DgcCompressor::new(4, 0.5, 10.0);
        dgc.compress(&[1.0, 2.0, 3.0, 4.0], 4.0);
        assert!(dgc.residual_norm() > 0.0);
        dgc.reset();
        assert_eq!(dgc.residual_norm(), 0.0);
    }

    #[test]
    fn achieved_ratio_tracks_requested_ratio() {
        let mut dgc = DgcCompressor::new(1000, 0.9, 10.0);
        let g: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let u = dgc.compress(&g, 100.0);
        assert_eq!(u.nnz(), 10);
        assert!((u.compression_ratio() - 100.0).abs() < 1e-9);
    }

    /// The compressor as it was before clipping was folded into the
    /// momentum loop: a clipped copy of the gradient, then the oracle
    /// top-k. Kept as the reference the fused pass must match bitwise.
    struct CopyingDgc {
        momentum: f32,
        clip_norm: f32,
        velocity: Vec<f32>,
        accumulator: Vec<f32>,
    }

    impl CopyingDgc {
        fn compress(&mut self, gradient: &[f32], compression_ratio: f32) -> SparseUpdate {
            let mut g = gradient.to_vec();
            vecops::clip_l2(&mut g, self.clip_norm);
            for ((u, v), gi) in self.velocity.iter_mut().zip(&mut self.accumulator).zip(&g) {
                *u = self.momentum * *u + gi;
                *v += *u;
            }
            let dim = self.velocity.len();
            let k = ((dim as f32 / compression_ratio).round() as usize).max(1);
            let update = crate::oracle::top_k(&self.accumulator, k);
            for &i in update.indices() {
                self.accumulator[i as usize] = 0.0;
                self.velocity[i as usize] = 0.0;
            }
            update
        }
    }

    #[test]
    fn fused_clipping_matches_the_copying_compressor_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dim = 3001;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        // Gradient norms ≈ 16: clip 1.0 always clips, 1e6 never does, and
        // 16.0 clips some rounds (those scaled up) but not others.
        for momentum in [0.0, 0.9] {
            for clip_norm in [1.0, 16.0, 1e6] {
                let mut fused = DgcCompressor::new(dim, momentum, clip_norm);
                let mut copying = CopyingDgc {
                    momentum,
                    clip_norm,
                    velocity: vec![0.0; dim],
                    accumulator: vec![0.0; dim],
                };
                for round in 0..12 {
                    let scale = if round % 2 == 0 { 0.8 } else { 1.25 };
                    let g: Vec<f32> = (0..dim).map(|_| next() * scale).collect();
                    let ratio = [2.0, 50.0, 210.0][round % 3];
                    let (a, b) = (fused.compress(&g, ratio), copying.compress(&g, ratio));
                    assert_eq!(
                        a.indices(),
                        b.indices(),
                        "m {momentum} clip {clip_norm} round {round}"
                    );
                    assert_eq!(bits(a.values()), bits(b.values()));
                    assert_eq!(bits(&fused.velocity), bits(&copying.velocity));
                    assert_eq!(bits(&fused.accumulator), bits(&copying.accumulator));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn sub_unit_ratio_panics() {
        DgcCompressor::new(4, 0.0, 1.0).compress(&[0.0; 4], 0.5);
    }
}
