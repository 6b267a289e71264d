//! The [`AsyncStrategy`] contract and the asynchronous baseline
//! strategies: FedAsync \[22] and FedBuff \[35] — the comparison set of
//! Table II.

use adafl_tensor::vecops;

/// Server-side behaviour of an asynchronous FL strategy.
pub trait AsyncStrategy: std::fmt::Debug + Send {
    /// Strategy name for run labels.
    fn name(&self) -> &'static str;

    /// Called once with the model dimension before the run.
    fn init(&mut self, _dim: usize) {}

    /// Handles one arriving client update.
    ///
    /// `snapshot` is the global model the client trained from (so
    /// model-mixing strategies can reconstruct the client's local model as
    /// `snapshot + delta`); `staleness` is the number of global versions
    /// the sender missed while training. Returns `true` when the global
    /// parameters changed (FedBuff returns `false` while buffering).
    fn on_update(
        &mut self,
        global: &mut [f32],
        delta: &[f32],
        snapshot: &[f32],
        weight: f32,
        staleness: u64,
    ) -> bool;
}

/// FedAsync (Xie et al. \[22]): every arriving client **model** is mixed
/// into the global model immediately, `x_g ← (1 − α_τ)·x_g + α_τ·x_client`,
/// with the staleness-decayed weight `α_τ = α · (1 + τ)^(−a)`. The mixing
/// form (rather than adding the raw delta) implicitly pulls the global
/// model toward the client's training snapshot, which is what keeps stale
/// updates from compounding into divergence.
#[derive(Debug, Clone)]
pub struct FedAsync {
    alpha: f32,
    staleness_exponent: f32,
}

impl FedAsync {
    /// Creates the strategy with base mixing weight `alpha ∈ (0, 1]` and
    /// polynomial staleness exponent `a ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics when parameters are out of range.
    pub fn new(alpha: f32, staleness_exponent: f32) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(
            staleness_exponent >= 0.0,
            "staleness exponent must be non-negative"
        );
        FedAsync {
            alpha,
            staleness_exponent,
        }
    }

    /// Effective mixing weight for a given staleness.
    pub fn effective_alpha(&self, staleness: u64) -> f32 {
        self.alpha * (1.0 + staleness as f32).powf(-self.staleness_exponent)
    }
}

impl AsyncStrategy for FedAsync {
    fn name(&self) -> &'static str {
        "fedasync"
    }

    fn on_update(
        &mut self,
        global: &mut [f32],
        delta: &[f32],
        snapshot: &[f32],
        _weight: f32,
        staleness: u64,
    ) -> bool {
        let alpha = self.effective_alpha(staleness);
        for ((g, d), s) in global.iter_mut().zip(delta).zip(snapshot) {
            let client_model = s + d;
            *g = (1.0 - alpha) * *g + alpha * client_model;
        }
        true
    }
}

/// FedBuff (Nguyen et al. \[35]): updates accumulate in a size-`K` buffer;
/// when full, their staleness-discounted mean is applied at once, reducing
/// the variance of purely asynchronous aggregation.
#[derive(Debug, Clone)]
pub struct FedBuff {
    buffer_size: usize,
    server_lr: f32,
    buffer: Vec<(Vec<f32>, f32, u64)>,
}

impl FedBuff {
    /// Creates the strategy with buffer capacity `buffer_size` and server
    /// learning rate `server_lr`.
    ///
    /// # Panics
    ///
    /// Panics when `buffer_size` is zero or `server_lr` is not positive.
    pub fn new(buffer_size: usize, server_lr: f32) -> Self {
        assert!(buffer_size > 0, "buffer size must be positive");
        assert!(server_lr > 0.0, "server learning rate must be positive");
        FedBuff {
            buffer_size,
            server_lr,
            buffer: Vec::new(),
        }
    }

    /// Buffer capacity `K`.
    pub fn buffer_size(&self) -> usize {
        self.buffer_size
    }

    /// Updates currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

impl AsyncStrategy for FedBuff {
    fn name(&self) -> &'static str {
        "fedbuff"
    }

    fn on_update(
        &mut self,
        global: &mut [f32],
        delta: &[f32],
        _snapshot: &[f32],
        weight: f32,
        staleness: u64,
    ) -> bool {
        self.buffer.push((delta.to_vec(), weight, staleness));
        if self.buffer.len() < self.buffer_size {
            return false;
        }
        // Staleness-discounted weighted mean: wᵢ / √(1 + τᵢ).
        let weights: Vec<f32> = self
            .buffer
            .iter()
            .map(|(_, w, s)| w / (1.0 + *s as f32).sqrt())
            .collect();
        let vectors: Vec<&[f32]> = self.buffer.iter().map(|(d, _, _)| d.as_slice()).collect();
        if let Some(mean) = vecops::weighted_average(&vectors, &weights) {
            vecops::axpy(global, self.server_lr, &mean);
        }
        self.buffer.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedasync_mixes_models_immediately() {
        let mut s = FedAsync::new(0.5, 0.0);
        let mut global = vec![0.0f32, 0.0];
        // Client trained from the current global: snapshot == global.
        assert!(s.on_update(&mut global, &[2.0, -2.0], &[0.0, 0.0], 1.0, 0));
        assert_eq!(global, vec![1.0, -1.0]);
    }

    #[test]
    fn fedasync_pulls_toward_stale_snapshot() {
        // A stale client trained from snapshot 0 while the global moved to
        // 10; mixing must land between the two models, not at 10 + αΔ.
        let mut s = FedAsync::new(0.5, 0.0);
        let mut global = vec![10.0f32];
        s.on_update(&mut global, &[1.0], &[0.0], 1.0, 3);
        assert!(global[0] < 10.0, "mixing must damp toward the client model");
        assert!(global[0] > 1.0);
    }

    #[test]
    fn fedasync_discounts_stale_updates() {
        let s = FedAsync::new(0.8, 1.0);
        assert_eq!(s.effective_alpha(0), 0.8);
        assert_eq!(s.effective_alpha(1), 0.4);
        assert!(s.effective_alpha(9) < 0.1);
        // Exponent 0 disables discounting.
        let flat = FedAsync::new(0.8, 0.0);
        assert_eq!(flat.effective_alpha(100), 0.8);
    }

    #[test]
    fn fedbuff_flushes_exactly_at_capacity() {
        let mut s = FedBuff::new(3, 1.0);
        let mut global = vec![0.0f32];
        let snap = [0.0f32];
        assert!(!s.on_update(&mut global, &[3.0], &snap, 1.0, 0));
        assert!(!s.on_update(&mut global, &[6.0], &snap, 1.0, 0));
        assert_eq!(global, vec![0.0], "no change while buffering");
        assert_eq!(s.buffered(), 2);
        assert!(s.on_update(&mut global, &[9.0], &snap, 1.0, 0));
        assert_eq!(global, vec![6.0]); // mean of 3, 6, 9
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn fedbuff_downweights_stale_buffer_entries() {
        let mut s = FedBuff::new(2, 1.0);
        let mut global = vec![0.0f32];
        let snap = [0.0f32];
        s.on_update(&mut global, &[1.0], &snap, 1.0, 0);
        s.on_update(&mut global, &[5.0], &snap, 1.0, 99); // heavily stale
                                                          // Weighted mean ≈ 1·1/1 + 5·0.1 over (1 + 0.1) ≈ 1.36, well below
                                                          // the unweighted mean of 3.
        assert!(global[0] < 2.0, "stale entry dominated: {}", global[0]);
        assert!(global[0] > 0.9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        FedAsync::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "buffer size")]
    fn zero_buffer_panics() {
        FedBuff::new(0, 1.0);
    }
}
