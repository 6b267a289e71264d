//! The [`SyncStrategy`] contract and the synchronous baseline strategies:
//! FedAvg \[19], FedAdam \[34], FedProx \[20] and SCAFFOLD \[21] — the
//! comparison set of Table I.

use adafl_nn::optim::{Adam, Optimizer};
use adafl_tensor::vecops;

/// One client's contribution to a synchronous aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// Client identifier.
    pub client: usize,
    /// Parameter delta `w_local − w_global`.
    pub delta: Vec<f32>,
    /// Aggregation weight (the client's `n_i`).
    pub weight: f32,
}

/// Server-side behaviour of a synchronous FL strategy.
///
/// The runtime owns the protocol (selection, communication, faults); a
/// strategy contributes the client-side gradient correction and the
/// server-side aggregation rule. This split is what lets FedAvg, FedAdam,
/// FedProx and SCAFFOLD share one runtime.
pub trait SyncStrategy: std::fmt::Debug + Send + Sync {
    /// Strategy name for run labels.
    fn name(&self) -> &'static str;

    /// Called once before the first round with the model dimension and
    /// client count.
    fn init(&mut self, _dim: usize, _clients: usize) {}

    /// Whether [`SyncStrategy::gradient_hook`] edits anything. `false`
    /// (the default) lets the runtime skip the hook, and with it the
    /// strategy's borrow during training, so each finished update is
    /// drained while the rest of the cohort still trains; a strategy that
    /// overrides the hook returns `true`.
    fn uses_gradient_hook(&self) -> bool {
        false
    }

    /// Client-side gradient correction applied at every local step (only
    /// called when [`SyncStrategy::uses_gradient_hook`] is true).
    fn gradient_hook(&self, _client: usize, _grad: &mut [f32], _params: &[f32], _global: &[f32]) {}

    /// Called after a client finishes local training (before aggregation),
    /// with its delta and the hyperparameters that produced it. `lr` is the
    /// *effective* per-step learning rate — the runtime folds momentum
    /// amplification (`η / (1 − μ)`) in, so SCAFFOLD's control-variate
    /// update stays calibrated under client momentum.
    fn after_local_round(&mut self, _client: usize, _delta: &[f32], _steps: usize, _lr: f32) {}

    /// Folds the round's delivered updates into the global parameters.
    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]);

    /// Whether [`SyncStrategy::aggregate`] is exactly "add the
    /// sample-weighted mean delta to `global`" and nothing else — the one
    /// rule the runtime can also compute incrementally, update by update,
    /// without buffering the cohort. `false` unless a strategy promises
    /// it; of the baselines only [`FedAvg`] does.
    fn is_weighted_mean(&self) -> bool {
        false
    }
}

fn weighted_mean_delta(updates: &[ClientUpdate]) -> Option<Vec<f32>> {
    let vectors: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
    let weights: Vec<f32> = updates.iter().map(|u| u.weight).collect();
    vecops::weighted_average(&vectors, &weights)
}

/// Federated averaging (McMahan et al. \[19]): the global model moves by the
/// sample-weighted mean of client deltas.
#[derive(Debug, Clone, Default)]
pub struct FedAvg {
    _private: (),
}

impl FedAvg {
    /// Creates the strategy.
    pub fn new() -> Self {
        FedAvg::default()
    }
}

impl SyncStrategy for FedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            vecops::axpy(global, 1.0, &mean);
        }
    }

    fn is_weighted_mean(&self) -> bool {
        true
    }
}

/// FedAdam (Reddi et al. \[34]): the server treats the negated mean delta as
/// a pseudo-gradient for a server-side Adam optimizer.
#[derive(Debug, Clone)]
pub struct FedAdam {
    adam: Adam,
}

impl FedAdam {
    /// Creates the strategy with server learning rate `server_lr` and the
    /// large adaptivity constant `τ = 10⁻³` the FedAdam paper recommends
    /// (a tiny Adam epsilon makes the normalised server step overshoot the
    /// small per-round deltas of federated training).
    ///
    /// # Panics
    ///
    /// Panics when `server_lr` is not positive.
    pub fn new(server_lr: f32) -> Self {
        FedAdam::with_adaptivity(server_lr, 1e-3)
    }

    /// Creates the strategy with an explicit adaptivity constant `τ`
    /// (Adam's denominator offset).
    ///
    /// # Panics
    ///
    /// Panics when `server_lr` is not positive.
    pub fn with_adaptivity(server_lr: f32, tau: f32) -> Self {
        FedAdam {
            adam: Adam::with_betas(server_lr, 0.9, 0.999, tau),
        }
    }
}

impl SyncStrategy for FedAdam {
    fn name(&self) -> &'static str {
        "fedadam"
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            let pseudo_grad: Vec<f32> = mean.iter().map(|d| -d).collect();
            self.adam.step(global, &pseudo_grad);
        }
    }
}

/// FedProx (Li et al. \[20]): FedAvg aggregation plus a client-side proximal
/// term `μ·(w − w_global)` added to every local gradient, limiting client
/// drift under heterogeneity.
#[derive(Debug, Clone)]
pub struct FedProx {
    mu: f32,
}

impl FedProx {
    /// Creates the strategy with proximal coefficient `mu`.
    ///
    /// # Panics
    ///
    /// Panics when `mu` is negative.
    pub fn new(mu: f32) -> Self {
        assert!(mu >= 0.0, "proximal coefficient must be non-negative");
        FedProx { mu }
    }

    /// The proximal coefficient μ.
    pub fn mu(&self) -> f32 {
        self.mu
    }
}

impl SyncStrategy for FedProx {
    fn name(&self) -> &'static str {
        "fedprox"
    }

    fn uses_gradient_hook(&self) -> bool {
        true
    }

    fn gradient_hook(&self, _client: usize, grad: &mut [f32], params: &[f32], global: &[f32]) {
        for ((g, p), w) in grad.iter_mut().zip(params).zip(global) {
            *g += self.mu * (p - w);
        }
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            vecops::axpy(global, 1.0, &mean);
        }
    }
}

/// FedAdagrad (Reddi et al. \[34]): server-side Adagrad over the mean client
/// delta — the `β₂ → 1`-free sibling of FedAdam from the same paper.
#[derive(Debug, Clone)]
pub struct FedAdagrad {
    lr: f32,
    tau: f32,
    accumulator: Vec<f32>,
}

impl FedAdagrad {
    /// Creates the strategy with server learning rate `server_lr` and
    /// adaptivity constant `τ`.
    ///
    /// # Panics
    ///
    /// Panics when `server_lr` or `tau` is not positive.
    pub fn new(server_lr: f32, tau: f32) -> Self {
        assert!(server_lr > 0.0, "server learning rate must be positive");
        assert!(tau > 0.0, "adaptivity constant must be positive");
        FedAdagrad {
            lr: server_lr,
            tau,
            accumulator: Vec::new(),
        }
    }
}

impl SyncStrategy for FedAdagrad {
    fn name(&self) -> &'static str {
        "fedadagrad"
    }

    fn init(&mut self, dim: usize, _clients: usize) {
        self.accumulator = vec![0.0; dim];
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            if self.accumulator.len() != global.len() {
                self.accumulator = vec![0.0; global.len()];
            }
            for ((p, d), v) in global.iter_mut().zip(&mean).zip(&mut self.accumulator) {
                *v += d * d;
                *p += self.lr * d / (v.sqrt() + self.tau);
            }
        }
    }
}

/// FedYogi (Reddi et al. \[34]): the Yogi variant of server-side adaptive
/// optimization, whose sign-controlled second-moment update avoids the
/// variance blow-up Adam can exhibit under heterogeneous client deltas.
#[derive(Debug, Clone)]
pub struct FedYogi {
    lr: f32,
    beta1: f32,
    beta2: f32,
    tau: f32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl FedYogi {
    /// Creates the strategy with server learning rate `server_lr` and
    /// adaptivity constant `τ` (standard `β₁ = 0.9`, `β₂ = 0.99`).
    ///
    /// # Panics
    ///
    /// Panics when `server_lr` or `tau` is not positive.
    pub fn new(server_lr: f32, tau: f32) -> Self {
        assert!(server_lr > 0.0, "server learning rate must be positive");
        assert!(tau > 0.0, "adaptivity constant must be positive");
        FedYogi {
            lr: server_lr,
            beta1: 0.9,
            beta2: 0.99,
            tau,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl SyncStrategy for FedYogi {
    fn name(&self) -> &'static str {
        "fedyogi"
    }

    fn init(&mut self, dim: usize, _clients: usize) {
        self.m = vec![0.0; dim];
        self.v = vec![self.tau * self.tau; dim];
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            if self.m.len() != global.len() {
                self.m = vec![0.0; global.len()];
                self.v = vec![self.tau * self.tau; global.len()];
            }
            for (((p, d), m), v) in global
                .iter_mut()
                .zip(&mean)
                .zip(&mut self.m)
                .zip(&mut self.v)
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * d;
                let d2 = d * d;
                // Yogi: v moves toward d² only as fast as their gap's sign.
                *v -= (1.0 - self.beta2) * d2 * (*v - d2).signum();
                *p += self.lr * *m / (v.sqrt() + self.tau);
            }
        }
    }
}

/// SCAFFOLD (Karimireddy et al. \[21]): stochastic controlled averaging with
/// server (`c`) and per-client (`cᵢ`) control variates correcting client
/// drift: each local gradient becomes `g − cᵢ + c`.
#[derive(Debug, Clone)]
pub struct Scaffold {
    /// Server control variate `c`.
    server_control: Vec<f32>,
    /// Per-client control variates `cᵢ`.
    client_controls: Vec<Vec<f32>>,
    /// Control-variate deltas accumulated this round, drained at aggregate.
    pending: Vec<Vec<f32>>,
    clients: usize,
}

impl Scaffold {
    /// Creates the strategy (state sized lazily by [`SyncStrategy::init`]).
    pub fn new() -> Self {
        Scaffold {
            server_control: Vec::new(),
            client_controls: Vec::new(),
            pending: Vec::new(),
            clients: 0,
        }
    }
}

impl Default for Scaffold {
    fn default() -> Self {
        Scaffold::new()
    }
}

impl SyncStrategy for Scaffold {
    fn name(&self) -> &'static str {
        "scaffold"
    }

    fn uses_gradient_hook(&self) -> bool {
        true
    }

    fn init(&mut self, dim: usize, clients: usize) {
        self.server_control = vec![0.0; dim];
        self.client_controls = vec![vec![0.0; dim]; clients];
        self.clients = clients;
    }

    fn gradient_hook(&self, client: usize, grad: &mut [f32], _params: &[f32], _global: &[f32]) {
        let ci = &self.client_controls[client];
        for ((g, c), cc) in grad.iter_mut().zip(&self.server_control).zip(ci) {
            *g += c - cc;
        }
    }

    fn after_local_round(&mut self, client: usize, delta: &[f32], steps: usize, lr: f32) {
        // Option II of the paper: cᵢ⁺ = cᵢ − c + (w_global − w_local)/(K·η)
        //                             = cᵢ − c − Δ/(K·η).
        let scale = 1.0 / (steps as f32 * lr);
        let mut dc = vec![0.0f32; delta.len()];
        for (((d, ci), c), out) in delta
            .iter()
            .zip(&self.client_controls[client])
            .zip(&self.server_control)
            .zip(&mut dc)
        {
            let ci_plus = ci - c - d * scale;
            *out = ci_plus - ci;
        }
        for (ci, d) in self.client_controls[client].iter_mut().zip(&dc) {
            *ci += d;
        }
        self.pending.push(dc);
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        if let Some(mean) = weighted_mean_delta(updates) {
            vecops::axpy(global, 1.0, &mean);
        }
        // c ← c + (|S|/N) · mean(cᵢ⁺ − cᵢ)
        if !self.pending.is_empty() && self.clients > 0 {
            let s = self.pending.len() as f32;
            let factor = s / self.clients as f32 / s; // = 1/N per pending sum
            for dc in self.pending.drain(..) {
                vecops::axpy(&mut self.server_control, factor, &dc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(deltas: &[&[f32]], weights: &[f32]) -> Vec<ClientUpdate> {
        deltas
            .iter()
            .zip(weights)
            .enumerate()
            .map(|(i, (d, &w))| ClientUpdate {
                client: i,
                delta: d.to_vec(),
                weight: w,
            })
            .collect()
    }

    #[test]
    fn fedavg_moves_by_weighted_mean() {
        let mut s = FedAvg::new();
        let mut global = vec![0.0f32, 0.0];
        let ups = updates(&[&[1.0, 0.0], &[3.0, 2.0]], &[1.0, 3.0]);
        s.aggregate(&mut global, &ups);
        // mean = (1·[1,0] + 3·[3,2]) / 4 = [2.5, 1.5]
        assert_eq!(global, vec![2.5, 1.5]);
    }

    #[test]
    fn fedavg_noop_on_empty_round() {
        let mut s = FedAvg::new();
        let mut global = vec![1.0f32];
        s.aggregate(&mut global, &[]);
        assert_eq!(global, vec![1.0]);
    }

    #[test]
    fn fedadam_moves_in_delta_direction() {
        let mut s = FedAdam::new(0.1);
        let mut global = vec![0.0f32, 0.0];
        let ups = updates(&[&[1.0, -1.0]], &[1.0]);
        s.aggregate(&mut global, &ups);
        assert!(global[0] > 0.0, "should move along the mean delta");
        assert!(global[1] < 0.0);
    }

    #[test]
    fn fedprox_hook_pulls_toward_global() {
        let s = FedProx::new(0.5);
        let mut grad = vec![0.0f32, 0.0];
        s.gradient_hook(0, &mut grad, &[2.0, -2.0], &[0.0, 0.0]);
        assert_eq!(grad, vec![1.0, -1.0]); // 0.5·(params − global)
        assert_eq!(s.mu(), 0.5);
    }

    #[test]
    fn fedprox_zero_mu_is_fedavg() {
        let s = FedProx::new(0.0);
        let mut grad = vec![0.3f32];
        s.gradient_hook(0, &mut grad, &[5.0], &[1.0]);
        assert_eq!(grad, vec![0.3]);
    }

    #[test]
    fn scaffold_controls_start_at_zero_and_update() {
        let mut s = Scaffold::new();
        s.init(2, 4);
        let mut grad = vec![1.0f32, 1.0];
        s.gradient_hook(0, &mut grad, &[0.0, 0.0], &[0.0, 0.0]);
        assert_eq!(grad, vec![1.0, 1.0], "zero controls change nothing");

        // A client that moved by Δ = [-1, 0] over 1 step at lr 1.
        s.after_local_round(0, &[-1.0, 0.0], 1, 1.0);
        // cᵢ⁺ = 0 − 0 − (−1)/1 = 1 on coordinate 0.
        assert_eq!(s.client_controls[0], vec![1.0, 0.0]);

        let mut global = vec![0.0f32, 0.0];
        let ups = updates(&[&[-1.0, 0.0]], &[1.0]);
        s.aggregate(&mut global, &ups);
        assert_eq!(global, vec![-1.0, 0.0]);
        // c moved by (1/N)·Σ dc = 1/4 · [1, 0].
        assert_eq!(s.server_control, vec![0.25, 0.0]);
        assert!(s.pending.is_empty());
    }

    #[test]
    fn scaffold_hook_uses_controls_after_update() {
        let mut s = Scaffold::new();
        s.init(1, 2);
        s.after_local_round(0, &[-2.0], 1, 1.0); // c₀ = 2
        let mut grad = vec![0.0f32];
        s.gradient_hook(0, &mut grad, &[0.0], &[0.0]);
        // grad += c − c₀ = 0 − 2.
        assert_eq!(grad, vec![-2.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mu_panics() {
        FedProx::new(-0.1);
    }

    #[test]
    fn fedadagrad_step_shrinks_as_accumulator_grows() {
        let mut s = FedAdagrad::new(1.0, 1e-3);
        s.init(1, 2);
        let mut global = vec![0.0f32];
        s.aggregate(&mut global, &updates(&[&[1.0]], &[1.0]));
        let first = global[0];
        s.aggregate(&mut global, &updates(&[&[1.0]], &[1.0]));
        let second = global[0] - first;
        assert!(first > 0.0);
        assert!(
            second < first,
            "adagrad step should shrink: {first} then {second}"
        );
    }

    #[test]
    fn fedyogi_moves_along_mean_delta() {
        let mut s = FedYogi::new(0.1, 1e-2);
        s.init(2, 2);
        let mut global = vec![0.0f32, 0.0];
        s.aggregate(&mut global, &updates(&[&[1.0, -1.0]], &[1.0]));
        assert!(global[0] > 0.0);
        assert!(global[1] < 0.0);
    }

    #[test]
    fn fedyogi_bounded_under_repeated_updates() {
        // The sign-controlled v update must keep steps finite and stable.
        let mut s = FedYogi::new(0.1, 1e-2);
        s.init(1, 2);
        let mut global = vec![0.0f32];
        for i in 0..200 {
            let d = if i % 2 == 0 { 1.0 } else { -1.0 };
            s.aggregate(&mut global, &updates(&[&[d]], &[1.0]));
            assert!(global[0].is_finite());
        }
        assert!(global[0].abs() < 10.0, "fedyogi diverged to {}", global[0]);
    }

    #[test]
    fn adaptive_servers_lazily_resize() {
        // init() may be skipped by custom harnesses; aggregate must size
        // its own state.
        let mut s = FedAdagrad::new(0.1, 1e-3);
        let mut global = vec![0.0f32; 3];
        s.aggregate(&mut global, &updates(&[&[1.0, 2.0, 3.0]], &[1.0]));
        assert!(global.iter().all(|p| *p > 0.0));
        let mut y = FedYogi::new(0.1, 1e-2);
        let mut g2 = vec![0.0f32; 2];
        y.aggregate(&mut g2, &updates(&[&[1.0, 1.0]], &[1.0]));
        assert!(g2[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "adaptivity")]
    fn zero_tau_panics() {
        FedAdagrad::new(0.1, 0.0);
    }
}
