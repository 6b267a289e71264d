//! Optimizers operating on flat parameter/gradient vectors.
//!
//! Optimizers are deliberately decoupled from layers: they see the same flat
//! vectors that federated learning exchanges, so the server-side optimizers
//! of FedAdam and the momentum state of DGC reuse these implementations.

/// A first-order optimizer over flat parameter vectors.
///
/// State (momentum buffers, Adam moments) is lazily sized on the first call
/// and keyed by position, so an optimizer instance must always be used with
/// the same model.
pub trait Optimizer: Send + std::fmt::Debug {
    /// Applies one update step: mutates `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `params.len() != grads.len()` or the
    /// length changes between calls.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and decoupled weight
/// decay.
///
/// `v ← μ·v + g + λ·p`, `p ← p − η·v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`, momentum `μ` and weight decay
    /// `λ` (all non-negative).
    ///
    /// # Panics
    ///
    /// Panics when any argument is negative or `lr` is zero/non-finite.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!(
            momentum >= 0.0 && weight_decay >= 0.0,
            "hyperparameters must be non-negative"
        );
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Zeroes the momentum buffer, keeping its allocation.
    ///
    /// After `reset` the optimizer behaves exactly like a freshly
    /// constructed one, which lets federated clients keep a persistent
    /// optimizer across rounds (each local phase starts with zero velocity)
    /// without reallocating the buffer.
    pub fn reset(&mut self) {
        self.velocity.fill(0.0);
    }

    /// Sets the momentum `μ`, keeping the velocity buffer — how one
    /// optimizer serves devices with their own hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics when `momentum` is negative.
    pub fn set_momentum(&mut self, momentum: f32) {
        assert!(momentum >= 0.0, "hyperparameters must be non-negative");
        self.momentum = momentum;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; params.len()];
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer reused with a different model"
        );
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            let g_eff = g + self.weight_decay * *p;
            *v = self.momentum * *v + g_eff;
            *p -= self.lr * *v;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba), used server-side by FedAdam \[34].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard defaults
    /// `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics when `lr` is zero, negative or non-finite.
    pub fn new(lr: f32) -> Self {
        Adam::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit moment coefficients.
    ///
    /// # Panics
    ///
    /// Panics when `lr ≤ 0` or the betas are outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas must be in [0, 1)"
        );
        Adam {
            lr,
            beta1,
            beta2,
            epsilon,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "optimizer reused with a different model"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let mut sgd = Sgd::new(0.5, 0.0, 0.0);
        let mut p = vec![1.0, 2.0];
        sgd.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn sgd_momentum_accelerates_along_constant_gradient() {
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut p = vec![0.0];
        sgd.step(&mut p, &[1.0]);
        let first_delta = -p[0];
        let before = p[0];
        sgd.step(&mut p, &[1.0]);
        let second_delta = before - p[0];
        assert!(second_delta > first_delta, "momentum should grow the step");
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut sgd = Sgd::new(0.1, 0.0, 1.0);
        let mut p = vec![10.0];
        sgd.step(&mut p, &[0.0]);
        assert!(p[0] < 10.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(x) = (x-3)², grad = 2(x-3)
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            adam.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "adam ended at {}", p[0]);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut p = vec![0.0f32];
        for _ in 0..200 {
            let g = 2.0 * (p[0] - 3.0);
            sgd.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "sgd ended at {}", p[0]);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        sgd.set_learning_rate(0.01);
        assert_eq!(sgd.learning_rate(), 0.01);
        let mut adam = Adam::new(0.1);
        adam.set_learning_rate(0.2);
        assert_eq!(adam.learning_rate(), 0.2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1, 0.0, 0.0).step(&mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn reuse_with_other_model_panics() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        sgd.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        sgd.step(&mut [0.0], &[1.0]);
    }
}
