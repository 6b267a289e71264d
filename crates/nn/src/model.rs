use crate::optim::Optimizer;
use crate::workspace::ModelWorkspace;
use crate::Layer;
use adafl_tensor::Tensor;

/// A sequential stack of layers with flat parameter/gradient access.
///
/// `Model` is the unit that federated learning moves around: clients train a
/// `Model`, flatten its parameters or gradients with
/// [`Model::params_flat`] / [`Model::grads_flat`], and the server installs
/// aggregated vectors with [`Model::set_params_flat`].
///
/// # Examples
///
/// ```
/// use adafl_nn::{models, Model};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = models::logistic_regression(&mut StdRng::seed_from_u64(0), 10, 3);
/// let flat = model.params_flat();
/// assert_eq!(flat.len(), model.param_count());
/// ```
#[derive(Debug)]
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    in_features: usize,
    out_features: usize,
}

impl Model {
    /// Creates a model from an ordered stack of layers.
    ///
    /// `in_features` is the expected input row width; the output width is
    /// derived by chaining each layer's [`Layer::out_features`].
    ///
    /// # Panics
    ///
    /// Panics when `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>, in_features: usize) -> Self {
        assert!(!layers.is_empty(), "model must contain at least one layer");
        let mut width = in_features;
        for layer in &layers {
            width = layer.out_features(width);
        }
        Model {
            layers,
            in_features,
            out_features: width,
        }
    }

    /// Input row width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output row width (number of classes for classifiers).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the model has no layers (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the forward pass over the whole stack: [`Model::forward_into`]
    /// into a fresh tensor over a throwaway workspace.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(input, &mut out, train, &mut ModelWorkspace::new());
        out
    }

    /// Runs the backward pass, accumulating parameter gradients:
    /// [`Model::backward_into`] into a fresh tensor.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, Some(&mut grad_in), &mut ModelWorkspace::new());
        grad_in
    }

    /// Allocation-free forward pass: chains [`Layer::forward_into`] through
    /// the workspace's ping-pong buffers, writing the final activations into
    /// `out`.
    ///
    /// After the first call every buffer has steady-state capacity, so
    /// repeated calls with same-shaped inputs perform no heap allocation.
    pub fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        ws: &mut ModelWorkspace,
    ) {
        if ws.layers.len() < self.layers.len() {
            ws.layers.resize_with(self.layers.len(), Default::default);
        }
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_into(input, out, train, &mut ws.layers[0]);
            return;
        }
        self.layers[0].forward_into(input, &mut ws.ping, train, &mut ws.layers[0]);
        let mut src: &mut Tensor = &mut ws.ping;
        let mut dst: &mut Tensor = &mut ws.pong;
        for i in 1..n {
            if i == n - 1 {
                self.layers[i].forward_into(src, out, train, &mut ws.layers[i]);
            } else {
                self.layers[i].forward_into(src, dst, train, &mut ws.layers[i]);
                std::mem::swap(&mut src, &mut dst);
            }
        }
    }

    /// Allocation-free backward pass mirroring [`Model::forward_into`]:
    /// propagates `grad_out` through the stack in reverse, accumulating
    /// parameter gradients and writing ∂loss/∂input into `grad_in` when it
    /// is given. Training passes `None`: nothing reads the input gradient,
    /// so the first layer skips computing it (see [`Layer::backward_into`]).
    pub fn backward_into<'g>(
        &mut self,
        grad_out: &Tensor,
        grad_in: impl Into<Option<&'g mut Tensor>>,
        ws: &mut ModelWorkspace,
    ) {
        let grad_in = grad_in.into();
        if ws.layers.len() < self.layers.len() {
            ws.layers.resize_with(self.layers.len(), Default::default);
        }
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].backward_into(grad_out, grad_in, &mut ws.layers[0]);
            return;
        }
        self.layers[n - 1].backward_into(grad_out, Some(&mut ws.ping), &mut ws.layers[n - 1]);
        let mut src: &mut Tensor = &mut ws.ping;
        let mut dst: &mut Tensor = &mut ws.pong;
        for i in (1..n - 1).rev() {
            self.layers[i].backward_into(src, Some(&mut *dst), &mut ws.layers[i]);
            std::mem::swap(&mut src, &mut dst);
        }
        self.layers[0].backward_into(src, grad_in, &mut ws.layers[0]);
    }

    /// Resets all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Builds the per-layer offset/shape registry that parameter sub-views
    /// are cut from (see [`crate::ParamSegmentMap`]).
    pub fn segment_map(&self) -> crate::ParamSegmentMap {
        crate::ParamSegmentMap::from_layers(&self.layers)
    }

    /// Flattens all parameters into one vector (stable layer order).
    ///
    /// This is the trivial full-view case of the parameter sub-view
    /// machinery: [`crate::SubView::full`] over [`Model::segment_map`]
    /// selects exactly these coordinates in this order.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.params_flat_into(&mut out);
        out
    }

    /// Flattens all accumulated gradients into one vector (same order as
    /// [`Model::params_flat`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.grads_flat_into(&mut out);
        out
    }

    /// Installs a flat parameter vector produced by [`Model::params_flat`].
    ///
    /// # Panics
    ///
    /// Panics when `flat.len()` differs from [`Model::param_count`].
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut offset = 0usize;
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |p| {
                p.copy_from_slice(&flat[offset..offset + p.len()]);
                offset += p.len();
            });
        }
    }

    /// Flattens all parameters into a reusable vector (stable layer order).
    ///
    /// Equivalent to [`Model::params_flat`] but writes into `out`, which is
    /// cleared first; once `out` has reached capacity no allocation occurs.
    pub fn params_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        for layer in &self.layers {
            layer.visit_params(&mut |p| out.extend_from_slice(p));
        }
    }

    /// Flattens all accumulated gradients into a reusable vector (same order
    /// as [`Model::params_flat`]).
    pub fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        for layer in &self.layers {
            layer.visit_grads(&mut |g| out.extend_from_slice(g));
        }
    }

    /// Applies one optimizer step using the currently accumulated gradients,
    /// then clears them: [`Model::apply_gradient_step_ws`] over a throwaway
    /// workspace.
    pub fn apply_gradient_step(&mut self, optimizer: &mut dyn Optimizer) {
        self.apply_gradient_step_ws(optimizer, &mut ModelWorkspace::new());
    }

    /// Allocation-free [`Model::apply_gradient_step`]: the flat
    /// parameter/gradient vectors live in the workspace and are reused
    /// across steps.
    pub fn apply_gradient_step_ws(
        &mut self,
        optimizer: &mut dyn Optimizer,
        ws: &mut ModelWorkspace,
    ) {
        self.params_flat_into(&mut ws.params);
        self.grads_flat_into(&mut ws.grads);
        optimizer.step(&mut ws.params, &ws.grads);
        self.set_params_flat(&ws.params);
        self.zero_grads();
    }

    /// Applies a pre-computed flat update `params += update` (used when the
    /// server broadcasts aggregated deltas).
    ///
    /// # Panics
    ///
    /// Panics when `update.len()` differs from [`Model::param_count`].
    pub fn apply_delta(&mut self, update: &[f32]) {
        assert_eq!(
            update.len(),
            self.param_count(),
            "flat delta length mismatch"
        );
        let mut params = self.params_flat();
        for (p, u) in params.iter_mut().zip(update) {
            *p += u;
        }
        self.set_params_flat(&params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_model() -> Model {
        let mut rng = StdRng::seed_from_u64(0);
        Model::new(
            vec![
                Box::new(Dense::new(&mut rng, 3, 4)),
                Box::new(Relu::new()),
                Box::new(Dense::new(&mut rng, 4, 2)),
            ],
            3,
        )
    }

    #[test]
    fn widths_are_chained() {
        let m = small_model();
        assert_eq!(m.in_features(), 3);
        assert_eq!(m.out_features(), 2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn params_round_trip_through_flat_vector() {
        let mut m = small_model();
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.param_count());
        let doubled: Vec<f32> = flat.iter().map(|x| x * 2.0).collect();
        m.set_params_flat(&doubled);
        assert_eq!(m.params_flat(), doubled);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut m = small_model();
        m.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut m = small_model();
        let before = m.params_flat();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(&[1, y.shape().dims()[1]]));
        let grads = m.grads_flat();
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        m.apply_gradient_step(&mut sgd);
        let after = m.params_flat();
        for ((b, a), g) in before.iter().zip(&after).zip(&grads) {
            assert!((a - (b - 0.1 * g)).abs() < 1e-6);
        }
        // Gradients cleared after the step.
        assert!(m.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn apply_delta_adds_update() {
        let mut m = small_model();
        let before = m.params_flat();
        let delta = vec![0.5f32; m.param_count()];
        m.apply_delta(&delta);
        for (b, a) in before.iter().zip(m.params_flat()) {
            assert!((a - b - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_is_deterministic_for_same_params() {
        let mut m1 = small_model();
        let mut m2 = small_model();
        let x = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[1, 3]).unwrap();
        assert_eq!(m1.forward(&x, false), m2.forward(&x, false));
    }
}
