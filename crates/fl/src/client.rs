//! Federated clients.

use adafl_data::loader::BatchLoader;
use adafl_data::Dataset;
use adafl_nn::loss::CrossEntropyLoss;
use adafl_nn::models::ModelSpec;
use adafl_nn::optim::{Optimizer, Sgd};
use adafl_nn::{Model, ModelWorkspace};
use adafl_tensor::Tensor;

/// Adjusts a client's local gradient during training.
///
/// Called once per local step with `(gradient, local_params,
/// global_params)`; FedProx adds its proximal term here and SCAFFOLD its
/// control-variate correction.
pub type GradientHook<'a> = &'a mut dyn FnMut(&mut [f32], &[f32], &[f32]);

/// Result of one local training round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalOutcome {
    /// Parameter delta `w_local − w_global` — the update shipped (possibly
    /// compressed) to the server. Its direction serves as the client's
    /// gradient estimate for AdaFL's utility score.
    pub delta: Vec<f32>,
    /// Mean training loss over the local steps.
    pub mean_loss: f32,
    /// Client dataset size (the FedAvg weighting `n_i`).
    pub num_samples: usize,
    /// Local steps actually run.
    pub steps: usize,
}

/// A federated client: a local model replica plus its private shard.
///
/// # Examples
///
/// ```
/// use adafl_data::synthetic::SyntheticSpec;
/// use adafl_fl::FlClient;
/// use adafl_nn::models::ModelSpec;
///
/// let shard = SyntheticSpec::mnist_like(8, 50).generate(3);
/// let spec = ModelSpec::LogisticRegression { in_features: 64, classes: 10 };
/// let mut client = FlClient::new(0, spec.build(1), shard, 0.05, 0.9, 16, 7);
/// let global = client.model().params_flat();
/// let outcome = client.train_local(&global, 3, None);
/// assert_eq!(outcome.steps, 3);
/// ```
#[derive(Debug)]
pub struct FlClient {
    id: usize,
    model: Model,
    data: Dataset,
    loader: BatchLoader,
    learning_rate: f32,
    momentum: f32,
    /// Persistent local optimizer; reset to zero velocity at the start of
    /// each `train_local` so its semantics match a freshly built one while
    /// its buffer allocation is reused across rounds.
    optimizer: Sgd,
    /// Scratch arena reused by every forward/backward/step — after the
    /// first local step, training performs no heap allocation.
    ws: ModelWorkspace,
    batch_x: Tensor,
    batch_labels: Vec<usize>,
    logits: Tensor,
    dlogits: Tensor,
    dinput: Tensor,
    /// Flat gradient scratch for the gradient-hook path.
    hook_grads: Vec<f32>,
    /// Flat parameter scratch for the gradient-hook path.
    hook_params: Vec<f32>,
}

impl FlClient {
    /// Creates a client.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or hyperparameters are out of range (see
    /// [`Sgd::new`]).
    pub fn new(
        id: usize,
        model: Model,
        data: Dataset,
        learning_rate: f32,
        momentum: f32,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(!data.is_empty(), "client dataset must not be empty");
        let loader = BatchLoader::new(batch_size, seed ^ (id as u64).wrapping_mul(0x517C_C1B7));
        // Validates hyperparameters eagerly.
        let optimizer = Sgd::new(learning_rate, momentum, 0.0);
        FlClient {
            id,
            model,
            data,
            loader,
            learning_rate,
            momentum,
            optimizer,
            ws: ModelWorkspace::new(),
            batch_x: Tensor::default(),
            batch_labels: Vec::new(),
            logits: Tensor::default(),
            dlogits: Tensor::default(),
            dinput: Tensor::default(),
            hook_grads: Vec::new(),
            hook_params: Vec::new(),
        }
    }

    /// Builds a fleet of clients over pre-partitioned shards, all starting
    /// from the same `spec`-derived initial model.
    ///
    /// Shards that are empty are rejected — callers should re-partition or
    /// drop such clients explicitly.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty or any shard is empty.
    pub fn fleet(
        spec: &ModelSpec,
        shards: Vec<Dataset>,
        learning_rate: f32,
        momentum: f32,
        batch_size: usize,
        seed: u64,
    ) -> Vec<FlClient> {
        assert!(!shards.is_empty(), "need at least one shard");
        shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| {
                FlClient::new(
                    id,
                    spec.build(seed),
                    shard,
                    learning_rate,
                    momentum,
                    batch_size,
                    seed,
                )
            })
            .collect()
    }

    /// Client identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Rebinds this client object to impersonate client `id` for one
    /// round: installs its shard and reseeds the batch loader from
    /// `(seed, id, round)` so the data order is a deterministic function
    /// of who is being simulated and when — independent of which pool
    /// slot runs it. Model, optimizer and scratch buffers are reused;
    /// `train_local` overwrites parameters from the global model anyway.
    ///
    /// This is the cohort-resident pool's workhorse: a fleet of a million
    /// clients needs only `cohort_size` live [`FlClient`]s.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty.
    pub fn rebind(&mut self, id: usize, data: Dataset, seed: u64, round: u64) {
        assert!(!data.is_empty(), "client dataset must not be empty");
        self.id = id;
        self.data = data;
        self.loader = BatchLoader::new(
            self.loader.batch_size(),
            seed ^ (id as u64).wrapping_mul(0x517C_C1B7)
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }

    /// The local model replica.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Number of local samples (`n_i`).
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The client's local learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// The client's local SGD momentum.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Installs global parameters, synchronising the replica.
    ///
    /// # Panics
    ///
    /// Panics when `global.len()` differs from the model's parameter count.
    pub fn sync_to_global(&mut self, global: &[f32]) {
        self.model.set_params_flat(global);
    }

    /// Runs `steps` of local mini-batch SGD starting from `global`,
    /// returning the resulting delta.
    ///
    /// `hook` (if any) may rewrite each step's gradient — this is where
    /// FedProx and SCAFFOLD inject their corrections.
    ///
    /// # Panics
    ///
    /// Panics when `global.len()` differs from the model's parameter count
    /// or `steps` is zero.
    pub fn train_local(
        &mut self,
        global: &[f32],
        steps: usize,
        mut hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        assert!(steps > 0, "local steps must be positive");
        self.model.set_params_flat(global);
        // Zero velocity: same semantics as the fresh optimizer the seed
        // built per call, minus the allocation.
        self.optimizer.reset();
        let mut total_loss = 0.0f32;
        for _ in 0..steps {
            self.loader
                .next_batch_into(&self.data, &mut self.batch_x, &mut self.batch_labels);
            self.model.zero_grads();
            self.model
                .forward_into(&self.batch_x, &mut self.logits, true, &mut self.ws);
            let loss = CrossEntropyLoss.loss_and_grad_into(
                &self.logits,
                &self.batch_labels,
                &mut self.dlogits,
            );
            total_loss += loss;
            self.model
                .backward_into(&self.dlogits, &mut self.dinput, &mut self.ws);
            if let Some(h) = hook.as_mut() {
                self.model.grads_flat_into(&mut self.hook_grads);
                self.model.params_flat_into(&mut self.hook_params);
                h(&mut self.hook_grads, &self.hook_params, global);
                self.optimizer.step(&mut self.hook_params, &self.hook_grads);
                self.model.set_params_flat(&self.hook_params);
                self.model.zero_grads();
            } else {
                self.model
                    .apply_gradient_step_ws(&mut self.optimizer, &mut self.ws);
            }
        }
        // Reuse the flat-parameter scratch for the delta read-back; the
        // delta vector itself escapes, but the steady-state loop no longer
        // allocates a second full-width temporary per round.
        self.model.params_flat_into(&mut self.hook_params);
        let delta: Vec<f32> = self
            .hook_params
            .iter()
            .zip(global)
            .map(|(l, g)| l - g)
            .collect();
        LocalOutcome {
            delta,
            mean_loss: total_loss / steps as f32,
            num_samples: self.data.len(),
            steps,
        }
    }

    /// Runs `steps` of local mini-batch SGD over a parameter *sub-view*:
    /// the heterogeneous-capacity path where the server ships only the
    /// covered coordinates.
    ///
    /// `view_values` are the covered coordinates of the global model
    /// (`view.extract(global)` server-side). They are scattered into the
    /// local replica; *uncovered coordinates keep the client's stale local
    /// values* — the server did not transmit them, and the byte ledger
    /// stays honest. During training the gradient is masked to the view
    /// ([`adafl_nn::SubView::zero_outside`]) so frozen coordinates never
    /// move, and `hook` (FedProx/SCAFFOLD) sees the full-width masked
    /// gradient with the post-scatter parameters as its round anchor.
    ///
    /// The returned [`LocalOutcome::delta`] is **view-local**: element `i`
    /// is the change of the `i`-th covered coordinate, ready to wrap in a
    /// sub-view payload of length `view.view_len()`.
    ///
    /// # Panics
    ///
    /// Panics when `view` does not match the model's parameter count,
    /// `view_values.len()` differs from `view.view_len()`, or `steps` is
    /// zero.
    pub fn train_local_view(
        &mut self,
        view: &adafl_nn::SubView,
        view_values: &[f32],
        steps: usize,
        mut hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        assert!(steps > 0, "local steps must be positive");
        assert_eq!(
            view.dense_len(),
            self.model.param_count(),
            "view dimension mismatch"
        );
        // Install the transmitted slice; the rest of the replica stays.
        self.model.params_flat_into(&mut self.hook_params);
        view.scatter(view_values, &mut self.hook_params);
        self.model.set_params_flat(&self.hook_params);
        // The round anchor the hook receives as its "global" argument:
        // the replica right after synchronisation, like full-width rounds.
        let anchor = self.hook_params.clone();
        self.optimizer.reset();
        let mut total_loss = 0.0f32;
        for _ in 0..steps {
            self.loader
                .next_batch_into(&self.data, &mut self.batch_x, &mut self.batch_labels);
            self.model.zero_grads();
            self.model
                .forward_into(&self.batch_x, &mut self.logits, true, &mut self.ws);
            let loss = CrossEntropyLoss.loss_and_grad_into(
                &self.logits,
                &self.batch_labels,
                &mut self.dlogits,
            );
            total_loss += loss;
            self.model
                .backward_into(&self.dlogits, &mut self.dinput, &mut self.ws);
            self.model.grads_flat_into(&mut self.hook_grads);
            view.zero_outside(&mut self.hook_grads);
            self.model.params_flat_into(&mut self.hook_params);
            if let Some(h) = hook.as_mut() {
                h(&mut self.hook_grads, &self.hook_params, &anchor);
                // Re-mask: a hook term (e.g. FedProx's pull toward the
                // anchor) must not thaw frozen coordinates.
                view.zero_outside(&mut self.hook_grads);
            }
            self.optimizer.step(&mut self.hook_params, &self.hook_grads);
            self.model.set_params_flat(&self.hook_params);
        }
        self.model.params_flat_into(&mut self.hook_params);
        let mut delta = view.extract(&self.hook_params);
        for (d, v) in delta.iter_mut().zip(view_values) {
            *d -= v;
        }
        LocalOutcome {
            delta,
            mean_loss: total_loss / steps as f32,
            num_samples: self.data.len(),
            steps,
        }
    }

    /// Evaluates the local replica on a dataset, returning `(accuracy,
    /// mean_loss)`.
    pub fn evaluate(&mut self, data: &Dataset) -> (f32, f32) {
        evaluate_model(&mut self.model, data)
    }

    /// Computes a one-mini-batch gradient estimate at the replica's
    /// *current* parameters without updating them.
    ///
    /// This is the cheap probe AdaFL's utility score is built on: the
    /// client interrupts training, measures its local gradient direction,
    /// and reports a similarity score — no model transfer involved.
    pub fn probe_gradient(&mut self) -> Vec<f32> {
        self.loader
            .next_batch_into(&self.data, &mut self.batch_x, &mut self.batch_labels);
        self.model.zero_grads();
        self.model
            .forward_into(&self.batch_x, &mut self.logits, true, &mut self.ws);
        let _ = CrossEntropyLoss.loss_and_grad_into(
            &self.logits,
            &self.batch_labels,
            &mut self.dlogits,
        );
        self.model
            .backward_into(&self.dlogits, &mut self.dinput, &mut self.ws);
        let grad = self.model.grads_flat();
        self.model.zero_grads();
        grad
    }
}

/// Evaluates `model` on `data`, returning `(accuracy, mean_loss)`.
///
/// Batches internally so large test sets do not allocate one giant
/// activation tensor.
pub fn evaluate_model(model: &mut Model, data: &Dataset) -> (f32, f32) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let mut correct = 0usize;
    let mut loss_sum = 0.0f32;
    let mut batches = 0usize;
    let chunk = 256usize;
    let mut start = 0usize;
    while start < data.len() {
        let end = (start + chunk).min(data.len());
        let indices: Vec<usize> = (start..end).collect();
        let (x, labels) = data.batch(&indices);
        let logits = model.forward(&x, false);
        let preds = logits.argmax_rows().expect("logits are a matrix");
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        let (loss, _) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        loss_sum += loss;
        batches += 1;
        start = end;
    }
    (
        correct as f32 / data.len() as f32,
        loss_sum / batches as f32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_data::partition::Partitioner;
    use adafl_data::synthetic::SyntheticSpec;

    fn spec() -> ModelSpec {
        ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        }
    }

    fn client() -> FlClient {
        let shard = SyntheticSpec::mnist_like(8, 60).generate(1);
        FlClient::new(0, spec().build(0), shard, 0.05, 0.9, 16, 3)
    }

    #[test]
    fn train_local_returns_nonzero_delta() {
        let mut c = client();
        let global = c.model().params_flat();
        let out = c.train_local(&global, 4, None);
        assert_eq!(out.steps, 4);
        assert_eq!(out.num_samples, 60);
        assert!(out.delta.iter().any(|&d| d != 0.0));
        assert!(out.mean_loss.is_finite());
    }

    #[test]
    fn training_from_same_global_is_deterministic() {
        let mut a = client();
        let mut b = client();
        let global = a.model().params_flat();
        assert_eq!(
            a.train_local(&global, 3, None),
            b.train_local(&global, 3, None)
        );
    }

    #[test]
    fn hook_can_zero_gradients() {
        let mut c = client();
        let global = c.model().params_flat();
        let mut hook = |grad: &mut [f32], _params: &[f32], _global: &[f32]| {
            grad.fill(0.0);
        };
        let out = c.train_local(&global, 3, Some(&mut hook));
        assert!(
            out.delta.iter().all(|&d| d == 0.0),
            "zeroed gradients must freeze params"
        );
    }

    #[test]
    fn hook_sees_global_params() {
        let mut c = client();
        let global = c.model().params_flat();
        let mut saw_global = false;
        let gcopy = global.clone();
        let mut hook = |_grad: &mut [f32], _params: &[f32], g: &[f32]| {
            assert_eq!(g, gcopy.as_slice());
            saw_global = true;
        };
        c.train_local(&global, 1, Some(&mut hook));
        assert!(saw_global);
    }

    #[test]
    fn fleet_starts_from_identical_models() {
        let data = SyntheticSpec::mnist_like(8, 200).generate(2);
        let shards = Partitioner::Iid.split(&data, 4, 0);
        let fleet = FlClient::fleet(&spec(), shards, 0.05, 0.9, 16, 5);
        assert_eq!(fleet.len(), 4);
        let p0 = fleet[0].model().params_flat();
        for c in &fleet[1..] {
            assert_eq!(c.model().params_flat(), p0);
        }
    }

    #[test]
    fn training_improves_local_accuracy() {
        let mut c = client();
        let shard = SyntheticSpec::mnist_like(8, 60).generate(1);
        let (before, _) = c.evaluate(&shard);
        let global = c.model().params_flat();
        for _ in 0..10 {
            let out = c.train_local(&c.model().params_flat().clone(), 5, None);
            let _ = out;
        }
        let _ = global;
        let (after, _) = c.evaluate(&shard);
        assert!(
            after > before,
            "local training did not help: {before} → {after}"
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_shard_panics() {
        FlClient::new(0, spec().build(0), Dataset::empty(64), 0.05, 0.9, 16, 0);
    }

    fn mlp_client() -> FlClient {
        let shard = SyntheticSpec::mnist_like(8, 60).generate(1);
        let spec = ModelSpec::Mlp {
            in_features: 64,
            hidden: vec![16],
            classes: 10,
        };
        FlClient::new(0, spec.build(0), shard, 0.05, 0.9, 16, 3)
    }

    #[test]
    fn full_view_training_is_bitwise_train_local() {
        let mut a = mlp_client();
        let mut b = mlp_client();
        let global = a.model().params_flat();
        let view = adafl_nn::SubView::full(&b.model().segment_map());
        let out_a = a.train_local(&global, 3, None);
        let out_b = b.train_local_view(&view, &global, 3, None);
        assert_eq!(out_a, out_b, "full view must be the trivial case");
    }

    #[test]
    fn view_training_freezes_uncovered_coordinates() {
        let mut c = mlp_client();
        let map = c.model().segment_map();
        let view = adafl_nn::SubView::width(&map, 0.25, 0);
        assert!(!view.is_full());
        let before = c.model().params_flat();
        let values = view.extract(&before);
        let out = c.train_local_view(&view, &values, 3, None);
        assert_eq!(out.delta.len(), view.view_len());
        assert!(out.delta.iter().any(|&d| d != 0.0));
        let after = c.model().params_flat();
        let mut diff: Vec<f32> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let unmasked = diff.clone();
        view.zero_outside(&mut diff);
        assert_eq!(diff, unmasked, "all movement must be inside the view");
    }

    #[test]
    fn view_training_freezes_even_with_a_hook() {
        let mut c = mlp_client();
        let map = c.model().segment_map();
        let view = adafl_nn::SubView::layers(&map, 1);
        let before = c.model().params_flat();
        let values = view.extract(&before);
        // A hook that pushes every coordinate (FedProx-like anchored pull
        // plus a constant): must not thaw frozen layers.
        let mut hook = |grad: &mut [f32], params: &[f32], anchor: &[f32]| {
            for ((g, p), a) in grad.iter_mut().zip(params).zip(anchor) {
                *g += 0.1 * (p - a) + 0.05;
            }
        };
        c.train_local_view(&view, &values, 2, Some(&mut hook));
        let after = c.model().params_flat();
        let mut diff: Vec<f32> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let unmasked = diff.clone();
        view.zero_outside(&mut diff);
        assert_eq!(diff, unmasked, "hook terms must stay inside the view");
    }
}
