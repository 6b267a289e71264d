//! Federated clients, and the evaluator that scores a model on a dataset.
//!
//! A simulated client is split in two. A [`Device`] is what the client
//! *is*: its id, its private shard, the batch loader whose RNG stream is
//! its data order, its hyperparameters and — where something reads it —
//! its parameter **replica**, the local model as its last local round (or
//! a crash restore) left it. A [`Trainer`] is what a device *computes
//! with*: the [`Model`], the [`Sgd`] optimizer, the [`ModelWorkspace`] and
//! the batch, logit, gradient and parameter buffers — about 130 KB for a
//! 2 570-parameter logistic regression, most of a client's footprint.
//!
//! A runtime keeps one device per simulated client (or one per cohort
//! slot, pooled) and one trainer per pool thread ([`Trainers`]); each
//! per-device job borrows a warm trainer for as long as it runs. Two
//! rules make that invisible in the results:
//!
//! * **The replica rule.** Training reads the replica only where a
//!   device's own state matters — the uncovered coordinates of a sub-view
//!   round and the utility probe, which measures the device's current,
//!   possibly stale, state — and writes the final local parameters back
//!   once per local round. A device with no replica holds the fleet's
//!   initial model: nothing it trains persists. So only a resident fleet
//!   whose selection probes or that trains sub-views holds replicas
//!   ([`reads_replicas`](crate::runtime::SelectionPolicy::reads_replicas));
//!   pooled devices, the async loop's and a random-selection fleet's hold
//!   none (`robust_256_trimmed`: 8.8 MB less, peak RSS 28.1 → 19.8 MB,
//!   identical bits).
//! * **The trainer invariant.** A trainer carries nothing from one device
//!   to the next: parameters are set from the global model or the replica,
//!   the optimizer's velocity is reset, gradients are zeroed, and the
//!   workspaces are pure scratch. No [`ModelSpec`] contains a stateful
//!   layer — [`adafl_nn::layers::Dropout`] owns an RNG but is in none of
//!   them — so a device trains the same bits on any trainer.
//!
//! [`FlClient`] is a device with a trainer of its own, the standalone form
//! for examples, probes and tests.

use crate::pool::WorkerPool;
use adafl_data::loader::BatchLoader;
use adafl_data::Dataset;
use adafl_nn::loss::CrossEntropyLoss;
use adafl_nn::models::ModelSpec;
use adafl_nn::optim::{Optimizer, Sgd};
use adafl_nn::{Model, ModelWorkspace, SubView};
use adafl_tensor::{vecops, Tensor};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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

/// The loader seed of client `id`'s first round.
fn loader_seed(seed: u64, id: usize) -> u64 {
    seed ^ (id as u64).wrapping_mul(0x517C_C1B7)
}

/// A simulated client's own state: identity, shard, data order,
/// hyperparameters and, where something reads it, its parameter replica
/// (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    id: usize,
    data: Dataset,
    loader: BatchLoader,
    learning_rate: f32,
    momentum: f32,
    /// The local parameters between rounds, where something reads them.
    replica: Option<Vec<f32>>,
}

impl Device {
    /// Creates a device with no replica, as a fleet that reads none keeps
    /// them; see [`Device::with_replica`] for one that keeps a replica.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty, `batch_size` is zero or the
    /// hyperparameters are out of range (see [`Sgd::new`]).
    pub fn new(
        id: usize,
        data: Dataset,
        learning_rate: f32,
        momentum: f32,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(!data.is_empty(), "client dataset must not be empty");
        // Validates hyperparameters eagerly; an empty optimizer allocates
        // nothing.
        let _ = Sgd::new(learning_rate, momentum, 0.0);
        Device {
            id,
            data,
            loader: BatchLoader::new(batch_size, loader_seed(seed, id)),
            learning_rate,
            momentum,
            replica: None,
        }
    }

    /// Gives this device a replica, starting at `params`.
    pub fn with_replica(mut self, params: Vec<f32>) -> Self {
        self.replica = Some(params);
        self
    }

    /// Client identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local samples (`n_i`).
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The parameter replica; `None` for a device without one.
    pub fn replica(&self) -> Option<&[f32]> {
        self.replica.as_deref()
    }

    /// Overwrites the replica — the end of a local round, a crash
    /// restore, a client synchronised to the global model; a device
    /// without one keeps none.
    ///
    /// # Panics
    ///
    /// Panics when `params.len()` differs from the replica's length.
    pub fn restore(&mut self, params: &[f32]) {
        if let Some(replica) = &mut self.replica {
            replica.copy_from_slice(params);
        }
    }

    /// Rebinds this device to impersonate client `id` for one round:
    /// installs its shard and reseeds the batch loader from `(seed, id,
    /// round)` so the data order is a deterministic function of who is
    /// simulated and when — independent of which pool slot runs it. The
    /// loader keeps its buffer ([`BatchLoader::reseed`]); the replica, if
    /// any, is left as it is.
    ///
    /// This is the cohort-resident pool's workhorse: a fleet of a million
    /// clients needs only `cohort_size` live devices.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty.
    pub fn rebind(&mut self, id: usize, data: Dataset, seed: u64, round: u64) {
        assert!(!data.is_empty(), "client dataset must not be empty");
        self.id = id;
        self.data = data;
        self.loader.reseed(
            loader_seed(seed, id) ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.data.len(),
        );
    }
}

/// A device's compute: model, optimizer, workspace and flat buffers, with
/// no state of its own between calls (see the [module docs](self)).
#[derive(Debug)]
pub struct Trainer {
    model: Model,
    /// The parameters the trainer's model was built with — the fleet's
    /// initial model, which is what a device without a replica holds.
    initial: Vec<f32>,
    /// Persistent local optimizer; each local round installs the device's
    /// hyperparameters and resets it to zero velocity, so its semantics
    /// match a freshly built one while its buffer allocation is reused.
    optimizer: Sgd,
    /// Scratch arena reused by every forward/backward — after the first
    /// local step, training performs no heap allocation.
    ws: ModelWorkspace,
    batch_x: Tensor,
    batch_labels: Vec<usize>,
    logits: Tensor,
    dlogits: Tensor,
    /// Flat gradient of the last mini-batch (see `batch_gradient`).
    grads: Vec<f32>,
    /// Flat mirror of the model's parameters while a local round runs:
    /// what the hook reads, the optimizer steps and the delta is read from.
    params: Vec<f32>,
    /// The post-scatter parameters a hooked sub-view round anchors its
    /// hook to; copied only when a hook will read it.
    anchor: Vec<f32>,
}

impl Trainer {
    /// A trainer computing with `model`, whose current parameters become
    /// what a device without a replica holds — build it from the fleet's
    /// initial model.
    pub fn new(model: Model) -> Self {
        Trainer {
            initial: model.params_flat(),
            model,
            // Placeholder hyperparameters: every local round installs the
            // device's own.
            optimizer: Sgd::new(1.0, 0.0, 0.0),
            ws: ModelWorkspace::new(),
            batch_x: Tensor::default(),
            batch_labels: Vec::new(),
            logits: Tensor::default(),
            dlogits: Tensor::default(),
            grads: Vec::new(),
            params: Vec::new(),
            anchor: Vec::new(),
        }
    }

    /// Evaluates `params` on `data` with this trainer's model and
    /// workspace ([`Evaluator::evaluate_in`]): a server borrowing a warm
    /// trainer between local rounds, which install their own parameters.
    pub(crate) fn evaluate(
        &mut self,
        evaluator: &mut Evaluator,
        params: &[f32],
        data: &Dataset,
    ) -> (f32, f32) {
        self.model.set_params_flat(params);
        evaluator.evaluate_in(&mut self.model, &mut self.ws, data)
    }

    /// One mini-batch forward and backward at the model's current
    /// parameters on `device`'s next batch — the unit of device compute
    /// behind both local training and the utility probe. Returns the batch
    /// loss and leaves the flat gradient in `self.grads`. Nothing reads the
    /// gradient with respect to the batch itself, so the backward pass
    /// does not compute it.
    fn batch_gradient(&mut self, device: &mut Device) -> f32 {
        device
            .loader
            .next_batch_into(&device.data, &mut self.batch_x, &mut self.batch_labels);
        self.model.zero_grads();
        self.model
            .forward_into(&self.batch_x, &mut self.logits, true, &mut self.ws);
        let loss = CrossEntropyLoss.loss_and_grad_into(
            &self.logits,
            &self.batch_labels,
            &mut self.dlogits,
        );
        self.model.backward_into(&self.dlogits, None, &mut self.ws);
        self.model.grads_flat_into(&mut self.grads);
        loss
    }

    /// The one local-SGD loop: `steps` mini-batch steps on `device` from
    /// the model's current parameters, which `self.params` must mirror on
    /// entry and mirrors again on return, when they are also written back
    /// to the device's replica. Returns the round's outcome with the delta
    /// left for the caller to read back.
    ///
    /// `view` masks each gradient to the covered coordinates so frozen ones
    /// never move. `hook` is the per-step correction with the round anchor
    /// it receives as its "global" argument; under a view the gradient is
    /// masked again after it, because a hook term (e.g. FedProx's pull
    /// toward the anchor) must not thaw frozen coordinates.
    fn local_sgd(
        &mut self,
        device: &mut Device,
        steps: usize,
        view: Option<&SubView>,
        mut hook: Option<(GradientHook<'_>, &[f32])>,
    ) -> LocalOutcome {
        assert!(steps > 0, "local steps must be positive");
        // The device's hyperparameters at zero velocity: same semantics as
        // a fresh optimizer per round, minus the allocation.
        self.optimizer.set_learning_rate(device.learning_rate);
        self.optimizer.set_momentum(device.momentum);
        self.optimizer.reset();
        let mut total_loss = 0.0f32;
        for _ in 0..steps {
            total_loss += self.batch_gradient(device);
            if let Some(view) = view {
                view.zero_outside(&mut self.grads);
            }
            if let Some((hook, anchor)) = &mut hook {
                hook(&mut self.grads, &self.params, anchor);
                if let Some(view) = view {
                    view.zero_outside(&mut self.grads);
                }
            }
            self.optimizer.step(&mut self.params, &self.grads);
            self.model.set_params_flat(&self.params);
        }
        device.restore(&self.params);
        LocalOutcome {
            delta: Vec::new(),
            mean_loss: total_loss / steps as f32,
            num_samples: device.data.len(),
            steps,
        }
    }

    /// Runs `steps` of local mini-batch SGD on `device` starting from
    /// `global`, returning the resulting delta.
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
        device: &mut Device,
        global: &[f32],
        steps: usize,
        hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        self.model.set_params_flat(global);
        global.clone_into(&mut self.params);
        let round = self.local_sgd(device, steps, None, hook.map(|h| (h, global)));
        let delta = self.params.iter().zip(global).map(|(l, g)| l - g).collect();
        LocalOutcome { delta, ..round }
    }

    /// Runs `steps` of local mini-batch SGD on `device` over a parameter
    /// *sub-view*: the heterogeneous-capacity path where the server ships
    /// only the covered coordinates.
    ///
    /// `view_values` are the covered coordinates of the global model
    /// (`view.extract(global)` server-side). They are scattered into the
    /// device's parameters; *uncovered coordinates keep the device's stale
    /// values* — its replica, or the initial model for a device without
    /// one — because the server did not transmit them, and the byte ledger
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
        device: &mut Device,
        view: &SubView,
        view_values: &[f32],
        steps: usize,
        hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        assert_eq!(
            view.dense_len(),
            self.model.param_count(),
            "view dimension mismatch"
        );
        // Install the transmitted slice over the device's stale state.
        let stale = device.replica.as_deref().unwrap_or(&self.initial);
        stale.clone_into(&mut self.params);
        view.scatter(view_values, &mut self.params);
        self.model.set_params_flat(&self.params);
        // The round anchor is the parameters right after synchronisation,
        // like full-width rounds; taken out of `self` for the loop to
        // borrow.
        let mut anchor = std::mem::take(&mut self.anchor);
        if hook.is_some() {
            anchor.clone_from(&self.params);
        }
        let round = self.local_sgd(device, steps, Some(view), hook.map(|h| (h, &anchor[..])));
        self.anchor = anchor;
        let mut delta = view.extract(&self.params);
        for (d, v) in delta.iter_mut().zip(view_values) {
            *d -= v;
        }
        LocalOutcome { delta, ..round }
    }

    /// Computes a one-mini-batch gradient estimate at `device`'s *current*
    /// parameters without updating them, and lets `f` borrow it from the
    /// trainer's gradient scratch.
    ///
    /// This is the cheap probe AdaFL's utility score is built on: the
    /// device interrupts training, measures its local gradient direction,
    /// and reports a similarity score — no model transfer involved.
    pub fn probe_gradient_with<R>(
        &mut self,
        device: &mut Device,
        f: impl FnOnce(&[f32]) -> R,
    ) -> R {
        let stale = device.replica.as_deref().unwrap_or(&self.initial);
        self.model.set_params_flat(stale);
        let _ = self.batch_gradient(device);
        self.model.zero_grads();
        f(&self.grads)
    }
}

/// The warm trainers a runtime hands its per-device jobs: at most one per
/// pool thread, built on first use from the fleet's initial model.
///
/// [`Trainers::run`] keeps one job per device, so the pool's claim loop
/// still balances a noisy host, and each job borrows a trainer from a LIFO
/// free list ([`Lease::with`]) and gives it back when done: a thread that
/// finishes one device picks its own trainer up again, still warm in its
/// cache.
#[derive(Debug)]
pub struct Trainers {
    spec: ModelSpec,
    seed: u64,
    idle: Vec<Trainer>,
}

impl Trainers {
    /// No trainers yet; each is built from `spec.build(seed)` — the
    /// fleet's initial model — when a job first finds none free.
    pub fn new(spec: ModelSpec, seed: u64) -> Self {
        Trainers {
            spec,
            seed,
            idle: Vec::new(),
        }
    }

    /// Lends the idle trainers to the jobs `body` runs, and takes every
    /// trainer back when it returns.
    pub fn lend<R>(&mut self, body: impl FnOnce(&Lease<'_>) -> R) -> R {
        let lease = Lease {
            free: Mutex::new(std::mem::take(&mut self.idle)),
            spec: &self.spec,
            seed: self.seed,
        };
        let out = body(&lease);
        self.idle = lease
            .free
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        out
    }

    /// Runs `work(trainer, item)` once per item across `pool`, one job per
    /// item, and returns the results in item order:
    /// [`Trainers::run_drain`] collecting into a `Vec`.
    pub fn run<I: Send, R: Send>(
        &mut self,
        pool: &WorkerPool,
        items: Vec<I>,
        work: impl Fn(&mut Trainer, I) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::with_capacity(items.len());
        self.run_drain(pool, items, work, |result| out.push(result));
        out
    }

    /// Runs `work(trainer, item)` once per item across `pool`, one job per
    /// item, and hands each result to `drain` on the caller in item order
    /// as soon as it is ready ([`WorkerPool::scope_drain`]), while the
    /// pool still trains later items. Which trainer a job gets is
    /// scheduling, and invisible in the results (the trainer invariant in
    /// the [module docs](self)).
    pub fn run_drain<I: Send, R: Send>(
        &mut self,
        pool: &WorkerPool,
        items: Vec<I>,
        work: impl Fn(&mut Trainer, I) -> R + Sync,
        drain: impl FnMut(R),
    ) {
        self.lend(|lease| {
            let work = &work;
            let jobs: Vec<Box<dyn FnOnce() -> R + Send + '_>> = items
                .into_iter()
                .map(|item| Box::new(move || lease.with(|trainer| work(trainer, item))) as Box<_>)
                .collect();
            pool.scope_drain(jobs, drain);
        });
    }
}

/// The trainers [`Trainers::lend`] hands out, shared by the jobs of one
/// scope.
#[derive(Debug)]
pub struct Lease<'a> {
    free: Mutex<Vec<Trainer>>,
    spec: &'a ModelSpec,
    seed: u64,
}

impl Lease<'_> {
    /// Runs `work` on a free trainer — the one given back last, or a new
    /// one when every trainer is busy — and gives it back. A scope runs at
    /// most as many jobs at once as its pool has threads, so no more
    /// trainers than that are ever built; which one a job gets is
    /// invisible in its results (the trainer invariant in the
    /// [module docs](self)).
    pub fn with<R>(&self, work: impl FnOnce(&mut Trainer) -> R) -> R {
        let lock = || self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let popped = lock().pop();
        let mut trainer = popped.unwrap_or_else(|| Trainer::new(self.spec.build(self.seed)));
        let out = work(&mut trainer);
        lock().push(trainer);
        out
    }
}

/// A standalone federated client: a [`Device`] with a replica and a
/// [`Trainer`] of its own, whose model always holds the replica.
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
    device: Device,
    trainer: Trainer,
}

impl FlClient {
    /// Creates a client whose replica starts at `model`'s parameters.
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
        let device = Device::new(id, data, learning_rate, momentum, batch_size, seed)
            .with_replica(model.params_flat());
        FlClient {
            device,
            trainer: Trainer::new(model),
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
        self.device.id
    }

    /// The client's device: identity, shard, loader and replica.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Rebinds the client's device to impersonate client `id` for one
    /// round ([`Device::rebind`]); the replica stays.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty.
    pub fn rebind(&mut self, id: usize, data: Dataset, seed: u64, round: u64) {
        self.device.rebind(id, data, seed, round);
    }

    /// The local model, holding the replica.
    pub fn model(&self) -> &Model {
        &self.trainer.model
    }

    /// Number of local samples (`n_i`).
    pub fn num_samples(&self) -> usize {
        self.device.num_samples()
    }

    /// The client's local learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.device.learning_rate
    }

    /// The client's local SGD momentum.
    pub fn momentum(&self) -> f32 {
        self.device.momentum
    }

    /// Installs global parameters, synchronising the replica.
    ///
    /// # Panics
    ///
    /// Panics when `global.len()` differs from the model's parameter count.
    pub fn sync_to_global(&mut self, global: &[f32]) {
        self.trainer.model.set_params_flat(global);
        self.device.restore(global);
    }

    /// [`Trainer::train_local`] on the client's own trainer.
    ///
    /// # Panics
    ///
    /// Panics when `global.len()` differs from the model's parameter count
    /// or `steps` is zero.
    pub fn train_local(
        &mut self,
        global: &[f32],
        steps: usize,
        hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        self.trainer
            .train_local(&mut self.device, global, steps, hook)
    }

    /// [`Trainer::train_local_view`] on the client's own trainer:
    /// uncovered coordinates keep the replica's stale values.
    ///
    /// # Panics
    ///
    /// Panics when `view` does not match the model's parameter count,
    /// `view_values.len()` differs from `view.view_len()`, or `steps` is
    /// zero.
    pub fn train_local_view(
        &mut self,
        view: &SubView,
        view_values: &[f32],
        steps: usize,
        hook: Option<GradientHook<'_>>,
    ) -> LocalOutcome {
        self.trainer
            .train_local_view(&mut self.device, view, view_values, steps, hook)
    }

    /// Evaluates the local replica on a dataset, returning `(accuracy,
    /// mean_loss)`.
    pub fn evaluate(&mut self, data: &Dataset) -> (f32, f32) {
        evaluate_model(&mut self.trainer.model, data)
    }

    /// Computes a one-mini-batch gradient estimate at the replica's
    /// *current* parameters without updating them
    /// ([`Trainer::probe_gradient_with`]).
    pub fn probe_gradient(&mut self) -> Vec<f32> {
        self.probe_gradient_with(<[f32]>::to_vec)
    }

    /// [`FlClient::probe_gradient`] without the full-width copy: the flat
    /// gradient lands in the client's gradient scratch and `f` borrows it —
    /// the form for callers that reduce the probe to a score on the spot.
    pub fn probe_gradient_with<R>(&mut self, f: impl FnOnce(&[f32]) -> R) -> R {
        self.trainer.probe_gradient_with(&mut self.device, f)
    }
}

/// Rows per forward pass of an evaluation shard. Also the unit shards are
/// cut in, and what bounds a replica's batch-sized activation and im2col
/// caches.
const EVAL_BLOCK: usize = 32;

/// Rows per loss chunk: the reported loss is the mean of per-chunk mean
/// losses (see [`evaluate_model`]), so this is part of every pinned history.
const EVAL_CHUNK: usize = 256;

/// One evaluation shard's reusable buffers.
#[derive(Debug, Default)]
struct ShardScratch {
    ws: ModelWorkspace,
    x: Tensor,
    logits: Tensor,
}

impl ShardScratch {
    /// Forwards `rows` of `data` through `model` one [`EVAL_BLOCK`] at a
    /// time, in `ws` or else the shard's own workspace, writing their
    /// logits to `out` in row order.
    fn forward_rows(
        &mut self,
        model: &mut Model,
        ws: Option<&mut ModelWorkspace>,
        data: &Dataset,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let ws = ws.unwrap_or(&mut self.ws);
        let (dim, classes) = (data.dim(), model.out_features());
        for start in rows.clone().step_by(EVAL_BLOCK) {
            let end = (start + EVAL_BLOCK).min(rows.end);
            self.x.resize_reuse(&[end - start, dim]);
            for (i, row) in (start..end).zip(self.x.as_mut_slice().chunks_mut(dim)) {
                row.copy_from_slice(data.features(i));
            }
            model.forward_into(&self.x, &mut self.logits, false, ws);
            out[(start - rows.start) * classes..(end - rows.start) * classes]
                .copy_from_slice(self.logits.as_slice());
        }
    }
}

/// The one evaluation implementation: forward passes sharded over
/// contiguous row ranges, one model replica per shard, then a serial
/// reduction over the gathered logits.
///
/// An inference forward pass is row-independent — convolution and pooling
/// run per sample, and the matmul kernels pick their path from `(k, n)`
/// alone and accumulate every output element in a fixed `k` order — so the
/// logits of rows `[a, b)` computed as a sub-batch equal, bit for bit, those
/// rows of any larger batch (`crates/nn/tests/properties.rs` pins this).
/// Shard and block boundaries are therefore invisible in the logits, and
/// the reduction — argmax and cross-entropy per [`EVAL_CHUNK`] rows, losses
/// added in chunk order on the caller — is the same float sequence at any
/// pool width.
#[derive(Debug, Default)]
pub(crate) struct Evaluator {
    /// Shard `s ≥ 1` runs on `replicas[s - 1]`; shard 0 runs on the
    /// caller's model.
    replicas: Vec<Model>,
    scratch: Vec<ShardScratch>,
    params: Vec<f32>,
    /// Gathered logits, `[data.len(), classes]` row-major.
    logits: Vec<f32>,
    chunk: Tensor,
}

impl Evaluator {
    /// Evaluates `model` on `data`, returning `(accuracy, mean_loss)` as
    /// [`evaluate_model`] defines them.
    ///
    /// `fan_out` names the pool to shard the forward pass across and the
    /// spec `model` was built from; `min(workers, ⌈len ÷ EVAL_BLOCK⌉)`
    /// shards run, the extra ones on replicas built from the spec on first
    /// use and synchronised to `model`'s parameters on every call. `None`
    /// is one shard, inline on the caller.
    pub fn evaluate(
        &mut self,
        model: &mut Model,
        data: &Dataset,
        fan_out: Option<(&WorkerPool, &ModelSpec)>,
    ) -> (f32, f32) {
        self.evaluate_with(model, None, data, fan_out)
    }

    /// [`Evaluator::evaluate`] in one shard, inline, whose forward pass
    /// runs in `ws` rather than the evaluator's own workspace: a warm
    /// trainer's, which an [`EVAL_BLOCK`] fits when its batch does.
    pub fn evaluate_in(
        &mut self,
        model: &mut Model,
        ws: &mut ModelWorkspace,
        data: &Dataset,
    ) -> (f32, f32) {
        self.evaluate_with(model, Some(ws), data, None)
    }

    /// [`Evaluator::evaluate`], shard 0 forwarding in `ws` when given.
    fn evaluate_with(
        &mut self,
        model: &mut Model,
        mut ws: Option<&mut ModelWorkspace>,
        data: &Dataset,
        fan_out: Option<(&WorkerPool, &ModelSpec)>,
    ) -> (f32, f32) {
        if data.is_empty() {
            return (0.0, 0.0);
        }
        let classes = model.out_features();
        let blocks = data.len().div_ceil(EVAL_BLOCK);
        let shards = fan_out
            .map_or(1, |(pool, _)| pool.workers().max(1))
            .min(blocks);
        if self.scratch.len() < shards {
            self.scratch.resize_with(shards, ShardScratch::default);
        }
        if let Some((_, spec)) = fan_out {
            while self.replicas.len() + 1 < shards {
                self.replicas.push(spec.build(0));
            }
            if shards > 1 {
                model.params_flat_into(&mut self.params);
                for replica in &mut self.replicas[..shards - 1] {
                    replica.set_params_flat(&self.params);
                }
            }
        }
        self.logits.resize(data.len() * classes, 0.0);

        let models = std::iter::once(model).chain(&mut self.replicas);
        let mut rest = self.logits.as_mut_slice();
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(shards);
        for (s, (model, scratch)) in models.zip(&mut self.scratch).take(shards).enumerate() {
            // Whole blocks per shard, split as evenly as blocks allow.
            let rows = (s * blocks / shards * EVAL_BLOCK)
                ..((s + 1) * blocks / shards * EVAL_BLOCK).min(data.len());
            let (out, tail) = rest.split_at_mut(rows.len() * classes);
            rest = tail;
            let ws = ws.take();
            jobs.push(Box::new(move || {
                scratch.forward_rows(model, ws, data, rows, out)
            }));
        }
        match fan_out {
            Some((pool, _)) => {
                pool.scope_run(jobs);
            }
            None => jobs.into_iter().for_each(|job| job()),
        }

        let mut correct = 0usize;
        let mut loss_sum = 0.0f32;
        let mut chunks = 0usize;
        for (rows, labels) in self
            .logits
            .chunks(EVAL_CHUNK * classes)
            .zip(data.labels().chunks(EVAL_CHUNK))
        {
            self.chunk.resize_reuse(&[labels.len(), classes]);
            self.chunk.as_mut_slice().copy_from_slice(rows);
            correct += rows
                .chunks(classes)
                .zip(labels)
                .filter(|&(row, &label)| vecops::argmax(row) == label)
                .count();
            let (loss, _) = CrossEntropyLoss.loss_and_grad(&self.chunk, labels);
            loss_sum += loss;
            chunks += 1;
        }
        (correct as f32 / data.len() as f32, loss_sum / chunks as f32)
    }
}

/// Evaluates `model` on `data`, returning `(accuracy, mean_loss)`.
///
/// `mean_loss` is the **unweighted mean of per-chunk mean losses** over
/// consecutive 256-row chunks, not the mean over samples: a short last
/// chunk weighs as much as a full one, so 400 samples (256 + 144) report
/// `(L₀ + L₁) / 2` where the sample mean would be `(256·L₀ + 144·L₁) / 400`.
/// Every fingerprint and golden history pins this definition; changing it
/// to the sample mean is a deliberate re-pin (ROADMAP, determinism item),
/// not a fix to slip in.
///
/// This is the one-shard, inline call of the evaluator every runtime uses;
/// the forward pass runs in 32-row blocks so no batch-sized activation
/// tensor is ever allocated.
pub fn evaluate_model(model: &mut Model, data: &Dataset) -> (f32, f32) {
    Evaluator::default().evaluate(model, data, None)
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

    /// The evaluation loop as it stood before the sharded evaluator,
    /// verbatim: one allocating full-chunk forward per 256 rows. Kept as
    /// the reference [`Evaluator`] must reproduce bit for bit.
    fn oracle_evaluate_model(model: &mut Model, data: &Dataset) -> (f32, f32) {
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
            let classes = model.out_features();
            correct += logits
                .as_slice()
                .chunks(classes)
                .zip(&labels)
                .filter(|&(row, &label)| vecops::argmax(row) == label)
                .count();
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

    fn eval_specs() -> [ModelSpec; 3] {
        [
            ModelSpec::LogisticRegression {
                in_features: 256,
                classes: 10,
            },
            ModelSpec::Mlp {
                in_features: 256,
                hidden: vec![32],
                classes: 10,
            },
            ModelSpec::MnistCnn {
                height: 16,
                width: 16,
                classes: 10,
            },
        ]
    }

    fn bits((accuracy, loss): (f32, f32)) -> (u32, u32) {
        (accuracy.to_bits(), loss.to_bits())
    }

    #[test]
    fn evaluator_matches_the_serial_oracle_at_every_size_and_pool_width() {
        // Either side of the 32-row block and the 256-row chunk, a set
        // smaller than any pool, and sets of several chunks.
        let sizes = [257, 1, 1000, 31, 63, 256, 32, 64, 400, 33, 65, 255];
        let pools: Vec<WorkerPool> = (1..=4).map(WorkerPool::new).collect();
        for spec in eval_specs() {
            let mut model = spec.build(3);
            // One evaluator per width, reused across sizes as a runtime
            // reuses its own across rounds.
            let mut evaluators: Vec<Evaluator> =
                pools.iter().map(|_| Evaluator::default()).collect();
            for (i, &n) in sizes.iter().enumerate() {
                // Move the parameters between calls: replicas must follow
                // the caller's model, not their own initialisation.
                let moved: Vec<f32> = model.params_flat().iter().map(|p| p * 1.01).collect();
                model.set_params_flat(&moved);
                let data = SyntheticSpec::mnist_like(16, n).generate(40 + i as u64);
                let expected = bits(oracle_evaluate_model(&mut model, &data));
                assert_eq!(
                    bits(evaluate_model(&mut model, &data)),
                    expected,
                    "{spec:?}, {n} samples, inline"
                );
                for (pool, evaluator) in pools.iter().zip(&mut evaluators) {
                    let got = evaluator.evaluate(&mut model, &data, Some((pool, &spec)));
                    assert_eq!(
                        bits(got),
                        expected,
                        "{spec:?}, {n} samples, {} workers",
                        pool.workers()
                    );
                }
            }
        }
    }

    #[test]
    fn loss_is_the_unweighted_mean_of_per_chunk_mean_losses() {
        // Pins the definition documented on `evaluate_model`: 400 samples
        // are a 256-row and a 144-row chunk, each weighing one half.
        let data = SyntheticSpec::mnist_like(16, 400).generate(9);
        let (head, tail) = data.split_at(256);
        let spec = &eval_specs()[1];
        let mut model = spec.build(3);
        let (_, l0) = evaluate_model(&mut model, &head);
        let (_, l1) = evaluate_model(&mut model, &tail);
        let (_, loss) = evaluate_model(&mut model, &data);
        assert_eq!(loss.to_bits(), ((l0 + l1) / 2.0).to_bits());
        let sample_mean = (256.0 * l0 + 144.0 * l1) / 400.0;
        assert!(
            (loss - sample_mean).abs() > 1e-4,
            "the short chunk must be over-weighted against the sample mean: {loss} vs {sample_mean}"
        );
        assert_eq!(evaluate_model(&mut model, &Dataset::empty(256)), (0.0, 0.0));
    }

    #[test]
    fn borrowed_probe_is_the_owned_probe() {
        let (mut a, mut b) = (client(), client());
        let owned = a.probe_gradient();
        assert!(owned.iter().any(|&g| g != 0.0));
        b.probe_gradient_with(|grad| assert_eq!(grad, owned.as_slice()));
        // Probing leaves no gradient behind and advances the loader alike.
        assert_eq!(a.probe_gradient(), b.probe_gradient());
        assert!(a.model().grads_flat().iter().all(|&g| g == 0.0));
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
        // A full view is the trivial case, and a hook that edits nothing is
        // no hook: all four ways into the one loop are one float sequence.
        let rows = ["hook-free", "no-op hook", "full view", "full view + hook"];
        let shard = SyntheticSpec::mnist_like(16, 60).generate(1);
        for spec in eval_specs() {
            let mut clients: Vec<FlClient> = rows
                .iter()
                .map(|_| FlClient::new(0, spec.build(0), shard.clone(), 0.05, 0.9, 16, 3))
                .collect();
            let view = SubView::full(&clients[0].model().segment_map());
            let mut global = clients[0].model().params_flat();
            for round in 0..3 {
                let mut outs = Vec::new();
                for (row, client) in clients.iter_mut().enumerate() {
                    let mut noop = |_: &mut [f32], _: &[f32], _: &[f32]| {};
                    let hook: Option<GradientHook<'_>> =
                        if row % 2 == 1 { Some(&mut noop) } else { None };
                    outs.push(if row < 2 {
                        client.train_local(&global, 5, hook)
                    } else {
                        client.train_local_view(&view, &global, 5, hook)
                    });
                }
                let bits = |o: &LocalOutcome| {
                    let delta: Vec<u32> = o.delta.iter().map(|d| d.to_bits()).collect();
                    (delta, o.mean_loss.to_bits())
                };
                for (name, out) in rows.iter().zip(&outs).skip(1) {
                    assert_eq!(bits(out), bits(&outs[0]), "{spec:?}, round {round}, {name}");
                }
                for (g, d) in global.iter_mut().zip(&outs[0].delta) {
                    *g += d;
                }
            }
        }
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

    /// One small instance of every model family, with a shard of its input
    /// shape.
    fn every_spec() -> Vec<(ModelSpec, SyntheticSpec)> {
        let cifar = || SyntheticSpec::cifar10_like(8, 40);
        vec![
            (spec(), SyntheticSpec::mnist_like(8, 40)),
            (
                ModelSpec::Mlp {
                    in_features: 64,
                    hidden: vec![16],
                    classes: 10,
                },
                SyntheticSpec::mnist_like(8, 40),
            ),
            (
                ModelSpec::MnistCnn {
                    height: 16,
                    width: 16,
                    classes: 10,
                },
                SyntheticSpec::mnist_like(16, 40),
            ),
            (
                ModelSpec::ResNetLite {
                    channels: 3,
                    height: 8,
                    width: 8,
                    base_channels: 4,
                    blocks: 1,
                    classes: 10,
                },
                cifar(),
            ),
            (
                ModelSpec::VggLite {
                    channels: 3,
                    height: 8,
                    width: 8,
                    base_channels: 4,
                    classes: 10,
                },
                cifar(),
            ),
        ]
    }

    #[test]
    fn no_model_spec_holds_a_stateful_layer() {
        // The trainer invariant rests on this: dropout's RNG is the only
        // layer state that outlives a pass, and no spec builds one.
        for (spec, _) in every_spec() {
            let model = format!("{:?}", spec.build(0));
            assert!(!model.contains("Dropout"), "{spec:?} holds a dropout layer");
        }
    }

    #[test]
    fn a_trainer_carries_nothing_from_one_device_to_the_next() {
        let bits = |o: &LocalOutcome| {
            let delta: Vec<u32> = o.delta.iter().map(|d| d.to_bits()).collect();
            (delta, o.mean_loss.to_bits(), o.num_samples, o.steps)
        };
        for (spec, data) in every_spec() {
            let initial = spec.build(5).params_flat();
            let global: Vec<f32> = initial.iter().map(|p| p * 0.9 + 0.01).collect();
            // Both replicas are stale: neither the initial nor the global
            // model, nor each other.
            let stale: Vec<f32> = initial.iter().map(|p| p * 1.1 - 0.02).collect();
            let a_stale: Vec<f32> = initial.iter().map(|p| p * 0.8 + 0.03).collect();
            let device =
                |id: usize, seed: u64| Device::new(id, data.generate(seed), 0.05, 0.9, 16, 3);
            let a = device(0, 1).with_replica(a_stale);
            let b_pooled = device(1, 2);
            let b_resident = b_pooled.clone().with_replica(stale.clone());
            let map = spec.build(5).segment_map();
            let views = [None, Some(SubView::width(&map, 0.5, 1))];
            for view in &views {
                let mode = if view.is_some() { "sub-view" } else { "full" };
                let train = |trainer: &mut Trainer, device: &mut Device| match view {
                    Some(view) => {
                        trainer.train_local_view(device, view, &view.extract(&global), 3, None)
                    }
                    None => trainer.train_local(device, &global, 3, None),
                };
                for b in [&b_pooled, &b_resident] {
                    let mut warm = Trainer::new(spec.build(5));
                    train(&mut warm, &mut a.clone());
                    warm.probe_gradient_with(&mut a.clone(), |_| ());
                    let (mut b_warm, mut b_fresh) = (b.clone(), b.clone());
                    let got = train(&mut warm, &mut b_warm);
                    let expected = train(&mut Trainer::new(spec.build(5)), &mut b_fresh);
                    let what = format!("{spec:?}, {mode}, replica {}", b.replica().is_some());
                    assert_eq!(bits(&got), bits(&expected), "{what}");
                    assert_eq!(b_warm, b_fresh, "{what}");
                    let probe =
                        |t: &mut Trainer, d: &mut Device| t.probe_gradient_with(d, <[f32]>::to_vec);
                    assert_eq!(
                        probe(&mut warm, &mut b_warm),
                        probe(&mut Trainer::new(spec.build(5)), &mut b_fresh),
                        "{what}: probe"
                    );
                }
                // A resident device ends where a standalone client does.
                let mut client =
                    FlClient::new(1, spec.build(5), data.generate(2), 0.05, 0.9, 16, 3);
                client.sync_to_global(&stale);
                let expected = match view {
                    Some(view) => client.train_local_view(view, &view.extract(&global), 3, None),
                    None => client.train_local(&global, 3, None),
                };
                let mut b = b_resident.clone();
                let mut warm = Trainer::new(spec.build(5));
                train(&mut warm, &mut a.clone());
                assert_eq!(
                    bits(&train(&mut warm, &mut b)),
                    bits(&expected),
                    "{spec:?}, {mode}"
                );
                assert_eq!(&b, client.device(), "{spec:?}, {mode}");
                assert_eq!(b.replica(), Some(&client.model().params_flat()[..]));
            }
        }
    }

    #[test]
    fn trainers_hand_out_the_same_bits_at_every_pool_width() {
        let data = SyntheticSpec::mnist_like(8, 40);
        let initial = spec().build(5).params_flat();
        let fleet: Vec<Device> = (0..7)
            .map(|c| {
                Device::new(c, data.generate(c as u64), 0.05, 0.9, 16, 3)
                    .with_replica(initial.clone())
            })
            .collect();
        let run = |pool: &WorkerPool| {
            let mut devices = fleet.clone();
            let mut trainers = Trainers::new(spec(), 5);
            let mut outs = Vec::new();
            for _ in 0..2 {
                let items = devices.iter_mut().collect();
                outs.extend(trainers.run(pool, items, |t, d| t.train_local(d, &initial, 2, None)));
                let items = devices.iter_mut().collect();
                outs.extend(trainers.run(pool, items, |t, d| LocalOutcome {
                    delta: t.probe_gradient_with(d, <[f32]>::to_vec),
                    ..LocalOutcome::default()
                }));
            }
            assert!(trainers.idle.len() <= pool.workers().max(1));
            (outs, devices)
        };
        let inline = run(&WorkerPool::new(1));
        for threads in 2..=4 {
            assert_eq!(run(&WorkerPool::new(threads)), inline, "{threads} workers");
        }
    }
}
