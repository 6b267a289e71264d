//! Baseline policy bundle: the pre-AdaFL protocol flavours expressed as
//! runtime policies — uniform random selection, static client-side
//! compression, and adapters plugging the existing
//! [`SyncStrategy`]/[`AsyncStrategy`] traits into the runtime's
//! aggregation axis.

use super::payload::{RoundUpdate, UpdatePayload};
use super::policy::{
    AggregationPolicy, AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx,
    CompressionPolicy, SelectionCtx, SelectionPolicy, SyncUploadCtx,
};
use crate::client::LocalOutcome;
use crate::r#async::AsyncStrategy;
use crate::sync::{ClientUpdate, CompressorState, StaticCompression, SyncStrategy};
use adafl_compression::dense_wire_size;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Uniform random-fraction selection: shuffle, keep
/// [`FlConfig::participants_per_round`](crate::FlConfig::participants_per_round)
/// (`r_p·N` to the nearest integer), sort.
#[derive(Debug)]
pub struct RandomSelection {
    rng: StdRng,
}

impl RandomSelection {
    /// Seeds the selection RNG (the builder uses `seed_for("selection")`).
    pub fn new(seed: u64) -> Self {
        RandomSelection {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SelectionPolicy for RandomSelection {
    fn select(&mut self, ctx: &mut SelectionCtx<'_>) -> Vec<usize> {
        let k = ctx.config.participants_per_round();
        let mut ids: Vec<usize> = (0..ctx.config.clients).collect();
        ids.shuffle(&mut self.rng);
        ids.truncate(k);
        ids.sort_unstable();
        ids
    }

    fn reads_replicas(&self) -> bool {
        false
    }
}

/// Static client-side compression (identity, top-k, QSGD, TernGrad): the
/// fixed model-level techniques from the paper's related work. State does
/// not advance for dropped updates.
#[derive(Debug)]
pub struct StaticCompressionPolicy {
    scheme: StaticCompression,
    base_seed: u64,
    states: Vec<CompressorState>,
}

impl StaticCompressionPolicy {
    /// Defers state construction to [`CompressionPolicy::init`]; each
    /// client's compressor is seeded `base_seed ^ client` (the builder
    /// passes `seed_for("compression")`).
    pub fn new(scheme: StaticCompression, base_seed: u64) -> Self {
        StaticCompressionPolicy {
            scheme,
            base_seed,
            states: Vec::new(),
        }
    }
}

impl CompressionPolicy for StaticCompressionPolicy {
    fn init(&mut self, dim: usize, clients: usize) {
        self.states = (0..clients)
            .map(|c| CompressorState::new(self.scheme, dim, self.base_seed ^ c as u64))
            .collect();
    }

    fn prepare(&mut self, ctx: &SyncUploadCtx<'_>, delta: &[f32]) -> Option<UpdatePayload> {
        if !ctx.delivered {
            // Static schemes never touch compressor state for a dropped
            // update (error feedback accumulates only on real sends).
            return None;
        }
        let payload = self.states[ctx.client].compress(delta);
        if ctx.tracing {
            adafl_compression::record_compression(
                ctx.recorder,
                self.scheme.label(),
                ctx.dense_bytes,
                payload.encoded_len(),
            );
        }
        Some(payload)
    }
}

/// Adapts a [`SyncStrategy`] (FedAvg/FedAdam/FedProx/SCAFFOLD) to the
/// runtime's aggregation axis. A strategy whose gradient hook edits
/// anything (FedProx, SCAFFOLD) trains with it installed.
#[derive(Debug)]
pub struct StrategyAggregation {
    strategy: Box<dyn SyncStrategy>,
}

impl StrategyAggregation {
    /// Wraps the boxed strategy.
    pub fn new(strategy: Box<dyn SyncStrategy>) -> Self {
        StrategyAggregation { strategy }
    }
}

impl AggregationPolicy for StrategyAggregation {
    fn label(&self) -> &str {
        self.strategy.name()
    }

    fn init(&mut self, dim: usize, clients: usize) {
        self.strategy.init(dim, clients);
    }

    fn uses_gradient_hook(&self) -> bool {
        self.strategy.uses_gradient_hook()
    }

    fn gradient_hook(&self, client: usize, grad: &mut [f32], params: &[f32], global: &[f32]) {
        self.strategy.gradient_hook(client, grad, params, global);
    }

    fn after_local_round(&mut self, client: usize, delta: &[f32], steps: usize, lr: f32) {
        self.strategy.after_local_round(client, delta, steps, lr);
    }

    fn aggregate(
        &mut self,
        global: &mut [f32],
        _global_gradient: &mut Vec<f32>,
        updates: Vec<RoundUpdate>,
    ) {
        let updates: Vec<ClientUpdate> = updates
            .into_iter()
            .map(|u| ClientUpdate {
                client: u.client,
                delta: u.payload.into_dense(),
                weight: u.weight,
            })
            .collect();
        self.strategy.aggregate(global, &updates);
    }

    fn supports_streaming(&self) -> bool {
        // A weighted-mean aggregate is exactly what the default
        // fold/finish compute; the stateful strategies (FedAdam's server
        // optimiser, SCAFFOLD's control variates) need the buffered path.
        self.strategy.is_weighted_mean()
    }
}

/// Adapts an [`AsyncStrategy`] (FedAsync/FedBuff) to the runtime's async
/// policy axis: dense downloads, dense uploads, no utility gate.
#[derive(Debug)]
pub struct StrategyAsyncPolicy {
    strategy: Box<dyn AsyncStrategy>,
}

impl StrategyAsyncPolicy {
    /// Wraps the boxed strategy.
    pub fn new(strategy: Box<dyn AsyncStrategy>) -> Self {
        StrategyAsyncPolicy { strategy }
    }
}

impl AsyncPolicy for StrategyAsyncPolicy {
    fn label(&self) -> &str {
        self.strategy.name()
    }

    fn init(&mut self, dim: usize) {
        self.strategy.init(dim);
    }

    fn downlink_bytes(&mut self, ctx: &AsyncDownlinkCtx<'_>) -> usize {
        dense_wire_size(ctx.dense_len)
    }

    fn prepare_upload(
        &mut self,
        _ctx: &mut AsyncUploadCtx<'_>,
        outcome: LocalOutcome,
    ) -> Option<UpdatePayload> {
        Some(UpdatePayload::dense(outcome.delta))
    }

    fn apply(
        &mut self,
        ctx: &mut AsyncApplyCtx<'_>,
        payload: UpdatePayload,
        snapshot: &[f32],
        weight: f32,
        staleness: u64,
    ) -> bool {
        // This policy uploads dense deltas; any other form folds densified
        // (a dense payload moves out uncopied, the same bits).
        let delta = payload.into_dense();
        self.strategy
            .on_update(ctx.global, &delta, snapshot, weight, staleness)
    }
}
