//! The three policy axes that specialise the shared round runtime.
//!
//! A protocol flavour is a bundle of:
//!
//! * a [`SelectionPolicy`] — who participates in a synchronous round
//!   (random fraction for the baselines, Algorithm 1 utility/top-K for
//!   AdaFL, including any control-plane traffic the decision costs);
//! * a [`CompressionPolicy`] — the wire form of each synchronous uplink
//!   (static schemes vs utility-adaptive DGC);
//! * an [`AggregationPolicy`] (sync) or [`AsyncPolicy`] (async) — how
//!   updates fold into the global model, adapting the existing
//!   [`SyncStrategy`](crate::sync::SyncStrategy) /
//!   [`AsyncStrategy`](crate::r#async::AsyncStrategy) traits.
//!
//! Policies receive narrow context structs borrowing exactly the server
//! state they may touch. Everything cross-cutting stays in the runtime and
//! runs identically for every flavour: transport, fault injection, the
//! ledger, telemetry and history recording in the shared server core, the
//! defensive gate, robust pre-aggregation and capacity tiers in its stage
//! chain, scheduling and checkpoints in the two drivers.

use super::io::RoundIo;
use super::payload::{RoundUpdate, UpdatePayload};
use crate::client::{Device, LocalOutcome, Trainers};
use crate::config::FlConfig;
use crate::pool::WorkerPool;
use adafl_netsim::{FleetNetwork, SimTime};
use adafl_telemetry::{SharedRecorder, SpanRecord};
use std::fmt;

/// Context handed to [`SelectionPolicy::select`] at the top of each
/// synchronous round.
#[derive(Debug)]
pub struct SelectionCtx<'a> {
    /// Round index.
    pub round: usize,
    /// Simulated time at the start of the round.
    pub clock: SimTime,
    /// Protocol configuration.
    pub config: &'a FlConfig,
    /// The resident devices, in client order — mutable so utility
    /// policies can run probe gradients; empty for a pooled fleet.
    pub devices: &'a mut [Device],
    /// The runtime's warm trainers: a probe runs on one of them through
    /// [`Trainers::run`], the same hand-out that trains the cohort.
    pub trainers: &'a mut Trainers,
    /// Communication plane, for control-plane charges and link probes.
    pub io: &'a mut RoundIo,
    /// Current global parameters.
    pub global: &'a [f32],
    /// Previous round's aggregated global delta (`ĝ`); all zeros until an
    /// aggregation policy writes it.
    pub global_gradient: &'a [f32],
    /// Telemetry sink (strictly passive).
    pub recorder: &'a SharedRecorder,
    /// The runtime's worker pool, for per-client work that is independent
    /// across clients (utility probes). Results come back in submission
    /// order; anything order-pinned — ledger charges, telemetry — stays on
    /// the caller, in client order.
    pub pool: &'a WorkerPool,
}

/// Chooses the participants of a synchronous round.
pub trait SelectionPolicy: fmt::Debug + Send {
    /// Returns the selected client ids, charging any control-plane
    /// traffic the decision costs. Crash filtering happens afterwards in
    /// the runtime, so selection RNG state is consumed identically with
    /// or without crash faults.
    fn select(&mut self, ctx: &mut SelectionCtx<'_>) -> Vec<usize>;

    /// Whether `select` may read a device's parameter replica (a utility
    /// probe does). A resident fleet whose policy reads none, and that
    /// trains no sub-views, is built without replicas. `true` by default,
    /// so a policy that does not say keeps them.
    fn reads_replicas(&self) -> bool {
        true
    }

    /// Lets the policy append fields to the round span (AdaFL tags the
    /// warm-up flag). Identity by default.
    fn annotate_round_span(&self, _round: usize, span: SpanRecord) -> SpanRecord {
        span
    }
}

/// Context handed to [`CompressionPolicy::prepare`] for one trained
/// client, in cohort order.
#[derive(Debug)]
pub struct SyncUploadCtx<'a> {
    /// Round index.
    pub round: usize,
    /// Sender.
    pub client: usize,
    /// The client's rank in this round's cohort (selection order).
    pub rank: usize,
    /// Cohort size.
    pub cohort: usize,
    /// Wire size of the dense model, for compression-ratio telemetry.
    pub dense_bytes: usize,
    /// Whether the fault plan delivers this client's update this round.
    /// The policy chooses whether compressor state advances for dropped
    /// updates (DGC's momentum does; the static schemes skip).
    pub delivered: bool,
    /// Whether a recorder is attached.
    pub tracing: bool,
    /// Telemetry sink (strictly passive).
    pub recorder: &'a SharedRecorder,
}

/// Produces the wire form of one synchronous uplink.
pub trait CompressionPolicy: fmt::Debug + Send {
    /// Called once with the model dimension before the first round (and
    /// again if the policy is swapped in later); per-client compressor
    /// state is sized here.
    fn init(&mut self, _dim: usize, _clients: usize) {}

    /// Compresses `delta` into its wire form, or returns `None` when the
    /// update is dropped (`ctx.delivered == false`); the runtime then
    /// emits the dropout telemetry. Policies emit their own compression
    /// telemetry so its ordering relative to the drop decision is theirs.
    /// The runtime charges the ledger with the payload's `encoded_len()`.
    fn prepare(&mut self, ctx: &SyncUploadCtx<'_>, delta: &[f32]) -> Option<UpdatePayload>;
}

/// Partial aggregation state for the streaming fold path: a running
/// weighted sum of update payloads plus its total weight.
///
/// One accumulator is O(model) regardless of how many updates folded into
/// it — the whole point of the streaming path. Accumulators produced by
/// different edge aggregators merge with [`StreamAccumulator::merge`] in
/// ascending edge order (the deterministic-merge rule pinned by the
/// streaming-vs-buffered parity test).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAccumulator {
    /// Running weighted sum `Σ wᵢ·vᵢ` over the folded payloads.
    pub sum: Vec<f32>,
    /// Running weight total `Σ wᵢ`.
    pub total_weight: f32,
    /// Number of updates folded so far.
    pub count: usize,
}

impl StreamAccumulator {
    /// An empty accumulator for a `dim`-parameter model.
    pub fn new(dim: usize) -> Self {
        StreamAccumulator {
            sum: vec![0.0; dim],
            total_weight: 0.0,
            count: 0,
        }
    }

    /// Folds another partial accumulator into this one (element-wise sum;
    /// weights and counts add). Callers merge partials in ascending edge
    /// order so the result is independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics when the accumulators' dimensions differ.
    pub fn merge(&mut self, other: &StreamAccumulator) {
        assert_eq!(self.sum.len(), other.sum.len(), "accumulator dim mismatch");
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        self.total_weight += other.total_weight;
        self.count += other.count;
    }

    /// Resets to the empty state without releasing the sum buffer, so one
    /// allocation serves every round.
    pub fn reset(&mut self) {
        self.sum.fill(0.0);
        self.total_weight = 0.0;
        self.count = 0;
    }
}

/// Folds delivered synchronous updates into the global model, adapting
/// [`SyncStrategy`](crate::sync::SyncStrategy) or implementing a custom
/// rule (AdaFL's sample-weighted sparse mean).
pub trait AggregationPolicy: fmt::Debug + Send + Sync {
    /// Run label for the history.
    fn label(&self) -> &str;

    /// Called once before the first round.
    fn init(&mut self, _dim: usize, _clients: usize) {}

    /// Whether local training installs the per-step gradient hook. A hook
    /// that edits nothing trains bit for bit like no hook
    /// (`full_view_training_is_bitwise_train_local`), so `false` skips one
    /// virtual [`AggregationPolicy::gradient_hook`] call per step — and,
    /// because training jobs then never read the policy, lets the runtime
    /// drain each finished update into it while the rest of the cohort
    /// still trains.
    fn uses_gradient_hook(&self) -> bool {
        false
    }

    /// Per-step gradient correction (only called when
    /// [`AggregationPolicy::uses_gradient_hook`] is true).
    fn gradient_hook(&self, _client: usize, _grad: &mut [f32], _params: &[f32], _global: &[f32]) {}

    /// Post-training callback with the client's delta and effective
    /// per-step learning rate.
    fn after_local_round(&mut self, _client: usize, _delta: &[f32], _steps: usize, _lr: f32) {}

    /// Folds the screened updates into `global`; policies that maintain
    /// the global-gradient digest (`ĝ`) write it through `global_gradient`.
    fn aggregate(
        &mut self,
        global: &mut [f32],
        global_gradient: &mut Vec<f32>,
        updates: Vec<RoundUpdate>,
    );

    /// Whether this policy's round result can be produced by the
    /// incremental [`AggregationPolicy::fold`]/[`AggregationPolicy::finish`]
    /// contract instead of [`AggregationPolicy::aggregate`] over the whole
    /// buffered cohort. `false` by default: only policies whose aggregate
    /// is a weighted mean (FedAvg, AdaFL) opt in, and the runtime then
    /// keeps O(model) instead of O(clients × model) round state.
    fn supports_streaming(&self) -> bool {
        false
    }

    /// Folds one delivered update into a partial accumulator as it
    /// arrives. The default accumulates the *unscaled* weighted sum
    /// (`sum += w·v`, `total_weight += w`); normalisation is deferred to
    /// [`AggregationPolicy::finish`] because the total weight is unknown
    /// mid-round. Only called when
    /// [`AggregationPolicy::supports_streaming`] is `true`.
    fn fold(&mut self, acc: &mut StreamAccumulator, update: &RoundUpdate) {
        update.payload.add_scaled_into(&mut acc.sum, update.weight);
        acc.total_weight += update.weight;
        acc.count += 1;
    }

    /// Applies the merged accumulator to the global model at the end of a
    /// streaming round: scale the sum by `1/total_weight` and add the mean
    /// to `global`. Policies that maintain `ĝ` (AdaFL) override this to
    /// also write `global_gradient`. Only called when the accumulator is
    /// non-empty.
    fn finish(
        &mut self,
        global: &mut [f32],
        _global_gradient: &mut Vec<f32>,
        acc: &StreamAccumulator,
    ) {
        debug_assert!(acc.count > 0, "finish requires a non-empty accumulator");
        let inv = 1.0 / acc.total_weight;
        for (g, s) in global.iter_mut().zip(&acc.sum) {
            *g += s * inv;
        }
    }
}

/// Context handed to [`AsyncPolicy::downlink_bytes`].
#[derive(Debug)]
pub struct AsyncDownlinkCtx<'a> {
    /// Model dimension.
    pub dense_len: usize,
    /// Current `ĝ` (drives AdaFL's digest sizing).
    pub global_gradient: &'a [f32],
}

/// Context handed to [`AsyncPolicy::prepare_upload`] after a client
/// finishes local training.
#[derive(Debug)]
pub struct AsyncUploadCtx<'a> {
    /// Sender.
    pub client: usize,
    /// When training finished (the upload's send time).
    pub done: SimTime,
    /// Server-side arrivals so far (drives AdaFL's warm-up window).
    pub arrivals: u64,
    /// Model dimension.
    pub dense_len: usize,
    /// Current `ĝ`.
    pub global_gradient: &'a [f32],
    /// The network (star or mesh), for link probes at `done`.
    pub network: &'a FleetNetwork,
    /// Telemetry sink (strictly passive).
    pub recorder: &'a SharedRecorder,
}

/// Context handed to [`AsyncPolicy::apply`] when an update arrives.
#[derive(Debug)]
pub struct AsyncApplyCtx<'a> {
    /// Global parameters.
    pub global: &'a mut [f32],
    /// `ĝ`, written by policies that maintain it.
    pub global_gradient: &'a mut Vec<f32>,
}

/// The asynchronous protocol's policy axis: what each downlink carries,
/// whether/how a trained delta is uploaded, and how an arrival folds into
/// the global model.
pub trait AsyncPolicy: fmt::Debug + Send {
    /// Run label for the history.
    fn label(&self) -> &str;

    /// Called once with the model dimension before the run.
    fn init(&mut self, _dim: usize) {}

    /// Wire size of one global-model download (dense, plus AdaFL's `ĝ`
    /// digest).
    fn downlink_bytes(&mut self, ctx: &AsyncDownlinkCtx<'_>) -> usize;

    /// Turns a training outcome into an upload, or `None` when the client
    /// halts (AdaFL's utility gate) — the runtime then schedules a resync
    /// at `done + 1 s`. Policies emit their own utility/compression
    /// telemetry. The runtime charges the ledger with the payload's
    /// `encoded_len()`.
    fn prepare_upload(
        &mut self,
        ctx: &mut AsyncUploadCtx<'_>,
        outcome: LocalOutcome,
    ) -> Option<UpdatePayload>;

    /// Folds one arrived (possibly corrupted, defense-screened) update
    /// into the global model; returns `true` when the global parameters
    /// changed (versions advance only then).
    fn apply(
        &mut self,
        ctx: &mut AsyncApplyCtx<'_>,
        payload: UpdatePayload,
        snapshot: &[f32],
        weight: f32,
        staleness: u64,
    ) -> bool;
}
