//! AdaFL as a policy bundle for the shared round runtime.
//!
//! The paper's two adaptive mechanisms plug into
//! [`adafl_fl::runtime`] as the three synchronous policy axes plus the
//! asynchronous policy:
//!
//! * [`UtilitySelection`] — Algorithm 1 (digest broadcast, utility
//!   scoring, threshold `τ` + top-`K`) as a
//!   [`SelectionPolicy`];
//! * [`AdaptiveDgc`] — rank-dependent DGC compression as a
//!   [`CompressionPolicy`];
//! * [`AdaFlAggregation`] — the sample-weighted sparse mean whose result
//!   becomes the next round's `ĝ`, as an [`AggregationPolicy`];
//! * [`AdaFlAsyncPolicy`] — the fully-asynchronous flavour (utility halt
//!   gate, score-dependent compression, staleness-discounted mixing) as an
//!   [`AsyncPolicy`].
//!
//! Everything cross-cutting (scheduling, transport, faults, defense,
//! telemetry spans, history) stays in the runtime; these types hold only
//! the behaviour that makes AdaFL AdaFL.

use crate::compression_control::CompressionController;
use crate::config::AdaFlConfig;
use crate::selection::Selector;
use crate::utility::{utility_score, UtilityInputs};
use crate::wire;
use adafl_compression::{dense_wire_size, sparse_wire_size, top_k, DgcCompressor, WireCodec};
use adafl_fl::runtime::{
    AggregationPolicy, AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx,
    CompressionPolicy, RoundUpdate, SelectionCtx, SelectionPolicy, StreamAccumulator,
    SyncUploadCtx, UpdatePayload,
};
use adafl_fl::LocalOutcome;
use adafl_telemetry::{names, EventRecord, SpanRecord};
use adafl_tensor::vecops;

/// Algorithm 1 as a [`SelectionPolicy`]: broadcast the `ĝ` digest, collect
/// 16-byte utility-score reports, filter by `τ` and rank top-`K`. Warm-up
/// rounds select everyone without running the control plane.
#[derive(Debug)]
pub struct UtilitySelection {
    ada: AdaFlConfig,
    controller: CompressionController,
    selector: Selector,
}

impl UtilitySelection {
    /// Builds the policy; `seed` drives any randomized selection variant
    /// ([`AdaFlBuild`](crate::AdaFlBuild) passes `fl.seed_for("selection")`).
    pub fn new(ada: &AdaFlConfig, seed: u64) -> Self {
        UtilitySelection {
            controller: CompressionController::new(ada),
            selector: Selector::new(ada.selection, seed),
            ada: ada.clone(),
        }
    }
}

impl SelectionPolicy for UtilitySelection {
    fn select(&mut self, ctx: &mut SelectionCtx<'_>) -> Vec<usize> {
        if self.controller.in_warmup(ctx.round) {
            // Warm-up: equal participation from all clients.
            return (0..ctx.config.clients).collect();
        }
        assert_eq!(
            ctx.devices.len(),
            ctx.config.clients,
            "utility selection probes every client and needs a resident fleet"
        );
        // Digest of ĝ: top 1% coordinates, broadcast to every client.
        let digest_k = wire::digest_len(ctx.global.len());
        let digest = top_k(ctx.global_gradient, digest_k);
        let digest_bytes = digest.encoded_len();
        let digest_dense = digest.to_dense();
        // Sufficiency is judged against a typical adaptively-compressed
        // payload, not the dense model.
        let expected_payload = wire::expected_compressed_payload(ctx.global.len());
        let (metric, similarity_weight) = (self.ada.metric, self.ada.similarity_weight);

        // Algorithm 1 has every device score itself: one job per device
        // probes the gradient at its current (possibly stale) replica on a
        // warm trainer and reduces it to the score on the spot. Link
        // probes are pure reads, devices are mutually independent and
        // scores come back in client order, so the pool width is invisible
        // in the result.
        let (network, clock) = (ctx.io.network(), ctx.clock);
        let probes: Vec<_> = ctx
            .devices
            .iter_mut()
            .enumerate()
            .map(|(c, device)| (device, network.link_at(c, clock)))
            .collect();
        let global_gradient = digest_dense.as_slice();
        let scores = ctx
            .trainers
            .run(ctx.pool, probes, |trainer, (device, link)| {
                trainer.probe_gradient_with(device, |local_gradient| {
                    utility_score(
                        &UtilityInputs {
                            local_gradient,
                            global_gradient,
                            link,
                            expected_payload,
                        },
                        metric,
                        similarity_weight,
                    )
                })
            });
        // The control plane is charged on the caller, in client order: the
        // digest broadcast, then the 16-byte score report.
        for c in 0..scores.len() {
            ctx.io.ledger_mut().record_control(c, digest_bytes);
            ctx.io
                .ledger_mut()
                .record_control(c, wire::SCORE_REPORT_BYTES);
        }
        let selected =
            self.selector
                .select(&scores, self.ada.max_selected, self.ada.utility_threshold);
        if ctx.recorder.enabled() {
            for &s in &scores {
                ctx.recorder
                    .histogram_record(names::ADAFL_UTILITY, f64::from(s));
            }
            ctx.recorder
                .gauge_set(names::ADAFL_SELECTED, selected.len() as f64);
            ctx.recorder.event(
                EventRecord::new(names::EVENT_SELECTION, ctx.clock.seconds())
                    .round(ctx.round)
                    .field("scored", scores.len())
                    .field("selected", selected.len()),
            );
        }
        selected
    }

    fn annotate_round_span(&self, round: usize, span: SpanRecord) -> SpanRecord {
        span.field("warmup", self.controller.in_warmup(round))
    }
}

/// Rank-dependent DGC compression as a [`CompressionPolicy`]: rank 0 of
/// the cohort gets the lightest ratio, the last rank the heaviest; warm-up
/// rounds use a fixed light ratio. DGC momentum/residual state advances
/// even for updates the fault plan then drops — the gradient information
/// is carried into the next round, mirroring a real device whose transmit
/// failed after compression.
#[derive(Debug)]
pub struct AdaptiveDgc {
    controller: CompressionController,
    dgc_momentum: f32,
    clip_norm: f32,
    compressors: Vec<DgcCompressor>,
}

impl AdaptiveDgc {
    /// Builds the policy; compressor state is sized at
    /// [`CompressionPolicy::init`].
    pub fn new(ada: &AdaFlConfig) -> Self {
        AdaptiveDgc {
            controller: CompressionController::new(ada),
            dgc_momentum: ada.dgc_momentum,
            clip_norm: ada.clip_norm,
            compressors: Vec::new(),
        }
    }
}

impl CompressionPolicy for AdaptiveDgc {
    fn init(&mut self, dim: usize, clients: usize) {
        self.compressors =
            vec![DgcCompressor::new(dim, self.dgc_momentum, self.clip_norm); clients];
    }

    fn prepare(&mut self, ctx: &SyncUploadCtx<'_>, delta: &[f32]) -> Option<UpdatePayload> {
        let ratio = self.controller.ratio_for_rank(
            self.controller.in_warmup(ctx.round),
            ctx.rank,
            ctx.cohort,
        );
        let sparse = self.compressors[ctx.client].compress(delta, ratio);
        if ctx.tracing {
            ctx.recorder
                .histogram_record(names::ADAFL_ASSIGNED_RATIO, f64::from(ratio));
            adafl_compression::record_compression(
                ctx.recorder,
                "dgc",
                ctx.dense_bytes,
                sparse.encoded_len(),
            );
        }
        // The drop check comes after compression: DGC state has already
        // accumulated this round's delta when the transmission is lost.
        if !ctx.delivered {
            return None;
        }
        Some(UpdatePayload::Sparse(sparse))
    }
}

/// The sample-weighted sparse mean as an [`AggregationPolicy`]; the mean
/// becomes the next round's `ĝ` digest source. Trains hook-free (AdaFL
/// clients run plain momentum SGD).
#[derive(Debug)]
pub struct AdaFlAggregation;

impl AggregationPolicy for AdaFlAggregation {
    fn label(&self) -> &str {
        "adafl"
    }

    fn aggregate(
        &mut self,
        global: &mut [f32],
        global_gradient: &mut Vec<f32>,
        updates: Vec<RoundUpdate>,
    ) {
        let total_weight: f32 = updates.iter().map(|u| u.weight).sum();
        let mut mean = vec![0.0f32; global.len()];
        for u in &updates {
            u.payload
                .add_scaled_into(&mut mean, u.weight / total_weight);
        }
        vecops::axpy(global, 1.0, &mean);
        *global_gradient = mean;
    }

    fn supports_streaming(&self) -> bool {
        true
    }

    fn finish(
        &mut self,
        global: &mut [f32],
        global_gradient: &mut Vec<f32>,
        acc: &StreamAccumulator,
    ) {
        // Same weighted mean as `aggregate`, from the streamed partial
        // sums; the mean also becomes the next round's `ĝ` digest.
        let inv = 1.0 / acc.total_weight;
        let mean: Vec<f32> = acc.sum.iter().map(|s| s * inv).collect();
        vecops::axpy(global, 1.0, &mean);
        *global_gradient = mean;
    }
}

/// The fully-asynchronous AdaFL flavour as an [`AsyncPolicy`]: every
/// downlink carries the dense model plus the `ĝ` digest; after training a
/// client evaluates its utility and either halts (score `< τ` past
/// warm-up, saving the whole uplink) or uploads a DGC-compressed delta at
/// a score-dependent ratio; arrivals mix in with a staleness-discounted
/// weight and always advance the global version.
#[derive(Debug)]
pub struct AdaFlAsyncPolicy {
    ada: AdaFlConfig,
    controller: CompressionController,
    compressors: Vec<DgcCompressor>,
    clients: usize,
    /// How many server updates count as warm-up (full participation,
    /// light compression): `warmup_rounds × clients`.
    warmup_updates: u64,
}

impl AdaFlAsyncPolicy {
    /// Builds the policy for a `clients`-strong fleet; compressor state is
    /// sized at [`AsyncPolicy::init`].
    pub fn new(ada: &AdaFlConfig, clients: usize) -> Self {
        AdaFlAsyncPolicy {
            controller: CompressionController::new(ada),
            compressors: Vec::new(),
            clients,
            warmup_updates: (ada.warmup_rounds * clients) as u64,
            ada: ada.clone(),
        }
    }
}

impl AsyncPolicy for AdaFlAsyncPolicy {
    fn label(&self) -> &str {
        "adafl"
    }

    fn init(&mut self, dim: usize) {
        self.compressors =
            vec![DgcCompressor::new(dim, self.ada.dgc_momentum, self.ada.clip_norm); self.clients];
    }

    fn downlink_bytes(&mut self, ctx: &AsyncDownlinkCtx<'_>) -> usize {
        // The download carries the full model plus the ĝ digest, whose
        // size depends only on how many pairs `top_k` would keep.
        let digest_k = wire::digest_len(ctx.dense_len);
        dense_wire_size(ctx.dense_len) + sparse_wire_size(digest_k.min(ctx.global_gradient.len()))
    }

    fn prepare_upload(
        &mut self,
        ctx: &mut AsyncUploadCtx<'_>,
        outcome: LocalOutcome,
    ) -> Option<UpdatePayload> {
        // Utility gate: compare the fresh local delta with ĝ.
        let in_warmup = ctx.arrivals < self.warmup_updates;
        let link = ctx.network.link_at(ctx.client, ctx.done);
        let expected_payload = wire::expected_compressed_payload(ctx.dense_len);
        let score = utility_score(
            &UtilityInputs {
                local_gradient: &outcome.delta,
                global_gradient: ctx.global_gradient,
                link,
                expected_payload,
            },
            self.ada.metric,
            self.ada.similarity_weight,
        );
        if ctx.recorder.enabled() {
            ctx.recorder
                .histogram_record(names::ADAFL_UTILITY, f64::from(score));
        }
        if !in_warmup && score < self.ada.utility_threshold {
            // Halt: skip the upload, wait for a fresher global model
            // before contributing again.
            if ctx.recorder.enabled() {
                ctx.recorder.counter_add(names::ADAFL_HALTS, 1);
                ctx.recorder.event(
                    EventRecord::new(names::EVENT_HALT, ctx.done.seconds())
                        .client(ctx.client)
                        .field("score", score),
                );
            }
            return None;
        }

        let ratio = self.controller.ratio_for_score(in_warmup, score);
        let sparse = self.compressors[ctx.client].compress(&outcome.delta, ratio);
        if ctx.recorder.enabled() {
            ctx.recorder
                .histogram_record(names::ADAFL_ASSIGNED_RATIO, f64::from(ratio));
            adafl_compression::record_compression(
                ctx.recorder,
                "dgc",
                dense_wire_size(ctx.dense_len),
                sparse.encoded_len(),
            );
        }
        Some(UpdatePayload::Sparse(sparse))
    }

    fn apply(
        &mut self,
        ctx: &mut AsyncApplyCtx<'_>,
        payload: UpdatePayload,
        _snapshot: &[f32],
        _weight: f32,
        staleness: u64,
    ) -> bool {
        // AdaFL uploads are sparse; any other form would mix in the same way.
        let alpha = self.ada.async_alpha
            * (1.0 + staleness as f32).powf(-self.ada.async_staleness_exponent);
        let mut dense = vec![0.0f32; ctx.global.len()];
        payload.add_scaled_into(&mut dense, alpha);
        vecops::axpy(ctx.global, 1.0, &dense);
        *ctx.global_gradient = dense;
        true
    }
}
