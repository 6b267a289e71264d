//! The shared synchronous round runtime.
//!
//! Owns everything cross-cutting in a synchronous round — crash
//! checkpoints, pool-dispatched local training with the ready-mask,
//! transport (plain or reliable), fault injection, the defensive gate,
//! ledger charging, telemetry spans and history recording — and delegates
//! the three flavour-specific decisions to a [`SyncPolicies`] bundle.
//!
//! [`SyncRuntime::run_round`] drives one phase function per stage of the
//! round: `select_cohort`, then per cohort chunk `broadcast_chunk` →
//! `train_ready` → `encode_chunk` → `uplink_chunk`, then `advance_clock`
//! and `aggregate_buffered` or `aggregate_folded`.

use super::baseline::{RandomSelection, StaticCompressionPolicy, StrategyAggregation};
use super::builder::{Resilience, Scenario};
use super::emit::{self, At};
use super::io::{
    process_uplink_frames, ProcessedFrame, RoundIo, UplinkFrame, EMPTY_ROUND_WAIT_SECONDS,
};
use super::payload::{RoundUpdate, UpdatePayload};
use super::policy::{
    AggregationPolicy, CompressionPolicy, SelectionCtx, SelectionPolicy, StreamAccumulator,
    SyncUploadCtx,
};
use super::sink::{Closed, SinkMode, UpdateSink};
use crate::checkpoint::Checkpoint;
use crate::client::{evaluate_model, FlClient, GradientHook, LocalOutcome};
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::defense::{DefenseGate, RejectReason, Sanitized};
use crate::faults::{FaultKind, FaultPlan};
use crate::fleet::Fleet;
use crate::history::{RoundRecord, RunHistory};
use crate::ledger::CommunicationLedger;
use crate::pool::WorkerPool;
use crate::robust::{RobustAggregator, RobustStats};
use crate::submodel::{coverage_weighted_fold, CapacityPolicy};
use crate::sync::{StaticCompression, SyncStrategy};
use adafl_compression::{dense_wire_size, ViewDescriptor, WireCodec};
use adafl_data::Dataset;
use adafl_netsim::SimTime;
use adafl_nn::{ParamSegmentMap, SubView};
use adafl_telemetry::{names, EventRecord, SharedRecorder, SpanRecord};
use adafl_tensor::vecops;
use std::ops::Range;

/// The policy bundle specialising a [`SyncRuntime`] into one protocol
/// flavour.
#[derive(Debug)]
pub struct SyncPolicies {
    /// Who participates each round.
    pub selection: Box<dyn SelectionPolicy>,
    /// Wire form of each uplink.
    pub compression: Box<dyn CompressionPolicy>,
    /// How delivered updates fold into the global model.
    pub aggregation: Box<dyn AggregationPolicy>,
    /// Whether the server enforces `FlConfig::round_deadline` (§III
    /// max-wait policy); the AdaFL flavour waits for its whole cohort.
    pub enforce_deadline: bool,
}

impl SyncPolicies {
    /// The baseline synchronous bundle: uniform random selection, the
    /// given *static* client-side compression of every uplink — one of the
    /// fixed model-level techniques from the paper's related work (QSGD
    /// \[11], TernGrad \[13], fixed top-k \[10]\[14]) or
    /// [`StaticCompression::None`] — and `strategy`, with the §III round
    /// deadline enforced. Every seed comes from `config`.
    pub fn baseline(
        config: &FlConfig,
        strategy: Box<dyn SyncStrategy>,
        compression: StaticCompression,
    ) -> Self {
        SyncPolicies {
            selection: Box::new(RandomSelection::new(config.seed_for("selection"))),
            compression: Box::new(StaticCompressionPolicy::new(
                compression,
                config.seed_for("compression"),
            )),
            aggregation: Box::new(StrategyAggregation::new(strategy)),
            enforce_deadline: true,
        }
    }
}

/// What a [`RuntimeBuilder`](super::RuntimeBuilder) may switch on for a
/// synchronous flavour.
#[derive(Debug)]
pub(super) struct SyncOptions {
    pub resilience: Resilience,
    pub robust: Option<RobustAggregator>,
    pub capacity: Option<Box<dyn CapacityPolicy>>,
    pub threads: Option<usize>,
    pub buffered_fold: bool,
}

/// Server-side state for heterogeneous-capacity (sub-view) rounds: the
/// tier-assignment policy plus the global model's parameter segment map
/// from which each round's [`SubView`]s are cut.
#[derive(Debug)]
struct CapacityState {
    policy: Box<dyn CapacityPolicy>,
    map: ParamSegmentMap,
}

/// One round's cohort and running bookkeeping, shared by its phases.
#[derive(Debug)]
struct Round {
    index: usize,
    /// Selected, non-crashed clients in cohort order; a client's index
    /// here is its rank, global across cohort chunks.
    participants: Vec<usize>,
    /// Capacity mode: each participant's parameter sub-view and the
    /// descriptor naming it, by rank. `None` leaves the classic
    /// full-broadcast path byte-identical.
    views: Option<Vec<(SubView, ViewDescriptor)>>,
    tracing: bool,
    /// Eq. 3: the slowest accepted arrival so far.
    round_time: SimTime,
    /// The §III deadline in seconds, once an arrival has missed it.
    deadline_fired: Option<f64>,
    /// Scratch for densifying view-local deltas (capacity mode only):
    /// stateful aggregation policies see full-width deltas with zeros
    /// outside the client's view.
    densified: Vec<f32>,
}

/// A participant whose broadcast landed: `(rank, client, arrival)`.
type Ready = (usize, usize, SimTime);

/// What `encode_chunk` learned about one ready client:
/// `(train_done, delivered, has_frame)`.
type Prepared = (SimTime, bool, bool);

/// Policy-driven synchronous round runtime. One round: select → broadcast
/// → local training → compress/uplink under faults → screen → aggregate;
/// Eq. 3 round time (the slowest delivered participant gates the round).
///
/// Constructed and configured only through
/// [`RuntimeBuilder`](super::RuntimeBuilder); once built, its
/// configuration is final.
#[derive(Debug)]
pub struct SyncRuntime {
    config: FlConfig,
    clients: Fleet,
    global: Vec<f32>,
    global_model: adafl_nn::Model,
    /// Previous round's aggregated global delta (`ĝ`); stays zero unless
    /// the aggregation policy maintains it.
    global_gradient: Vec<f32>,
    test_set: Dataset,
    selection: Box<dyn SelectionPolicy>,
    compression: Box<dyn CompressionPolicy>,
    aggregation: Box<dyn AggregationPolicy>,
    enforce_deadline: bool,
    io: RoundIo,
    compute: ComputeModel,
    faults: FaultPlan,
    clock: SimTime,
    recorder: SharedRecorder,
    defense: Option<DefenseGate>,
    robust: Option<RobustAggregator>,
    capacity: Option<CapacityState>,
    crash_checkpoints: Vec<Option<Checkpoint>>,
    pool: WorkerPool,
    /// Parity reference: streaming-eligible rounds buffer the updates and
    /// replay the identical folds at round end instead of folding at
    /// arrival (see [`SinkMode::BufferedFold`]).
    buffered_fold: bool,
}

impl SyncRuntime {
    /// Assembles a runtime over a checked scenario and the fleet the
    /// builder made for it — resident, or cohort-pooled with crash faults
    /// already rejected.
    pub(super) fn new(
        scenario: Scenario,
        clients: Fleet,
        mut policies: SyncPolicies,
        options: SyncOptions,
    ) -> Self {
        let Scenario {
            config,
            test_set,
            network,
            compute,
            faults,
        } = scenario;
        let Resilience {
            retry,
            defense,
            recorder,
        } = options.resilience;
        let mut global_model = config.model.build(config.seed_for("model"));
        let global = global_model.params_flat();
        // Re-evaluate to ensure consistency between server copy and fleet.
        global_model.set_params_flat(&global);
        policies.aggregation.init(global.len(), config.clients);
        policies.compression.init(global.len(), config.clients);
        SyncRuntime {
            io: RoundIo::assemble(network, &config, retry, recorder.as_ref()),
            global_gradient: vec![0.0; global.len()],
            recorder: recorder.unwrap_or_else(adafl_telemetry::noop),
            defense: defense.map(DefenseGate::new),
            robust: options.robust,
            capacity: options.capacity.map(|policy| CapacityState {
                policy,
                map: global_model.segment_map(),
            }),
            crash_checkpoints: vec![None; config.clients],
            pool: match options.threads {
                Some(threads) => WorkerPool::new(threads.max(1)),
                None => WorkerPool::from_env_or_default(),
            },
            buffered_fold: options.buffered_fold,
            selection: policies.selection,
            compression: policies.compression,
            aggregation: policies.aggregation,
            enforce_deadline: policies.enforce_deadline,
            config,
            clients,
            global,
            global_model,
            test_set,
            compute,
            faults,
            clock: SimTime::ZERO,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Whether this fleet's per-client state is cohort-pooled.
    pub fn is_pooled(&self) -> bool {
        self.clients.is_pooled()
    }

    /// Live [`FlClient`]s currently resident — the whole fleet for
    /// resident storage, the peak cohort seen so far for pooled storage.
    pub fn resident_clients(&self) -> usize {
        self.clients.resident_count()
    }

    /// Which sink behaviour rounds use. Streaming is strictly opt-in: it
    /// requires cohort scheduling (`cohort_size`), a policy that declares
    /// streaming support, and none of the stages that need the whole
    /// cohort side by side (defense gate, robust pre-aggregation, capacity
    /// tiers). Everything else stays on the legacy buffer-everything path,
    /// byte-identical to before the sink existed.
    pub fn sink_mode(&self) -> SinkMode {
        let eligible = self.config.cohort_size.is_some()
            && self.aggregation.supports_streaming()
            && self.defense.is_none()
            && self.robust.is_none()
            && self.capacity.is_none();
        if !eligible {
            SinkMode::Legacy
        } else if self.buffered_fold {
            SinkMode::BufferedFold
        } else {
            SinkMode::Streaming
        }
    }

    /// The communication ledger (cumulative).
    pub fn ledger(&self) -> &CommunicationLedger {
        self.io.ledger()
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.global
    }

    /// Current global-gradient digest (`ĝ`); all zeros for flavours that
    /// do not maintain it.
    pub fn global_gradient(&self) -> &[f32] {
        &self.global_gradient
    }

    /// Installs global parameters (e.g. restored from a [`Checkpoint`])
    /// before running — state, not configuration, and so the one thing a
    /// built runtime lets a caller set.
    ///
    /// # Panics
    ///
    /// Panics when `params.len()` differs from the model's parameter count.
    pub fn set_global_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.global.len(),
            "flat parameter length mismatch"
        );
        self.global.copy_from_slice(params);
        self.global_model.set_params_flat(params);
    }

    /// Current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Runs all configured rounds, returning the evaluation history.
    pub fn run(&mut self) -> RunHistory {
        let mut history = RunHistory::new(self.aggregation.label());
        for round in 0..self.config.rounds {
            let contributors = self.run_round(round);
            self.global_model.set_params_flat(&self.global);
            let (accuracy, loss) = evaluate_model(&mut self.global_model, &self.test_set);
            history.push(RoundRecord {
                round,
                sim_time: self.clock,
                accuracy,
                loss,
                uplink_bytes: self.io.ledger().uplink_bytes(),
                uplink_updates: self.io.ledger().uplink_updates(),
                contributors,
            });
        }
        history
    }

    /// Runs one round; returns the number of updates that reached the
    /// server (post-screening).
    pub fn run_round(&mut self, round: usize) -> usize {
        self.handle_crashes(round);
        let mut r = self.select_cohort(round);
        let round_start = self.clock;
        let wall_start = self.recorder.wall_micros();

        // The round's update sink: legacy rounds buffer everything for the
        // screen → robust → aggregate pipeline; streaming-eligible rounds
        // fold each update into edge accumulators the moment it arrives,
        // so server memory stays O(model × edges) regardless of fleet
        // size.
        let mut sink = UpdateSink::new(
            self.sink_mode(),
            self.global.len(),
            self.config.edge_aggregators,
        );

        // Cohort scheduling: participants run through broadcast → train →
        // encode → uplink in contiguous chunks of `cohort_size` — one
        // chunk covering everyone when unset, which is byte-identical to
        // the pre-cohort monolithic loop. Ranks stay global across chunks
        // so capacity views and upload contexts see the same cohort
        // coordinates either way.
        let cohort = r.participants.len();
        let chunk_size = self.config.cohort_size.unwrap_or(cohort).max(1);
        let mut chunk_start = 0;
        while chunk_start < cohort {
            let chunk_end = (chunk_start + chunk_size).min(cohort);
            let ready = self.broadcast_chunk(&r, chunk_start..chunk_end);
            // Clients are independent, so pooled training is bit-identical
            // to sequential: outcomes come back in cohort order.
            let outcomes = self.train_ready(round, &ready, r.views.as_deref());
            let (frames, prepared) = self.encode_chunk(&mut r, &ready, &outcomes);
            self.uplink_chunk(&mut r, &mut sink, &ready, &outcomes, frames, &prepared);
            chunk_start = chunk_end;
        }

        self.advance_clock(&r, sink.delivered());
        let delivered = match sink.close(&mut *self.aggregation) {
            Closed::Buffered(updates) => self.aggregate_buffered(round, updates, cohort),
            Closed::Folded(folded) => self.aggregate_folded(folded),
        };
        if r.tracing {
            let (start, end) = (round_start.seconds(), self.clock.seconds());
            self.recorder
                .histogram_record(names::ROUND_SIM_SECONDS, end - start);
            let span = SpanRecord::new(names::SPAN_ROUND, start, end)
                .round(round)
                .wall(self.recorder.wall_micros().saturating_sub(wall_start))
                .field("participants", cohort)
                .field("delivered", delivered);
            self.recorder
                .span(self.selection.annotate_round_span(round, span));
        }
        delivered
    }

    /// Selection: asks the policy for this round's participants, drops the
    /// crashed ones, and — in capacity mode — assigns each a tier and cuts
    /// its parameter sub-view, indexed by cohort rank.
    fn select_cohort(&mut self, round: usize) -> Round {
        // The selection RNG is consumed identically with or without crash
        // faults; crashed clients are filtered after sampling.
        let participants: Vec<usize> = {
            let mut ctx = SelectionCtx {
                round,
                clock: self.clock,
                config: &self.config,
                clients: self.clients.resident_mut(),
                io: &mut self.io,
                global: &self.global,
                global_gradient: &self.global_gradient,
                recorder: &self.recorder,
            };
            self.selection.select(&mut ctx)
        }
        .into_iter()
        .filter(|&c| !self.faults.crashed(c, round))
        .collect();
        let views = self.capacity.as_mut().map(|cap| {
            participants
                .iter()
                .map(|&c| {
                    let tier = cap.policy.assign(round as u64, c);
                    let view = tier.view(&cap.map, round as u64);
                    let desc = ViewDescriptor::new(view.dense_len(), view.segments().to_vec());
                    (view, desc)
                })
                .collect()
        });
        Round {
            index: round,
            participants,
            views,
            tracing: self.recorder.enabled(),
            round_time: SimTime::ZERO,
            deadline_fired: None,
            densified: Vec::new(),
        }
    }

    /// Broadcast: sends the global model to the participants ranked
    /// `ranks`; clients whose broadcast is lost sit the round out (unless
    /// reliable transport saves it). The server pays for the broadcast
    /// whether or not it lands.
    fn broadcast_chunk(&mut self, r: &Round, ranks: Range<usize>) -> Vec<Ready> {
        let dense_bytes = dense_wire_size(self.global.len());
        let mut ready: Vec<Ready> = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let c = r.participants[rank];
            let bytes = match &r.views {
                // A tiered client receives only its view's values plus
                // the descriptor naming them — never the full model.
                Some(views) => {
                    let (view, desc) = &views[rank];
                    dense_wire_size(view.view_len()) + desc.encoded_len()
                }
                None => dense_bytes,
            };
            let delivery = self.io.downlink(c, bytes, self.clock, true);
            if let Some(t) = delivery.arrival {
                ready.push((rank, c, t));
            }
        }
        ready
    }

    /// Encode: policy bookkeeping and wire-form preparation in cohort
    /// order (aggregation and compression policies are stateful), then the
    /// wire-fault transform of every frame across the pool — pure
    /// per-frame functions, results collected in submission order. Only
    /// aggregate counters/histograms are touched here, whose export is
    /// order-free; streamed telemetry waits for `uplink_chunk`.
    fn encode_chunk(
        &mut self,
        r: &mut Round,
        ready: &[Ready],
        outcomes: &[LocalOutcome],
    ) -> (Vec<ProcessedFrame>, Vec<Prepared>) {
        let round = r.index;
        let dense_bytes = dense_wire_size(self.global.len());
        let effective_lr = self.config.learning_rate / (1.0 - self.config.momentum);
        let mut frames: Vec<UplinkFrame> = Vec::with_capacity(ready.len());
        let mut prepared: Vec<Prepared> = Vec::with_capacity(ready.len());
        for (&(rank, c, downlink_done), outcome) in ready.iter().zip(outcomes) {
            let view = r.views.as_ref().map(|views| &views[rank]);
            let delta_full: &[f32] = match view {
                Some((view, _)) => {
                    r.densified.clear();
                    r.densified.resize(self.global.len(), 0.0);
                    view.scatter(&outcome.delta, &mut r.densified);
                    &r.densified
                }
                None => &outcome.delta,
            };
            self.aggregation
                .after_local_round(c, delta_full, outcome.steps, effective_lr);

            // Stale clients' slowdowns were folded into the compute model
            // at construction.
            let train_done = downlink_done + self.compute.training_time(c, self.config.local_steps);
            let delivered = self.faults.update_delivered(c, round);
            let ctx = SyncUploadCtx {
                round,
                client: c,
                rank,
                cohort: r.participants.len(),
                // Compression ratios are relative to what this client
                // would send uncompressed: its view, not the model.
                dense_bytes: view.map_or(dense_bytes, |(v, _)| dense_wire_size(v.view_len())),
                delivered,
                tracing: r.tracing,
                recorder: &self.recorder,
            };
            let payload = self
                .compression
                .prepare(&ctx, &outcome.delta)
                .map(|inner| match view {
                    Some((_, desc)) => UpdatePayload::sub_view(desc.clone(), inner),
                    None => inner,
                });
            prepared.push((train_done, delivered, payload.is_some()));
            if let Some(payload) = payload {
                frames.push(UplinkFrame {
                    payload,
                    // Stopping a Byzantine frame is the robust stage's job.
                    attack: self
                        .faults
                        .attacks_update(c)
                        .map(|kind| (kind, self.faults.collusion_seed(round))),
                    corrupt: self.faults.corrupts_update(c),
                });
            }
        }
        (process_uplink_frames(&self.pool, frames), prepared)
    }

    /// Uplink: telemetry, ledger charging, the deadline policy and the
    /// sink, in cohort order — the network RNG and the event stream are
    /// both order-pinned, so spans and events are emitted here in the
    /// same per-client order as a single loop would. Histories, ledgers
    /// and traces are byte-identical at any pool width.
    fn uplink_chunk(
        &mut self,
        r: &mut Round,
        sink: &mut UpdateSink,
        ready: &[Ready],
        outcomes: &[LocalOutcome],
        frames: Vec<ProcessedFrame>,
        prepared: &[Prepared],
    ) {
        let round = Some(r.index);
        let deadline = self.config.round_deadline.filter(|_| self.enforce_deadline);
        let mut frames = frames.into_iter();
        for ((&(_, c, downlink_done), outcome), &(train_done, delivered, has_frame)) in
            ready.iter().zip(outcomes).zip(prepared)
        {
            if r.tracing {
                self.recorder.span(
                    SpanRecord::new(
                        names::SPAN_CLIENT_COMPUTE,
                        downlink_done.seconds(),
                        train_done.seconds(),
                    )
                    .round(r.index)
                    .client(c)
                    .field("steps", outcome.steps),
                );
            }
            let sent = At {
                round,
                client: c,
                seconds: train_done.seconds(),
            };
            if !has_frame {
                debug_assert!(!delivered, "policies only drop undelivered updates");
                if r.tracing {
                    self.recorder.counter_add(names::FL_DROPOUTS, 1);
                    self.recorder.event(
                        EventRecord::new(names::EVENT_DROPOUT, sent.seconds)
                            .round(r.index)
                            .client(c),
                    );
                }
                continue;
            }
            let frame = frames
                .next()
                .expect("one processed frame per prepared frame");
            if let Some(kind) = frame.attacked {
                emit::attack(&self.recorder, sent, kind);
            }
            if frame.corrupted {
                emit::corruption(&self.recorder, sent);
            }
            let Some(arrival) = self.io.uplink_update(c, &frame.payload, train_done).arrival else {
                continue;
            };
            let elapsed = arrival - self.clock;
            // §III max-wait-time policy: the server drops updates arriving
            // after the deadline.
            if let Some(deadline) = deadline.filter(|&d| elapsed.seconds() > d) {
                r.deadline_fired = Some(deadline);
                if r.tracing {
                    self.recorder.counter_add(names::FL_DEADLINE_MISSES, 1);
                    self.recorder.event(
                        EventRecord::new(names::EVENT_DEADLINE_MISS, arrival.seconds())
                            .round(r.index)
                            .client(c)
                            .field("elapsed_seconds", elapsed.seconds()),
                    );
                }
                continue;
            }
            r.round_time = r.round_time.max(elapsed);
            if let Some(err) = frame.decode_error {
                // The bytes travelled, were charged and gated the round
                // clock, but the server cannot parse them: the update is
                // dropped before the defense gate ever sees values.
                let arrived = At {
                    seconds: arrival.seconds(),
                    ..sent
                };
                emit::decode_reject(&self.recorder, arrived, &err);
                continue;
            }
            sink.accept(
                &mut *self.aggregation,
                RoundUpdate {
                    client: c,
                    payload: frame.payload,
                    weight: outcome.num_samples as f32,
                },
            );
        }
    }

    /// Eq. 3: the round completes when the slowest delivered participant
    /// finishes; when the deadline fired, the server waited exactly that
    /// long; a round with no delivered update costs the wait timeout.
    fn advance_clock(&mut self, r: &Round, delivered: usize) {
        self.clock += match r.deadline_fired {
            Some(deadline) => SimTime::from_seconds(deadline),
            None if delivered == 0 => SimTime::from_seconds(EMPTY_ROUND_WAIT_SECONDS),
            None => r.round_time,
        };
    }

    /// Aggregation over a buffered cohort: defense screen → capacity
    /// feedback → robust pre-aggregation → the aggregation policy (or, in
    /// capacity mode, the coverage-weighted fold). Returns how many
    /// updates survived screening.
    fn aggregate_buffered(
        &mut self,
        round: usize,
        updates: Vec<RoundUpdate>,
        expected: usize,
    ) -> usize {
        let updates = self.screen_updates(round, updates, expected);
        let delivered = updates.len();
        // Capacity feedback: score each surviving update's alignment with
        // the previous round's aggregate direction (ĝ) so adaptive
        // policies can promote well-aligned clients and demote noisy ones.
        if let Some(cap) = self.capacity.as_mut() {
            let mut dense = vec![0.0f32; self.global.len()];
            for u in &updates {
                dense.fill(0.0);
                u.payload.add_scaled_into(&mut dense, 1.0);
                let score = vecops::cosine_similarity(&dense, &self.global_gradient);
                cap.policy.observe(round as u64, u.client, score);
            }
        }
        let updates = self.robust_stage(round, updates);
        if updates.is_empty() {
            return delivered;
        }
        if self.capacity.is_none() {
            self.aggregation
                .aggregate(&mut self.global, &mut self.global_gradient, updates);
        } else if let Some(mean) = coverage_weighted_fold(self.global.len(), &updates) {
            // Coverage-weighted fold: each coordinate is averaged over the
            // clients whose views cover it; with all full-width clients
            // this is bitwise FedAvg. The fold doubles as the `ĝ` digest
            // read back by `observe`.
            vecops::axpy(&mut self.global, 1.0, &mean);
            self.global_gradient.copy_from_slice(&mean);
        }
        delivered
    }

    /// Aggregation over a folded round: charges the edge tier, then lets
    /// the policy apply the merged accumulator. Returns how many updates
    /// were folded.
    fn aggregate_folded(
        &mut self,
        folded: Option<(StreamAccumulator, Vec<(usize, usize)>)>,
    ) -> usize {
        let Some((merged, charges)) = folded else {
            return 0;
        };
        // Hierarchical tier: each active edge ships one dense partial to
        // the server, charged to its lead client through the relay-byte
        // machinery. A flat topology (edge_aggregators == 0) ships nothing
        // extra — the server-side accumulator is free.
        if self.config.edge_aggregators > 0 {
            let partial_bytes = dense_wire_size(self.global.len());
            for &(lead, _) in &charges {
                self.io.ledger_mut().record_relay(lead, partial_bytes);
            }
        }
        self.aggregation
            .finish(&mut self.global, &mut self.global_gradient, &merged);
        merged.count
    }

    /// Crash-fault bookkeeping at the top of a round: snapshot a client's
    /// state into a [`Checkpoint`] the round its outage begins, restore it
    /// from the decoded checkpoint the round it comes back.
    fn handle_crashes(&mut self, round: usize) {
        let tracing = self.recorder.enabled();
        for c in 0..self.config.clients {
            let FaultKind::Crash { at_round, .. } = self.faults.kind(c) else {
                continue;
            };
            if round == at_round {
                let snapshot = Checkpoint::new(
                    round as u64,
                    self.clients.resident_client(c).model().params_flat(),
                );
                self.crash_checkpoints[c] = Some(snapshot);
                if tracing {
                    self.recorder.counter_add(names::FL_CRASHES, 1);
                    self.recorder.event(
                        EventRecord::new(names::EVENT_CRASH, self.clock.seconds())
                            .round(round)
                            .client(c),
                    );
                }
            } else if self.faults.recovers_at(c, round) {
                if let Some(ckpt) = self.crash_checkpoints[c].take() {
                    // Recovery goes through the wire format: the client
                    // restores from the decoded bytes, exactly as it would
                    // from flash after a reboot.
                    let restored =
                        Checkpoint::decode(&ckpt.encode()).expect("checkpoint round-trips");
                    self.clients
                        .resident_client(c)
                        .sync_to_global(&restored.params);
                    if tracing {
                        self.recorder.counter_add(names::FL_RECOVERIES, 1);
                        self.recorder.event(
                            EventRecord::new(names::EVENT_RECOVERY, self.clock.seconds())
                                .round(round)
                                .client(c)
                                .field("checkpoint_round", restored.round as usize),
                        );
                    }
                }
            }
        }
    }

    /// Defensive aggregation gate: scrubs, norm-screens and quorum-checks
    /// the round's delivered updates. Identity when no defense is set; an
    /// empty result means the round is skipped.
    fn screen_updates(
        &mut self,
        round: usize,
        mut updates: Vec<RoundUpdate>,
        expected: usize,
    ) -> Vec<RoundUpdate> {
        let Some(gate) = self.defense.as_mut() else {
            return updates;
        };
        let now = self.clock.seconds();
        let at = |client: usize| At {
            round: Some(round),
            client,
            seconds: now,
        };
        // Scrub + norm-screen in parallel: `sanitize` takes `&self` and
        // touches only its own update's values, and `scope_run` collects in
        // submission order, so the verdicts are identical at any pool
        // width. Telemetry is replayed sequentially below, in the original
        // update order.
        let screened: Vec<Result<Sanitized, RejectReason>> = {
            let gate = &*gate;
            let jobs: Vec<Box<dyn FnOnce() -> Result<Sanitized, RejectReason> + Send + '_>> =
                updates
                    .iter_mut()
                    .map(|u| {
                        // The screens run over the transmitted values; the
                        // L2 norm of a sparse update equals the norm of its
                        // dense form.
                        Box::new(move || gate.sanitize(u.payload.values_mut())) as Box<_>
                    })
                    .collect();
            self.pool.scope_run(jobs)
        };
        let mut kept: Vec<RoundUpdate> = Vec::with_capacity(updates.len());
        let mut norms: Vec<f64> = Vec::with_capacity(updates.len());
        for (u, screened) in updates.drain(..).zip(screened) {
            match screened {
                Ok(s) => {
                    emit::scrubbed(&self.recorder, s.scrubbed);
                    norms.push(s.norm);
                    kept.push(u);
                }
                Err(reason) => emit::defense_reject(&self.recorder, at(u.client), reason.label()),
            }
        }
        let verdicts = gate.admit_batch(&norms);
        let mut out: Vec<RoundUpdate> = Vec::with_capacity(kept.len());
        for (u, ok) in kept.into_iter().zip(verdicts) {
            if ok {
                out.push(u);
            } else {
                emit::defense_reject(
                    &self.recorder,
                    at(u.client),
                    RejectReason::NormOutlier.label(),
                );
            }
        }
        if !gate.quorum_met(out.len(), expected) {
            if self.recorder.enabled() {
                self.recorder.counter_add(names::FL_QUORUM_SKIPS, 1);
                self.recorder.event(
                    EventRecord::new(names::EVENT_QUORUM_SKIP, now)
                        .round(round)
                        .field("accepted", out.len())
                        .field("expected", expected),
                );
            }
            return Vec::new();
        }
        out
    }

    /// Byzantine-robust pre-aggregation: replaces the screened cohort with
    /// the robust estimate (see [`crate::robust`]) before the aggregation
    /// policy sees it, fanning the densify and distance-matrix work across
    /// the worker pool. Identity when no robust method is set.
    fn robust_stage(&mut self, round: usize, updates: Vec<RoundUpdate>) -> Vec<RoundUpdate> {
        let Some(robust) = self.robust.as_ref() else {
            return updates;
        };
        if updates.len() < 2 {
            return updates;
        }
        let tracing = self.recorder.enabled();
        let wall_start = self.recorder.wall_micros();
        let has_views = updates
            .iter()
            .any(|u| u.payload.view_descriptor().is_some());
        let (out, stats) = if has_views {
            Self::robust_by_coverage(robust, &self.pool, self.global.len(), updates)
        } else {
            robust.pre_aggregate_with(self.global.len(), updates, Some(&self.pool))
        };
        if tracing {
            if stats.rejected > 0 {
                self.recorder
                    .counter_add(names::FL_ROBUST_REJECTED, stats.rejected as u64);
            }
            if stats.trimmed_values > 0 {
                self.recorder
                    .counter_add(names::FL_ROBUST_TRIMMED, stats.trimmed_values);
            }
            // The estimator runs at the server between arrival and
            // aggregation: zero simulated width, real wall cost.
            let now = self.clock.seconds();
            self.recorder.span(
                SpanRecord::new(names::SPAN_ROBUST, now, now)
                    .round(round)
                    .wall(self.recorder.wall_micros().saturating_sub(wall_start))
                    .field("method", robust.method().as_str())
                    .field("input", stats.input)
                    .field("output", stats.output),
            );
        }
        out
    }

    /// Runs the robust estimator separately per coverage group. Updates
    /// sharing a view descriptor are comparable coordinate-for-coordinate
    /// at view width; densifying mixed-width updates would let the zero
    /// padding outside narrow views masquerade as small coordinates and
    /// skew medians and distance rankings. Groups of one pass through
    /// untouched — there is nothing to compare a singleton against.
    fn robust_by_coverage(
        robust: &RobustAggregator,
        pool: &WorkerPool,
        dense_len: usize,
        updates: Vec<RoundUpdate>,
    ) -> (Vec<RoundUpdate>, RobustStats) {
        let mut groups: Vec<(Option<ViewDescriptor>, Vec<RoundUpdate>)> = Vec::new();
        for u in updates {
            let key = u.payload.view_descriptor().cloned();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(u),
                None => groups.push((key, vec![u])),
            }
        }
        let mut out: Vec<RoundUpdate> = Vec::new();
        let mut total = RobustStats::default();
        for (key, group) in groups {
            if group.len() < 2 {
                total.input += group.len();
                total.output += group.len();
                out.extend(group);
                continue;
            }
            // A view group is unwrapped to its view-local inner payloads,
            // estimated at view width, then re-wrapped under the shared
            // descriptor.
            let width = key.as_ref().map_or(dense_len, ViewDescriptor::view_len);
            let inner = group.into_iter().map(|u| RoundUpdate {
                payload: match u.payload {
                    UpdatePayload::SubView { inner, .. } => *inner,
                    full => full,
                },
                ..u
            });
            let (est, stats) = robust.pre_aggregate_with(width, inner.collect(), Some(pool));
            total.input += stats.input;
            total.output += stats.output;
            total.rejected += stats.rejected;
            total.trimmed_values += stats.trimmed_values;
            out.extend(est.into_iter().map(|u| match &key {
                Some(desc) => RoundUpdate {
                    payload: UpdatePayload::sub_view(desc.clone(), u.payload),
                    ..u
                },
                None => u,
            }));
        }
        (out, total)
    }

    /// Trains the broadcast-ready clients across the pool, returning
    /// outcomes in the same (cohort) order — clients are mutually
    /// independent during local training, so results do not depend on
    /// scheduling. When `views` is set (capacity mode), each ready client
    /// trains on its rank's sub-view of the global vector instead of the
    /// full model.
    fn train_ready(
        &mut self,
        round: usize,
        ready: &[Ready],
        views: Option<&[(SubView, ViewDescriptor)]>,
    ) -> Vec<LocalOutcome> {
        let steps = self.config.local_steps;
        let aggregation = &self.aggregation;
        let use_hook = aggregation.uses_gradient_hook();
        let global = &self.global;
        // One live client per ready entry, in ready (cohort) order.
        let slots: Vec<&mut FlClient> = match &mut self.clients {
            Fleet::Resident(clients) => {
                // Boolean mask over client ids (O(N), not an O(N²)
                // contains scan), then per-id slots so each ready client's
                // &mut is taken exactly once — in cohort order, whatever
                // that order is.
                let mut is_ready = vec![false; clients.len()];
                for &(_, c, _) in ready {
                    is_ready[c] = true;
                }
                let mut by_id: Vec<Option<&mut FlClient>> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| is_ready[c].then_some(client))
                    .collect();
                ready
                    .iter()
                    .map(|&(_, c, _)| by_id[c].take().expect("ready client listed once"))
                    .collect()
            }
            Fleet::Pooled(pool) => {
                // Cohort-resident pool: rebind one slot per ready client
                // for this round; state does not persist across rounds.
                let ids: Vec<usize> = ready.iter().map(|&(_, c, _)| c).collect();
                pool.checkout(&ids, round as u64)
            }
        };
        let jobs: Vec<Box<dyn FnOnce() -> LocalOutcome + Send + '_>> = ready
            .iter()
            .zip(slots)
            .map(|(&(rank, c, _), client)| {
                let view = views.map(|v| &v[rank].0);
                Box::new(move || {
                    // The hooked and hook-free training paths are distinct
                    // float paths; the aggregation policy pins the choice.
                    let mut correct = |grad: &mut [f32], params: &[f32], g: &[f32]| {
                        aggregation.gradient_hook(c, grad, params, g);
                    };
                    let hook: Option<GradientHook<'_>> =
                        if use_hook { Some(&mut correct) } else { None };
                    match view {
                        Some(view) => {
                            let values = view.extract(global);
                            client.train_local_view(view, &values, steps, hook)
                        }
                        None => client.train_local(global, steps, hook),
                    }
                }) as Box<_>
            })
            .collect();
        // Persistent pool instead of per-round thread spawning; results
        // come back in submission (cohort) order, so runs are
        // byte-identical at any pool width.
        self.pool.scope_run(jobs)
    }
}
