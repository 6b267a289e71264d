//! The shared synchronous round runtime.
//!
//! Owns everything cross-cutting in a synchronous round — crash
//! checkpoints, pool-dispatched local training with the ready-mask,
//! transport (plain or reliable), fault injection, the defensive gate,
//! ledger charging, telemetry spans and history recording — and delegates
//! the three flavour-specific decisions to a [`SyncPolicies`] bundle.

use super::io::{process_uplink_frames, RoundIo, UplinkFrame};
use super::payload::{RoundUpdate, UpdatePayload};
use super::policy::{
    AggregationPolicy, CompressionPolicy, SelectionCtx, SelectionPolicy, SyncUploadCtx,
};
use super::sink::{SinkMode, UpdateSink};
use crate::checkpoint::Checkpoint;
use crate::client::{evaluate_model, FlClient, LocalOutcome};
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::defense::{DefenseConfig, DefenseGate, RejectReason, Sanitized};
use crate::faults::{FaultKind, FaultPlan};
use crate::fleet::{ClientPool, Fleet, ShardSource};
use crate::history::{RoundRecord, RunHistory};
use crate::ledger::CommunicationLedger;
use crate::pool::WorkerPool;
use crate::robust::{RobustAggregator, RobustStats};
use crate::submodel::{coverage_weighted_fold, CapacityPolicy};
use adafl_compression::{dense_wire_size, ViewDescriptor, WireCodec};
use adafl_data::Dataset;
use adafl_netsim::{FleetNetwork, ReliablePolicy, SimTime};
use adafl_nn::{ParamSegmentMap, SubView};
use adafl_telemetry::{names, EventRecord, SharedRecorder, SpanRecord};
use adafl_tensor::vecops;

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

/// Server-side state for heterogeneous-capacity (sub-view) rounds: the
/// tier-assignment policy plus the global model's parameter segment map
/// from which each round's [`SubView`]s are cut.
#[derive(Debug)]
struct CapacityState {
    policy: Box<dyn CapacityPolicy>,
    map: ParamSegmentMap,
}

/// Policy-driven synchronous round runtime. One round: select → broadcast
/// → local training → compress/uplink under faults → screen → aggregate;
/// Eq. 3 round time (the slowest delivered participant gates the round).
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
    parallel: bool,
    recorder: SharedRecorder,
    defense: Option<DefenseGate>,
    robust: Option<RobustAggregator>,
    capacity: Option<CapacityState>,
    crash_checkpoints: Vec<Option<Checkpoint>>,
    pool: WorkerPool,
    /// Parity knob: when set, streaming-eligible rounds buffer the
    /// updates and replay the identical folds at round end instead of
    /// folding at arrival (see [`SinkMode::BufferedFold`]).
    buffered_fold: bool,
}

impl SyncRuntime {
    /// Assembles a runtime from explicit parts and a policy bundle.
    ///
    /// # Panics
    ///
    /// Panics when shard/network/compute/fault sizes disagree with
    /// `config.clients` or any shard is empty.
    pub fn new(
        config: FlConfig,
        shards: Vec<Dataset>,
        test_set: Dataset,
        network: impl Into<FleetNetwork>,
        compute: ComputeModel,
        faults: FaultPlan,
        policies: SyncPolicies,
    ) -> Self {
        assert_eq!(shards.len(), config.clients, "shard count mismatch");
        let clients = FlClient::fleet(
            &config.model,
            shards,
            config.learning_rate,
            config.momentum,
            config.batch_size,
            config.seed_for("model"),
        );
        Self::with_fleet(
            config,
            Fleet::Resident(clients),
            test_set,
            network.into(),
            compute,
            faults,
            policies,
        )
    }

    /// Assembles a runtime whose per-client state lives in a
    /// cohort-resident [`ClientPool`] over `source` instead of one live
    /// [`FlClient`] per simulated client — O(cohort × model) instead of
    /// O(clients × model) memory, the fleet-scale configuration.
    ///
    /// Pooled fleets have no per-client persistent state, so two
    /// combinations are rejected here: crash faults (their checkpoints
    /// snapshot a specific resident client) and — by documentation rather
    /// than assertion — selection policies that probe individual clients
    /// (the [`SelectionCtx::clients`] slice is empty in pooled mode).
    ///
    /// # Panics
    ///
    /// Panics when `source` disagrees with `config.clients`, any
    /// fleet-shaped input disagrees in size, or the fault plan contains
    /// crash faults.
    pub fn new_pooled(
        config: FlConfig,
        source: Box<dyn ShardSource>,
        test_set: Dataset,
        network: impl Into<FleetNetwork>,
        compute: ComputeModel,
        faults: FaultPlan,
        policies: SyncPolicies,
    ) -> Self {
        assert_eq!(
            source.clients(),
            config.clients,
            "shard source size mismatch"
        );
        for c in 0..config.clients {
            assert!(
                !matches!(faults.kind(c), FaultKind::Crash { .. }),
                "crash faults require a resident fleet (client {c} crashes)"
            );
        }
        let pool = ClientPool::new(
            config.model.clone(),
            source,
            config.learning_rate,
            config.momentum,
            config.batch_size,
            config.seed_for("model"),
        );
        Self::with_fleet(
            config,
            Fleet::Pooled(pool),
            test_set,
            network.into(),
            compute,
            faults,
            policies,
        )
    }

    fn with_fleet(
        config: FlConfig,
        clients: Fleet,
        test_set: Dataset,
        network: FleetNetwork,
        mut compute: ComputeModel,
        faults: FaultPlan,
        mut policies: SyncPolicies,
    ) -> Self {
        assert_eq!(network.len(), config.clients, "network size mismatch");
        assert_eq!(
            compute.clients(),
            config.clients,
            "compute model size mismatch"
        );
        assert_eq!(faults.clients(), config.clients, "fault plan size mismatch");
        let mut global_model = config.model.build(config.seed_for("model"));
        let global = global_model.params_flat();
        // Re-evaluate to ensure consistency between server copy and fleet.
        global_model.set_params_flat(&global);
        policies.aggregation.init(global.len(), config.clients);
        policies.compression.init(global.len(), config.clients);
        // Stale clients run slower.
        for c in 0..config.clients {
            let slow = faults.slowdown(c);
            if slow > 1.0 {
                compute.scale_client(c, slow);
            }
        }
        SyncRuntime {
            io: RoundIo::new(network, config.clients),
            global_gradient: vec![0.0; global.len()],
            parallel: true,
            recorder: adafl_telemetry::noop(),
            defense: None,
            robust: None,
            capacity: None,
            crash_checkpoints: vec![None; config.clients],
            pool: WorkerPool::from_env_or_default(),
            buffered_fold: false,
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

    /// Enables or disables multi-threaded local training (on by default).
    /// Results are identical either way; this only affects wall-clock time.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Rebuilds the server worker pool with exactly `threads` workers
    /// (1 runs every pooled stage inline). Every pooled stage collects
    /// results in submission order, so histories, ledgers and traces are
    /// identical at any width; this only affects wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = WorkerPool::new(threads.max(1));
    }

    /// Replaces the compression policy (used by
    /// [`SyncEngine::set_compression`](crate::sync::SyncEngine::set_compression)).
    pub fn set_compression_policy(&mut self, mut policy: Box<dyn CompressionPolicy>) {
        policy.init(self.global.len(), self.config.clients);
        self.compression = policy;
    }

    /// Attaches a telemetry recorder, also wiring it into the simulated
    /// network so transfers are traced. Recording is strictly passive: it
    /// never touches the runtime's RNGs or the simulated clock, so traced
    /// and untraced runs produce identical histories.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.io.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Enables reliable transport: every broadcast and upload runs through
    /// a retry layer, and the ledger additionally charges retransmitted
    /// payload bytes and ACK control frames. Off by default.
    pub fn set_retry_policy(&mut self, policy: ReliablePolicy) {
        self.io.set_retry_policy(
            policy,
            self.config.seed_for("transport"),
            self.recorder.clone(),
        );
    }

    /// Enables the defensive aggregation gate: updates are scrubbed and
    /// screened before aggregation, and rounds below the configured
    /// quorum are skipped with state carried forward. Off by default.
    pub fn set_defense(&mut self, cfg: DefenseConfig) {
        self.defense = Some(DefenseGate::new(cfg));
    }

    /// Enables Byzantine-robust pre-aggregation: after defense screening
    /// and before the aggregation policy, the cohort is replaced by the
    /// aggregator's robust estimate (see [`crate::robust`]). Off by
    /// default — plain weighted-mean aggregation.
    pub fn set_robust(&mut self, robust: RobustAggregator) {
        self.robust = Some(robust);
    }

    /// Enables heterogeneous-capacity training: each round the policy
    /// assigns every selected client a [`crate::submodel::CapacityTier`],
    /// the client receives only the matching parameter [`SubView`] (the
    /// downlink is charged at view size plus the descriptor header, not
    /// the full model), trains with gradients masked to the view, and
    /// uploads a view-local update wrapped in a sub-view payload. The
    /// server then aggregates with the coverage-weighted fold (each
    /// coordinate averaged over the clients whose view covers it) and
    /// maintains `ĝ` from that fold. Off by default — without this call
    /// the classic full-broadcast path is byte-identical to before this
    /// feature existed.
    ///
    /// Compose with stateless compression only: policies carrying
    /// per-client dimension-bound state (top-k error feedback, adaptive
    /// DGC) assume full-width deltas and will reject view-local lengths.
    /// The aggregation policy's `aggregate` is bypassed in favour of the
    /// coverage fold; its gradient hook and `after_local_round` (fed the
    /// densified delta) still run, so FedProx/SCAFFOLD-style local
    /// regularisation composes with capacity tiers.
    pub fn set_capacity(&mut self, policy: Box<dyn CapacityPolicy>) {
        let map = self.global_model.segment_map();
        self.capacity = Some(CapacityState { policy, map });
    }

    /// Parity knob for the streaming path: when enabled,
    /// streaming-eligible rounds buffer their updates and replay the
    /// identical fold calls at round end ([`SinkMode::BufferedFold`])
    /// instead of folding at arrival. Results are bitwise identical to
    /// streaming by construction; the `streaming_parity` test runs both
    /// and asserts exactly that. Off by default.
    pub fn set_buffered_fold(&mut self, on: bool) {
        self.buffered_fold = on;
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

    /// Which sink behaviour rounds currently use. Streaming is strictly
    /// opt-in: it requires cohort scheduling (`cohort_size`), a policy
    /// that declares streaming support, and none of the stages that need
    /// the whole cohort side by side (defense gate, robust
    /// pre-aggregation, capacity tiers). Everything else stays on the
    /// legacy buffer-everything path, byte-identical to before the sink
    /// existed.
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
    /// before running.
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

        // Heterogeneous capacity: assign each participant a tier and cut
        // its parameter sub-view for this round, indexed by cohort rank.
        // `None` leaves the classic full-broadcast path byte-identical.
        let cap_round: Option<Vec<(SubView, ViewDescriptor)>> = self.capacity.as_mut().map(|cap| {
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

        let dense_bytes = dense_wire_size(self.global.len());
        let mut round_time = SimTime::ZERO;
        let mut deadline_hit = false;
        let tracing = self.recorder.enabled();
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

        let effective_lr = self.config.learning_rate / (1.0 - self.config.momentum);
        // Scratch for densifying view-local deltas (capacity mode only):
        // stateful aggregation policies see full-width deltas with zeros
        // outside the client's view.
        let mut densified: Vec<f32> = Vec::new();

        // Cohort scheduling: participants run through phases 1–3 in
        // contiguous chunks of `cohort_size` — one chunk covering everyone
        // when unset, which is byte-identical to the pre-cohort monolithic
        // loop. Ranks stay global across chunks so capacity views and
        // upload contexts see the same cohort coordinates either way.
        let chunk_size = self.config.cohort_size.unwrap_or(participants.len()).max(1);
        let mut chunk_start = 0;
        while chunk_start < participants.len() {
            let chunk_end = (chunk_start + chunk_size).min(participants.len());
            let chunk = &participants[chunk_start..chunk_end];

            // Phase 1 — broadcast the global model; clients whose
            // broadcast is lost sit the round out (unless reliable
            // transport saves it). The server pays for the broadcast
            // whether or not it lands.
            let mut ready: Vec<(usize, usize, SimTime)> = Vec::with_capacity(chunk.len());
            for (offset, &c) in chunk.iter().enumerate() {
                let rank = chunk_start + offset;
                let bytes = match &cap_round {
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

            // Phase 2 — local training, in parallel when enabled. Clients
            // are independent, so parallel execution is bit-identical to
            // sequential: outcomes come back in cohort order.
            let outcomes = self.train_ready(round, &ready, cap_round.as_deref());

            // Phase 3 — compression, fault gating, uplink and deadline
            // policy. Split into three passes so the per-frame codec work
            // fans across the worker pool without disturbing anything
            // order-sensitive:
            //
            //   A. policy bookkeeping and wire-form preparation, in cohort
            //      order (aggregation and compression policies are
            //      stateful);
            //   B. attack/corruption transforms on the encoded bytes —
            //      pure per-frame functions run across the pool, results
            //      collected in submission order;
            //   C. telemetry, uplink charging and deadline policy, in
            //      cohort order (the network RNG and the event stream are
            //      both order-pinned).
            //
            // Streamed telemetry (spans/events) is emitted only in pass C,
            // in the same per-client order as a single loop would; pass A
            // touches only aggregate counters/histograms, whose export is
            // order-free. Histories, ledgers and traces are byte-identical
            // at any pool width.
            let mut frames: Vec<UplinkFrame> = Vec::with_capacity(ready.len());
            let mut prepared: Vec<(SimTime, bool, bool)> = Vec::with_capacity(ready.len());
            for (&(rank, c, downlink_done), outcome) in ready.iter().zip(&outcomes) {
                let delta_full: &[f32] = match &cap_round {
                    Some(views) => {
                        densified.clear();
                        densified.resize(self.global.len(), 0.0);
                        views[rank].0.scatter(&outcome.delta, &mut densified);
                        &densified
                    }
                    None => &outcome.delta,
                };
                self.aggregation
                    .after_local_round(c, delta_full, outcome.steps, effective_lr);

                // Stale clients' slowdowns were folded into the compute
                // model at construction.
                let train_done =
                    downlink_done + self.compute.training_time(c, self.config.local_steps);
                let delivered = self.faults.update_delivered(c, round);
                let payload = {
                    let ctx = SyncUploadCtx {
                        round,
                        client: c,
                        rank,
                        cohort: participants.len(),
                        // Compression ratios are relative to what this
                        // client would send uncompressed: its view, not
                        // the model.
                        dense_bytes: match &cap_round {
                            Some(views) => dense_wire_size(views[rank].0.view_len()),
                            None => dense_bytes,
                        },
                        delivered,
                        tracing,
                        recorder: &self.recorder,
                    };
                    self.compression.prepare(&ctx, &outcome.delta)
                };
                let payload = payload.map(|inner| match &cap_round {
                    Some(views) => UpdatePayload::sub_view(views[rank].1.clone(), inner),
                    None => inner,
                });
                let has_frame = payload.is_some();
                if let Some(payload) = payload {
                    frames.push(UplinkFrame {
                        payload,
                        // Byzantine clients poison the *encoded bytes*
                        // before upload: well-formed frames carrying
                        // adversarial values, invisible to the decoder —
                        // stopping them is the robust stage's job.
                        attack: self
                            .faults
                            .attacks_update(c)
                            .map(|kind| (kind, self.faults.collusion_seed(round))),
                        // Corruption faults flip the update's *encoded
                        // bytes* in transit. Dense and sparse frames
                        // re-parse with poisoned values the defensive gate
                        // must catch; packed frames may stop parsing
                        // entirely, which the server counts as a decode
                        // rejection when the bytes arrive.
                        corrupt: self.faults.corrupts_update(c),
                    });
                }
                prepared.push((train_done, delivered, has_frame));
            }

            let mut processed = process_uplink_frames(&self.pool, frames).into_iter();

            for ((&(_, c, downlink_done), outcome), &(train_done, delivered, has_frame)) in
                ready.iter().zip(&outcomes).zip(&prepared)
            {
                if tracing {
                    self.recorder.span(
                        SpanRecord::new(
                            names::SPAN_CLIENT_COMPUTE,
                            downlink_done.seconds(),
                            train_done.seconds(),
                        )
                        .round(round)
                        .client(c)
                        .field("steps", outcome.steps),
                    );
                }
                if !has_frame {
                    debug_assert!(!delivered, "policies only drop undelivered updates");
                    if tracing {
                        self.recorder.counter_add(names::FL_DROPOUTS, 1);
                        self.recorder.event(
                            EventRecord::new(names::EVENT_DROPOUT, train_done.seconds())
                                .round(round)
                                .client(c),
                        );
                    }
                    continue;
                }
                let frame = processed
                    .next()
                    .expect("one processed frame per prepared frame");
                if let Some(kind) = frame.attacked {
                    if tracing {
                        self.recorder.counter_add(names::FL_ATTACKS, 1);
                        self.recorder.event(
                            EventRecord::new(names::EVENT_ATTACK, train_done.seconds())
                                .round(round)
                                .client(c)
                                .field("kind", kind.as_str()),
                        );
                    }
                }
                if frame.corrupted && tracing {
                    self.recorder.counter_add(names::FL_CORRUPTIONS, 1);
                    self.recorder.event(
                        EventRecord::new(names::EVENT_CORRUPTION, train_done.seconds())
                            .round(round)
                            .client(c),
                    );
                }
                let delivery = self.io.uplink_update(c, &frame.payload, train_done);
                match delivery.arrival {
                    Some(arrival) => {
                        let elapsed = arrival - self.clock;
                        if self.enforce_deadline {
                            if let Some(deadline) = self.config.round_deadline {
                                // §III max-wait-time policy: the server
                                // drops updates arriving after the
                                // deadline.
                                if elapsed.seconds() > deadline {
                                    deadline_hit = true;
                                    if tracing {
                                        self.recorder.counter_add(names::FL_DEADLINE_MISSES, 1);
                                        self.recorder.event(
                                            EventRecord::new(
                                                names::EVENT_DEADLINE_MISS,
                                                arrival.seconds(),
                                            )
                                            .round(round)
                                            .client(c)
                                            .field("elapsed_seconds", elapsed.seconds()),
                                        );
                                    }
                                    continue;
                                }
                            }
                        }
                        round_time = round_time.max(elapsed);
                        if let Some(err) = frame.decode_error {
                            // The bytes travelled, were charged and gated
                            // the round clock, but the server cannot parse
                            // them: the update is dropped before the
                            // defense gate ever sees values.
                            if tracing {
                                self.recorder.counter_add(names::FL_DECODE_REJECTIONS, 1);
                                self.recorder.event(
                                    EventRecord::new(names::EVENT_DECODE_REJECT, arrival.seconds())
                                        .round(round)
                                        .client(c)
                                        .field("error", err.to_string()),
                                );
                            }
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
                    None => continue,
                }
            }

            chunk_start = chunk_end;
        }

        // Eq. 3: the round completes when the slowest delivered participant
        // finishes; when the deadline fired, the server waited exactly that
        // long; a round with no delivered update costs the wait timeout.
        if deadline_hit {
            self.clock += SimTime::from_seconds(
                self.config
                    .round_deadline
                    .expect("deadline_hit implies a deadline"),
            );
        } else if sink.delivered() == 0 {
            self.clock += SimTime::from_seconds(0.5);
        } else {
            self.clock += round_time;
        }

        let delivered = match sink.mode() {
            SinkMode::Legacy => {
                let updates = sink.into_buffered();
                let updates = self.screen_updates(round, updates, participants.len());
                let delivered = updates.len();
                // Capacity feedback: score each surviving update's
                // alignment with the previous round's aggregate direction
                // (ĝ) so adaptive policies can promote well-aligned
                // clients and demote noisy ones.
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
                if !updates.is_empty() {
                    match &self.capacity {
                        Some(_) => {
                            // Coverage-weighted fold: each coordinate is
                            // averaged over the clients whose views cover
                            // it; with all full-width clients this is
                            // bitwise FedAvg. The fold doubles as the `ĝ`
                            // digest read back by `observe`.
                            if let Some(mean) = coverage_weighted_fold(self.global.len(), &updates)
                            {
                                vecops::axpy(&mut self.global, 1.0, &mean);
                                self.global_gradient.copy_from_slice(&mean);
                            }
                        }
                        None => self.aggregation.aggregate(
                            &mut self.global,
                            &mut self.global_gradient,
                            updates,
                        ),
                    }
                }
                delivered
            }
            SinkMode::Streaming | SinkMode::BufferedFold => {
                let delivered = sink.delivered();
                if let Some((merged, charges)) = sink.finish(&mut *self.aggregation) {
                    // Hierarchical tier: each active edge ships one dense
                    // partial to the server, charged to its lead client
                    // through the relay-byte machinery. A flat topology
                    // (edge_aggregators == 0) ships nothing extra — the
                    // server-side accumulator is free.
                    if self.config.edge_aggregators > 0 {
                        let partial_bytes = dense_wire_size(self.global.len());
                        for &(lead, _) in &charges {
                            self.io.ledger_mut().record_relay(lead, partial_bytes);
                        }
                    }
                    self.aggregation
                        .finish(&mut self.global, &mut self.global_gradient, &merged);
                }
                delivered
            }
        };
        if tracing {
            let (start, end) = (round_start.seconds(), self.clock.seconds());
            self.recorder
                .histogram_record(names::ROUND_SIM_SECONDS, end - start);
            let span = SpanRecord::new(names::SPAN_ROUND, start, end)
                .round(round)
                .wall(self.recorder.wall_micros().saturating_sub(wall_start))
                .field("participants", participants.len())
                .field("delivered", delivered);
            self.recorder
                .span(self.selection.annotate_round_span(round, span));
        }
        delivered
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
        if self.defense.is_none() {
            return updates;
        }
        let tracing = self.recorder.enabled();
        let now = self.clock.seconds();
        // Scrub + norm-screen in parallel: `sanitize` takes `&self` and
        // touches only its own update's values, and `scope_run` collects in
        // submission order, so the verdicts are identical at any pool
        // width. Telemetry is replayed sequentially below, in the original
        // update order.
        let screened: Vec<Result<Sanitized, RejectReason>> = {
            let gate = self.defense.as_ref().expect("checked above");
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
                    if tracing && s.scrubbed > 0 {
                        self.recorder
                            .counter_add(names::FL_DEFENSE_SCRUBBED, s.scrubbed as u64);
                    }
                    norms.push(s.norm);
                    kept.push(u);
                }
                Err(reason) => {
                    if tracing {
                        self.recorder.counter_add(names::FL_DEFENSE_REJECTIONS, 1);
                        self.recorder.event(
                            EventRecord::new(names::EVENT_DEFENSE_REJECT, now)
                                .round(round)
                                .client(u.client)
                                .field("reason", reason.label()),
                        );
                    }
                }
            }
        }
        let verdicts = self
            .defense
            .as_mut()
            .expect("checked above")
            .admit_batch(&norms);
        let mut out: Vec<RoundUpdate> = Vec::with_capacity(kept.len());
        for (u, ok) in kept.into_iter().zip(verdicts) {
            if ok {
                out.push(u);
            } else if tracing {
                self.recorder.counter_add(names::FL_DEFENSE_REJECTIONS, 1);
                self.recorder.event(
                    EventRecord::new(names::EVENT_DEFENSE_REJECT, now)
                        .round(round)
                        .client(u.client)
                        .field("reason", "norm_outlier"),
                );
            }
        }
        let gate = self.defense.as_ref().expect("checked above");
        if !gate.quorum_met(out.len(), expected) {
            if tracing {
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
            match key {
                Some(desc) => {
                    // Unwrap to the view-local inner payloads, estimate at
                    // view width, then re-wrap under the shared descriptor.
                    let inner: Vec<RoundUpdate> = group
                        .into_iter()
                        .map(|u| RoundUpdate {
                            client: u.client,
                            weight: u.weight,
                            payload: match u.payload {
                                UpdatePayload::SubView { inner, .. } => *inner,
                                _ => unreachable!("grouped under Some descriptor"),
                            },
                        })
                        .collect();
                    let (est, stats) =
                        robust.pre_aggregate_with(desc.view_len(), inner, Some(pool));
                    total.input += stats.input;
                    total.output += stats.output;
                    total.rejected += stats.rejected;
                    total.trimmed_values += stats.trimmed_values;
                    out.extend(est.into_iter().map(|u| RoundUpdate {
                        client: u.client,
                        weight: u.weight,
                        payload: UpdatePayload::sub_view(desc.clone(), u.payload),
                    }));
                }
                None => {
                    let (est, stats) = robust.pre_aggregate_with(dense_len, group, Some(pool));
                    total.input += stats.input;
                    total.output += stats.output;
                    total.rejected += stats.rejected;
                    total.trimmed_values += stats.trimmed_values;
                    out.extend(est);
                }
            }
        }
        (out, total)
    }

    /// Trains the broadcast-ready clients, returning outcomes in the same
    /// (cohort) order. Parallel across the pool when enabled — clients are
    /// mutually independent during local training, so results do not
    /// depend on scheduling. When `views` is set (capacity mode), each
    /// ready client trains on its rank's sub-view of the global vector
    /// instead of the full model.
    fn train_ready(
        &mut self,
        round: usize,
        ready: &[(usize, usize, SimTime)],
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
                    if use_hook {
                        let mut hook = |grad: &mut [f32], params: &[f32], g: &[f32]| {
                            aggregation.gradient_hook(c, grad, params, g);
                        };
                        match view {
                            Some(view) => {
                                let values = view.extract(global);
                                client.train_local_view(view, &values, steps, Some(&mut hook))
                            }
                            None => client.train_local(global, steps, Some(&mut hook)),
                        }
                    } else {
                        match view {
                            Some(view) => {
                                let values = view.extract(global);
                                client.train_local_view(view, &values, steps, None)
                            }
                            None => client.train_local(global, steps, None),
                        }
                    }
                }) as Box<_>
            })
            .collect();

        if self.parallel {
            // Persistent pool instead of per-round thread spawning; results
            // come back in submission (cohort) order, so parallel and
            // sequential runs stay byte-identical.
            self.pool.scope_run(jobs)
        } else {
            jobs.into_iter().map(|job| job()).collect()
        }
    }
}
