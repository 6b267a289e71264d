//! The synchronous driver: one round at a time over a [`ServerCore`].
//!
//! Owns what only a round schedule has — the fleet, the worker pool, the
//! simulated clock, crash checkpoints and the per-round cohort — and
//! delegates the three flavour-specific decisions to a [`SyncPolicies`]
//! bundle and everything between arrival and aggregation to
//! [`ServerStages`].
//!
//! [`SyncRuntime::run_round`] drives one phase function per stage of the
//! round: `select_cohort`, then per cohort chunk `broadcast_chunk` →
//! `train_ready` → `encode_chunk` → `uplink_chunk`, then `advance_clock`
//! and `ServerStages::run_cohort` or `aggregate_folded`.

use super::baseline::{RandomSelection, StaticCompressionPolicy, StrategyAggregation};
use super::core::ServerCore;
use super::emit::{self, At};
use super::io::{ProcessedFrame, UplinkFrame, EMPTY_ROUND_WAIT_SECONDS};
use super::payload::{RoundUpdate, UpdatePayload};
use super::policy::{
    AggregationPolicy, CompressionPolicy, SelectionCtx, SelectionPolicy, StreamAccumulator,
    SyncUploadCtx,
};
use super::sink::{Closed, SinkMode, UpdateSink};
use super::stages::{Cohort, ServerStages};
use crate::checkpoint::Checkpoint;
use crate::client::{Device, GradientHook, LocalOutcome, Trainer, Trainers};
use crate::config::FlConfig;
use crate::faults::FaultKind;
use crate::fleet::Fleet;
use crate::history::RunHistory;
use crate::ledger::CommunicationLedger;
use crate::pool::WorkerPool;
use crate::sync::{StaticCompression, SyncStrategy};
use adafl_compression::{dense_wire_size, ViewDescriptor, WireCodec};
use adafl_netsim::SimTime;
use adafl_nn::SubView;
use adafl_telemetry::{names, EventRecord, SpanRecord};
use std::collections::BTreeMap;
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

/// One participant whose broadcast landed, on its way through a cohort
/// chunk: `broadcast_chunk` creates the record and each later phase fills
/// in what it learns.
#[derive(Debug)]
struct Participant {
    /// Position in the round's cohort, global across chunks.
    rank: usize,
    client: usize,
    downlink_done: SimTime,
    /// `train_ready`: the local training result.
    outcome: LocalOutcome,
    /// `encode_chunk`: when training finished on the simulated clock.
    train_done: SimTime,
    /// `encode_chunk`: whether the fault plan delivers this update.
    delivered: bool,
    /// `encode_chunk`: the uplink after the wire-fault transform; `None`
    /// when the compression policy dropped the update.
    frame: Option<ProcessedFrame>,
}

/// Policy-driven synchronous round runtime. One round: select → broadcast
/// → local training → compress/uplink under faults → screen → aggregate;
/// Eq. 3 round time (the slowest delivered participant gates the round).
///
/// Constructed and configured only through
/// [`RuntimeBuilder`](super::RuntimeBuilder); once built, its
/// configuration is final.
#[derive(Debug)]
pub struct SyncRuntime {
    core: ServerCore,
    stages: ServerStages,
    clients: Fleet,
    selection: Box<dyn SelectionPolicy>,
    compression: Box<dyn CompressionPolicy>,
    aggregation: Box<dyn AggregationPolicy>,
    enforce_deadline: bool,
    clock: SimTime,
    /// One slot per client whose fault-plan entry is a crash, holding its
    /// state snapshot while it is down.
    crash_checkpoints: BTreeMap<usize, Option<Checkpoint>>,
    pool: WorkerPool,
    /// One warm trainer per pool thread: the compute every device's
    /// training and probe jobs borrow.
    trainers: Trainers,
    /// Parity reference: streaming-eligible rounds buffer the updates and
    /// replay the identical folds at round end instead of folding at
    /// arrival (see [`SinkMode::BufferedFold`]).
    buffered_fold: bool,
}

impl SyncRuntime {
    /// Puts the synchronous schedule on top of a server: the fleet the
    /// builder made (resident or cohort-pooled), the policy bundle, the
    /// pool width (`None` sizes it to the host) and the parity flag.
    pub(super) fn new(
        core: ServerCore,
        stages: ServerStages,
        clients: Fleet,
        mut policies: SyncPolicies,
        threads: Option<usize>,
        buffered_fold: bool,
    ) -> Self {
        let (dim, fleet) = (core.global.len(), core.config.clients);
        policies.aggregation.init(dim, fleet);
        policies.compression.init(dim, fleet);
        SyncRuntime {
            crash_checkpoints: (0..fleet)
                .filter(|&c| matches!(core.faults.kind(c), FaultKind::Crash { .. }))
                .map(|c| (c, None))
                .collect(),
            pool: match threads {
                Some(threads) => WorkerPool::new(threads.max(1)),
                None => WorkerPool::with_default_size(),
            },
            trainers: Trainers::new(core.config.model.clone(), core.config.seed_for("model")),
            buffered_fold,
            selection: policies.selection,
            compression: policies.compression,
            aggregation: policies.aggregation,
            enforce_deadline: policies.enforce_deadline,
            core,
            stages,
            clients,
            clock: SimTime::ZERO,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &FlConfig {
        &self.core.config
    }

    /// Whether this fleet's per-client state is cohort-pooled.
    pub fn is_pooled(&self) -> bool {
        self.clients.is_pooled()
    }

    /// Live [`Device`]s currently resident — the whole fleet for
    /// resident storage, the peak cohort seen so far for pooled storage.
    pub fn resident_clients(&self) -> usize {
        self.clients.resident_count()
    }

    /// Which sink behaviour rounds use. Streaming is strictly opt-in: it
    /// requires cohort scheduling (`cohort_size`), a policy that declares
    /// streaming support, and no stage that needs the whole cohort side by
    /// side. Everything else stays on the legacy buffer-everything path,
    /// byte-identical to before the sink existed.
    pub fn sink_mode(&self) -> SinkMode {
        let eligible = self.core.config.cohort_size.is_some()
            && self.aggregation.supports_streaming()
            && !self.stages.needs_cohort();
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
        self.core.io.ledger()
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.core.global
    }

    /// Current global-gradient digest (`ĝ`); all zeros for flavours that
    /// do not maintain it.
    pub fn global_gradient(&self) -> &[f32] {
        &self.core.global_gradient
    }

    /// Installs global parameters (e.g. restored from a [`Checkpoint`])
    /// before running — state, not configuration, and so the one thing a
    /// built runtime lets a caller set.
    ///
    /// # Panics
    ///
    /// Panics when `params.len()` differs from the model's parameter count.
    pub fn set_global_params(&mut self, params: &[f32]) {
        self.core.set_global_params(params);
    }

    /// Current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Runs all configured rounds, returning the evaluation history.
    pub fn run(&mut self) -> RunHistory {
        let mut history = RunHistory::new(self.aggregation.label());
        for round in 0..self.core.config.rounds {
            let contributors = self.run_round(round);
            self.core.evaluate_into(
                &mut history,
                round,
                self.clock,
                contributors,
                Some(&self.pool),
            );
        }
        history
    }

    /// Runs one round; returns the number of updates that reached the
    /// server (post-screening).
    pub fn run_round(&mut self, round: usize) -> usize {
        self.handle_crashes(round);
        let mut r = self.select_cohort(round);
        let round_start = self.clock;
        let wall_start = self.core.recorder.wall_micros();

        // The round's update sink: legacy rounds buffer everything for the
        // screen → robust → aggregate chain; streaming-eligible rounds
        // fold each update into edge accumulators the moment it arrives,
        // so server memory stays O(model × edges) regardless of fleet
        // size.
        let mut sink = UpdateSink::new(
            self.sink_mode(),
            self.core.global.len(),
            self.core.config.edge_aggregators,
        );

        // Cohort scheduling: participants run through broadcast → train →
        // encode → uplink in contiguous chunks of `cohort_size` — one
        // chunk covering everyone when unset, which is byte-identical to
        // the pre-cohort monolithic loop. Ranks stay global across chunks
        // so capacity views and upload contexts see the same cohort
        // coordinates either way.
        let cohort = r.participants.len();
        let chunk_size = self.core.config.cohort_size.unwrap_or(cohort).max(1);
        for start in (0..cohort).step_by(chunk_size) {
            let mut chunk = self.broadcast_chunk(&r, start..(start + chunk_size).min(cohort));
            self.train_ready(&r, &mut chunk);
            self.encode_chunk(&mut r, &mut chunk);
            self.uplink_chunk(&mut r, &mut sink, chunk);
        }

        self.advance_clock(&r, sink.delivered());
        let delivered = match sink.close(&mut *self.aggregation) {
            Closed::Buffered(updates) => self.stages.run_cohort(
                &mut self.core,
                &self.pool,
                &mut *self.aggregation,
                Cohort {
                    round,
                    closed_at: self.clock,
                    expected: cohort,
                    updates,
                },
            ),
            Closed::Folded(folded) => self.aggregate_folded(folded),
        };
        if r.tracing {
            let (start, end) = (round_start.seconds(), self.clock.seconds());
            let recorder = &self.core.recorder;
            recorder.histogram_record(names::ROUND_SIM_SECONDS, end - start);
            let span = SpanRecord::new(names::SPAN_ROUND, start, end)
                .round(round)
                .wall(recorder.wall_micros().saturating_sub(wall_start))
                .field("participants", cohort)
                .field("delivered", delivered);
            recorder.span(self.selection.annotate_round_span(round, span));
        }
        delivered
    }

    /// Selection: asks the policy for this round's participants, drops the
    /// crashed ones, and — in capacity mode — has the stages cut each one's
    /// parameter sub-view, indexed by cohort rank.
    fn select_cohort(&mut self, round: usize) -> Round {
        // The selection RNG is consumed identically with or without crash
        // faults; crashed clients are filtered after sampling.
        let participants: Vec<usize> = {
            let mut ctx = SelectionCtx {
                round,
                clock: self.clock,
                config: &self.core.config,
                devices: self.clients.resident_mut(),
                trainers: &mut self.trainers,
                io: &mut self.core.io,
                global: &self.core.global,
                global_gradient: &self.core.global_gradient,
                recorder: &self.core.recorder,
                pool: &self.pool,
            };
            self.selection.select(&mut ctx)
        }
        .into_iter()
        .filter(|&c| !self.core.faults.crashed(c, round))
        .collect();
        Round {
            index: round,
            views: self.stages.assign_views(round, &participants),
            participants,
            tracing: self.core.recorder.enabled(),
            round_time: SimTime::ZERO,
            deadline_fired: None,
            densified: Vec::new(),
        }
    }

    /// Broadcast: sends the global model to the participants ranked
    /// `ranks`; clients whose broadcast is lost sit the round out (unless
    /// reliable transport saves it). The server pays for the broadcast
    /// whether or not it lands.
    fn broadcast_chunk(&mut self, r: &Round, ranks: Range<usize>) -> Vec<Participant> {
        let dense_bytes = dense_wire_size(self.core.global.len());
        let mut chunk: Vec<Participant> = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let client = r.participants[rank];
            let bytes = match &r.views {
                // A tiered client receives only its view's values plus
                // the descriptor naming them — never the full model.
                Some(views) => {
                    let (view, desc) = &views[rank];
                    dense_wire_size(view.view_len()) + desc.encoded_len()
                }
                None => dense_bytes,
            };
            let delivery = self.core.io.downlink(client, bytes, self.clock, true);
            if let Some(downlink_done) = delivery.arrival {
                chunk.push(Participant {
                    rank,
                    client,
                    downlink_done,
                    outcome: LocalOutcome::default(),
                    train_done: downlink_done,
                    delivered: false,
                    frame: None,
                });
            }
        }
        chunk
    }

    /// Encode: policy bookkeeping and wire-form preparation in cohort
    /// order (aggregation and compression policies are stateful), then the
    /// wire-fault transform of each frame. A frame with no attack and no
    /// corruption is processed inline — its transform is a move, cheaper
    /// than a pool job (256 identity jobs cost `fleet_100k_stream` 14–25 ms
    /// a repetition on two workers, against 0.9 ms inline). Only frames an
    /// attack or a corruption rewrites go across the pool, and their
    /// results are written back by cohort index. Each transform is a pure
    /// function of its own frame, so the records are byte-identical at any
    /// pool width and whichever side ran it. Unlike the training jobs,
    /// these sub-microsecond jobs hand their result back rather than store
    /// it in the record themselves: with two workers writing neighbouring
    /// records at that rate `fleet_100k_stream` read 2–8 % fewer updates
    /// per second in seven of seven paired runs. Only aggregate
    /// counters/histograms are touched here, whose export is order-free;
    /// streamed telemetry waits for `uplink_chunk`.
    fn encode_chunk(&mut self, r: &mut Round, chunk: &mut [Participant]) {
        let round = r.index;
        let local_steps = self.core.config.local_steps;
        let dense_bytes = dense_wire_size(self.core.global.len());
        let effective_lr = self.core.config.learning_rate / (1.0 - self.core.config.momentum);
        let mut jobs: Vec<Box<dyn FnOnce() -> ProcessedFrame + Send>> = Vec::new();
        let mut dispatched: Vec<usize> = Vec::new();
        for (idx, p) in chunk.iter_mut().enumerate() {
            let c = p.client;
            let view = r.views.as_ref().map(|views| &views[p.rank]);
            let delta_full: &[f32] = match view {
                Some((view, _)) => {
                    r.densified.clear();
                    r.densified.resize(self.core.global.len(), 0.0);
                    view.scatter(&p.outcome.delta, &mut r.densified);
                    &r.densified
                }
                None => &p.outcome.delta,
            };
            self.aggregation
                .after_local_round(c, delta_full, p.outcome.steps, effective_lr);

            // Stale clients' slowdowns were folded into the compute model
            // at construction.
            p.train_done = p.downlink_done + self.core.compute.training_time(c, local_steps);
            p.delivered = self.core.faults.update_delivered(c, round);
            let ctx = SyncUploadCtx {
                round,
                client: c,
                rank: p.rank,
                cohort: r.participants.len(),
                // Compression ratios are relative to what this client
                // would send uncompressed: its view, not the model.
                dense_bytes: view.map_or(dense_bytes, |(v, _)| dense_wire_size(v.view_len())),
                delivered: p.delivered,
                tracing: r.tracing,
                recorder: &self.core.recorder,
            };
            let payload =
                self.compression
                    .prepare(&ctx, &p.outcome.delta)
                    .map(|inner| match view {
                        Some((_, desc)) => UpdatePayload::sub_view(desc.clone(), inner),
                        None => inner,
                    });
            match payload.map(|payload| self.core.uplink_frame(c, payload, round)) {
                Some(frame) if frame.attack.is_some() || frame.corrupt.is_some() => {
                    dispatched.push(idx);
                    jobs.push(Box::new(move || frame.process()));
                }
                frame => p.frame = frame.map(UplinkFrame::process),
            }
        }
        for (idx, frame) in dispatched.into_iter().zip(self.pool.scope_run(jobs)) {
            chunk[idx].frame = Some(frame);
        }
    }

    /// Uplink: telemetry, ledger charging, the deadline policy and the
    /// sink, in cohort order — the network RNG and the event stream are
    /// both order-pinned, so spans and events are emitted here in the
    /// same per-client order as a single loop would. Histories, ledgers
    /// and traces are byte-identical at any pool width.
    fn uplink_chunk(&mut self, r: &mut Round, sink: &mut UpdateSink, chunk: Vec<Participant>) {
        let round = Some(r.index);
        let recorder = &self.core.recorder;
        let deadline = self.core.config.round_deadline;
        let deadline = deadline.filter(|_| self.enforce_deadline);
        for p in chunk {
            let c = p.client;
            if r.tracing {
                recorder.span(
                    SpanRecord::new(
                        names::SPAN_CLIENT_COMPUTE,
                        p.downlink_done.seconds(),
                        p.train_done.seconds(),
                    )
                    .round(r.index)
                    .client(c)
                    .field("steps", p.outcome.steps),
                );
            }
            let sent = At {
                round,
                client: c,
                seconds: p.train_done.seconds(),
            };
            let Some(frame) = p.frame else {
                debug_assert!(!p.delivered, "policies only drop undelivered updates");
                if r.tracing {
                    recorder.counter_add(names::FL_DROPOUTS, 1);
                    recorder.event(
                        EventRecord::new(names::EVENT_DROPOUT, sent.seconds)
                            .round(r.index)
                            .client(c),
                    );
                }
                continue;
            };
            if let Some(kind) = frame.attacked {
                emit::attack(recorder, sent, kind);
            }
            if frame.corrupted {
                emit::corruption(recorder, sent);
            }
            let delivery = self.core.io.uplink_update(c, &frame.payload, p.train_done);
            let Some(arrival) = delivery.arrival else {
                continue;
            };
            let elapsed = arrival - self.clock;
            // §III max-wait-time policy: the server drops updates arriving
            // after the deadline.
            if let Some(deadline) = deadline.filter(|&d| elapsed.seconds() > d) {
                r.deadline_fired = Some(deadline);
                if r.tracing {
                    recorder.counter_add(names::FL_DEADLINE_MISSES, 1);
                    recorder.event(
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
                emit::decode_reject(recorder, arrived, &err);
                continue;
            }
            sink.accept(
                &mut *self.aggregation,
                RoundUpdate {
                    client: c,
                    payload: frame.payload,
                    weight: p.outcome.num_samples as f32,
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
        let core = &mut self.core;
        // Hierarchical tier: each active edge ships one dense partial to
        // the server, charged to its lead client through the relay-byte
        // machinery. A flat topology (edge_aggregators == 0) ships nothing
        // extra — the server-side accumulator is free.
        if core.config.edge_aggregators > 0 {
            let partial_bytes = dense_wire_size(core.global.len());
            for &(lead, _) in &charges {
                core.io.ledger_mut().record_relay(lead, partial_bytes);
            }
        }
        self.aggregation
            .finish(&mut core.global, &mut core.global_gradient, &merged);
        merged.count
    }

    /// Crash-fault bookkeeping at the top of a round, over the clients
    /// whose plan entry is a crash: snapshot a device's replica into a
    /// [`Checkpoint`] the round its outage begins, restore it from the
    /// decoded checkpoint the round it comes back. A pooled device keeps
    /// no replica — it trains from the global model — so a pooled client
    /// has no state to snapshot or restore: only the events are emitted,
    /// and `select_cohort` keeps it out for the outage.
    fn handle_crashes(&mut self, round: usize) {
        let recorder = &self.core.recorder;
        let tracing = recorder.enabled();
        let now = self.clock.seconds();
        for (&c, saved) in &mut self.crash_checkpoints {
            let FaultKind::Crash { at_round, .. } = self.core.faults.kind(c) else {
                continue;
            };
            let resident = self.clients.resident_device(c);
            if round == at_round {
                *saved = resident
                    .and_then(|device| device.replica())
                    .map(|replica| Checkpoint::new(round as u64, replica.to_vec()));
                if tracing {
                    recorder.counter_add(names::FL_CRASHES, 1);
                    recorder.event(
                        EventRecord::new(names::EVENT_CRASH, now)
                            .round(round)
                            .client(c),
                    );
                }
            } else if self.core.faults.recovers_at(c, round) {
                // Recovery goes through the wire format: the device
                // restores from the decoded bytes, exactly as it would
                // from flash after a reboot.
                let restored = saved.take().and_then(|ckpt| {
                    let decoded = Checkpoint::decode(&ckpt.encode());
                    debug_assert!(decoded.is_ok(), "checkpoint round-trips");
                    decoded.ok()
                });
                let checkpoint_round = match (resident, restored) {
                    (Some(device), Some(restored)) => {
                        device.restore(&restored.params);
                        restored.round as usize
                    }
                    (Some(_), None) => continue,
                    (None, _) => at_round,
                };
                if tracing {
                    recorder.counter_add(names::FL_RECOVERIES, 1);
                    recorder.event(
                        EventRecord::new(names::EVENT_RECOVERY, now)
                            .round(round)
                            .client(c)
                            .field("checkpoint_round", checkpoint_round),
                    );
                }
            }
        }
    }

    /// Trains the chunk's devices across the pool: one job per device,
    /// each on a warm trainer from [`Trainers::run`], writing its own
    /// record's outcome. Devices are mutually independent during local
    /// training and a trainer carries nothing between them, so results do
    /// not depend on scheduling and runs are byte-identical at any pool
    /// width. A pooled device is bound to its client inside its job, so
    /// the shard fetch runs on the pool too. In capacity mode each device
    /// trains on its rank's sub-view of the global vector instead of the
    /// full model.
    fn train_ready(&mut self, r: &Round, chunk: &mut [Participant]) {
        let steps = self.core.config.local_steps;
        let aggregation = &self.aggregation;
        let use_hook = aggregation.uses_gradient_hook();
        let global = &self.core.global;
        let (round, ready) = (r.index as u64, chunk.len());
        // One device per record, in chunk (cohort) order.
        let (items, binder): (Vec<(&mut Participant, &mut Device)>, _) = match &mut self.clients {
            Fleet::Resident(devices) => {
                // Per-id slots (O(N), not an O(N²) contains scan) so each
                // ready client's &mut is taken exactly once — in cohort
                // order, whatever that order is.
                let mut by_id: Vec<Option<&mut Device>> = devices.iter_mut().map(Some).collect();
                let items: Vec<_> = chunk
                    .iter_mut()
                    .filter_map(|p| {
                        let device = by_id[p.client].take()?;
                        Some((p, device))
                    })
                    .collect();
                (items, None)
            }
            Fleet::Pooled(pool) => {
                let ids: Vec<usize> = chunk.iter().map(|p| p.client).collect();
                let (devices, binder) = pool.lease(&ids);
                (chunk.iter_mut().zip(devices).collect(), Some(binder))
            }
        };
        debug_assert_eq!(items.len(), ready, "ready clients listed once");
        let work = |trainer: &mut Trainer, (p, device): (&mut Participant, &mut Device)| {
            let c = p.client;
            if let Some(binder) = &binder {
                binder.bind(device, c, round);
            }
            // Hooked or not, training is one loop and one float sequence;
            // the flag only skips a no-op call per step.
            let mut correct = |grad: &mut [f32], params: &[f32], g: &[f32]| {
                aggregation.gradient_hook(c, grad, params, g);
            };
            let hook: Option<GradientHook<'_>> = if use_hook { Some(&mut correct) } else { None };
            p.outcome = match r.views.as_ref().map(|v| &v[p.rank].0) {
                Some(view) => {
                    let values = view.extract(global);
                    trainer.train_local_view(device, view, &values, steps, hook)
                }
                None => trainer.train_local(device, global, steps, hook),
            };
        };
        self.trainers.run(&self.pool, items, work);
    }
}
