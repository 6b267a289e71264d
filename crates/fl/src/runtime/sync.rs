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
//! `train_and_drain`, then `advance_clock` and `ServerStages::run_cohort`
//! or `aggregate_folded`.

use super::baseline::{RandomSelection, StaticCompressionPolicy, StrategyAggregation};
use super::core::{EvalOn, ServerCore};
use super::emit::{self, At};
use super::io::{UplinkFrame, EMPTY_ROUND_WAIT_SECONDS};
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

/// One participant whose broadcast landed: what crosses from
/// `broadcast_chunk` to its training job and on to the drain.
#[derive(Debug, Clone, Copy)]
struct Participant {
    /// Position in the round's cohort, global across chunks.
    rank: usize,
    client: usize,
    downlink_done: SimTime,
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
    /// pool and the parity flag.
    pub(super) fn new(
        core: ServerCore,
        stages: ServerStages,
        clients: Fleet,
        mut policies: SyncPolicies,
        pool: WorkerPool,
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
            pool,
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
                EvalOn::Pool(&self.pool),
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

        // Cohort scheduling: participants run through broadcast → train
        // and drain in contiguous chunks of `cohort_size` — one chunk
        // covering everyone when unset, which is byte-identical to the
        // pre-cohort monolithic loop. Ranks stay global across chunks so
        // capacity views and upload contexts see the same cohort
        // coordinates either way.
        let cohort = r.participants.len();
        let chunk_size = self.core.config.cohort_size.unwrap_or(cohort).max(1);
        for start in (0..cohort).step_by(chunk_size) {
            let chunk = self.broadcast_chunk(&r, start..(start + chunk_size).min(cohort));
            self.train_and_drain(&mut r, &mut sink, chunk);
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
                });
            }
        }
        chunk
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
    /// decoded checkpoint the round it comes back. A device without a
    /// replica — a pooled one, or a resident one whose run reads none —
    /// trains from the global model, so it has no state to snapshot or
    /// restore: only the events are emitted, with the outage's first round
    /// as the checkpoint round, and `select_cohort` keeps it out for the
    /// outage.
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
                    _ => at_round,
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

    /// Trains the chunk across the pool and drains it on the caller.
    ///
    /// One job per device, each on a warm trainer from
    /// [`Trainers::run_drain`], returns its participant's local outcome. A
    /// pooled device is bound to its client inside its job, so the shard
    /// fetch runs on the pool too; in capacity mode each device trains on
    /// its rank's sub-view of the global vector instead of the full model.
    /// Devices are mutually independent during local training and a
    /// trainer carries nothing between them, so outcomes do not depend on
    /// scheduling.
    ///
    /// The drain step runs once per participant on the caller, in cohort
    /// order, as soon as that participant's job and every earlier one are
    /// done, while the pool still trains the rest of the chunk: policy
    /// bookkeeping, the fault plan's draws, the wire form and its fault
    /// transform, telemetry, ledger charging, the deadline and the sink.
    /// All of it is order-pinned (stateful policies, the fault and network
    /// RNGs, the event stream) and none of it is read by a job, so
    /// histories, ledgers and traces are byte-identical at any pool width.
    /// A hooked aggregation policy (FedProx, SCAFFOLD) is read by every
    /// job, so its chunk drains through the same step after the scope.
    fn train_and_drain(&mut self, r: &mut Round, sink: &mut UpdateSink, chunk: Vec<Participant>) {
        let config = &self.core.config;
        let (steps, round) = (config.local_steps, r.index);
        let effective_lr = config.learning_rate / (1.0 - config.momentum);
        let deadline = config.round_deadline.filter(|_| self.enforce_deadline);
        let (global, views) = (&self.core.global, r.views.as_deref());
        let dense_bytes = dense_wire_size(global.len());
        let ready = chunk.len();
        // One device per participant, in chunk (cohort) order.
        let (items, binder): (Vec<(Participant, &mut Device)>, _) = match &mut self.clients {
            Fleet::Resident(devices) => {
                // Per-id slots (O(N), not an O(N²) contains scan) so each
                // ready client's &mut is taken exactly once — in cohort
                // order, whatever that order is.
                let mut by_id: Vec<Option<&mut Device>> = devices.iter_mut().map(Some).collect();
                let items: Vec<_> = chunk
                    .into_iter()
                    .filter_map(|p| Some((p, by_id[p.client].take()?)))
                    .collect();
                (items, None)
            }
            Fleet::Pooled(pool) => {
                let ids: Vec<usize> = chunk.iter().map(|p| p.client).collect();
                let (devices, binder) = pool.lease(&ids);
                (chunk.into_iter().zip(devices).collect(), Some(binder))
            }
        };
        debug_assert_eq!(items.len(), ready, "ready clients listed once");
        let train = |trainer: &mut Trainer,
                     (p, device): (Participant, &mut Device),
                     policy: Option<&dyn AggregationPolicy>| {
            let c = p.client;
            if let Some(binder) = &binder {
                binder.bind(device, c, round as u64);
            }
            let mut correct = policy.map(|policy| {
                move |grad: &mut [f32], params: &[f32], g: &[f32]| {
                    policy.gradient_hook(c, grad, params, g)
                }
            });
            let hook = correct.as_mut().map(|f| f as GradientHook<'_>);
            let outcome = match views.map(|v| &v[p.rank].0) {
                Some(view) => {
                    let values = view.extract(global);
                    trainer.train_local_view(device, view, &values, steps, hook)
                }
                None => trainer.train_local(device, global, steps, hook),
            };
            (p, outcome)
        };

        let (faults, io, compression) = (
            &mut self.core.faults,
            &mut self.core.io,
            &mut self.compression,
        );
        let (compute, recorder, clock) = (&self.core.compute, &self.core.recorder, self.clock);
        let (cohort, tracing) = (r.participants.len(), r.tracing);
        let (round_time, deadline_fired, densified) =
            (&mut r.round_time, &mut r.deadline_fired, &mut r.densified);
        let mut drain = |aggregation: &mut dyn AggregationPolicy,
                         (p, outcome): (Participant, LocalOutcome)| {
            let c = p.client;
            let view = views.map(|views| &views[p.rank]);
            let delta_full: &[f32] = match view {
                Some((view, _)) => {
                    densified.clear();
                    densified.resize(global.len(), 0.0);
                    view.scatter(&outcome.delta, densified);
                    densified
                }
                None => &outcome.delta,
            };
            aggregation.after_local_round(c, delta_full, outcome.steps, effective_lr);

            // Stale clients' slowdowns were folded into the compute model
            // at construction.
            let train_done = p.downlink_done + compute.training_time(c, steps);
            let delivered = faults.update_delivered(c, round);
            let ctx = SyncUploadCtx {
                round,
                client: c,
                rank: p.rank,
                cohort,
                // Compression ratios are relative to what this client
                // would send uncompressed: its view, not the model.
                dense_bytes: view.map_or(dense_bytes, |(v, _)| dense_wire_size(v.view_len())),
                delivered,
                tracing,
                recorder,
            };
            let payload = compression
                .prepare(&ctx, &outcome.delta)
                .map(|inner| match view {
                    Some((_, desc)) => UpdatePayload::sub_view(desc.clone(), inner),
                    None => inner,
                });
            if tracing {
                recorder.span(
                    SpanRecord::new(
                        names::SPAN_CLIENT_COMPUTE,
                        p.downlink_done.seconds(),
                        train_done.seconds(),
                    )
                    .round(round)
                    .client(c)
                    .field("steps", outcome.steps),
                );
            }
            let sent = At {
                round: Some(round),
                client: c,
                seconds: train_done.seconds(),
            };
            let Some(payload) = payload else {
                debug_assert!(!delivered, "policies only drop undelivered updates");
                if tracing {
                    recorder.counter_add(names::FL_DROPOUTS, 1);
                    recorder.event(
                        EventRecord::new(names::EVENT_DROPOUT, sent.seconds)
                            .round(round)
                            .client(c),
                    );
                }
                return;
            };
            let frame = UplinkFrame::new(faults, c, payload, round).process();
            if let Some(kind) = frame.attacked {
                emit::attack(recorder, sent, kind);
            }
            if frame.corrupted {
                emit::corruption(recorder, sent);
            }
            let delivery = io.uplink_update(c, &frame.payload, train_done);
            let Some(arrival) = delivery.arrival else {
                return;
            };
            let elapsed = arrival - clock;
            // §III max-wait-time policy: the server drops updates arriving
            // after the deadline.
            if let Some(deadline) = deadline.filter(|&d| elapsed.seconds() > d) {
                *deadline_fired = Some(deadline);
                if tracing {
                    recorder.counter_add(names::FL_DEADLINE_MISSES, 1);
                    recorder.event(
                        EventRecord::new(names::EVENT_DEADLINE_MISS, arrival.seconds())
                            .round(round)
                            .client(c)
                            .field("elapsed_seconds", elapsed.seconds()),
                    );
                }
                return;
            }
            *round_time = (*round_time).max(elapsed);
            if let Some(err) = frame.decode_error {
                // The bytes travelled, were charged and gated the round
                // clock, but the server cannot parse them: the update is
                // dropped before the defense gate ever sees values.
                let arrived = At {
                    seconds: arrival.seconds(),
                    ..sent
                };
                emit::decode_reject(recorder, arrived, &err);
                return;
            }
            sink.accept(
                aggregation,
                RoundUpdate {
                    client: c,
                    payload: frame.payload,
                    weight: outcome.num_samples as f32,
                },
            );
        };

        let aggregation = &mut self.aggregation;
        if aggregation.uses_gradient_hook() {
            let policy = &**aggregation;
            let outcomes = self
                .trainers
                .run(&self.pool, items, |t, item| train(t, item, Some(policy)));
            for done in outcomes {
                drain(&mut **aggregation, done);
            }
        } else {
            self.trainers.run_drain(
                &self.pool,
                items,
                |t, item| train(t, item, None),
                |done| drain(&mut **aggregation, done),
            );
        }
    }
}
