//! The asynchronous driver: an event loop over a [`ServerCore`].
//!
//! Clients loop independently: receive the global model → train locally →
//! upload; the server reacts to each arrival. The driver owns what only
//! an event schedule has — the queue, per-client snapshots and in-flight
//! uploads, the global version — and an [`AsyncPolicy`] decides what each
//! downlink carries, whether/how a trained delta is uploaded, and how an
//! arrival folds into the global model; [`ServerStages`] screens each
//! arrival in between.
//!
//! **Train ahead, commit in order.** Once a client's downlink lands, the
//! inputs of its next training pass are fixed: its device — shard, batch
//! loader, hyperparameters — and the global model it downloaded. A pass
//! draws from no shared stream and writes no shared state, so the driver
//! starts it on the [`WorkerPool`] at once ([`WorkerPool::scope_stream`],
//! keyed by its `StartTraining` time) on a clone of the device. The
//! `StartTraining` event joins it and commits the trained device. Every
//! step that draws from a shared stream or writes shared state — the
//! policy's downlink sizing and upload preparation, the fault plan and
//! attacker, the ledger, telemetry, the fold and evaluation — stays on the
//! caller in event order; evaluation runs there in a free warm trainer's
//! model and workspace rather than a workspace of its own. A pool of width
//! 1 runs each pass inline at its `StartTraining`, and a pass still
//! unjoined when the budget ends leaves no trace, so histories, ledgers and
//! traces are identical at any width.

use super::core::{EvalOn, ServerCore};
use super::emit::{self, At};
use super::io::{UplinkFrame, RESYNC_DELAY_SECONDS};
use super::policy::{AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx};
use super::stages::ServerStages;
use crate::client::{Device, Lease, LocalOutcome, Trainers};
use crate::config::FlConfig;
use crate::history::RunHistory;
use crate::ledger::CommunicationLedger;
use crate::pool::{Stream, Ticket, WorkerPool};
use crate::runtime::payload::UpdatePayload;
use adafl_compression::DecodeError;
use adafl_netsim::{EventQueue, SimTime};
use adafl_telemetry::{names, EventRecord, SpanRecord};
use std::sync::Arc;

/// Server-received updates between test-set evaluations of a run (the last
/// arrival of the budget is always evaluated).
const EVAL_EVERY: u64 = 5;

#[derive(Debug)]
enum Event {
    /// A client finished downloading the global model and starts training;
    /// `pass` collects the training pass its downlink started.
    StartTraining { client: usize, pass: Ticket<u64> },
    /// A client's update reached the server.
    UpdateArrival { client: usize, version: u64 },
    /// A transfer was lost (or the client halted); the client re-requests
    /// the global model.
    Resync { client: usize },
}

/// What a training pass returns: its device, trained, and the outcome.
type Trained = (Device, LocalOutcome);

/// The training passes of one `run()`: started on the pool as each
/// downlink lands, joined at their `StartTraining` events.
#[derive(Clone, Copy)]
struct Passes<'s, 'env> {
    stream: &'s Stream<'env, u64, Trained>,
    trainers: &'env Lease<'env>,
}

impl<'env> Passes<'_, 'env> {
    /// Queues `steps` of local training for a clone of `device` from
    /// `global`, to start on the pool in order of `starts`.
    fn start(
        &self,
        device: &Device,
        global: Arc<[f32]>,
        steps: usize,
        starts: SimTime,
    ) -> Ticket<u64> {
        let mut device = device.clone();
        let trainers = self.trainers;
        // Simulated times are non-negative, so their bit patterns order
        // like the times.
        self.stream.submit(starts.seconds().to_bits(), move || {
            let outcome =
                trainers.with(|trainer| trainer.train_local(&mut device, &global, steps, None));
            (device, outcome)
        })
    }
}

/// Policy-driven asynchronous FL runtime. Staleness emerges naturally from
/// slow compute or slow links on the simulated clock rather than being
/// injected.
///
/// Constructed and configured only through
/// [`RuntimeBuilder`](super::RuntimeBuilder).
#[derive(Debug)]
pub struct AsyncRuntime {
    /// Runs training passes ahead of their `StartTraining` events.
    pool: WorkerPool,
    /// One warm trainer per pool thread.
    trainers: Trainers,
    events: EventLoop,
}

/// The event loop's state, all of it read and written on the caller.
#[derive(Debug)]
struct EventLoop {
    core: ServerCore,
    stages: ServerStages,
    clients: Vec<Device>,
    /// Per-client snapshot of the global model they are training from.
    snapshots: Vec<Arc<[f32]>>,
    /// The current global model's snapshot, shared by every client that
    /// downloads it; `None` once a fold may have changed the model.
    global_snapshot: Option<Arc<[f32]>>,
    /// Per-client pending update awaiting arrival (at most one in
    /// flight); `Err` when corruption left the frame undecodable — the
    /// bytes still travel and the server rejects them on arrival.
    in_flight: Vec<Option<Result<UpdatePayload, DecodeError>>>,
    version: u64,
    policy: Box<dyn AsyncPolicy>,
    update_budget: u64,
}

impl AsyncRuntime {
    /// Puts the event schedule on top of a server: one resident device per
    /// simulated client, the pool that trains ahead (its trainers are
    /// built on first use), and an async policy; the builder has already
    /// rejected a zero `update_budget`.
    pub(super) fn new(
        core: ServerCore,
        stages: ServerStages,
        clients: Vec<Device>,
        mut policy: Box<dyn AsyncPolicy>,
        update_budget: u64,
        pool: WorkerPool,
    ) -> Self {
        policy.init(core.global.len());
        let initial: Arc<[f32]> = Arc::from(core.global.as_slice());
        AsyncRuntime {
            pool,
            trainers: Trainers::new(core.config.model.clone(), core.config.seed_for("model")),
            events: EventLoop {
                in_flight: vec![None; core.config.clients],
                snapshots: vec![Arc::clone(&initial); core.config.clients],
                global_snapshot: Some(initial),
                core,
                stages,
                clients,
                version: 0,
                policy,
                update_budget,
            },
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &FlConfig {
        &self.events.core.config
    }

    /// The communication ledger (cumulative).
    pub fn ledger(&self) -> &CommunicationLedger {
        self.events.core.io.ledger()
    }

    /// Current global version (number of global model changes).
    pub fn version(&self) -> u64 {
        self.events.version
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.events.core.global
    }

    /// Runs until `update_budget` client updates have reached the server,
    /// returning the evaluation history against simulated time.
    pub fn run(&mut self) -> RunHistory {
        let AsyncRuntime {
            pool,
            trainers,
            events,
        } = self;
        trainers
            .lend(|trainers| pool.scope_stream(|stream| events.run(Passes { stream, trainers })))
    }
}

impl EventLoop {
    fn run(&mut self, passes: Passes<'_, '_>) -> RunHistory {
        let mut history = RunHistory::new(self.policy.label());
        let mut queue: EventQueue<Event> = EventQueue::new();
        let clients = self.core.config.clients;

        // Bootstrap: broadcast the initial model to everyone.
        for c in 0..clients {
            self.schedule_downlink(&mut queue, passes, c, SimTime::ZERO);
        }

        // Liveness guard: fully-lossy networks can resync forever without
        // an arrival; bound total events so `run` always terminates.
        let max_events = self
            .update_budget
            .saturating_mul(clients as u64)
            .saturating_mul(50)
            .max(10_000);
        let mut events: u64 = 0;
        let mut arrivals: u64 = 0;
        while let Some((now, event)) = queue.pop() {
            events += 1;
            if events > max_events {
                break;
            }
            match event {
                Event::StartTraining { client, pass } => {
                    let trained = passes.stream.join(pass);
                    self.start_training(&mut queue, client, trained, now, arrivals);
                }
                Event::UpdateArrival { client, version } => {
                    arrivals += 1;
                    self.on_arrival(client, version, now, arrivals);
                    if arrivals.is_multiple_of(EVAL_EVERY) || arrivals == self.update_budget {
                        // One shard, inline on a free warm trainer's model:
                        // the caller evaluates while the pool trains ahead.
                        passes.trainers.with(|trainer| {
                            self.core.evaluate_into(
                                &mut history,
                                arrivals as usize,
                                now,
                                1,
                                EvalOn::Trainer(trainer),
                            )
                        });
                    }
                    if arrivals >= self.update_budget {
                        break;
                    }
                    self.schedule_downlink(&mut queue, passes, client, now);
                }
                Event::Resync { client } => self.schedule_downlink(&mut queue, passes, client, now),
            }
        }
        history
    }

    /// Sends `client` the current global model; its arrival starts a
    /// training pass, its loss a resync.
    fn schedule_downlink(
        &mut self,
        queue: &mut EventQueue<Event>,
        passes: Passes<'_, '_>,
        client: usize,
        now: SimTime,
    ) {
        let core = &mut self.core;
        let bytes = self.policy.downlink_bytes(&AsyncDownlinkCtx {
            dense_len: core.global.len(),
            global_gradient: &core.global_gradient,
        });
        let snapshot = Arc::clone(
            self.global_snapshot
                .get_or_insert_with(|| Arc::from(core.global.as_slice())),
        );
        let delivery = core.io.downlink(client, bytes, now, false);
        match delivery.arrival {
            Some(arrival) => {
                let steps = core.config.local_steps;
                let pass =
                    passes.start(&self.clients[client], Arc::clone(&snapshot), steps, arrival);
                queue.push(arrival, Event::StartTraining { client, pass });
            }
            None => queue.push(delivery.sender_done, Event::Resync { client }),
        }
        self.snapshots[client] = snapshot;
    }

    /// Commits `client`'s trained device, the policy prepares the upload
    /// and the frame goes out under the fault plan; schedules the arrival,
    /// or a resync when the policy halted the upload or the link lost it.
    fn start_training(
        &mut self,
        queue: &mut EventQueue<Event>,
        client: usize,
        (device, outcome): Trained,
        now: SimTime,
        arrivals: u64,
    ) {
        self.clients[client] = device;
        let core = &mut self.core;
        let steps = core.config.local_steps;
        // The global version this pass trains from.
        let version = self.version;
        let done = now + core.compute.training_time(client, steps);
        if core.recorder.enabled() {
            core.recorder.span(
                SpanRecord::new(names::SPAN_CLIENT_COMPUTE, now.seconds(), done.seconds())
                    .client(client)
                    .field("steps", steps),
            );
        }
        let prepared = {
            let mut ctx = AsyncUploadCtx {
                client,
                done,
                arrivals,
                dense_len: core.global.len(),
                global_gradient: &core.global_gradient,
                network: core.io.network(),
                recorder: &core.recorder,
            };
            self.policy.prepare_upload(&mut ctx, outcome)
        };
        let Some(payload) = prepared else {
            // The policy halted the upload (AdaFL's utility gate); the
            // client idles and resyncs shortly.
            let idle = SimTime::from_seconds(RESYNC_DELAY_SECONDS);
            queue.push(done + idle, Event::Resync { client });
            return;
        };
        let frame = UplinkFrame::new(&mut core.faults, client, payload, version as usize).process();
        let sent = At {
            round: None,
            client,
            seconds: done.seconds(),
        };
        if let Some(kind) = frame.attacked {
            emit::attack(&core.recorder, sent, kind);
        }
        if frame.corrupted {
            emit::corruption(&core.recorder, sent);
        }
        // Byte flips preserve the frame length, so the charge is the same
        // whether or not the frame still parses.
        let delivery = core.io.uplink_update(client, &frame.payload, done);
        match delivery.arrival {
            Some(arrival) => {
                self.in_flight[client] = Some(match frame.decode_error {
                    Some(err) => Err(err),
                    None => Ok(frame.payload),
                });
                queue.push(arrival, Event::UpdateArrival { client, version });
            }
            // Update lost in transit: resync once the sender learns of the
            // loss.
            None => queue.push(delivery.sender_done, Event::Resync { client }),
        }
    }

    /// The server's reaction to the `arrivals`-th update: staleness
    /// telemetry, the decoder's and the gate's verdicts, then the policy's
    /// fold into the global model. A rejected update still counts toward
    /// the budget, so a poisoned fleet cannot livelock the run.
    fn on_arrival(&mut self, client: usize, version: u64, now: SimTime, arrivals: u64) {
        let core = &mut self.core;
        let staleness = self.version.saturating_sub(version);
        if core.recorder.enabled() {
            core.recorder
                .histogram_record(names::ASYNC_STALENESS, staleness as f64);
            core.recorder.event(
                EventRecord::new(names::EVENT_STALENESS, now.seconds())
                    .round(arrivals as usize)
                    .client(client)
                    .field("staleness", staleness),
            );
        }
        let arrived = At {
            round: None,
            client,
            seconds: now.seconds(),
        };
        let Some(frame) = self.in_flight[client].take() else {
            // Every arrival event follows the upload that filled its slot.
            debug_assert!(false, "arrival without an in-flight update");
            return;
        };
        let mut payload = match frame {
            Ok(payload) => payload,
            // The bytes arrived but no longer parse: the decoder rejects
            // the update before the defense gate ever sees values.
            Err(err) => {
                emit::decode_reject(&core.recorder, arrived, &err);
                return;
            }
        };
        if !self
            .stages
            .screen_arrival(&core.recorder, arrived, &mut payload)
        {
            return;
        }
        let weight = self.clients[client].num_samples() as f32;
        let mut ctx = AsyncApplyCtx {
            global: &mut core.global,
            global_gradient: &mut core.global_gradient,
        };
        if self.policy.apply(
            &mut ctx,
            payload,
            &self.snapshots[client],
            weight,
            staleness,
        ) {
            self.version += 1;
        }
        // `apply` may move the model even when it reports no new version.
        self.global_snapshot = None;
    }
}
