//! The shared asynchronous (event-driven) round runtime.
//!
//! Clients loop independently: receive the global model → train locally →
//! upload; the server reacts to each arrival. The runtime owns the event
//! queue, transport, fault injection, the defensive gate, ledger charging,
//! telemetry and history recording; an [`AsyncPolicy`] decides what each
//! downlink carries, whether/how a trained delta is uploaded, and how an
//! arrival folds into the global model.

use super::builder::{Resilience, Scenario};
use super::emit::{self, At};
use super::io::{RoundIo, UplinkFrame, RESYNC_DELAY_SECONDS};
use super::policy::{AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx};
use crate::client::{evaluate_model, FlClient};
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::defense::{DefenseGate, RejectReason};
use crate::faults::FaultPlan;
use crate::history::{RoundRecord, RunHistory};
use crate::ledger::CommunicationLedger;
use crate::runtime::payload::UpdatePayload;
use adafl_compression::DecodeError;
use adafl_data::Dataset;
use adafl_netsim::{EventQueue, SimTime};
use adafl_telemetry::{names, EventRecord, SharedRecorder, SpanRecord};

#[derive(Debug)]
enum Event {
    /// A client finished downloading the global model and starts training.
    StartTraining { client: usize },
    /// A client's update reached the server.
    UpdateArrival { client: usize, version: u64 },
    /// A transfer was lost (or the client halted); the client re-requests
    /// the global model.
    Resync { client: usize },
}

/// Policy-driven asynchronous FL runtime. Staleness emerges naturally from
/// slow compute or slow links on the simulated clock rather than being
/// injected.
///
/// Constructed and configured only through
/// [`RuntimeBuilder`](super::RuntimeBuilder).
#[derive(Debug)]
pub struct AsyncRuntime {
    config: FlConfig,
    clients: Vec<FlClient>,
    /// Per-client snapshot of the global model they are training from.
    snapshots: Vec<Vec<f32>>,
    /// Per-client pending update awaiting arrival (at most one in
    /// flight); `Err` when corruption left the frame undecodable — the
    /// bytes still travel and the server rejects them on arrival.
    in_flight: Vec<Option<Result<UpdatePayload, DecodeError>>>,
    global: Vec<f32>,
    global_model: adafl_nn::Model,
    /// Latest applied global delta (`ĝ`); stays zero unless the policy
    /// maintains it.
    global_gradient: Vec<f32>,
    version: u64,
    test_set: Dataset,
    policy: Box<dyn AsyncPolicy>,
    io: RoundIo,
    compute: ComputeModel,
    faults: FaultPlan,
    update_budget: u64,
    eval_every: u64,
    recorder: SharedRecorder,
    defense: Option<DefenseGate>,
}

impl AsyncRuntime {
    /// Assembles a runtime from a checked scenario, one live client per
    /// simulated client and an async policy; the builder has already
    /// rejected a zero `update_budget` or `eval_every`.
    pub(super) fn new(
        scenario: Scenario,
        clients: Vec<FlClient>,
        mut policy: Box<dyn AsyncPolicy>,
        update_budget: u64,
        eval_every: u64,
        resilience: Resilience,
    ) -> Self {
        let Scenario {
            config,
            test_set,
            network,
            compute,
            faults,
        } = scenario;
        let mut global_model = config.model.build(config.seed_for("model"));
        let global = global_model.params_flat();
        global_model.set_params_flat(&global);
        policy.init(global.len());
        let recorder = resilience.recorder;
        AsyncRuntime {
            io: RoundIo::assemble(network, &config, resilience.retry, recorder.as_ref()),
            in_flight: vec![None; config.clients],
            global_gradient: vec![0.0; global.len()],
            snapshots: vec![global.clone(); config.clients],
            clients,
            global,
            global_model,
            version: 0,
            test_set,
            policy,
            compute,
            faults,
            config,
            update_budget,
            eval_every,
            recorder: recorder.unwrap_or_else(adafl_telemetry::noop),
            defense: resilience.defense.map(DefenseGate::new),
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The communication ledger (cumulative).
    pub fn ledger(&self) -> &CommunicationLedger {
        self.io.ledger()
    }

    /// Current global version (number of global model changes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.global
    }

    /// Runs until `update_budget` client updates have reached the server,
    /// returning the evaluation history against simulated time.
    pub fn run(&mut self) -> RunHistory {
        let mut history = RunHistory::new(self.policy.label());
        let mut queue: EventQueue<Event> = EventQueue::new();

        // Bootstrap: broadcast the initial model to everyone.
        for c in 0..self.config.clients {
            self.schedule_downlink(&mut queue, c, SimTime::ZERO);
        }

        let mut arrivals: u64 = 0;
        // Per-client version tags of the snapshot they are training from.
        let mut client_versions = vec![0u64; self.config.clients];

        // Liveness guard: fully-lossy networks can resync forever without
        // an arrival; bound total events so `run` always terminates.
        let max_events = self
            .update_budget
            .saturating_mul(self.config.clients as u64)
            .saturating_mul(50)
            .max(10_000);
        let mut events: u64 = 0;
        while let Some((now, event)) = queue.pop() {
            events += 1;
            if events > max_events {
                break;
            }
            match event {
                Event::StartTraining { client } => {
                    client_versions[client] = self.version;
                    let snapshot = self.snapshots[client].clone();
                    let outcome =
                        self.clients[client].train_local(&snapshot, self.config.local_steps, None);
                    let train_time = self.compute.training_time(client, self.config.local_steps);
                    let done = now + train_time;
                    if self.recorder.enabled() {
                        self.recorder.span(
                            SpanRecord::new(
                                names::SPAN_CLIENT_COMPUTE,
                                now.seconds(),
                                done.seconds(),
                            )
                            .client(client)
                            .field("steps", self.config.local_steps),
                        );
                    }
                    let prepared = {
                        let mut ctx = AsyncUploadCtx {
                            client,
                            done,
                            arrivals,
                            dense_len: self.global.len(),
                            global_gradient: &self.global_gradient,
                            network: self.io.network(),
                            recorder: &self.recorder,
                        };
                        self.policy.prepare_upload(&mut ctx, outcome)
                    };
                    let Some(payload) = prepared else {
                        // The policy halted the upload (AdaFL's utility
                        // gate); the client idles and resyncs shortly.
                        let idle = SimTime::from_seconds(RESYNC_DELAY_SECONDS);
                        queue.push(done + idle, Event::Resync { client });
                        continue;
                    };
                    // Colluding Byzantine clients key their shared
                    // direction to the global version they trained from,
                    // the async analogue of the sync runtime's per-round
                    // collusion seed.
                    let frame = UplinkFrame {
                        payload,
                        attack: self.faults.attacks_update(client).map(|kind| {
                            let version = client_versions[client] as usize;
                            (kind, self.faults.collusion_seed(version))
                        }),
                        corrupt: self.faults.corrupts_update(client),
                    }
                    .process();
                    let sent = At {
                        round: None,
                        client,
                        seconds: done.seconds(),
                    };
                    if let Some(kind) = frame.attacked {
                        emit::attack(&self.recorder, sent, kind);
                    }
                    if frame.corrupted {
                        emit::corruption(&self.recorder, sent);
                    }
                    // Byte flips preserve the frame length, so the charge
                    // is the same whether or not the frame still parses.
                    let delivery = self.io.uplink_update(client, &frame.payload, done);
                    self.in_flight[client] = Some(match frame.decode_error {
                        Some(err) => Err(err),
                        None => Ok(frame.payload),
                    });
                    match delivery.arrival {
                        Some(arrival) => {
                            queue.push(
                                arrival,
                                Event::UpdateArrival {
                                    client,
                                    version: client_versions[client],
                                },
                            );
                        }
                        None => {
                            // Update lost in transit: resync once the
                            // sender learns of the loss.
                            self.in_flight[client] = None;
                            queue.push(delivery.sender_done, Event::Resync { client });
                        }
                    }
                }
                Event::UpdateArrival { client, version } => {
                    arrivals += 1;
                    let staleness = self.version.saturating_sub(version);
                    if self.recorder.enabled() {
                        self.recorder
                            .histogram_record(names::ASYNC_STALENESS, staleness as f64);
                        self.recorder.event(
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
                    match self.in_flight[client]
                        .take()
                        .expect("arrival without an in-flight update")
                    {
                        // The bytes arrived (and count toward the budget)
                        // but no longer parse: the decoder rejects the
                        // update before the defense gate ever sees values.
                        Err(err) => emit::decode_reject(&self.recorder, arrived, &err),
                        Ok(mut payload) => {
                            // Defensive gate: scrub and norm-screen the
                            // arriving update; a rejected update never
                            // reaches the policy (the arrival still counts
                            // toward the budget, so a poisoned fleet cannot
                            // livelock the run).
                            let verdict = match self.defense.as_mut() {
                                None => Ok(()),
                                Some(gate) => gate.sanitize(payload.values_mut()).and_then(|s| {
                                    emit::scrubbed(&self.recorder, s.scrubbed);
                                    if gate.admit(s.norm) {
                                        Ok(())
                                    } else {
                                        Err(RejectReason::NormOutlier)
                                    }
                                }),
                            };
                            if let Err(reason) = verdict {
                                emit::defense_reject(&self.recorder, arrived, reason.label());
                            } else {
                                let weight = self.clients[client].num_samples() as f32;
                                let snapshot = std::mem::take(&mut self.snapshots[client]);
                                let changed = {
                                    let mut ctx = AsyncApplyCtx {
                                        global: &mut self.global,
                                        global_gradient: &mut self.global_gradient,
                                    };
                                    self.policy
                                        .apply(&mut ctx, payload, &snapshot, weight, staleness)
                                };
                                self.snapshots[client] = snapshot;
                                if changed {
                                    self.version += 1;
                                }
                            }
                        }
                    }
                    if arrivals.is_multiple_of(self.eval_every) || arrivals == self.update_budget {
                        let (accuracy, loss) = self.evaluate();
                        history.push(RoundRecord {
                            round: arrivals as usize,
                            sim_time: now,
                            accuracy,
                            loss,
                            uplink_bytes: self.io.ledger().uplink_bytes(),
                            uplink_updates: self.io.ledger().uplink_updates(),
                            contributors: 1,
                        });
                    }
                    if arrivals >= self.update_budget {
                        break;
                    }
                    self.schedule_downlink(&mut queue, client, now);
                }
                Event::Resync { client } => {
                    self.schedule_downlink(&mut queue, client, now);
                }
            }
        }
        history
    }

    fn schedule_downlink(&mut self, queue: &mut EventQueue<Event>, client: usize, now: SimTime) {
        let bytes = self.policy.downlink_bytes(&AsyncDownlinkCtx {
            dense_len: self.global.len(),
            global_gradient: &self.global_gradient,
        });
        self.snapshots[client].copy_from_slice(&self.global);
        let delivery = self.io.downlink(client, bytes, now, false);
        match delivery.arrival {
            Some(arrival) => queue.push(arrival, Event::StartTraining { client }),
            None => queue.push(delivery.sender_done, Event::Resync { client }),
        }
    }

    fn evaluate(&mut self) -> (f32, f32) {
        self.global_model.set_params_flat(&self.global);
        evaluate_model(&mut self.global_model, &self.test_set)
    }
}
