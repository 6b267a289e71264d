//! Behavioural tests of the AdaFL engines: control-plane accounting,
//! selection-policy ablations and the async halting gate.

use adafl_core::selection::SelectionPolicy;
use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::r#async::strategies::{FedAsync, FedBuff};
use adafl_fl::runtime::{AsyncRuntime, RuntimeBuilder};
use adafl_fl::{CommunicationLedger, FlConfig, RunHistory};
use adafl_netsim::{
    ClientNetwork, FleetNetwork, LinkProfile, LinkSpec, LinkTrace, MeshLayout, NodeRole,
    StaticShortestPath, Topology, TraceKind,
};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder, Trace};
use std::sync::Arc;

fn task() -> (Dataset, Dataset) {
    let data = SyntheticSpec::mnist_like(8, 600).generate(3);
    data.split_at(480)
}

fn fl_config(clients: usize, rounds: usize) -> FlConfig {
    FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build()
}

#[test]
fn control_plane_is_accounted_separately_from_updates() {
    let (train, test) = task();
    let ada = AdaFlConfig {
        warmup_rounds: 2,
        max_selected: 3,
        ..AdaFlConfig::default()
    };
    let mut engine = RuntimeBuilder::new(fl_config(6, 10), test)
        .partitioned(&train, Partitioner::Iid)
        .build_adafl_sync(&ada);
    engine.run();
    let ledger = engine.ledger();
    // Post-warm-up rounds: every client reports a score + receives a digest
    // each round → 2 messages × 6 clients × 8 rounds.
    assert_eq!(ledger.control_messages(), 2 * 6 * 8);
    assert!(ledger.control_bytes() > 0);
    // Updates now count only gradient uploads: warm-up (6 × 2 rounds) plus
    // at most 3 per post-warm-up round.
    assert!(ledger.uplink_updates() <= (6 * 2 + 3 * 8) as u64);
    assert!(ledger.uplink_updates() >= 12);
    // Control traffic is tiny next to model traffic.
    assert!(ledger.control_bytes() < ledger.uplink_bytes() / 2);
}

#[test]
fn selection_policies_change_participation_patterns() {
    let (train, test) = task();
    let run = |policy: SelectionPolicy| {
        let ada = AdaFlConfig {
            selection: policy,
            warmup_rounds: 1,
            max_selected: 2,
            ..AdaFlConfig::default()
        };
        let mut engine = RuntimeBuilder::new(fl_config(6, 13), test.clone())
            .partitioned(&train, Partitioner::Iid)
            .build_adafl_sync(&ada);
        engine.run();
        (0..6)
            .map(|c| engine.ledger().client_uplink_updates(c))
            .collect::<Vec<_>>()
    };
    let round_robin = run(SelectionPolicy::RoundRobin);
    // Round-robin over 12 post-warm-up rounds × 2 slots = 24 slots over 6
    // clients → exactly 4 each (+1 warm-up round).
    assert!(
        round_robin.iter().all(|&u| u == 5),
        "round robin skewed: {round_robin:?}"
    );
    let utility = run(SelectionPolicy::Utility);
    assert_eq!(utility.iter().sum::<u64>(), round_robin.iter().sum::<u64>());
}

#[test]
fn random_selection_is_reproducible() {
    let (train, test) = task();
    let run = || {
        let ada = AdaFlConfig {
            selection: SelectionPolicy::RandomK,
            warmup_rounds: 1,
            ..AdaFlConfig::default()
        };
        let mut engine = RuntimeBuilder::new(fl_config(6, 8), test.clone())
            .partitioned(&train, Partitioner::Iid)
            .build_adafl_sync(&ada);
        engine.run()
    };
    assert_eq!(run(), run());
}

#[test]
fn high_threshold_halts_async_clients() {
    let (train, test) = task();
    // τ = 0.99 is unreachable post-warm-up: every client halts instead of
    // uploading, so arrivals stop at the warm-up count and the run ends by
    // queue exhaustion... unless halting reschedules forever. Cap via a
    // small budget and assert the gate actually suppressed uploads.
    let ada = AdaFlConfig {
        utility_threshold: 0.99,
        warmup_rounds: 1,
        ..AdaFlConfig::default()
    };
    let fl = fl_config(4, 10);
    let warmup_updates = 4;
    let mut engine = RuntimeBuilder::new(fl, test)
        .partitioned(&train, Partitioner::Iid)
        .update_budget(200)
        .build_adafl_async(&ada);
    let _history = engine.run();
    // Only warm-up arrivals applied; everything after is halted.
    assert!(
        engine.version() <= warmup_updates as u64 + 4,
        "halt gate leaked: {} versions",
        engine.version()
    );
}

#[test]
fn async_and_sync_adafl_share_configuration() {
    // The same AdaFlConfig must drive both engines without panicking.
    let (train, test) = task();
    let ada = AdaFlConfig::default();
    let mut sync_engine = RuntimeBuilder::new(fl_config(5, 4), test.clone())
        .partitioned(&train, Partitioner::Iid)
        .build_adafl_sync(&ada);
    let mut async_engine = RuntimeBuilder::new(fl_config(5, 4), test)
        .partitioned(&train, Partitioner::Iid)
        .update_budget(20)
        .build_adafl_async(&ada);
    assert!(sync_engine.run().len() == 4);
    assert!(!async_engine.run().is_empty());
}

/// Star links whose conditions move during the run, so the utility
/// probe's `link_at` reads differ from round to round.
fn drifting_star(clients: usize) -> FleetNetwork {
    let traces = (0..clients)
        .map(|c| {
            let kind = TraceKind::RandomWalk {
                step: 0.5,
                min_scale: 0.2,
                max_scale: 1.0,
                seed: 77 ^ c as u64,
            };
            LinkTrace::new(LinkProfile::Constrained.spec().with_drop_prob(0.0), kind)
        })
        .collect();
    ClientNetwork::new(traces, 5).into()
}

/// A two-relay mesh: half the clients sit behind a slow relay, so routed
/// link probes differ between clients.
fn two_relay_mesh(clients: usize) -> FleetNetwork {
    let hop = |bw: f64, latency: f64| LinkSpec::new(bw, bw, latency, latency, 0.0);
    let mut topology = Topology::new();
    let server = topology.add_node(NodeRole::Server);
    let fast = topology.add_node(NodeRole::Relay);
    let slow = topology.add_node(NodeRole::Relay);
    topology.add_duplex_link(fast, server, hop(4.0e6, 0.01));
    topology.add_duplex_link(slow, server, hop(0.3e6, 0.08));
    let nodes = (0..clients)
        .map(|c| {
            let node = topology.add_node(NodeRole::Client);
            let relay = if c % 2 == 0 { fast } else { slow };
            topology.add_duplex_link(node, relay, hop(2.0e6, 0.01));
            node
        })
        .collect();
    MeshLayout {
        topology,
        clients: nodes,
        server,
    }
    .into_network(Box::new(StaticShortestPath), 5)
    .into()
}

/// Everything a run leaves behind, wall times scrubbed.
type RunRecord = (RunHistory, Vec<f32>, CommunicationLedger, Trace);

/// An AdaFL run at pool width `threads`: three of six clients selected per
/// round, so most probes measure a stale replica; `crashes` takes clients
/// 0 and 3 down for rounds 2–3, checkpointing and restoring their
/// replicas.
fn adafl_run(network: FleetNetwork, threads: usize, crashes: bool) -> RunRecord {
    const CLIENTS: usize = 6;
    let data = SyntheticSpec::mnist_like(8, 780).generate(3);
    // 300 test rows are ten evaluation blocks: four shards at width 4.
    let (train, test) = data.split_at(480);
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(6)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::Mlp {
            in_features: 64,
            hidden: vec![16],
            classes: 10,
        })
        .build();
    let ada = AdaFlConfig {
        warmup_rounds: 2,
        max_selected: 3,
        ..AdaFlConfig::default()
    };
    let recorder = InMemoryRecorder::shared();
    let mut builder = RuntimeBuilder::new(fl, test)
        .partitioned(&train, Partitioner::Iid)
        .network(network)
        .threads(Some(threads))
        .recorder(recorder.clone());
    if crashes {
        let crash = FaultKind::Crash {
            at_round: 2,
            down_for: 2,
        };
        let kinds = (0..CLIENTS)
            .map(|c| {
                if c % 3 == 0 {
                    crash
                } else {
                    FaultKind::Reliable
                }
            })
            .collect();
        builder = builder.faults(FaultPlan::new(kinds, 9));
    }
    let mut engine = builder.build_adafl_sync(&ada);
    let history = engine.run();
    (
        history,
        engine.global_params().to_vec(),
        engine.ledger().clone(),
        recorder.snapshot().without_wall_times(),
    )
}

#[test]
fn pool_width_is_invisible_to_adafl() {
    // Utility probes, training jobs and evaluation shards fan out across
    // the pool, each device on whichever warm trainer its job picks up;
    // the history, the model, every per-client ledger column (control,
    // uplink, downlink) and the whole trace must not know how wide it was.
    type Network = fn(usize) -> FleetNetwork;
    let rows: [(&str, Network, bool); 3] = [
        ("star", drifting_star, false),
        ("mesh", two_relay_mesh, false),
        ("star, crashes", drifting_star, true),
    ];
    for (name, network, crashes) in rows {
        let inline = adafl_run(network(6), 1, crashes);
        let (history, _, ledger, trace) = &inline;
        assert_eq!(history.records().len(), 6);
        if crashes {
            assert_eq!(trace.counters[names::FL_RECOVERIES], 2, "{name}");
        } else {
            // Four post-warm-up rounds ran the control plane for all six
            // clients, and their scores were recorded in client order.
            assert_eq!(ledger.control_messages(), 2 * 6 * 4, "{name}");
            assert_eq!(
                trace.histograms[names::ADAFL_UTILITY].count(),
                6 * 4,
                "{name}"
            );
        }
        for threads in 2..=4 {
            assert_eq!(
                adafl_run(network(6), threads, crashes),
                inline,
                "{name}: {threads} workers differ from the inline run"
            );
        }
    }
}

/// The asynchronous runs whose results must not know how wide the pool
/// that trained ahead was.
#[derive(Debug, Clone, Copy)]
enum AsyncRun {
    FedAsync,
    FedBuff,
    /// AdaFL past its warm-up on drifting links: the utility gate halts
    /// some uploads, and those clients resync.
    AdaFl,
    /// FedBuff on links that lose a quarter of all transfers: lost
    /// downlinks and uploads resync.
    Lossy,
    /// FedAsync behind the defense gate, with a sign-flipping attacker and
    /// a corrupting client.
    Byzantine,
}

/// A traced asynchronous run of six clients at pool width `threads`, with
/// unequal step times so training passes start out of submission order.
fn async_engine(
    run: AsyncRun,
    threads: usize,
    budget: u64,
) -> (AsyncRuntime, Arc<InMemoryRecorder>) {
    const CLIENTS: usize = 6;
    let (train, test) = task();
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::Mlp {
            in_features: 64,
            hidden: vec![16],
            classes: 10,
        })
        .build();
    let recorder = InMemoryRecorder::shared();
    let mut builder = RuntimeBuilder::new(fl, test)
        .partitioned(&train, Partitioner::Iid)
        .compute(ComputeModel::heterogeneous(
            (0..CLIENTS).map(|c| 0.05 + 0.013 * c as f64).collect(),
        ))
        .update_budget(budget)
        .threads(Some(threads))
        .recorder(recorder.clone());
    builder = match run {
        AsyncRun::AdaFl => builder.network(drifting_star(CLIENTS)),
        AsyncRun::Lossy => {
            let link = LinkSpec::new(2e6, 10e6, 0.01, 0.01, 0.25);
            builder.network(ClientNetwork::new(
                vec![LinkTrace::constant(link); CLIENTS],
                4,
            ))
        }
        AsyncRun::Byzantine => {
            let kinds = (0..CLIENTS)
                .map(|c| match c {
                    1 => FaultKind::SignFlip,
                    3 => FaultKind::Corruption { prob: 0.5 },
                    _ => FaultKind::Reliable,
                })
                .collect();
            builder
                .faults(FaultPlan::new(kinds, 9))
                .defense(Some(DefenseConfig::default()))
        }
        AsyncRun::FedAsync | AsyncRun::FedBuff => builder,
    };
    let engine = match run {
        AsyncRun::AdaFl => builder.build_adafl_async(&AdaFlConfig {
            warmup_rounds: 1,
            utility_threshold: 0.7,
            ..AdaFlConfig::default()
        }),
        AsyncRun::FedBuff | AsyncRun::Lossy => {
            builder.build_async(Box::new(FedBuff::new(3, 0.3))).unwrap()
        }
        AsyncRun::FedAsync | AsyncRun::Byzantine => builder
            .build_async(Box::new(FedAsync::new(0.6, 0.5)))
            .unwrap(),
    };
    (engine, recorder)
}

/// Everything a run leaves behind, wall times scrubbed.
fn async_record(engine: &mut AsyncRuntime, recorder: &InMemoryRecorder) -> RunRecord {
    let history = engine.run();
    (
        history,
        engine.global_params().to_vec(),
        engine.ledger().clone(),
        recorder.snapshot().without_wall_times(),
    )
}

#[test]
fn async_pool_width_is_invisible() {
    // Each downlink starts its client's training pass on the pool, and
    // each `StartTraining` event commits it; the history, the model, every
    // ledger column and the whole trace must not know how wide it was —
    // whether the budget ends the run after one arrival, mid-flight or
    // late.
    for run in [
        AsyncRun::FedAsync,
        AsyncRun::FedBuff,
        AsyncRun::AdaFl,
        AsyncRun::Lossy,
        AsyncRun::Byzantine,
    ] {
        for budget in [1, 7, 40] {
            let (mut engine, recorder) = async_engine(run, 1, budget);
            let inline = async_record(&mut engine, &recorder);
            let (history, _, ledger, trace) = &inline;
            assert!(!history.is_empty(), "{run:?}, budget {budget}");
            assert!(
                ledger.uplink_updates() >= budget,
                "{run:?}, budget {budget}"
            );
            if budget == 40 {
                match run {
                    AsyncRun::AdaFl => {
                        assert!(
                            trace.counters[names::ADAFL_HALTS] > 0,
                            "the gate halted uploads"
                        )
                    }
                    AsyncRun::Lossy => assert!(
                        trace.counters.get(names::NET_DROPS) > Some(&0),
                        "transfers were lost"
                    ),
                    AsyncRun::Byzantine => {
                        assert!(
                            trace.counters[names::FL_ATTACKS] > 0,
                            "the attacker attacked"
                        );
                        assert!(
                            trace.counters[names::FL_CORRUPTIONS] > 0,
                            "frames were corrupted"
                        );
                    }
                    AsyncRun::FedAsync | AsyncRun::FedBuff => {}
                }
            }
            for threads in 2..=4 {
                let (mut engine, recorder) = async_engine(run, threads, budget);
                assert_eq!(
                    async_record(&mut engine, &recorder),
                    inline,
                    "{run:?}, budget {budget}: {threads} workers differ from the inline run"
                );
            }
        }
    }
}

#[test]
fn async_pool_width_is_invisible_after_passes_left_unjoined() {
    // A budget of 7 ends each run with passes started and never joined; a
    // second run on the same runtime starts from the devices as the last
    // committed pass left them, at any width.
    for run in [AsyncRun::FedBuff, AsyncRun::AdaFl] {
        let twice = |threads: usize| {
            let (mut engine, recorder) = async_engine(run, threads, 7);
            let first = async_record(&mut engine, &recorder);
            (first, async_record(&mut engine, &recorder))
        };
        let (first, second) = twice(1);
        assert_ne!(first.0, second.0, "{run:?}: the second run trains on");
        assert_eq!(twice(2), (first, second), "{run:?}");
    }
}
