//! Behavioural tests of the AdaFL engines: control-plane accounting,
//! selection-policy ablations and the async halting gate.

use adafl_core::selection::SelectionPolicy;
use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::{CommunicationLedger, FlConfig, RunHistory};
use adafl_netsim::{
    ClientNetwork, FleetNetwork, LinkProfile, LinkSpec, LinkTrace, MeshLayout, NodeRole,
    StaticShortestPath, Topology, TraceKind,
};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder, Trace};

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
    // 300 test rows are five evaluation blocks: four shards at width 4.
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
