//! Behavioural tests of the AdaFL engines: control-plane accounting,
//! selection-policy ablations and the async halting gate.

use adafl_core::selection::SelectionPolicy;
use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

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
