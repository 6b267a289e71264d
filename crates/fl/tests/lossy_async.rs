//! Async-engine behaviour under lossy and bursty networks: lost transfers
//! must trigger resynchronisation rather than deadlock, and the run must
//! still complete its update budget.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::compute::ComputeModel;
use adafl_fl::r#async::strategies::{FedAsync, FedBuff};
use adafl_fl::runtime::{AsyncRuntime, RuntimeBuilder};
use adafl_fl::FlConfig;
use adafl_netsim::{ClientNetwork, LinkProfile, LinkSpec, LinkTrace, TraceKind};
use adafl_nn::models::ModelSpec;

const CLIENTS: usize = 5;

fn config() -> FlConfig {
    FlConfig::builder()
        .clients(CLIENTS)
        .rounds(10)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build()
}

fn engine_with_network(network: ClientNetwork, budget: u64) -> AsyncRuntime {
    let data = SyntheticSpec::mnist_like(8, 500).generate(4);
    let (train, test) = data.split_at(400);
    let cfg = config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .update_budget(budget)
        .build_async(Box::new(FedAsync::new(0.6, 0.5)))
        .unwrap()
}

#[test]
fn lossy_links_resync_instead_of_deadlocking() {
    // 30% loss on every transfer: the engine must still reach its budget.
    let spec = LinkSpec::new(2e6, 10e6, 0.01, 0.01, 0.3);
    let network = ClientNetwork::new(vec![LinkTrace::constant(spec); CLIENTS], 9);
    let mut e = engine_with_network(network, 40);
    let history = e.run();
    assert!(!history.is_empty());
    assert!(history.final_accuracy() > 0.3, "lossy run failed to learn");
    // Losses inflate sends relative to arrivals.
    assert!(e.ledger().uplink_updates() >= 40);
}

#[test]
fn fully_lossy_links_stop_at_the_liveness_guard() {
    // Every transfer is lost, so no downlink ever starts a training pass
    // and the loop would resync forever: the event bound must end the run,
    // with nothing learned, nothing delivered and the model untouched.
    let spec = LinkSpec::new(2e6, 10e6, 0.01, 0.01, 1.0);
    let network = ClientNetwork::new(vec![LinkTrace::constant(spec); CLIENTS], 9);
    let mut e = engine_with_network(network, 40);
    let initial = e.global_params().to_vec();
    let history = e.run();
    assert!(history.is_empty());
    assert_eq!(e.version(), 0);
    assert_eq!(e.ledger().uplink_updates(), 0);
    let untouched = initial
        .iter()
        .zip(e.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(untouched, "global model changed without an arrival");
}

#[test]
fn time_varying_links_slow_but_do_not_break_the_run() {
    let degraded = LinkTrace::new(
        LinkProfile::Broadband.spec(),
        TraceKind::Periodic {
            period: 5.0,
            duty: 0.5,
            degraded_scale: 0.01,
        },
    );
    let steady = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        1,
    );
    let congested = ClientNetwork::new(vec![degraded; CLIENTS], 1);

    let steady_end = {
        let mut e = engine_with_network(steady, 30);
        let h = e.run();
        h.records().last().unwrap().sim_time.seconds()
    };
    let congested_end = {
        let mut e = engine_with_network(congested, 30);
        let h = e.run();
        h.records().last().unwrap().sim_time.seconds()
    };
    assert!(
        congested_end > steady_end,
        "congestion had no timing effect: {congested_end} vs {steady_end}"
    );
}

#[test]
fn fedbuff_partial_buffer_never_updates_global() {
    // A budget smaller than the buffer size leaves the global untouched.
    let data = SyntheticSpec::mnist_like(8, 500).generate(4);
    let (train, test) = data.split_at(400);
    let cfg = config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        1,
    );
    let mut e = RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .update_budget(6) // fewer arrivals than the buffer needs
        .build_async(Box::new(FedBuff::new(10, 1.0)))
        .unwrap();
    e.run();
    assert_eq!(e.version(), 0, "buffer flushed early");
}
