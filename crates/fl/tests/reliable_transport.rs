//! Engine-level acceptance tests for the reliability layer: retry
//! transport must strictly beat fire-and-forget delivery under bursty
//! loss, every retransmitted and ACK byte must land in the ledger, and the
//! defensive gate must keep a corrupting client from poisoning the global
//! model.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::FlConfig;
use adafl_netsim::{ClientNetwork, GilbertElliott, LinkProfile, LinkTrace, ReliablePolicy};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder};

const CLIENTS: usize = 5;
const ROUNDS: usize = 8;

fn config() -> FlConfig {
    FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .participation(1.0)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build()
}

fn split() -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like(8, 500).generate(4).split_at(400)
}

/// Every client behind a Gilbert–Elliott channel with a 20% long-run loss
/// rate (0.4/(0.1+0.4)·0.05 + 0.1/(0.1+0.4)·0.8 = 0.20).
fn burst_network(seed: u64) -> ClientNetwork {
    let mut net = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        seed,
    );
    for c in 0..CLIENTS {
        net.set_burst_loss(c, GilbertElliott::new(0.1, 0.4, 0.05, 0.8, seed ^ c as u64));
    }
    net
}

fn builder(network: ClientNetwork, faults: FaultPlan) -> RuntimeBuilder {
    let (train, test) = split();
    let cfg = config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .faults(faults)
}

fn engine(network: ClientNetwork, faults: FaultPlan) -> SyncRuntime {
    builder(network, faults).build_sync(Box::new(FedAvg::new()))
}

#[test]
fn retries_beat_fire_and_forget_under_burst_loss() {
    let seed = 7;
    let mut plain = engine(burst_network(seed), FaultPlan::reliable(CLIENTS));
    plain.run();

    let mut reliable = builder(burst_network(seed), FaultPlan::reliable(CLIENTS))
        .retry_policy(Some(ReliablePolicy::default()))
        .build_sync(Box::new(FedAvg::new()));
    reliable.run();

    let plain_delivered = plain.ledger().uplink_updates();
    let reliable_delivered = reliable.ledger().uplink_updates();
    assert!(
        reliable_delivered > plain_delivered,
        "retries did not raise the delivered-update rate: {reliable_delivered} vs {plain_delivered}"
    );
    // 20% loss on both legs wipes out a visible share of the
    // fire-and-forget round trips.
    assert!(plain_delivered < (CLIENTS * ROUNDS) as u64);
}

#[test]
fn ledger_accounts_for_retransmissions_and_acks() {
    let rec = InMemoryRecorder::shared();
    let mut e = builder(burst_network(3), FaultPlan::reliable(CLIENTS))
        .retry_policy(Some(ReliablePolicy::default()))
        .recorder(rec.clone())
        .build_sync(Box::new(FedAvg::new()));
    e.run();

    let ledger = e.ledger();
    // Payload totals never include overhead; the with-control view is
    // exactly payload + ACKs + wasted attempts.
    assert_eq!(
        ledger.total_bytes_with_control(),
        ledger.total_bytes() + ledger.control_bytes() + ledger.retransmission_bytes()
    );
    assert!(
        ledger.retransmission_bytes() > 0,
        "a 20% burst-loss run should have retransmitted something"
    );
    assert!(rec.snapshot().counters[names::NET_RETRIES] > 0);
    // One ACK per delivered transfer, nothing fractional.
    assert_eq!(
        ledger.control_bytes() % ReliablePolicy::default().ack_bytes as u64,
        0
    );
}

#[test]
fn clean_links_make_retry_overhead_exactly_one_ack_per_transfer() {
    let net = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        1,
    );
    let mut e = builder(net, FaultPlan::reliable(CLIENTS))
        .retry_policy(Some(ReliablePolicy::default()))
        .build_sync(Box::new(FedAvg::new()));
    e.run();

    let ledger = e.ledger();
    assert_eq!(ledger.retransmission_bytes(), 0);
    // Full participation, loss-free: every round moves one downlink and one
    // uplink per client, each acknowledged once.
    let transfers = (2 * CLIENTS * ROUNDS) as u64;
    assert_eq!(
        ledger.control_bytes(),
        transfers * ReliablePolicy::default().ack_bytes as u64
    );
    assert_eq!(ledger.uplink_updates(), (CLIENTS * ROUNDS) as u64);
}

/// One client corrupts every update it sends; the defensive gate must keep
/// the global model finite and close to the fault-free run.
#[test]
fn defense_gate_contains_a_corrupting_client() {
    let clean_net = || {
        ClientNetwork::new(
            vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
            1,
        )
    };
    let corrupt_plan = || {
        let mut kinds = vec![FaultKind::Reliable; CLIENTS];
        kinds[0] = FaultKind::Corruption { prob: 1.0 };
        FaultPlan::new(kinds, 5)
    };

    let mut baseline = engine(clean_net(), FaultPlan::reliable(CLIENTS));
    let clean_history = baseline.run();

    let rec = InMemoryRecorder::shared();
    let mut defended = builder(clean_net(), corrupt_plan())
        .defense(Some(DefenseConfig::default()))
        .recorder(rec.clone())
        .build_sync(Box::new(FedAvg::new()));
    let defended_history = defended.run();

    assert!(
        defended.global_params().iter().all(|v| v.is_finite()),
        "defended global model went non-finite"
    );
    let trace = rec.snapshot();
    assert!(
        trace.counters[names::FL_DEFENSE_REJECTIONS] > 0,
        "gate never fired"
    );
    assert!(trace.counters[names::FL_CORRUPTIONS] > 0);
    let gap = (clean_history.final_accuracy() - defended_history.final_accuracy()).abs();
    assert!(
        gap < 0.15,
        "defended run strayed {gap:.3} from the fault-free run"
    );

    // Control: without the gate the same fault leaves the model non-finite.
    let mut exposed = engine(clean_net(), corrupt_plan());
    exposed.run();
    assert!(
        exposed.global_params().iter().any(|v| !v.is_finite()),
        "corruption fault too weak to matter — test is vacuous"
    );
}
