//! Resilience invariants on the AdaFL engines: the defensive gate must
//! contain corrupting clients on the DGC-compressed path, crash faults must
//! recover through checkpoints — and compose with a pooled fleet, which has
//! none to keep — and reliable transport must compose with adaptive
//! selection without breaking determinism.

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::{FlConfig, VecShardSource};
use adafl_netsim::{ClientNetwork, GilbertElliott, LinkProfile, LinkTrace, ReliablePolicy};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder};

const CLIENTS: usize = 6;
const ROUNDS: usize = 8;

fn task() -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like(8, 600).generate(1).split_at(480)
}

fn fl_config() -> FlConfig {
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

fn ada_config() -> AdaFlConfig {
    AdaFlConfig {
        max_selected: CLIENTS,
        warmup_rounds: 2,
        ..AdaFlConfig::default()
    }
}

fn clean_network(seed: u64) -> ClientNetwork {
    ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        seed,
    )
}

fn sync_builder(network: ClientNetwork, faults: FaultPlan) -> RuntimeBuilder {
    let (train, test) = task();
    let cfg = fl_config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .faults(faults)
}

fn corrupt_plan() -> FaultPlan {
    let mut kinds = vec![FaultKind::Reliable; CLIENTS];
    kinds[0] = FaultKind::Corruption { prob: 1.0 };
    FaultPlan::new(kinds, 5)
}

/// The acceptance check on the AdaFL path: a fully-corrupting client on the
/// DGC-compressed uplink is rejected by the gate, the global model stays
/// finite and within tolerance of the fault-free run.
#[test]
fn adafl_defense_gate_contains_a_corrupting_client() {
    let mut baseline = sync_builder(clean_network(1), FaultPlan::reliable(CLIENTS))
        .build_adafl_sync(&ada_config());
    let clean_history = baseline.run();

    let rec = InMemoryRecorder::shared();
    let mut defended = sync_builder(clean_network(1), corrupt_plan())
        .defense(Some(DefenseConfig::default()))
        .recorder(rec.clone())
        .build_adafl_sync(&ada_config());
    let defended_history = defended.run();

    assert!(
        defended.global_params().iter().all(|v| v.is_finite()),
        "defended AdaFL global model went non-finite"
    );
    let trace = rec.snapshot();
    assert!(trace.counters[names::FL_DEFENSE_REJECTIONS] > 0);
    assert!(trace.counters[names::FL_CORRUPTIONS] > 0);
    let gap = (clean_history.final_accuracy() - defended_history.final_accuracy()).abs();
    assert!(
        gap < 0.15,
        "defended AdaFL run strayed {gap:.3} from the fault-free run"
    );
}

#[test]
fn adafl_crash_faults_recover_through_checkpoints() {
    let mut kinds = vec![FaultKind::Reliable; CLIENTS];
    kinds[1] = FaultKind::Crash {
        at_round: 2,
        down_for: 2,
    };
    let rec = InMemoryRecorder::shared();
    let mut e = sync_builder(clean_network(1), FaultPlan::new(kinds, 3))
        .recorder(rec.clone())
        .build_adafl_sync(&ada_config());
    let history = e.run();

    let trace = rec.snapshot();
    assert_eq!(trace.counters[names::FL_CRASHES], 1);
    assert_eq!(trace.counters[names::FL_RECOVERIES], 1);
    let recovery = trace
        .events_of(names::EVENT_RECOVERY)
        .next()
        .expect("recovery event recorded");
    assert_eq!(recovery.round, Some(4));
    assert!(history.final_accuracy() > 0.3);
}

/// A pooled device keeps no replica — it trains from the global model — so
/// a crash there has no state to checkpoint: the client sits its outage out,
/// the crash and the recovery are each reported once, and the run stays
/// reproducible.
#[test]
fn pooled_crash_faults_sit_the_outage_out() {
    let run = || {
        let mut kinds = vec![FaultKind::Reliable; CLIENTS];
        kinds[1] = FaultKind::Crash {
            at_round: 2,
            down_for: 2,
        };
        let (train, test) = task();
        let cfg = fl_config();
        let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
        let rec = InMemoryRecorder::shared();
        let mut rt = RuntimeBuilder::new(cfg, test)
            .shard_source(Box::new(VecShardSource::new(shards)))
            .network(clean_network(1))
            .compute(ComputeModel::uniform(CLIENTS, 0.05))
            .faults(FaultPlan::new(kinds, 3))
            .recorder(rec.clone())
            .build_sync(Box::new(FedAvg::new()));
        assert!(rt.is_pooled());
        let history = rt.run();
        let trace = rec.snapshot().without_wall_times();
        (history, rt.ledger().clone(), trace)
    };
    let (history, ledger, trace) = run();

    assert_eq!(trace.counters[names::FL_CRASHES], 1);
    assert_eq!(trace.counters[names::FL_RECOVERIES], 1);
    let rounds_of = |kind| -> Vec<Option<u64>> { trace.events_of(kind).map(|e| e.round).collect() };
    assert_eq!(rounds_of(names::EVENT_CRASH), [Some(2)]);
    assert_eq!(rounds_of(names::EVENT_RECOVERY), [Some(4)]);
    let trained_in: Vec<u64> = trace
        .spans_of(names::SPAN_CLIENT_COMPUTE)
        .filter(|s| s.client == Some(1))
        .filter_map(|s| s.round)
        .collect();
    assert_eq!(trained_in, [0, 1, 4, 5, 6, 7], "down for rounds 2 and 3");
    assert!(history.final_accuracy() > 0.3);

    assert_eq!(run(), (history, ledger, trace));
}

#[test]
fn adafl_retry_transport_is_deterministic_under_burst_loss() {
    let burst = |seed: u64| {
        let mut net = clean_network(seed);
        for c in 0..CLIENTS / 2 {
            net.set_burst_loss(c, GilbertElliott::new(0.1, 0.4, 0.05, 0.8, seed ^ c as u64));
        }
        net
    };
    let run = || {
        let mut e = sync_builder(burst(7), FaultPlan::reliable(CLIENTS))
            .retry_policy(Some(ReliablePolicy::default()))
            .defense(Some(DefenseConfig::default()))
            .build_adafl_sync(&ada_config());
        let history = e.run();
        (history, e.ledger().total_bytes_with_control())
    };
    let (h1, b1) = run();
    let (h2, b2) = run();
    assert_eq!(h1, h2, "hardened AdaFL run not reproducible");
    assert_eq!(b1, b2);
}

/// The async AdaFL path must also survive a corrupting client: arrivals
/// keep flowing (budget is met) and the model stays finite.
#[test]
fn adafl_async_defense_gate_keeps_model_finite() {
    let (train, test) = task();
    let cfg = fl_config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    let rec = InMemoryRecorder::shared();
    let mut e = RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(clean_network(1))
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .faults(corrupt_plan())
        .update_budget(60)
        .defense(Some(DefenseConfig::default()))
        .recorder(rec.clone())
        .build_adafl_async(&ada_config());
    let history = e.run();

    assert!(!history.is_empty());
    let trace = rec.snapshot();
    assert!(trace.counters[names::FL_CORRUPTIONS] > 0);
    assert!(trace.counters[names::FL_DEFENSE_REJECTIONS] > 0);
    assert!(history.final_accuracy() > 0.3, "async run failed to learn");
}
