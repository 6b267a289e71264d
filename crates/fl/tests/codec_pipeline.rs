//! End-to-end codec pipeline acceptance: quantized and ternary payloads
//! must travel a full synchronous round — selection → encode →
//! corruption injected into the real wire bytes → defense gate →
//! aggregation — with the ledger charged exactly the codec's
//! `encoded_len()` for every uplink, and learning must survive a fully
//! corrupting client.

use adafl_compression::codec::{QUANTIZED_HEADER_BYTES, TERNARY_HEADER_BYTES};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::runtime::{RuntimeBuilder, SyncPolicies, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::sync::StaticCompression;
use adafl_fl::FlConfig;
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder};
use std::sync::Arc;

const CLIENTS: usize = 6;
const ROUNDS: usize = 10;

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

fn task() -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like(8, 600).generate(2).split_at(480)
}

/// One fully-corrupting client; everyone else reliable.
fn corrupt_plan() -> FaultPlan {
    let mut kinds = vec![FaultKind::Reliable; CLIENTS];
    kinds[0] = FaultKind::Corruption { prob: 1.0 };
    FaultPlan::new(kinds, 11)
}

fn engine(scheme: StaticCompression) -> (SyncRuntime, Arc<InMemoryRecorder>) {
    let (train, test) = task();
    let cfg = config();
    let shards = Partitioner::Iid.split(&train, CLIENTS, cfg.seed_for("partition"));
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        cfg.seed_for("network"),
    );
    let policies = SyncPolicies::baseline(&cfg, Box::new(FedAvg::new()), scheme);
    let rec = InMemoryRecorder::shared();
    let e = RuntimeBuilder::new(cfg, test)
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .faults(corrupt_plan())
        .defense(Some(DefenseConfig::default()))
        .recorder(rec.clone())
        .build_sync_runtime(policies);
    (e, rec)
}

/// Exact per-update wire size for each scheme at model dimension `dim`,
/// straight from the codec layout table.
fn per_update_len(scheme: StaticCompression, dim: usize) -> u64 {
    match scheme {
        StaticCompression::Qsgd { .. } => (QUANTIZED_HEADER_BYTES + dim) as u64,
        StaticCompression::TernGrad => (TERNARY_HEADER_BYTES + dim.div_ceil(4)) as u64,
        _ => panic!("only the packed forms are under test"),
    }
}

#[test]
fn packed_payloads_survive_corruption_and_charge_exact_bytes() {
    for scheme in [
        StaticCompression::Qsgd { levels: 8 },
        StaticCompression::TernGrad,
    ] {
        let (mut e, rec) = engine(scheme);
        let history = e.run();

        // Corruption really flowed through the encoded bytes.
        let trace = rec.snapshot();
        assert!(
            trace.counters[names::FL_CORRUPTIONS] > 0,
            "{scheme:?}: no corruption was injected"
        );

        // The gate + decode-reject path contained the corrupting client.
        assert!(
            e.global_params().iter().all(|v| v.is_finite()),
            "{scheme:?}: global model went non-finite"
        );
        assert!(
            history.final_accuracy() > 0.3,
            "{scheme:?}: learning did not survive corruption: {}",
            history.final_accuracy()
        );

        // Ledger accounting is byte-real: every uplink update — including
        // corrupted and decode-rejected ones, whose frames keep their
        // length — costs exactly the codec's encoded frame size.
        let expected = per_update_len(scheme, e.global_params().len());
        let ledger = e.ledger();
        assert_eq!(
            ledger.uplink_bytes(),
            ledger.uplink_updates() * expected,
            "{scheme:?}: ledger bytes drifted from encoded_len()"
        );
        assert_eq!(ledger.uplink_updates(), (CLIENTS * ROUNDS) as u64);
    }
}

#[test]
fn corrupted_packed_frames_reject_or_decode_deterministically() {
    // Byte-overwrite corruption on the packed forms may land in the
    // header (frame rejected at arrival) or the code body (frame decodes
    // to perturbed values for the defense gate to judge). Both paths are
    // deterministic under fixed seeds, and the server must account for
    // every corrupted frame one way or the other.
    let mut decode_rejects = 0u64;
    let mut defense_rejects = 0u64;
    for scheme in [
        StaticCompression::Qsgd { levels: 8 },
        StaticCompression::TernGrad,
    ] {
        let (mut e, rec) = engine(scheme);
        e.run();
        let trace = rec.snapshot();
        decode_rejects += trace
            .counters
            .get(names::FL_DECODE_REJECTIONS)
            .copied()
            .unwrap_or(0);
        defense_rejects += trace
            .counters
            .get(names::FL_DEFENSE_REJECTIONS)
            .copied()
            .unwrap_or(0);
    }
    assert!(
        decode_rejects + defense_rejects > 0,
        "corrupting client was never caught: {decode_rejects} decode rejects, \
         {defense_rejects} defense rejects"
    );
}
