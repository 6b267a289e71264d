//! Integration of the compression stack with federated training: the wire
//! formats must round-trip through the protocol, and DGC-compressed
//! training must approach dense training as compression lightens.

use adafl_compression::{dense_wire_size, DgcCompressor, SparseUpdate, WireCodec};
use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::{FlClient, FlConfig};
use adafl_nn::models::ModelSpec;
use adafl_tensor::vecops;

fn task() -> (Dataset, Dataset) {
    let data = SyntheticSpec::mnist_like(8, 600).generate(2);
    data.split_at(480)
}

fn config(rounds: usize) -> FlConfig {
    FlConfig::builder()
        .clients(6)
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
fn client_delta_survives_wire_round_trip() {
    let (train, _) = task();
    let spec = ModelSpec::LogisticRegression {
        in_features: 64,
        classes: 10,
    };
    let mut client = FlClient::new(0, spec.build(0), train, 0.05, 0.0, 16, 0);
    let global = client.model().params_flat();
    let outcome = client.train_local(&global, 3, None);

    let mut dgc = DgcCompressor::new(outcome.delta.len(), 0.9, 10.0);
    let sparse = dgc.compress(&outcome.delta, 10.0);
    let bytes = sparse.encode();
    let decoded = SparseUpdate::decode(&bytes).expect("wire format round-trips");
    assert_eq!(decoded, sparse);

    // The decoded update applies cleanly to a server-side buffer.
    let mut server = vec![0.0f32; outcome.delta.len()];
    decoded.add_into(&mut server, 1.0);
    assert!(vecops::l2_norm(&server) > 0.0);
    assert!(bytes.len() < dense_wire_size(outcome.delta.len()));
}

#[test]
fn lighter_compression_tracks_dense_training_better() {
    // AdaFL with pinned ratio R: final accuracy should not degrade much at
    // light ratios and should monotonically cost fewer bytes at heavy ones.
    let (train, test) = task();
    let run = |ratio: f32| {
        let ada = AdaFlConfig {
            min_ratio: ratio,
            max_ratio: ratio,
            warmup_ratio: ratio,
            warmup_rounds: 1,
            utility_threshold: 0.0,
            ..AdaFlConfig::default()
        };
        let mut engine = RuntimeBuilder::new(config(25), test.clone())
            .partitioned(&train, Partitioner::Iid)
            .build_adafl_sync(&ada);
        let history = engine.run();
        (history.final_accuracy(), engine.ledger().uplink_bytes())
    };
    let (acc_light, bytes_light) = run(1.0);
    let (acc_heavy, bytes_heavy) = run(64.0);
    assert!(
        bytes_heavy < bytes_light / 4,
        "heavy compression did not cut bytes: {bytes_heavy} vs {bytes_light}"
    );
    assert!(
        acc_light > 0.6,
        "dense-equivalent run failed to learn: {acc_light}"
    );
    // Heavy compression may lose accuracy but must not destroy learning —
    // DGC's accumulation keeps the information flowing.
    assert!(acc_heavy > 0.4, "heavy DGC destroyed learning: {acc_heavy}");
}

#[test]
fn adafl_reported_ratios_stay_within_configured_bounds() {
    let (train, test) = task();
    let ada = AdaFlConfig {
        min_ratio: 4.0,
        max_ratio: 210.0,
        warmup_rounds: 1,
        ..AdaFlConfig::default()
    };
    let dense = dense_wire_size(config(1).model.build(0).param_count());
    let mut engine = RuntimeBuilder::new(config(10), test)
        .partitioned(&train, Partitioner::Iid)
        .build_adafl_sync(&ada);
    engine.run();
    // Mean uplink payload must sit between the heaviest-compressed payload
    // and the dense payload (score reports push it down, warm-up up).
    let mean = engine.ledger().mean_uplink_payload();
    assert!(
        mean > 0.0 && mean < dense as f64,
        "implausible mean payload {mean}"
    );
}
