//! Checkpoint/resume across runtime instances: a server that restarts from a
//! checkpoint must continue improving from where it left off.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::checkpoint::Checkpoint;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

fn task() -> (Dataset, Dataset) {
    let data = SyntheticSpec::mnist_like(8, 600).generate(8);
    data.split_at(480)
}

fn config(rounds: usize) -> FlConfig {
    FlConfig::builder()
        .clients(5)
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
fn resumed_engine_continues_improving() {
    let (train, test) = task();
    // Phase 1: train 10 rounds and checkpoint.
    let mut first = RuntimeBuilder::new(config(10), test.clone())
        .partitioned(&train, Partitioner::Iid)
        .build_sync(Box::new(FedAvg::new()));
    let h1 = first.run();
    let ckpt = Checkpoint::new(10, first.global_params().to_vec());
    let bytes = ckpt.encode();

    // Phase 2: a fresh runtime restores the checkpoint and keeps training.
    let restored = Checkpoint::decode(&bytes).expect("valid checkpoint");
    assert_eq!(restored.round, 10);
    let mut second = RuntimeBuilder::new(config(10), test.clone())
        .partitioned(&train, Partitioner::Iid)
        .build_sync(Box::new(FedAvg::new()));
    second.set_global_params(&restored.params);
    let h2 = second.run();

    assert!(
        h2.final_accuracy() >= h1.final_accuracy() - 0.05,
        "resume regressed: {} then {}",
        h1.final_accuracy(),
        h2.final_accuracy()
    );
    // The resumed run must start from the checkpointed accuracy, not from
    // scratch: its first evaluation should already be far above chance.
    assert!(
        h2.records()[0].accuracy > 0.4,
        "resume started cold: {}",
        h2.records()[0].accuracy
    );
}

#[test]
fn file_checkpoint_survives_round_trip_mid_training() {
    let (train, test) = task();
    let mut engine = RuntimeBuilder::new(config(4), test)
        .partitioned(&train, Partitioner::Iid)
        .build_sync(Box::new(FedAvg::new()));
    engine.run();
    let dir = std::env::temp_dir().join("adafl_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.ckpt");
    Checkpoint::new(4, engine.global_params().to_vec())
        .write_file(&path)
        .unwrap();
    let back = Checkpoint::read_file(&path).unwrap();
    assert_eq!(back.params, engine.global_params());
    std::fs::remove_file(&path).ok();
}

#[test]
#[should_panic(expected = "length mismatch")]
fn restoring_wrong_sized_checkpoint_panics() {
    let (train, test) = task();
    let mut engine = RuntimeBuilder::new(config(2), test)
        .partitioned(&train, Partitioner::Iid)
        .build_sync(Box::new(FedAvg::new()));
    engine.set_global_params(&[0.0; 3]);
}
