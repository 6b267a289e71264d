//! End-to-end integration tests spanning every crate: data generation →
//! partitioning → federated training over the simulated network →
//! aggregation → evaluation.

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::{FedAdam, FedAvg, FedProx, Scaffold};
use adafl_fl::sync::SyncStrategy;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

fn task() -> (Dataset, Dataset) {
    let data = SyntheticSpec::mnist_like(8, 600).generate(0);
    data.split_at(480)
}

fn config(rounds: usize) -> FlConfig {
    FlConfig::builder()
        .clients(6)
        .rounds(rounds)
        .participation(0.5)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build()
}

fn run_strategy(strategy: Box<dyn SyncStrategy>, partitioner: Partitioner) -> f32 {
    let (train, test) = task();
    let mut engine = RuntimeBuilder::new(config(30), test)
        .partitioned(&train, partitioner)
        .build_sync(strategy);
    engine.run().final_accuracy()
}

#[test]
fn all_sync_baselines_learn_iid() {
    let strategies: Vec<(&str, Box<dyn SyncStrategy>)> = vec![
        ("fedavg", Box::new(FedAvg::new())),
        ("fedadam", Box::new(FedAdam::new(0.01))),
        ("fedprox", Box::new(FedProx::new(0.01))),
        ("scaffold", Box::new(Scaffold::new())),
    ];
    for (name, s) in strategies {
        let acc = run_strategy(s, Partitioner::Iid);
        assert!(acc > 0.6, "{name} reached only {acc}");
    }
}

#[test]
fn fedavg_learns_under_label_shards() {
    let acc = run_strategy(
        Box::new(FedAvg::new()),
        Partitioner::LabelShards {
            shards_per_client: 2,
        },
    );
    assert!(acc > 0.4, "non-IID fedavg collapsed to {acc}");
}

#[test]
fn adafl_matches_fedavg_accuracy_with_fewer_bytes() {
    let (train, test) = task();
    let mut fedavg = RuntimeBuilder::new(config(30), test.clone())
        .partitioned(&train, Partitioner::Iid)
        .build_sync(Box::new(FedAvg::new()));
    let fedavg_acc = fedavg.run().final_accuracy();

    let mut adafl = RuntimeBuilder::new(config(30), test)
        .partitioned(&train, Partitioner::Iid)
        .build_adafl_sync(&AdaFlConfig {
            max_selected: 3,
            ..AdaFlConfig::default()
        });
    let adafl_acc = adafl.run().final_accuracy();

    assert!(
        adafl_acc > fedavg_acc - 0.1,
        "adafl lost too much accuracy: {adafl_acc} vs {fedavg_acc}"
    );
    assert!(
        (adafl.ledger().uplink_bytes() as f64) < fedavg.ledger().uplink_bytes() as f64 * 0.6,
        "adafl did not save ≥40% uplink: {} vs {}",
        adafl.ledger().uplink_bytes(),
        fedavg.ledger().uplink_bytes()
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (train, test) = task();
        let mut engine = RuntimeBuilder::new(config(8), test)
            .partitioned(
                &train,
                Partitioner::LabelShards {
                    shards_per_client: 2,
                },
            )
            .build_sync(Box::new(FedAvg::new()));
        let h = engine.run();
        (h, engine.ledger().clone())
    };
    let (h1, l1) = run();
    let (h2, l2) = run();
    assert_eq!(h1, h2);
    assert_eq!(l1, l2);
}

#[test]
fn different_seeds_give_different_runs() {
    let run = |seed: u64| {
        let (train, test) = task();
        let cfg = FlConfig::builder()
            .clients(6)
            .rounds(5)
            .local_steps(3)
            .batch_size(16)
            .seed(seed)
            .model(ModelSpec::LogisticRegression {
                in_features: 64,
                classes: 10,
            })
            .build();
        let mut engine = RuntimeBuilder::new(cfg, test)
            .partitioned(&train, Partitioner::Iid)
            .build_sync(Box::new(FedAvg::new()));
        engine.run()
    };
    assert_ne!(run(1), run(2));
}
