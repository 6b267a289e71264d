//! Quickstart: train a federated model with AdaFL and compare its
//! communication bill against plain FedAvg.
//!
//! Both runs are the same `RuntimeBuilder` chain and come back as the same
//! `SyncRuntime`; only the last call — which policy bundle specialises the
//! round — differs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

fn main() {
    // 1. A dataset. Offline stand-in for MNIST: 10 synthetic classes of
    //    16×16 images (see DESIGN.md for why this preserves the dynamics).
    let data = SyntheticSpec::mnist_like(16, 1200).generate(7);
    let (train, test) = data.split_at(1000);

    // 2. The federation: 10 clients, non-IID shards, the paper's CNN.
    let fl = FlConfig::builder()
        .clients(10)
        .rounds(20)
        .participation(0.5)
        .model(ModelSpec::MnistCnn {
            height: 16,
            width: 16,
            classes: 10,
        })
        .build();
    let partitioner = Partitioner::LabelShards {
        shards_per_client: 2,
    };

    // 3. Baseline bundle: random selection, dense uplinks, FedAvg at fixed
    //    r_p = 0.5.
    let mut fedavg = RuntimeBuilder::new(fl.clone(), test.clone())
        .partitioned(&train, partitioner)
        .build_sync(Box::new(FedAvg::new()));
    let fedavg_history = fedavg.run();

    // 4. AdaFL bundle: utility-guided selection + adaptive DGC compression
    //    (`AdaFlBuild` adds this method to the builder).
    let mut adafl = RuntimeBuilder::new(fl, test)
        .partitioned(&train, partitioner)
        .build_adafl_sync(&AdaFlConfig::default());
    let adafl_history = adafl.run();

    println!("== quickstart: AdaFL vs FedAvg (20 rounds, non-IID) ==");
    println!(
        "fedavg: accuracy {:.1}%, uplink {:.2} MB over {} updates",
        fedavg_history.final_accuracy() * 100.0,
        fedavg.ledger().uplink_bytes() as f64 / 1e6,
        fedavg.ledger().uplink_updates(),
    );
    println!(
        "adafl:  accuracy {:.1}%, uplink {:.2} MB over {} updates",
        adafl_history.final_accuracy() * 100.0,
        adafl.ledger().uplink_bytes() as f64 / 1e6,
        adafl.ledger().uplink_updates(),
    );
    let saved = 1.0 - adafl.ledger().uplink_bytes() as f64 / fedavg.ledger().uplink_bytes() as f64;
    println!("adafl saved {:.1}% of FedAvg's uplink bytes", saved * 100.0);
}
