//! Compression tuning: the accuracy ↔ bandwidth trade-off of deep gradient
//! compression, and how AdaFL's adaptive ratio sits on that curve.
//!
//! First sweeps *fixed* DGC ratios inside the synchronous AdaFL flavour (by pinning
//! `min_ratio = max_ratio`), then runs the adaptive default — showing that
//! adapting the rate to utility gets near-best accuracy at near-lowest
//! bytes, which is the paper's second design claim.
//!
//! ```text
//! cargo run --release --example compression_tuning
//! ```

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

fn main() {
    let data = SyntheticSpec::mnist_like(16, 1200).generate(5);
    let (train, test) = data.split_at(1000);
    let partitioner = Partitioner::LabelShards {
        shards_per_client: 2,
    };
    let fl = FlConfig::builder()
        .clients(10)
        .rounds(20)
        .model(ModelSpec::MnistCnn {
            height: 16,
            width: 16,
            classes: 10,
        })
        .build();

    let run = |ada: AdaFlConfig| {
        let mut runtime = RuntimeBuilder::new(fl.clone(), test.clone())
            .partitioned(&train, partitioner)
            .build_adafl_sync(&ada);
        let history = runtime.run();
        (history.final_accuracy(), runtime.ledger().uplink_bytes())
    };

    println!("== fixed DGC ratio sweep vs adaptive (20 rounds, non-IID) ==");
    println!("{:<14} {:<10} {:<12}", "ratio", "accuracy", "uplink");
    for ratio in [1.0f32, 4.0, 32.0, 210.0] {
        let (acc, bytes) = run(AdaFlConfig {
            min_ratio: ratio,
            max_ratio: ratio,
            warmup_ratio: ratio,
            ..AdaFlConfig::default()
        });
        println!(
            "{:<14} {:<10.3} {:<12.2}MB",
            format!("fixed {ratio}x"),
            acc,
            bytes as f64 / 1e6
        );
    }
    let (acc, bytes) = run(AdaFlConfig::default());
    println!(
        "{:<14} {:<10.3} {:<12.2}MB",
        "adaptive 4-210x",
        acc,
        bytes as f64 / 1e6
    );
    println!();
    println!("Fixed light compression buys accuracy with bandwidth; fixed heavy");
    println!("compression does the reverse. The utility-adaptive rate keeps the");
    println!("high-utility updates dense and compresses the rest.");
}
