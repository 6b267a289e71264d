//! Ablations over AdaFL's design choices (DESIGN.md's design-decision
//! index): similarity metric, similarity-vs-bandwidth weight β, warm-up
//! length, compression-ratio bounds and the utility threshold τ.
//!
//! All runs use the non-IID MNIST-like CNN setting where selection matters
//! most (paper §V: "the results indicate the importance of the utility
//! score guided training, especially under non-IID settings").
//!
//! ```text
//! cargo run -p adafl-bench --release --bin ablation
//! cargo run -p adafl-bench --release --bin ablation -- --quick
//! ```

use adafl_bench::args::Args;
use adafl_bench::report;
use adafl_bench::runner::{run_sync, Scenario};
use adafl_bench::tasks::Task;
use adafl_core::selection::SelectionPolicy;
use adafl_core::{AdaFlConfig, SimilarityMetric};
use adafl_data::partition::Partitioner;
use adafl_fl::FlConfig;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let rounds = args.get_usize("rounds", if quick { 12 } else { 60 });
    let seed = args.get_u64("seed", 42);
    args.reject_unknown();
    let (train, test) = if quick { (600, 150) } else { (1500, 400) };
    let task = Task::mnist_cnn(train, test, seed);

    let base = AdaFlConfig::default();
    let variants: Vec<(String, AdaFlConfig)> = vec![
        ("default".into(), base.clone()),
        (
            "metric=l2norm".into(),
            AdaFlConfig {
                metric: SimilarityMetric::L2Norm,
                ..base.clone()
            },
        ),
        (
            "metric=euclidean".into(),
            AdaFlConfig {
                metric: SimilarityMetric::Euclidean,
                ..base.clone()
            },
        ),
        (
            "beta=0.0".into(),
            AdaFlConfig {
                similarity_weight: 0.0,
                ..base.clone()
            },
        ),
        (
            "beta=0.3".into(),
            AdaFlConfig {
                similarity_weight: 0.3,
                ..base.clone()
            },
        ),
        (
            "beta=1.0".into(),
            AdaFlConfig {
                similarity_weight: 1.0,
                ..base.clone()
            },
        ),
        (
            "warmup=0".into(),
            AdaFlConfig {
                warmup_rounds: 0,
                ..base.clone()
            },
        ),
        (
            "warmup=8".into(),
            AdaFlConfig {
                warmup_rounds: 8,
                ..base.clone()
            },
        ),
        (
            "ratio=4-50".into(),
            AdaFlConfig {
                min_ratio: 4.0,
                max_ratio: 50.0,
                ..base.clone()
            },
        ),
        (
            "ratio=2-500".into(),
            AdaFlConfig {
                min_ratio: 2.0,
                max_ratio: 500.0,
                ..base.clone()
            },
        ),
        (
            "tau=0.0".into(),
            AdaFlConfig {
                utility_threshold: 0.0,
                ..base.clone()
            },
        ),
        (
            "tau=0.6".into(),
            AdaFlConfig {
                utility_threshold: 0.6,
                ..base.clone()
            },
        ),
        (
            "select=random".into(),
            AdaFlConfig {
                selection: SelectionPolicy::RandomK,
                ..base.clone()
            },
        ),
        (
            "select=roundrobin".into(),
            AdaFlConfig {
                selection: SelectionPolicy::RoundRobin,
                ..base.clone()
            },
        ),
        (
            "curve=1.0".into(),
            AdaFlConfig {
                ratio_curve: 1.0,
                ..base.clone()
            },
        ),
        (
            "dgc_momentum=0.9".into(),
            AdaFlConfig {
                dgc_momentum: 0.9,
                ..base.clone()
            },
        ),
    ];

    let mut table = report::TextTable::new([
        "variant",
        "final_acc",
        "best_acc",
        "uplink_bytes",
        "updates",
    ]);
    for (name, ada) in variants {
        let fl = FlConfig::builder()
            .clients(clients)
            .rounds(rounds)
            .participation(0.5)
            .local_steps(5)
            .batch_size(32)
            .model(task.model.clone())
            .seed(seed)
            .build();
        let scenario = Scenario {
            partitioner: Partitioner::LabelShards {
                shards_per_client: 2,
            },
            ada,
            ..Scenario::paper(task.clone(), fl)
        };
        let result = run_sync(&scenario, "adafl");
        eprintln!(
            "ablation {name}: acc {:.3}",
            result.history.final_accuracy()
        );
        table.row([
            name,
            format!("{:.2}%", result.history.final_accuracy() * 100.0),
            format!("{:.2}%", result.history.best_accuracy() * 100.0),
            report::human_bytes(result.uplink_bytes),
            result.uplink_updates.to_string(),
        ]);
    }
    println!("{}", table.render());
}
