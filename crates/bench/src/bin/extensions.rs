//! Beyond-the-paper extensions table: the related-work *static* techniques
//! (fixed top-k \[10]\[14], QSGD \[11], TernGrad \[13]) and the other
//! adaptive server optimizers from Reddi et al. \[34] (FedAdagrad,
//! FedYogi), all against AdaFL on the non-IID MNIST-like CNN task.
//!
//! This is the quantitative version of the paper's related-work argument:
//! static compression trades accuracy for a *fixed* byte budget, while
//! AdaFL's utility-adaptive rates move along the Pareto front.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin extensions
//! cargo run -p adafl-bench --release --bin extensions -- --quick
//! ```

use adafl_bench::args::Args;
use adafl_bench::report;
use adafl_bench::runner::Scenario;
use adafl_bench::tasks::Task;
use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_fl::runtime::{RuntimeBuilder, SyncPolicies};
use adafl_fl::sync::strategies::{FedAdagrad, FedAvg, FedYogi};
use adafl_fl::sync::{StaticCompression, SyncStrategy};
use adafl_fl::FlConfig;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let rounds = args.get_usize("rounds", if quick { 15 } else { 80 });
    let seed = args.get_u64("seed", 42);
    args.reject_unknown();
    let (train, test) = if quick { (600, 150) } else { (2000, 400) };
    let task = Task::mnist_cnn(train, test, seed);
    let partitioner = Partitioner::LabelShards {
        shards_per_client: 2,
    };

    let fl = FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .participation(0.5)
        .local_steps(5)
        .batch_size(32)
        .model(task.model.clone())
        .seed(seed)
        .build();
    // The strategies below are not runner names, so the runtimes are built
    // here, over the paper fleet's links and compute.
    let paper = Scenario::paper(task, fl);
    let builder = || {
        RuntimeBuilder::new(paper.fl.clone(), paper.task.test.clone())
            .partitioned(&paper.task.train, partitioner)
            .network(paper.network.clone())
            .compute(paper.compute.clone())
    };

    let mut table = report::TextTable::new([
        "variant",
        "final_acc",
        "uplink_bytes",
        "mean_payload",
        "updates",
    ]);

    // Dense and statically-compressed FedAvg, plus the extra adaptive
    // server optimizers.
    let runs: Vec<(&str, Box<dyn SyncStrategy>, StaticCompression)> = vec![
        (
            "fedavg-dense",
            Box::new(FedAvg::new()),
            StaticCompression::None,
        ),
        (
            "fedavg-topk32",
            Box::new(FedAvg::new()),
            StaticCompression::TopK { ratio: 32.0 },
        ),
        (
            "fedavg-qsgd8",
            Box::new(FedAvg::new()),
            StaticCompression::Qsgd { levels: 8 },
        ),
        (
            "fedavg-terngrad",
            Box::new(FedAvg::new()),
            StaticCompression::TernGrad,
        ),
        (
            "fedadagrad",
            Box::new(FedAdagrad::new(0.02, 1e-3)),
            StaticCompression::None,
        ),
        (
            "fedyogi",
            Box::new(FedYogi::new(0.02, 1e-3)),
            StaticCompression::None,
        ),
    ];
    for (name, strategy, scheme) in runs {
        let b = builder();
        let policies = SyncPolicies::baseline(b.fl(), strategy, scheme);
        let mut engine = b.build_sync_runtime(policies);
        let history = engine.run();
        eprintln!("extensions {name}: acc {:.3}", history.final_accuracy());
        table.row([
            name.to_string(),
            format!("{:.2}%", history.final_accuracy() * 100.0),
            report::human_bytes(engine.ledger().uplink_bytes()),
            report::human_bytes(engine.ledger().mean_uplink_payload() as u64),
            engine.ledger().uplink_updates().to_string(),
        ]);
    }

    // AdaFL reference.
    let mut adafl = builder().build_adafl_sync(&AdaFlConfig::default());
    let history = adafl.run();
    eprintln!("extensions adafl: acc {:.3}", history.final_accuracy());
    table.row([
        "adafl".to_string(),
        format!("{:.2}%", history.final_accuracy() * 100.0),
        report::human_bytes(adafl.ledger().uplink_bytes()),
        report::human_bytes(adafl.ledger().mean_uplink_payload() as u64),
        adafl.ledger().uplink_updates().to_string(),
    ]);

    println!("{}", table.render());
}
