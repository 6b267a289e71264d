//! Table II — asynchronous FL evaluation results.
//!
//! Same columns as Table I for FedAsync, FedBuff and fully-asynchronous
//! AdaFL.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin table2
//! cargo run -p adafl-bench --release --bin table2 -- --quick
//! ```

use adafl_bench::args::Args;
use adafl_bench::report;
use adafl_bench::runner::{run_async, Scenario, ASYNC_STRATEGIES};
use adafl_bench::tasks::Task;
use adafl_compression::dense_wire_size;
use adafl_core::AdaFlConfig;
use adafl_fl::FlConfig;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let budget = args.get_u64("budget", if quick { 120 } else { 400 });
    let seed = args.get_u64("seed", 42);
    args.reject_unknown();
    let (train, test) = if quick { (600, 150) } else { (2000, 400) };

    let tasks = if quick {
        vec![Task::mnist_cnn(train, test, seed)]
    } else {
        vec![
            Task::mnist_cnn(train, test, seed),
            Task::cifar100_vgg(train, test, seed),
        ]
    };

    let mut table = report::TextTable::new([
        "method",
        "task",
        "clients",
        "particip",
        "update_freq",
        "cost_reduc",
        "grad_size",
        "compress",
        "acc_iid",
        "acc_noniid",
    ]);

    for task in &tasks {
        let dense = dense_wire_size(task.model.build(0).param_count());
        // "Ideal" reference: the full budget delivered dense by everyone.
        let ideal_bytes = 2 * budget * dense as u64;

        for strategy in ASYNC_STRATEGIES {
            let mut accs = Vec::new();
            let mut freq = 0u64;
            let mut bytes = 0u64;
            for (_dist, partitioner) in Task::partitioners() {
                let fl = FlConfig::builder()
                    .clients(clients)
                    .rounds(40)
                    .local_steps(5)
                    .batch_size(32)
                    .model(task.model.clone())
                    .seed(seed)
                    .build();
                let scenario = Scenario {
                    partitioner,
                    update_budget: budget,
                    ..Scenario::paper(task.clone(), fl)
                };
                let result = run_async(&scenario, strategy);
                eprintln!(
                    "table2 {strategy} {} {_dist}: acc {:.3}, {} updates, {} up",
                    task.name,
                    result.history.final_accuracy(),
                    result.uplink_updates,
                    report::human_bytes(result.uplink_bytes)
                );
                accs.push(result.history.final_accuracy());
                freq = result.uplink_updates;
                bytes = result.uplink_bytes;
            }
            let (grad_size, compress, particip) = if strategy == "adafl" {
                let ada = AdaFlConfig::default();
                (
                    format!(
                        "{}-{}",
                        report::human_bytes((dense as f32 / ada.max_ratio) as u64),
                        report::human_bytes((dense as f32 / ada.min_ratio) as u64)
                    ),
                    format!("{:.0}x-{:.0}x", ada.max_ratio, ada.min_ratio),
                    "adaptive".to_string(),
                )
            } else {
                (
                    report::human_bytes(dense as u64),
                    "1x".to_string(),
                    "0.5".to_string(),
                )
            };
            table.row([
                strategy.to_string(),
                task.name.to_string(),
                clients.to_string(),
                particip,
                freq.to_string(),
                format!("{:.1}%", report::cost_reduction_pct(ideal_bytes, bytes)),
                grad_size,
                compress,
                format!("{:.2}%", accs[0] * 100.0),
                format!("{:.2}%", accs[1] * 100.0),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "(cost_reduc is uplink bytes saved vs. a dense no-selection run of {budget}x2 updates)"
    );
}
