//! Figure 3 — testing accuracy of the CNN on the MNIST-like task for
//! synchronous and asynchronous FL protocols.
//!
//! Panels (a, b), synchronous: FedAvg / FedAdam / FedProx / SCAFFOLD at
//! fixed `r_p = 0.5` vs. AdaFL with adaptive `k ≤ 5`, under IID (a) and
//! non-IID (b) distributions — accuracy vs. round.
//!
//! Panels (c, d), asynchronous: FedAsync / FedBuff vs. fully-asynchronous
//! AdaFL — accuracy vs. simulated time.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin fig3 -- --protocol sync
//! cargo run -p adafl-bench --release --bin fig3 -- --protocol async
//! ```

use adafl_bench::args::Args;
use adafl_bench::report;
use adafl_bench::runner::{
    run_async, run_sync, RunResult, Scenario, ASYNC_STRATEGIES, SYNC_STRATEGIES,
};
use adafl_bench::tasks::Task;
use adafl_fl::FlConfig;

fn main() {
    let args = Args::from_env();
    let protocol = args.get("protocol").unwrap_or("sync").to_string();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let seed = args.get_u64("seed", 42);
    let (train, test) = if quick { (600, 150) } else { (2000, 500) };
    let task = Task::mnist_cnn(train, test, seed);

    let scenario_for = |partitioner, fl: FlConfig, budget: u64| Scenario {
        partitioner,
        update_budget: budget,
        ..Scenario::paper(task.clone(), fl)
    };

    let mut runs: Vec<(String, RunResult)> = Vec::new();
    match protocol.as_str() {
        "sync" => {
            let rounds = args.get_usize("rounds", if quick { 15 } else { 80 });
            args.reject_unknown();
            for (dist_name, partitioner) in Task::partitioners() {
                for strategy in SYNC_STRATEGIES {
                    let fl = FlConfig::builder()
                        .clients(clients)
                        .rounds(rounds)
                        .participation(0.5)
                        .local_steps(5)
                        .batch_size(32)
                        .model(task.model.clone())
                        .seed(seed)
                        .build();
                    let result = run_sync(&scenario_for(partitioner, fl, 0), strategy);
                    eprintln!(
                        "fig3 sync dist={dist_name} {strategy}: final acc {:.3}",
                        result.history.final_accuracy()
                    );
                    runs.push((dist_name.to_string(), result));
                }
            }
        }
        "async" => {
            let budget = args.get_u64("budget", if quick { 120 } else { 400 });
            args.reject_unknown();
            for (dist_name, partitioner) in Task::partitioners() {
                for strategy in ASYNC_STRATEGIES {
                    let fl = FlConfig::builder()
                        .clients(clients)
                        .rounds(40)
                        .local_steps(5)
                        .batch_size(32)
                        .model(task.model.clone())
                        .seed(seed)
                        .build();
                    let result = run_async(&scenario_for(partitioner, fl, budget), strategy);
                    eprintln!(
                        "fig3 async dist={dist_name} {strategy}: final acc {:.3}",
                        result.history.final_accuracy()
                    );
                    runs.push((dist_name.to_string(), result));
                }
            }
        }
        other => panic!("--protocol must be sync or async, got {other:?}"),
    }

    let refs: Vec<(String, &RunResult)> = runs.iter().map(|(k, r)| (k.clone(), r)).collect();
    report::print_series("dist", &refs);
}
