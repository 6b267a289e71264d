//! Figure 1 — empirical resiliency study.
//!
//! Panels (a–h), synchronous: testing accuracy vs. round under 0/10/20/40 %
//! stragglers (dropout and data-loss conditions), for the small CNN on the
//! MNIST-like task and the deeper residual model on the CIFAR-like task,
//! under IID and non-IID distributions.
//!
//! Panels (i–l), asynchronous: accuracy vs. simulated time under staleness
//! (3× slower clients) contrasted with dropout (lossy links).
//!
//! ```text
//! cargo run -p adafl-bench --release --bin fig1 -- --protocol sync
//! cargo run -p adafl-bench --release --bin fig1 -- --protocol async
//! cargo run -p adafl-bench --release --bin fig1 -- --protocol sync --model resnet --quick
//! ```

use adafl_bench::args::Args;
use adafl_bench::runner::{run_async, run_sync, RunResult, Scenario};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_fl::faults::FaultPlan;
use adafl_fl::FlConfig;

const STRAGGLER_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

fn main() {
    let args = Args::from_env();
    let protocol = args.get("protocol").unwrap_or("sync").to_string();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let seed = args.get_u64("seed", 42);

    match protocol.as_str() {
        "sync" => sync_panels(&args, clients, seed, quick),
        "async" => async_panels(&args, clients, seed, quick),
        other => panic!("--protocol must be sync or async, got {other:?}"),
    }
}

fn task_for(model: &str, quick: bool, seed: u64) -> Task {
    let (train, test) = if quick { (600, 150) } else { (2000, 500) };
    match model {
        "cnn" => Task::mnist_cnn(train, test, seed),
        "resnet" => Task::cifar10_resnet(train, test, seed),
        other => panic!("--model must be cnn or resnet, got {other:?}"),
    }
}

fn base_config(task: &Task, clients: usize, rounds: usize, seed: u64) -> FlConfig {
    FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .participation(1.0) // the resiliency study trains with everyone
        .local_steps(5)
        .batch_size(32)
        .model(task.model.clone())
        .seed(seed)
        .build()
}

fn sync_panels(args: &Args, clients: usize, seed: u64, quick: bool) {
    let rounds = args.get_usize("rounds", if quick { 15 } else { 40 });
    let models: Vec<&str> = match args.get("model") {
        Some(m) => vec![m],
        None => vec!["cnn", "resnet"],
    };
    args.reject_unknown();
    let mut runs: Vec<(String, RunResult)> = Vec::new();
    for model in models {
        let task = task_for(model, quick, seed);
        for (dist_name, partitioner) in Task::partitioners() {
            for fault in ["dropout", "dataloss"] {
                for frac in STRAGGLER_FRACTIONS {
                    let fl = base_config(&task, clients, rounds, seed);
                    let scenario = Scenario {
                        network: fleet::broadband_network(clients, seed),
                        faults: fleet::straggler_plan(clients, frac, fault, seed),
                        partitioner,
                        ..Scenario::paper(task.clone(), fl)
                    };
                    let result = run_sync(&scenario, "fedavg");
                    eprintln!(
                        "fig1 sync model={model} dist={dist_name} fault={fault} frac={frac}: final acc {:.3}",
                        result.history.final_accuracy()
                    );
                    runs.push((format!("{model},{dist_name},{fault},{frac}"), result));
                }
            }
        }
    }
    let refs: Vec<(String, &RunResult)> = runs.iter().map(|(k, r)| (k.clone(), r)).collect();
    report::print_series("model,dist,fault,straggler_frac", &refs);
}

fn async_panels(args: &Args, clients: usize, seed: u64, quick: bool) {
    let budget = args.get_u64("budget", if quick { 120 } else { 400 });
    let task = match args.get("model") {
        Some("resnet") => task_for("resnet", quick, seed),
        _ => task_for("cnn", quick, seed),
    };
    args.reject_unknown();
    let mut runs: Vec<(String, RunResult)> = Vec::new();
    for (dist_name, partitioner) in Task::partitioners() {
        for fault in ["stale", "dropout"] {
            for frac in STRAGGLER_FRACTIONS {
                let fl = base_config(&task, clients, 40, seed);
                // Staleness: slow clients via the fault plan.
                // Dropout: lossy uplinks via the network.
                let (faults, network) = if fault == "stale" {
                    (
                        fleet::straggler_plan(clients, frac, "stale", seed),
                        fleet::broadband_network(clients, seed),
                    )
                } else {
                    (
                        FaultPlan::reliable(clients),
                        fleet::lossy_network(clients, frac, 0.5, seed),
                    )
                };
                let scenario = Scenario {
                    partitioner,
                    update_budget: budget,
                    network,
                    faults,
                    ..Scenario::paper(task.clone(), fl)
                };
                let result = run_async(&scenario, "fedasync");
                eprintln!(
                    "fig1 async dist={dist_name} fault={fault} frac={frac}: final acc {:.3} at t={:.0}s",
                    result.history.final_accuracy(),
                    result
                        .history
                        .records()
                        .last()
                        .map_or(0.0, |r| r.sim_time.seconds())
                );
                runs.push((format!("{dist_name},{fault},{frac}"), result));
            }
        }
    }
    let refs: Vec<(String, &RunResult)> = runs.iter().map(|(k, r)| (k.clone(), r)).collect();
    report::print_series("dist,fault,straggler_frac", &refs);
}
