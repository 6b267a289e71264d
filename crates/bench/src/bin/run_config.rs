//! Runs a single experiment described by a JSON configuration file, so
//! experiment setups can live in version control and be re-run exactly.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin run_config -- --config exp.json
//! ```
//!
//! Pass `--telemetry trace.jsonl` to capture a structured trace of the run
//! (round spans, per-client transfers, compression byte counters) as JSONL.
//! Tracing is passive: the experiment output is byte-identical either way.
//!
//! Pass `--threads N` (default: host parallelism) to pin the worker-pool
//! width; results are identical at any width.
//!
//! Example configuration:
//!
//! ```json
//! {
//!   "protocol": "sync",
//!   "strategy": "adafl",
//!   "task": "mnist-cnn",
//!   "train_samples": 2000,
//!   "test_samples": 400,
//!   "clients": 10,
//!   "rounds": 40,
//!   "participation": 0.5,
//!   "partition": { "LabelShards": { "shards_per_client": 2 } },
//!   "constrained_fraction": 0.3,
//!   "update_budget": 400,
//!   "seed": 42,
//!   "adafl": null
//! }
//! ```
//!
//! `adafl` may carry a full `AdaFlConfig` object to override its defaults.

use adafl_bench::args::Args;
use adafl_bench::config::ExperimentConfig;
use adafl_bench::runner::{
    run_async_with, run_sync_with, Capacity, Resilience, RunResult, Scenario,
};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::robust::RobustMethod;
use adafl_fl::submodel::CapacityTier;
use adafl_fl::FlConfig;
use adafl_telemetry::{export, InMemoryRecorder, SharedRecorder};

fn main() {
    let args = Args::from_env();
    let path = args
        .get("config")
        .expect("--config <file.json> is required");
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let cfg: ExperimentConfig =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("invalid config {path}: {e}"));

    let task = match cfg.task.as_str() {
        "mnist-cnn" => Task::mnist_cnn(cfg.train_samples, cfg.test_samples, cfg.seed),
        "mnist-logreg" => Task::mnist_logreg(cfg.train_samples, cfg.test_samples, cfg.seed),
        "cifar10-resnet" => Task::cifar10_resnet(cfg.train_samples, cfg.test_samples, cfg.seed),
        "cifar100-vgg" => Task::cifar100_vgg(cfg.train_samples, cfg.test_samples, cfg.seed),
        other => panic!("unknown task {other:?}"),
    };
    let mut builder = FlConfig::builder()
        .clients(cfg.clients)
        .rounds(cfg.rounds)
        .participation(cfg.participation)
        .local_steps(cfg.local_steps)
        .batch_size(cfg.batch_size)
        .seed(cfg.seed)
        .model(task.model.clone());
    if let Some(lr) = cfg.learning_rate {
        builder = builder.learning_rate(lr);
    }
    if let Some(m) = cfg.momentum {
        builder = builder.momentum(m);
    }
    if let Some(n) = cfg.cohort_size {
        builder = builder.cohort_size(n);
    }
    if cfg.edge_aggregators > 0 {
        builder = builder.edge_aggregators(cfg.edge_aggregators);
    }
    let fl = builder.build();

    let profile: adafl_netsim::LinkProfile = cfg
        .constrained_profile
        .parse()
        .unwrap_or_else(|e| panic!("invalid config {path}: {e}"));
    let faults = match &cfg.attack {
        Some(name) => {
            let kind: FaultKind = name
                .parse()
                .unwrap_or_else(|e| panic!("invalid config {path}: {e}"));
            fleet::byzantine_plan(cfg.clients, cfg.attack_fraction, kind, cfg.seed)
        }
        None => FaultPlan::reliable(cfg.clients),
    };
    let robust: Option<RobustMethod> = cfg.robust.as_deref().map(|name| {
        name.parse()
            .unwrap_or_else(|e| panic!("invalid config {path}: {e}"))
    });
    let capacity: Option<Capacity> = cfg.capacity.as_deref().map(|mode| {
        let adaptive = match mode {
            "adaptive" => true,
            "static" => false,
            other => {
                panic!("invalid config {path}: capacity must be \"static\" or \"adaptive\", got {other:?}")
            }
        };
        let names = cfg
            .tiers
            .clone()
            .unwrap_or_else(|| vec!["full".into(), "half".into(), "quarter".into()]);
        let tiers = names
            .iter()
            .map(|t| {
                CapacityTier::parse(t).unwrap_or_else(|e| panic!("invalid config {path}: {e}"))
            })
            .collect();
        Capacity { tiers, adaptive }
    });
    let scenario = Scenario {
        network: fleet::mixed_network_with(
            cfg.clients,
            cfg.constrained_fraction,
            profile,
            cfg.seed,
        ),
        ada: cfg.adafl.unwrap_or_default(),
        partitioner: cfg.partition,
        update_budget: cfg.update_budget,
        resilience: Resilience {
            robust,
            capacity,
            ..Resilience::default()
        },
        faults,
        ..Scenario::paper(task, fl)
    };

    let trace_path = args.get("telemetry");
    let threads = args.threads();
    args.reject_unknown();
    let memory = trace_path.map(|_| InMemoryRecorder::shared());
    let recorder: SharedRecorder = match &memory {
        Some(recorder) => recorder.clone(),
        None => adafl_telemetry::noop(),
    };

    let result: RunResult = match cfg.protocol.as_str() {
        "sync" => run_sync_with(&scenario, &cfg.strategy, recorder, Some(threads)),
        "async" => run_async_with(&scenario, &cfg.strategy, recorder),
        other => panic!("protocol must be sync or async, got {other:?}"),
    };

    if let (Some(path), Some(memory)) = (trace_path, &memory) {
        let trace = memory.snapshot();
        let jsonl = export::to_jsonl_string(&trace);
        std::fs::write(path, jsonl).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!(
            "telemetry: {} spans, {} events, {} counters -> {path}",
            trace.spans.len(),
            trace.events.len(),
            trace.counters.len()
        );
    }

    let refs = [(String::new(), &result)];
    report::print_series("", &refs);
    eprintln!(
        "{} {}: final acc {:.3}, uplink {}, {} updates",
        cfg.protocol,
        cfg.strategy,
        result.history.final_accuracy(),
        report::human_bytes(result.uplink_bytes),
        result.uplink_updates
    );
}
