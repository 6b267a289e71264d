//! Chaos runs must be exactly reproducible: two identically-seeded sweeps
//! under compounded faults (burst loss × crash × corruption) with the full
//! reliability layer enabled produce byte-identical telemetry exports, and
//! tracing itself never perturbs the run.

use adafl_bench::runner::{run_sync_with, Resilience, RunResult, Scenario};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_core::AdaFlConfig;
use adafl_data::partition::Partitioner;
use adafl_fl::sync::StaticCompression;
use adafl_fl::FlConfig;
use adafl_telemetry::export::to_jsonl_string;
use adafl_telemetry::InMemoryRecorder;

const CLIENTS: usize = 6;
const SEED: u64 = 11;

fn chaos_scenario() -> Scenario {
    let task = Task::mnist_logreg(300, 80, SEED);
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(6)
        .participation(1.0)
        .local_steps(3)
        .batch_size(16)
        .model(task.model.clone())
        .seed(SEED)
        .build();
    Scenario {
        network: fleet::burst_loss_network(CLIENTS, 0.5, SEED),
        compute: fleet::uniform_compute(CLIENTS, 0.05, SEED),
        faults: fleet::chaos_plan(CLIENTS, 0.2, 0.2, SEED),
        ada: AdaFlConfig {
            warmup_rounds: 2,
            ..AdaFlConfig::default()
        },
        partitioner: Partitioner::Iid,
        update_budget: 0,
        resilience: Resilience::hardened(),
        compression: StaticCompression::None,
        task,
        fl,
    }
}

fn traced_run(strategy: &str) -> (RunResult, String) {
    let rec = InMemoryRecorder::shared();
    let result = run_sync_with(&chaos_scenario(), strategy, rec.clone(), None);
    // Span wall-clock durations are the one intentionally nondeterministic
    // field; everything else must reproduce exactly.
    (
        result,
        to_jsonl_string(&rec.snapshot().without_wall_times()),
    )
}

#[test]
fn same_seed_chaos_runs_export_identical_traces() {
    for strategy in ["fedavg", "adafl"] {
        let (r1, t1) = traced_run(strategy);
        let (r2, t2) = traced_run(strategy);
        assert_eq!(
            r1.history, r2.history,
            "{strategy} chaos history not reproducible"
        );
        assert_eq!(t1, t2, "{strategy} chaos telemetry not byte-identical");
        assert!(!t1.is_empty());
    }
}

#[test]
fn recording_a_chaos_run_is_passive() {
    let plain = run_sync_with(&chaos_scenario(), "adafl", adafl_telemetry::noop(), None);
    let (traced, _) = traced_run("adafl");
    assert_eq!(plain.history, traced.history);
    assert_eq!(plain.uplink_bytes, traced.uplink_bytes);
    assert_eq!(plain.retransmission_bytes, traced.retransmission_bytes);
}

#[test]
fn chaos_csv_series_is_reproducible() {
    let (r1, _) = traced_run("fedavg");
    let (r2, _) = traced_run("fedavg");
    let csv1 = report::series_csv("", &[(String::new(), &r1)]);
    let csv2 = report::series_csv("", &[(String::new(), &r2)]);
    assert_eq!(csv1, csv2);
}
