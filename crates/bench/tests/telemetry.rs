//! Telemetry must be a pure observer: attaching a recorder cannot change a
//! single byte of experiment output, and the trace it captures must survive
//! a JSONL round trip exactly.

use adafl_bench::fleet;
use adafl_bench::report;
use adafl_bench::runner::{run_async_with, run_sync_with, Resilience, Scenario};
use adafl_bench::tasks::Task;
use adafl_core::AdaFlConfig;
use adafl_data::partition::Partitioner;
use adafl_fl::faults::FaultPlan;
use adafl_fl::sync::StaticCompression;
use adafl_fl::FlConfig;
use adafl_telemetry::{export, jsonl, names, InMemoryRecorder};

fn scenario() -> Scenario {
    let task = Task::mnist_logreg(300, 80, 0);
    let fl = FlConfig::builder()
        .clients(5)
        .rounds(4)
        .local_steps(3)
        .batch_size(16)
        .model(task.model.clone())
        .build();
    Scenario {
        network: fleet::mixed_network(5, 0.4, adafl_netsim::LinkProfile::Constrained, 1),
        compute: fleet::uniform_compute(5, 0.05, 2),
        faults: FaultPlan::reliable(5),
        ada: AdaFlConfig {
            max_selected: 3,
            warmup_rounds: 1,
            ..AdaFlConfig::default()
        },
        partitioner: Partitioner::Iid,
        update_budget: 20,
        resilience: Resilience::default(),
        compression: StaticCompression::None,
        fl,
        task,
    }
}

/// The golden check: the CSV an experiment prints is byte-identical whether
/// the run is traced (InMemoryRecorder) or untraced (NoopRecorder).
#[test]
fn tracing_leaves_sync_csv_byte_identical() {
    let s = scenario();
    for strategy in ["fedavg", "adafl"] {
        let plain = run_sync_with(&s, strategy, adafl_telemetry::noop(), None);
        let recorder = InMemoryRecorder::shared();
        let traced = run_sync_with(&s, strategy, recorder.clone(), None);

        let plain_csv = report::series_csv("", &[(String::new(), &plain)]);
        let traced_csv = report::series_csv("", &[(String::new(), &traced)]);
        assert_eq!(
            plain_csv.into_bytes(),
            traced_csv.into_bytes(),
            "{strategy} CSV diverged"
        );
        assert_eq!(plain.uplink_bytes, traced.uplink_bytes);
        assert_eq!(plain.downlink_bytes, traced.downlink_bytes);

        let trace = recorder.snapshot();
        assert!(!trace.spans.is_empty(), "{strategy} produced no spans");
    }
}

#[test]
fn tracing_leaves_async_csv_byte_identical() {
    let s = scenario();
    for strategy in ["fedasync", "adafl"] {
        let plain = run_async_with(&s, strategy, adafl_telemetry::noop());
        let recorder = InMemoryRecorder::shared();
        let traced = run_async_with(&s, strategy, recorder.clone());

        let plain_csv = report::series_csv("", &[(String::new(), &plain)]);
        let traced_csv = report::series_csv("", &[(String::new(), &traced)]);
        assert_eq!(
            plain_csv.into_bytes(),
            traced_csv.into_bytes(),
            "{strategy} CSV diverged"
        );
        assert_eq!(plain.uplink_bytes, traced.uplink_bytes);
    }
}

/// A traced sync run carries the signals the report tool summarizes: round
/// spans, per-client transfer spans, and per-strategy compression counters.
#[test]
fn sync_trace_has_rounds_transfers_and_compression() {
    let s = scenario();
    let recorder = InMemoryRecorder::shared();
    let _ = run_sync_with(&s, "adafl", recorder.clone(), None);
    let trace = recorder.snapshot();

    let rounds = trace
        .spans
        .iter()
        .filter(|sp| sp.kind == names::SPAN_ROUND)
        .count();
    assert_eq!(rounds, s.fl.rounds, "one span per round");
    assert!(trace
        .spans
        .iter()
        .any(|sp| sp.kind == names::SPAN_UPLINK && sp.client.is_some()));
    assert!(trace
        .spans
        .iter()
        .any(|sp| sp.kind == names::SPAN_DOWNLINK && sp.client.is_some()));
    let pre = trace
        .counters
        .get(&names::scoped(names::COMPRESSION_BYTES_PRE, "dgc"));
    let post = trace
        .counters
        .get(&names::scoped(names::COMPRESSION_BYTES_POST, "dgc"));
    assert!(
        pre.copied().unwrap_or(0) > 0,
        "pre-compression bytes counted"
    );
    assert!(
        post.copied().unwrap_or(0) > 0,
        "post-compression bytes counted"
    );
}

/// The JSONL written for a real (not synthetic) engine trace parses back to
/// an equal `Trace`.
#[test]
fn real_run_trace_round_trips_through_jsonl() {
    let s = scenario();
    let recorder = InMemoryRecorder::shared();
    let _ = run_sync_with(&s, "adafl", recorder.clone(), None);
    let trace = recorder.snapshot();

    let text = export::to_jsonl_string(&trace);
    let back = jsonl::parse(&text).expect("exported JSONL parses");
    assert_eq!(trace, back);
}
