//! Determinism guarantees of the pooled server path: a full adversarial
//! scenario — defensive gate, Multi-Krum robust stage, Byzantine and
//! corruption faults, telemetry recording — must be byte-identical when
//! the server worker pool runs single-threaded and when it fans out.
//!
//! This pins the whole parallel surface this crate exposes: parallel
//! uplink attack/corruption transforms (`UplinkFrame::process`),
//! parallel defense sanitization, and the pooled robust estimators
//! (densify, column screens, distance matrix). Each collects results in
//! submission order, so histories, ledgers and traces may not depend on
//! pool width.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::config::FlConfig;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{InMemoryRecorder, Trace};
use std::sync::Arc;

/// A deliberately hostile 8-client scenario exercising every parallel
/// stage: sign-flip and boost attackers for the robust stage, a transit
/// corrupter for the decode-reject path, a dropout for the dropout path.
fn engine(threads: usize) -> (SyncRuntime, Arc<InMemoryRecorder>) {
    let config = FlConfig::builder()
        .clients(8)
        .rounds(3)
        .participation(1.0)
        .local_steps(2)
        .batch_size(16)
        .seed(7)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build();
    let data = SyntheticSpec::mnist_like(8, 480).generate(1);
    let (train, test) = data.split_at(400);
    let kinds = vec![
        FaultKind::SignFlip,
        FaultKind::Reliable,
        FaultKind::Corruption { prob: 0.5 },
        FaultKind::Reliable,
        FaultKind::Boost { factor: 5.0 },
        FaultKind::Reliable,
        FaultKind::Dropout { period: 2 },
        FaultKind::Reliable,
    ];
    let rec = InMemoryRecorder::shared();
    let e = RuntimeBuilder::new(config, test)
        .partitioned(&train, Partitioner::Iid)
        .faults(FaultPlan::new(kinds, 99))
        .defense(Some(DefenseConfig::default()))
        .robust(Some(RobustMethod::MultiKrum { f: 2, m: 4 }))
        .threads(Some(threads))
        .recorder(rec.clone())
        .build_sync(Box::new(FedAvg::new()));
    (e, rec)
}

/// Strips the only legitimately nondeterministic telemetry dimension: wall
/// times measured inside spans.
fn scrub_wall_times(mut trace: Trace) -> Trace {
    for span in &mut trace.spans {
        span.wall_micros = 0;
    }
    trace
}

#[test]
fn pooled_and_single_thread_server_paths_are_byte_identical() {
    let (mut narrow, narrow_rec) = engine(1);
    let narrow_history = narrow.run();

    let (mut wide, wide_rec) = engine(4);
    let wide_history = wide.run();

    assert_eq!(narrow_history, wide_history);
    assert_eq!(narrow.global_params(), wide.global_params());
    assert_eq!(narrow.ledger(), wide.ledger());

    let narrow_t = scrub_wall_times(narrow_rec.snapshot());
    let wide_t = scrub_wall_times(wide_rec.snapshot());
    // Counters, gauges, histograms, spans and events — all of it.
    assert_eq!(narrow_t, wide_t);

    // The scenario must actually have driven the adversarial paths, or
    // the equality above proves nothing about them.
    let events: Vec<&str> = narrow_t.events.iter().map(|e| e.kind.as_str()).collect();
    assert!(
        events.contains(&"byzantine_attack"),
        "attacks fired: {events:?}"
    );
    assert!(
        narrow_history.records().iter().any(|r| r.contributors > 0),
        "some round aggregated updates"
    );
}
