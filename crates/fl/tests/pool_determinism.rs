//! Determinism guarantees of the persistent worker pool: pool-parallel and
//! sequential training must be byte-identical, both at the `LocalOutcome`
//! level and through a whole runtime run's telemetry (modulo wall-clock
//! measurements, which are inherently nondeterministic).

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::config::FlConfig;
use adafl_fl::pool::WorkerPool;
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::{FlClient, LocalOutcome};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{InMemoryRecorder, Trace};
use std::sync::Arc;

fn fleet() -> (Vec<FlClient>, Vec<f32>) {
    let spec = ModelSpec::Mlp {
        in_features: 64,
        hidden: vec![32],
        classes: 10,
    };
    let data = SyntheticSpec::mnist_like(8, 320).generate(3);
    let shards = Partitioner::Iid.split(&data, 8, 11);
    let clients = FlClient::fleet(&spec, shards, 0.05, 0.9, 16, 42);
    let global = spec.build(42).params_flat();
    (clients, global)
}

#[test]
fn pool_and_sequential_outcomes_are_byte_identical() {
    let (mut par_fleet, global) = fleet();
    let (mut seq_fleet, _) = fleet();

    let pool = WorkerPool::new(4);
    let jobs: Vec<Box<dyn FnOnce() -> LocalOutcome + Send + '_>> = par_fleet
        .iter_mut()
        .map(|client| {
            let global = &global;
            Box::new(move || client.train_local(global, 5, None)) as Box<_>
        })
        .collect();
    let parallel: Vec<LocalOutcome> = pool.scope_run(jobs);

    let sequential: Vec<LocalOutcome> = seq_fleet
        .iter_mut()
        .map(|client| client.train_local(&global, 5, None))
        .collect();

    // Byte-identical, not approximately equal: every delta coordinate, loss
    // and count must match exactly.
    assert_eq!(parallel, sequential);
    assert!(parallel.iter().any(|o| o.delta.iter().any(|&d| d != 0.0)));
}

/// A traced run at the given pool width: 1 trains every client inline on
/// the calling thread, 4 fans the cohort across the pool.
fn engine(threads: usize) -> (SyncRuntime, Arc<InMemoryRecorder>) {
    let config = FlConfig::builder()
        .clients(4)
        .rounds(3)
        .participation(1.0)
        .local_steps(3)
        .batch_size(16)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build();
    let data = SyntheticSpec::mnist_like(8, 400).generate(0);
    let (train, test) = data.split_at(320);
    let rec = InMemoryRecorder::shared();
    let e = RuntimeBuilder::new(config, test)
        .partitioned(&train, Partitioner::Iid)
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
fn pool_and_sequential_telemetry_agree_modulo_wall_times() {
    let (mut par, par_rec) = engine(4);
    let par_history = par.run();

    let (mut seq, seq_rec) = engine(1);
    let seq_history = seq.run();

    assert_eq!(par_history, seq_history);
    assert_eq!(par.global_params(), seq.global_params());

    let par_t = scrub_wall_times(par_rec.snapshot());
    let seq_t = scrub_wall_times(seq_rec.snapshot());
    // Counters, gauges, histograms, spans and events — all of it.
    assert_eq!(par_t, seq_t);
    assert!(!par_t.spans.is_empty(), "telemetry actually recorded spans");
}
