//! Determinism guarantees of the persistent worker pool: pool-parallel and
//! sequential training must be byte-identical, both at the `LocalOutcome`
//! level and through a whole runtime run's telemetry (modulo wall-clock
//! measurements, which are inherently nondeterministic) — resident,
//! pooled and crash-faulted fleets, a hooked strategy drained after its
//! scope and an attacked, corrupted cohort drained during it alike,
//! whichever warm trainer each device's job picks up.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::config::FlConfig;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::pool::WorkerPool;
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::{FedAvg, FedProx};
use adafl_fl::sync::{ClientUpdate, SyncStrategy};
use adafl_fl::{CapacityTier, FlClient, LocalOutcome, StaticCapacity, VecShardSource};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder, Trace};
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

/// The runs whose results must not know how wide the pool was.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Resident logistic-regression fleet, FedAvg.
    Resident,
    /// A pooled MLP fleet in cohorts of 3, on two capacity tiers: every
    /// pooled device is bound inside its job, and a sub-view round reads
    /// the initial model for its uncovered coordinates.
    Pooled,
    /// A resident MLP fleet on two capacity tiers with crash faults: the
    /// replicas a sub-view round reads are checkpointed and restored.
    Crashes,
    /// FedProx in cohorts of 2: every job reads the strategy's hook, so
    /// each chunk drains after its scope.
    Prox,
    /// FedAvg behind the defense gate, with a sign-flipping attacker and a
    /// corrupting client: their frames are attacked and corrupted in the
    /// drain, while later devices still train.
    Byzantine,
}

/// A traced run at the given pool width: 1 trains every device inline on
/// the calling thread, wider pools fan the cohort across their threads.
fn engine(run: Run, threads: usize) -> (SyncRuntime, Arc<InMemoryRecorder>) {
    let clients = match run {
        Run::Resident | Run::Prox => 4,
        Run::Pooled | Run::Crashes | Run::Byzantine => 6,
    };
    let mut config = FlConfig::builder()
        .clients(clients)
        .rounds(4)
        .participation(1.0)
        .local_steps(3)
        .batch_size(16);
    config = match run {
        Run::Resident | Run::Prox | Run::Byzantine => config.model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        }),
        Run::Pooled | Run::Crashes => config.participation(0.5).model(ModelSpec::Mlp {
            in_features: 64,
            hidden: vec![16],
            classes: 10,
        }),
    };
    config = match run {
        Run::Pooled => config.cohort_size(3),
        Run::Prox => config.cohort_size(2),
        _ => config,
    };
    let config = config.build();
    let data = SyntheticSpec::mnist_like(8, 400).generate(0);
    let (train, test) = data.split_at(320);
    let rec = InMemoryRecorder::shared();
    let tiers = || {
        Box::new(StaticCapacity::new(vec![
            CapacityTier::Full,
            CapacityTier::Width(0.5),
        ]))
    };
    let builder = RuntimeBuilder::new(config, test)
        .threads(Some(threads))
        .recorder(rec.clone());
    let builder = match run {
        Run::Resident | Run::Prox => builder.partitioned(&train, Partitioner::Iid),
        Run::Byzantine => {
            let kinds = (0..clients)
                .map(|c| match c {
                    1 => FaultKind::SignFlip,
                    4 => FaultKind::Corruption { prob: 0.5 },
                    _ => FaultKind::Reliable,
                })
                .collect();
            builder
                .partitioned(&train, Partitioner::Iid)
                .faults(FaultPlan::new(kinds, 9))
                .defense(Some(DefenseConfig::default()))
        }
        Run::Pooled => {
            let shards = Partitioner::Iid.split(&train, clients, 11);
            builder
                .shard_source(Box::new(VecShardSource::new(shards)))
                .capacity(Some(tiers()))
        }
        Run::Crashes => {
            let crash = FaultKind::Crash {
                at_round: 1,
                down_for: 2,
            };
            let kinds = (0..clients)
                .map(|c| {
                    if c % 3 == 0 {
                        crash
                    } else {
                        FaultKind::Reliable
                    }
                })
                .collect();
            builder
                .partitioned(&train, Partitioner::Iid)
                .capacity(Some(tiers()))
                .faults(FaultPlan::new(kinds, 5))
        }
    };
    let strategy: Box<dyn SyncStrategy> = match run {
        Run::Prox => Box::new(FedProx::new(0.1)),
        _ => Box::new(FedAvg::new()),
    };
    (builder.build_sync(strategy), rec)
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
    for run in [
        Run::Resident,
        Run::Pooled,
        Run::Crashes,
        Run::Prox,
        Run::Byzantine,
    ] {
        let (mut seq, seq_rec) = engine(run, 1);
        let seq_history = seq.run();
        let seq_t = scrub_wall_times(seq_rec.snapshot());
        assert!(!seq_t.spans.is_empty(), "telemetry actually recorded spans");
        for threads in 2..=4 {
            let (mut par, par_rec) = engine(run, threads);
            let par_history = par.run();
            assert_eq!(par_history, seq_history, "{run:?} at {threads} threads");
            assert_eq!(par.global_params(), seq.global_params(), "{run:?}");
            assert_eq!(par.ledger(), seq.ledger(), "{run:?}");
            // Counters, gauges, histograms, spans and events — all of it.
            let par_t = scrub_wall_times(par_rec.snapshot());
            assert_eq!(par_t, seq_t, "{run:?} at {threads} threads");
        }
        match run {
            Run::Crashes => assert!(seq_t.counters[names::FL_RECOVERIES] > 0, "outages ended"),
            Run::Byzantine => {
                assert!(
                    seq_t.counters[names::FL_ATTACKS] > 0,
                    "the attacker attacked"
                );
                assert!(
                    seq_t.counters[names::FL_CORRUPTIONS] > 0,
                    "frames were corrupted"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn pooled_capacity_runs_do_not_depend_on_the_slot_a_client_lands_in() {
    // A pooled device keeps no replica, so a sub-view round's uncovered
    // coordinates are the initial model's whichever device — and so
    // whichever previous client — the cohort position maps it to.
    let run = |threads: usize, cohort: usize| {
        let config = FlConfig::builder()
            .clients(10)
            .rounds(4)
            .participation(0.6)
            .local_steps(3)
            .batch_size(16)
            .cohort_size(cohort)
            .model(ModelSpec::Mlp {
                in_features: 64,
                hidden: vec![16],
                classes: 10,
            })
            .build();
        let data = SyntheticSpec::mnist_like(8, 400).generate(4);
        let (train, test) = data.split_at(320);
        let shards = Partitioner::Iid.split(&train, 10, 3);
        let mut rt = RuntimeBuilder::new(config, test)
            .shard_source(Box::new(VecShardSource::new(shards)))
            .capacity(Some(Box::new(StaticCapacity::new(vec![
                CapacityTier::Width(0.5),
                CapacityTier::Full,
            ]))))
            .threads(Some(threads))
            .build_sync(Box::new(FedAvg::new()));
        let history = rt.run();
        (history, rt.global_params().to_vec(), rt.ledger().clone())
    };
    let reference = run(1, 3);
    for threads in [1, 2, 4] {
        for cohort in [3, 8] {
            assert_eq!(
                run(threads, cohort),
                reference,
                "{threads} threads, cohorts of {cohort}"
            );
        }
    }
}

/// FedAvg that claims its (no-op) gradient hook, so the runtime installs
/// it and drains each chunk after its scope instead of during it.
#[derive(Debug)]
struct HookedFedAvg(FedAvg);

impl SyncStrategy for HookedFedAvg {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn uses_gradient_hook(&self) -> bool {
        true
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        self.0.aggregate(global, updates);
    }

    fn is_weighted_mean(&self) -> bool {
        self.0.is_weighted_mean()
    }
}

#[test]
fn a_no_op_hook_called_or_skipped_trains_the_same_bits() {
    let run = |strategy: Box<dyn SyncStrategy>| {
        let config = FlConfig::builder()
            .clients(8)
            .rounds(3)
            .participation(0.75)
            .local_steps(3)
            .batch_size(16)
            .cohort_size(4)
            .model(ModelSpec::LogisticRegression {
                in_features: 64,
                classes: 10,
            })
            .build();
        let data = SyntheticSpec::mnist_like(8, 400).generate(2);
        let (train, test) = data.split_at(320);
        let rec = InMemoryRecorder::shared();
        let mut rt = RuntimeBuilder::new(config, test)
            .partitioned(&train, Partitioner::Iid)
            .threads(Some(2))
            .recorder(rec.clone())
            .build_sync(strategy);
        let history = rt.run();
        let trace = scrub_wall_times(rec.snapshot());
        (
            history,
            rt.global_params().to_vec(),
            rt.ledger().clone(),
            trace,
        )
    };
    let skipped = run(Box::new(FedAvg::new()));
    let called = run(Box::new(HookedFedAvg(FedAvg::new())));
    assert_eq!(called, skipped);
}
