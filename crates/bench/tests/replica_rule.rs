//! The replica rule, end to end: a resident fleet keeps parameter
//! replicas only when something reads them, and whether it keeps them is
//! invisible in the results.
//!
//! Each case runs twice at each pool width: once as built — random
//! selection reads no replica, so unless capacity tiers are on the devices
//! hold none — and once with the same selection policy inside a
//! forwarding wrapper that keeps [`SelectionPolicy::reads_replicas`]'s
//! default, so every device holds one. History, global parameters, the
//! whole ledger and the trace (wall times aside) must be equal.

use adafl_bench::fleet::chaos_plan;
use adafl_core::{adafl_sync_policies, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{RuntimeBuilder, SelectionCtx, SelectionPolicy, SyncPolicies};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::sync::StaticCompression;
use adafl_fl::{CapacityTier, CommunicationLedger, FlConfig, RunHistory, StaticCapacity};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder, SpanRecord, Trace};

const CLIENTS: usize = 10;

/// Forwards `select` and the span annotation, and keeps
/// `reads_replicas`' default — as a decorating policy that does not know
/// about it would.
#[derive(Debug)]
struct Forwarding(Box<dyn SelectionPolicy>);

impl SelectionPolicy for Forwarding {
    fn select(&mut self, ctx: &mut SelectionCtx<'_>) -> Vec<usize> {
        self.0.select(ctx)
    }

    fn annotate_round_span(&self, round: usize, span: SpanRecord) -> SpanRecord {
        self.0.annotate_round_span(round, span)
    }
}

/// The resident runs whose results must not depend on replicas.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// FedAvg over random selection.
    Plain,
    /// The chaos sweep's plan: staggered crash outages with checkpoint
    /// recovery, and corrupting clients, behind the defense gate.
    Chaos,
    /// Sign-flipping attackers behind the defense gate and a trimmed mean.
    Byzantine,
    /// Two capacity tiers: sub-view rounds read the replicas either way.
    Capacity,
    /// AdaFL's utility selection: its probes read the replicas either way.
    AdaFl,
}

/// Everything a run leaves behind, wall times scrubbed.
type RunRecord = (RunHistory, Vec<f32>, CommunicationLedger, Trace);

fn run(case: Case, threads: usize, forwarded: bool) -> RunRecord {
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(8)
        .participation(0.6)
        .local_steps(2)
        .batch_size(8)
        .model(ModelSpec::Mlp {
            in_features: 64,
            hidden: vec![16],
            classes: 10,
        })
        .build();
    let data = SyntheticSpec::mnist_like(8, 400).generate(5);
    let (train, test) = data.split_at(320);
    let recorder = InMemoryRecorder::shared();
    let mut builder = RuntimeBuilder::new(fl.clone(), test)
        .partitioned(&train, Partitioner::Iid)
        .threads(Some(threads))
        .recorder(recorder.clone());
    builder = match case {
        Case::Plain | Case::AdaFl => builder,
        Case::Chaos => builder
            .faults(chaos_plan(CLIENTS, 0.2, 0.2, 7))
            .defense(Some(DefenseConfig::default())),
        Case::Byzantine => {
            let kinds = (0..CLIENTS)
                .map(|c| {
                    if c % 5 == 1 {
                        FaultKind::SignFlip
                    } else {
                        FaultKind::Reliable
                    }
                })
                .collect();
            builder
                .faults(FaultPlan::new(kinds, 3))
                .defense(Some(DefenseConfig::default()))
                .robust(Some(RobustMethod::TrimmedMean { trim_ratio: 0.2 }))
        }
        Case::Capacity => builder.capacity(Some(Box::new(StaticCapacity::new(vec![
            CapacityTier::Full,
            CapacityTier::Width(0.5),
        ])))),
    };
    let mut policies = match case {
        Case::AdaFl => {
            let ada = AdaFlConfig {
                warmup_rounds: 2,
                max_selected: 4,
                ..AdaFlConfig::default()
            };
            adafl_sync_policies(&ada, fl.seed_for("selection"))
        }
        _ => SyncPolicies::baseline(&fl, Box::new(FedAvg::new()), StaticCompression::None),
    };
    if forwarded {
        policies.selection = Box::new(Forwarding(policies.selection));
    }
    let mut runtime = builder.build_sync_runtime(policies);
    let history = runtime.run();
    (
        history,
        runtime.global_params().to_vec(),
        runtime.ledger().clone(),
        recorder.snapshot().without_wall_times(),
    )
}

#[test]
fn holding_replicas_is_invisible_in_the_results() {
    for case in [
        Case::Plain,
        Case::Chaos,
        Case::Byzantine,
        Case::Capacity,
        Case::AdaFl,
    ] {
        for threads in [1, 2] {
            let as_built = run(case, threads, false);
            let held = run(case, threads, true);
            let what = format!("{case:?} at {threads} threads");
            assert_eq!(as_built.0, held.0, "history, {what}");
            assert_eq!(as_built.1, held.1, "global parameters, {what}");
            assert_eq!(as_built.2, held.2, "ledger, {what}");
            assert_eq!(as_built.3, held.3, "trace, {what}");
            let counters = &as_built.3.counters;
            match case {
                Case::Chaos => {
                    assert!(counters[names::FL_CRASHES] > 0, "clients crashed");
                    assert_eq!(
                        counters[names::FL_RECOVERIES],
                        counters[names::FL_CRASHES],
                        "every outage ended in a recovery event"
                    );
                }
                Case::Byzantine => assert!(counters[names::FL_ATTACKS] > 0, "attackers attacked"),
                _ => {}
            }
        }
    }
}
