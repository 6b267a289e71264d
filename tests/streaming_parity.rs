//! Streaming-fold parity: the opt-in streaming aggregation path must be
//! bitwise-indistinguishable from its buffered counterpart.
//!
//! [`SinkMode::Streaming`] folds each delivered update into per-edge
//! accumulators at arrival; [`SinkMode::BufferedFold`] buffers the round
//! and replays the *identical* fold calls in arrival order at round end.
//! Because both execute the same float operations in the same order, the
//! global parameters, communication ledger and run history must match bit
//! for bit — for the FedAvg baseline and for AdaFL's sample-weighted
//! aggregation (which additionally maintains the `ĝ` digest). The legacy
//! default path is pinned separately by the golden traces; here we also
//! pin the eligibility rule that protects it.

use adafl_core::policies::AdaFlAggregation;
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{
    AggregationPolicy, RandomSelection, RuntimeBuilder, SinkMode, StaticCompressionPolicy,
    StrategyAggregation, SyncPolicies, SyncRuntime,
};
use adafl_fl::sync::strategies::{FedAvg, FedProx};
use adafl_fl::sync::{ClientUpdate, StaticCompression, SyncStrategy};
use adafl_fl::{CapacityTier, FlConfig, StaticCapacity, VecShardSource};
use adafl_nn::models::ModelSpec;

const CLIENTS: usize = 24;
const ROUNDS: usize = 4;

fn config(cohort: Option<usize>, edges: usize) -> FlConfig {
    let mut b = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .participation(0.75)
        .local_steps(3)
        .batch_size(8)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .seed(9);
    if let Some(n) = cohort {
        b = b.cohort_size(n).edge_aggregators(edges);
    }
    b.build()
}

fn policies(fl: &FlConfig, aggregation: Box<dyn AggregationPolicy>) -> SyncPolicies {
    SyncPolicies {
        selection: Box::new(RandomSelection::new(fl.seed_for("selection"))),
        compression: Box::new(StaticCompressionPolicy::new(
            StaticCompression::None,
            fl.seed_for("compression"),
        )),
        aggregation,
        enforce_deadline: true,
    }
}

fn builder(cohort: Option<usize>, edges: usize) -> RuntimeBuilder {
    let data = SyntheticSpec::mnist_like(8, CLIENTS * 16).generate(3);
    let (train, test) = data.split_at(CLIENTS * 12);
    RuntimeBuilder::new(config(cohort, edges), test)
        .partitioned(&train, Partitioner::Iid)
        .threads(Some(1))
}

fn build(b: RuntimeBuilder, agg: Box<dyn AggregationPolicy>) -> SyncRuntime {
    let bundle = policies(b.fl(), agg);
    b.build_sync_runtime(bundle)
}

fn runtime(cohort: Option<usize>, edges: usize, agg: Box<dyn AggregationPolicy>) -> SyncRuntime {
    build(builder(cohort, edges), agg)
}

/// [`runtime`] on the buffered-replay reference path instead of streaming.
fn buffered_runtime(edges: usize, agg: Box<dyn AggregationPolicy>) -> SyncRuntime {
    build(builder(Some(8), edges).buffered_fold(true), agg)
}

/// Runs streaming vs buffered-fold for one aggregation policy and asserts
/// bitwise-identical parameters, gradient digest, ledger and history.
fn assert_parity(make_agg: fn() -> Box<dyn AggregationPolicy>) {
    let mut streaming = runtime(Some(8), 3, make_agg());
    assert_eq!(streaming.sink_mode(), SinkMode::Streaming);
    let mut buffered = buffered_runtime(3, make_agg());
    assert_eq!(buffered.sink_mode(), SinkMode::BufferedFold);

    let hist_s = streaming.run();
    let hist_b = buffered.run();

    let bits = |params: &[f32]| params.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(streaming.global_params()),
        bits(buffered.global_params()),
        "global parameters must match bit for bit"
    );
    assert_eq!(
        bits(streaming.global_gradient()),
        bits(buffered.global_gradient()),
        "ĝ digests must match bit for bit"
    );
    assert_eq!(streaming.ledger(), buffered.ledger(), "ledgers must match");
    assert_eq!(hist_s, hist_b, "histories must match");
    assert!(
        streaming.ledger().relay_bytes() > 0,
        "edge partials must be charged through the relay machinery"
    );
}

#[test]
fn fedavg_streaming_matches_buffered_fold_bitwise() {
    assert_parity(|| Box::new(StrategyAggregation::new(Box::new(FedAvg::new()))));
}

#[test]
fn adafl_streaming_matches_buffered_fold_bitwise() {
    assert_parity(|| Box::new(AdaFlAggregation));
}

#[test]
fn flat_topology_streams_without_relay_charges() {
    let mut streaming = runtime(Some(8), 0, Box::new(AdaFlAggregation));
    assert_eq!(streaming.sink_mode(), SinkMode::Streaming);
    let mut buffered = buffered_runtime(0, Box::new(AdaFlAggregation));
    let hist_s = streaming.run();
    let hist_b = buffered.run();
    assert_eq!(hist_s, hist_b);
    assert_eq!(streaming.ledger(), buffered.ledger());
    assert_eq!(
        streaming.ledger().relay_bytes(),
        0,
        "no edge tier, no partial-transfer charges"
    );
}

#[test]
fn streaming_is_strictly_opt_in() {
    // No cohort size → legacy, even for a streaming-capable policy.
    let rt = runtime(None, 0, Box::new(AdaFlAggregation));
    assert_eq!(rt.sink_mode(), SinkMode::Legacy);
    // Every stage that compares a cohort side by side needs it buffered
    // → legacy: robust pre-aggregation, the defense gate's batch median,
    // the capacity tiers' coverage fold.
    let full = Box::new(StaticCapacity::new(vec![CapacityTier::Full]));
    for staged in [
        builder(Some(8), 0).robust(Some(RobustMethod::Median)),
        builder(Some(8), 0).defense(Some(DefenseConfig::default())),
        builder(Some(8), 0).capacity(Some(full)),
    ] {
        let rt = build(staged, Box::new(AdaFlAggregation));
        assert_eq!(rt.sink_mode(), SinkMode::Legacy);
    }
    // A stateful strategy (FedProx's proximal hook is fine, but its
    // aggregate is not a plain weighted mean declaration) → legacy.
    let rt = runtime(
        Some(8),
        0,
        Box::new(StrategyAggregation::new(Box::new(FedProx::new(0.1)))),
    );
    assert_eq!(rt.sink_mode(), SinkMode::Legacy);
    // Eligibility follows what a strategy declares about its aggregate,
    // not what it is called: FedAvg streams, an impostor wearing its
    // label is never folded as a weighted mean.
    let strategy = |s: Box<dyn SyncStrategy>| Box::new(StrategyAggregation::new(s));
    let rt = runtime(Some(8), 0, strategy(Box::new(FedAvg::new())));
    assert_eq!(rt.sink_mode(), SinkMode::Streaming);
    let rt = runtime(Some(8), 0, strategy(Box::new(SignStep)));
    assert_eq!(rt.sink_mode(), SinkMode::Legacy);
}

/// A strategy that is not a weighted mean — it steps every coordinate by
/// the sign of the summed deltas — but labels its runs "fedavg".
#[derive(Debug)]
struct SignStep;

impl SyncStrategy for SignStep {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate(&mut self, global: &mut [f32], updates: &[ClientUpdate]) {
        for (i, g) in global.iter_mut().enumerate() {
            let sum: f32 = updates.iter().map(|u| u.delta[i]).sum();
            *g += 0.01 * sum.signum();
        }
    }
}

#[test]
fn cohort_chunking_alone_preserves_the_legacy_path_bitwise() {
    // cohort_size with a non-streaming policy chunks the phases but still
    // buffers: on drop-free links (the builder's default broadband star)
    // results must match the monolithic pass bit for bit, because
    // chunking only re-groups per-client loop iterations. (On lossy links
    // chunking interleaves the shared loss-RNG draws differently — runs
    // stay deterministic but are not comparable across cohort sizes.)
    let run = |cohort: Option<usize>| {
        let mut rt = runtime(
            cohort,
            0,
            Box::new(StrategyAggregation::new(Box::new(FedProx::new(0.1)))),
        );
        assert_eq!(rt.sink_mode(), SinkMode::Legacy);
        let hist = rt.run();
        (
            rt.global_params()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<u32>>(),
            hist,
        )
    };
    let (params_mono, hist_mono) = run(None);
    let (params_chunked, hist_chunked) = run(Some(8));
    assert_eq!(hist_mono, hist_chunked);
    assert_eq!(params_mono, params_chunked);
}

#[test]
fn pooled_fleet_runs_are_reproducible() {
    let pooled = || {
        let fl = config(Some(8), 2);
        let data = SyntheticSpec::mnist_like(8, CLIENTS * 16).generate(3);
        let (train, test) = data.split_at(CLIENTS * 12);
        let shards = Partitioner::Iid.split(&train, CLIENTS, fl.seed_for("partition"));
        let bundle = policies(&fl, Box::new(AdaFlAggregation));
        RuntimeBuilder::new(fl, test)
            .shard_source(Box::new(VecShardSource::new(shards)))
            .threads(Some(1))
            .build_sync_runtime(bundle)
    };
    let mut a = pooled();
    assert!(a.is_pooled());
    let mut b = pooled();
    let hist_a = a.run();
    let hist_b = b.run();
    assert_eq!(hist_a, hist_b, "pooled runs must be deterministic");
    assert_eq!(a.ledger(), b.ledger());
    assert!(
        a.resident_clients() <= 8,
        "pooled fleets keep at most one cohort resident, saw {}",
        a.resident_clients()
    );
}
