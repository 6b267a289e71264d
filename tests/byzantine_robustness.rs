//! Byzantine robustness through the real runtime: seeded attackers rewrite
//! their encoded update bytes, robust pre-aggregators screen the cohort
//! between the defense gate and the aggregation policy, and the whole
//! composition stays deterministic per seed.
//!
//! The fl crate's unit tests pin each estimator and attack in isolation;
//! these tests pin the end-to-end claims: a defended run beats the
//! undefended one under attack, attacks surface in telemetry, robust
//! pre-aggregation composes with the AdaFL engine, and the async builder
//! refuses a stage that needs a synchronous cohort.

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::r#async::strategies::FedAsync;
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::{FlConfig, RunHistory};
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, FieldValue, InMemoryRecorder};

const CLIENTS: usize = 6;
const ROUNDS: usize = 8;

fn task() -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like(8, 600).generate(1).split_at(480)
}

fn fl_config(seed: u64) -> FlConfig {
    FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .participation(1.0)
        .local_steps(3)
        .batch_size(16)
        .seed(seed)
        .model(ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        })
        .build()
}

fn network(seed: u64) -> ClientNetwork {
    ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        seed,
    )
}

/// Two of six clients mount `kind` every round.
fn attack_plan(kind: FaultKind, seed: u64) -> FaultPlan {
    let mut kinds = vec![FaultKind::Reliable; CLIENTS];
    kinds[0] = kind;
    kinds[1] = kind;
    FaultPlan::new(kinds, seed)
}

fn builder(seed: u64, faults: FaultPlan) -> RuntimeBuilder {
    let (train, test) = task();
    let cfg = fl_config(seed);
    RuntimeBuilder::new(cfg, test)
        .partitioned(&train, Partitioner::Iid)
        .network(network(seed))
        .compute(ComputeModel::uniform(CLIENTS, 0.05))
        .faults(faults)
}

fn fedavg_engine(seed: u64, faults: FaultPlan, robust: Option<RobustMethod>) -> SyncRuntime {
    builder(seed, faults)
        .robust(robust)
        .build_sync(Box::new(FedAvg::new()))
}

/// A boosted reverse-gradient minority sinks plain FedAvg; the trimmed
/// mean excises it and lands near the clean run. Telemetry records both
/// the attacks and the robust stage's work.
#[test]
fn trimmed_mean_contains_attackers_that_sink_fedavg() {
    let attack = FaultKind::Boost { factor: -10.0 };
    let mut clean = fedavg_engine(7, FaultPlan::reliable(CLIENTS), None);
    let clean_history = clean.run();

    let mut undefended = fedavg_engine(7, attack_plan(attack, 7), None);
    let undefended_history = undefended.run();

    let rec = InMemoryRecorder::shared();
    let mut defended = builder(7, attack_plan(attack, 7))
        .robust(Some(RobustMethod::TrimmedMean {
            trim_ratio: 1.0 / 3.0,
        }))
        .recorder(rec.clone())
        .build_sync(Box::new(FedAvg::new()));
    let defended_history = defended.run();

    assert!(
        defended.global_params().iter().all(|v| v.is_finite()),
        "defended global model went non-finite"
    );
    assert!(
        defended_history.final_accuracy() > undefended_history.final_accuracy(),
        "robust run {:.3} did not beat undefended {:.3}",
        defended_history.final_accuracy(),
        undefended_history.final_accuracy()
    );
    let gap = clean_history.final_accuracy() - defended_history.final_accuracy();
    assert!(
        gap < 0.15,
        "defended run strayed {gap:.3} below the clean run"
    );

    let trace = rec.snapshot();
    assert_eq!(
        trace.counters[names::FL_ATTACKS],
        (2 * ROUNDS) as u64,
        "every attacker round surfaces in the counter"
    );
    assert!(trace.counters[names::FL_ROBUST_TRIMMED] > 0);
    let event = trace
        .events_of(names::EVENT_ATTACK)
        .next()
        .expect("attack event recorded");
    assert!(
        event
            .fields
            .iter()
            .any(|(k, v)| k == "kind" && matches!(v, FieldValue::Str(s) if s == "boost")),
        "attack event does not name its kind"
    );
    assert!(
        trace.spans.iter().any(|s| s.kind == names::SPAN_ROBUST),
        "robust stage recorded no cost span"
    );
}

/// Same seed, same attack, same defense → bitwise-identical model and
/// history; a different seed perturbs the attacked run. Collusion draws
/// from its own stream, so determinism survives the extra RNG use.
#[test]
fn attacked_and_defended_runs_are_seed_deterministic() {
    let run = |seed: u64| -> (Vec<f32>, RunHistory) {
        let mut e = fedavg_engine(
            seed,
            attack_plan(FaultKind::LittleIsEnough { epsilon: 0.3 }, seed),
            Some(RobustMethod::Median),
        );
        let history = e.run();
        (e.global_params().to_vec(), history)
    };
    let (params_a, history_a) = run(11);
    let (params_b, history_b) = run(11);
    assert_eq!(params_a, params_b, "same seed diverged");
    assert_eq!(
        history_a.final_accuracy(),
        history_b.final_accuracy(),
        "same seed, different history"
    );
    let (params_c, _) = run(12);
    assert_ne!(params_a, params_c, "different seed, identical model");
}

/// Robust pre-aggregation slots into the AdaFL engine exactly like the
/// baselines: same builder, same opt-in, DGC-compressed uplinks decode
/// into the same dense views the estimators consume.
#[test]
fn robust_stage_composes_with_the_adafl_engine() {
    let ada = AdaFlConfig {
        max_selected: CLIENTS,
        warmup_rounds: 2,
        ..AdaFlConfig::default()
    };
    let mut engine = builder(5, attack_plan(FaultKind::SignFlip, 5))
        .robust(Some(RobustMethod::GeometricMedian {
            max_iters: 32,
            tol: 1e-9,
        }))
        .build_adafl_sync(&ada);
    let history = engine.run();
    assert_eq!(history.len(), ROUNDS);
    assert!(
        engine.global_params().iter().all(|v| v.is_finite()),
        "AdaFL + robust global model went non-finite"
    );
}

/// Robust estimators need a cohort to out-vote; the async flavours apply
/// updates one at a time, so the builder refuses the combination with a
/// typed error instead of silently skipping the stage.
#[test]
fn async_builder_rejects_robust_pre_aggregation() {
    let err = builder(3, FaultPlan::reliable(CLIENTS))
        .robust(Some(RobustMethod::Median))
        .update_budget(20)
        .build_async(Box::new(FedAsync::new(0.6, 0.5)))
        .expect_err("robust + async must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("robust pre-aggregation") && msg.contains("async"),
        "error must name the unsupported combination: {msg}"
    );
}
