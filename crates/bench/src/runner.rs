//! Scenario runners: one entry point per (protocol, strategy) pair so every
//! experiment binary drives runs the same way.
//!
//! All four engine flavours are assembled through the one
//! [`RuntimeBuilder`] entry point; a [`Scenario`] is just the builder's
//! inputs plus the strategy name.

use crate::fleet;
use crate::tasks::Task;
use adafl_core::{AdaFlBuild, AdaFlConfig, AdaptiveCapacity};
use adafl_data::partition::Partitioner;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::FaultPlan;
use adafl_fl::r#async::strategies::{FedAsync, FedBuff};
use adafl_fl::r#async::AsyncStrategy;
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{RuntimeBuilder, SyncPolicies};
use adafl_fl::submodel::{CapacityPolicy, CapacityTier};
use adafl_fl::sync::strategies::{FedAdagrad, FedAdam, FedAvg, FedProx, FedYogi, Scaffold};
use adafl_fl::sync::{StaticCompression, SyncStrategy};
use adafl_fl::StaticCapacity;
use adafl_fl::{FlConfig, RunHistory};
use adafl_netsim::{ClientNetwork, LinkProfile, ReliablePolicy};
use adafl_telemetry::SharedRecorder;

/// Heterogeneous-capacity configuration for synchronous scenarios: the
/// tier ladder clients are assigned from and how assignments are made.
#[derive(Debug, Clone)]
pub struct Capacity {
    /// Tier ladder, ordered widest → narrowest.
    pub tiers: Vec<CapacityTier>,
    /// `true`: utility-driven [`AdaptiveCapacity`] (alignment EMA
    /// promotes/demotes); `false`: static `client % tiers.len()`
    /// assignment.
    pub adaptive: bool,
}

impl Capacity {
    fn policy(&self, clients: usize) -> Box<dyn CapacityPolicy> {
        if self.adaptive {
            Box::new(AdaptiveCapacity::new(self.tiers.clone(), clients))
        } else {
            Box::new(StaticCapacity::new(self.tiers.clone()))
        }
    }
}

/// Optional reliability layer for a scenario: retry transport over the
/// lossy links and/or the defensive aggregation gate at the server. The
/// default (all `None`) reproduces the legacy fire-and-forget behaviour
/// byte for byte.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Reliable-transport policy; `None` = fire-and-forget.
    pub retry: Option<ReliablePolicy>,
    /// Defensive aggregation gate; `None` = accept every update.
    pub defense: Option<DefenseConfig>,
    /// Byzantine-robust pre-aggregation (sync flavours only); `None` =
    /// plain aggregation over the screened cohort.
    pub robust: Option<RobustMethod>,
    /// Heterogeneous-capacity sub-view training (sync flavours only);
    /// `None` = every client trains the full model.
    pub capacity: Option<Capacity>,
}

impl Resilience {
    /// Retry transport plus the default defensive gate — the hardened
    /// configuration the resiliency sweep compares against `default()`.
    pub fn hardened() -> Self {
        Resilience {
            retry: Some(ReliablePolicy::default()),
            defense: Some(DefenseConfig::default()),
            robust: None,
            capacity: None,
        }
    }
}

/// Everything needed to execute one run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// FL protocol configuration.
    pub fl: FlConfig,
    /// AdaFL-specific configuration (used when the strategy is `adafl`).
    pub ada: AdaFlConfig,
    /// The learning task.
    pub task: Task,
    /// Data distribution across clients.
    pub partitioner: Partitioner,
    /// Per-client link conditions.
    pub network: ClientNetwork,
    /// Per-client compute speeds.
    pub compute: ComputeModel,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// Async protocols: total server-received updates before stopping.
    pub update_budget: u64,
    /// Optional reliable transport and defensive aggregation.
    pub resilience: Resilience,
    /// Fixed uplink compression of the synchronous baselines (the
    /// related-work schemes AdaFL's adaptive rates are contrasted with).
    pub compression: StaticCompression,
}

impl Scenario {
    /// The paper's §V evaluation fleet for `task` under `fl`: the first
    /// 30 % of the `fl.clients` clients on constrained links, 0.1 s per
    /// local step, no faults, default AdaFL, IID data, no async budget, no
    /// resilience layer and dense baselines, every generator seeded with
    /// `fl.seed`. An experiment names only what it varies:
    /// `Scenario { partitioner, ..Scenario::paper(task, fl) }`.
    pub fn paper(task: Task, fl: FlConfig) -> Self {
        Scenario {
            network: fleet::mixed_network(fl.clients, 0.3, LinkProfile::Constrained, fl.seed),
            compute: fleet::uniform_compute(fl.clients, 0.1, fl.seed),
            faults: FaultPlan::reliable(fl.clients),
            ada: AdaFlConfig::default(),
            partitioner: Partitioner::Iid,
            update_budget: 0,
            resilience: Resilience::default(),
            compression: StaticCompression::None,
            task,
            fl,
        }
    }

    /// A [`RuntimeBuilder`] loaded with this scenario's parts, resilience
    /// options and recorder — the single assembly path for every flavour.
    fn builder(&self, recorder: SharedRecorder) -> RuntimeBuilder {
        RuntimeBuilder::new(self.fl.clone(), self.task.test.clone())
            .partitioned(&self.task.train, self.partitioner)
            .network(self.network.clone())
            .compute(self.compute.clone())
            .faults(self.faults.clone())
            .retry_policy(self.resilience.retry)
            .defense(self.resilience.defense)
            .robust(self.resilience.robust)
            .capacity(
                self.resilience
                    .capacity
                    .as_ref()
                    .map(|c| c.policy(self.fl.clients)),
            )
            .recorder(recorder)
    }
}

/// Outcome of one run: the evaluation history plus communication totals.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Evaluation series.
    pub history: RunHistory,
    /// Total client→server bytes.
    pub uplink_bytes: u64,
    /// Total server→client bytes.
    pub downlink_bytes: u64,
    /// Total client→server updates (the paper's update frequency).
    pub uplink_updates: u64,
    /// Mean uplink payload in bytes.
    pub mean_uplink_payload: f64,
    /// Bytes burned on retransmitted attempts (reliable transport only).
    pub retransmission_bytes: u64,
    /// ACK/NACK control-plane bytes.
    pub control_bytes: u64,
}

/// The synchronous strategy names [`run_sync_with`] accepts: the paper's four
/// baselines and AdaFL, then the other adaptive server optimizers of Reddi
/// et al. \[34].
pub const SYNC_STRATEGIES: [&str; 7] = [
    "fedavg",
    "fedadam",
    "fedprox",
    "scaffold",
    "adafl",
    "fedadagrad",
    "fedyogi",
];

/// The asynchronous strategy names [`run_async_with`] accepts.
pub const ASYNC_STRATEGIES: [&str; 3] = ["fedasync", "fedbuff", "adafl"];

fn sync_baseline(name: &str) -> Box<dyn SyncStrategy> {
    match name {
        "fedavg" => Box::new(FedAvg::new()),
        "fedadam" => Box::new(FedAdam::new(0.01)),
        "fedprox" => Box::new(FedProx::new(0.01)),
        "scaffold" => Box::new(Scaffold::new()),
        "fedadagrad" => Box::new(FedAdagrad::new(0.02, 1e-3)),
        "fedyogi" => Box::new(FedYogi::new(0.02, 1e-3)),
        other => panic!("unknown sync strategy {other:?} (expected one of {SYNC_STRATEGIES:?})"),
    }
}

fn async_baseline(name: &str) -> Box<dyn AsyncStrategy> {
    match name {
        "fedasync" => Box::new(FedAsync::new(0.6, 0.5)),
        "fedbuff" => Box::new(FedBuff::new(3, 0.3)),
        other => panic!("unknown async strategy {other:?} (expected one of {ASYNC_STRATEGIES:?})"),
    }
}

/// Runs one synchronous scenario under the named strategy, with a telemetry
/// recorder attached to the runtime (and, through it, the simulated network)
/// and the worker-pool width pinned to `threads` (`None`: host parallelism).
/// Recording is passive and every pooled stage collects in submission order:
/// results are identical to the untraced run at any width.
///
/// # Panics
///
/// Panics on an unknown strategy name.
pub fn run_sync_with(
    scenario: &Scenario,
    strategy: &str,
    recorder: SharedRecorder,
    threads: Option<usize>,
) -> RunResult {
    let builder = scenario.builder(recorder).threads(threads);
    let mut runtime = if strategy == "adafl" {
        assert!(
            scenario.resilience.capacity.is_none(),
            "capacity tiers cannot be combined with the adafl strategy: its \
             score-adaptive DGC compression keeps per-client error feedback \
             bound to the full model dimension"
        );
        assert_eq!(
            scenario.compression,
            StaticCompression::None,
            "static compression cannot be combined with the adafl strategy: \
             it assigns its own utility-adaptive ratios"
        );
        builder.build_adafl_sync(&scenario.ada)
    } else {
        let policies =
            SyncPolicies::baseline(builder.fl(), sync_baseline(strategy), scenario.compression);
        builder.build_sync_runtime(policies)
    };
    let history = runtime.run();
    result(history, runtime.ledger())
}

/// Runs one asynchronous scenario under the named strategy, with a
/// telemetry recorder attached to the runtime (and, through it, the
/// simulated network). Recording is passive: results are identical to the
/// untraced run.
///
/// # Panics
///
/// Panics on an unknown strategy name.
pub fn run_async_with(scenario: &Scenario, strategy: &str, recorder: SharedRecorder) -> RunResult {
    let builder = scenario
        .builder(recorder)
        .update_budget(scenario.update_budget);
    let mut runtime = if strategy == "adafl" {
        builder.build_adafl_async(&scenario.ada)
    } else {
        builder
            .build_async(async_baseline(strategy))
            .unwrap_or_else(|e| panic!("{e}"))
    };
    let history = runtime.run();
    result(history, runtime.ledger())
}

fn result(history: RunHistory, ledger: &adafl_fl::CommunicationLedger) -> RunResult {
    RunResult {
        uplink_bytes: ledger.uplink_bytes(),
        downlink_bytes: ledger.downlink_bytes(),
        uplink_updates: ledger.uplink_updates(),
        mean_uplink_payload: ledger.mean_uplink_payload(),
        retransmission_bytes: ledger.retransmission_bytes(),
        control_bytes: ledger.control_bytes(),
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sync(scenario: &Scenario, strategy: &str) -> RunResult {
        run_sync_with(scenario, strategy, adafl_telemetry::noop(), None)
    }

    fn scenario() -> Scenario {
        let task = Task::mnist_logreg(300, 80, 0);
        let fl = FlConfig::builder()
            .clients(5)
            .rounds(6)
            .local_steps(3)
            .batch_size(16)
            .model(task.model.clone())
            .build();
        Scenario {
            network: fleet::broadband_network(5, 1),
            compute: fleet::uniform_compute(5, 0.05, 2),
            faults: FaultPlan::reliable(5),
            ada: AdaFlConfig {
                max_selected: 3,
                warmup_rounds: 2,
                ..AdaFlConfig::default()
            },
            partitioner: Partitioner::Iid,
            update_budget: 25,
            resilience: Resilience::default(),
            compression: StaticCompression::None,
            fl,
            task,
        }
    }

    #[test]
    fn every_sync_strategy_runs() {
        let s = scenario();
        for name in SYNC_STRATEGIES {
            let r = run_sync(&s, name);
            assert_eq!(r.history.len(), 6, "{name} produced wrong history length");
            assert!(r.uplink_updates > 0, "{name} sent nothing");
        }
    }

    #[test]
    fn every_async_strategy_runs() {
        let s = scenario();
        for name in ASYNC_STRATEGIES {
            let r = run_async_with(&s, name, adafl_telemetry::noop());
            assert!(!r.history.is_empty(), "{name} recorded nothing");
            assert!(r.uplink_bytes > 0);
        }
    }

    #[test]
    fn adafl_sends_fewer_bytes_than_fedavg() {
        let s = scenario();
        let fedavg = run_sync(&s, "fedavg");
        let adafl = run_sync(&s, "adafl");
        assert!(
            adafl.uplink_bytes < fedavg.uplink_bytes,
            "adafl {} vs fedavg {}",
            adafl.uplink_bytes,
            fedavg.uplink_bytes
        );
    }

    #[test]
    #[should_panic(expected = "unknown sync strategy")]
    fn unknown_strategy_panics() {
        run_sync(&scenario(), "sgd");
    }
}
