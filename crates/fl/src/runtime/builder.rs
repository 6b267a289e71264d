//! One builder for every protocol flavour.
//!
//! [`RuntimeBuilder`] is the only way to construct and configure a run:
//! it gathers the scenario parts (shards, network, compute, faults) and
//! the options (reliable transport, defense gate, robust stage, capacity
//! tiers, recorder, pool width) once, assembles the one server — core
//! plus stage chain — from them, and puts a [`SyncRuntime`] or an
//! [`AsyncRuntime`] with a policy bundle on top. A built runtime's
//! configuration is final — there is nothing to set on it afterwards but
//! restored global parameters.
//!
//! ```no_run
//! use adafl_data::{partition::Partitioner, synthetic::SyntheticSpec};
//! use adafl_fl::runtime::RuntimeBuilder;
//! use adafl_fl::sync::strategies::FedAvg;
//! use adafl_fl::FlConfig;
//! use adafl_nn::models::ModelSpec;
//!
//! let data = SyntheticSpec::mnist_like(16, 1000).generate(0);
//! let (train, test) = data.split_at(800);
//! let cfg = FlConfig::builder()
//!     .clients(10)
//!     .rounds(20)
//!     .model(ModelSpec::LogisticRegression { in_features: 256, classes: 10 })
//!     .build();
//! let mut runtime = RuntimeBuilder::new(cfg, test)
//!     .partitioned(&train, Partitioner::Iid)
//!     .build_sync(Box::new(FedAvg::new()));
//! let history = runtime.run();
//! ```
//!
//! Defaults: a homogeneous broadband network seeded from the config,
//! uniform 0.1 s/step compute, and a fault-free fleet.

use super::baseline::StrategyAsyncPolicy;
use super::core::ServerCore;
use super::event::AsyncRuntime;
use super::policy::AsyncPolicy;
use super::stages::ServerStages;
use super::sync::{SyncPolicies, SyncRuntime};
use crate::client::Device;
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::defense::DefenseConfig;
use crate::faults::FaultPlan;
use crate::fleet::{ClientPool, Fleet, ShardSource};
use crate::pool::WorkerPool;
use crate::r#async::AsyncStrategy;
use crate::robust::{RobustAggregator, RobustMethod};
use crate::submodel::CapacityPolicy;
use crate::sync::{StaticCompression, SyncStrategy};
use adafl_data::partition::Partitioner;
use adafl_data::Dataset;
use adafl_netsim::{FleetNetwork, ReliablePolicy};
use adafl_telemetry::SharedRecorder;

/// Why a [`RuntimeBuilder`] could not assemble the requested flavour.
///
/// Every flavour rejects a robust method whose parameters are out of
/// range and a builder that was never given client data; asynchronous
/// flavours also reject the options that only make sense with a per-round
/// cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// [`RuntimeBuilder::robust`] was combined with an async flavour.
    RobustRequiresSync,
    /// [`RuntimeBuilder::capacity`] was combined with an async flavour.
    CapacityRequiresSync,
    /// [`RuntimeBuilder::shard_source`] was combined with an async flavour.
    PooledRequiresSync,
    /// Neither [`RuntimeBuilder::shards`], [`RuntimeBuilder::partitioned`]
    /// nor [`RuntimeBuilder::shard_source`] was called.
    MissingShards,
    /// An async flavour was built without a positive
    /// [`RuntimeBuilder::update_budget`].
    MissingUpdateBudget,
    /// [`RuntimeBuilder::robust`] was given a method that
    /// [`RobustAggregator::try_new`] rejects, for the reason carried.
    InvalidRobustMethod(&'static str),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RobustRequiresSync => f.write_str(
                "robust pre-aggregation cannot be combined with an async flavour: \
                 robust estimators need a synchronous cohort to out-vote, and the \
                 one-update-at-a-time async path never has one",
            ),
            BuildError::CapacityRequiresSync => f.write_str(
                "capacity tiers cannot be combined with an async flavour: sub-view \
                 assignment and coverage-weighted aggregation need a synchronous \
                 per-round cohort",
            ),
            BuildError::PooledRequiresSync => f.write_str(
                "pooled fleets are synchronous-only: the async event loop keeps \
                 per-client versions alive across the whole run",
            ),
            BuildError::MissingShards => f.write_str(
                "no client data: provide shards via .shards(..), .partitioned(..) \
                 or .shard_source(..)",
            ),
            BuildError::MissingUpdateBudget => f.write_str(
                "an async flavour needs a positive update budget: set it with \
                 .update_budget(..)",
            ),
            BuildError::InvalidRobustMethod(reason) => {
                write!(f, "invalid robust method: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The scenario a runtime simulates, as gathered by the builder; a `None`
/// part takes its default when the server is assembled.
#[derive(Debug)]
pub(super) struct Scenario {
    pub fl: FlConfig,
    pub test_set: Dataset,
    pub network: Option<FleetNetwork>,
    pub compute: Option<ComputeModel>,
    pub faults: Option<FaultPlan>,
}

/// One device per shard; with `replicas`, each keeps one, starting at the
/// config's initial model.
fn devices(config: &FlConfig, shards: Vec<Dataset>, replicas: bool) -> Vec<Device> {
    assert_eq!(shards.len(), config.clients, "shard count mismatch");
    let seed = config.seed_for("model");
    let initial = replicas.then(|| config.model.build(seed).params_flat());
    shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| {
            let device = Device::new(
                id,
                shard,
                config.learning_rate,
                config.momentum,
                config.batch_size,
                seed,
            );
            match &initial {
                Some(initial) => device.with_replica(initial.clone()),
                None => device,
            }
        })
        .collect()
}

/// The runtime's pool: `threads` wide, or as wide as the host when `None`.
fn worker_pool(threads: Option<usize>) -> WorkerPool {
    match threads {
        Some(threads) => WorkerPool::new(threads.max(1)),
        None => WorkerPool::with_default_size(),
    }
}

/// Gathers scenario parts once, then builds any protocol flavour.
#[derive(Debug)]
pub struct RuntimeBuilder {
    scenario: Scenario,
    shards: Option<Vec<Dataset>>,
    shard_source: Option<Box<dyn ShardSource>>,
    retry: Option<ReliablePolicy>,
    defense: Option<DefenseConfig>,
    recorder: Option<SharedRecorder>,
    robust: Option<RobustMethod>,
    capacity: Option<Box<dyn CapacityPolicy>>,
    update_budget: u64,
    threads: Option<usize>,
    buffered_fold: bool,
}

impl RuntimeBuilder {
    /// Starts a builder from the protocol configuration and test set.
    pub fn new(fl: FlConfig, test_set: Dataset) -> Self {
        RuntimeBuilder {
            scenario: Scenario {
                fl,
                test_set,
                network: None,
                compute: None,
                faults: None,
            },
            shards: None,
            shard_source: None,
            retry: None,
            defense: None,
            recorder: None,
            robust: None,
            capacity: None,
            update_budget: 0,
            threads: None,
            buffered_fold: false,
        }
    }

    /// The protocol configuration this builder was started with.
    pub fn fl(&self) -> &FlConfig {
        &self.scenario.fl
    }

    /// Uses pre-split client shards.
    pub fn shards(mut self, shards: Vec<Dataset>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Splits `train_set` across the fleet with `partitioner`, seeded from
    /// the config (`seed_for("partition")`).
    pub fn partitioned(self, train_set: &Dataset, partitioner: Partitioner) -> Self {
        let fl = &self.scenario.fl;
        let shards = partitioner.split(train_set, fl.clients, fl.seed_for("partition"));
        self.shards(shards)
    }

    /// Uses an on-demand [`ShardSource`] and a cohort-resident
    /// [`ClientPool`](crate::ClientPool) instead of one live client per
    /// simulated client — O(cohort × model) instead of O(clients × model)
    /// memory, the fleet-scale configuration. Takes precedence over
    /// [`RuntimeBuilder::shards`].
    ///
    /// Pooled fleets have no per-client persistent state, so they are
    /// synchronous-only; a crashed pooled client sits its outage out with
    /// nothing to checkpoint (a pooled device keeps no replica: it trains
    /// from the global model, and a sub-view round's uncovered coordinates
    /// are the initial model's), and selection policies that probe
    /// individual clients see an empty
    /// [`SelectionCtx::devices`](super::SelectionCtx::devices) slice.
    pub fn shard_source(mut self, source: Box<dyn ShardSource>) -> Self {
        self.shard_source = Some(source);
        self
    }

    /// Uses an explicit network — a star [`adafl_netsim::ClientNetwork`] or
    /// a mesh [`adafl_netsim::MeshNetwork`] (default: homogeneous broadband
    /// star seeded `seed_for("network")`).
    pub fn network(mut self, network: impl Into<FleetNetwork>) -> Self {
        self.scenario.network = Some(network.into());
        self
    }

    /// Uses an explicit compute model (default: uniform 0.1 s/step).
    pub fn compute(mut self, compute: ComputeModel) -> Self {
        self.scenario.compute = Some(compute);
        self
    }

    /// Uses an explicit fault plan (default: fault-free).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.scenario.faults = Some(faults);
        self
    }

    /// Enables reliable transport (`None` keeps fire-and-forget): every
    /// model exchange runs through a retry layer, and the ledger
    /// additionally charges retransmitted payload bytes and ACK control
    /// frames. An async transfer that still fails after all attempts falls
    /// back to the resync path.
    pub fn retry_policy(mut self, policy: Option<ReliablePolicy>) -> Self {
        self.retry = policy;
        self
    }

    /// Enables the defensive aggregation gate (`None` keeps it off):
    /// updates are scrubbed and norm-screened before aggregation. A
    /// synchronous round below the configured quorum is skipped with state
    /// carried forward; an asynchronous arrival that is rejected is
    /// discarded and its sender resynced as usual.
    pub fn defense(mut self, cfg: Option<DefenseConfig>) -> Self {
        self.defense = cfg;
        self
    }

    /// Enables Byzantine-robust pre-aggregation (`None` keeps plain
    /// aggregation): after defense screening and before the aggregation
    /// policy, the cohort is replaced by the method's robust estimate (see
    /// [`crate::robust`]). Synchronous flavours only — robust estimators
    /// need a cohort to out-vote, which the one-update-at-a-time async
    /// path never has.
    pub fn robust(mut self, method: Option<RobustMethod>) -> Self {
        self.robust = method;
        self
    }

    /// Enables heterogeneous-capacity (sub-view) training under the given
    /// tier-assignment policy (`None` keeps full-model rounds).
    /// Synchronous flavours only.
    ///
    /// Each round the policy assigns every selected client a
    /// [`CapacityTier`](crate::CapacityTier); the client receives only the
    /// matching parameter [`SubView`](adafl_nn::SubView) (the downlink is
    /// charged at view size plus the descriptor header, not the full
    /// model), trains with gradients masked to the view, and uploads a
    /// view-local update wrapped in a sub-view payload. The server then
    /// aggregates with the coverage-weighted fold (each coordinate
    /// averaged over the clients whose view covers it) and maintains `ĝ`
    /// from that fold.
    ///
    /// Compose with stateless compression only: policies carrying
    /// per-client dimension-bound state (top-k error feedback, adaptive
    /// DGC) assume full-width deltas and will reject view-local lengths.
    /// The aggregation policy's `aggregate` is bypassed in favour of the
    /// coverage fold; its gradient hook and `after_local_round` (fed the
    /// densified delta) still run, so FedProx/SCAFFOLD-style local
    /// regularisation composes with capacity tiers.
    pub fn capacity(mut self, policy: Option<Box<dyn CapacityPolicy>>) -> Self {
        self.capacity = policy;
        self
    }

    /// Pins the runtime's worker-pool width to exactly `threads` workers
    /// (`None` keeps the host-parallelism default; 1 runs every pooled
    /// stage, local training included, inline). Synchronous flavours fan
    /// each round's probes, training, screening and evaluation across the
    /// pool; asynchronous flavours train each client ahead on it from the
    /// moment its downlink lands, and at width 1 train it at its
    /// `StartTraining` event. Every pooled stage collects results in
    /// submission or event order, so histories, ledgers and traces are
    /// identical at any width; this only affects wall-clock time.
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a telemetry recorder, also wired into the simulated
    /// network and transport so transfers are traced. Recording is
    /// strictly passive: it never touches an RNG, the event schedule or
    /// the simulated clock, so traced and untraced runs produce identical
    /// histories.
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Total server-update budget for asynchronous runs (required before
    /// building an async flavour).
    pub fn update_budget(mut self, budget: u64) -> Self {
        self.update_budget = budget;
        self
    }

    /// The streaming parity reference: when set, streaming-eligible rounds
    /// buffer their updates and replay the identical fold calls at round
    /// end ([`SinkMode::BufferedFold`](super::SinkMode::BufferedFold))
    /// instead of folding at arrival. Results are bitwise identical to
    /// streaming by construction; the `streaming_parity` test and the
    /// `scalability` bench run both and assert exactly that. Off by
    /// default.
    pub fn buffered_fold(mut self, on: bool) -> Self {
        self.buffered_fold = on;
        self
    }

    /// [`RuntimeBuilder::try_build_sync_runtime`] for callers whose
    /// options are known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`]'s message where that would return
    /// it, and when a fleet-shaped part disagrees with `fl.clients`.
    pub fn build_sync_runtime(self, policies: SyncPolicies) -> SyncRuntime {
        self.try_build_sync_runtime(policies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a [`SyncRuntime`] specialised by `policies`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidRobustMethod`] when the parameters of
    /// the [`RuntimeBuilder::robust`] method are out of range and
    /// [`BuildError::MissingShards`] when the builder was given no client
    /// data.
    ///
    /// # Panics
    ///
    /// Panics when shard/network/compute/fault sizes disagree with
    /// `fl.clients` or any shard is empty.
    pub fn try_build_sync_runtime(self, policies: SyncPolicies) -> Result<SyncRuntime, BuildError> {
        let robust = self
            .robust
            .map(RobustAggregator::try_new)
            .transpose()
            .map_err(BuildError::InvalidRobustMethod)?;
        // Fleet first, server second: with the server's model and ledger
        // allocated below them, 256 resident clients took twice as long to
        // build (5 → 12 ms of page faults on the `robust_256_trimmed`
        // set-up).
        let config = &self.scenario.fl;
        let fleet = match (self.shard_source, self.shards) {
            (Some(source), _) => {
                assert_eq!(
                    source.clients(),
                    config.clients,
                    "shard source size mismatch"
                );
                Fleet::Pooled(ClientPool::new(
                    config.model.clone(),
                    source,
                    config.learning_rate,
                    config.momentum,
                    config.batch_size,
                    config.seed_for("model"),
                ))
            }
            (None, Some(shards)) => {
                // Only probing selection and sub-view rounds read replicas.
                let replicas = policies.selection.reads_replicas() || self.capacity.is_some();
                Fleet::Resident(devices(config, shards, replicas))
            }
            (None, None) => return Err(BuildError::MissingShards),
        };
        let core = ServerCore::new(self.scenario, self.retry, self.recorder);
        let stages = ServerStages::new(&core, self.defense, robust, self.capacity);
        Ok(SyncRuntime::new(
            core,
            stages,
            fleet,
            policies,
            worker_pool(self.threads),
            self.buffered_fold,
        ))
    }

    /// Builds an [`AsyncRuntime`] specialised by `policy`.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] naming the unsupported combination when
    /// [`RuntimeBuilder::robust`], [`RuntimeBuilder::capacity`] or
    /// [`RuntimeBuilder::shard_source`] was set — all three need a
    /// synchronous per-round cohort — [`BuildError::MissingShards`] when
    /// the builder was given no client data, and
    /// [`BuildError::MissingUpdateBudget`] when
    /// [`RuntimeBuilder::update_budget`] was not set.
    ///
    /// # Panics
    ///
    /// Panics when shard/network/compute/fault sizes disagree with
    /// `fl.clients` or any shard is empty.
    pub fn build_async_runtime(
        self,
        policy: Box<dyn AsyncPolicy>,
    ) -> Result<AsyncRuntime, BuildError> {
        if self.robust.is_some() {
            return Err(BuildError::RobustRequiresSync);
        }
        if self.capacity.is_some() {
            return Err(BuildError::CapacityRequiresSync);
        }
        if self.shard_source.is_some() {
            return Err(BuildError::PooledRequiresSync);
        }
        let shards = self.shards.ok_or(BuildError::MissingShards)?;
        if self.update_budget == 0 {
            return Err(BuildError::MissingUpdateBudget);
        }
        // The event loop reads no replica — no sub-views, probes or crash
        // checkpoints — so its devices keep none.
        let clients = devices(&self.scenario.fl, shards, false);
        let core = ServerCore::new(self.scenario, self.retry, self.recorder);
        let stages = ServerStages::new(&core, self.defense, None, None);
        Ok(AsyncRuntime::new(
            core,
            stages,
            clients,
            policy,
            self.update_budget,
            worker_pool(self.threads),
        ))
    }

    /// Builds the baseline synchronous flavour: uniform random selection,
    /// no compression and the given [`SyncStrategy`]
    /// ([`SyncPolicies::baseline`]).
    ///
    /// # Panics
    ///
    /// See [`RuntimeBuilder::build_sync_runtime`].
    pub fn build_sync(self, strategy: Box<dyn SyncStrategy>) -> SyncRuntime {
        let policies = SyncPolicies::baseline(self.fl(), strategy, StaticCompression::None);
        self.build_sync_runtime(policies)
    }

    /// Builds the baseline asynchronous flavour (dense exchanges, no
    /// utility gate) around the given [`AsyncStrategy`].
    ///
    /// # Errors
    ///
    /// See [`RuntimeBuilder::build_async_runtime`].
    pub fn build_async(self, strategy: Box<dyn AsyncStrategy>) -> Result<AsyncRuntime, BuildError> {
        self.build_async_runtime(Box::new(StrategyAsyncPolicy::new(strategy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::fleet::VecShardSource;
    use crate::r#async::strategies::FedAsync;
    use crate::submodel::{CapacityTier, StaticCapacity};
    use crate::sync::strategies::FedAvg;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_nn::models::ModelSpec;

    const CLIENTS: usize = 2;

    fn shards() -> Vec<Dataset> {
        vec![SyntheticSpec::mnist_like(4, 8).generate(1); CLIENTS]
    }

    /// A builder with no client data yet.
    fn bare() -> RuntimeBuilder {
        let data = SyntheticSpec::mnist_like(4, 40).generate(0);
        let cfg = FlConfig::builder()
            .clients(CLIENTS)
            .rounds(1)
            .model(ModelSpec::LogisticRegression {
                in_features: 16,
                classes: 10,
            })
            .build();
        RuntimeBuilder::new(cfg, data)
    }

    fn builder() -> RuntimeBuilder {
        bare().shards(shards())
    }

    fn pooled() -> RuntimeBuilder {
        bare().shard_source(Box::new(VecShardSource::new(shards())))
    }

    fn try_sync(builder: RuntimeBuilder) -> Result<SyncRuntime, BuildError> {
        let policies = SyncPolicies::baseline(
            builder.fl(),
            Box::new(FedAvg::new()),
            StaticCompression::None,
        );
        builder.try_build_sync_runtime(policies)
    }

    fn try_async(builder: RuntimeBuilder) -> Result<AsyncRuntime, BuildError> {
        builder.build_async(Box::new(FedAsync::new(0.6, 0.5)))
    }

    /// What used to be a builder panic is a typed error whose message names
    /// what is missing or was combined.
    #[test]
    fn former_builder_panics_are_typed_errors() {
        let crashing = FaultPlan::with_fraction(
            CLIENTS,
            1.0,
            FaultKind::Crash {
                at_round: 0,
                down_for: 1,
            },
            0,
        );
        let rows: Vec<(Result<(), BuildError>, BuildError, [&str; 2])> = vec![
            (
                try_async(pooled().update_budget(10)).map(drop),
                BuildError::PooledRequiresSync,
                ["pooled fleets", "synchronous-only"],
            ),
            (
                try_sync(bare()).map(drop),
                BuildError::MissingShards,
                [".shards(..)", ".shard_source(..)"],
            ),
            (
                try_async(bare().update_budget(10)).map(drop),
                BuildError::MissingShards,
                [".shards(..)", ".partitioned(..)"],
            ),
            (
                try_async(builder()).map(drop),
                BuildError::MissingUpdateBudget,
                ["update budget", ".update_budget(..)"],
            ),
        ];
        for (outcome, expected, needles) in rows {
            let err = outcome.expect_err("the combination must be rejected");
            assert_eq!(err, expected);
            let msg = err.to_string();
            assert!(
                needles.iter().all(|n| msg.contains(n)),
                "{expected:?} must name the unsupported combination: {msg}"
            );
        }
        assert!(
            try_sync(pooled()).is_ok(),
            "a fault-free pooled fleet builds"
        );
        assert!(
            try_sync(pooled().faults(crashing)).is_ok(),
            "a pooled fleet with crash faults builds: the outage composes"
        );
    }

    #[test]
    #[should_panic(expected = "no client data")]
    fn the_panicking_sync_build_carries_the_errors_message() {
        bare().build_sync(Box::new(FedAvg::new()));
    }

    #[test]
    fn async_build_rejects_robust_with_named_error() {
        let err = try_async(
            builder()
                .robust(Some(RobustMethod::Median))
                .update_budget(10),
        )
        .expect_err("robust + async must be rejected");
        assert_eq!(err, BuildError::RobustRequiresSync);
        let msg = err.to_string();
        assert!(
            msg.contains("robust pre-aggregation") && msg.contains("async"),
            "error must name the unsupported combination: {msg}"
        );
    }

    #[test]
    fn sync_build_rejects_invalid_robust_parameters_with_the_reason() {
        for (method, reason) in [
            (RobustMethod::TrimmedMean { trim_ratio: 0.5 }, "trim ratio"),
            (
                RobustMethod::TrimmedMean {
                    trim_ratio: f64::NAN,
                },
                "trim ratio",
            ),
            (
                RobustMethod::MultiKrum { f: 1, m: 0 },
                "at least one update",
            ),
            (
                RobustMethod::GeometricMedian {
                    max_iters: 8,
                    tol: -1.0,
                },
                "tolerance",
            ),
            (
                RobustMethod::GeometricMedian {
                    max_iters: 8,
                    tol: f64::INFINITY,
                },
                "tolerance",
            ),
        ] {
            let err = try_sync(builder().robust(Some(method)))
                .expect_err("out-of-range parameters must be rejected");
            assert!(
                matches!(err, BuildError::InvalidRobustMethod(r) if r.contains(reason)),
                "{method:?} gave {err:?}"
            );
            assert!(err.to_string().contains(reason), "{err}");
        }
    }

    #[test]
    fn async_build_rejects_capacity_with_named_error() {
        let full = Box::new(StaticCapacity::new(vec![CapacityTier::Full]));
        let err = try_async(builder().capacity(Some(full)).update_budget(10))
            .expect_err("capacity + async must be rejected");
        assert_eq!(err, BuildError::CapacityRequiresSync);
        let msg = err.to_string();
        assert!(
            msg.contains("capacity tiers") && msg.contains("async"),
            "error must name the unsupported combination: {msg}"
        );
    }
}
