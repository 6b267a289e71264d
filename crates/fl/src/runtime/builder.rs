//! One builder for every protocol flavour.
//!
//! [`RuntimeBuilder`] is the single assembly point for every engine: it
//! gathers the scenario parts (shards, network, compute,
//! faults, resilience options, recorder) once, then specialises into a
//! [`SyncRuntime`] or [`AsyncRuntime`] with a policy bundle — or directly
//! into the [`SyncEngine`](crate::sync::SyncEngine) /
//! [`AsyncEngine`](crate::r#async::AsyncEngine) baseline wrappers.
//!
//! Defaults match the legacy `Engine::new` constructors: a homogeneous
//! broadband network seeded from the config, uniform 0.1 s/step compute,
//! and a fault-free fleet.

use super::baseline::{
    RandomSelection, StaticCompressionPolicy, StrategyAggregation, StrategyAsyncPolicy,
};
use super::event::AsyncRuntime;
use super::policy::AsyncPolicy;
use super::sync::{SyncPolicies, SyncRuntime};
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::defense::DefenseConfig;
use crate::faults::FaultPlan;
use crate::fleet::ShardSource;
use crate::r#async::{AsyncEngine, AsyncStrategy};
use crate::robust::{RobustAggregator, RobustMethod};
use crate::submodel::CapacityPolicy;
use crate::sync::{StaticCompression, SyncEngine, SyncStrategy};
use adafl_data::partition::Partitioner;
use adafl_data::Dataset;
use adafl_netsim::{ClientNetwork, FleetNetwork, LinkProfile, LinkTrace, ReliablePolicy};
use adafl_telemetry::SharedRecorder;

/// Why a [`RuntimeBuilder`] could not assemble the requested flavour.
///
/// Every flavour rejects a robust method whose parameters are out of
/// range; asynchronous flavours also reject resilience options that only
/// make sense with a per-round cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// [`RuntimeBuilder::robust`] was combined with an async flavour.
    RobustRequiresSync,
    /// [`RuntimeBuilder::capacity`] was combined with an async flavour.
    CapacityRequiresSync,
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
            BuildError::InvalidRobustMethod(reason) => {
                write!(f, "invalid robust method: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Gathers scenario parts once, then builds any protocol flavour.
#[derive(Debug)]
pub struct RuntimeBuilder {
    fl: FlConfig,
    test_set: Dataset,
    shards: Option<Vec<Dataset>>,
    shard_source: Option<Box<dyn ShardSource>>,
    network: Option<FleetNetwork>,
    compute: Option<ComputeModel>,
    faults: Option<FaultPlan>,
    retry: Option<ReliablePolicy>,
    defense: Option<DefenseConfig>,
    robust: Option<RobustMethod>,
    capacity: Option<Box<dyn CapacityPolicy>>,
    recorder: Option<SharedRecorder>,
    update_budget: u64,
    eval_every: Option<u64>,
    threads: Option<usize>,
}

impl RuntimeBuilder {
    /// Starts a builder from the protocol configuration and test set.
    pub fn new(fl: FlConfig, test_set: Dataset) -> Self {
        RuntimeBuilder {
            fl,
            test_set,
            shards: None,
            shard_source: None,
            network: None,
            compute: None,
            faults: None,
            retry: None,
            defense: None,
            robust: None,
            capacity: None,
            recorder: None,
            update_budget: 0,
            eval_every: None,
            threads: None,
        }
    }

    /// The protocol configuration this builder was started with.
    pub fn fl(&self) -> &FlConfig {
        &self.fl
    }

    /// Uses pre-split client shards.
    pub fn shards(mut self, shards: Vec<Dataset>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Splits `train_set` across the fleet with `partitioner`, seeded from
    /// the config (`seed_for("partition")`).
    pub fn partitioned(self, train_set: &Dataset, partitioner: Partitioner) -> Self {
        let shards = partitioner.split(train_set, self.fl.clients, self.fl.seed_for("partition"));
        self.shards(shards)
    }

    /// Uses an on-demand [`ShardSource`] and a cohort-resident client
    /// pool instead of one live client per simulated client — the
    /// fleet-scale configuration (synchronous flavours only; see
    /// [`SyncRuntime::new_pooled`] for the combinations pooled fleets
    /// reject). Takes precedence over [`RuntimeBuilder::shards`].
    pub fn shard_source(mut self, source: Box<dyn ShardSource>) -> Self {
        self.shard_source = Some(source);
        self
    }

    /// Uses an explicit network — a star [`ClientNetwork`] or a mesh
    /// [`adafl_netsim::MeshNetwork`] (default: homogeneous broadband star
    /// seeded `seed_for("network")`).
    pub fn network(mut self, network: impl Into<FleetNetwork>) -> Self {
        self.network = Some(network.into());
        self
    }

    /// Uses an explicit compute model (default: uniform 0.1 s/step).
    pub fn compute(mut self, compute: ComputeModel) -> Self {
        self.compute = Some(compute);
        self
    }

    /// Uses an explicit fault plan (default: fault-free).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables reliable transport (`None` keeps fire-and-forget).
    pub fn retry_policy(mut self, policy: Option<ReliablePolicy>) -> Self {
        self.retry = policy;
        self
    }

    /// Enables the defensive aggregation gate (`None` keeps it off).
    pub fn defense(mut self, cfg: Option<DefenseConfig>) -> Self {
        self.defense = cfg;
        self
    }

    /// Enables Byzantine-robust pre-aggregation between the defense screen
    /// and the aggregation policy (`None` keeps plain aggregation).
    /// Synchronous flavours only — robust estimators need a cohort to
    /// out-vote, which the one-update-at-a-time async path never has.
    pub fn robust(mut self, method: Option<RobustMethod>) -> Self {
        self.robust = method;
        self
    }

    /// Enables heterogeneous-capacity (sub-view) training under the given
    /// tier-assignment policy (`None` keeps full-model rounds). Synchronous
    /// flavours only — see [`SyncRuntime::set_capacity`].
    pub fn capacity(mut self, policy: Option<Box<dyn CapacityPolicy>>) -> Self {
        self.capacity = policy;
        self
    }

    /// Pins the server worker-pool width for synchronous flavours
    /// (`None` keeps the `ADAFL_THREADS` / host-parallelism default; see
    /// [`SyncRuntime::set_threads`]). Async flavours have no server pool
    /// and ignore this.
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a telemetry recorder.
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

    /// Evaluation cadence for asynchronous runs (default 5 arrivals).
    pub fn eval_every(mut self, n: u64) -> Self {
        self.eval_every = Some(n);
        self
    }

    fn take_parts(&mut self) -> (Vec<Dataset>, FleetNetwork, ComputeModel, FaultPlan) {
        let shards = self
            .shards
            .take()
            .expect("provide shards via .shards(..) or .partitioned(..)");
        let (network, compute, faults) = self.take_env();
        (shards, network, compute, faults)
    }

    fn take_env(&mut self) -> (FleetNetwork, ComputeModel, FaultPlan) {
        let network = self.network.take().unwrap_or_else(|| {
            ClientNetwork::new(
                vec![LinkTrace::constant(LinkProfile::Broadband.spec()); self.fl.clients],
                self.fl.seed_for("network"),
            )
            .into()
        });
        let compute = self
            .compute
            .take()
            .unwrap_or_else(|| ComputeModel::uniform(self.fl.clients, 0.1));
        let faults = self
            .faults
            .take()
            .unwrap_or_else(|| FaultPlan::reliable(self.fl.clients));
        (network, compute, faults)
    }

    /// [`RuntimeBuilder::try_build_sync_runtime`] for callers whose robust
    /// method is known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`]'s message where that would return it.
    pub fn build_sync_runtime(self, policies: SyncPolicies) -> SyncRuntime {
        self.try_build_sync_runtime(policies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a [`SyncRuntime`] specialised by `policies`, applying the
    /// resilience options in the canonical order (retry → defense →
    /// robust → recorder) the benchmark runner has always used.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidRobustMethod`] when the parameters of
    /// the [`RuntimeBuilder::robust`] method are out of range.
    pub fn try_build_sync_runtime(
        mut self,
        policies: SyncPolicies,
    ) -> Result<SyncRuntime, BuildError> {
        let robust = self
            .robust
            .map(RobustAggregator::try_new)
            .transpose()
            .map_err(BuildError::InvalidRobustMethod)?;
        let mut rt = match self.shard_source.take() {
            Some(source) => {
                let (network, compute, faults) = self.take_env();
                SyncRuntime::new_pooled(
                    self.fl,
                    source,
                    self.test_set,
                    network,
                    compute,
                    faults,
                    policies,
                )
            }
            None => {
                let (shards, network, compute, faults) = self.take_parts();
                SyncRuntime::new(
                    self.fl,
                    shards,
                    self.test_set,
                    network,
                    compute,
                    faults,
                    policies,
                )
            }
        };
        if let Some(policy) = self.retry {
            rt.set_retry_policy(policy);
        }
        if let Some(cfg) = self.defense {
            rt.set_defense(cfg);
        }
        if let Some(robust) = robust {
            rt.set_robust(robust);
        }
        if let Some(policy) = self.capacity {
            rt.set_capacity(policy);
        }
        if let Some(recorder) = self.recorder {
            rt.set_recorder(recorder);
        }
        if let Some(threads) = self.threads {
            rt.set_threads(threads);
        }
        Ok(rt)
    }

    /// Builds an [`AsyncRuntime`] specialised by `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the unsupported combination when
    /// [`RuntimeBuilder::robust`] or [`RuntimeBuilder::capacity`] was set —
    /// both need a synchronous per-round cohort.
    ///
    /// # Panics
    ///
    /// Panics when [`RuntimeBuilder::update_budget`] was not set.
    pub fn build_async_runtime(
        mut self,
        policy: Box<dyn AsyncPolicy>,
    ) -> Result<AsyncRuntime, BuildError> {
        if self.robust.is_some() {
            return Err(BuildError::RobustRequiresSync);
        }
        if self.capacity.is_some() {
            return Err(BuildError::CapacityRequiresSync);
        }
        assert!(
            self.shard_source.is_none(),
            "pooled fleets are synchronous-only: the async event loop keeps \
             per-client versions alive across the whole run"
        );
        let (shards, network, compute, faults) = self.take_parts();
        let mut rt = AsyncRuntime::new(
            self.fl,
            shards,
            self.test_set,
            network,
            compute,
            faults,
            self.update_budget,
            policy,
        );
        if let Some(n) = self.eval_every {
            rt.set_eval_every(n);
        }
        if let Some(policy) = self.retry {
            rt.set_retry_policy(policy);
        }
        if let Some(cfg) = self.defense {
            rt.set_defense(cfg);
        }
        if let Some(recorder) = self.recorder {
            rt.set_recorder(recorder);
        }
        Ok(rt)
    }

    /// Builds the baseline synchronous flavour: uniform random selection,
    /// identity static compression and the given [`SyncStrategy`], wrapped
    /// in the legacy [`SyncEngine`] facade.
    pub fn build_sync(self, strategy: Box<dyn SyncStrategy>) -> SyncEngine {
        let policies = self.baseline_policies(strategy);
        SyncEngine::from_runtime(self.build_sync_runtime(policies))
    }

    /// The baseline synchronous bundle: uniform random selection, identity
    /// static compression and `strategy`, seeded from the configuration.
    fn baseline_policies(&self, strategy: Box<dyn SyncStrategy>) -> SyncPolicies {
        SyncPolicies {
            selection: Box::new(RandomSelection::new(self.fl.seed_for("selection"))),
            compression: Box::new(StaticCompressionPolicy::new(
                StaticCompression::None,
                self.fl.seed_for("compression"),
            )),
            aggregation: Box::new(StrategyAggregation::new(strategy)),
            enforce_deadline: true,
        }
    }

    /// Builds the baseline asynchronous flavour (dense exchanges, no
    /// utility gate) around the given [`AsyncStrategy`], wrapped in the
    /// legacy [`AsyncEngine`] facade.
    ///
    /// # Errors
    ///
    /// See [`RuntimeBuilder::build_async_runtime`].
    pub fn build_async(self, strategy: Box<dyn AsyncStrategy>) -> Result<AsyncEngine, BuildError> {
        self.build_async_runtime(Box::new(StrategyAsyncPolicy::new(strategy)))
            .map(AsyncEngine::from_runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r#async::strategies::FedAsync;
    use crate::submodel::{CapacityTier, StaticCapacity};
    use crate::sync::strategies::FedAvg;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_nn::models::ModelSpec;

    fn builder() -> RuntimeBuilder {
        let data = SyntheticSpec::mnist_like(4, 40).generate(0);
        let cfg = FlConfig::builder()
            .clients(2)
            .rounds(1)
            .model(ModelSpec::LogisticRegression {
                in_features: 16,
                classes: 10,
            })
            .build();
        RuntimeBuilder::new(cfg, data)
    }

    #[test]
    fn async_build_rejects_robust_with_named_error() {
        let err = builder()
            .robust(Some(RobustMethod::Median))
            .update_budget(10)
            .build_async(Box::new(FedAsync::new(0.6, 0.5)))
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
            let builder = builder().robust(Some(method));
            let policies = builder.baseline_policies(Box::new(FedAvg::new()));
            let err = builder
                .try_build_sync_runtime(policies)
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
        let err = builder()
            .capacity(Some(Box::new(StaticCapacity::new(vec![
                CapacityTier::Full,
            ]))))
            .update_budget(10)
            .build_async(Box::new(FedAsync::new(0.6, 0.5)))
            .expect_err("capacity + async must be rejected");
        assert_eq!(err, BuildError::CapacityRequiresSync);
        let msg = err.to_string();
        assert!(
            msg.contains("capacity tiers") && msg.contains("async"),
            "error must name the unsupported combination: {msg}"
        );
    }
}
