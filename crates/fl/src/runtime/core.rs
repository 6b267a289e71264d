//! The server state both runtimes own, assembled once.
//!
//! A [`ServerCore`] is the part of a server that does not depend on the
//! schedule driving it: the global model and its `ĝ` digest, the test
//! set, the communication plane, the compute and fault models and the
//! recorder. It knows how a server is built from a [`Scenario`] and what a
//! history row is; the synchronous and asynchronous drivers add only their
//! schedule on top.

use super::builder::Scenario;
use super::io::RoundIo;
use crate::client::{Evaluator, Trainer};
use crate::compute::ComputeModel;
use crate::config::FlConfig;
use crate::faults::FaultPlan;
use crate::history::{RoundRecord, RunHistory};
use crate::pool::WorkerPool;
use adafl_data::Dataset;
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, ReliablePolicy, SimTime};
use adafl_telemetry::SharedRecorder;

/// Where [`ServerCore::evaluate_into`] runs its forward pass.
pub(super) enum EvalOn<'a> {
    /// Sharded across the pool: shard 0 on the global model, the others on
    /// replicas.
    Pool(&'a WorkerPool),
    /// One shard, inline, on a warm trainer's model and workspace.
    Trainer(&'a mut Trainer),
}

/// Schedule-independent server state (see the module docs).
#[derive(Debug)]
pub(super) struct ServerCore {
    pub config: FlConfig,
    pub global: Vec<f32>,
    pub global_model: adafl_nn::Model,
    /// Evaluation scratch and, once a pooled evaluation has run, the extra
    /// shards' model replicas.
    evaluator: Evaluator,
    /// The latest aggregated global delta (`ĝ`); stays zero unless the
    /// aggregation policy maintains it.
    pub global_gradient: Vec<f32>,
    pub test_set: Dataset,
    pub io: RoundIo,
    pub compute: ComputeModel,
    pub faults: FaultPlan,
    pub recorder: SharedRecorder,
}

impl ServerCore {
    /// Builds the server for a scenario: fills in the default network
    /// (homogeneous broadband), compute model (uniform 0.1 s/step) and
    /// fault plan (fault-free), folds stale clients' slowdowns into the
    /// compute model, builds the config's initial model with a zero `ĝ`,
    /// and wires the optional retry layer and recorder into the
    /// communication plane.
    ///
    /// # Panics
    ///
    /// Panics when a fleet-shaped part disagrees with `fl.clients`.
    pub fn new(
        scenario: Scenario,
        retry: Option<ReliablePolicy>,
        recorder: Option<SharedRecorder>,
    ) -> Self {
        let config = scenario.fl;
        let clients = config.clients;
        let network = scenario.network.unwrap_or_else(|| {
            let link = LinkTrace::constant(LinkProfile::Broadband.spec());
            ClientNetwork::new(vec![link; clients], config.seed_for("network")).into()
        });
        let mut compute = scenario
            .compute
            .unwrap_or_else(|| ComputeModel::uniform(clients, 0.1));
        let faults = scenario
            .faults
            .unwrap_or_else(|| FaultPlan::reliable(clients));
        assert_eq!(network.len(), clients, "network size mismatch");
        assert_eq!(compute.clients(), clients, "compute model size mismatch");
        assert_eq!(faults.clients(), clients, "fault plan size mismatch");
        for c in 0..clients {
            let slow = faults.slowdown(c);
            if slow > 1.0 {
                compute.scale_client(c, slow);
            }
        }
        let global_model = config.model.build(config.seed_for("model"));
        let global = global_model.params_flat();
        ServerCore {
            io: RoundIo::assemble(network, &config, retry, recorder.as_ref()),
            global_gradient: vec![0.0; global.len()],
            evaluator: Evaluator::default(),
            recorder: recorder.unwrap_or_else(adafl_telemetry::noop),
            test_set: scenario.test_set,
            config,
            global,
            global_model,
            compute,
            faults,
        }
    }

    /// Installs global parameters on both the flat copy and the model.
    ///
    /// # Panics
    ///
    /// Panics when `params.len()` differs from the model's parameter count.
    pub fn set_global_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.global.len(),
            "flat parameter length mismatch"
        );
        self.global.copy_from_slice(params);
        self.global_model.set_params_flat(params);
    }

    /// Evaluates the current global parameters on the test set and appends
    /// the history row for `round` (an arrival count for async runs),
    /// running the forward pass where `on` says; the row is bit-identical
    /// either way.
    pub fn evaluate_into(
        &mut self,
        history: &mut RunHistory,
        round: usize,
        sim_time: SimTime,
        contributors: usize,
        on: EvalOn<'_>,
    ) {
        let (accuracy, loss) = match on {
            EvalOn::Pool(pool) => {
                self.global_model.set_params_flat(&self.global);
                let fan_out = Some((pool, &self.config.model));
                self.evaluator
                    .evaluate(&mut self.global_model, &self.test_set, fan_out)
            }
            EvalOn::Trainer(trainer) => {
                trainer.evaluate(&mut self.evaluator, &self.global, &self.test_set)
            }
        };
        history.push(RoundRecord {
            round,
            sim_time,
            accuracy,
            loss,
            uplink_bytes: self.io.ledger().uplink_bytes(),
            uplink_updates: self.io.ledger().uplink_updates(),
            contributors,
        });
    }
}
