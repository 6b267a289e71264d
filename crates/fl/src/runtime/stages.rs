//! The server's stage chain, owned once and driven by both runtimes.
//!
//! Between an update's arrival and the global model moving, the server
//! may scrub and norm-screen it ([`DefenseGate`]), feed its alignment
//! back to the capacity policy, replace the cohort by a robust estimate
//! ([`RobustAggregator`]) and aggregate — through the aggregation policy,
//! or by the coverage-weighted fold when clients train sub-views.
//! [`ServerStages`] is the only place that knows this chain and its
//! order: the synchronous driver hands it each round's buffered cohort
//! ([`ServerStages::run_cohort`]), the asynchronous one each arrival
//! ([`ServerStages::screen_arrival`]), and the sink asks it whether a
//! cohort has to be buffered at all ([`ServerStages::needs_cohort`]).

use super::core::ServerCore;
use super::emit::{self, At};
use super::payload::{RoundUpdate, UpdatePayload};
use super::policy::AggregationPolicy;
use crate::defense::{DefenseConfig, DefenseGate, RejectReason, Sanitized};
use crate::pool::WorkerPool;
use crate::robust::RobustAggregator;
use crate::submodel::{coverage_weighted_fold, CapacityPolicy};
use adafl_compression::ViewDescriptor;
use adafl_netsim::SimTime;
use adafl_nn::{ParamSegmentMap, SubView};
use adafl_telemetry::{names, EventRecord, SharedRecorder, SpanRecord};
use adafl_tensor::vecops;

/// Server-side state for heterogeneous-capacity (sub-view) rounds: the
/// tier-assignment policy plus the global model's parameter segment map
/// from which each round's [`SubView`]s are cut.
#[derive(Debug)]
struct CapacityState {
    policy: Box<dyn CapacityPolicy>,
    map: ParamSegmentMap,
}

/// One round's delivered updates on their way through
/// [`ServerStages::run_cohort`].
#[derive(Debug)]
pub(super) struct Cohort {
    pub round: usize,
    /// The server clock when the round closed; every stage event carries
    /// it.
    pub closed_at: SimTime,
    /// How many clients the round selected, for the quorum.
    pub expected: usize,
    pub updates: Vec<RoundUpdate>,
}

/// The defense gate, the robust estimator and the capacity policy (see
/// the module docs); each is optional and absent by default.
#[derive(Debug)]
pub(super) struct ServerStages {
    defense: Option<DefenseGate>,
    robust: Option<RobustAggregator>,
    capacity: Option<CapacityState>,
}

impl ServerStages {
    /// Assembles the chain for `core`'s model.
    ///
    /// # Panics
    ///
    /// Panics when the defense configuration is invalid
    /// (see [`DefenseConfig::validate`]).
    pub fn new(
        core: &ServerCore,
        defense: Option<DefenseConfig>,
        robust: Option<RobustAggregator>,
        capacity: Option<Box<dyn CapacityPolicy>>,
    ) -> Self {
        ServerStages {
            defense: defense.map(DefenseGate::new),
            robust,
            capacity: capacity.map(|policy| CapacityState {
                policy,
                map: core.global_model.segment_map(),
            }),
        }
    }

    /// Whether any stage needs the round's whole cohort side by side: the
    /// gate screens norms against one batch median, a robust estimator
    /// out-votes across the cohort, and the coverage fold needs every
    /// client's view. A round streams only when this is `false`.
    pub fn needs_cohort(&self) -> bool {
        self.defense.is_some() || self.robust.is_some() || self.capacity.is_some()
    }

    /// Capacity mode: assigns each participant a tier and cuts its
    /// parameter sub-view, indexed by cohort rank. `None` without a
    /// capacity policy.
    pub fn assign_views(
        &mut self,
        round: usize,
        participants: &[usize],
    ) -> Option<Vec<(SubView, ViewDescriptor)>> {
        let cap = self.capacity.as_mut()?;
        let views = participants.iter().map(|&c| {
            let tier = cap.policy.assign(round as u64, c);
            let view = tier.view(&cap.map, round as u64);
            let desc = ViewDescriptor::new(view.dense_len(), view.segments().to_vec());
            (view, desc)
        });
        Some(views.collect())
    }

    /// The gate's verdict on one asynchronous arrival: scrub, then screen
    /// its norm against the running history. A rejected update never
    /// reaches the policy; its reject telemetry is emitted here. Always
    /// `true` without a gate.
    pub fn screen_arrival(
        &mut self,
        recorder: &SharedRecorder,
        at: At,
        payload: &mut UpdatePayload,
    ) -> bool {
        let Some(gate) = self.defense.as_mut() else {
            return true;
        };
        let verdict = gate.sanitize(payload.values_mut()).and_then(|s| {
            emit::scrubbed(recorder, s.scrubbed);
            if gate.admit(s.norm) {
                Ok(())
            } else {
                Err(RejectReason::NormOutlier)
            }
        });
        if let Err(reason) = verdict {
            emit::defense_reject(recorder, at, reason.label());
        }
        verdict.is_ok()
    }

    /// Runs a buffered cohort through the chain: defense screen → capacity
    /// feedback → robust pre-aggregation → the aggregation policy (or, in
    /// capacity mode, the coverage-weighted fold). Returns how many
    /// updates survived screening.
    pub fn run_cohort(
        &mut self,
        core: &mut ServerCore,
        pool: &WorkerPool,
        aggregation: &mut dyn AggregationPolicy,
        cohort: Cohort,
    ) -> usize {
        let (round, now) = (cohort.round, cohort.closed_at.seconds());
        let updates = self.screen_cohort(&core.recorder, pool, cohort);
        let delivered = updates.len();
        // Capacity feedback: score each surviving update's alignment with
        // the previous round's aggregate direction (ĝ) so adaptive
        // policies can promote well-aligned clients and demote noisy ones.
        if let Some(cap) = self.capacity.as_mut() {
            let mut dense = vec![0.0f32; core.global.len()];
            for u in &updates {
                dense.fill(0.0);
                u.payload.add_scaled_into(&mut dense, 1.0);
                let score = vecops::cosine_similarity(&dense, &core.global_gradient);
                cap.policy.observe(round as u64, u.client, score);
            }
        }
        let updates = self.robust_stage(core, pool, round, now, updates);
        if updates.is_empty() {
            return delivered;
        }
        if self.capacity.is_none() {
            aggregation.aggregate(&mut core.global, &mut core.global_gradient, updates);
        } else if let Some(mean) = coverage_weighted_fold(core.global.len(), &updates) {
            // Coverage-weighted fold: each coordinate is averaged over the
            // clients whose views cover it; with all full-width clients
            // this is bitwise FedAvg. The fold doubles as the `ĝ` digest
            // read back by `observe`.
            vecops::axpy(&mut core.global, 1.0, &mean);
            core.global_gradient.copy_from_slice(&mean);
        }
        delivered
    }

    /// Defensive aggregation gate: scrubs, norm-screens and quorum-checks
    /// the round's delivered updates. Identity when no defense is set; an
    /// empty result means the round is skipped.
    fn screen_cohort(
        &mut self,
        recorder: &SharedRecorder,
        pool: &WorkerPool,
        cohort: Cohort,
    ) -> Vec<RoundUpdate> {
        let Cohort {
            round,
            closed_at,
            expected,
            mut updates,
        } = cohort;
        let Some(gate) = self.defense.as_mut() else {
            return updates;
        };
        let now = closed_at.seconds();
        let at = |client: usize| At {
            round: Some(round),
            client,
            seconds: now,
        };
        // Scrub + norm-screen in parallel: `sanitize` takes `&self` and
        // touches only its own update's values, and `scope_run` collects in
        // submission order, so the verdicts are identical at any pool
        // width. Telemetry is replayed sequentially below, in the original
        // update order.
        let screened: Vec<Result<Sanitized, RejectReason>> = {
            let gate = &*gate;
            let jobs: Vec<Box<dyn FnOnce() -> Result<Sanitized, RejectReason> + Send + '_>> =
                updates
                    .iter_mut()
                    .map(|u| {
                        // The screens run over the transmitted values; the
                        // L2 norm of a sparse update equals the norm of its
                        // dense form.
                        Box::new(move || gate.sanitize(u.payload.values_mut())) as Box<_>
                    })
                    .collect();
            pool.scope_run(jobs)
        };
        let mut kept: Vec<RoundUpdate> = Vec::with_capacity(updates.len());
        let mut norms: Vec<f64> = Vec::with_capacity(updates.len());
        for (u, screened) in updates.drain(..).zip(screened) {
            match screened {
                Ok(s) => {
                    emit::scrubbed(recorder, s.scrubbed);
                    norms.push(s.norm);
                    kept.push(u);
                }
                Err(reason) => emit::defense_reject(recorder, at(u.client), reason.label()),
            }
        }
        let verdicts = gate.admit_batch(&norms);
        let mut out: Vec<RoundUpdate> = Vec::with_capacity(kept.len());
        for (u, ok) in kept.into_iter().zip(verdicts) {
            if ok {
                out.push(u);
            } else {
                emit::defense_reject(recorder, at(u.client), RejectReason::NormOutlier.label());
            }
        }
        if !gate.quorum_met(out.len(), expected) {
            if recorder.enabled() {
                recorder.counter_add(names::FL_QUORUM_SKIPS, 1);
                recorder.event(
                    EventRecord::new(names::EVENT_QUORUM_SKIP, now)
                        .round(round)
                        .field("accepted", out.len())
                        .field("expected", expected),
                );
            }
            return Vec::new();
        }
        out
    }

    /// Byzantine-robust pre-aggregation: replaces the screened cohort with
    /// the robust estimate (see [`crate::robust`]) before the aggregation
    /// policy sees it, fanning the densify and distance-matrix work across
    /// the worker pool. Identity when no robust method is set.
    fn robust_stage(
        &self,
        core: &ServerCore,
        pool: &WorkerPool,
        round: usize,
        now: f64,
        updates: Vec<RoundUpdate>,
    ) -> Vec<RoundUpdate> {
        let Some(robust) = self.robust.as_ref() else {
            return updates;
        };
        if updates.len() < 2 {
            return updates;
        }
        let recorder = &core.recorder;
        let wall_start = recorder.wall_micros();
        let (out, stats) = robust.pre_aggregate_with(core.global.len(), updates, Some(pool));
        if recorder.enabled() {
            if stats.rejected > 0 {
                recorder.counter_add(names::FL_ROBUST_REJECTED, stats.rejected as u64);
            }
            if stats.trimmed_values > 0 {
                recorder.counter_add(names::FL_ROBUST_TRIMMED, stats.trimmed_values);
            }
            // The estimator runs at the server between arrival and
            // aggregation: zero simulated width, real wall cost.
            recorder.span(
                SpanRecord::new(names::SPAN_ROBUST, now, now)
                    .round(round)
                    .wall(recorder.wall_micros().saturating_sub(wall_start))
                    .field("method", robust.method().as_str())
                    .field("input", stats.input)
                    .field("output", stats.output),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::robust::{coordinate_median_with, RobustMethod};
    use crate::runtime::builder::Scenario;
    use crate::submodel::CapacityTier;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_nn::models::ModelSpec;
    use std::sync::{Arc, Mutex};

    /// Logs every `observe` call.
    #[derive(Debug)]
    struct Recording(Arc<Mutex<Vec<(u64, usize, f32)>>>);

    impl CapacityPolicy for Recording {
        fn assign(&mut self, _round: u64, _client: usize) -> CapacityTier {
            CapacityTier::Full
        }
        fn observe(&mut self, round: u64, client: usize, score: f32) {
            self.0.lock().unwrap().push((round, client, score));
        }
    }

    #[derive(Debug)]
    struct NeverAggregates;

    impl AggregationPolicy for NeverAggregates {
        fn label(&self) -> &str {
            "never"
        }
        fn aggregate(&mut self, _: &mut [f32], _: &mut Vec<f32>, _: Vec<RoundUpdate>) {
            unreachable!("capacity mode aggregates by the coverage fold");
        }
    }

    /// The order `run_cohort` owns: the gate screens, the capacity policy
    /// hears about exactly the survivors — scored against the ĝ of the
    /// round before — and only then does the robust estimate replace them.
    #[test]
    fn capacity_feedback_sees_the_screened_cohort_before_the_robust_stage() {
        let model = ModelSpec::LogisticRegression {
            in_features: 16,
            classes: 10,
        };
        let scenario = Scenario {
            fl: FlConfig::builder().clients(5).model(model).build(),
            test_set: SyntheticSpec::mnist_like(4, 8).generate(0),
            network: None,
            compute: None,
            faults: None,
        };
        let mut core = ServerCore::new(scenario, None, None);
        let dim = core.global.len();
        let previous: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        core.global_gradient.copy_from_slice(&previous);
        let before = core.global.clone();

        // Three honest updates, one half-NaN and one norm outlier.
        let honest = |c: usize| (0..dim).map(move |i| 0.1 * ((i + 3 * c) as f32 * 0.11).cos());
        let mut deltas: Vec<Vec<f32>> = (0..4).map(|c| honest(c).collect()).collect();
        deltas[3][..dim / 2].fill(f32::NAN);
        deltas.push(honest(4).map(|v| v * 1e4).collect());
        let updates = deltas
            .iter()
            .enumerate()
            .map(|(client, delta)| RoundUpdate {
                client,
                payload: UpdatePayload::dense(delta.clone()),
                weight: 8.0,
            });

        let log = Arc::new(Mutex::new(Vec::new()));
        let mut stages = ServerStages::new(
            &core,
            Some(DefenseConfig::default()),
            Some(RobustAggregator::new(RobustMethod::Median)),
            Some(Box::new(Recording(Arc::clone(&log)))),
        );
        let cohort = Cohort {
            round: 7,
            closed_at: SimTime::from_seconds(2.0),
            expected: 5,
            updates: updates.collect(),
        };
        let pool = WorkerPool::new(1);
        assert_eq!(
            stages.run_cohort(&mut core, &pool, &mut NeverAggregates, cohort),
            3
        );

        let scored = |c: usize| (7, c, vecops::cosine_similarity(&deltas[c], &previous));
        assert_eq!(*log.lock().unwrap(), [scored(0), scored(1), scored(2)]);
        // The robust stage then replaced the three survivors by their
        // median, which the coverage fold applied and kept as the new ĝ.
        let survivors: Vec<&[f32]> = deltas[..3].iter().map(Vec::as_slice).collect();
        let median = coordinate_median_with(&survivors, None);
        assert_eq!(core.global_gradient, median);
        let moved: Vec<f32> = before.iter().zip(&median).map(|(g, m)| g + m).collect();
        assert_eq!(core.global, moved);
    }
}
