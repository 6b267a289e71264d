//! Behaviour of the baseline synchronous flavour, end to end on a built
//! [`SyncRuntime`](crate::runtime::SyncRuntime).

mod tests {
    use crate::compute::ComputeModel;
    use crate::config::FlConfig;
    use crate::faults::FaultPlan;
    use crate::runtime::{RuntimeBuilder, SyncPolicies, SyncRuntime};
    use crate::sync::strategies::FedAvg;
    use crate::sync::StaticCompression;
    use adafl_data::partition::Partitioner;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, SimTime};
    use adafl_nn::models::ModelSpec;
    use adafl_telemetry::names;

    fn small_config(rounds: usize) -> FlConfig {
        FlConfig::builder()
            .clients(4)
            .rounds(rounds)
            .participation(1.0)
            .local_steps(3)
            .batch_size(16)
            .model(ModelSpec::LogisticRegression {
                in_features: 64,
                classes: 10,
            })
            .build()
    }

    fn builder(rounds: usize) -> RuntimeBuilder {
        let data = SyntheticSpec::mnist_like(8, 400).generate(0);
        let (train, test) = data.split_at(320);
        RuntimeBuilder::new(small_config(rounds), test).partitioned(&train, Partitioner::Iid)
    }

    fn engine(rounds: usize) -> SyncRuntime {
        builder(rounds).build_sync(Box::new(FedAvg::new()))
    }

    fn compressed(rounds: usize, scheme: StaticCompression) -> SyncRuntime {
        let b = builder(rounds);
        let policies = SyncPolicies::baseline(b.fl(), Box::new(FedAvg::new()), scheme);
        b.build_sync_runtime(policies)
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let mut e = engine(15);
        let history = e.run();
        assert_eq!(history.len(), 15);
        let first = history.records()[0].accuracy;
        let last = history.final_accuracy();
        assert!(last > first + 0.2, "no learning: {first} → {last}");
    }

    #[test]
    fn ledger_counts_round_trips() {
        let mut e = engine(2);
        e.run();
        // 4 clients × 2 rounds, full participation, lossless broadband.
        assert_eq!(e.ledger().uplink_updates(), 8);
        assert_eq!(e.ledger().downlink_updates(), 8);
        assert!(e.ledger().uplink_bytes() > 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e = engine(3);
        let mut last = SimTime::ZERO;
        let history = e.run();
        for r in history.records() {
            assert!(r.sim_time >= last);
            last = r.sim_time;
        }
        assert!(last.seconds() > 0.0);
    }

    #[test]
    fn runs_are_reproducible() {
        let h1 = engine(5).run();
        let h2 = engine(5).run();
        assert_eq!(h1, h2);
    }

    #[test]
    fn parallel_and_sequential_training_agree_bitwise() {
        let mut par = builder(5)
            .threads(Some(4))
            .build_sync(Box::new(FedAvg::new()));
        let mut seq = builder(5)
            .threads(Some(1))
            .build_sync(Box::new(FedAvg::new()));
        assert_eq!(par.run(), seq.run());
        assert_eq!(par.global_params(), seq.global_params());
    }

    #[test]
    fn static_compression_cuts_uplink_but_still_learns() {
        let mut dense = engine(12);
        let dense_history = dense.run();
        let mut compressed = compressed(12, StaticCompression::TopK { ratio: 16.0 });
        let comp_history = compressed.run();
        assert!(
            compressed.ledger().uplink_bytes() < dense.ledger().uplink_bytes() / 4,
            "top-k did not cut bytes: {} vs {}",
            compressed.ledger().uplink_bytes(),
            dense.ledger().uplink_bytes()
        );
        assert!(
            comp_history.final_accuracy() > dense_history.final_accuracy() - 0.25,
            "compression destroyed learning: {} vs {}",
            comp_history.final_accuracy(),
            dense_history.final_accuracy()
        );
    }

    #[test]
    fn quantized_baselines_run() {
        for scheme in [
            StaticCompression::Qsgd { levels: 8 },
            StaticCompression::TernGrad,
        ] {
            let mut e = compressed(6, scheme);
            let history = e.run();
            assert!(
                history.final_accuracy() > 0.3,
                "{scheme:?} failed to learn: {}",
                history.final_accuracy()
            );
        }
    }

    #[test]
    fn round_deadline_drops_slow_participants() {
        let data = SyntheticSpec::mnist_like(8, 400).generate(0);
        let (train, test) = data.split_at(320);
        let base = small_config(4);
        let mut cfg = base.clone();
        cfg.round_deadline = Some(1.0);
        let shards = Partitioner::Iid.split(&train, cfg.clients, cfg.seed_for("partition"));
        let network = ClientNetwork::new(
            vec![LinkTrace::constant(LinkProfile::Broadband.spec()); cfg.clients],
            0,
        );
        // Client 0 takes ~3 s to train — past the 1 s deadline.
        let compute = ComputeModel::heterogeneous(vec![1.0, 0.01, 0.01, 0.01]);
        let mut e = RuntimeBuilder::new(cfg, test)
            .shards(shards)
            .network(network)
            .compute(compute)
            .build_sync(Box::new(FedAvg::new()));
        let history = e.run();
        // Every round: 4 uplinks transmitted, 3 accepted.
        assert!(history.records().iter().all(|r| r.contributors == 3));
        assert_eq!(e.ledger().uplink_updates(), 16);
        // The clock advances by exactly the deadline each round.
        assert!((e.clock().seconds() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_observes_rounds_without_perturbing_results() {
        use adafl_telemetry::InMemoryRecorder;

        let mut plain = engine(3);
        let plain_history = plain.run();
        let rec = InMemoryRecorder::shared();
        let mut traced = builder(3)
            .recorder(rec.clone())
            .build_sync(Box::new(FedAvg::new()));
        let traced_history = traced.run();

        // The determinism invariant: recording never changes the run.
        assert_eq!(plain_history, traced_history);
        assert_eq!(plain.global_params(), traced.global_params());

        let t = rec.snapshot();
        assert_eq!(t.spans_of(names::SPAN_ROUND).count(), 3);
        // 4 clients, full participation, lossless broadband: every round
        // has a compute, uplink and downlink span per client.
        assert_eq!(t.spans_of(names::SPAN_CLIENT_COMPUTE).count(), 12);
        assert_eq!(t.spans_of(names::SPAN_UPLINK).count(), 12);
        assert_eq!(t.spans_of(names::SPAN_DOWNLINK).count(), 12);
        assert_eq!(t.histograms[names::ROUND_SIM_SECONDS].count(), 3);
        // Identity compression: wire bytes equal raw bytes.
        assert_eq!(
            t.counters["compression.bytes_post.none"],
            t.counters["compression.bytes_pre.none"]
        );
    }

    #[test]
    fn dropout_faults_reduce_update_count() {
        let data = SyntheticSpec::mnist_like(8, 400).generate(0);
        let (train, test) = data.split_at(320);
        let cfg = small_config(4);
        let shards = Partitioner::Iid.split(&train, cfg.clients, cfg.seed_for("partition"));
        let network = ClientNetwork::new(
            vec![LinkTrace::constant(LinkProfile::Broadband.spec()); cfg.clients],
            0,
        );
        let compute = ComputeModel::uniform(cfg.clients, 0.1);
        let faults = FaultPlan::with_fraction(
            cfg.clients,
            0.5,
            crate::faults::FaultKind::Dropout { period: 2 },
            0,
        );
        let mut e = RuntimeBuilder::new(cfg, test)
            .shards(shards)
            .network(network)
            .compute(compute)
            .faults(faults)
            .build_sync(Box::new(FedAvg::new()));
        e.run();
        // 4 clients × 4 rounds = 16 ideal; 2 dropout clients deliver in only
        // 2 of 4 rounds → 12 expected.
        assert_eq!(e.ledger().uplink_updates(), 12);
    }
}
