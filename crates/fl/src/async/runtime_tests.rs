//! Behaviour of the baseline asynchronous flavour, end to end on a built
//! [`AsyncRuntime`](crate::runtime::AsyncRuntime).

mod tests {
    use crate::compute::ComputeModel;
    use crate::config::FlConfig;
    use crate::r#async::strategies::{FedAsync, FedBuff};
    use crate::r#async::AsyncStrategy;
    use crate::runtime::{AsyncRuntime, RuntimeBuilder};
    use adafl_data::partition::Partitioner;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace};
    use adafl_nn::models::ModelSpec;

    fn config() -> FlConfig {
        FlConfig::builder()
            .clients(4)
            .rounds(10)
            .local_steps(3)
            .batch_size(16)
            .model(ModelSpec::LogisticRegression {
                in_features: 64,
                classes: 10,
            })
            .build()
    }

    fn builder(budget: u64) -> RuntimeBuilder {
        let data = SyntheticSpec::mnist_like(8, 400).generate(0);
        let (train, test) = data.split_at(320);
        RuntimeBuilder::new(config(), test)
            .partitioned(&train, Partitioner::Iid)
            .update_budget(budget)
    }

    fn engine(strategy: Box<dyn AsyncStrategy>, budget: u64) -> AsyncRuntime {
        builder(budget).build_async(strategy).unwrap()
    }

    #[test]
    fn fedasync_learns() {
        let mut e = engine(Box::new(FedAsync::new(0.6, 0.5)), 60);
        let history = e.run();
        assert!(!history.is_empty());
        assert!(
            history.final_accuracy() > 0.5,
            "fedasync stalled at {}",
            history.final_accuracy()
        );
        assert!(e.ledger().uplink_updates() >= 60);
    }

    #[test]
    fn fedbuff_learns_and_buffers() {
        let mut e = engine(Box::new(FedBuff::new(3, 1.0)), 60);
        let history = e.run();
        assert!(history.final_accuracy() > 0.5, "fedbuff stalled");
        // Buffered: global version changes once per 3 arrivals.
        assert_eq!(e.version(), 20);
    }

    #[test]
    fn run_is_reproducible() {
        let h1 = engine(Box::new(FedAsync::new(0.6, 0.5)), 30).run();
        let h2 = engine(Box::new(FedAsync::new(0.6, 0.5)), 30).run();
        assert_eq!(h1, h2);
    }

    #[test]
    fn sim_time_is_monotone_in_history() {
        let mut e = engine(Box::new(FedAsync::new(0.6, 0.5)), 40);
        let history = e.run();
        let times: Vec<f64> = history
            .records()
            .iter()
            .map(|r| r.sim_time.seconds())
            .collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn telemetry_observes_staleness_without_perturbing_results() {
        use adafl_telemetry::{names, InMemoryRecorder};

        let plain = engine(Box::new(FedAsync::new(0.6, 0.5)), 30).run();
        let rec = InMemoryRecorder::shared();
        let mut traced = builder(30)
            .recorder(rec.clone())
            .build_async(Box::new(FedAsync::new(0.6, 0.5)))
            .unwrap();
        assert_eq!(plain, traced.run());

        let t = rec.snapshot();
        assert_eq!(t.histograms[names::ASYNC_STALENESS].count(), 30);
        assert_eq!(t.events_of(names::EVENT_STALENESS).count(), 30);
        assert!(t.spans_of(names::SPAN_CLIENT_COMPUTE).count() >= 30);
        assert!(t.spans_of(names::SPAN_UPLINK).count() >= 30);
    }

    #[test]
    fn slow_clients_are_staler() {
        // Make client 0 very slow; its updates should carry staleness yet
        // the run must still complete the budget.
        let data = SyntheticSpec::mnist_like(8, 400).generate(0);
        let (train, test) = data.split_at(320);
        let cfg = config();
        let shards = Partitioner::Iid.split(&train, cfg.clients, cfg.seed_for("partition"));
        let network = ClientNetwork::new(
            vec![LinkTrace::constant(LinkProfile::Broadband.spec()); cfg.clients],
            0,
        );
        let compute = ComputeModel::heterogeneous(vec![3.0, 0.1, 0.1, 0.1]);
        let mut e = RuntimeBuilder::new(cfg, test)
            .shards(shards)
            .network(network)
            .compute(compute)
            .update_budget(40)
            .build_async(Box::new(FedAsync::new(0.6, 0.5)))
            .unwrap();
        let history = e.run();
        // Sends are ledgered at transmit time, so in-flight updates beyond
        // the arrival budget are included.
        assert!(e.ledger().uplink_updates() >= 40);
        assert!(history.final_accuracy() > 0.4);
        // The slow client contributed far fewer updates.
        assert!(e.ledger().client_uplink_updates(0) < e.ledger().client_uplink_updates(1));
    }
}
