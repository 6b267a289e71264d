//! Behaviour of the fully-asynchronous AdaFL flavour, end to end on a
//! built [`AsyncRuntime`](adafl_fl::runtime::AsyncRuntime).

mod tests {
    use crate::{AdaFlBuild, AdaFlConfig};
    use adafl_compression::dense_wire_size;
    use adafl_data::partition::Partitioner;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_fl::runtime::{AsyncRuntime, RuntimeBuilder};
    use adafl_fl::FlConfig;
    use adafl_nn::models::ModelSpec;

    fn fl_config() -> FlConfig {
        FlConfig::builder()
            .clients(5)
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
        let data = SyntheticSpec::mnist_like(8, 500).generate(0);
        let (train, test) = data.split_at(400);
        RuntimeBuilder::new(fl_config(), test)
            .partitioned(&train, Partitioner::Iid)
            .update_budget(budget)
    }

    fn ada() -> AdaFlConfig {
        AdaFlConfig {
            warmup_rounds: 2,
            ..AdaFlConfig::default()
        }
    }

    fn engine(budget: u64) -> AsyncRuntime {
        builder(budget).build_adafl_async(&ada())
    }

    #[test]
    fn adafl_async_learns() {
        let mut e = engine(100);
        let history = e.run();
        assert!(
            history.final_accuracy() > 0.55,
            "adafl async stalled at {}",
            history.final_accuracy()
        );
        assert!(e.version() > 0);
    }

    #[test]
    fn uplink_payloads_are_compressed() {
        let mut e = engine(40);
        e.run();
        let dense = dense_wire_size(e.global_params().len()) as f64;
        assert!(
            e.ledger().mean_uplink_payload() < dense,
            "no compression: {} vs {}",
            e.ledger().mean_uplink_payload(),
            dense
        );
    }

    #[test]
    fn run_is_reproducible() {
        let h1 = engine(30).run();
        let h2 = engine(30).run();
        assert_eq!(h1, h2);
    }

    #[test]
    fn telemetry_observes_scores_without_perturbing_results() {
        use adafl_telemetry::{names, InMemoryRecorder};

        let plain = engine(30).run();
        let rec = InMemoryRecorder::shared();
        let mut traced = builder(30).recorder(rec.clone()).build_adafl_async(&ada());
        assert_eq!(plain, traced.run());

        let t = rec.snapshot();
        assert!(t.histograms[names::ADAFL_UTILITY].count() >= 30);
        assert!(t.histograms[names::ADAFL_ASSIGNED_RATIO].count() >= 30);
        assert_eq!(t.histograms[names::ASYNC_STALENESS].count(), 30);
        assert!(t.counters["compression.bytes_post.dgc"] > 0);
    }

    #[test]
    fn history_time_is_monotone() {
        let mut e = engine(40);
        let history = e.run();
        let times: Vec<f64> = history
            .records()
            .iter()
            .map(|r| r.sim_time.seconds())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
