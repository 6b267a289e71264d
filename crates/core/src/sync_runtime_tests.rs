//! Behaviour of the synchronous AdaFL flavour, end to end on a built
//! [`SyncRuntime`](adafl_fl::runtime::SyncRuntime).

mod tests {
    use crate::{AdaFlBuild, AdaFlConfig};
    use adafl_compression::dense_wire_size;
    use adafl_data::partition::Partitioner;
    use adafl_data::synthetic::SyntheticSpec;
    use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
    use adafl_fl::FlConfig;
    use adafl_nn::models::ModelSpec;

    fn fl_config(rounds: usize) -> FlConfig {
        FlConfig::builder()
            .clients(6)
            .rounds(rounds)
            .local_steps(3)
            .batch_size(16)
            .model(ModelSpec::LogisticRegression {
                in_features: 64,
                classes: 10,
            })
            .build()
    }

    fn builder(rounds: usize) -> RuntimeBuilder {
        let data = SyntheticSpec::mnist_like(8, 600).generate(0);
        let (train, test) = data.split_at(480);
        RuntimeBuilder::new(fl_config(rounds), test).partitioned(&train, Partitioner::Iid)
    }

    fn ada() -> AdaFlConfig {
        AdaFlConfig {
            max_selected: 3,
            warmup_rounds: 2,
            ..AdaFlConfig::default()
        }
    }

    fn engine(rounds: usize) -> SyncRuntime {
        builder(rounds).build_adafl_sync(&ada())
    }

    #[test]
    fn adafl_learns() {
        let mut e = engine(40);
        let history = e.run();
        assert!(
            history.final_accuracy() > 0.6,
            "adafl stalled at {}",
            history.final_accuracy()
        );
    }

    #[test]
    fn warmup_includes_everyone_then_selection_caps_cohort() {
        let mut e = engine(6);
        let history = e.run();
        let contributors: Vec<usize> = history.records().iter().map(|r| r.contributors).collect();
        // Warm-up rounds: all 6 clients (lossless links).
        assert_eq!(contributors[0], 6);
        assert_eq!(contributors[1], 6);
        // Post warm-up: at most max_selected.
        for &c in &contributors[2..] {
            assert!(c <= 3, "cohort {c} exceeds k");
        }
    }

    #[test]
    fn compressed_uplink_is_far_smaller_than_dense() {
        let mut e = engine(8);
        e.run();
        let dense = dense_wire_size(e.global_params().len()) as f64;
        // Mean uplink payload includes tiny score reports, so it must sit
        // well below one dense model.
        assert!(
            e.ledger().mean_uplink_payload() < dense * 0.6,
            "mean payload {} vs dense {}",
            e.ledger().mean_uplink_payload(),
            dense
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let h1 = engine(5).run();
        let h2 = engine(5).run();
        assert_eq!(h1, h2);
    }

    #[test]
    fn telemetry_observes_selection_without_perturbing_results() {
        use adafl_telemetry::{names, InMemoryRecorder};

        let plain = engine(5).run();
        let rec = InMemoryRecorder::shared();
        let mut traced = builder(5).recorder(rec.clone()).build_adafl_sync(&ada());
        assert_eq!(plain, traced.run());

        let t = rec.snapshot();
        assert_eq!(t.spans_of(names::SPAN_ROUND).count(), 5);
        // 3 post-warm-up rounds × 6 scored clients.
        assert_eq!(t.histograms[names::ADAFL_UTILITY].count(), 18);
        assert_eq!(t.events_of(names::EVENT_SELECTION).count(), 3);
        assert!(t.gauges[names::ADAFL_SELECTED] <= 3.0);
        assert!(t.histograms[names::ADAFL_ASSIGNED_RATIO].count() > 0);
        // DGC wire bytes must undercut the raw bytes overall.
        assert!(t.counters["compression.bytes_post.dgc"] < t.counters["compression.bytes_pre.dgc"]);
    }

    #[test]
    fn global_gradient_updates_after_rounds() {
        let mut e = engine(3);
        e.run();
        assert!(e.global_gradient().iter().any(|&g| g != 0.0));
    }
}
