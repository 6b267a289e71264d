//! Checked-in experiment files must always expand and build against the
//! current schema — a config that silently rots defeats the purpose of
//! keeping it in version control.

use adafl_bench::config::{ExperimentConfig, Grid};
use adafl_bench::runner::Scenario;
use std::path::Path;

/// Expands `text` and builds every point's scenario.
fn build(text: &str, quick: bool) -> Result<(Grid, Vec<Scenario>), String> {
    let grid = ExperimentConfig::points(text, quick, &[])?;
    let scenarios = grid
        .points
        .iter()
        .map(|point| {
            point
                .config
                .scenario()
                .map_err(|e| format!("point {:?}: {e}", point.labels))
        })
        .collect::<Result<_, _>>()?;
    Ok((grid, scenarios))
}

/// The one scenario of a single-point file.
fn scenario(fields: &str) -> Scenario {
    let text = format!(
        r#"{{ "protocol": "sync", "strategy": "fedavg", "task": "mnist-logreg",
              "partition": "Iid", "train_samples": 200, "test_samples": 40 {fields} }}"#
    );
    let (_, mut scenarios) = build(&text, false).unwrap();
    scenarios.pop().expect("one point")
}

#[test]
fn every_checked_in_config_deserializes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("configs/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (grid, _) = build(&text, false)
            .unwrap_or_else(|e| panic!("{path:?} no longer matches the schema: {e}"));
        // A smoke size is part of the file: it must stay runnable too.
        if text.contains("\"quick\"") {
            let (quick, _) = build(&text, true)
                .unwrap_or_else(|e| panic!("{path:?} --quick no longer matches the schema: {e}"));
            assert_eq!(quick.axes, grid.axes, "{path:?}");
            assert!(quick.points.len() <= grid.points.len(), "{path:?}");
        }
        seen += 1;
    }
    assert!(seen >= 14, "expected the checked-in configs, found {seen}");
}

#[test]
fn schema_defaults_fill_missing_fields() {
    let minimal = r#"{
        "protocol": "sync",
        "strategy": "fedavg",
        "task": "mnist-logreg",
        "partition": "Iid"
    }"#;
    let grid = ExperimentConfig::points(minimal, false, &[]).unwrap();
    let cfg = &grid.points[0].config;
    assert_eq!(cfg.clients, 10);
    assert_eq!(cfg.rounds, 40);
    assert_eq!(cfg.seed, 42);
    assert_eq!(cfg.adafl, adafl_core::AdaFlConfig::default());
    assert!(cfg.learning_rate.is_none());
    assert_eq!(cfg.constrained_profile, "constrained");
    assert!(cfg.drop_prob.is_none());
    assert!(cfg.fault.is_none());
    assert!(cfg.robust.is_none());
    assert!(cfg.capacity.is_none());
    assert!(cfg.tiers.is_none());
    assert!(cfg.compression.is_none());
    assert_eq!(cfg.fault_fraction, 0.3);
}

#[test]
fn capacity_tier_names_round_trip_through_the_schema() {
    use adafl_fl::submodel::CapacityTier;
    let names = ["full", "half", "quarter", "width:0.75", "layers:2"];
    let built = scenario(&format!(r#", "capacity": "static", "tiers": {names:?}"#));
    let capacity = built.resilience.capacity.expect("capacity configured");
    assert!(!capacity.adaptive);
    assert_eq!(
        capacity.tiers,
        vec![
            CapacityTier::Full,
            CapacityTier::Width(0.5),
            CapacityTier::Width(0.25),
            CapacityTier::Width(0.75),
            CapacityTier::Layers(2),
        ]
    );
    // Canonical names survive a parse → canonical → parse cycle, so
    // re-serialized configs stay stable.
    for (tier, name) in capacity.tiers.iter().zip(names) {
        assert_eq!(CapacityTier::parse(&tier.canonical()).unwrap(), *tier);
        assert_eq!(tier.canonical(), name, "{name} is not canonical");
    }
    let default_ladder = scenario(r#", "capacity": "adaptive""#);
    let default_ladder = default_ladder.resilience.capacity.unwrap();
    assert!(default_ladder.adaptive);
    assert_eq!(default_ladder.tiers, capacity.tiers[..3]);
}

#[test]
fn attack_and_robust_names_round_trip_through_the_schema() {
    use adafl_fl::faults::FaultKind;
    use adafl_fl::robust::RobustMethod;
    let built =
        scenario(r#", "fault": "little-is-enough", "fault_fraction": 0.4, "robust": "multi-krum""#);
    let kind = FaultKind::LittleIsEnough { epsilon: 0.3 };
    assert_eq!(built.faults.affected_clients(), vec![0, 1, 2, 3]);
    assert_eq!(built.faults.attacks_update(3), Some(kind));
    assert_eq!(built.faults.attacks_update(4), None);
    assert_eq!(kind.as_str(), "little-is-enough");
    let method = built.resilience.robust.expect("robust configured");
    assert_eq!(method, RobustMethod::MultiKrum { f: 1, m: 3 });
    assert_eq!(method.as_str(), "multi-krum");

    // Any fault kind, not only the attacks.
    let stragglers = scenario(r#", "fault": "stale", "fault_fraction": 0.2"#);
    assert_eq!(stragglers.faults.affected_clients(), vec![0, 1]);
    assert_eq!(stragglers.faults.attacks_update(0), None);
}

#[test]
fn schema_accepts_full_adafl_override() {
    let ada = adafl_core::AdaFlConfig {
        similarity_weight: 0.9,
        max_selected: 4,
        max_ratio: 100.0,
        ..Default::default()
    };
    // Every field spelled out, as `AdaFlConfig` serializes.
    let full = format!(
        r#"{{ "protocol": "sync", "strategy": "adafl", "task": "mnist-cnn",
              "partition": {{ "Dirichlet": {{ "alpha": 0.5 }} }}, "adafl": {} }}"#,
        serde_json::to_string(&ada).unwrap()
    );
    let grid = ExperimentConfig::points(&full, false, &[]).unwrap();
    grid.points[0].config.adafl.validate();
    assert_eq!(grid.points[0].config.adafl, ada);
}
