//! Experiment configuration.

use adafl_nn::models::ModelSpec;

/// Configuration shared by the synchronous and asynchronous engines.
///
/// Use [`FlConfig::builder`] to construct; the builder validates ranges at
/// [`FlConfigBuilder::build`].
///
/// # Examples
///
/// ```
/// use adafl_fl::FlConfig;
/// use adafl_nn::models::ModelSpec;
///
/// let cfg = FlConfig::builder()
///     .clients(10)
///     .rounds(40)
///     .participation(0.5)
///     .model(ModelSpec::LogisticRegression { in_features: 64, classes: 10 })
///     .build();
/// assert_eq!(cfg.participants_per_round(), 5);
/// ```
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct FlConfig {
    /// Number of federated clients.
    pub clients: usize,
    /// Number of communication rounds (sync) or the round budget used to
    /// derive the time horizon (async).
    pub rounds: usize,
    /// Fraction of clients sampled per round in `(0, 1]` (the paper's
    /// `r_p`, 0.5 for all baselines).
    pub participation: f64,
    /// Local SGD steps per round.
    pub local_steps: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Client learning rate.
    pub learning_rate: f32,
    /// Client SGD momentum.
    pub momentum: f32,
    /// Model recipe shared by server and clients.
    pub model: ModelSpec,
    /// Master seed; all component seeds derive from it.
    pub seed: u64,
    /// Synchronous only: maximum time (seconds) the server waits for
    /// updates each round (the §III "maximum wait time"); updates arriving
    /// later are dropped. `None` waits for every participant.
    pub round_deadline: Option<f64>,
    /// Synchronous only: schedule each round's participants in cohorts of
    /// at most this many clients and, when the aggregation policy supports
    /// it, fold updates into a streaming accumulator instead of buffering
    /// the whole cohort (O(model) instead of O(clients × model) server
    /// memory). `None` keeps the classic single-cohort buffered round,
    /// byte-identical to before this field existed.
    #[serde(default)]
    pub cohort_size: Option<usize>,
    /// Number of edge aggregators in the hierarchical tier between
    /// clients and server (streaming rounds only; update `u` folds at
    /// edge `u.client % edge_aggregators`, and each active edge ships one
    /// dense partial to the server, charged as relay bytes). `0` means a
    /// flat client→server topology.
    #[serde(default)]
    pub edge_aggregators: usize,
}

impl FlConfig {
    /// Starts a builder with experiment defaults matching the paper's setup
    /// (10 clients, `r_p = 0.5`).
    pub fn builder() -> FlConfigBuilder {
        FlConfigBuilder::default()
    }

    /// Number of clients sampled each round: `participation · clients`
    /// rounded to the nearest integer (not up: 0.24 of 10 is 2), clamped to
    /// `[1, clients]`. Every golden trace pins the rounding.
    pub fn participants_per_round(&self) -> usize {
        ((self.participation * self.clients as f64).round() as usize).clamp(1, self.clients)
    }

    /// Deterministic sub-seed for a named component.
    pub fn seed_for(&self, component: &str) -> u64 {
        let mut h = self.seed ^ 0xCBF2_9CE4_8422_2325;
        for b in component.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        h
    }
}

/// Builder for [`FlConfig`].
#[derive(Debug, Clone)]
pub struct FlConfigBuilder {
    clients: usize,
    rounds: usize,
    participation: f64,
    local_steps: usize,
    batch_size: usize,
    learning_rate: f32,
    momentum: f32,
    model: Option<ModelSpec>,
    seed: u64,
    round_deadline: Option<f64>,
    cohort_size: Option<usize>,
    edge_aggregators: usize,
}

impl Default for FlConfigBuilder {
    fn default() -> Self {
        FlConfigBuilder {
            clients: 10,
            rounds: 40,
            participation: 0.5,
            local_steps: 5,
            batch_size: 32,
            learning_rate: 0.02,
            momentum: 0.9,
            model: None,
            seed: 42,
            round_deadline: None,
            cohort_size: None,
            edge_aggregators: 0,
        }
    }
}

impl FlConfigBuilder {
    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Sets the round count.
    pub fn rounds(mut self, n: usize) -> Self {
        self.rounds = n;
        self
    }

    /// Sets the per-round participation fraction `r_p`.
    pub fn participation(mut self, p: f64) -> Self {
        self.participation = p;
        self
    }

    /// Sets local steps per round.
    pub fn local_steps(mut self, n: usize) -> Self {
        self.local_steps = n;
        self
    }

    /// Sets the local mini-batch size.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Sets the client learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets client SGD momentum.
    pub fn momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }

    /// Sets the model recipe (required).
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.model = Some(spec);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps how long the server waits for each synchronous round; late
    /// updates are dropped (the paper's §III maximum-wait-time policy).
    pub fn round_deadline(mut self, seconds: f64) -> Self {
        self.round_deadline = Some(seconds);
        self
    }

    /// Schedules each synchronous round in cohorts of at most `n`
    /// clients, enabling the streaming fold path for aggregation policies
    /// that support it (see [`FlConfig::cohort_size`]).
    pub fn cohort_size(mut self, n: usize) -> Self {
        self.cohort_size = Some(n);
        self
    }

    /// Inserts `n` edge aggregators between clients and server for
    /// streaming rounds (see [`FlConfig::edge_aggregators`]).
    pub fn edge_aggregators(mut self, n: usize) -> Self {
        self.edge_aggregators = n;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Panics
    ///
    /// Panics when no model was set, any count is zero, `participation` is
    /// outside `(0, 1]`, or the learning rate is not positive.
    pub fn build(self) -> FlConfig {
        assert!(self.clients > 0, "client count must be positive");
        assert!(self.rounds > 0, "round count must be positive");
        assert!(
            self.participation > 0.0 && self.participation <= 1.0,
            "participation must be in (0, 1]"
        );
        assert!(self.local_steps > 0, "local steps must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning rate must be positive"
        );
        assert!(
            (0.0..1.0).contains(&self.momentum),
            "momentum must be in [0, 1)"
        );
        if let Some(d) = self.round_deadline {
            assert!(d > 0.0 && d.is_finite(), "round deadline must be positive");
        }
        if let Some(n) = self.cohort_size {
            assert!(n > 0, "cohort size must be positive");
        }
        assert!(
            self.edge_aggregators == 0 || self.cohort_size.is_some(),
            "edge aggregators require cohort scheduling (set cohort_size)"
        );
        assert!(
            self.edge_aggregators <= self.clients,
            "cannot have more edge aggregators than clients"
        );
        FlConfig {
            clients: self.clients,
            rounds: self.rounds,
            participation: self.participation,
            local_steps: self.local_steps,
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            momentum: self.momentum,
            model: self.model.expect("model spec is required"),
            seed: self.seed,
            round_deadline: self.round_deadline,
            cohort_size: self.cohort_size,
            edge_aggregators: self.edge_aggregators,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ModelSpec {
        ModelSpec::LogisticRegression {
            in_features: 4,
            classes: 2,
        }
    }

    #[test]
    fn builder_defaults_match_paper_setup() {
        let cfg = FlConfig::builder().model(spec()).build();
        assert_eq!(cfg.clients, 10);
        assert_eq!(cfg.participation, 0.5);
        assert_eq!(cfg.participants_per_round(), 5);
    }

    #[test]
    fn participants_round_and_clamp() {
        let cfg = FlConfig::builder()
            .clients(3)
            .participation(0.5)
            .model(spec())
            .build();
        assert_eq!(cfg.participants_per_round(), 2);
        // Nearest, not ceiling: 2.4 selects 2 where ⌈2.4⌉ would select 3.
        let nearest = FlConfig::builder()
            .clients(10)
            .participation(0.24)
            .model(spec())
            .build();
        assert_eq!(nearest.participants_per_round(), 2);
        let tiny = FlConfig::builder()
            .clients(10)
            .participation(0.01)
            .model(spec())
            .build();
        assert_eq!(tiny.participants_per_round(), 1);
        let all = FlConfig::builder()
            .clients(7)
            .participation(1.0)
            .model(spec())
            .build();
        assert_eq!(all.participants_per_round(), 7);
    }

    #[test]
    fn seed_for_is_stable_and_distinct() {
        let cfg = FlConfig::builder().model(spec()).build();
        assert_eq!(cfg.seed_for("data"), cfg.seed_for("data"));
        assert_ne!(cfg.seed_for("data"), cfg.seed_for("net"));
        let other = FlConfig::builder().seed(7).model(spec()).build();
        assert_ne!(cfg.seed_for("data"), other.seed_for("data"));
    }

    #[test]
    #[should_panic(expected = "model spec is required")]
    fn missing_model_panics() {
        FlConfig::builder().build();
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn invalid_participation_panics() {
        FlConfig::builder().participation(1.5).model(spec()).build();
    }

    #[test]
    fn round_deadline_is_optional_and_validated() {
        let cfg = FlConfig::builder().model(spec()).build();
        assert_eq!(cfg.round_deadline, None);
        let with = FlConfig::builder()
            .round_deadline(3.5)
            .model(spec())
            .build();
        assert_eq!(with.round_deadline, Some(3.5));
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn non_positive_deadline_panics() {
        FlConfig::builder()
            .round_deadline(0.0)
            .model(spec())
            .build();
    }

    #[test]
    fn cohort_fields_default_off_and_build() {
        let cfg = FlConfig::builder().model(spec()).build();
        assert_eq!(cfg.cohort_size, None);
        assert_eq!(cfg.edge_aggregators, 0);
        let scaled = FlConfig::builder()
            .clients(100)
            .cohort_size(16)
            .edge_aggregators(4)
            .model(spec())
            .build();
        assert_eq!(scaled.cohort_size, Some(16));
        assert_eq!(scaled.edge_aggregators, 4);
    }

    #[test]
    #[should_panic(expected = "cohort size")]
    fn zero_cohort_size_panics() {
        FlConfig::builder().cohort_size(0).model(spec()).build();
    }

    #[test]
    #[should_panic(expected = "edge aggregators require cohort")]
    fn edges_without_cohort_panics() {
        FlConfig::builder()
            .edge_aggregators(2)
            .model(spec())
            .build();
    }

    #[test]
    #[should_panic(expected = "more edge aggregators than clients")]
    fn too_many_edges_panics() {
        FlConfig::builder()
            .clients(2)
            .cohort_size(2)
            .edge_aggregators(3)
            .model(spec())
            .build();
    }

    #[test]
    fn cohort_fields_round_trip_json_and_absent_fields_default() {
        let cfg = FlConfig::builder()
            .clients(50)
            .cohort_size(8)
            .edge_aggregators(2)
            .model(spec())
            .build();
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: FlConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, cfg);
        // Configs written before the fields existed still load, with the
        // streaming path off.
        let legacy = r#"{
            "clients": 4, "rounds": 2, "participation": 0.5,
            "local_steps": 1, "batch_size": 8, "learning_rate": 0.02,
            "momentum": 0.9,
            "model": {"LogisticRegression": {"in_features": 4, "classes": 2}},
            "seed": 7, "round_deadline": null
        }"#;
        let old: FlConfig = serde_json::from_str(legacy).expect("legacy json loads");
        assert_eq!(old.cohort_size, None);
        assert_eq!(old.edge_aggregators, 0);
    }
}
