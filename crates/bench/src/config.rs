//! JSON schema for config-driven experiments: one scenario per file, or —
//! with a `grid` — the cross product of its axes, each point one scenario.
//! The `run_config` binary's docs describe the file format (`grid`, `quick`,
//! `report`, `target`, `claims`, `--<field> <value>` overrides);
//! [`ExperimentConfig::points`] implements it, [`ExperimentConfig::scenario`]
//! builds what a point runs and [`Grid::verdicts`] holds the runs against the
//! file's claims.
//!
//! Checked-in experiments live under `configs/`; `tests/configs.rs` expands
//! each and builds every point's [`Scenario`].

use crate::fleet;
use crate::report::{Json, Row, Verdict};
use crate::runner::{Capacity, Resilience, Scenario, ASYNC_STRATEGIES, SYNC_STRATEGIES};
use crate::tasks::Task;
use adafl_core::AdaFlConfig;
use adafl_data::partition::Partitioner;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::submodel::CapacityTier;
use adafl_fl::sync::StaticCompression;
use adafl_fl::FlConfig;
use serde::{Deserialize, Serialize, Value};

/// JSON schema of one experiment.
#[derive(Debug, Clone, PartialEq, Deserialize, Serialize)]
pub struct ExperimentConfig {
    /// `"sync"` or `"async"`.
    pub protocol: String,
    /// Strategy name understood by the matching runner (e.g. `"adafl"`).
    pub strategy: String,
    /// Task name, see [`Task::named`].
    pub task: String,
    /// Training-set size.
    pub train_samples: usize,
    /// Held-out evaluation-set size.
    pub test_samples: usize,
    /// Fleet size.
    pub clients: usize,
    /// Synchronous round count.
    pub rounds: usize,
    /// Fraction of clients invited per round.
    pub participation: f64,
    /// Local SGD steps per client per round.
    pub local_steps: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Client learning rate; `null` keeps the builder default.
    pub learning_rate: Option<f32>,
    /// Client SGD momentum; `null` keeps the builder default.
    pub momentum: Option<f32>,
    /// Data distribution across clients.
    pub partition: Partitioner,
    /// Fraction of the fleet on constrained (LPWAN-class) links.
    pub constrained_fraction: f64,
    /// Link profile of the constrained slice, by name (`broadband`,
    /// `constrained`, `cellular`, `lossy`); parsed via
    /// [`LinkProfile::from_str`](adafl_netsim::LinkProfile).
    pub constrained_profile: String,
    /// Whole-transfer drop probability: when set, the constrained slice is
    /// steady broadband links that lose each transfer with this probability
    /// ([`fleet::lossy_network`], the dropout condition of Fig. 1(i–l))
    /// instead of [`constrained_profile`](Self::constrained_profile).
    pub drop_prob: Option<f64>,
    /// Fault injected at a prefix of the fleet, by name (`dropout`,
    /// `dataloss`, `stale`, `crash`, `corruption`, or an attack:
    /// `sign-flip`, `boost`, `little-is-enough`); parsed, with its default
    /// parameters, via [`FaultKind::from_str`](adafl_fl::faults::FaultKind).
    /// `null` keeps every client reliable.
    pub fault: Option<String>,
    /// Fraction of the fleet suffering [`fault`](Self::fault).
    pub fault_fraction: f64,
    /// Byzantine-robust pre-aggregator at the server, by name
    /// (`trimmed-mean`, `median`, `krum`, `multi-krum`,
    /// `geometric-median`); parsed via
    /// [`RobustMethod::from_str`](adafl_fl::robust::RobustMethod).
    /// `null` keeps plain aggregation. Sync protocols only.
    pub robust: Option<String>,
    /// Heterogeneous-capacity assignment mode: `"static"` (client-id
    /// round-robin over the tier ladder) or `"adaptive"` (utility-driven
    /// promotion/demotion via
    /// [`AdaptiveCapacity`](adafl_core::AdaptiveCapacity)). `null` keeps
    /// every client training the full model. Sync protocols only, and not
    /// combinable with the `adafl` strategy.
    pub capacity: Option<String>,
    /// Capacity tier ladder, widest first, parsed via
    /// [`CapacityTier::parse`](adafl_fl::submodel::CapacityTier); `null`
    /// with [`capacity`](Self::capacity) set uses
    /// `["full", "half", "quarter"]`.
    pub tiers: Option<Vec<String>>,
    /// Fixed uplink compression of a synchronous baseline: `"topk:<ratio>"`,
    /// `"qsgd:<levels>"` or `"terngrad"`. `null` sends dense updates. Not
    /// combinable with the `adafl` strategy.
    pub compression: Option<String>,
    /// Cohort size for fleet-scale scheduling: participants run through
    /// the round phases in contiguous chunks of this many clients, and
    /// eligible aggregation policies switch to the streaming fold (see
    /// `adafl_fl::runtime::SinkMode`). `null` keeps the classic
    /// whole-cohort pass. Sync protocols only.
    pub cohort_size: Option<usize>,
    /// Edge-aggregator count for hierarchical streaming aggregation; `0`
    /// keeps a flat client→server topology. Requires
    /// [`cohort_size`](Self::cohort_size).
    pub edge_aggregators: usize,
    /// Async protocols: total server-received updates before stopping.
    pub update_budget: u64,
    /// Simulated seconds one local SGD step takes on every client.
    pub step_seconds: f64,
    /// Root RNG seed for the whole run.
    pub seed: u64,
    /// AdaFL hyperparameters; a file or overlay names only the ones it
    /// changes from [`AdaFlConfig::default`].
    pub adafl: AdaFlConfig,
}

/// What a file that does not say otherwise gets: the paper's §V setting.
const DEFAULTS: &str = r#"{
    "train_samples": 2000, "test_samples": 400, "clients": 10, "rounds": 40,
    "participation": 0.5, "local_steps": 5, "batch_size": 32,
    "constrained_fraction": 0.3, "constrained_profile": "constrained",
    "fault_fraction": 0.3, "edge_aggregators": 0, "update_budget": 400, "step_seconds": 0.1,
    "seed": 42
}"#;

/// How a grid's runs are printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// Every evaluation record of every run as CSV
    /// ([`report::series_csv`](crate::report::series_csv)).
    Series,
    /// One aligned row of totals per run
    /// ([`report::summary_table`](crate::report::summary_table)).
    Summary,
}

/// One point of an experiment's grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// This point's label on each axis, in axis order.
    pub labels: Vec<String>,
    /// The base config with this point's overlays applied.
    pub config: ExperimentConfig,
}

/// An experiment file, expanded.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// The report the file names.
    pub report: Report,
    /// Axis names in file order; empty for a single-scenario file.
    pub axes: Vec<String>,
    /// Every point, first axis outermost.
    pub points: Vec<Point>,
    /// The file's `target`, if any.
    pub target: Option<Target>,
    /// The file's `claims`, in file order.
    pub claims: Vec<Claim>,
    /// Whether `--<field>` overrides changed what the file describes: its
    /// claims are then about another experiment, and verdicts are `skipped`.
    pub overridden: bool,
}

/// The accuracy every row is held against: `factor` times the final accuracy
/// of the one row `target.row` selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Index of the calibrating row among the grid's points.
    pub row: usize,
    /// What that row's final accuracy is scaled by.
    pub factor: f32,
}

/// The label a row must carry on each axis, in axis order; `None`: any.
type Selector = Vec<Option<String>>;

/// One named assertion about a column of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    name: String,
    /// The rows it is about: all of them must hold, or `any` one.
    rows: Selector,
    any: bool,
    /// The [`Row::column`] compared.
    column: String,
    holds: Comparison,
    against: Against,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Comparison {
    Equals,
    Below,
    AtLeast,
}

/// A claim's right-hand side.
#[derive(Debug, Clone, PartialEq)]
enum Against {
    Constant(f64),
    /// The same column of the row reached by swapping in these labels.
    Row(Selector),
}

/// `target` as a file spells it.
#[derive(Deserialize, Serialize)]
struct TargetSpec {
    row: Json,
    factor: f32,
}

/// One of `claims` as a file spells it.
#[derive(Deserialize, Serialize)]
struct ClaimSpec {
    name: String,
    rows: Option<Json>,
    any: Option<bool>,
    column: String,
    equals: Option<Json>,
    below: Option<Json>,
    at_least: Option<Json>,
}

type Object = Vec<(String, Value)>;

fn object(value: Value, what: &str) -> Result<Object, String> {
    match value {
        Value::Object(pairs) => Ok(pairs),
        other => Err(format!("{what} must be an object, got {}", other.kind())),
    }
}

fn take(object: &mut Object, key: &str) -> Option<Value> {
    let at = object.iter().position(|(k, _)| k == key)?;
    Some(object.remove(at).1)
}

fn set(object: &mut Object, key: &str, value: Value) {
    match object.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => object.push((key.to_string(), value)),
    }
}

/// Lays `overlay` over `config`: each key replaces the config's, except
/// `adafl`, whose fields are laid over the config's one by one.
fn apply(config: &mut Object, overlay: &Object) {
    for (key, value) in overlay {
        if key == "adafl" {
            let ours = config.iter_mut().find(|(k, _)| k == key);
            if let (Some((_, Value::Object(ours))), Value::Object(theirs)) = (ours, value) {
                apply(ours, theirs);
                continue;
            }
        }
        set(config, key, value.clone());
    }
}

/// The first key of `given` that `schema` does not have.
fn unknown_key<'a>(given: &'a Value, schema: &Value) -> Option<&'a str> {
    let stray = |(key, _): &'a (String, Value)| schema.get(key).is_none().then_some(key.as_str());
    given.as_object()?.iter().find_map(stray)
}

/// Deserializes `raw`, refusing keys `T` does not have.
fn strict<T: Deserialize + Serialize>(raw: &Value) -> Result<T, String> {
    let parsed = T::from_value(raw).map_err(|e| e.to_string())?;
    match unknown_key(raw, &parsed.to_value()) {
        Some(key) => Err(format!("unknown field `{key}`")),
        None => Ok(parsed),
    }
}

/// A grid's axes as expanded: each name with its `label → overlay` entries.
type Axes = [(String, Vec<(String, Object)>)];

/// Resolves `{ axis: label, … }` against the grid's axes.
fn selector(value: Value, what: &str, axes: &Axes) -> Result<Selector, String> {
    let mut picked = vec![None; axes.len()];
    for (axis, label) in object(value, what)? {
        let at = axes
            .iter()
            .position(|(name, _)| *name == axis)
            .ok_or_else(|| format!("{what} names `{axis}`, not an axis"))?;
        let known = |label: &&str| axes[at].1.iter().any(|(known, _)| known == label);
        let label = label
            .as_str()
            .filter(known)
            .ok_or_else(|| format!("{what}: axis `{axis}` has no label {label:?}"))?;
        picked[at] = Some(label.to_string());
    }
    Ok(picked)
}

fn selects(selector: &Selector, labels: &[String]) -> bool {
    let mut pairs = selector.iter().zip(labels);
    pairs.all(|(want, label)| want.as_ref().is_none_or(|want| want == label))
}

impl Target {
    fn parse(raw: &Value, axes: &Axes, points: &[Point]) -> Result<Self, String> {
        let spec: TargetSpec = strict(raw).map_err(|e| format!("`target`: {e}"))?;
        let row = selector(spec.row.0, "`target.row`", axes)?;
        if let Some(open) = row.iter().position(Option::is_none) {
            let axis = &axes[open].0;
            return Err(format!(
                "`target.row` must select exactly one row: it leaves axis `{axis}` open"
            ));
        }
        let row = points.iter().position(|point| selects(&row, &point.labels));
        Ok(Target {
            row: row.expect("every label is one of its axis's"),
            factor: spec.factor,
        })
    }
}

impl Claim {
    fn parse(raw: &Value, axes: &Axes, targeted: bool) -> Result<Self, String> {
        let spec: ClaimSpec = strict(raw).map_err(|e| format!("a claim: {e}"))?;
        let of = format!("claim `{}`", spec.name);
        let probe = Row {
            reaches_target: targeted.then_some(false),
            ..Row::default()
        };
        if probe.column(&spec.column).is_none() {
            return Err(format!("{of}: the report has no column `{}`", spec.column));
        }
        let (holds, rhs) = match (spec.equals, spec.below, spec.at_least) {
            (Some(Json(rhs)), None, None) => (Comparison::Equals, rhs),
            (None, Some(Json(rhs)), None) => (Comparison::Below, rhs),
            (None, None, Some(Json(rhs))) => (Comparison::AtLeast, rhs),
            _ => {
                return Err(format!(
                    "{of} needs exactly one of `equals`, `below`, `at_least`"
                ))
            }
        };
        let against = match rhs {
            Value::Bool(flag) => Against::Constant(f64::from(u8::from(flag))),
            Value::Object(_) => Against::Row(selector(rhs, &of, axes)?),
            other => Against::Constant(other.as_f64().ok_or_else(|| {
                format!("{of} compares against a number, a bool or a row, got {other:?}")
            })?),
        };
        let rows = spec.rows.map_or(Value::Object(Vec::new()), |rows| rows.0);
        Ok(Claim {
            rows: selector(rows, &of, axes)?,
            name: spec.name,
            any: spec.any.unwrap_or(false),
            column: spec.column,
            holds,
            against,
        })
    }

    /// Holds the claim against `rows`, one per point of its grid.
    fn verdict(&self, rows: &[Row], skipped: bool) -> Verdict {
        let column = |row: &Row| row.column(&self.column).expect("checked with the points");
        let against = |row: &Row| match &self.against {
            Against::Constant(constant) => *constant,
            Against::Row(swap) => {
                let swapped = swap.iter().zip(&row.labels);
                let labels = swapped.map(|(new, old)| new.as_ref().unwrap_or(old));
                let other = rows
                    .iter()
                    .find(|other| other.labels.iter().eq(labels.clone()));
                column(other.expect("a grid is a full cross product"))
            }
        };
        let selected = rows.iter().filter(|row| selects(&self.rows, &row.labels));
        let sides: Vec<(&Row, f64, f64)> = selected
            .map(|row| (row, column(row), against(row)))
            .collect();
        let holds = |&&(_, lhs, rhs): &&(&Row, f64, f64)| match self.holds {
            Comparison::Equals => lhs == rhs,
            Comparison::Below => lhs < rhs,
            Comparison::AtLeast => lhs >= rhs,
        };
        // What decides the claim: a for-all's counterexample, an `any`'s witness.
        let decisive = sides.iter().find(|side| holds(side) == self.any);
        let (row, lhs, rhs) = *decisive.unwrap_or(&sides[0]);
        Verdict {
            claim: self.name.clone(),
            verdict: match decisive.is_some() == self.any {
                _ if skipped => "skipped",
                true => "ok",
                false => "FAILED",
            },
            row: row.labels.clone(),
            lhs,
            rhs,
        }
    }
}

impl Grid {
    /// One verdict per claim on `rows`, one row per point in grid order;
    /// all `skipped` when the command line overrode the file.
    pub fn verdicts(&self, rows: &[Row]) -> Vec<Verdict> {
        let verdict = |claim: &Claim| claim.verdict(rows, self.overridden);
        self.claims.iter().map(verdict).collect()
    }

    /// FNV-1a over every point's labels and serialized config, as hex: two
    /// reports with the same hash ran the same scenarios.
    pub fn points_hash(&self) -> String {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for point in &self.points {
            let config = serde_json::to_string(&point.config).expect("configs serialize");
            for byte in format!("{:?}{config}", point.labels).bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("{hash:016x}")
    }
}

impl ExperimentConfig {
    /// Expands the experiment file `text` into its grid. Lowest precedence
    /// first: the schema's defaults, the file, its `quick` overlay when `quick`, each
    /// `(field, value)` of `overrides` (the value parsed as JSON, else taken
    /// as a string), then the grid's overlays, axis by axis — an overlay key
    /// replaces the config's, except `adafl`, which merges field by field.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a config that does not match the schema; a key (in
    /// the file, an overlay or `overrides`) that is not a schema field; an
    /// override of a field a grid axis sets; an empty axis; `--quick`
    /// without a `quick` overlay, or a `quick.grid` axis the grid lacks; a
    /// `report` other than `series` / `summary`; a `target` or claim that
    /// names an unknown axis, label, column or field, a `target.row` that
    /// does not select exactly one row, a claim without exactly one
    /// comparison.
    pub fn points(text: &str, quick: bool, overrides: &[(String, String)]) -> Result<Grid, String> {
        let Json(file) = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let mut file = object(file, "an experiment file")?;
        let quick_overlay = take(&mut file, "quick");
        let mut grid = match take(&mut file, "grid") {
            Some(axes) => object(axes, "`grid`")?,
            None => Vec::new(),
        };
        if quick {
            let overlay = quick_overlay.ok_or("--quick: the file has no `quick` overlay")?;
            let mut overlay = object(overlay, "`quick`")?;
            if let Some(axes) = take(&mut overlay, "grid") {
                for (axis, labels) in object(axes, "`quick.grid`")? {
                    match grid.iter_mut().find(|(name, _)| *name == axis) {
                        Some(slot) => slot.1 = labels,
                        None => return Err(format!("`quick.grid` names `{axis}`, not an axis")),
                    }
                }
            }
            apply(&mut file, &overlay);
        }

        let mut axes: Vec<(String, Vec<(String, Object)>)> = Vec::new();
        for (axis, labels) in grid {
            let labels = object(labels, &format!("axis `{axis}`"))?
                .into_iter()
                .map(|(label, overlay)| {
                    let overlay = object(overlay, &format!("overlay `{axis}.{label}`"))?;
                    Ok((label, overlay))
                })
                .collect::<Result<Vec<_>, String>>()?;
            if labels.is_empty() {
                return Err(format!("axis `{axis}` is empty"));
            }
            axes.push((axis, labels));
        }

        for (key, value) in overrides {
            let sets = |(_, overlay): &(String, Object)| overlay.iter().any(|(k, _)| k == key);
            if let Some((axis, _)) = axes.iter().find(|(_, labels)| labels.iter().any(sets)) {
                return Err(format!("--{key}: axis `{axis}` of the grid sets `{key}`"));
            }
            let scalar = match serde_json::from_str::<Json>(value) {
                Ok(Json(Value::Object(_) | Value::Array(_))) | Err(_) => Value::Str(value.clone()),
                Ok(Json(scalar)) => scalar,
            };
            set(&mut file, key, scalar);
        }
        let target = take(&mut file, "target");
        let claims = take(&mut file, "claims");
        let report = match take(&mut file, "report") {
            None => Report::Series,
            Some(Value::Str(name)) if name == "series" => Report::Series,
            Some(Value::Str(name)) if name == "summary" => Report::Summary,
            Some(other) => {
                return Err(format!(
                    "`report` must be \"series\" or \"summary\", got {other:?}"
                ))
            }
        };

        // Overlays name the AdaFL fields they change, so the defaults they
        // change them from are spelled out underneath.
        let Json(defaults) = serde_json::from_str(DEFAULTS).expect("DEFAULTS is JSON");
        let mut base = object(defaults, "DEFAULTS")?;
        set(&mut base, "adafl", AdaFlConfig::default().to_value());
        apply(&mut base, &file);
        let mut points: Vec<(Vec<String>, Object)> = vec![(Vec::new(), base)];
        for (_, labels) in &axes {
            points = points
                .iter()
                .flat_map(|(outer, config)| {
                    labels.iter().map(move |(label, overlay)| {
                        let mut config = config.clone();
                        apply(&mut config, overlay);
                        let labels = outer.iter().chain([label]).cloned().collect();
                        (labels, config)
                    })
                })
                .collect();
        }
        let points = points
            .into_iter()
            .map(|(labels, config)| {
                let config = Self::checked(&Value::Object(config))
                    .map_err(|e| format!("point {labels:?}: {e}"))?;
                Ok(Point { labels, config })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let target = target.map(|target| Target::parse(&target, &axes, &points));
        let target = target.transpose()?;
        let claims = match claims.unwrap_or(Value::Array(Vec::new())) {
            Value::Array(claims) => claims,
            other => return Err(format!("`claims` must be an array, got {}", other.kind())),
        };
        let claims = claims
            .iter()
            .map(|claim| Claim::parse(claim, &axes, target.is_some()));
        let claims = claims.collect::<Result<_, String>>()?;
        Ok(Grid {
            report,
            axes: axes.into_iter().map(|(axis, _)| axis).collect(),
            points,
            target,
            claims,
            overridden: !overrides.is_empty(),
        })
    }

    /// Deserializes `raw`, refusing keys the schema does not have.
    fn checked(raw: &Value) -> Result<Self, String> {
        let config: Self = strict(raw)?;
        let adafl = config.adafl.to_value();
        match raw
            .get("adafl")
            .and_then(|given| unknown_key(given, &adafl))
        {
            Some(key) => Err(format!("unknown field `adafl.{key}`")),
            None => Ok(config),
        }
    }

    /// Whether [`protocol`](Self::protocol) is `"async"`.
    ///
    /// # Errors
    ///
    /// The protocol is neither `"sync"` nor `"async"`.
    pub fn asynchronous(&self) -> Result<bool, String> {
        match self.protocol.as_str() {
            "sync" => Ok(false),
            "async" => Ok(true),
            other => Err(format!("protocol must be sync or async, got {other:?}")),
        }
    }

    /// The [`Scenario`] this config describes: the paper fleet
    /// ([`Scenario::paper`]) with the config's links, faults, data
    /// distribution and server stages.
    ///
    /// # Errors
    ///
    /// An unknown protocol, strategy, task, link profile, fault, robust
    /// method, capacity mode, tier or compression scheme; `robust`,
    /// `capacity` or `compression` under `"protocol": "async"`; a
    /// `participation` outside `(0, 1]`, or a `constrained_fraction`,
    /// `fault_fraction` or `drop_prob` outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics where the library's own validation does: zero counts and
    /// out-of-range hyperparameters.
    pub fn scenario(&self) -> Result<Scenario, String> {
        let asynchronous = self.asynchronous()?;
        let strategies: &[&str] = if asynchronous {
            &ASYNC_STRATEGIES
        } else {
            &SYNC_STRATEGIES
        };
        if !strategies.contains(&self.strategy.as_str()) {
            return Err(format!(
                "unknown {} strategy {:?} (expected one of {strategies:?})",
                self.protocol, self.strategy
            ));
        }
        for (stage, set) in [
            ("robust", &self.robust),
            ("capacity", &self.capacity),
            ("compression", &self.compression),
        ] {
            if asynchronous && set.is_some() {
                return Err(format!("`{stage}` needs \"protocol\": \"sync\""));
            }
        }
        if self.participation <= 0.0 || self.participation > 1.0 {
            let p = self.participation;
            return Err(format!("`participation` must be in (0, 1], got {p}"));
        }
        fraction("constrained_fraction", self.constrained_fraction)?;
        fraction("fault_fraction", self.fault_fraction)?;
        if let Some(p) = self.drop_prob {
            fraction("drop_prob", p)?;
        }

        let task = Task::named(&self.task, self.train_samples, self.test_samples, self.seed)?;
        let mut fl = FlConfig::builder()
            .clients(self.clients)
            .rounds(self.rounds)
            .participation(self.participation)
            .local_steps(self.local_steps)
            .batch_size(self.batch_size)
            .seed(self.seed)
            .model(task.model.clone());
        if let Some(lr) = self.learning_rate {
            fl = fl.learning_rate(lr);
        }
        if let Some(m) = self.momentum {
            fl = fl.momentum(m);
        }
        if let Some(n) = self.cohort_size {
            fl = fl.cohort_size(n);
        }
        if self.edge_aggregators > 0 {
            fl = fl.edge_aggregators(self.edge_aggregators);
        }

        let network = match self.drop_prob {
            Some(p) => fleet::lossy_network(self.clients, self.constrained_fraction, p, self.seed),
            None => fleet::mixed_network(
                self.clients,
                self.constrained_fraction,
                self.constrained_profile.parse()?,
                self.seed,
            ),
        };
        let faults = match &self.fault {
            Some(name) => {
                let kind: FaultKind = name.parse()?;
                FaultPlan::with_fraction(self.clients, self.fault_fraction, kind, self.seed)
            }
            None => FaultPlan::reliable(self.clients),
        };
        let capacity = match self.capacity.as_deref() {
            None => None,
            Some(mode) => {
                let adaptive = match mode {
                    "adaptive" => true,
                    "static" => false,
                    other => {
                        return Err(format!(
                            "capacity must be \"static\" or \"adaptive\", got {other:?}"
                        ))
                    }
                };
                let tiers = match &self.tiers {
                    Some(names) => names.iter().map(String::as_str).collect(),
                    None => vec!["full", "half", "quarter"],
                };
                let tiers = tiers
                    .into_iter()
                    .map(CapacityTier::parse)
                    .collect::<Result<_, _>>()?;
                Some(Capacity { tiers, adaptive })
            }
        };
        let compression = match self.compression.as_deref() {
            None => StaticCompression::None,
            Some(scheme) => static_compression(scheme)?,
        };
        Ok(Scenario {
            network,
            compute: fleet::uniform_compute(self.clients, self.step_seconds, self.seed),
            faults,
            compression,
            ada: self.adafl.clone(),
            partitioner: self.partition,
            update_budget: self.update_budget,
            resilience: Resilience {
                robust: self.robust.as_deref().map(str::parse).transpose()?,
                capacity,
                ..Resilience::default()
            },
            ..Scenario::paper(task, fl.build())
        })
    }
}

/// `Err` naming `field` unless `value` is in `[0, 1]`.
fn fraction(field: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("`{field}` must be in [0, 1], got {value}"))
    }
}

/// Parses `"topk:<ratio>"`, `"qsgd:<levels>"` or `"terngrad"`.
fn static_compression(scheme: &str) -> Result<StaticCompression, String> {
    let bad = || {
        format!("unknown compression {scheme:?} (expected topk:<ratio>, qsgd:<levels> or terngrad)")
    };
    match scheme.split_once(':') {
        None if scheme == "terngrad" => Ok(StaticCompression::TernGrad),
        Some(("topk", ratio)) => Ok(StaticCompression::TopK {
            ratio: ratio.parse().map_err(|_| bad())?,
        }),
        Some(("qsgd", levels)) => Ok(StaticCompression::Qsgd {
            levels: levels.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_sync_with;

    const BASE: &str = r#""protocol": "sync", "strategy": "fedavg", "task": "mnist-logreg",
        "partition": "Iid", "train_samples": 300, "test_samples": 80, "clients": 5, "rounds": 3,
        "local_steps": 3, "batch_size": 16"#;
    const NONIID: &str = r#"{ "partition": { "LabelShards": { "shards_per_client": 2 } } }"#;

    fn expand(rest: &str, quick: bool, overrides: &[(&str, &str)]) -> Result<Grid, String> {
        let overrides: Vec<(String, String)> = overrides
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ExperimentConfig::points(&format!("{{ {BASE} {rest} }}"), quick, &overrides)
    }

    fn labels(grid: &Grid) -> Vec<String> {
        grid.points.iter().map(|p| p.labels.join("/")).collect()
    }

    #[test]
    fn a_file_without_a_grid_is_one_unlabelled_series_point() {
        let grid = expand("", false, &[]).unwrap();
        assert_eq!((grid.report, grid.axes.len()), (Report::Series, 0));
        assert_eq!(labels(&grid), [""]);
        assert_eq!(grid.points[0].config.adafl, AdaFlConfig::default());
    }

    #[test]
    fn axes_nest_in_file_order_and_overlays_merge_later_axis_last() {
        let grid = expand(
            &format!(
                r#", "report": "summary", "adafl": {{ "max_selected": 3 }}, "grid": {{
                "dist": {{ "iid": {{}}, "noniid": {NONIID} }},
                "beta": {{ "0": {{ "adafl": {{ "similarity_weight": 0.0 }}, "rounds": 5 }},
                           "default": {{ "clients": 4 }} }},
                "tau": {{ "0.6": {{ "adafl": {{ "utility_threshold": 0.6 }}, "rounds": 7 }} }} }}"#
            ),
            false,
            &[],
        )
        .unwrap();
        assert_eq!(grid.report, Report::Summary);
        assert_eq!(grid.axes, ["dist", "beta", "tau"]);
        let expected = [
            "iid/0/0.6",
            "iid/default/0.6",
            "noniid/0/0.6",
            "noniid/default/0.6",
        ];
        assert_eq!(labels(&grid), expected);
        let point = |i: usize| &grid.points[i].config;
        assert_eq!(point(1).partition, Partitioner::Iid);
        assert_eq!(point(2).partition, Task::partitioners()[1].1);
        // `adafl` merges field by field over the file's, itself over the defaults.
        let merged = AdaFlConfig {
            max_selected: 3,
            utility_threshold: 0.6,
            ..AdaFlConfig::default()
        };
        assert_eq!(point(3).adafl, merged);
        let beta_zero = AdaFlConfig {
            similarity_weight: 0.0,
            ..merged
        };
        assert_eq!(point(2).adafl, beta_zero);
        // `tau` sets `rounds` after `beta` did; only `beta` sets `clients`.
        assert_eq!((point(2).rounds, point(2).clients), (7, 5));
        assert_eq!((point(3).rounds, point(3).clients), (7, 4));
    }

    #[test]
    fn quick_lies_over_the_file_and_overrides_over_quick() {
        let file = r#", "report": "summary", "grid": {
                "seed": { "1": { "seed": 1 }, "2": { "seed": 2 } },
                "strategy": { "fedavg": {}, "fedprox": { "strategy": "fedprox" } } },
            "quick": { "rounds": 2, "clients": 4, "grid": { "seed": { "9": { "seed": 9 } } } }"#;
        let sizes = |grid: &Grid| {
            let config = &grid.points[0].config;
            (config.rounds, config.clients, grid.points.len())
        };
        assert_eq!(sizes(&expand(file, false, &[]).unwrap()), (3, 5, 4));

        // `quick.grid` replaces the axis it names, in place; the other stays.
        let quick = expand(file, true, &[]).unwrap();
        assert_eq!(sizes(&quick), (2, 4, 2));
        assert_eq!(quick.axes, ["seed", "strategy"]);
        assert_eq!(labels(&quick), ["9/fedavg", "9/fedprox"]);
        assert_eq!(quick.points[1].config.seed, 9);

        let flags = [("rounds", "1"), ("task", "mnist-cnn"), ("report", "series")];
        let overridden = expand(file, true, &flags).unwrap();
        assert_eq!(sizes(&overridden), (1, 4, 2));
        assert_eq!(overridden.points[0].config.task, "mnist-cnn");
        assert_eq!(overridden.report, Report::Series);
    }

    #[test]
    fn typos_and_contradictions_are_errors_not_no_ops() {
        let rejected = |rest: &str, quick, overrides: &[(&str, &str)], complaint: &str| {
            let error = expand(rest, quick, overrides).expect_err(complaint);
            assert!(error.contains(complaint), "{complaint}: {error}");
        };
        let axis = |overlay: &str| format!(r#", "grid": {{ "a": {{ "x": {overlay} }} }}"#);
        rejected(r#", "round": 5"#, false, &[], "unknown field `round`");
        rejected(&axis(r#"{ "rouns": 5 }"#), false, &[], "`rouns`");
        rejected(
            &axis(r#"{ "adafl": { "beta": 1 } }"#),
            false,
            &[],
            "`adafl.beta`",
        );
        rejected("", false, &[("rouns", "5")], "unknown field `rouns`");
        rejected(r#", "quick": { "attack": "boost" }"#, true, &[], "`attack`");
        rejected(
            &axis(r#"{ "clients": 4 }"#),
            false,
            &[("clients", "8")],
            "axis `a`",
        );
        rejected(r#", "report": "table""#, false, &[], "`report` must be");
        rejected(r#", "grid": { "dist": {} }"#, false, &[], "`dist` is empty");
        rejected("", true, &[], "no `quick` overlay");
        let stray_axis = axis("{}") + r#", "quick": { "grid": { "b": {} } }"#;
        rejected(&stray_axis, true, &[], "names `b`");

        // `target` and `claims` are checked with the points, before any run
        // (`reaches_target` is a column only under a `target`).
        let axes = r#", "grid": { "a": { "x": {}, "y": {} }, "b": { "p": {}, "q": {} } }"#;
        let blocks = r#"
            "target": { "row": { "a": "x" }, "factor": 1 } => leaves axis `b` open
            "target": { "row": {}, "factor": 1 } => must select exactly one row
            "target": { "row": { "c": "x" }, "factor": 1 } => names `c`, not an axis
            "target": { "row": { "a": "z" }, "factor": 1 } => axis `a` has no label
            "target": { "row": { "a": "x", "b": "p" } } => missing field `factor`
            "target": { "row": {}, "factor": 1, "of": 2 } => unknown field `of`
            "claims": {} => `claims` must be an array
            "claims": [{ "column": "updates", "below": 1 }] => missing field `name`
            "claims": [{ "name": "n", "column": "rounds", "below": 1 }] => no column `rounds`
            "claims": [{ "name": "n", "column": "reaches_target", "equals": true }] => no column
            "claims": [{ "name": "n", "column": "updates" }] => exactly one of
            "claims": [{ "name": "n", "column": "updates", "below": 9, "at_least": 1 }] => exactly one
            "claims": [{ "name": "n", "column": "updates", "below": "x" }] => a number, a bool or a row
            "claims": [{ "name": "n", "column": "updates", "below": { "a": "z" } }] => has no label
            "claims": [{ "name": "n", "column": "updates", "rows": { "c": "x" }, "below": 1 }] => names `c`
            "claims": [{ "name": "n", "column": "updates", "below": 1, "unless": 2 }] => unknown field `unless`
        "#;
        for line in blocks
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty())
        {
            let (block, complaint) = line.split_once(" => ").unwrap();
            rejected(&format!("{axes}, {block}"), false, &[], complaint);
        }
    }

    /// One row per point of `grid`, under a target nobody reaches yet, filled
    /// in by `fill` from the point's labels joined with `/`.
    fn rows(grid: &Grid, fill: impl Fn(&str, &mut Row)) -> Vec<Row> {
        let row = |point: &Point| {
            let mut row = Row {
                labels: point.labels.clone(),
                reaches_target: Some(false),
                ..Row::default()
            };
            fill(&point.labels.join("/"), &mut row);
            row
        };
        grid.points.iter().map(row).collect()
    }

    /// Each claim's verdict on `rows`, as `<verdict>: <lhs> vs <rhs> at <row>`.
    fn outcomes(grid: &Grid, rows: &[Row]) -> Vec<String> {
        let line = |v: &Verdict| {
            format!(
                "{}: {} vs {} at {}",
                v.verdict,
                v.lhs,
                v.rhs,
                v.row.join("/")
            )
        };
        grid.verdicts(rows).iter().map(line).collect()
    }

    fn checked_in(name: &str, quick: bool) -> Grid {
        let path = format!("{}/../../configs/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("checked-in config");
        ExperimentConfig::points(&text, quick, &[]).unwrap()
    }

    #[test]
    fn a_target_is_one_row_of_the_grid_scaled() {
        let target = |row, factor| Some(Target { row, factor });
        let file = r#", "grid": { "a": { "x": {}, "y": {} }, "b": { "p": {}, "q": {} } },
            "target": { "row": { "b": "p", "a": "y" }, "factor": 0.5 }"#;
        let grid = expand(file, false, &[]).unwrap();
        assert_eq!(grid.target, target(2, 0.5));
        assert_eq!(grid.points[2].labels, ["y", "p"]);
        // A file without a grid has one row, which `{}` selects.
        let single = r#", "target": { "row": {}, "factor": 1 }"#;
        assert_eq!(expand(single, false, &[]).unwrap().target, target(0, 1.0));
        assert_eq!(expand("", false, &[]).unwrap().target, None);
        assert_eq!(checked_in("byzantine", false).target, target(0, 0.9));
        assert_eq!(checked_in("submodel", true).target, target(0, 0.85));
    }

    /// The seven checked-in claims, each on rows where it holds and on rows
    /// where it does not: row vs. constant and row vs. row, for-all and `any`.
    #[test]
    fn the_checked_in_claims_hold_and_fail_as_stated() {
        let byzantine = checked_in("byzantine", true);
        let reached = |by: &'static [&str]| {
            let reaches = |at: &str, row: &mut Row| row.reaches_target = Some(by.contains(&at));
            outcomes(&byzantine, &rows(&byzantine, reaches))
        };
        // Nobody reaches the target: fedavg misses as claimed, no defense survives.
        let missed = "ok: 0 vs 0 at sign-flip/fedavg";
        let sunk = "FAILED: 0 vs 1 at sign-flip/fedavg";
        assert_eq!(reached(&[]), [missed, sunk]);
        // `any` needs one witness among sign-flip's rows, and shows it.
        assert_eq!(reached(&["boost/krum"]), [missed, sunk]);
        let witness = "ok: 1 vs 1 at sign-flip/median";
        assert_eq!(
            reached(&["boost/krum", "sign-flip/median"]),
            [missed, witness]
        );
        let undefended = [
            "FAILED: 1 vs 0 at sign-flip/fedavg",
            "ok: 1 vs 1 at sign-flip/fedavg",
        ];
        assert_eq!(reached(&["sign-flip/fedavg"]), undefended);

        let submodel = checked_in("submodel", false);
        let moved = |tiered: u64, quarter: u64, reached: bool| {
            let fill = |at: &str, row: &mut Row| {
                row.reaches_target = Some(reached || at == "full");
                row.total_bytes = match at {
                    "full" => 100,
                    "tiered-static" => tiered,
                    "tiered-adaptive" => 65,
                    _ => quarter,
                };
            };
            outcomes(&submodel, &rows(&submodel, fill))
        };
        let kept = "ok: 1 vs 1 at tiered-static";
        let (fewer, fewest) = ("ok: 60 vs 100 at tiered-static", "ok: 30 vs 60 at quarter");
        assert_eq!(moved(60, 30, true), [kept, fewer, fewest]);
        assert_eq!(
            moved(60, 30, false),
            ["FAILED: 0 vs 1 at tiered-static", fewer, fewest]
        );
        // `below` is strict, and compares with the row the swap reaches.
        let level = [
            kept,
            "FAILED: 100 vs 100 at tiered-static",
            "ok: 30 vs 100 at quarter",
        ];
        assert_eq!(moved(100, 30, true), level);
        assert_eq!(
            moved(60, 60, true),
            [kept, fewer, "FAILED: 60 vs 60 at quarter"]
        );

        for (name, quick) in [("table1", false), ("table1", true), ("table2", false)] {
            let table = checked_in(name, quick);
            let saved = |weakest: f64| {
                let fill = |at: &str, row: &mut Row| {
                    row.cost_reduc = match at {
                        "mnist-cnn/adafl/noniid" => weakest,
                        at if at.contains("/adafl/") => 72.5,
                        _ => 0.0,
                    }
                };
                outcomes(&table, &rows(&table, fill))
            };
            assert_eq!(
                saved(60.0),
                ["ok: 72.5 vs 60 at mnist-cnn/adafl/iid"],
                "{name}"
            );
            // For-all: one adafl row short sinks it, and is the row shown.
            let short = ["FAILED: 59.9 vs 60 at mnist-cnn/adafl/noniid"];
            assert_eq!(saved(59.9), short, "{name}");
        }
    }

    #[test]
    fn overrides_downgrade_verdicts_to_skipped() {
        let file = r#", "claims": [{ "name": "sends nothing", "column": "updates", "equals": 0 }]"#;
        let sent = |overrides| {
            let grid = expand(file, false, overrides).unwrap();
            outcomes(&grid, &rows(&grid, |_, row| row.updates = 15))
        };
        assert_eq!(sent(&[]), ["FAILED: 15 vs 0 at "]);
        // Overridden, it is another experiment than the file makes claims about.
        assert_eq!(sent(&[("rounds", "1")]), ["skipped: 15 vs 0 at "]);
    }

    #[test]
    fn scenario_rejects_unknown_names_and_sync_only_stages_under_async() {
        let rejected = |overrides: &[(&str, &str)], complaint: &str| {
            let grid = expand("", false, overrides).unwrap();
            let error = grid.points[0].config.scenario().expect_err(complaint);
            assert!(error.contains(complaint), "{overrides:?}: {error}");
        };
        let fedbuff = [("protocol", "async"), ("strategy", "fedbuff")];
        for stage in [
            ("robust", "median"),
            ("capacity", "static"),
            ("compression", "terngrad"),
        ] {
            rejected(
                &[fedbuff[0], fedbuff[1], stage],
                "needs \"protocol\": \"sync\"",
            );
        }
        rejected(&[("protocol", "semi")], "protocol must be sync or async");
        rejected(&[("strategy", "fedbuff")], "unknown sync strategy");
        rejected(&[("fault", "gremlins")], "unknown fault kind");
        rejected(&[("compression", "topk")], "unknown compression");
        rejected(
            &[("participation", "0")],
            "`participation` must be in (0, 1]",
        );
        let overfull = [("fault", "dropout"), ("fault_fraction", "1.5")];
        rejected(&overfull, "`fault_fraction` must be in [0, 1]");
        rejected(
            &[("constrained_fraction", "-0.5")],
            "`constrained_fraction` must be",
        );
        rejected(&[("drop_prob", "1.5")], "`drop_prob` must be in [0, 1]");
        let topk = StaticCompression::TopK { ratio: 32.0 };
        assert_eq!(static_compression("topk:32"), Ok(topk));
        let qsgd = StaticCompression::Qsgd { levels: 8 };
        assert_eq!(static_compression("qsgd:8"), Ok(qsgd));
    }

    /// A grid point runs exactly what the hand-written loop nest it replaces
    /// ran: same `Scenario`, so the same records and the same ledger.
    #[test]
    fn grid_points_match_hand_built_scenarios() {
        let grid = expand(
            &format!(
                r#", "adafl": {{ "max_selected": 3, "warmup_rounds": 1 }}, "grid": {{
                "dist": {{ "iid": {{}}, "noniid": {NONIID} }},
                "strategy": {{ "fedavg": {{}}, "adafl": {{ "strategy": "adafl" }} }} }}"#
            ),
            false,
            &[],
        )
        .unwrap();
        let mut points = grid.points.iter();

        let task = Task::mnist_logreg(300, 80, 42);
        let ada = AdaFlConfig {
            max_selected: 3,
            warmup_rounds: 1,
            ..AdaFlConfig::default()
        };
        for (dist, partitioner) in Task::partitioners() {
            for strategy in ["fedavg", "adafl"] {
                let fl = FlConfig::builder()
                    .clients(5)
                    .rounds(3)
                    .local_steps(3)
                    .batch_size(16)
                    .model(task.model.clone())
                    .build();
                let by_hand = Scenario {
                    partitioner,
                    ada: ada.clone(),
                    ..Scenario::paper(task.clone(), fl)
                };
                let point = points.next().expect("one point per loop iteration");
                assert_eq!(point.labels, [dist, strategy]);
                let run =
                    |s: &Scenario, name| run_sync_with(s, name, adafl_telemetry::noop(), None);
                let expected = run(&by_hand, strategy);
                let got = run(&point.config.scenario().unwrap(), &point.config.strategy);
                assert_eq!(got.history, expected.history, "{dist} {strategy}");
                let totals = |r: &crate::runner::RunResult| {
                    let mean = r.mean_uplink_payload.to_bits();
                    let (up, down) = (r.uplink_bytes, r.downlink_bytes);
                    (
                        up,
                        down,
                        r.uplink_updates,
                        mean,
                        r.retransmission_bytes,
                        r.control_bytes,
                    )
                };
                assert_eq!(totals(&got), totals(&expected), "{dist} {strategy}");
            }
        }
        assert!(points.next().is_none());
    }
}
