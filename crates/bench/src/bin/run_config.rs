//! Runs the experiment a JSON file describes — one scenario, or every point
//! of its `grid` — so experiment setups live in version control and re-run
//! exactly. The paper's figures and tables are files under `configs/`:
//!
//! ```text
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/table1.json
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/fig3_sync.json --quick
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/fig1_async.json --seed 7
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/byzantine.json --out BENCH_byzantine.json
//! ```
//!
//! A file is the [`ExperimentConfig`] fields plus, optionally:
//!
//! ```json
//! {
//!   "protocol": "sync",
//!   "task": "mnist-cnn",
//!   "rounds": 80,
//!   "report": "summary",
//!   "grid": {
//!     "strategy": { "fedavg": { "strategy": "fedavg" }, "adafl": { "strategy": "adafl" } },
//!     "dist": {
//!       "iid": { "partition": "Iid" },
//!       "noniid": { "partition": { "LabelShards": { "shards_per_client": 2 } } }
//!     }
//!   },
//!   "quick": { "rounds": 12, "train_samples": 600, "test_samples": 150 }
//! }
//! ```
//!
//! * `grid` — named axes, each a map `label → overlay` of schema fields laid
//!   over the base config (`adafl` merges field by field, so `{"adafl":
//!   {"utility_threshold": 0.6}}` is a point). Axes expand in file order as
//!   nested loops, the first outermost; every point is one run.
//! * `quick` — the overlay `--quick` applies: the file's own smoke size. Its
//!   `grid`, if any, replaces the named axes whole.
//! * `--<field> <value>` overrides a top-level scalar of the file (`--rounds
//!   5`, `--seed 7`, `--report summary`), over `quick` and under the grid;
//!   overriding a field an axis sets is an error, as is any key — in the
//!   file, an overlay or a flag — the schema does not have.
//! * `report` — `series` (the default) prints every evaluation record as CSV,
//!   one key column per axis in front of `report::series_csv`'s columns (the
//!   `label` column already names the run's strategy, so an axis called
//!   `strategy` adds none); `summary` prints one aligned row per point: axis
//!   labels, `final_acc`, `best_acc`, `updates`, `uplink_bytes`,
//!   `mean_payload`, `compress` (a dense update ÷ `mean_payload`) and
//!   `cost_reduc` against the dense full-participation run.
//! * `target` — `{ "row": { axis: label, … }, "factor": f }` names one row
//!   (every axis) and holds every row against `f` × its final accuracy: rows
//!   gain `accuracy_target`, `reaches_target` and `time_to_target_s` (the
//!   last two are also `summary` columns).
//! * `claims` — `[{ "name", "rows": { axis: label, … }, "column", <cmp> }]`,
//!   checked after the report prints. An axis `rows` leaves out means all its
//!   labels (with `"any": true`: at least one); `column` is `final_acc`,
//!   `best_acc`, `updates`, `uplink_bytes`, `downlink_bytes`, `total_bytes`,
//!   `cost_reduc` or `reaches_target`; `<cmp>` is one of `"equals"`, `"below"`
//!   (strictly), `"at_least"`, against a number, a bool, or `{ axis: label }`
//!   — the same column of the row with those labels swapped in. Each prints
//!   `claim ok|FAILED: <name> (<lhs> vs <rhs>) <row>` on stderr; a failure
//!   exits 1. Under a `--<field>` override the run is not the experiment the
//!   file makes claims about: `claim skipped`, exit 0. An unknown axis, label,
//!   column or key in either block stops the run before it starts.
//!
//! `--out report.json` writes the stamped report — config path, hash of the
//! expanded points, `quick`, overrides, seed, `--threads` if pinned, `simd`;
//! each row's labels, columns and `fl.*` / `netsim.*` telemetry counters; the
//! verdicts — with nothing of the host or the clock in it, so regenerating a
//! checked-in one (`BENCH_byzantine.json`, `BENCH_submodel.json`) is a `cmp`.
//!
//! Pass `--telemetry trace.jsonl` to capture a structured trace of the runs
//! (round spans, per-client transfers, compression byte counters) as JSONL,
//! every point in order. Tracing is passive: the experiment output is
//! byte-identical either way.
//!
//! Pass `--threads N` (default: host parallelism) to pin the worker-pool
//! width; results are identical at any width.

use adafl_bench::args::Args;
use adafl_bench::config::{ExperimentConfig, Report};
use adafl_bench::report::{self, GridReport, Json, Row};
use adafl_bench::runner::{run_async_with, run_sync_with, RunResult};
use adafl_telemetry::{export, InMemoryRecorder, SharedRecorder, Trace};
use serde::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(&Args::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("run_config: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Appends one point's trace to the trace of the points before it.
fn absorb(trace: &mut Trace, point: Trace) {
    for (name, count) in point.counters {
        *trace.counters.entry(name).or_insert(0) += count;
    }
    trace.gauges.extend(point.gauges);
    for (name, histogram) in point.histograms {
        trace.histograms.entry(name).or_default().merge(&histogram);
    }
    trace.spans.extend(point.spans);
    trace.events.extend(point.events);
}

fn run(args: &Args) -> Result<(), String> {
    let path = args
        .get("config")
        .ok_or("--config <file.json> is required")?;
    let trace_path = args.get("telemetry");
    let out_path = args.get("out");
    let pinned = args.get("threads").is_some();
    let threads = args.threads();
    let quick = args.flag("quick");
    let overrides = args.rest();
    args.reject_unknown();

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let grid = ExperimentConfig::points(&text, quick, &overrides)
        .map_err(|e| format!("invalid config {path}: {e}"))?;

    let build = |cfg: &ExperimentConfig| {
        let scenario = cfg.scenario();
        scenario.map_err(|e| format!("invalid config {path}: {e}"))
    };
    // A misnamed fault in the last point stops the grid now, not hours in.
    for point in &grid.points {
        build(&point.config)?;
    }

    // Recording is passive; a recorder is attached only when something reads it.
    let recorded = trace_path.is_some() || out_path.is_some();
    let mut trace = Trace::default();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for point in &grid.points {
        let cfg = &point.config;
        let asynchronous = cfg.asynchronous()?;
        let scenario = build(cfg)?;
        let memory = recorded.then(InMemoryRecorder::shared);
        let recorder: SharedRecorder = match &memory {
            Some(recorder) => recorder.clone(),
            None => adafl_telemetry::noop(),
        };
        let result = if asynchronous {
            run_async_with(&scenario, &cfg.strategy, recorder)
        } else {
            run_sync_with(&scenario, &cfg.strategy, recorder, Some(threads))
        };
        let at = grid.axes.iter().zip(&point.labels);
        let at: String = at.map(|(axis, label)| format!("{axis}={label} ")).collect();
        eprintln!(
            "{at}{} {}: final acc {:.3}, uplink {}, {} updates",
            cfg.protocol,
            cfg.strategy,
            result.history.final_accuracy(),
            report::human_bytes(result.uplink_bytes),
            result.uplink_updates
        );
        let mut row = Row::of(&point.labels, &scenario, asynchronous, &result);
        if let Some(memory) = memory {
            let seen = memory.snapshot();
            let kept = |name: &str| name.starts_with("fl.") || name.starts_with("netsim.");
            let counters = seen.counters.iter().filter(|(name, _)| kept(name));
            let counters = counters.map(|(name, count)| (name.clone(), Value::U64(*count)));
            row.counters = Some(Json(Value::Object(counters.collect())));
            if trace_path.is_some() {
                absorb(&mut trace, seen);
            }
        }
        runs.push(result);
        rows.push(row);
    }

    if let Some(path) = trace_path {
        let jsonl = export::to_jsonl_string(&trace);
        std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "telemetry: {} spans, {} events, {} counters -> {path}",
            trace.spans.len(),
            trace.events.len(),
            trace.counters.len()
        );
    }

    if let Some(target) = grid.target {
        let accuracy = target.factor * rows[target.row].final_acc;
        for (row, run) in rows.iter_mut().zip(&runs) {
            row.hold_to(accuracy, &run.history);
        }
    }
    match grid.report {
        Report::Series => {
            // The `label` column is the strategy: no second column for it.
            let keyed = |cells: &[String]| -> String {
                let kept = grid
                    .axes
                    .iter()
                    .zip(cells)
                    .filter(|(axis, _)| *axis != "strategy");
                kept.map(|(_, cell)| cell.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let series: Vec<(String, &RunResult)> = rows
                .iter()
                .zip(&runs)
                .map(|(row, run)| (keyed(&row.labels), run))
                .collect();
            print!("{}", report::series_csv(&keyed(&grid.axes), &series));
        }
        Report::Summary => print!("{}", report::summary_table(&grid.axes, &rows)),
    }

    let verdicts = grid.verdicts(&rows);
    for v in &verdicts {
        let at = grid.axes.iter().zip(&v.row);
        let at: String = at.map(|(axis, label)| format!(" {axis}={label}")).collect();
        eprintln!(
            "claim {}: {} ({} vs {}){at}",
            v.verdict, v.claim, v.lhs, v.rhs
        );
    }
    let failed = verdicts.iter().filter(|v| v.verdict == "FAILED").count();
    if let Some(out) = out_path {
        let stamped = GridReport {
            config: path.to_string(),
            points_hash: grid.points_hash(),
            quick,
            overrides,
            seed: grid.points[0].config.seed,
            threads: pinned.then_some(threads),
            simd: cfg!(feature = "simd"),
            axes: grid.axes,
            rows,
            claims: verdicts,
        };
        report::write_json(out, &stamped);
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} of the file's claims failed")),
    }
}
