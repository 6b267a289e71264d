//! Runs the experiment a JSON file describes — one scenario, or every point
//! of its `grid` — so experiment setups live in version control and re-run
//! exactly. The paper's figures and tables are files under `configs/`:
//!
//! ```text
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/table1.json
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/fig3_sync.json --quick
//! cargo run -p adafl-bench --release --bin run_config -- --config configs/fig1_async.json --seed 7
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
use adafl_bench::report::{self, DenseReference};
use adafl_bench::runner::{run_async_with, run_sync_with, RunResult};
use adafl_telemetry::{export, InMemoryRecorder, SharedRecorder};
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

fn run(args: &Args) -> Result<(), String> {
    let path = args
        .get("config")
        .ok_or("--config <file.json> is required")?;
    let trace_path = args.get("telemetry");
    let threads = args.threads();
    let quick = args.flag("quick");
    let overrides = args.rest();
    args.reject_unknown();

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let grid = ExperimentConfig::points(&text, quick, &overrides)
        .map_err(|e| format!("invalid config {path}: {e}"))?;

    let memory = trace_path.map(|_| InMemoryRecorder::shared());
    let recorder: SharedRecorder = match &memory {
        Some(recorder) => recorder.clone(),
        None => adafl_telemetry::noop(),
    };

    let build = |cfg: &ExperimentConfig| {
        let scenario = cfg.scenario();
        scenario.map_err(|e| format!("invalid config {path}: {e}"))
    };
    // A misnamed fault in the last point stops the grid now, not hours in.
    for point in &grid.points {
        build(&point.config)?;
    }

    let mut runs: Vec<(Vec<String>, RunResult, DenseReference)> = Vec::new();
    for point in grid.points {
        let cfg = &point.config;
        let asynchronous = cfg.asynchronous()?;
        let scenario = build(cfg)?;
        let result = if asynchronous {
            run_async_with(&scenario, &cfg.strategy, recorder.clone())
        } else {
            run_sync_with(&scenario, &cfg.strategy, recorder.clone(), Some(threads))
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
        let dense = DenseReference::of(&scenario, asynchronous);
        runs.push((point.labels, result, dense));
    }

    if let (Some(path), Some(memory)) = (trace_path, &memory) {
        let trace = memory.snapshot();
        let jsonl = export::to_jsonl_string(&trace);
        std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "telemetry: {} spans, {} events, {} counters -> {path}",
            trace.spans.len(),
            trace.events.len(),
            trace.counters.len()
        );
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
            let rows: Vec<(String, &RunResult)> = runs
                .iter()
                .map(|(labels, result, _)| (keyed(labels), result))
                .collect();
            report::print_series(&keyed(&grid.axes), &rows);
        }
        Report::Summary => print!("{}", report::summary_table(&grid.axes, &runs)),
    }
    Ok(())
}
