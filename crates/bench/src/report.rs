//! Reporting helpers: CSV series, aligned text tables, run provenance and
//! the JSON report writer.

use crate::runner::{RunResult, Scenario};
use adafl_compression::dense_wire_size;
use adafl_fl::RunHistory;
use serde::{Deserialize, Serialize, Value};

/// Build/run provenance attached to benchmark JSON reports, so a checked-in
/// number can be traced to the pool width and kernel build that produced it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunMeta {
    /// Server worker-pool width the run was pinned to.
    pub threads: usize,
    /// Whether the explicit SIMD micro-kernels were compiled in
    /// (`--features simd`).
    pub simd: bool,
    /// Peak resident-set size of the benchmark process when the report
    /// was captured (`VmHWM` from `/proc/self/status`); `None` off Linux
    /// or when procfs is unreadable.
    pub peak_rss_bytes: Option<u64>,
}

impl RunMeta {
    /// Captures the current build configuration at the given pool width.
    pub fn current(threads: usize) -> Self {
        RunMeta {
            threads,
            simd: cfg!(feature = "simd"),
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// Peak resident-set size (`VmHWM`) of this process in bytes, read from
/// `/proc/self/status`. `None` when procfs is unavailable (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Writes `report` as pretty-printed JSON to `path` and says so on stderr:
/// the one tail every report-writing binary ends with.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_json<T: serde::Serialize>(path: &str, report: &T) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`, so per-phase peaks can be
/// measured inside one process. Returns whether the reset took effect
/// (requires Linux and sufficient privileges); measurements should fall
/// back to reporting the monotonic peak when it did not.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A CSV header followed by every run's records, tagged with extra key
/// columns (e.g. distribution, straggler fraction):
/// `<extra columns>,label,round,sim_time_s,accuracy,loss,uplink_bytes,uplink_updates,contributors`
pub fn series_csv(extra_header: &str, runs: &[(String, &RunResult)]) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{extra_header}{}label,round,sim_time_s,accuracy,loss,uplink_bytes,uplink_updates,contributors",
        if extra_header.is_empty() { "" } else { "," }
    );
    for (extra, run) in runs {
        for r in run.history.records() {
            let prefix = if extra.is_empty() {
                String::new()
            } else {
                format!("{extra},")
            };
            let _ = writeln!(
                out,
                "{prefix}{},{},{:.3},{:.4},{:.4},{},{},{}",
                run.history.label(),
                r.round,
                r.sim_time.seconds(),
                r.accuracy,
                r.loss,
                r.uplink_bytes,
                r.uplink_updates,
                r.contributors
            );
        }
    }
    out
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// One run's totals: a line of the `summary` table, a row of the stamped
/// report, and what a claim compares. Every value is measured from the run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Row {
    /// The run's label on each axis of its grid, in axis order.
    pub labels: Vec<String>,
    /// Accuracy at the last evaluation.
    pub final_acc: f32,
    /// Best accuracy at any evaluation.
    pub best_acc: f32,
    /// Client→server updates.
    pub updates: u64,
    /// Client→server bytes.
    pub uplink_bytes: u64,
    /// Server→client bytes.
    pub downlink_bytes: u64,
    /// Bytes in both directions.
    pub total_bytes: u64,
    /// Mean uplink payload in bytes.
    pub mean_payload: f64,
    /// A dense update of the model ÷ `mean_payload`; `None`: nothing sent.
    pub compress: Option<f64>,
    /// Percentage of uplink bytes saved against the same scenario with every
    /// update dense and nobody left out: every client updating every round
    /// (sync), or twice the update budget (async).
    pub cost_reduc: f64,
    /// The file's `target`: its factor times the target row's final accuracy.
    pub accuracy_target: Option<f32>,
    /// Whether `final_acc` is at least the target.
    pub reaches_target: Option<bool>,
    /// Simulated seconds until an evaluation first reached the target.
    pub time_to_target_s: Option<f64>,
    /// The run's `fl.*` / `netsim.*` telemetry counters by name, when
    /// recorded.
    pub counters: Option<Json>,
}

/// Any JSON document, (de)serialized as itself: the `serde` shim's `Value`
/// implements neither trait.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Row {
    /// The row at `labels` of `run`, which ran `scenario` under the synchronous
    /// or asynchronous protocol; no target or counters yet.
    pub fn of(labels: &[String], scenario: &Scenario, asynchronous: bool, run: &RunResult) -> Self {
        let dense = dense_wire_size(scenario.task.model.build(0).param_count()) as u64;
        let dense_updates = if asynchronous {
            2 * scenario.update_budget
        } else {
            (scenario.fl.clients * scenario.fl.rounds) as u64
        };
        let sent = run.uplink_updates > 0;
        Row {
            labels: labels.to_vec(),
            final_acc: run.history.final_accuracy(),
            best_acc: run.history.best_accuracy(),
            updates: run.uplink_updates,
            uplink_bytes: run.uplink_bytes,
            downlink_bytes: run.downlink_bytes,
            total_bytes: run.uplink_bytes + run.downlink_bytes,
            mean_payload: run.mean_uplink_payload,
            compress: sent.then(|| dense as f64 / run.mean_uplink_payload),
            cost_reduc: cost_reduction_pct(dense_updates * dense, run.uplink_bytes),
            ..Row::default()
        }
    }

    /// Fills the target columns from the run's `history`.
    pub fn hold_to(&mut self, target: f32, history: &RunHistory) {
        self.accuracy_target = Some(target);
        self.reaches_target = Some(self.final_acc >= target);
        self.time_to_target_s = history.time_to_accuracy(target).map(|t| t.seconds());
    }

    /// The column a claim names, as a number (`reaches_target` as 0 / 1);
    /// `None` for a name claims cannot compare, or `reaches_target` without
    /// a target.
    pub fn column(&self, name: &str) -> Option<f64> {
        Some(match name {
            "final_acc" => f64::from(self.final_acc),
            "best_acc" => f64::from(self.best_acc),
            "updates" => self.updates as f64,
            "uplink_bytes" => self.uplink_bytes as f64,
            "downlink_bytes" => self.downlink_bytes as f64,
            "total_bytes" => self.total_bytes as f64,
            "cost_reduc" => self.cost_reduc,
            "reaches_target" => f64::from(u8::from(self.reaches_target?)),
            _ => return None,
        })
    }
}

/// How one claim of an experiment file fared on the report's rows.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Verdict {
    /// The claim's name.
    pub claim: String,
    /// `ok`, `FAILED`, or `skipped` when the command line overrode the file.
    pub verdict: &'static str,
    /// Labels of the row that decided it: a for-all claim's first
    /// counterexample or an `any` claim's first witness, else the first row.
    pub row: Vec<String>,
    /// The claimed column at that row.
    pub lhs: f64,
    /// What it was compared against.
    pub rhs: f64,
}

/// The stamped report `run_config --out` writes: what was run, every row,
/// every verdict — and nothing that depends on the host, so regenerating a
/// checked-in report is a `cmp`.
#[derive(Debug, serde::Serialize)]
pub struct GridReport {
    /// The experiment file, as passed.
    pub config: String,
    /// [`Grid::points_hash`](crate::config::Grid::points_hash).
    pub points_hash: String,
    /// Whether `--quick` was passed.
    pub quick: bool,
    /// The `--<field> <value>` overrides, sorted by field.
    pub overrides: Vec<(String, String)>,
    /// Seed of the first point.
    pub seed: u64,
    /// The `--threads` the pool was pinned to; `None` left it to the host
    /// (results are identical at any width).
    pub threads: Option<usize>,
    /// Whether the explicit SIMD micro-kernels were compiled in.
    pub simd: bool,
    /// Axis names, in the order of each row's `labels`.
    pub axes: Vec<String>,
    /// One row per point, in grid order.
    pub rows: Vec<Row>,
    /// One verdict per claim, in file order.
    pub claims: Vec<Verdict>,
}

/// The `summary` report: one aligned line per row — its axis labels, then
/// final and best accuracy, update count, uplink bytes, mean uplink payload,
/// the compression that payload realises against a dense update, the uplink
/// bytes saved against the dense full-participation run and, under a
/// `target`, whether and when the run reached it.
pub fn summary_table(keys: &[String], rows: &[Row]) -> String {
    let targeted = rows.iter().any(|row| row.accuracy_target.is_some());
    let mut header: Vec<&str> = keys.iter().map(String::as_str).collect();
    header.extend([
        "final_acc",
        "best_acc",
        "updates",
        "uplink_bytes",
        "mean_payload",
        "compress",
        "cost_reduc",
    ]);
    if targeted {
        header.extend(["reaches_target", "time_to_target_s"]);
    }
    let mut table = TextTable::new(header);
    let dash = || "-".to_string();
    for row in rows {
        let mut cells = row.labels.clone();
        cells.extend([
            format!("{:.2}%", row.final_acc * 100.0),
            format!("{:.2}%", row.best_acc * 100.0),
            row.updates.to_string(),
            human_bytes(row.uplink_bytes),
            human_bytes(row.mean_payload as u64),
            row.compress.map_or_else(dash, |x| format!("{x:.1}x")),
            format!("{:.1}%", row.cost_reduc),
        ]);
        if targeted {
            cells.extend([
                row.reaches_target.map_or_else(dash, |hit| hit.to_string()),
                row.time_to_target_s
                    .map_or_else(dash, |t| format!("{t:.1}")),
            ]);
        }
        table.row(cells);
    }
    table.render()
}

/// Formats a byte count with a binary-ish unit for table cells.
pub fn human_bytes(bytes: u64) -> String {
    const KB: f64 = 1000.0;
    let b = bytes as f64;
    if b >= KB * KB {
        format!("{:.2}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Percentage cost reduction of `ours` relative to `baseline` (positive
/// when `ours` is cheaper).
pub fn cost_reduction_pct(baseline: u64, ours: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (1.0 - ours as f64 / baseline as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["method", "acc"]);
        t.row(["fedavg", "0.93"]);
        t.row(["adafl-longer", "0.94"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[3].starts_with("adafl-longer"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(500), "500B");
        assert_eq!(human_bytes(1_640_000), "1.64MB");
        assert_eq!(human_bytes(8_000), "8.0KB");
    }

    #[test]
    fn cost_reduction_math() {
        assert_eq!(cost_reduction_pct(100, 30), 70.0);
        assert_eq!(cost_reduction_pct(100, 100), 0.0);
        assert_eq!(cost_reduction_pct(0, 10), 0.0);
        assert!(cost_reduction_pct(100, 150) < 0.0);
    }
}
