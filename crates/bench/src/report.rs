//! Reporting helpers: CSV series, aligned text tables, run provenance and
//! the JSON report writer.

use crate::runner::{RunResult, Scenario};
use adafl_compression::dense_wire_size;

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

/// Prints a CSV header followed by every run's records, tagged with extra
/// key columns (e.g. distribution, straggler fraction).
///
/// Output format:
/// `<extra columns>,label,round,sim_time_s,accuracy,loss,uplink_bytes,uplink_updates,contributors`
pub fn print_series(extra_header: &str, runs: &[(String, &RunResult)]) {
    print!("{}", series_csv(extra_header, runs));
}

/// The exact CSV text [`print_series`] emits, as a string (trailing newline
/// included) so tests can assert on it byte for byte.
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

/// What a run's uplink is measured against: the same scenario with every
/// update sent dense and nobody left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseReference {
    /// Wire size of one dense update of the scenario's model.
    pub payload: u64,
    /// Uplink bytes of the dense full-participation run: every client
    /// updating every round (sync), or twice the update budget (async).
    pub total: u64,
}

impl DenseReference {
    /// The reference for `scenario` under the synchronous or asynchronous
    /// protocol.
    pub fn of(scenario: &Scenario, asynchronous: bool) -> Self {
        let payload = dense_wire_size(scenario.task.model.build(0).param_count()) as u64;
        let updates = if asynchronous {
            2 * scenario.update_budget
        } else {
            (scenario.fl.clients * scenario.fl.rounds) as u64
        };
        DenseReference {
            payload,
            total: updates * payload,
        }
    }
}

/// The `summary` report: one aligned row per run — its key cells (a grid
/// point's axis labels), then final and best accuracy, update count, uplink
/// bytes, mean uplink payload, the compression that payload realises against
/// a dense update, and the uplink bytes saved against
/// [`DenseReference::total`]. Every cell is measured from the run.
pub fn summary_table(keys: &[String], runs: &[(Vec<String>, RunResult, DenseReference)]) -> String {
    let mut table = TextTable::new(keys.iter().map(String::as_str).chain([
        "final_acc",
        "best_acc",
        "updates",
        "uplink_bytes",
        "mean_payload",
        "compress",
        "cost_reduc",
    ]));
    for (labels, run, dense) in runs {
        let compress = if run.uplink_updates == 0 {
            "-".to_string()
        } else {
            format!("{:.1}x", dense.payload as f64 / run.mean_uplink_payload)
        };
        table.row(labels.iter().cloned().chain([
            format!("{:.2}%", run.history.final_accuracy() * 100.0),
            format!("{:.2}%", run.history.best_accuracy() * 100.0),
            run.uplink_updates.to_string(),
            human_bytes(run.uplink_bytes),
            human_bytes(run.mean_uplink_payload as u64),
            compress,
            format!("{:.1}%", cost_reduction_pct(dense.total, run.uplink_bytes)),
        ]));
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
