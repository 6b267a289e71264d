//! Renders harness CSV output (fig1/fig3) into an SVG line chart.
//!
//! ```text
//! ./target/release/run_config --config configs/fig3_sync.json > fig3_sync.csv
//! ./target/release/plot --input fig3_sync.csv --x round \
//!     --title "Figure 3(a,b)" --output fig3_sync.svg
//! ```
//!
//! `--x` selects the x-axis column (`round` for synchronous experiments,
//! `sim_time_s` for asynchronous ones). `--filter substr` keeps only series
//! whose key contains the substring (e.g. `--filter noniid` for one panel).

use adafl_bench::args::Args;
use adafl_bench::plot::{series_from_csv, LinePlot};
use std::fs;

fn main() {
    let args = Args::from_env();
    let input = args.get("input").expect("--input <csv file> is required");
    let output = args.get("output").expect("--output <svg file> is required");
    let x_column = args.get("x").unwrap_or("round");
    let title = args.get("title").unwrap_or("accuracy").to_string();
    let filter = args.get("filter");
    args.reject_unknown();

    let csv = fs::read_to_string(input).unwrap_or_else(|e| panic!("cannot read {input}: {e}"));
    let mut plot = LinePlot::new(
        title,
        if x_column == "round" {
            "communication round"
        } else {
            "simulated time (s)"
        },
        "test accuracy",
    );
    let mut kept = 0usize;
    for series in series_from_csv(&csv, x_column) {
        if filter.is_none_or(|f| series.name.contains(f)) {
            plot.push_series(series);
            kept += 1;
        }
    }
    fs::write(output, plot.render()).unwrap_or_else(|e| panic!("cannot write {output}: {e}"));
    eprintln!("wrote {output} with {kept} series");
}
