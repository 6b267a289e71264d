//! Regenerates the pinned golden traces in `tests/golden/`.
//!
//! Run this **only** when a change is intended to alter run behaviour;
//! the `golden_equivalence` test otherwise holds every engine entry point
//! byte-identical to the checked-in artefacts.

use adafl_bench::args::Args;
use adafl_bench::golden;
use std::fs;

fn main() {
    // Takes no flags: anything passed is a mistake, not a silent no-op.
    Args::from_env().reject_unknown();
    let dir = golden::golden_dir();
    fs::create_dir_all(&dir).expect("create tests/golden");
    for case in golden::cases() {
        let artifacts = golden::capture(&case);
        let history_path = dir.join(format!("{}.history.json", case.name));
        let telemetry_path = dir.join(format!("{}.telemetry.csv", case.name));
        fs::write(&history_path, &artifacts.history_json).expect("write history json");
        fs::write(&telemetry_path, &artifacts.telemetry_csv).expect("write telemetry csv");
        println!(
            "{}: {} history bytes, {} telemetry bytes",
            case.name,
            artifacts.history_json.len(),
            artifacts.telemetry_csv.len()
        );
    }
}
