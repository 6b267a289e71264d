//! The experiment index is the bin list plus the config list, and every paper
//! experiment runs: DESIGN.md §3 names exactly the binaries under `src/bin/`
//! (each of which rejects the flags it does not read) and the files under
//! `configs/`, and each figure / table exits 0 at its smallest size with the
//! header its consumers read — the two sweeps at their whole `quick` size, so
//! their claims are checked here too.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// File stems of `dir`'s entries with extension `ext`.
fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .map(|path| path.file_stem().unwrap().to_str().unwrap().to_string())
        .collect()
}

#[test]
fn design_index_names_exactly_the_bins() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = stems(&root.join("src/bin"), "rs");
    for name in &bins {
        // Nothing makes a main call it, so a bin that forgets would be back
        // to ignoring misspelt flags.
        let source = std::fs::read_to_string(root.join(format!("src/bin/{name}.rs"))).unwrap();
        assert!(
            source.contains(".reject_unknown();"),
            "{name} never rejects the flags it does not read"
        );
    }
    let configs = stems(&root.join("../../configs"), "json");

    let design = std::fs::read_to_string(root.join("../../DESIGN.md")).expect("DESIGN.md");
    let index = design
        .split("\n## 3. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has the experiment index section");
    // The identifier following each `marker` in the index's table rows.
    let named = |marker: &str| -> BTreeSet<String> {
        index
            .lines()
            .filter(|line| line.starts_with('|') && line.contains("-p adafl-bench"))
            .flat_map(|line| line.split(marker).skip(1))
            .map(|rest| {
                rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .filter(|name| !name.is_empty())
            .collect()
    };

    assert_eq!(
        bins,
        named("--bin "),
        "src/bin/*.rs vs. DESIGN.md experiment index"
    );
    assert_eq!(
        configs,
        named("configs/"),
        "configs/*.json vs. DESIGN.md experiment index"
    );
}

/// Columns `report::series_csv` appends after an experiment's key columns.
const SERIES: &str =
    "label round sim_time_s accuracy loss uplink_bytes uplink_updates contributors";
/// Columns `report::summary_table` appends after them.
const SUMMARY: &str = "final_acc best_acc updates uplink_bytes mean_payload compress cost_reduc";
/// Columns a `target` adds to those.
const TARGET: &str = "reaches_target time_to_target_s";

/// Runs `run_config args` from the repository root.
fn run_config(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_config"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("binary spawns")
}

/// Runs `exe args` from the repository root, demanding exit 0 and `header`
/// (CSV or aligned-table columns, compared cell by cell) as the first stdout
/// line.
fn runs(exe: &str, args: &str, header: &str) {
    let out = Command::new(exe)
        .args(args.split(' '))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("binary spawns");
    assert!(
        out.status.success(),
        "{exe} {args} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let cells = |line: &str| -> Vec<String> {
        line.split(|c: char| c == ',' || c.is_whitespace())
            .filter(|cell| !cell.is_empty())
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        cells(stdout.lines().next().unwrap_or_default()),
        cells(header),
        "{exe} {args}"
    );
}

// One test per invocation, so the harness runs them on parallel threads;
// each config at its `quick` size with the smallest round count on top.
macro_rules! paper_experiments_run {
    ($($test:ident: $bin:literal, $args:literal => $header:expr;)*) => {$(
        #[test]
        fn $test() {
            runs(env!(concat!("CARGO_BIN_EXE_", $bin)), $args, &$header);
        }
    )*};
}

paper_experiments_run! {
    fig1_sync_runs: "run_config", "--config configs/fig1_sync.json --quick --rounds 1"
        => format!("model dist fault straggler_frac {SERIES}");
    fig1_async_runs: "run_config", "--config configs/fig1_async.json --quick --update_budget 10"
        => format!("dist fault straggler_frac {SERIES}");
    fig3_sync_runs: "run_config", "--config configs/fig3_sync.json --quick --rounds 1"
        => format!("dist {SERIES}");
    fig3_async_runs: "run_config", "--config configs/fig3_async.json --quick --update_budget 10"
        => format!("dist {SERIES}");
    table1_runs: "run_config", "--config configs/table1.json --quick --rounds 1"
        => format!("task strategy dist {SUMMARY}");
    table2_runs: "run_config", "--config configs/table2.json --quick --update_budget 10"
        => format!("task strategy dist {SUMMARY}");
    ablation_runs: "run_config", "--config configs/ablation.json --quick --rounds 1"
        => format!("variant {SUMMARY}");
    extensions_runs: "run_config", "--config configs/extensions.json --quick --rounds 1"
        => format!("variant {SUMMARY}");
    byzantine_runs: "run_config", "--config configs/byzantine.json --quick"
        => format!("attack defense {SUMMARY} {TARGET}");
    submodel_runs: "run_config", "--config configs/submodel.json --quick"
        => format!("mix {SUMMARY} {TARGET}");
    overhead_runs: "overhead", "--reps 2" => "component time_per_round vs_training";
}

/// A key the schema lacks stops `run_config` with its name on stderr and a
/// failing exit code, before anything runs.
#[test]
fn run_config_refuses_a_field_the_schema_lacks() {
    let out = run_config(&["--config", "configs/table1.json", "--quick", "--round", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown field `round`"), "{stderr}");
}

/// Runs a small attacked scenario (so its run counts something) whose only
/// claim is `claim`, with `extra` arguments: exit code, stdout, stderr.
fn claiming(stem: &str, claim: &str, extra: &[&str]) -> (Option<i32>, String, String) {
    let file = std::env::temp_dir().join(format!("{stem}_{}.json", std::process::id()));
    let text = format!(
        r#"{{ "protocol": "sync", "strategy": "fedavg", "task": "mnist-logreg", "partition": "Iid",
              "train_samples": 200, "test_samples": 40, "clients": 4, "rounds": 2, "participation": 1.0,
              "fault": "sign-flip", "report": "summary", "claims": [{{ {claim} }}] }}"#
    );
    std::fs::write(&file, text).expect("temp file is writable");
    let out = run_config(
        &[
            &["--config", file.to_str().expect("utf-8 temp path")],
            extra,
        ]
        .concat(),
    );
    std::fs::remove_file(file).expect("temp file is removable");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// A false claim fails the run by name — after the report, which still prints.
#[test]
fn run_config_fails_a_false_claim_by_name() {
    let claim = r#""name": "nobody uploads", "column": "updates", "equals": 0"#;
    let (code, stdout, stderr) = claiming("false_claim", claim, &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.starts_with("final_acc "), "{stdout}");
    assert!(
        stderr.contains("claim FAILED: nobody uploads (8 vs 0)"),
        "{stderr}"
    );
    // Overridden, it is another experiment: the verdict is not the file's.
    let (code, _, stderr) = claiming("skipped_claim", claim, &["--rounds", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("claim skipped: nobody uploads (4 vs 0)"),
        "{stderr}"
    );
}

/// The stamped report holds nothing of the host or the clock: two runs write
/// the same bytes.
#[test]
fn run_config_out_is_byte_stable() {
    let claim = r#""name": "somebody uploads", "column": "updates", "at_least": 1"#;
    let out = std::env::temp_dir().join(format!("stable_out_{}.out", std::process::id()));
    let report = || {
        let (code, _, stderr) = claiming("stable_out", claim, &["--out", out.to_str().unwrap()]);
        assert_eq!(code, Some(0), "{stderr}");
        std::fs::read_to_string(&out).expect("--out wrote the report")
    };
    let first = report();
    assert_eq!(first, report());
    for stamped in [
        "\"points_hash\"",
        "\"fl.attacks\": 2",
        "\"verdict\": \"ok\"",
    ] {
        assert!(first.contains(stamped), "{stamped} missing from {first}");
    }
    std::fs::remove_file(out).expect("report is removable");
}
