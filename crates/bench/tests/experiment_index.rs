//! The experiment index is the bin list, and every paper bin runs: DESIGN.md
//! §3 names exactly the binaries under `src/bin/`, each of which rejects the
//! flags it does not read, and each figure / table main exits 0 at its
//! smallest size with the header its consumers read.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn design_index_names_exactly_the_bins() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("src/bin")).expect("src/bin exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        // Nothing makes a main call it, so a bin that forgets would be back
        // to ignoring misspelt flags.
        let source = std::fs::read_to_string(&path).expect("readable bin");
        assert!(
            source.contains(".reject_unknown();"),
            "{name} never rejects the flags it does not read"
        );
        bins.insert(name);
    }

    let design = std::fs::read_to_string(root.join("../../DESIGN.md")).expect("DESIGN.md");
    let index = design
        .split("\n## 3. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has the experiment index section");
    let indexed: BTreeSet<String> = index
        .lines()
        .filter(|line| line.starts_with('|') && line.contains("-p adafl-bench"))
        .flat_map(|line| line.split("--bin ").skip(1))
        .map(|rest| {
            rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap()
                .to_string()
        })
        .collect();

    assert_eq!(bins, indexed, "src/bin/*.rs vs. DESIGN.md experiment index");
}

/// Columns `report::print_series` appends after a binary's key columns.
const SERIES: &str =
    "label round sim_time_s accuracy loss uplink_bytes uplink_updates contributors";
const TABLE: &str =
    "method task clients particip update_freq cost_reduc grad_size compress acc_iid acc_noniid";

/// Runs `exe args`, demanding exit 0 and `header` (CSV or aligned-table
/// columns, compared cell by cell) as the first stdout line.
fn runs(exe: &str, args: &str, header: &str) {
    let out = Command::new(exe)
        .args(args.split(' '))
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

// One test per invocation, so the harness runs them on parallel threads.
macro_rules! paper_bins_run {
    ($($test:ident: $bin:literal, $args:literal => $header:expr;)*) => {$(
        #[test]
        fn $test() {
            runs(env!(concat!("CARGO_BIN_EXE_", $bin)), $args, &$header);
        }
    )*};
}

paper_bins_run! {
    fig1_sync_runs: "fig1", "--protocol sync --quick --model cnn --rounds 1"
        => format!("model dist fault straggler_frac {SERIES}");
    fig1_async_runs: "fig1", "--protocol async --quick --budget 10"
        => format!("dist fault straggler_frac {SERIES}");
    fig3_sync_runs: "fig3", "--protocol sync --quick --rounds 1" => format!("dist {SERIES}");
    fig3_async_runs: "fig3", "--protocol async --quick --budget 10" => format!("dist {SERIES}");
    table1_runs: "table1", "--quick --rounds 1" => TABLE;
    table2_runs: "table2", "--quick --budget 10" => TABLE;
    ablation_runs: "ablation", "--quick --rounds 1"
        => "variant final_acc best_acc uplink_bytes updates";
    extensions_runs: "extensions", "--quick --rounds 1"
        => "variant final_acc uplink_bytes mean_payload updates";
    overhead_runs: "overhead", "--reps 2" => "component time_per_round vs_training";
}
