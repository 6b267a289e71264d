//! The binary against the driver's contract and `BENCHMARK.json`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Parses any JSON document into the shim's value tree.
struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    parse(&text)
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// A `--seconds 2` invocation of every workload in both modes prints
/// exactly the names `BENCHMARK.json` lists, well-formed, with no failed
/// operation.
#[test]
fn every_workload_prints_the_declared_metrics() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = names(&spec, key);
        for workload in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_adafl-benchmark"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
                .args(["--trace", trace])
                .output()
                .expect("the benchmark binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            assert!(
                stderr.lines().any(|l| l.starts_with("meta ")),
                "{workload}: no metadata line on stderr"
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload} --trace {trace}: {stderr}"
            );
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let printed = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("a metrics object");
            let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(printed_names, declared, "{workload} --trace {trace}");
            for (name, metric) in printed {
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name:?}"
                );
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
                assert!(metric.get("unit").and_then(Value::as_str).is_some());
            }
        }
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from).expect("read directory") {
        let entry = entry.expect("directory entry");
        let name = entry.file_name();
        // Build outputs and traces are not part of a checkout.
        if name == "target" || name == "out" {
            continue;
        }
        let (src, dst) = (entry.path(), to.join(&name));
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy file");
        }
    }
}

/// In a directory that holds only `BENCHMARK.json` and `benchmark/`, the
/// command exits non-zero without a result line: the program's sources
/// are missing, so nothing can be measured.
#[test]
fn fails_without_the_program_sources() {
    let spec = spec();
    let command: Vec<&str> = spec
        .get("command")
        .and_then(Value::as_array)
        .expect("a command")
        .iter()
        .map(|part| part.as_str().expect("a string"))
        .collect();
    let bare = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bare-checkout");
    let _ = std::fs::remove_dir_all(&bare);
    copy_tree(&repo_root().join("benchmark"), &bare.join("benchmark"));
    std::fs::copy(
        repo_root().join("BENCHMARK.json"),
        bare.join("BENCHMARK.json"),
    )
    .expect("copy BENCHMARK.json");
    let out = Command::new(command[0])
        .args(&command[1..])
        .args(["--workload", "sync_cnn_adafl", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(&bare)
        .env("CARGO_TARGET_DIR", bare.join(".bench_build"))
        .output()
        .expect("cargo runs");
    assert!(!out.status.success(), "must not succeed without crates/");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
        "must not print a result"
    );
    let _ = std::fs::remove_dir_all(&bare);
}
