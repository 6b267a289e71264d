//! Golden-trace capture: canonical scenarios whose full run artefacts
//! (history, ledger totals, telemetry stream) are pinned byte-for-byte in
//! `tests/golden/`.
//!
//! The traces were captured from the pre-runtime-refactor engines; the
//! `golden_equivalence` integration test replays every case through the
//! current code and compares the rendered artefacts as exact strings, so
//! any behavioural drift in selection order, RNG consumption, ledger
//! charging or telemetry emission order fails loudly.
//!
//! Regenerate (only when a change is *meant* to alter behaviour) with:
//!
//! ```text
//! cargo run --release -p adafl-bench --bin golden_traces
//! ```

use crate::fleet;
use crate::runner::{self, Resilience, RunResult, Scenario};
use crate::tasks::Task;
use adafl_core::AdaFlConfig;
use adafl_data::partition::Partitioner;
use adafl_fl::faults::FaultPlan;
use adafl_fl::sync::StaticCompression;
use adafl_fl::FlConfig;
use adafl_telemetry::{export, InMemoryRecorder};

/// Which protocol loop a golden case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Round-synchronous engine.
    Sync,
    /// Event-driven asynchronous engine.
    Async,
}

/// One pinned scenario: a named (protocol, strategy, seed, environment)
/// combination small enough to replay in milliseconds.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    /// File-stem for the checked-in artefacts.
    pub name: &'static str,
    /// Sync or async protocol loop.
    pub protocol: Protocol,
    /// Strategy name as accepted by [`runner::run_sync_with`] / [`runner::run_async_with`].
    pub strategy: &'static str,
    /// Base seed threaded through `FlConfig::seed`.
    pub seed: u64,
    /// Lossy links + crash/corruption faults + retry/defense when true.
    pub hardened: bool,
}

/// The rendered artefacts of one golden run.
#[derive(Debug, Clone)]
pub struct GoldenArtifacts {
    /// Full-precision history + ledger totals as canonical JSON.
    pub history_json: String,
    /// Telemetry stream (wall-clock zeroed) as CSV.
    pub telemetry_csv: String,
}

/// Every pinned case: sync+async × baseline+AdaFL × two seeds, plus
/// hardened variants covering retry transport, the defensive gate, crash
/// checkpoints, corruption faults and the round deadline.
pub fn cases() -> Vec<GoldenCase> {
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        for (protocol, strategy) in [
            (Protocol::Sync, "fedavg"),
            (Protocol::Sync, "adafl"),
            (Protocol::Async, "fedasync"),
            (Protocol::Async, "adafl"),
        ] {
            out.push(GoldenCase {
                name: leak_name(protocol, strategy, seed, false),
                protocol,
                strategy,
                seed,
                hardened: false,
            });
        }
    }
    for (protocol, strategy) in [
        (Protocol::Sync, "fedavg"),
        (Protocol::Sync, "adafl"),
        (Protocol::Async, "fedasync"),
        (Protocol::Async, "adafl"),
    ] {
        out.push(GoldenCase {
            name: leak_name(protocol, strategy, 1, true),
            protocol,
            strategy,
            seed: 1,
            hardened: true,
        });
    }
    out
}

/// Builds the stable artefact file-stem for a case.
fn leak_name(protocol: Protocol, strategy: &str, seed: u64, hardened: bool) -> &'static str {
    let proto = match protocol {
        Protocol::Sync => "sync",
        Protocol::Async => "async",
    };
    let env = if hardened { "hardened" } else { "clean" };
    Box::leak(format!("{proto}-{strategy}-{env}-s{seed}").into_boxed_str())
}

/// Builds the scenario for a case. Kept deliberately small (6 clients,
/// 6 rounds / 30 updates, logistic regression) so the equivalence test
/// replays the whole set in seconds.
pub fn scenario(case: &GoldenCase) -> Scenario {
    let clients = 6;
    let task = Task::mnist_logreg(300, 80, 0);
    let mut fl = FlConfig::builder()
        .clients(clients)
        .rounds(6)
        .participation(0.8)
        .local_steps(3)
        .batch_size(16)
        .model(task.model.clone())
        .seed(case.seed)
        .build();
    if case.hardened && case.protocol == Protocol::Sync && case.strategy != "adafl" {
        // Exercise the §III max-wait deadline path in one pinned trace.
        fl.round_deadline = Some(2.0);
    }
    let (network, compute, faults, resilience) = if case.hardened {
        (
            fleet::burst_loss_network(clients, 0.5, case.seed),
            if case.protocol == Protocol::Sync && case.strategy != "adafl" {
                // One straggler past the deadline, the rest fast.
                adafl_fl::compute::ComputeModel::heterogeneous(vec![
                    1.0, 0.05, 0.05, 0.05, 0.05, 0.05,
                ])
            } else {
                fleet::uniform_compute(clients, 0.05, case.seed)
            },
            fleet::chaos_plan(clients, 0.2, 0.2, case.seed),
            Resilience::hardened(),
        )
    } else {
        (
            fleet::broadband_network(clients, case.seed),
            fleet::uniform_compute(clients, 0.05, case.seed),
            FaultPlan::reliable(clients),
            Resilience::default(),
        )
    };
    Scenario {
        ada: AdaFlConfig {
            max_selected: 3,
            warmup_rounds: 2,
            ..AdaFlConfig::default()
        },
        partitioner: Partitioner::Iid,
        update_budget: 30,
        fl,
        task,
        network,
        compute,
        faults,
        resilience,
        compression: StaticCompression::None,
    }
}

/// Replays one case through the runner with tracing attached and renders
/// its pinned artefacts.
pub fn capture(case: &GoldenCase) -> GoldenArtifacts {
    let recorder = InMemoryRecorder::shared();
    let scenario = scenario(case);
    let result = match case.protocol {
        Protocol::Sync => runner::run_sync_with(&scenario, case.strategy, recorder.clone(), None),
        Protocol::Async => runner::run_async_with(&scenario, case.strategy, recorder.clone()),
    };
    // Wall-clock micros are the only nondeterministic field; zero them so
    // the CSV is byte-stable across machines and runs.
    let trace = recorder.snapshot().without_wall_times();
    let mut telemetry_csv = Vec::new();
    export::write_csv(&mut telemetry_csv, &trace).expect("write csv to memory");
    GoldenArtifacts {
        history_json: render_history_json(&result),
        telemetry_csv: String::from_utf8(telemetry_csv).expect("csv is utf-8"),
    }
}

/// Renders the run history plus ledger totals as canonical JSON with
/// full-precision floats (Rust's shortest-round-trip formatting), so two
/// runs match iff every value is bit-identical.
pub fn render_history_json(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"label\": \"{}\",\n  \"records\": [\n",
        result.history.label()
    ));
    let records = result.history.records();
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"round\": {}, \"sim_time\": {}, \"accuracy\": {}, \"loss\": {}, \
             \"uplink_bytes\": {}, \"uplink_updates\": {}, \"contributors\": {}}}{}\n",
            r.round,
            r.sim_time.seconds(),
            r.accuracy,
            r.loss,
            r.uplink_bytes,
            r.uplink_updates,
            r.contributors,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"ledger\": {{\"uplink_bytes\": {}, \"downlink_bytes\": {}, \"uplink_updates\": {}, \
         \"mean_uplink_payload\": {}, \"retransmission_bytes\": {}, \"control_bytes\": {}}}\n",
        result.uplink_bytes,
        result.downlink_bytes,
        result.uplink_updates,
        result.mean_uplink_payload,
        result.retransmission_bytes,
        result.control_bytes,
    ));
    out.push_str("}\n");
    out
}

/// Repo-relative directory the golden artefacts live in.
pub fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_names_are_unique() {
        let cases = cases();
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len());
    }

    #[test]
    fn capture_is_deterministic() {
        let case = &cases()[0];
        let a = capture(case);
        let b = capture(case);
        assert_eq!(a.history_json, b.history_json);
        assert_eq!(a.telemetry_csv, b.telemetry_csv);
    }
}
