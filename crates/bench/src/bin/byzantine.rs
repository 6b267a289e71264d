//! Byzantine chaos matrix — seeded attacker models vs. robust
//! pre-aggregators.
//!
//! Sweeps four attack conditions (`clean`, `sign-flip` at 30% of the
//! fleet, `boost` ×(−10) at 30%, `little-is-enough` at 30%) across six
//! defenses (undefended FedAvg plus the five [`RobustMethod`] estimators
//! running between the defense screen and aggregation). Every attacker
//! rewrites its *encoded* update bytes through the fault plan, so the
//! attacks compose with any codec; every defense sees the identically
//! seeded attack stream. The sweep reports final accuracy,
//! time-to-target, attack counts and per-defense rejection/trim
//! telemetry per cell, and writes the matrix to `BENCH_byzantine.json`.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin byzantine
//! cargo run -p adafl-bench --release --bin byzantine -- --quick
//! cargo run -p adafl-bench --release --bin byzantine -- --smoke   # CI assertion mode
//! ```
//!
//! The binary always asserts the breakdown-point claim the matrix exists
//! to check: under the sign-flip attack (f < n/2 attackers), undefended
//! FedAvg misses the accuracy target calibrated on the clean run while at
//! least one robust pre-aggregator reaches it. `--smoke` additionally
//! skips writing the JSON report.

use adafl_bench::args::Args;
use adafl_bench::runner::{run_sync_with, Resilience, Scenario};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::robust::RobustMethod;
use adafl_fl::FlConfig;
use adafl_telemetry::{names, InMemoryRecorder, Trace};

/// One attack condition: which [`FaultKind`] the armed prefix mounts.
#[derive(Debug, Clone, Copy)]
struct Attack {
    name: &'static str,
    kind: Option<FaultKind>,
    fraction: f64,
}

fn attacks() -> [Attack; 4] {
    [
        Attack {
            name: "clean",
            kind: None,
            fraction: 0.0,
        },
        Attack {
            name: "sign-flip",
            kind: Some(FaultKind::SignFlip),
            fraction: 0.3,
        },
        Attack {
            name: "boost",
            kind: Some(FaultKind::Boost { factor: -10.0 }),
            fraction: 0.3,
        },
        Attack {
            name: "little-is-enough",
            kind: Some(FaultKind::LittleIsEnough { epsilon: 0.3 }),
            fraction: 0.3,
        },
    ]
}

/// One defense column: `None` is the undefended FedAvg baseline.
fn defenses() -> [(&'static str, Option<RobustMethod>); 6] {
    [
        ("fedavg", None),
        (
            "trimmed-mean",
            Some(RobustMethod::TrimmedMean { trim_ratio: 0.3 }),
        ),
        ("median", Some(RobustMethod::Median)),
        ("krum", Some(RobustMethod::Krum { f: 3 })),
        ("multi-krum", Some(RobustMethod::MultiKrum { f: 3, m: 5 })),
        (
            "geometric-median",
            Some(RobustMethod::GeometricMedian {
                max_iters: 64,
                tol: 1e-9,
            }),
        ),
    ]
}

/// One cell of `BENCH_byzantine.json`.
#[derive(Debug, serde::Serialize)]
struct Cell {
    attack: String,
    attack_fraction: f64,
    defense: String,
    final_accuracy: f32,
    accuracy_target: f32,
    reaches_target: bool,
    time_to_target_s: Option<f64>,
    delivered_updates: u64,
    attacks: u64,
    rejected_updates: u64,
    trimmed_values: u64,
}

#[derive(Debug, serde::Serialize)]
struct ByzantineReport {
    seed: u64,
    clients: usize,
    rounds: usize,
    accuracy_target: f32,
    clean_accuracy: f32,
    cells: Vec<Cell>,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let clients = args.get_usize("clients", 10);
    let rounds = args.get_usize("rounds", if quick { 12 } else { 24 });
    let seed = args.get_u64("seed", 42);
    let out = args.out("BENCH_byzantine.json");
    args.reject_unknown();
    let (train, test) = if quick { (600, 150) } else { (2000, 500) };
    let task = Task::mnist_logreg(train, test, seed);

    // Calibrate the accuracy target on the clean undefended run, so the
    // matrix measures degradation relative to what this fleet can
    // actually reach, whatever the round count or sample budget.
    let clean = run_cell(&task, clients, rounds, seed, None, 0.0, None);
    let clean_accuracy = clean.history.final_accuracy();
    let target = 0.9 * clean_accuracy;
    eprintln!(
        "byzantine calibration: clean FedAvg reaches {clean_accuracy:.3}, \
         accuracy target {target:.3}"
    );

    let mut cells = Vec::new();
    let mut table = report::TextTable::new([
        "attack",
        "defense",
        "final_acc",
        "target",
        "ttt_s",
        "attacks",
        "rejected",
        "trimmed",
    ]);
    for attack in attacks() {
        for (defense, method) in defenses() {
            let run = run_cell(
                &task,
                clients,
                rounds,
                seed,
                attack.kind,
                attack.fraction,
                method,
            );
            let final_accuracy = run.history.final_accuracy();
            let cell = Cell {
                attack: attack.name.to_string(),
                attack_fraction: attack.fraction,
                defense: defense.to_string(),
                final_accuracy,
                accuracy_target: target,
                reaches_target: final_accuracy >= target,
                time_to_target_s: run.history.time_to_accuracy(target).map(|t| t.seconds()),
                delivered_updates: run.delivered_updates,
                attacks: run.attacks,
                rejected_updates: run.rejected_updates,
                trimmed_values: run.trimmed_values,
            };
            eprintln!(
                "byzantine attack={} defense={defense}: final acc {:.3} ({} target)",
                attack.name,
                cell.final_accuracy,
                if cell.reaches_target {
                    "reaches"
                } else {
                    "MISSES"
                },
            );
            table.row([
                cell.attack.clone(),
                cell.defense.clone(),
                format!("{:.3}", cell.final_accuracy),
                if cell.reaches_target { "ok" } else { "miss" }.to_string(),
                cell.time_to_target_s
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "-".to_string()),
                cell.attacks.to_string(),
                cell.rejected_updates.to_string(),
                cell.trimmed_values.to_string(),
            ]);
            cells.push(cell);
        }
    }
    eprintln!("\n{}", table.render());

    // The claim the matrix exists to check: with f < n/2 sign-flippers,
    // plain FedAvg misses the target some robust pre-aggregator reaches.
    let undefended = find(&cells, "sign-flip", "fedavg");
    assert!(
        !undefended.reaches_target,
        "undefended FedAvg was expected to miss the {target:.3} target under \
         sign-flip at {:.0}% (reached {:.3})",
        undefended.attack_fraction * 100.0,
        undefended.final_accuracy
    );
    let survivors: Vec<&str> = cells
        .iter()
        .filter(|c| c.attack == "sign-flip" && c.defense != "fedavg" && c.reaches_target)
        .map(|c| c.defense.as_str())
        .collect();
    assert!(
        !survivors.is_empty(),
        "no robust pre-aggregator reached the {target:.3} target under sign-flip"
    );
    eprintln!(
        "byzantine check: sign-flip sinks undefended FedAvg to {:.3} < {target:.3}; \
         robust survivors: {}",
        undefended.final_accuracy,
        survivors.join(", ")
    );

    if !smoke {
        let report = ByzantineReport {
            seed,
            clients,
            rounds,
            accuracy_target: target,
            clean_accuracy,
            cells,
        };
        report::write_json(out, &report);
    }
}

/// Outcome of one (attack, defense) run before target calibration.
struct CellRun {
    history: adafl_fl::RunHistory,
    delivered_updates: u64,
    attacks: u64,
    rejected_updates: u64,
    trimmed_values: u64,
}

fn run_cell(
    task: &Task,
    clients: usize,
    rounds: usize,
    seed: u64,
    kind: Option<FaultKind>,
    fraction: f64,
    method: Option<RobustMethod>,
) -> CellRun {
    let fl = FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .participation(1.0)
        .local_steps(3)
        .batch_size(64)
        .model(task.model.clone())
        .seed(seed)
        .build();
    let faults = match kind {
        Some(kind) => {
            assert!(kind.is_attack(), "needs an attack kind, got {kind:?}");
            FaultPlan::with_fraction(clients, fraction, kind, seed)
        }
        None => FaultPlan::reliable(clients),
    };
    let scenario = Scenario {
        network: fleet::broadband_network(clients, seed),
        compute: fleet::uniform_compute(clients, 0.05, seed),
        resilience: Resilience {
            robust: method,
            ..Resilience::default()
        },
        faults,
        ..Scenario::paper(task.clone(), fl)
    };
    let rec = InMemoryRecorder::shared();
    let result = run_sync_with(&scenario, "fedavg", rec.clone(), None);
    let trace = rec.snapshot();
    CellRun {
        delivered_updates: result.uplink_updates,
        attacks: counter(&trace, names::FL_ATTACKS),
        rejected_updates: counter(&trace, names::FL_ROBUST_REJECTED),
        trimmed_values: counter(&trace, names::FL_ROBUST_TRIMMED),
        history: result.history,
    }
}

fn find<'a>(cells: &'a [Cell], attack: &str, defense: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.attack == attack && c.defense == defense)
        .expect("sweep covered every (attack, defense) cell")
}

fn counter(trace: &Trace, name: &str) -> u64 {
    trace.counters.get(name).copied().unwrap_or(0)
}
