//! Resiliency chaos sweep — compounded faults vs. the reliability layer.
//!
//! Sweeps four fault conditions of increasing hostility
//! (`clean` → `burst` → `burst+crash` → `burst+crash+corrupt`) across two
//! protection modes (`unprotected` fire-and-forget vs. `hardened` retry
//! transport + defensive aggregation gate) for the FedAvg baseline and the
//! AdaFL synchronous engine. Emits Figure-1-style accuracy-vs-round CSV
//! curves on stdout plus a retry/rejection/recovery summary table on
//! stderr.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin resiliency
//! cargo run -p adafl-bench --release --bin resiliency -- --quick
//! cargo run -p adafl-bench --release --bin resiliency -- --rounds 30 --clients 12 --seed 7
//! ```

use adafl_bench::args::Args;
use adafl_bench::runner::{run_sync_with, Resilience, RunResult, Scenario};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_core::AdaFlConfig;
use adafl_fl::FlConfig;
use adafl_telemetry::{names, InMemoryRecorder, Trace};

/// One cell of the chaos sweep: which faults are switched on.
#[derive(Debug, Clone, Copy)]
struct Condition {
    name: &'static str,
    burst_fraction: f64,
    crash_fraction: f64,
    corruption_fraction: f64,
}

const CONDITIONS: [Condition; 4] = [
    Condition {
        name: "clean",
        burst_fraction: 0.0,
        crash_fraction: 0.0,
        corruption_fraction: 0.0,
    },
    Condition {
        name: "burst",
        burst_fraction: 0.5,
        crash_fraction: 0.0,
        corruption_fraction: 0.0,
    },
    Condition {
        name: "burst+crash",
        burst_fraction: 0.5,
        crash_fraction: 0.2,
        corruption_fraction: 0.0,
    },
    Condition {
        name: "burst+crash+corrupt",
        burst_fraction: 0.5,
        crash_fraction: 0.2,
        corruption_fraction: 0.2,
    },
];

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let clients = args.get_usize("clients", 10);
    let rounds = args.get_usize("rounds", if quick { 10 } else { 30 });
    let seed = args.get_u64("seed", 42);
    args.reject_unknown();
    let (train, test) = if quick { (400, 100) } else { (2000, 500) };
    let task = Task::mnist_logreg(train, test, seed);

    let mut runs: Vec<(String, RunResult)> = Vec::new();
    let mut table = report::TextTable::new([
        "condition",
        "mode",
        "strategy",
        "final_acc",
        "updates",
        "retries",
        "xfer_fail",
        "rejects",
        "scrubbed",
        "decode_rej",
        "crashes",
        "recoveries",
        "quorum_skips",
        "corruptions",
        "payload",
        "overhead",
    ]);

    for condition in CONDITIONS {
        for (mode, resilience) in [
            ("unprotected", Resilience::default()),
            ("hardened", Resilience::hardened()),
        ] {
            for strategy in ["fedavg", "adafl"] {
                let fl = FlConfig::builder()
                    .clients(clients)
                    .rounds(rounds)
                    .participation(1.0)
                    .local_steps(3)
                    .batch_size(32)
                    .model(task.model.clone())
                    .seed(seed)
                    .build();
                let scenario = Scenario {
                    network: fleet::burst_loss_network(clients, condition.burst_fraction, seed),
                    compute: fleet::uniform_compute(clients, 0.05, seed),
                    faults: fleet::chaos_plan(
                        clients,
                        condition.crash_fraction,
                        condition.corruption_fraction,
                        seed,
                    ),
                    ada: AdaFlConfig {
                        warmup_rounds: 2,
                        ..AdaFlConfig::default()
                    },
                    resilience: resilience.clone(),
                    ..Scenario::paper(task.clone(), fl)
                };
                let rec = InMemoryRecorder::shared();
                let result = run_sync_with(&scenario, strategy, rec.clone(), None);
                let trace = rec.snapshot();
                eprintln!(
                    "resiliency cond={} mode={mode} strategy={strategy}: final acc {:.3}, {} updates delivered",
                    condition.name,
                    result.history.final_accuracy(),
                    result.uplink_updates,
                );
                table.row([
                    condition.name.to_string(),
                    mode.to_string(),
                    strategy.to_string(),
                    format!("{:.3}", result.history.final_accuracy()),
                    result.uplink_updates.to_string(),
                    counter(&trace, names::NET_RETRIES),
                    counter(&trace, names::NET_RELIABLE_FAILURES),
                    counter(&trace, names::FL_DEFENSE_REJECTIONS),
                    counter(&trace, names::FL_DEFENSE_SCRUBBED),
                    counter(&trace, names::FL_DECODE_REJECTIONS),
                    counter(&trace, names::FL_CRASHES),
                    counter(&trace, names::FL_RECOVERIES),
                    counter(&trace, names::FL_QUORUM_SKIPS),
                    counter(&trace, names::FL_CORRUPTIONS),
                    report::human_bytes(result.uplink_bytes + result.downlink_bytes),
                    report::human_bytes(overhead_bytes(&result)),
                ]);
                runs.push((format!("{},{mode},{strategy}", condition.name), result));
            }
        }
    }

    let refs: Vec<(String, &RunResult)> = runs.iter().map(|(k, r)| (k.clone(), r)).collect();
    print!("{}", report::series_csv("condition,mode,strategy", &refs));
    eprintln!("\n{}", table.render());
}

fn counter(trace: &Trace, name: &str) -> String {
    trace.counters.get(name).copied().unwrap_or(0).to_string()
}

/// Bytes the reliability layer spent beyond the delivered payloads:
/// retransmissions plus ACK control traffic.
fn overhead_bytes(result: &RunResult) -> u64 {
    result.retransmission_bytes + result.control_bytes
}
