//! Heterogeneous-capacity sweep — submodel (sub-view) training vs. the
//! full-model baseline.
//!
//! Sweeps four fleet capacity mixes over the paper's CNN task:
//!
//! * `full` — every client trains the full model (plain FedAvg, no
//!   capacity policy; the byte-identical legacy path);
//! * `tiered-static` — a fixed ~25/50/25 mix of full / half-width /
//!   quarter-width clients ([`adafl_fl::submodel::StaticCapacity`]-style `client % tiers`
//!   assignment);
//! * `tiered-adaptive` — the same ladder driven by
//!   [`AdaptiveCapacity`](adafl_core::AdaptiveCapacity): alignment with
//!   the previous global direction promotes/demotes clients;
//! * `quarter` — every client at quarter width, the lower envelope.
//!
//! Tiered clients receive only their sub-view plus its descriptor on the
//! downlink and upload view-local updates, so both directions of the
//! ledger shrink. The binary always asserts the claim the sweep exists to
//! check: the static tiered mix reaches the accuracy target calibrated on
//! the full run while moving strictly fewer uplink+downlink bytes.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin submodel
//! cargo run -p adafl-bench --release --bin submodel -- --quick
//! cargo run -p adafl-bench --release --bin submodel -- --smoke   # CI assertion mode
//! ```
//!
//! `--smoke` additionally skips writing `BENCH_submodel.json`.

use adafl_bench::args::Args;
use adafl_bench::runner::{run_sync, Capacity, Resilience, Scenario};
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_fl::submodel::CapacityTier;
use adafl_fl::FlConfig;

/// One fleet capacity mix.
#[derive(Debug, Clone)]
struct Mix {
    name: &'static str,
    capacity: Option<Capacity>,
}

fn mixes() -> [Mix; 4] {
    let ladder = vec![
        CapacityTier::Full,
        CapacityTier::Width(0.5),
        CapacityTier::Width(0.5),
        CapacityTier::Width(0.25),
    ];
    [
        Mix {
            name: "full",
            capacity: None,
        },
        Mix {
            name: "tiered-static",
            capacity: Some(Capacity {
                tiers: ladder.clone(),
                adaptive: false,
            }),
        },
        Mix {
            name: "tiered-adaptive",
            capacity: Some(Capacity {
                tiers: vec![
                    CapacityTier::Full,
                    CapacityTier::Width(0.5),
                    CapacityTier::Width(0.25),
                ],
                adaptive: true,
            }),
        },
        Mix {
            name: "quarter",
            capacity: Some(Capacity {
                tiers: vec![CapacityTier::Width(0.25)],
                adaptive: false,
            }),
        },
    ]
}

/// One cell of `BENCH_submodel.json`.
#[derive(Debug, serde::Serialize)]
struct Cell {
    mix: String,
    adaptive: bool,
    tiers: Vec<String>,
    final_accuracy: f32,
    accuracy_target: f32,
    reaches_target: bool,
    time_to_target_s: Option<f64>,
    uplink_bytes: u64,
    downlink_bytes: u64,
    total_bytes: u64,
    bytes_vs_full: f64,
}

#[derive(Debug, serde::Serialize)]
struct SubmodelReport {
    seed: u64,
    clients: usize,
    rounds: usize,
    accuracy_target: f32,
    full_accuracy: f32,
    cells: Vec<Cell>,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let clients = args.get_usize("clients", 10);
    let rounds = args.get_usize("rounds", if quick { 12 } else { 24 });
    let seed = args.get_u64("seed", 42);
    let out = args.out("BENCH_submodel.json");
    args.reject_unknown();
    let (train, test) = if quick { (600, 150) } else { (2000, 500) };
    let task = Task::mnist_cnn(train, test, seed);

    let mut cells: Vec<Cell> = Vec::new();
    let mut table = report::TextTable::new([
        "mix",
        "final_acc",
        "target",
        "ttt_s",
        "uplink",
        "downlink",
        "vs_full",
    ]);
    let mut full_total = 0u64;
    let mut full_accuracy = 0.0f32;
    let mut target = 0.0f32;
    for mix in mixes() {
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
            network: fleet::broadband_network(clients, seed),
            compute: fleet::uniform_compute(clients, 0.05, seed),
            resilience: Resilience {
                capacity: mix.capacity.clone(),
                ..Resilience::default()
            },
            ..Scenario::paper(task.clone(), fl)
        };
        let run = run_sync(&scenario, "fedavg");
        let final_accuracy = run.history.final_accuracy();
        let total = run.uplink_bytes + run.downlink_bytes;
        if mix.name == "full" {
            // Calibrate the target on the full-model run so the sweep
            // measures degradation relative to what this fleet can reach.
            full_total = total;
            full_accuracy = final_accuracy;
            target = 0.85 * full_accuracy;
            eprintln!(
                "submodel calibration: full-model FedAvg reaches \
                 {full_accuracy:.3}, accuracy target {target:.3}"
            );
        }
        let cell = Cell {
            mix: mix.name.to_string(),
            adaptive: mix.capacity.as_ref().is_some_and(|c| c.adaptive),
            tiers: mix
                .capacity
                .as_ref()
                .map(|c| c.tiers.iter().map(|t| t.canonical()).collect())
                .unwrap_or_default(),
            final_accuracy,
            accuracy_target: target,
            reaches_target: final_accuracy >= target,
            time_to_target_s: run.history.time_to_accuracy(target).map(|t| t.seconds()),
            uplink_bytes: run.uplink_bytes,
            downlink_bytes: run.downlink_bytes,
            total_bytes: total,
            bytes_vs_full: total as f64 / full_total.max(1) as f64,
        };
        eprintln!(
            "submodel mix={}: final acc {:.3} ({} target), {} total bytes \
             ({:.2}x full)",
            cell.mix,
            cell.final_accuracy,
            if cell.reaches_target {
                "reaches"
            } else {
                "MISSES"
            },
            cell.total_bytes,
            cell.bytes_vs_full,
        );
        table.row([
            cell.mix.clone(),
            format!("{:.3}", cell.final_accuracy),
            if cell.reaches_target { "ok" } else { "miss" }.to_string(),
            cell.time_to_target_s
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            report::human_bytes(cell.uplink_bytes),
            report::human_bytes(cell.downlink_bytes),
            format!("{:.2}x", cell.bytes_vs_full),
        ]);
        cells.push(cell);
    }
    eprintln!("\n{}", table.render());

    // The claim the sweep exists to check: a tiered fleet keeps the
    // accuracy of the full-model baseline while moving strictly fewer
    // bytes in both directions combined.
    let tiered = find(&cells, "tiered-static");
    let full = find(&cells, "full");
    assert!(
        tiered.reaches_target,
        "tiered-static was expected to reach the {target:.3} target \
         (reached {:.3})",
        tiered.final_accuracy
    );
    assert!(
        tiered.total_bytes < full.total_bytes,
        "tiered-static was expected to move strictly fewer bytes than the \
         full-model baseline ({} vs {})",
        tiered.total_bytes,
        full.total_bytes
    );
    let quarter = find(&cells, "quarter");
    assert!(
        quarter.total_bytes < tiered.total_bytes,
        "the all-quarter fleet is the lower envelope of the byte sweep \
         ({} vs {})",
        quarter.total_bytes,
        tiered.total_bytes
    );
    eprintln!(
        "submodel check: tiered-static reaches {:.3} >= {target:.3} with \
         {:.2}x the full-model bytes",
        tiered.final_accuracy, tiered.bytes_vs_full
    );

    if !smoke {
        let report = SubmodelReport {
            seed,
            clients,
            rounds,
            accuracy_target: target,
            full_accuracy,
            cells,
        };
        report::write_json(out, &report);
    }
}

fn find<'a>(cells: &'a [Cell], mix: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.mix == mix)
        .expect("sweep covered every capacity mix")
}
