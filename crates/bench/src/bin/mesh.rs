//! Mesh routing sweep — naive static routing vs. cost-aware dynamic
//! rerouting under relay failure schedules.
//!
//! Runs the FedAvg baseline over a dual-homed access mesh (every client
//! has a fast primary relay and a slow backup relay; see
//! [`fleet::dual_homed_mesh`]) while a seeded schedule knocks out a
//! growing fraction of the primary relays mid-run. The naive
//! [`StaticShortestPath`] planner plans each route once and fails hard
//! when its relay dies; [`CostAwareDijkstra`] re-plans on the live graph
//! and detours over the backups. The sweep reports round-completion rate,
//! update-delivery rate and time-to-accuracy per (intensity, planner)
//! cell and writes the result table to `BENCH_mesh.json`.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin mesh
//! cargo run -p adafl-bench --release --bin mesh -- --quick
//! cargo run -p adafl-bench --release --bin mesh -- --smoke   # CI assertion mode
//! ```
//!
//! The binary always asserts that the cost-aware planner strictly beats
//! the naive one on round completion at the highest failure intensity;
//! `--smoke` additionally skips writing the JSON report.

use adafl_bench::args::Args;
use adafl_bench::tasks::Task;
use adafl_bench::{fleet, report};
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::{FlConfig, RunHistory};
use adafl_netsim::{CostAwareDijkstra, LinkSpec, RoutePlanner, StaticShortestPath};
use adafl_telemetry::{names, InMemoryRecorder, SharedRecorder, Trace};

/// One sweep cell: how many primary relays fail, and whether they return.
#[derive(Debug, Clone, Copy)]
struct Intensity {
    name: &'static str,
    /// Fraction of the primary relays failing.
    fraction: f64,
    /// Whether the failed relays recover before the run ends.
    recovers: bool,
}

const INTENSITIES: [Intensity; 3] = [
    Intensity {
        name: "light",
        fraction: 0.25,
        recovers: true,
    },
    Intensity {
        name: "heavy",
        fraction: 0.5,
        recovers: true,
    },
    Intensity {
        name: "blackout",
        fraction: 1.0,
        recovers: false,
    },
];

/// One row of `BENCH_mesh.json`.
#[derive(Debug, serde::Serialize)]
struct Cell {
    intensity: String,
    fraction: f64,
    recovers: bool,
    planner: &'static str,
    failed_relays: usize,
    rounds: usize,
    completed_rounds: usize,
    completion_rate: f64,
    delivery_rate: f64,
    final_accuracy: f32,
    accuracy_target: f32,
    time_to_accuracy_s: Option<f64>,
    reroutes: u64,
    partitions: u64,
    relay_bytes: u64,
    total_bytes_with_control: u64,
}

#[derive(Debug, serde::Serialize)]
struct MeshReport {
    seed: u64,
    clients: usize,
    relay_pairs: usize,
    rounds: usize,
    fail_at_s: f64,
    recover_at_s: f64,
    cells: Vec<Cell>,
}

fn primary_hop() -> LinkSpec {
    LinkSpec::new(4.0e6, 4.0e6, 0.01, 0.01, 0.0)
}

fn backup_hop() -> LinkSpec {
    LinkSpec::new(0.5e6, 0.5e6, 0.08, 0.08, 0.0)
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let clients = args.get_usize("clients", 12);
    let relays = args.get_usize("relays", 4);
    let rounds = args.get_usize("rounds", if quick { 10 } else { 24 });
    let seed = args.get_u64("seed", 42);
    let out = args.out("BENCH_mesh.json");
    args.reject_unknown();
    let (train, test) = if quick { (400, 100) } else { (1500, 400) };
    let task = Task::mnist_logreg(train, test, seed);

    // Calibrate the failure window and accuracy target on a clean run, so
    // the schedule lands mid-run whatever the round count is: failures
    // strike at 30% of the clean run's simulated duration and (for the
    // recovering intensities) heal at 70%.
    let clean = run_cell(
        &task, clients, relays, rounds, seed, None, 0.0, 0.0, false, true,
    );
    let total_s = clean
        .history
        .records()
        .last()
        .expect("clean run produced rounds")
        .sim_time
        .seconds();
    let fail_at = total_s * 0.3;
    let recover_at = total_s * 0.7;
    let target = 0.85 * clean.history.final_accuracy();
    eprintln!(
        "mesh calibration: clean run {total_s:.1}s sim, fail at {fail_at:.1}s, \
         recover at {recover_at:.1}s, accuracy target {target:.3}"
    );

    let mut cells = Vec::new();
    let mut table = report::TextTable::new([
        "intensity",
        "planner",
        "failed",
        "completed",
        "delivery",
        "final_acc",
        "tta_s",
        "reroutes",
        "partitions",
        "relay_traffic",
    ]);
    for intensity in INTENSITIES {
        for dynamic in [false, true] {
            let cell = run_cell(
                &task,
                clients,
                relays,
                rounds,
                seed,
                Some(intensity),
                fail_at,
                recover_at,
                dynamic,
                false,
            );
            let row = summarize(&cell, &intensity, rounds, target);
            eprintln!(
                "mesh intensity={} planner={}: {}/{} rounds complete, final acc {:.3}",
                intensity.name, row.planner, row.completed_rounds, rounds, row.final_accuracy
            );
            table.row([
                row.intensity.clone(),
                row.planner.to_string(),
                row.failed_relays.to_string(),
                format!("{}/{}", row.completed_rounds, row.rounds),
                format!("{:.2}", row.delivery_rate),
                format!("{:.3}", row.final_accuracy),
                row.time_to_accuracy_s
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "-".to_string()),
                row.reroutes.to_string(),
                row.partitions.to_string(),
                report::human_bytes(row.relay_bytes),
            ]);
            cells.push(row);
        }
    }
    eprintln!("\n{}", table.render());

    // The claim the sweep exists to check: at the highest intensity the
    // naive planner loses rounds the cost-aware planner completes.
    let worst = INTENSITIES.last().unwrap().name;
    let naive = find(&cells, worst, "naive");
    let dynamic = find(&cells, worst, "dynamic");
    assert!(
        naive.completed_rounds < rounds,
        "naive planner was expected to fail rounds at intensity {worst} \
         (completed {}/{rounds})",
        naive.completed_rounds
    );
    assert!(
        dynamic.completion_rate > naive.completion_rate,
        "cost-aware routing should strictly beat naive at intensity {worst}: \
         {} vs {} rounds complete",
        dynamic.completed_rounds,
        naive.completed_rounds
    );
    eprintln!(
        "mesh check: at intensity {worst}, cost-aware completed {}/{rounds} rounds \
         vs naive {}/{rounds}",
        dynamic.completed_rounds, naive.completed_rounds
    );

    if !smoke {
        let report = MeshReport {
            seed,
            clients,
            relay_pairs: relays,
            rounds,
            fail_at_s: fail_at,
            recover_at_s: recover_at,
            cells,
        };
        report::write_json(out, &report);
    }
}

/// Outcome of one (intensity, planner) run.
struct CellRun {
    history: RunHistory,
    planner: &'static str,
    cohort: usize,
    failed: Vec<usize>,
    relay_bytes: u64,
    total_bytes_with_control: u64,
    trace: Trace,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    task: &Task,
    clients: usize,
    relays: usize,
    rounds: usize,
    seed: u64,
    intensity: Option<Intensity>,
    fail_at: f64,
    recover_at: f64,
    dynamic: bool,
    quiet: bool,
) -> CellRun {
    let mut layout = fleet::dual_homed_mesh(clients, relays, primary_hop(), backup_hop());
    let failed = match intensity {
        Some(cell) => {
            // Primary relays are node ids 1..=relays by construction.
            let primaries: Vec<usize> = (1..=relays).collect();
            fleet::schedule_outages_among(
                &mut layout,
                &primaries,
                cell.fraction,
                fail_at,
                cell.recovers.then_some(recover_at),
                seed,
            )
        }
        None => Vec::new(),
    };
    let planner: Box<dyn RoutePlanner> = if dynamic {
        Box::new(CostAwareDijkstra::default())
    } else {
        Box::new(StaticShortestPath)
    };
    let planner_label = planner.label();
    let fl = FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .participation(1.0)
        .local_steps(3)
        .batch_size(32)
        .model(task.model.clone())
        .seed(seed)
        .build();
    let cohort = fl.participants_per_round();
    let network = layout.into_network(planner, seed);
    let memory = InMemoryRecorder::shared();
    let recorder: SharedRecorder = if quiet {
        adafl_telemetry::noop()
    } else {
        memory.clone()
    };
    let mut engine = RuntimeBuilder::new(fl, task.test.clone())
        .partitioned(&task.train, adafl_data::partition::Partitioner::Iid)
        .network(network)
        .compute(fleet::uniform_compute(clients, 0.05, seed))
        .recorder(recorder)
        .build_sync(Box::new(FedAvg::new()));
    let history = engine.run();
    let ledger = engine.ledger();
    CellRun {
        cohort,
        planner: planner_label,
        failed,
        relay_bytes: ledger.relay_bytes(),
        total_bytes_with_control: ledger.total_bytes_with_control(),
        trace: memory.snapshot(),
        history,
    }
}

fn summarize(cell: &CellRun, intensity: &Intensity, rounds: usize, target: f32) -> Cell {
    let completed = cell
        .history
        .records()
        .iter()
        .filter(|r| r.contributors == cell.cohort)
        .count();
    let delivered: usize = cell.history.records().iter().map(|r| r.contributors).sum();
    Cell {
        intensity: intensity.name.to_string(),
        fraction: intensity.fraction,
        recovers: intensity.recovers,
        planner: cell.planner,
        failed_relays: cell.failed.len(),
        rounds,
        completed_rounds: completed,
        completion_rate: completed as f64 / rounds as f64,
        delivery_rate: delivered as f64 / (rounds * cell.cohort) as f64,
        final_accuracy: cell.history.final_accuracy(),
        accuracy_target: target,
        time_to_accuracy_s: cell.history.time_to_accuracy(target).map(|t| t.seconds()),
        reroutes: counter(&cell.trace, names::MESH_REROUTES),
        partitions: counter(&cell.trace, names::MESH_PARTITIONS),
        relay_bytes: cell.relay_bytes,
        total_bytes_with_control: cell.total_bytes_with_control,
    }
}

fn find<'a>(cells: &'a [Cell], intensity: &str, planner: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.intensity == intensity && c.planner == planner)
        .expect("sweep covered every (intensity, planner) cell")
}

fn counter(trace: &Trace, name: &str) -> u64 {
    trace.counters.get(name).copied().unwrap_or(0)
}
