//! Fleet-scale scalability: streaming aggregation over pooled cohorts.
//!
//! The paper validates AdaFL up to 100 clients; this benchmark pushes the
//! same round machinery to six-figure fleets by combining the three
//! fleet-scale mechanisms: cohort scheduling (`cohort_size`), the
//! streaming fold (updates aggregate as they arrive instead of buffering
//! the whole cohort) and the cohort-resident client pool (live model
//! replicas are O(cohort), not O(clients)). It emits a clients vs
//! wall-clock / peak-RSS curve as `BENCH_scale.json`.
//!
//! Before sweeping, the binary asserts streaming parity at small scale:
//! the streaming fold and its buffered-replay counterpart must produce
//! byte-identical global parameters, ledgers and histories.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin scalability              # full sweep (to 100k)
//! cargo run -p adafl-bench --release --bin scalability -- --smoke   # parity + tiny sweep
//! ```
//!
//! The paper's own §V table (10..100 resident clients, FedAvg vs. AdaFL) is
//! `run_config --config configs/scalability_paper.json`.
//!
//! Also `--seed N` (default 42), `--out PATH` and `--threads N` (default:
//! host parallelism).

use adafl_bench::args::Args;
use adafl_bench::report::{self, RunMeta};
use adafl_core::policies::AdaFlAggregation;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::runtime::{
    RandomSelection, RuntimeBuilder, SinkMode, StaticCompressionPolicy, SyncPolicies, SyncRuntime,
};
use adafl_fl::sync::StaticCompression;
use adafl_fl::{FlConfig, ShardSource};
use adafl_nn::models::ModelSpec;

/// Generates each client's shard on demand, so no run ever holds more
/// than one cohort's data resident — the piece that lets the sweep reach
/// 100k clients without 100k shards in memory.
#[derive(Debug)]
struct SyntheticShardSource {
    clients: usize,
    per_client: usize,
    side: usize,
    seed: u64,
}

impl ShardSource for SyntheticShardSource {
    fn clients(&self) -> usize {
        self.clients
    }

    fn shard(&self, client: usize) -> Dataset {
        assert!(client < self.clients, "client out of range");
        // Deterministic per-client seed: the same client always sees the
        // same shard, whichever pool slot materialises it.
        let seed = self
            .seed
            .wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SyntheticSpec::mnist_like(self.side, self.per_client).generate(seed)
    }
}

const SIDE: usize = 16; // 256 features
const PER_CLIENT: usize = 24;

#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    clients: usize,
    rounds: usize,
    participation: f64,
    cohort_size: usize,
    edge_aggregators: usize,
}

fn model() -> ModelSpec {
    ModelSpec::LogisticRegression {
        in_features: SIDE * SIDE,
        classes: 10,
    }
}

/// The sweep point's runtime: streaming, or with `buffered_fold` its
/// buffered-replay parity reference.
fn build_runtime(p: &SweepPoint, seed: u64, threads: usize, buffered_fold: bool) -> SyncRuntime {
    let fl = FlConfig::builder()
        .clients(p.clients)
        .rounds(p.rounds)
        .participation(p.participation)
        .local_steps(2)
        .batch_size(16)
        .model(model())
        .seed(seed)
        .cohort_size(p.cohort_size)
        .edge_aggregators(p.edge_aggregators)
        .build();
    let test_set = SyntheticSpec::mnist_like(SIDE, 256).generate(seed ^ 0xABCD);
    let policies = SyncPolicies {
        selection: Box::new(RandomSelection::new(fl.seed_for("selection"))),
        compression: Box::new(StaticCompressionPolicy::new(
            StaticCompression::None,
            fl.seed_for("compression"),
        )),
        aggregation: Box::new(AdaFlAggregation),
        enforce_deadline: true,
    };
    let source = SyntheticShardSource {
        clients: p.clients,
        per_client: PER_CLIENT,
        side: SIDE,
        seed,
    };
    RuntimeBuilder::new(fl, test_set)
        .shard_source(Box::new(source))
        .threads(Some(threads))
        .buffered_fold(buffered_fold)
        .build_sync_runtime(policies)
}

#[derive(Debug, serde::Serialize)]
struct ParityCheck {
    clients: usize,
    rounds: usize,
    params_bitwise_equal: bool,
    ledger_equal: bool,
    history_equal: bool,
}

/// Runs the same scenario once with the streaming fold and once with its
/// buffered-replay counterpart, asserting byte-identical results. This is
/// the in-bin version of the `streaming_parity` integration test, kept
/// here so every checked-in report re-proves the property it relies on.
fn parity_check(clients: usize, seed: u64, threads: usize) -> ParityCheck {
    let p = SweepPoint {
        clients,
        rounds: 3,
        participation: 0.5,
        cohort_size: (clients / 4).max(1),
        edge_aggregators: 4,
    };
    let mut streaming = build_runtime(&p, seed, threads, false);
    assert_eq!(streaming.sink_mode(), SinkMode::Streaming);
    let mut buffered = build_runtime(&p, seed, threads, true);
    assert_eq!(buffered.sink_mode(), SinkMode::BufferedFold);

    let hist_s = streaming.run();
    let hist_b = buffered.run();

    let params_equal = streaming
        .global_params()
        .iter()
        .zip(buffered.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let check = ParityCheck {
        clients,
        rounds: p.rounds,
        params_bitwise_equal: params_equal,
        ledger_equal: streaming.ledger() == buffered.ledger(),
        history_equal: hist_s == hist_b,
    };
    assert!(
        check.params_bitwise_equal,
        "streaming and buffered-fold global parameters diverged"
    );
    assert!(
        check.ledger_equal,
        "streaming and buffered-fold ledgers diverged"
    );
    assert!(
        check.history_equal,
        "streaming and buffered-fold histories diverged"
    );
    assert!(
        streaming.ledger().relay_bytes() > 0,
        "edge aggregators must charge partial transfers"
    );
    check
}

#[derive(Debug, serde::Serialize)]
struct ScaleRow {
    clients: usize,
    rounds: usize,
    participants_per_round: usize,
    cohort_size: usize,
    edge_aggregators: usize,
    resident_clients: usize,
    wall_ms: f64,
    /// Peak RSS over this row (`VmHWM`), watermark reset per row when the
    /// kernel allows it; monotonic process peak otherwise (see
    /// [`ScaleRow::rss_watermark_reset`]).
    peak_rss_bytes: Option<u64>,
    rss_watermark_reset: bool,
    final_accuracy: f64,
    uplink_bytes: u64,
    relay_bytes: u64,
}

fn run_point(p: &SweepPoint, seed: u64, threads: usize) -> ScaleRow {
    // Reset the kernel's peak-RSS watermark so each row reports its own
    // peak rather than the largest row's; without the privilege to reset,
    // fall back to the monotonic process peak (still an upper bound).
    let reset = report::reset_peak_rss();
    let start = std::time::Instant::now();
    let mut rt = build_runtime(p, seed, threads, false);
    let history = rt.run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ScaleRow {
        clients: p.clients,
        rounds: p.rounds,
        participants_per_round: (p.clients as f64 * p.participation).round() as usize,
        cohort_size: p.cohort_size,
        edge_aggregators: p.edge_aggregators,
        resident_clients: rt.resident_clients(),
        wall_ms,
        peak_rss_bytes: report::peak_rss_bytes(),
        rss_watermark_reset: reset,
        final_accuracy: f64::from(history.final_accuracy()),
        uplink_bytes: rt.ledger().uplink_bytes(),
        relay_bytes: rt.ledger().relay_bytes(),
    }
}

#[derive(Debug, serde::Serialize)]
struct Report {
    schema: String,
    smoke: bool,
    meta: RunMeta,
    parity: ParityCheck,
    rows: Vec<ScaleRow>,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let seed = args.get_u64("seed", 42);
    let out = args.out("BENCH_scale.json");
    let threads = args.threads();
    args.reject_unknown();

    eprintln!(
        "fleet-scale benchmark ({}), {threads} thread(s)...",
        if smoke { "smoke" } else { "full" }
    );
    let parity = parity_check(if smoke { 64 } else { 256 }, seed, threads);
    eprintln!(
        "parity: streaming == buffered-fold at {} clients (params/ledger/history bitwise)",
        parity.clients
    );

    let points: Vec<SweepPoint> = if smoke {
        vec![200, 400]
    } else {
        vec![1_000, 10_000, 100_000]
    }
    .into_iter()
    .map(|clients| SweepPoint {
        clients,
        rounds: 2,
        // Keep absolute training work bounded as the fleet grows: the
        // sweep measures fleet-size overheads (state, scheduling,
        // aggregation), not raw SGD throughput.
        participation: (2_000.0 / clients as f64).min(0.5),
        cohort_size: 256.min(clients),
        edge_aggregators: 8,
    })
    .collect();

    let mut rows = Vec::new();
    for p in &points {
        let row = run_point(p, seed, threads);
        eprintln!(
            "  N={:<7} {} resident, {:>10.1} ms, peak RSS {}",
            row.clients,
            row.resident_clients,
            row.wall_ms,
            row.peak_rss_bytes
                .map(report::human_bytes)
                .unwrap_or_else(|| "n/a".to_string()),
        );
        rows.push(row);
    }

    let report = Report {
        schema: "adafl.bench.scale.v1".to_string(),
        smoke,
        meta: RunMeta::current(threads),
        parity,
        rows,
    };
    report::write_json(out, &report);
}
