//! Server aggregation-path benchmark: the pooled robust pre-aggregation
//! path against the serial reference path, written to `BENCH_server.json`.
//!
//! The reference is the seed's server: one heap vector per densified
//! update, a serial iterator-sum Krum distance matrix (compiled in below),
//! and `fl::robust::oracle`'s full column sorts for trimmed mean and
//! median. The production path fans densify, distances and column blocks
//! across `adafl_fl::pool::WorkerPool`, splits the distance kernel into
//! eight `f64` lanes, and selects the trim and median ranks instead of
//! sorting. Both run in the same process over identical cohorts, so the
//! comparison is machine-independent, and the binary *asserts* the
//! contract the runtime relies on before reporting any number:
//!
//! * pool width 1 and pool width 4 produce bitwise-identical outputs;
//! * blend estimators (trimmed mean, median) match the oracle bitwise;
//! * selection estimators (Multi-Krum) pick the identical client set.
//!
//! Usage: `server_path [--smoke] [--out PATH] [--threads N]`

use adafl_bench::args::Args;
use adafl_bench::report::{self, RunMeta};
use adafl_fl::pool::WorkerPool;
use adafl_fl::robust::{oracle, trim_count, RobustAggregator, RobustMethod};
use adafl_fl::runtime::{RoundUpdate, UpdatePayload};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Seed reference path: per-update heap densify and the serial iterator-sum
// distance matrix, kept verbatim; the column sorts are `robust::oracle`'s.
// ---------------------------------------------------------------------------

/// Seed densify: one fresh heap vector per update.
fn reference_densify(updates: &[RoundUpdate], dim: usize) -> Vec<Vec<f32>> {
    updates
        .iter()
        .map(|u| {
            let mut d = vec![0.0f32; dim];
            u.payload.add_scaled_into(&mut d, 1.0);
            d
        })
        .collect()
}

/// Seed Krum/Multi-Krum selection with the serial iterator-sum distance
/// matrix (one long `f64` dependency chain per pair).
fn reference_krum_select(views: &[&[f32]], f: usize, m: usize) -> Vec<usize> {
    let n = views.len();
    let m = m.clamp(1, n);
    if n == 1 {
        return vec![0];
    }
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s: f64 = views[i]
                .iter()
                .zip(views[j])
                .map(|(&a, &b)| {
                    let e = f64::from(a) - f64::from(b);
                    e * e
                })
                .sum();
            d2[i * n + j] = s;
            d2[j * n + i] = s;
        }
    }
    let k = n.saturating_sub(f + 2).clamp(1, n - 1);
    let mut scores: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut row: Vec<f64> = Vec::with_capacity(n - 1);
    for i in 0..n {
        row.clear();
        row.extend((0..n).filter(|&j| j != i).map(|j| d2[i * n + j]));
        row.sort_by(f64::total_cmp);
        let score: f64 = row[..k].iter().sum();
        scores.push((score, i));
    }
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut selected: Vec<usize> = scores[..m].iter().map(|&(_, i)| i).collect();
    selected.sort_unstable();
    selected
}

/// What the seed path produced for a cohort: a blend estimate or the
/// selected client ids. Enough to assert equivalence with the new path.
enum ReferenceOutcome {
    Estimate(Vec<f32>),
    Selected(Vec<usize>),
}

/// Runs the seed path end to end (sort, densify, estimate).
fn reference_pre_aggregate(
    method: &RobustMethod,
    dim: usize,
    mut updates: Vec<RoundUpdate>,
) -> ReferenceOutcome {
    updates.sort_by_key(|u| u.client);
    let dense = reference_densify(&updates, dim);
    let views: Vec<&[f32]> = dense.iter().map(|d| d.as_slice()).collect();
    match *method {
        RobustMethod::TrimmedMean { trim_ratio } => {
            let trim = trim_count(views.len(), trim_ratio);
            ReferenceOutcome::Estimate(oracle::trimmed_mean(&views, trim))
        }
        RobustMethod::Median => ReferenceOutcome::Estimate(oracle::median(&views)),
        RobustMethod::MultiKrum { f, m } => ReferenceOutcome::Selected(
            reference_krum_select(&views, f, m)
                .into_iter()
                .map(|i| updates[i].client)
                .collect(),
        ),
        _ => unreachable!("benchmark covers trimmed-mean, median, multi-krum"),
    }
}

// ---------------------------------------------------------------------------
// Cohort generation and equivalence checks.
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random cohort: honest updates are small dense
/// noise; every eighth client sign-flips and scales its update so the
/// selection estimators have real outliers to reject.
fn make_cohort(n: usize, dim: usize, seed: u64) -> Vec<RoundUpdate> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    (0..n)
        .map(|c| {
            let byzantine = c % 8 == 7;
            let scale = if byzantine { -3.0f32 } else { 1.0f32 };
            let values: Vec<f32> = (0..dim).map(|_| next() * 1e-2 * scale).collect();
            RoundUpdate {
                client: c,
                payload: UpdatePayload::dense(values),
                weight: 1.0 + (c % 5) as f32,
            }
        })
        .collect()
}

/// Flattens a pre-aggregation result for bitwise comparison.
fn fingerprint(out: &[RoundUpdate], dim: usize) -> Vec<(usize, u32, Vec<u32>)> {
    out.iter()
        .map(|u| {
            let mut d = vec![0.0f32; dim];
            u.payload.add_scaled_into(&mut d, 1.0);
            (
                u.client,
                u.weight.to_bits(),
                d.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Asserts the contract the runtime relies on: pool widths 1 and 4 agree
/// bitwise, and the new path reproduces the seed path (bitwise for blend
/// estimators, identical client set for selection estimators).
fn assert_equivalence(method: &RobustMethod, dim: usize, updates: &[RoundUpdate]) {
    let agg = RobustAggregator::new(*method);
    let pool1 = WorkerPool::new(1);
    let pool4 = WorkerPool::new(4);
    let (out1, _) = agg.pre_aggregate_with(dim, updates.to_vec(), Some(&pool1));
    let (out4, _) = agg.pre_aggregate_with(dim, updates.to_vec(), Some(&pool4));
    assert_eq!(
        fingerprint(&out1, dim),
        fingerprint(&out4, dim),
        "{} differs across pool widths",
        method.as_str()
    );
    match reference_pre_aggregate(method, dim, updates.to_vec()) {
        ReferenceOutcome::Estimate(est) => {
            assert_eq!(out1.len(), 1, "blend estimators emit one update");
            let mut d = vec![0.0f32; dim];
            out1[0].payload.add_scaled_into(&mut d, 1.0);
            let same = est.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} differs from the seed path", method.as_str());
        }
        ReferenceOutcome::Selected(clients) => {
            let new_clients: Vec<usize> = out1.iter().map(|u| u.client).collect();
            assert_eq!(
                new_clients,
                clients,
                "{} selects a different client set than the seed path",
                method.as_str()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Timing and reporting.
// ---------------------------------------------------------------------------

#[derive(serde::Serialize)]
struct ServerEntry {
    method: String,
    clients: usize,
    dim: usize,
    reps: usize,
    reference_ms: f64,
    pooled_ms: f64,
    speedup: f64,
    reference_updates_per_sec: f64,
    pooled_updates_per_sec: f64,
}

#[derive(serde::Serialize)]
struct Report {
    schema: String,
    smoke: bool,
    meta: RunMeta,
    entries: Vec<ServerEntry>,
}

/// Min-of-batches wall time for one closure, in milliseconds: the min
/// rejects scheduler noise.
fn time_ms(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn bench_method(
    method: RobustMethod,
    n: usize,
    dim: usize,
    reps: usize,
    batches: usize,
    pool: &WorkerPool,
) -> ServerEntry {
    let updates = make_cohort(n, dim, 0x5eed + n as u64);
    assert_equivalence(&method, dim, &updates);
    let agg = RobustAggregator::new(method);
    // Both closures clone the cohort per rep so the copy cost cancels out
    // of the comparison; keep the results observable.
    let reference_ms = time_ms(batches, || {
        for _ in 0..reps {
            let out = reference_pre_aggregate(&method, dim, updates.clone());
            match out {
                ReferenceOutcome::Estimate(e) => assert!(e[0].is_finite()),
                ReferenceOutcome::Selected(s) => assert!(!s.is_empty()),
            }
        }
    }) / reps as f64;
    let pooled_ms = time_ms(batches, || {
        for _ in 0..reps {
            let (out, _) = agg.pre_aggregate_with(dim, updates.clone(), Some(pool));
            assert!(!out.is_empty());
        }
    }) / reps as f64;
    ServerEntry {
        method: method.as_str().to_string(),
        clients: n,
        dim,
        reps,
        reference_ms,
        pooled_ms,
        speedup: reference_ms / pooled_ms,
        reference_updates_per_sec: n as f64 / (reference_ms * 1e-3),
        pooled_updates_per_sec: n as f64 / (pooled_ms * 1e-3),
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let out = args.out("BENCH_server.json");
    let threads = args.threads();
    args.reject_unknown();
    let pool = WorkerPool::new(threads);

    let (cohorts, dim): (&[usize], usize) = if smoke {
        (&[16, 64], 512)
    } else {
        (&[64, 256, 1024], 8192)
    };
    eprintln!(
        "server-path benchmark ({}), dim {dim}, {threads} thread(s)...",
        if smoke { "smoke" } else { "full" }
    );
    let mut entries = Vec::new();
    for &n in cohorts {
        // A Multi-Krum distance matrix is O(n²·dim); keep full runs of the
        // largest cohort to a handful of repetitions.
        let (reps, batches) = if smoke || n >= 1024 { (1, 2) } else { (2, 3) };
        let f = n / 8;
        for method in [
            RobustMethod::MultiKrum { f, m: n - 2 * f },
            RobustMethod::TrimmedMean { trim_ratio: 0.2 },
            RobustMethod::Median,
        ] {
            let e = bench_method(method, n, dim, reps, batches, &pool);
            eprintln!(
                "  {:<13} n={:<5} ref {:9.3} ms  pooled {:9.3} ms  {:5.2}x  ({:.0} upd/s)",
                e.method,
                e.clients,
                e.reference_ms,
                e.pooled_ms,
                e.speedup,
                e.pooled_updates_per_sec
            );
            entries.push(e);
        }
    }

    let report = Report {
        schema: "adafl.bench.server.v1".to_string(),
        smoke,
        meta: RunMeta::current(threads),
        entries,
    };
    report::write_json(out, &report);
}
