//! Section V, Q3 — computational overhead of AdaFL's two components.
//!
//! The paper profiles CPU cycles on a Raspberry Pi cluster with `perf` and
//! finds utility-score calculation adds ~0.05 % over baseline training,
//! while gradient compression costs more but is offset by skipped work.
//! Offline substitution (DESIGN.md): we measure wall time of the same
//! computations on this host — the *relative* ordering is the claim under
//! test.
//!
//! ```text
//! cargo run -p adafl-bench --release --bin overhead
//! ```

use adafl_bench::args::Args;
use adafl_bench::report;
use adafl_bench::tasks::Task;
use adafl_compression::DgcCompressor;
use adafl_core::{utility_score, SimilarityMetric, UtilityInputs};
use adafl_fl::FlClient;
use adafl_netsim::LinkProfile;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let reps = args.get_usize("reps", 200);
    let seed = args.get_u64("seed", 42);
    args.reject_unknown();

    let task = Task::mnist_cnn(600, 100, seed);
    let mut client = FlClient::new(
        0,
        task.model.build(seed),
        task.train.clone(),
        0.05,
        0.9,
        32,
        seed,
    );
    let global = client.model().params_flat();
    let dim = global.len();
    eprintln!("model dimension: {dim} parameters");

    // Baseline: one local training round (5 steps), the unit the paper's
    // cycle counts are relative to.
    let t0 = Instant::now();
    for _ in 0..reps {
        client.train_local(&global, 5, None);
    }
    let train_time = t0.elapsed().as_secs_f64() / reps as f64;

    // Component 1: utility-score calculation (probe gradient + similarity).
    let g_hat: Vec<f32> = global.iter().map(|x| x * 0.01).collect();
    let link = LinkProfile::Constrained.spec();
    let t1 = Instant::now();
    for _ in 0..reps {
        let probe = client.probe_gradient();
        let s = utility_score(
            &UtilityInputs {
                local_gradient: &probe,
                global_gradient: &g_hat,
                link,
                expected_payload: 14_000,
            },
            SimilarityMetric::Cosine,
            0.7,
        );
        std::hint::black_box(s);
    }
    let utility_time = t1.elapsed().as_secs_f64() / reps as f64;

    // Utility score alone (similarity math, no probe) — the pure
    // "calculation" cost.
    let probe = client.probe_gradient();
    let t1b = Instant::now();
    for _ in 0..reps * 10 {
        let s = utility_score(
            &UtilityInputs {
                local_gradient: &probe,
                global_gradient: &g_hat,
                link,
                expected_payload: 14_000,
            },
            SimilarityMetric::Cosine,
            0.7,
        );
        std::hint::black_box(s);
    }
    let score_only_time = t1b.elapsed().as_secs_f64() / (reps * 10) as f64;

    // Component 2: DGC compression at a mid ratio.
    let mut dgc = DgcCompressor::new(dim, 0.9, 10.0);
    let outcome = client.train_local(&global, 5, None);
    let t2 = Instant::now();
    for _ in 0..reps {
        let u = dgc.compress(&outcome.delta, 50.0);
        std::hint::black_box(u.nnz());
    }
    let compress_time = t2.elapsed().as_secs_f64() / reps as f64;

    let pct = |t: f64| format!("{:.3}%", t / train_time * 100.0);
    let mut table = report::TextTable::new(["component", "time_per_round", "vs_training"]);
    table.row([
        "local training (5 steps)".to_string(),
        format!("{:.3}ms", train_time * 1e3),
        "100%".to_string(),
    ]);
    table.row([
        "utility score (pure math)".to_string(),
        format!("{:.4}ms", score_only_time * 1e3),
        pct(score_only_time),
    ]);
    table.row([
        "utility score (incl. probe)".to_string(),
        format!("{:.3}ms", utility_time * 1e3),
        pct(utility_time),
    ]);
    table.row([
        "DGC compression (50x)".to_string(),
        format!("{:.3}ms", compress_time * 1e3),
        pct(compress_time),
    ]);
    println!("{}", table.render());

    println!(
        "paper reference: utility score ≈ 0.05% extra CPU cycles; compression larger but offset by skipped work"
    );
    assert!(
        score_only_time < train_time * 0.05,
        "utility-score math should be negligible next to training"
    );
}
