//! Per-layer probes: direct timed calls into each layer's public entry
//! points, at the shapes the workloads use.
//!
//! Probes are not host-paired. Each is the minimum over short batches
//! (≤ 10 ms, ≥ 30 of them where one call fits a batch), which repeated
//! within 0.7–5 % across host phases: a batch that short either escapes a
//! stolen quantum entirely or is discarded by the minimum.

use crate::workloads::{cnn_spec, fleet, logreg_spec, mlp_spec, robust, sync_cnn, SIDE};
use adafl_compression::{top_k, DgcCompressor};
use adafl_core::policies::AdaFlAggregation;
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::client::evaluate_model;
use adafl_fl::defense::{DefenseConfig, DefenseGate};
use adafl_fl::pool::WorkerPool;
use adafl_fl::robust::{RobustAggregator, RobustMethod};
use adafl_fl::runtime::{
    AggregationPolicy, RoundIo, RoundUpdate, StreamAccumulator, UpdatePayload, WireForm,
};
use adafl_fl::{ClientPool, FlClient, VecShardSource};
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, SimTime};
use adafl_nn::loss::CrossEntropyLoss;
use adafl_nn::models::ModelSpec;
use adafl_nn::ModelWorkspace;
use adafl_telemetry::{InMemoryRecorder, Recorder, SpanRecord};
use adafl_tensor::{im2col_into, matmul_into, matmul_nt, matmul_tn, Conv2dGeometry, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Target length of one timed batch.
const BATCH_S: f64 = 0.007;
/// Target length of one whole probe.
const PROBE_S: f64 = 0.25;

/// Seconds per `call`: the minimum over batches of the batch mean.
fn seconds_per_call(mut call: impl FnMut()) -> f64 {
    call();
    let start = Instant::now();
    call();
    let one = start.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((BATCH_S / one) as usize).clamp(1, 1 << 22);
    let batches = ((PROBE_S / (one * per_batch as f64)) as usize).clamp(3, 40);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            call();
        }
        best = best.min(start.elapsed().as_secs_f64() / per_batch as f64);
    }
    best
}

/// Dense pseudo-random values in (−0.5, 0.5) · `scale`, none exactly zero.
fn noise(len: usize, salt: u64, scale: f32) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5) * scale + 1e-6
        })
        .collect()
}

fn data(samples: usize) -> Dataset {
    SyntheticSpec::mnist_like(SIDE, samples).generate(7)
}

/// `(m, k, n)` of the CNN's three heaviest products: conv1 and conv2 as
/// `out_channels × patch × patches`, fc1 as `batch × in × out`.
const MATMUL_SHAPES: [(usize, usize, usize); 3] = [(20, 25, 144), (50, 500, 4), (32, 50, 500)];

type MatmulKernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Geometric-mean GFLOP/s of `kernel` over [`MATMUL_SHAPES`].
fn matmul_gflops(kernel: MatmulKernel, transposed_a: bool) -> f64 {
    let mut log_sum = 0.0;
    for (m, k, n) in MATMUL_SHAPES {
        let a = noise(m * k, 1, 1.0);
        let b = noise(k * n, 2, 1.0);
        let mut c = vec![0.0f32; m * n];
        // The TN kernel takes (k, m, n); the others (m, k, n).
        let (p0, p1) = if transposed_a { (k, m) } else { (m, k) };
        let s = seconds_per_call(|| {
            c.fill(0.0);
            kernel(black_box(&a), black_box(&b), &mut c, p0, p1, n);
            black_box(&c);
        });
        log_sum += (2.0 * (m * k * n) as f64 / s / 1e9).ln();
    }
    (log_sum / MATMUL_SHAPES.len() as f64).exp()
}

fn im2col_mb_s() -> f64 {
    // conv1 and conv2 of the 16 × 16 CNN.
    let geoms = [
        Conv2dGeometry::new(1, 16, 16, 5, 1, 0),
        Conv2dGeometry::new(20, 6, 6, 5, 1, 0),
    ];
    let mut bytes = 0.0;
    let mut seconds = 0.0;
    for geom in geoms {
        let img = noise(geom.input_volume(), 3, 1.0);
        let mut cols = vec![0.0f32; geom.patch_len() * geom.n_patches()];
        seconds += seconds_per_call(|| {
            im2col_into(black_box(&img), &geom, &mut cols);
            black_box(&cols);
        });
        bytes += 4.0 * cols.len() as f64;
    }
    bytes / seconds / 1e6
}

/// `(forward µs, backward µs)` of `spec` at `batch`.
fn forward_backward_us(spec: &ModelSpec, batch: usize) -> (f64, f64) {
    let set = data(batch);
    let (x, labels) = set.full_batch();
    let mut model = spec.build(1);
    let mut ws = ModelWorkspace::new();
    let (mut logits, mut dlogits, mut dinput) =
        (Tensor::default(), Tensor::default(), Tensor::default());
    let fwd = seconds_per_call(|| {
        model.forward_into(black_box(&x), &mut logits, true, &mut ws);
    });
    CrossEntropyLoss.loss_and_grad_into(&logits, &labels, &mut dlogits);
    let bwd = seconds_per_call(|| {
        model.zero_grads();
        model.backward_into(black_box(&dlogits), &mut dinput, &mut ws);
    });
    (fwd * 1e6, bwd * 1e6)
}

fn eval_samples_per_s() -> f64 {
    let set = data(400);
    let mut model = cnn_spec().build(1);
    let s = seconds_per_call(|| {
        black_box(evaluate_model(&mut model, &set));
    });
    set.len() as f64 / s
}

/// Microseconds per local SGD step of `FlClient::train_local`.
fn train_step_us(spec: &ModelSpec, samples: usize, batch: usize, steps: usize) -> f64 {
    let model = spec.build(1);
    let global = model.params_flat();
    let mut client = FlClient::new(0, model, data(samples), 0.02, 0.9, batch, 1);
    let s = seconds_per_call(|| {
        black_box(client.train_local(&global, steps, None));
    });
    s / steps as f64 * 1e6
}

fn checkout_us_per_client() -> f64 {
    let bank = Partitioner::Iid.split(
        &data(fleet::COHORT * fleet::SAMPLES_PER_SHARD),
        fleet::COHORT,
        1,
    );
    let mut pool = ClientPool::new(
        logreg_spec(),
        Box::new(VecShardSource::new(bank)),
        0.02,
        0.9,
        fleet::BATCH,
        1,
    );
    let ids: Vec<usize> = (0..fleet::COHORT).collect();
    let mut round = 0u64;
    let s = seconds_per_call(|| {
        round += 1;
        black_box(pool.checkout(&ids, round).len());
    });
    s / fleet::COHORT as f64 * 1e6
}

/// `(encode MB/s, decode MB/s)` of the wire codec for `payload`.
fn codec_mb_s(payload: &UpdatePayload, form: WireForm) -> (f64, f64) {
    let bytes = payload.encode();
    let mb = bytes.len() as f64 / 1e6;
    let enc = seconds_per_call(|| {
        black_box(black_box(payload).encode());
    });
    let dec = seconds_per_call(|| {
        black_box(UpdatePayload::decode(form, black_box(&bytes)).expect("round-trips"));
    });
    (mb / enc, mb / dec)
}

fn transfer_ns() -> f64 {
    let clients = 256;
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); clients],
        1,
    );
    let mut io = RoundIo::new(network, clients);
    let payload = UpdatePayload::dense(noise(logreg_spec().build(1).param_count(), 4, 1e-2));
    let bytes = payload.encoded_len();
    let mut c = 0usize;
    seconds_per_call(|| {
        c = (c + 1) % clients;
        let down = io.downlink(c, bytes, SimTime::ZERO, true);
        black_box(io.uplink_update(c, &payload, down.sender_done));
    }) * 1e9
}

/// A cohort the size and width of `robust_256_trimmed`'s.
fn robust_cohort() -> (usize, Vec<RoundUpdate>) {
    let dim = mlp_spec().build(1).param_count();
    let updates = (0..robust::CLIENTS)
        .map(|c| RoundUpdate {
            client: c,
            payload: UpdatePayload::dense(noise(dim, 100 + c as u64, 1e-2)),
            weight: 24.0,
        })
        .collect();
    (dim, updates)
}

fn robust_ms(method: RobustMethod, pool: &WorkerPool) -> f64 {
    let (dim, updates) = robust_cohort();
    let aggregator = RobustAggregator::new(method);
    // The runtime hands the estimator an owned cohort, so the clone is
    // part of what a round pays; it is under 2 % of the trimmed mean.
    seconds_per_call(|| {
        black_box(aggregator.pre_aggregate_with(dim, updates.clone(), Some(pool)));
    }) * 1e3
}

fn fold_mb_s() -> f64 {
    let dim = logreg_spec().build(1).param_count();
    let update = RoundUpdate {
        client: 0,
        payload: UpdatePayload::dense(noise(dim, 5, 1e-2)),
        weight: 24.0,
    };
    let mut policy = AdaFlAggregation;
    let mut acc = StreamAccumulator::new(dim);
    let s = seconds_per_call(|| {
        policy.fold(&mut acc, black_box(&update));
    });
    update.payload.encoded_len() as f64 / 1e6 / s
}

fn dispatch_us(pool: &WorkerPool) -> f64 {
    seconds_per_call(|| {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..256usize)
            .map(|i| Box::new(move || i) as Box<_>)
            .collect();
        black_box(pool.scope_run(jobs));
    }) * 1e6
}

fn record_ns() -> f64 {
    // A recorder keeps every span; renew it before it grows large.
    let mut recorder = InMemoryRecorder::new();
    let mut calls = 0u32;
    seconds_per_call(|| {
        calls += 1;
        if calls.is_multiple_of(1 << 15) {
            recorder = InMemoryRecorder::new();
        }
        recorder.span(SpanRecord::new("probe", 0.0, 1.0).round(1).client(2));
        recorder.counter_add("probe.count", 1);
    }) * 1e9
}

/// Runs every probe; `(name, value)` in `BENCHMARK.json` order. About
/// 0.25 s each.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(32);
    out.push(("tensor.matmul_nn_gflops", matmul_gflops(matmul_into, false)));
    out.push(("tensor.matmul_tn_gflops", matmul_gflops(matmul_tn, true)));
    out.push(("tensor.matmul_nt_gflops", matmul_gflops(matmul_nt, false)));
    out.push(("tensor.im2col_mb_s", im2col_mb_s()));

    let (cnn_fwd, cnn_bwd) = forward_backward_us(&cnn_spec(), sync_cnn::BATCH);
    out.push(("nn.cnn_fwd_us", cnn_fwd));
    out.push(("nn.cnn_bwd_us", cnn_bwd));
    let (mlp_fwd, mlp_bwd) = forward_backward_us(&mlp_spec(), robust::BATCH);
    out.push(("nn.mlp_fwd_bwd_us", mlp_fwd + mlp_bwd));
    out.push(("nn.eval_samples_per_s", eval_samples_per_s()));

    let synth = SyntheticSpec::mnist_like(SIDE, 512);
    let synth_s = seconds_per_call(|| {
        black_box(synth.generate(black_box(11)));
    });
    out.push(("data.synth_samples_per_s", 512.0 / synth_s));
    let train = data(sync_cnn::CLIENTS * sync_cnn::SAMPLES_PER_CLIENT);
    let partitioner = Partitioner::LabelShards {
        shards_per_client: 2,
    };
    let partition_s = seconds_per_call(|| {
        black_box(partitioner.split(&train, sync_cnn::CLIENTS, black_box(3)));
    });
    out.push(("data.partition_ms", partition_s * 1e3));

    out.push((
        "client.train_step_us_cnn",
        // One step per call: five would make a call outlast a batch.
        train_step_us(
            &cnn_spec(),
            sync_cnn::SAMPLES_PER_CLIENT,
            sync_cnn::BATCH,
            1,
        ),
    ));
    out.push((
        "client.train_step_us_mlp",
        train_step_us(
            &mlp_spec(),
            robust::SAMPLES_PER_CLIENT,
            robust::BATCH,
            robust::LOCAL_STEPS,
        ),
    ));
    out.push((
        "client.train_step_us_logreg",
        train_step_us(
            &logreg_spec(),
            fleet::SAMPLES_PER_SHARD,
            fleet::BATCH,
            fleet::LOCAL_STEPS,
        ),
    ));
    out.push(("fleet.checkout_us_per_client", checkout_us_per_client()));

    let cnn_dim = cnn_spec().build(1).param_count();
    let cnn_delta = noise(cnn_dim, 6, 1e-2);
    let mut dgc = DgcCompressor::new(cnn_dim, 0.0, 1.0);
    let dgc_s = seconds_per_call(|| {
        black_box(dgc.compress(black_box(&cnn_delta), 16.0));
    });
    out.push(("dgc.compress_mb_s", 4.0 * cnn_dim as f64 / 1e6 / dgc_s));
    let (dense_enc, dense_dec) =
        codec_mb_s(&UpdatePayload::dense(cnn_delta.clone()), WireForm::Dense);
    out.push(("codec.dense_encode_mb_s", dense_enc));
    out.push(("codec.dense_decode_mb_s", dense_dec));
    let (sparse_enc, sparse_dec) = codec_mb_s(
        &UpdatePayload::Sparse(top_k(&cnn_delta, cnn_dim / 16)),
        WireForm::Sparse,
    );
    out.push(("codec.sparse_encode_mb_s", sparse_enc));
    out.push(("codec.sparse_decode_mb_s", sparse_dec));
    out.push(("io.transfer_ns", transfer_ns()));

    let gate = DefenseGate::new(DefenseConfig::default());
    let mut values = noise(mlp_spec().build(1).param_count(), 8, 1e-2);
    let sanitize_s = seconds_per_call(|| {
        black_box(gate.sanitize(black_box(&mut values)).is_ok());
    });
    out.push((
        "defense.sanitize_mb_s",
        4.0 * values.len() as f64 / 1e6 / sanitize_s,
    ));

    let pool = WorkerPool::new(2);
    out.push((
        "robust.trimmed_mean_ms",
        robust_ms(
            RobustMethod::TrimmedMean {
                trim_ratio: robust::TRIM_RATIO,
            },
            &pool,
        ),
    ));
    out.push(("robust.median_ms", robust_ms(RobustMethod::Median, &pool)));
    let f = robust::CLIENTS / 8;
    out.push((
        "robust.multi_krum_ms",
        robust_ms(
            RobustMethod::MultiKrum {
                f,
                m: robust::CLIENTS - 2 * f,
            },
            &pool,
        ),
    ));
    out.push(("sink.fold_mb_s", fold_mb_s()));
    out.push(("pool.dispatch_us", dispatch_us(&pool)));
    out.push(("telemetry.record_ns", record_ns()));
    out
}
