//! The metric names, units and directions the benchmark prints — the same
//! table `BENCHMARK.json` holds, which `tests/contract.rs` checks.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("updates_per_s", "1/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
    def("ledger_mb", "MB", "lower"),
];

/// Single layers, measured inside a traced run (`--trace 1`).
pub const IN_SITU: [MetricDef; 38] = [
    def("runtime.round_ms_p50", "ms", "lower"),
    def("runtime.round_ms_p90", "ms", "lower"),
    def("runtime.eval_ms", "ms", "lower"),
    def("runtime.residual_ms", "ms", "lower"),
    def("runtime.cpu_ms_per_update", "ms", "lower"),
    def("runtime.cpu_share", "ratio", "higher"),
    def("runtime.raw_rep_s", "s", "lower"),
    def("host.slowdown", "ratio", "lower"),
    def("policy.select_ms", "ms", "lower"),
    def("policy.select_calls", "count", "lower"),
    def("policy.encode_ms", "ms", "lower"),
    def("policy.encode_calls", "count", "lower"),
    def("policy.encode_mb_out", "MB", "lower"),
    def("policy.fold_ms", "ms", "lower"),
    def("policy.fold_calls", "count", "lower"),
    def("policy.aggregate_ms", "ms", "lower"),
    def("policy.async_prepare_ms", "ms", "lower"),
    def("policy.async_apply_ms", "ms", "lower"),
    def("policy.async_apply_calls", "count", "lower"),
    def("fleet.shard_ms", "ms", "lower"),
    def("fleet.shard_calls", "count", "lower"),
    def("client.compute_span_ms", "ms", "lower"),
    def("robust.span_ms", "ms", "lower"),
    def("train.est_ms", "ms", "lower"),
    def("server.est_ms", "ms", "lower"),
    def("alloc.count_per_update", "count", "lower"),
    def("alloc.kb_per_update", "KB", "lower"),
    def("fl.dropouts", "count", "lower"),
    def("fl.decode_rejections", "count", "lower"),
    def("fl.defense_rejections", "count", "lower"),
    def("fl.robust_rejected", "count", "lower"),
    def("fl.deadline_misses", "count", "lower"),
    def("ledger.uplink_mb", "MB", "lower"),
    def("ledger.downlink_mb", "MB", "lower"),
    def("ledger.relay_mb", "MB", "lower"),
    def("ledger.control_mb", "MB", "lower"),
    def("sim.seconds", "s", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

/// Single layers, probed by direct calls (`--trace 1`).
pub const PROBES: [MetricDef; 27] = [
    def("tensor.matmul_nn_gflops", "GFLOP/s", "higher"),
    def("tensor.matmul_tn_gflops", "GFLOP/s", "higher"),
    def("tensor.matmul_nt_gflops", "GFLOP/s", "higher"),
    def("tensor.im2col_mb_s", "MB/s", "higher"),
    def("nn.cnn_fwd_us", "us", "lower"),
    def("nn.cnn_bwd_us", "us", "lower"),
    def("nn.mlp_fwd_bwd_us", "us", "lower"),
    def("nn.eval_samples_per_s", "1/s", "higher"),
    def("data.synth_samples_per_s", "1/s", "higher"),
    def("data.partition_ms", "ms", "lower"),
    def("client.train_step_us_cnn", "us", "lower"),
    def("client.train_step_us_mlp", "us", "lower"),
    def("client.train_step_us_logreg", "us", "lower"),
    def("fleet.checkout_us_per_client", "us", "lower"),
    def("dgc.compress_mb_s", "MB/s", "higher"),
    def("codec.dense_encode_mb_s", "MB/s", "higher"),
    def("codec.dense_decode_mb_s", "MB/s", "higher"),
    def("codec.sparse_encode_mb_s", "MB/s", "higher"),
    def("codec.sparse_decode_mb_s", "MB/s", "higher"),
    def("io.transfer_ns", "ns", "lower"),
    def("defense.sanitize_mb_s", "MB/s", "higher"),
    def("robust.trimmed_mean_ms", "ms", "lower"),
    def("robust.median_ms", "ms", "lower"),
    def("robust.multi_krum_ms", "ms", "lower"),
    def("sink.fold_mb_s", "MB/s", "higher"),
    def("pool.dispatch_us", "us", "lower"),
    def("telemetry.record_ns", "ns", "lower"),
];
