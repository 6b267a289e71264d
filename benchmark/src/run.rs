//! One invocation: set-ups, a warm-up repetition, timed repetitions with
//! host samples between them, correctness checks on every repetition and
//! the metrics of the requested mode.
//!
//! A repetition is a whole short experiment on a fresh runtime. Untraced
//! repetitions time `run()` alone; traced ones (every second repetition
//! of a `--trace 1` invocation) drive the same experiment round by round
//! with decorated policies and the program's recorder attached, the first
//! of them with the counting allocator on.

use crate::host::{faster_half_mean, median, paired, HostSampler};
use crate::metrics::{MetricDef, END_TO_END, IN_SITU, PROBES};
use crate::trace::{Kind, Span, Tracer};
use crate::workloads::{
    async_cnn, build, fleet, robust, Built, Instruments, Length, Runtime, Workload, TEST_SAMPLES,
};
use crate::{alloc, probes, sys};
use adafl_fl::client::evaluate_model;
use adafl_fl::{CommunicationLedger, RoundRecord, RunHistory};
use adafl_telemetry::{names, InMemoryRecorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups before the warm-up repetition; every repetition adds one.
const MIN_SETUPS: usize = 9;
/// Repetitions measured even when `--seconds` is too short for them.
const MIN_REPETITIONS: usize = 2;
/// Host samples after every repetition.
const SAMPLES_PER_REPETITION: usize = 3;

/// What the command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Budget of the whole invocation short of the probes.
    pub seconds: f64,
    /// Per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The result object of one invocation.
#[derive(Debug)]
pub struct Report {
    /// No repetition failed a check.
    pub correct: bool,
    /// Operations (rounds for sync, arrivals for async) in every checked
    /// repetition, the warm-up included.
    pub attempted: u64,
    /// Operations of the repetitions that failed a check.
    pub failed: u64,
    /// The mode's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Hash of final parameter bits, ledger totals and history.
    pub fingerprint: u64,
    /// Test accuracy of the final global model.
    pub final_accuracy: f32,
    /// Timed repetitions (untraced + traced).
    pub repetitions: usize,
    /// Host samples taken.
    pub host_samples: usize,
    /// Unpaired numbers for `spread.py`, as `key=value` pairs.
    pub raw: String,
}

impl Report {
    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that degenerates
            // prints 0 and the failed checks tell why.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// What one repetition produced, reduced to what the checks and metrics
/// read.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    updates: u64,
    ledger: LedgerTotals,
    sim_seconds: f64,
    fingerprint: u64,
    final_accuracy: f32,
    history_len: usize,
    clock_monotone: bool,
    params_finite: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LedgerTotals {
    uplink: u64,
    downlink: u64,
    relay: u64,
    control: u64,
    total: u64,
}

impl LedgerTotals {
    fn of(ledger: &CommunicationLedger) -> Self {
        LedgerTotals {
            uplink: ledger.uplink_bytes(),
            downlink: ledger.downlink_bytes(),
            relay: ledger.relay_bytes(),
            control: ledger.control_bytes(),
            total: ledger.total_bytes_with_control(),
        }
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl Outcome {
    fn collect(runtime: &Runtime, history: &RunHistory) -> Outcome {
        let (params, ledger) = match runtime {
            Runtime::Sync(rt) => (rt.global_params(), rt.ledger()),
            Runtime::Async(rt) => (rt.global_params(), rt.ledger()),
        };
        let records = history.records();
        let sim_seconds = match runtime {
            Runtime::Sync(rt) => rt.clock().seconds(),
            Runtime::Async(_) => records.last().map_or(0.0, |r| r.sim_time.seconds()),
        };
        let totals = LedgerTotals::of(ledger);
        let mut hash = Fnv::new();
        for p in params {
            hash.word(u64::from(p.to_bits()));
        }
        for total in [
            totals.uplink,
            totals.downlink,
            totals.relay,
            totals.control,
            totals.total,
            ledger.uplink_updates(),
            ledger.downlink_updates(),
        ] {
            hash.word(total);
        }
        for r in records {
            hash.word(r.round as u64);
            hash.word(r.sim_time.seconds().to_bits());
            hash.word(u64::from(r.accuracy.to_bits()));
            hash.word(u64::from(r.loss.to_bits()));
            hash.word(r.uplink_bytes);
            hash.word(r.uplink_updates);
            hash.word(r.contributors as u64);
        }
        Outcome {
            updates: ledger.uplink_updates(),
            ledger: totals,
            sim_seconds,
            fingerprint: hash.0,
            final_accuracy: history.final_accuracy(),
            history_len: records.len(),
            clock_monotone: records.windows(2).all(|w| w[0].sim_time <= w[1].sim_time),
            params_finite: params.iter().all(|p| p.is_finite()),
        }
    }
}

/// Seconds, CPU seconds and outcome of one untraced repetition: `run()`
/// alone is timed.
fn run_plain(built: Built) -> (f64, f64, Outcome) {
    let mut runtime = built.runtime;
    let cpu = sys::process_cpu_seconds();
    let start = Instant::now();
    let history = match &mut runtime {
        Runtime::Sync(rt) => rt.run(),
        Runtime::Async(rt) => rt.run(),
    };
    let seconds = start.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_seconds() - cpu;
    (seconds, cpu, Outcome::collect(&runtime, &history))
}

/// One traced repetition's numbers, all per repetition.
#[derive(Debug)]
struct Traced {
    seconds: f64,
    outcome: Outcome,
    round_ms: Vec<f64>,
    /// Milliseconds and calls per span kind, indexed by `Kind as usize`.
    span_ms: [f64; Kind::COUNT],
    span_calls: [u64; Kind::COUNT],
    encoded_bytes: u64,
    allocations: u64,
    allocated_bytes: u64,
    /// The program's own counters.
    program_counters: BTreeMap<String, u64>,
    /// Simulated milliseconds of the program's `client_compute` spans,
    /// which carry no wall time.
    client_compute_sim_ms: f64,
    /// Wall milliseconds of the program's `robust_aggregate` spans.
    robust_span_ms: f64,
    spans: Vec<Span>,
}

/// The span kinds that are calls into decorated policies.
const WRAPPED: [Kind; 7] = [
    Kind::Select,
    Kind::Encode,
    Kind::Fold,
    Kind::Aggregate,
    Kind::AsyncPrepare,
    Kind::AsyncApply,
    Kind::Shard,
];

impl Traced {
    fn ms(&self, kind: Kind) -> f64 {
        self.span_ms[kind as usize]
    }

    fn calls(&self, kind: Kind) -> u64 {
        self.span_calls[kind as usize]
    }

    fn wrapped_ms(&self) -> f64 {
        WRAPPED.iter().map(|&k| self.ms(k)).sum()
    }

    /// What the spans leave unexplained: round wall (the whole `run()` for
    /// async, which has no rounds) minus the wrapped spans — broadcast,
    /// training, uplink, decode, screen and robust stages, inseparable
    /// from outside.
    fn residual_ms(&self) -> f64 {
        let rounds = if self.round_ms.is_empty() {
            self.seconds * 1e3
        } else {
            self.round_ms.iter().sum()
        };
        rounds - self.wrapped_ms()
    }

    /// Share of the repetition's wall time its spans account for: wrapped
    /// spans + evaluation + residual over the whole.
    fn coverage(&self) -> f64 {
        (self.wrapped_ms() + self.ms(Kind::Eval) + self.residual_ms()) / (self.seconds * 1e3)
    }
}

/// Drives one traced repetition: `run_round` + `evaluate_model` per round
/// for sync (rebuilding the history `run()` would return), `run()` for
/// async. `count_allocations` switches the counting allocator on for it.
fn run_traced(workload: Workload, seed: u64, count_allocations: bool) -> (f64, Traced) {
    let tracer = Tracer::shared();
    let recorder = InMemoryRecorder::shared();
    let instruments = Instruments {
        tracer: Arc::clone(&tracer),
        recorder: recorder.clone(),
    };
    let start = Instant::now();
    let built = build(workload, seed, Length::Full, Some(&instruments));
    let setup_seconds = start.elapsed().as_secs_f64();
    let mut runtime = built.runtime;
    let mut eval = built.eval;

    let (allocations, allocated_bytes) = alloc::counted();
    alloc::set_counting(count_allocations);
    let repetition = tracer.open(Kind::Repetition);
    let start = Instant::now();
    let history = match &mut runtime {
        Runtime::Sync(rt) => {
            let kit = eval.as_mut().expect("traced sync set-ups carry a kit");
            let mut history = RunHistory::new(workload.name());
            for round in 0..rt.config().rounds {
                let span = tracer.open(Kind::Round);
                let contributors = rt.run_round(round);
                tracer.close(span);
                let span = tracer.open(Kind::Eval);
                kit.model.set_params_flat(rt.global_params());
                let (accuracy, loss) = evaluate_model(&mut kit.model, &kit.test);
                tracer.close(span);
                history.push(RoundRecord {
                    round,
                    sim_time: rt.clock(),
                    accuracy,
                    loss,
                    uplink_bytes: rt.ledger().uplink_bytes(),
                    uplink_updates: rt.ledger().uplink_updates(),
                    contributors,
                });
            }
            history
        }
        Runtime::Async(rt) => rt.run(),
    };
    let seconds = start.elapsed().as_secs_f64();
    tracer.close(repetition);
    alloc::set_counting(false);
    let counted = alloc::counted();

    let spans = tracer.take();
    let mut span_ms = [0.0; Kind::COUNT];
    let mut span_calls = [0u64; Kind::COUNT];
    let mut round_ms = Vec::new();
    for span in &spans {
        span_ms[span.kind as usize] += span.ms();
        span_calls[span.kind as usize] += 1;
        if span.kind == Kind::Round {
            round_ms.push(span.ms());
        }
    }
    let program = recorder.snapshot();
    let traced = Traced {
        seconds,
        outcome: Outcome::collect(&runtime, &history),
        round_ms,
        span_ms,
        span_calls,
        encoded_bytes: tracer.encoded_bytes(),
        allocations: counted.0 - allocations,
        allocated_bytes: counted.1 - allocated_bytes,
        client_compute_sim_ms: program
            .spans_of(names::SPAN_CLIENT_COMPUTE)
            .map(|s| s.sim_seconds() * 1e3)
            .sum(),
        robust_span_ms: program
            .spans_of(names::SPAN_ROBUST)
            .map(|s| s.wall_micros as f64 * 1e-3)
            .sum(),
        program_counters: program.counters,
        spans,
    };
    (setup_seconds, traced)
}

/// Counts failed repetitions and says why on stderr.
struct Checks {
    workload: Workload,
    reference: Option<Outcome>,
    checked: u64,
    failed: u64,
}

impl Checks {
    /// Checks one repetition; the first one becomes the reference every
    /// later one must reproduce bit for bit — traced ones too, which
    /// proves the decorators forward every trait method.
    fn repetition(&mut self, outcome: &Outcome, traced: Option<&Traced>) {
        let w = self.workload;
        let mut problems: Vec<String> = Vec::new();
        if outcome.history_len != w.history_len() {
            problems.push(format!(
                "history holds {} records, expected {}",
                outcome.history_len,
                w.history_len()
            ));
        }
        if !outcome.params_finite {
            problems.push("final parameters are not finite".to_string());
        }
        if !outcome.clock_monotone {
            problems.push("simulated clock ran backwards".to_string());
        }
        if outcome.final_accuracy < w.accuracy_floor() {
            problems.push(format!(
                "final accuracy {:.3} is below the floor {:.3}",
                outcome.final_accuracy,
                w.accuracy_floor()
            ));
        }
        match &self.reference {
            None => self.reference = Some(outcome.clone()),
            Some(reference) if reference != outcome => problems.push(format!(
                "repetition differs from the first: {reference:?} vs {outcome:?}"
            )),
            Some(_) => {}
        }
        if let Some(t) = traced {
            if t.encoded_bytes != outcome.ledger.uplink {
                problems.push(format!(
                    "decorators saw {} encoded bytes, the ledger {} uplink bytes",
                    t.encoded_bytes, outcome.ledger.uplink
                ));
            }
            let (updates, rounds) = (outcome.updates, w.ops());
            let expected: [(Kind, u64); 5] = match w {
                Workload::AsyncCnnFedbuff => [
                    (Kind::AsyncPrepare, updates),
                    (Kind::AsyncApply, async_cnn::UPDATE_BUDGET),
                    (Kind::Select, 0),
                    (Kind::Encode, 0),
                    (Kind::Fold, 0),
                ],
                Workload::Fleet100kStream => [
                    (Kind::Select, rounds),
                    (Kind::Encode, updates),
                    (Kind::Fold, updates),
                    (Kind::Aggregate, rounds),
                    // One shard per rebind, plus one per slot the first
                    // cohort creates.
                    (Kind::Shard, updates + fleet::COHORT as u64),
                ],
                Workload::SyncCnnAdafl | Workload::Robust256Trimmed => [
                    (Kind::Select, rounds),
                    (Kind::Encode, updates),
                    (Kind::Fold, 0),
                    (Kind::Aggregate, rounds),
                    (Kind::Shard, 0),
                ],
            };
            for (kind, calls) in expected {
                if t.calls(kind) != calls {
                    problems.push(format!(
                        "{} was called {} times, expected {calls}",
                        kind.name(),
                        t.calls(kind)
                    ));
                }
            }
        }
        for problem in &problems {
            eprintln!("check failed ({}): {problem}", w.name());
        }
        self.checked += 1;
        self.failed += u64::from(!problems.is_empty());
    }
}

/// Nearest-rank percentile of `values` (`q` in 0..=1); zero for none.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs one invocation.
pub fn run(args: &Args) -> Report {
    let started = Instant::now();
    let w = args.workload;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut checks = Checks {
        workload: w,
        reference: None,
        checked: 0,
        failed: 0,
    };

    // Set-ups, the last of which feeds the warm-up repetition. The first
    // second after idle loses 35–55 % to vCPU wake-up, so that repetition
    // is checked but not timed.
    let mut built = None;
    for _ in 0..MIN_SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build(w, args.seed, Length::Full, None));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (_, _, warm_up) = run_plain(built.take().expect("MIN_SETUPS is positive"));
    // Before the benchmark grows buffers of its own (the host sampler's
    // vectors, traces): what the program itself peaked at.
    let peak_rss_mb = sys::peak_rss_mb();
    checks.repetition(&warm_up, None);
    let mut sampler = HostSampler::new(w.pool_width());

    let mut plain_s: Vec<f64> = Vec::new();
    let mut plain_cpu_s: Vec<f64> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // The longest repetition so far of each kind, samples included: a new
    // one starts only if it should end inside the budget.
    let mut cost = [0.0f64; 2];
    loop {
        let index = plain_s.len() + traced.len();
        let tracing = args.trace && index % 2 == 1;
        let elapsed = started.elapsed().as_secs_f64();
        if index >= MIN_REPETITIONS && elapsed + cost[usize::from(tracing)] > args.seconds {
            break;
        }
        let rep_started = Instant::now();
        if tracing {
            // Allocation counts are exact per seed, so the first traced
            // repetition counts for all of them and the rest are spared
            // two contended atomic adds per allocation (2–3 % of a
            // `fleet_100k_stream` repetition).
            let (setup, t) = run_traced(w, args.seed, traced.is_empty());
            setup_s.push(setup);
            checks.repetition(&t.outcome, Some(&t));
            traced.push(t);
        } else {
            let start = Instant::now();
            let built = build(w, args.seed, Length::Full, None);
            setup_s.push(start.elapsed().as_secs_f64());
            let (seconds, cpu, outcome) = run_plain(built);
            checks.repetition(&outcome, None);
            plain_s.push(seconds);
            plain_cpu_s.push(cpu);
        }
        for _ in 0..SAMPLES_PER_REPETITION {
            slowdowns.push(sampler.sample());
        }
        let samples = &slowdowns[slowdowns.len() - SAMPLES_PER_REPETITION..];
        match traced.last().filter(|_| tracing) {
            Some(t) => eprintln!(
                "repetition {index} (traced): {:.4} s, spans cover {:.2} %, host slowdown {samples:.3?}",
                t.seconds,
                t.coverage() * 100.0
            ),
            None => eprintln!(
                "repetition {index}: {:.4} s, host slowdown {samples:.3?}",
                plain_s.last().copied().unwrap_or(0.0)
            ),
        }
        let slot = &mut cost[usize::from(tracing)];
        *slot = slot.max(rep_started.elapsed().as_secs_f64());
    }

    let reference = checks
        .reference
        .clone()
        .expect("the warm-up repetition was checked");
    let host = faster_half_mean(&slowdowns);
    let raw_rep_s = faster_half_mean(&plain_s);
    let updates = reference.updates as f64;
    let raw = format!(
        "updates_per_s={} setup_s={} host_slowdown={} raw_rep_s={}",
        updates / raw_rep_s,
        median(&setup_s),
        host,
        raw_rep_s
    );

    let metrics = if args.trace {
        let mut values = in_situ(w, &reference, &plain_s, &plain_cpu_s, &traced, host);
        if let Some(last) = traced.last() {
            write_trace_file(w, args.seed, last);
        }
        // The estimates compare probe costs with host-paired times, so
        // the host is sampled around the probes too.
        let mut around: Vec<f64> = (0..SAMPLES_PER_REPETITION)
            .map(|_| sampler.sample())
            .collect();
        let probed = probes::run_all();
        around.extend((0..SAMPLES_PER_REPETITION).map(|_| sampler.sample()));
        values.extend(estimates(
            w,
            &reference,
            &traced,
            &probed,
            faster_half_mean(&around),
        ));
        values.extend(probed);
        name_metrics(IN_SITU.iter().chain(&PROBES), &values)
    } else {
        let values = [
            ("setup_s", median(&setup_s) / host),
            ("updates_per_s", updates / paired(&plain_s, &slowdowns)),
            ("peak_rss_mb", peak_rss_mb),
            ("ledger_mb", reference.ledger.total as f64 / 1e6),
        ];
        name_metrics(END_TO_END.iter(), &values)
    };

    let ops = w.ops();
    Report {
        correct: checks.failed == 0,
        attempted: checks.checked * ops,
        failed: checks.failed * ops,
        metrics,
        fingerprint: reference.fingerprint,
        final_accuracy: reference.final_accuracy,
        repetitions: plain_s.len() + traced.len(),
        host_samples: slowdowns.len(),
        raw,
    }
}

/// Pairs every definition with its value, in the definitions' order.
fn name_metrics<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &[(&'static str, f64)],
) -> Vec<(MetricDef, f64)> {
    defs.map(|def| {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .unwrap_or_else(|| panic!("no value was computed for {}", def.name));
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        (*def, value.1 + 0.0)
    })
    .collect()
}

/// The in-situ values by name, all but the two estimates, which
/// [`estimates`] computes once the probes have run.
fn in_situ(
    w: Workload,
    reference: &Outcome,
    plain_s: &[f64],
    plain_cpu_s: &[f64],
    traced: &[Traced],
    host: f64,
) -> Vec<(&'static str, f64)> {
    // A time: faster-half mean over the traced repetitions, host-paired.
    let time = |of: &dyn Fn(&Traced) -> f64| {
        faster_half_mean(&traced.iter().map(of).collect::<Vec<f64>>()) / host
    };
    // A count: exact per seed, so the first traced repetition speaks for
    // all of them.
    let count = |of: &dyn Fn(&Traced) -> f64| traced.first().map_or(0.0, of);
    let span_ms = |kind: Kind| time(&|t: &Traced| t.ms(kind));
    let span_calls = |kind: Kind| count(&|t: &Traced| t.calls(kind) as f64);
    let program = |name: &'static str| {
        count(&|t: &Traced| t.program_counters.get(name).copied().unwrap_or(0) as f64)
    };

    let updates = reference.updates as f64;
    let raw_rep_s = faster_half_mean(plain_s);
    let cpu_s = faster_half_mean(plain_cpu_s);
    // Repetitions alternate untraced, traced, untraced, …: each traced one
    // is compared with the mean of its untraced neighbours, so that host
    // drift within the invocation cancels, and the median ratio is kept.
    let overheads: Vec<f64> = traced
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let after = plain_s.get(i + 1).unwrap_or(&plain_s[i]);
            t.seconds / (0.5 * (plain_s[i] + after)) - 1.0
        })
        .collect();
    let mb = |bytes: u64| bytes as f64 / 1e6;
    vec![
        (
            "runtime.round_ms_p50",
            time(&|t| percentile(&t.round_ms, 0.5)),
        ),
        (
            "runtime.round_ms_p90",
            time(&|t| percentile(&t.round_ms, 0.9)),
        ),
        ("runtime.eval_ms", span_ms(Kind::Eval)),
        ("runtime.residual_ms", time(&|t| t.residual_ms())),
        ("runtime.cpu_ms_per_update", cpu_s / host * 1e3 / updates),
        (
            "runtime.cpu_share",
            cpu_s / (raw_rep_s * w.pool_width() as f64),
        ),
        ("runtime.raw_rep_s", raw_rep_s),
        ("host.slowdown", host),
        ("policy.select_ms", span_ms(Kind::Select)),
        ("policy.select_calls", span_calls(Kind::Select)),
        ("policy.encode_ms", span_ms(Kind::Encode)),
        ("policy.encode_calls", span_calls(Kind::Encode)),
        ("policy.encode_mb_out", count(&|t| mb(t.encoded_bytes))),
        ("policy.fold_ms", span_ms(Kind::Fold)),
        ("policy.fold_calls", span_calls(Kind::Fold)),
        ("policy.aggregate_ms", span_ms(Kind::Aggregate)),
        ("policy.async_prepare_ms", span_ms(Kind::AsyncPrepare)),
        ("policy.async_apply_ms", span_ms(Kind::AsyncApply)),
        ("policy.async_apply_calls", span_calls(Kind::AsyncApply)),
        ("fleet.shard_ms", span_ms(Kind::Shard)),
        ("fleet.shard_calls", span_calls(Kind::Shard)),
        (
            "client.compute_span_ms",
            count(&|t| t.client_compute_sim_ms),
        ),
        ("robust.span_ms", time(&|t| t.robust_span_ms)),
        (
            "alloc.count_per_update",
            count(&|t| t.allocations as f64) / updates,
        ),
        (
            "alloc.kb_per_update",
            count(&|t| t.allocated_bytes as f64 / 1024.0) / updates,
        ),
        ("fl.dropouts", program(names::FL_DROPOUTS)),
        ("fl.decode_rejections", program(names::FL_DECODE_REJECTIONS)),
        (
            "fl.defense_rejections",
            program(names::FL_DEFENSE_REJECTIONS),
        ),
        ("fl.robust_rejected", program(names::FL_ROBUST_REJECTED)),
        ("fl.deadline_misses", program(names::FL_DEADLINE_MISSES)),
        ("ledger.uplink_mb", mb(reference.ledger.uplink)),
        ("ledger.downlink_mb", mb(reference.ledger.downlink)),
        ("ledger.relay_mb", mb(reference.ledger.relay)),
        ("ledger.control_mb", mb(reference.ledger.control)),
        ("sim.seconds", reference.sim_seconds),
        ("trace.overhead_pct", median(&overheads) * 100.0),
    ]
}

/// `train.est_ms` and `server.est_ms`: probe cost × in-run call counts, to
/// apportion the residual the spans cannot split. CPU milliseconds, not
/// wall: where training is pooled, divide `train.est_ms` by the pool width
/// before comparing with the residual. `probe_host` is the host's slowdown
/// while the probes ran: the residual is host-paired, so the estimates are
/// too.
fn estimates(
    w: Workload,
    reference: &Outcome,
    traced: &[Traced],
    probed: &[(&'static str, f64)],
    probe_host: f64,
) -> [(&'static str, f64); 2] {
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let updates = reference.updates as f64;
    let steps = w.local_steps() as f64;
    let transfers_ms = probe("io.transfer_ns") * updates * 1e-6;
    let (train_step_us, server_ms) = match w {
        Workload::SyncCnnAdafl => (probe("client.train_step_us_cnn"), transfers_ms),
        Workload::AsyncCnnFedbuff => {
            // The event loop evaluates inside `run()`.
            let evals = w.history_len() as f64;
            let eval_ms = evals * TEST_SAMPLES as f64 / probe("nn.eval_samples_per_s") * 1e3;
            (probe("client.train_step_us_cnn"), transfers_ms + eval_ms)
        }
        Workload::Fleet100kStream => {
            // The checkout probe includes cloning the shard, which the
            // traced run measures on its own as `fleet.shard_ms`.
            let shard_ms = traced.first().map_or(0.0, |t| t.ms(Kind::Shard));
            let checkout_ms = probe("fleet.checkout_us_per_client") * updates * 1e-3;
            (
                probe("client.train_step_us_logreg"),
                transfers_ms + (checkout_ms - shard_ms).max(0.0),
            )
        }
        Workload::Robust256Trimmed => {
            let rounds = robust::ROUNDS as f64;
            let update_mb = 4.0 * w.model().build(0).param_count() as f64 / 1e6;
            let sanitize_ms = updates * update_mb / probe("defense.sanitize_mb_s") * 1e3;
            // An attacker's frame is encoded, rewritten and decoded again.
            let attacked = (robust::ATTACKERS * robust::CLIENTS as f64).round() * rounds;
            let codec_ms = attacked
                * update_mb
                * (1.0 / probe("codec.dense_encode_mb_s") + 1.0 / probe("codec.dense_decode_mb_s"))
                * 1e3;
            (
                probe("client.train_step_us_mlp"),
                transfers_ms + rounds * probe("robust.trimmed_mean_ms") + sanitize_ms + codec_ms,
            )
        }
    };
    [
        (
            "train.est_ms",
            train_step_us * steps * updates * 1e-3 / probe_host,
        ),
        ("server.est_ms", server_ms / probe_host),
    ]
}

/// Writes the last traced repetition's spans to
/// `benchmark/out/trace-<workload>.json`; README.md, "Reading a trace".
fn write_trace_file(w: Workload, seed: u64, t: &Traced) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut out = String::with_capacity(96 * t.spans.len() + 256);
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"repetition_ms\": {}, \"residual_ms\": {},\n \"spans\": [",
        w.name(),
        t.seconds * 1e3,
        t.residual_ms()
    );
    for (id, s) in t.spans.iter().enumerate() {
        let sep = if id == 0 { "" } else { "," };
        let parent = if s.parent == crate::trace::NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
            s.kind.name(),
            s.start_ns as f64 * 1e-3,
            s.end_ns as f64 * 1e-3
        );
    }
    out.push_str("\n ]\n}\n");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("trace-{}.json", w.name())), out));
    if let Err(e) = written {
        eprintln!(
            "could not write the trace file under {}: {e}",
            dir.display()
        );
    }
}
