//! Spans recorded from outside the program: a [`Tracer`] that keeps them
//! in memory, and timing decorators for the five public policy traits.
//!
//! The benchmark may not edit the program, so a layer is visible only
//! where it crosses a public trait. Each decorator forwards *every* trait
//! method to the policy it wraps — the parity test proves it, and every
//! traced repetition proves it again by reproducing the untraced
//! fingerprint — and times the calls that do the layer's work.

use adafl_data::Dataset;
use adafl_fl::runtime::{
    AggregationPolicy, AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx,
    CompressionPolicy, RoundUpdate, SelectionCtx, SelectionPolicy, StreamAccumulator,
    SyncUploadCtx, UpdatePayload,
};
use adafl_fl::{LocalOutcome, ShardSource};
use adafl_telemetry::SpanRecord;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers. The first three are opened by the benchmark's
/// driver loop; the rest are one call into a decorated policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole traced repetition.
    Repetition,
    /// One `SyncRuntime::run_round`.
    Round,
    /// One `evaluate_model` after a round.
    Eval,
    /// `SelectionPolicy::select`.
    Select,
    /// `CompressionPolicy::prepare`.
    Encode,
    /// `AggregationPolicy::fold`.
    Fold,
    /// `AggregationPolicy::aggregate` or `finish`.
    Aggregate,
    /// `AsyncPolicy::prepare_upload`.
    AsyncPrepare,
    /// `AsyncPolicy::apply`.
    AsyncApply,
    /// `ShardSource::shard`.
    Shard,
}

impl Kind {
    /// Number of kinds; `kind as usize` indexes per-kind tables.
    pub const COUNT: usize = Kind::Shard as usize + 1;

    /// The span's name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Repetition => "repetition",
            Kind::Round => "round",
            Kind::Eval => "eval",
            Kind::Select => "policy.select",
            Kind::Encode => "policy.encode",
            Kind::Fold => "policy.fold",
            Kind::Aggregate => "policy.aggregate",
            Kind::AsyncPrepare => "policy.async_prepare",
            Kind::AsyncApply => "policy.async_apply",
            Kind::Shard => "fleet.shard",
        }
    }
}

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; its identifier is its index in [`Tracer::take`]'s
/// result.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// Keeps the spans of one traced repetition in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The innermost span the driver loop has open.
    current: AtomicU32,
    /// Bytes of every payload `CompressionPolicy::prepare` and
    /// `AsyncPolicy::prepare_upload` returned. A statistic: `Relaxed`.
    encoded_bytes: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn shared() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            current: AtomicU32::new(NO_PARENT),
            encoded_bytes: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("no tracer user panics");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Opens a driver-loop span under the one currently open and makes it
    /// the parent of everything recorded until [`Tracer::close`].
    pub fn open(&self, kind: Kind) -> u32 {
        let start_ns = self.now_ns();
        let parent = self.current.load(Ordering::SeqCst);
        let id = self.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.current.store(id, Ordering::SeqCst);
        id
    }

    /// Closes a span opened with [`Tracer::open`]; its parent becomes
    /// current again.
    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no tracer user panics");
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        self.current.store(span.parent, Ordering::SeqCst);
    }

    /// Runs `call` and records it as one span under the open span.
    pub fn time<T>(&self, kind: Kind, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: self.current.load(Ordering::SeqCst),
        });
        out
    }

    fn note_payload(&self, payload: Option<&UpdatePayload>) {
        if let Some(p) = payload {
            self.encoded_bytes
                .fetch_add(p.encoded_len() as u64, Ordering::Relaxed);
        }
    }

    /// Bytes of every payload the decorated policies produced.
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes.load(Ordering::Relaxed)
    }

    /// The spans recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no tracer user panics"))
    }
}

/// Times [`SelectionPolicy::select`].
#[derive(Debug)]
pub struct TimedSelection {
    /// The policy doing the work.
    pub inner: Box<dyn SelectionPolicy>,
    /// Where its spans go.
    pub tracer: Arc<Tracer>,
}

impl SelectionPolicy for TimedSelection {
    fn select(&mut self, ctx: &mut SelectionCtx<'_>) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Select, || inner.select(ctx))
    }

    fn annotate_round_span(&self, round: usize, span: SpanRecord) -> SpanRecord {
        self.inner.annotate_round_span(round, span)
    }
}

/// Times [`CompressionPolicy::prepare`] and counts the bytes it emits.
#[derive(Debug)]
pub struct TimedCompression {
    /// The policy doing the work.
    pub inner: Box<dyn CompressionPolicy>,
    /// Where its spans go.
    pub tracer: Arc<Tracer>,
}

impl CompressionPolicy for TimedCompression {
    fn init(&mut self, dim: usize, clients: usize) {
        self.inner.init(dim, clients);
    }

    fn prepare(&mut self, ctx: &SyncUploadCtx<'_>, delta: &[f32]) -> Option<UpdatePayload> {
        let inner = &mut self.inner;
        let payload = self.tracer.time(Kind::Encode, || inner.prepare(ctx, delta));
        self.tracer.note_payload(payload.as_ref());
        payload
    }
}

/// Times [`AggregationPolicy::fold`], `aggregate` and `finish`. The
/// training-side methods (`gradient_hook`, `after_local_round`) are
/// forwarded untimed: they run inside client training, which belongs to
/// the residual.
#[derive(Debug)]
pub struct TimedAggregation {
    /// The policy doing the work.
    pub inner: Box<dyn AggregationPolicy>,
    /// Where its spans go.
    pub tracer: Arc<Tracer>,
}

impl AggregationPolicy for TimedAggregation {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn init(&mut self, dim: usize, clients: usize) {
        self.inner.init(dim, clients);
    }

    fn uses_gradient_hook(&self) -> bool {
        self.inner.uses_gradient_hook()
    }

    fn gradient_hook(&self, client: usize, grad: &mut [f32], params: &[f32], global: &[f32]) {
        self.inner.gradient_hook(client, grad, params, global);
    }

    fn after_local_round(&mut self, client: usize, delta: &[f32], steps: usize, lr: f32) {
        self.inner.after_local_round(client, delta, steps, lr);
    }

    fn aggregate(
        &mut self,
        global: &mut [f32],
        global_gradient: &mut Vec<f32>,
        updates: Vec<RoundUpdate>,
    ) {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Aggregate, || {
            inner.aggregate(global, global_gradient, updates);
        });
    }

    fn supports_streaming(&self) -> bool {
        self.inner.supports_streaming()
    }

    fn fold(&mut self, acc: &mut StreamAccumulator, update: &RoundUpdate) {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Fold, || inner.fold(acc, update));
    }

    fn finish(
        &mut self,
        global: &mut [f32],
        global_gradient: &mut Vec<f32>,
        acc: &StreamAccumulator,
    ) {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Aggregate, || {
            inner.finish(global, global_gradient, acc);
        });
    }
}

/// Times [`AsyncPolicy::prepare_upload`] and `apply`, and counts the bytes
/// uploads carry.
#[derive(Debug)]
pub struct TimedAsync {
    /// The policy doing the work.
    pub inner: Box<dyn AsyncPolicy>,
    /// Where its spans go.
    pub tracer: Arc<Tracer>,
}

impl AsyncPolicy for TimedAsync {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn init(&mut self, dim: usize) {
        self.inner.init(dim);
    }

    fn downlink_bytes(&mut self, ctx: &AsyncDownlinkCtx<'_>) -> usize {
        self.inner.downlink_bytes(ctx)
    }

    fn prepare_upload(
        &mut self,
        ctx: &mut AsyncUploadCtx<'_>,
        outcome: LocalOutcome,
    ) -> Option<UpdatePayload> {
        let inner = &mut self.inner;
        let payload = self
            .tracer
            .time(Kind::AsyncPrepare, || inner.prepare_upload(ctx, outcome));
        self.tracer.note_payload(payload.as_ref());
        payload
    }

    fn apply(
        &mut self,
        ctx: &mut AsyncApplyCtx<'_>,
        payload: UpdatePayload,
        snapshot: &[f32],
        weight: f32,
        staleness: u64,
    ) -> bool {
        let inner = &mut self.inner;
        self.tracer.time(Kind::AsyncApply, || {
            inner.apply(ctx, payload, snapshot, weight, staleness)
        })
    }
}

/// Times [`ShardSource::shard`].
#[derive(Debug)]
pub struct TimedShards {
    /// The source doing the work.
    pub inner: Box<dyn ShardSource>,
    /// Where its spans go.
    pub tracer: Arc<Tracer>,
}

impl ShardSource for TimedShards {
    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn shard(&self, client: usize) -> Dataset {
        self.tracer.time(Kind::Shard, || self.inner.shard(client))
    }
}
