//! Metrics and structured event tracing for the AdaFL stack.
//!
//! Every engine, the network simulator and the compression paths accept a
//! shared [`Recorder`]. The default [`NoopRecorder`] makes instrumentation
//! free: call sites gate record construction on [`Recorder::enabled`], so a
//! disabled recorder costs one virtual call and a branch. Recording NEVER
//! consumes experiment RNG state or moves the simulated clock — a run with
//! telemetry on produces bit-identical results to a run with it off.
//!
//! Three record families:
//!
//! * **metrics** — monotone counters, last-write gauges and log-bucketed
//!   [histograms](LogHistogram), each living in its own name space of the
//!   typed registry inside [`InMemoryRecorder`];
//! * **spans** — intervals ([`SpanRecord`]) stamped with both simulated
//!   time (seconds) and wall-clock micros (round duration, per-client
//!   compute, transfers);
//! * **events** — instants ([`EventRecord`]) for discrete outcomes
//!   (drops, dropouts, staleness, selection).
//!
//! Traces export as JSONL ([`export::write_jsonl`]) or CSV
//! ([`export::write_csv`]) and parse back with [`jsonl::parse`]; the
//! `telemetry_report` binary summarizes a JSONL trace. The crate has no
//! dependencies so every layer of the workspace can use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

pub mod export;
pub mod histogram;
pub mod jsonl;
pub mod memory;
pub mod names;
pub mod record;

pub use histogram::LogHistogram;
pub use memory::{InMemoryRecorder, Trace};
pub use record::{EventRecord, FieldValue, SpanRecord};

/// A recorder shared across engine, network and compression layers.
pub type SharedRecorder = Arc<dyn Recorder>;

/// Sink for metrics, spans and events.
///
/// All methods take `&self`: implementations are internally synchronized so
/// parallel client threads can record concurrently. Default method bodies
/// discard everything, which is exactly [`NoopRecorder`].
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// `false` when records are discarded. Call sites use this to skip
    /// building records (and their allocations) entirely.
    fn enabled(&self) -> bool;

    /// Microseconds of wall-clock time since the recorder was created.
    /// The no-op recorder reports 0 — wall time never feeds back into
    /// simulation decisions, it is observability-only.
    fn wall_micros(&self) -> u64 {
        0
    }

    /// Adds `delta` to the named monotone counter.
    fn counter_add(&self, _name: &str, _delta: u64) {}

    /// Sets the named gauge to `value` (last write wins).
    fn gauge_set(&self, _name: &str, _value: f64) {}

    /// Records one observation into the named log-bucketed histogram.
    fn histogram_record(&self, _name: &str, _value: f64) {}

    /// Records a completed span.
    fn span(&self, _span: SpanRecord) {}

    /// Records an instantaneous event.
    fn event(&self, _event: EventRecord) {}
}

/// Recorder that discards everything; the default for every engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
}

/// A fresh shared no-op recorder.
pub fn noop() -> SharedRecorder {
    Arc::new(NoopRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = noop();
        assert!(!rec.enabled());
        assert_eq!(rec.wall_micros(), 0);
        rec.counter_add("x", 1);
        rec.gauge_set("y", 2.0);
        rec.histogram_record("z", 3.0);
        rec.span(SpanRecord::new("round", 0.0, 1.0));
        rec.event(EventRecord::new("drop", 0.5));
    }
}
