//! Update-path telemetry shared by both runtimes: one emitter per event.
//!
//! The synchronous stream tags every event with its round; the
//! asynchronous one has no rounds and leaves the tag off. Everything else
//! about an event — its counter, kind and fields — is the same, so it is
//! written here once. Each emitter is a no-op without a recorder.

use crate::faults::FaultKind;
use adafl_compression::DecodeError;
use adafl_telemetry::{names, EventRecord, SharedRecorder};

/// Where and when an update-path event happened.
#[derive(Debug, Clone, Copy)]
pub(super) struct At {
    /// The round, for the synchronous stream only.
    pub round: Option<usize>,
    /// The client whose update the event concerns.
    pub client: usize,
    /// Simulated seconds.
    pub seconds: f64,
}

fn emit(rec: &SharedRecorder, counter: &'static str, kind: &'static str, at: At) -> EventRecord {
    rec.counter_add(counter, 1);
    let event = EventRecord::new(kind, at.seconds).client(at.client);
    match at.round {
        Some(round) => event.round(round),
        None => event,
    }
}

/// A Byzantine client rewrote its encoded update before upload.
pub(super) fn attack(rec: &SharedRecorder, at: At, kind: FaultKind) {
    if rec.enabled() {
        let event = emit(rec, names::FL_ATTACKS, names::EVENT_ATTACK, at);
        rec.event(event.field("kind", kind.as_str()));
    }
}

/// An update's encoded bytes were flipped in transit.
pub(super) fn corruption(rec: &SharedRecorder, at: At) {
    if rec.enabled() {
        let event = emit(rec, names::FL_CORRUPTIONS, names::EVENT_CORRUPTION, at);
        rec.event(event);
    }
}

/// The server could not parse an arrived frame.
pub(super) fn decode_reject(rec: &SharedRecorder, at: At, err: &DecodeError) {
    if rec.enabled() {
        let event = emit(
            rec,
            names::FL_DECODE_REJECTIONS,
            names::EVENT_DECODE_REJECT,
            at,
        );
        rec.event(event.field("error", err.to_string()));
    }
}

/// The defensive gate turned an update away.
pub(super) fn defense_reject(rec: &SharedRecorder, at: At, reason: &'static str) {
    if rec.enabled() {
        let event = emit(
            rec,
            names::FL_DEFENSE_REJECTIONS,
            names::EVENT_DEFENSE_REJECT,
            at,
        );
        rec.event(event.field("reason", reason));
    }
}

/// The defensive gate zeroed `values` non-finite entries of an update it
/// then let through to the norm screen.
pub(super) fn scrubbed(rec: &SharedRecorder, values: usize) {
    if values > 0 && rec.enabled() {
        rec.counter_add(names::FL_DEFENSE_SCRUBBED, values as u64);
    }
}
