//! Reliable transfer on top of the lossy [`ClientNetwork`] primitives.
//!
//! A raw [`TransferMedium::transfer`] models a fire-and-forget datagram: a
//! loss is silent and final. Real FL deployments run gradient exchange over
//! a reliable session layer, so this module adds the classic stop-and-wait
//! machinery — per-attempt ACK timeout, bounded retransmissions with
//! exponential backoff and seeded jitter — while keeping the simulation
//! exact: every retransmitted payload byte, every ACK control frame and
//! every second spent backing off is reported in a [`TransferReport`] so
//! engines can charge their ledgers and advance their clocks truthfully.
//!
//! Loss semantics: only the *data* frame is subject to link loss. ACK
//! frames are tiny control messages (heavily coded in practice) and are
//! modelled as always delivered; they still cost wire bytes and reverse-
//! link serialisation time. A lost data frame therefore surfaces to the
//! sender as an ACK timeout.
//!
//! [`ClientNetwork`]: crate::ClientNetwork
//!
//! # Examples
//!
//! ```
//! use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, ReliablePolicy,
//!                    ReliableTransfer, SimTime, TransferDirection};
//!
//! let lossy = LinkProfile::Broadband.spec().with_drop_prob(0.4);
//! let mut net = ClientNetwork::new(vec![LinkTrace::constant(lossy)], 7);
//! let mut transport = ReliableTransfer::new(ReliablePolicy::default(), 7);
//! let up = TransferDirection::Uplink;
//! let report = transport.transfer(&mut net, 0, 100_000, SimTime::ZERO, up);
//! // With 4 attempts against 40% loss this almost always gets through.
//! assert!(report.attempts >= 1);
//! assert_eq!(report.payload_bytes, 100_000 * report.attempts as u64);
//! ```

use crate::{SimTime, TransferDirection, TransferMedium};
use adafl_telemetry::{names, EventRecord, SharedRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Retry/backoff parameters of the reliable transport.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq)]
pub struct ReliablePolicy {
    /// Total send attempts, including the first (≥ 1).
    pub max_attempts: usize,
    /// Seconds the sender waits for an ACK before declaring an attempt lost.
    pub attempt_timeout: f64,
    /// Backoff before the first retransmission, in seconds.
    pub base_backoff: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Upper bound on a single backoff interval, in seconds.
    pub max_backoff: f64,
    /// Jitter fraction: each backoff is stretched by `1 + jitter·u` with
    /// `u ~ U[0, 1)` from the transport's seeded RNG.
    pub jitter: f64,
    /// Size of an ACK control frame in bytes.
    pub ack_bytes: usize,
}

impl Default for ReliablePolicy {
    fn default() -> Self {
        ReliablePolicy {
            max_attempts: 4,
            attempt_timeout: 1.0,
            base_backoff: 0.25,
            backoff_multiplier: 2.0,
            max_backoff: 4.0,
            jitter: 0.1,
            ack_bytes: 16,
        }
    }
}

impl ReliablePolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is zero, a duration is negative or not
    /// finite, `backoff_multiplier < 1`, or `jitter` is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
        for (name, v) in [
            ("attempt_timeout", self.attempt_timeout),
            ("base_backoff", self.base_backoff),
            ("max_backoff", self.max_backoff),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and ≥ 0");
        }
        assert!(
            self.backoff_multiplier.is_finite() && self.backoff_multiplier >= 1.0,
            "backoff_multiplier must be ≥ 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be in [0, 1]"
        );
    }
}

/// Outcome and exact cost accounting of one reliable transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReport {
    /// Payload arrival time at the receiver (the successful attempt), or
    /// `None` when every attempt was lost.
    pub arrival: Option<SimTime>,
    /// When the *sender* learned the outcome: ACK receipt on success, the
    /// final attempt's timeout on failure. Engines that serialise on the
    /// sender (e.g. a client that must free its radio before training
    /// again) should advance to this time.
    pub sender_done: SimTime,
    /// Send attempts made (1 ≤ attempts ≤ `max_attempts`).
    pub attempts: usize,
    /// Total seconds spent waiting in backoff between attempts.
    pub backoff_seconds: f64,
    /// Payload bytes put on the wire across all attempts.
    pub payload_bytes: u64,
    /// Payload bytes wasted on attempts that were lost (or on all attempts
    /// when the transfer ultimately failed).
    pub wasted_bytes: u64,
    /// ACK control bytes on the reverse link.
    pub control_bytes: u64,
}

impl TransferReport {
    /// Returns `true` when the payload reached the receiver.
    pub fn delivered(&self) -> bool {
        self.arrival.is_some()
    }
}

/// A stateful reliable transport: owns the backoff-jitter RNG and the
/// retry telemetry. One instance serves a whole fleet; determinism comes
/// from the seeded RNG plus the deterministic call order of the engines.
#[derive(Debug, Clone)]
pub struct ReliableTransfer {
    policy: ReliablePolicy,
    rng: StdRng,
    recorder: SharedRecorder,
}

impl ReliableTransfer {
    /// Creates a transport with the given policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid (see [`ReliablePolicy::validate`]).
    pub fn new(policy: ReliablePolicy, seed: u64) -> Self {
        policy.validate();
        ReliableTransfer {
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0x4E1A_B1E0),
            recorder: adafl_telemetry::noop(),
        }
    }

    /// The transport's policy.
    pub fn policy(&self) -> &ReliablePolicy {
        &self.policy
    }

    /// Attaches a telemetry recorder. Recording observes retries only — the
    /// jitter RNG is consumed identically with or without it.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Reliably moves `bytes` between `client` and the server in
    /// `direction`, starting at `now`, over any [`TransferMedium`] (star or
    /// mesh).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds for `net`.
    pub fn transfer<N: TransferMedium>(
        &mut self,
        net: &mut N,
        client: usize,
        bytes: usize,
        now: SimTime,
        direction: TransferDirection,
    ) -> TransferReport {
        let mut t = now;
        let mut attempts = 0usize;
        let mut backoff_total = 0.0f64;
        loop {
            attempts += 1;
            if let Some(arrival) = net.transfer(client, bytes, t, direction).arrival() {
                // ACK rides the reverse link: serialisation + latency for a
                // tiny control frame, modelled loss-free.
                let ack_time = net
                    .link_at(client, arrival)
                    .transfer_time(self.policy.ack_bytes, direction.reverse());
                return TransferReport {
                    arrival: Some(arrival),
                    sender_done: arrival + ack_time,
                    attempts,
                    backoff_seconds: backoff_total,
                    payload_bytes: (bytes * attempts) as u64,
                    wasted_bytes: (bytes * (attempts - 1)) as u64,
                    control_bytes: self.policy.ack_bytes as u64,
                };
            }
            // No ACK: the sender sits out the full attempt timeout.
            t += SimTime::from_seconds(self.policy.attempt_timeout);
            if attempts >= self.policy.max_attempts {
                if self.recorder.enabled() {
                    self.recorder.counter_add(names::NET_RELIABLE_FAILURES, 1);
                    self.recorder.event(
                        EventRecord::new(names::EVENT_TRANSFER_FAILED, t.seconds())
                            .client(client)
                            .field("bytes", bytes)
                            .field("attempts", attempts),
                    );
                }
                return TransferReport {
                    arrival: None,
                    sender_done: t,
                    attempts,
                    backoff_seconds: backoff_total,
                    payload_bytes: (bytes * attempts) as u64,
                    wasted_bytes: (bytes * attempts) as u64,
                    control_bytes: 0,
                };
            }
            // Exponential backoff with deterministic seeded jitter. The RNG
            // is drawn unconditionally so traced and untraced runs stay
            // bit-identical.
            let exp =
                self.policy.base_backoff * self.policy.backoff_multiplier.powi(attempts as i32 - 1);
            let jitter_u: f64 = self.rng.gen();
            let backoff = exp.min(self.policy.max_backoff) * (1.0 + self.policy.jitter * jitter_u);
            backoff_total += backoff;
            t += SimTime::from_seconds(backoff);
            if self.recorder.enabled() {
                self.recorder.counter_add(names::NET_RETRIES, 1);
                self.recorder.event(
                    EventRecord::new(names::EVENT_RETRY, t.seconds())
                        .client(client)
                        .field("bytes", bytes)
                        .field("attempt", attempts + 1),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransferDirection::{Downlink, Uplink};
    use crate::{ClientNetwork, GilbertElliott, LinkProfile, LinkSpec, LinkTrace};

    fn lossless_net() -> ClientNetwork {
        let spec = LinkSpec::new(1000.0, 2000.0, 0.1, 0.2, 0.0);
        ClientNetwork::new(vec![LinkTrace::constant(spec)], 0)
    }

    #[test]
    fn lossless_transfer_uses_one_attempt() {
        let mut net = lossless_net();
        let mut t = ReliableTransfer::new(ReliablePolicy::default(), 0);
        let r = t.transfer(&mut net, 0, 1000, SimTime::from_seconds(5.0), Uplink);
        assert!(r.delivered());
        assert_eq!(r.attempts, 1);
        assert_eq!(r.backoff_seconds, 0.0);
        assert_eq!(r.payload_bytes, 1000);
        assert_eq!(r.wasted_bytes, 0);
        assert_eq!(r.control_bytes, 16);
        // Payload: 0.1 latency + 1 s serialisation; ACK back: 0.2 + 16/2000.
        let arrival = r.arrival.unwrap().seconds();
        assert!((arrival - 6.1).abs() < 1e-9);
        assert!((r.sender_done.seconds() - (6.1 + 0.2 + 0.008)).abs() < 1e-9);
    }

    #[test]
    fn fully_lossy_transfer_exhausts_attempts() {
        let spec = LinkProfile::Broadband.spec().with_drop_prob(1.0);
        let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 0);
        let policy = ReliablePolicy {
            max_attempts: 3,
            jitter: 0.0,
            ..ReliablePolicy::default()
        };
        let mut t = ReliableTransfer::new(policy, 0);
        let r = t.transfer(&mut net, 0, 500, SimTime::ZERO, Downlink);
        assert!(!r.delivered());
        assert_eq!(r.attempts, 3);
        assert_eq!(r.payload_bytes, 1500);
        assert_eq!(r.wasted_bytes, 1500);
        assert_eq!(r.control_bytes, 0);
        // 3 timeouts of 1 s + backoffs 0.25 and 0.5 (no jitter).
        assert!((r.sender_done.seconds() - 3.75).abs() < 1e-9);
        assert!((r.backoff_seconds - 0.75).abs() < 1e-9);
    }

    #[test]
    fn retries_recover_from_burst_loss() {
        // A channel stuck Bad for a while then recovering: the unreliable
        // path loses transfers the reliable path saves.
        let spec = LinkProfile::Broadband.spec().with_drop_prob(0.5);
        let policy = ReliablePolicy {
            max_attempts: 6,
            ..ReliablePolicy::default()
        };
        let mut plain_delivered = 0;
        let mut reliable_delivered = 0;
        for seed in 0..40 {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], seed);
            if net
                .transfer(0, 100, SimTime::ZERO, Uplink)
                .arrival()
                .is_some()
            {
                plain_delivered += 1;
            }
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], seed);
            let mut t = ReliableTransfer::new(policy, seed);
            if t.transfer(&mut net, 0, 100, SimTime::ZERO, Uplink)
                .delivered()
            {
                reliable_delivered += 1;
            }
        }
        assert!(
            reliable_delivered > plain_delivered,
            "retries did not help: {reliable_delivered} vs {plain_delivered}"
        );
    }

    #[test]
    fn transfers_are_deterministic_per_seed() {
        let spec = LinkProfile::Lossy.spec();
        let run = |seed: u64| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], seed);
            let mut t = ReliableTransfer::new(ReliablePolicy::default(), seed);
            (0..30)
                .map(|i| SimTime::from_seconds(i as f64 * 10.0))
                .map(|at| t.transfer(&mut net, 0, 100, at, Uplink))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn recorder_counts_retries_and_failures() {
        use adafl_telemetry::InMemoryRecorder;

        let spec = LinkProfile::Broadband.spec().with_drop_prob(1.0);
        let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 0);
        let policy = ReliablePolicy {
            max_attempts: 3,
            ..ReliablePolicy::default()
        };
        let mut t = ReliableTransfer::new(policy, 0);
        let rec = InMemoryRecorder::shared();
        t.set_recorder(rec.clone());
        t.transfer(&mut net, 0, 10, SimTime::ZERO, Uplink);
        let trace = rec.snapshot();
        assert_eq!(trace.counters[names::NET_RETRIES], 2);
        assert_eq!(trace.counters[names::NET_RELIABLE_FAILURES], 1);
        assert_eq!(trace.events_of(names::EVENT_TRANSFER_FAILED).count(), 1);
    }

    #[test]
    fn recording_never_perturbs_outcomes() {
        use adafl_telemetry::InMemoryRecorder;

        let spec = LinkProfile::Lossy.spec();
        let run = |record: bool| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 11);
            let mut t = ReliableTransfer::new(ReliablePolicy::default(), 11);
            if record {
                t.set_recorder(InMemoryRecorder::shared());
            }
            (0..40)
                .map(|i| t.transfer(&mut net, 0, 50, SimTime::from_seconds(i as f64), Uplink))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn burst_channel_drives_reliable_losses() {
        // Always-Bad channel with certain loss: reliable transport fails
        // even with many attempts.
        let mut net = lossless_net();
        net.set_burst_loss(0, GilbertElliott::new(1.0, 0.0, 0.0, 1.0, 0));
        let mut t = ReliableTransfer::new(ReliablePolicy::default(), 0);
        let r = t.transfer(&mut net, 0, 10, SimTime::ZERO, Uplink);
        assert!(!r.delivered());
        assert_eq!(r.attempts, 4);
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_panics() {
        ReliableTransfer::new(
            ReliablePolicy {
                max_attempts: 0,
                ..ReliablePolicy::default()
            },
            0,
        );
    }
}
