//! Per-client network state and transfer simulation.

use crate::{GilbertElliott, LinkSpec, LinkTrace, SimTime, TransferDirection, TransferMedium};
use adafl_telemetry::{names, EventRecord, SharedRecorder, SpanRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferOutcome {
    /// The payload arrived at the given simulated time.
    Delivered {
        /// Arrival time at the receiver.
        arrival: SimTime,
    },
    /// The payload was lost; the sender learns nothing until a timeout.
    Dropped,
}

impl TransferOutcome {
    /// Arrival time if delivered.
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            TransferOutcome::Delivered { arrival } => Some(*arrival),
            TransferOutcome::Dropped => None,
        }
    }

    /// Returns `true` when the transfer was delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TransferOutcome::Delivered { .. })
    }
}

/// The network state of a federated client fleet: one [`LinkTrace`] per
/// client plus a seeded RNG for loss events.
///
/// # Examples
///
/// ```
/// use adafl_netsim::{
///     ClientNetwork, LinkProfile, LinkTrace, SimTime, TransferDirection, TransferMedium,
/// };
///
/// let traces = vec![LinkTrace::constant(LinkProfile::Broadband.spec()); 3];
/// let mut net = ClientNetwork::new(traces, 42);
/// let outcome = net.transfer(0, 1_000_000, SimTime::ZERO, TransferDirection::Uplink);
/// assert!(outcome.is_delivered());
/// ```
#[derive(Debug, Clone)]
pub struct ClientNetwork {
    traces: Vec<LinkTrace>,
    /// Optional per-client Gilbert-Elliott burst-loss channel; when present
    /// it replaces the Bernoulli `drop_prob` decision for that client.
    burst: Vec<Option<GilbertElliott>>,
    rng: StdRng,
    recorder: SharedRecorder,
}

impl ClientNetwork {
    /// Creates a network over the given per-client traces.
    ///
    /// # Panics
    ///
    /// Panics when `traces` is empty.
    pub fn new(traces: Vec<LinkTrace>, seed: u64) -> Self {
        assert!(!traces.is_empty(), "network needs at least one client");
        ClientNetwork {
            burst: vec![None; traces.len()],
            traces,
            rng: StdRng::seed_from_u64(seed ^ 0x006E_7511),
            recorder: adafl_telemetry::noop(),
        }
    }

    /// Attaches a Gilbert-Elliott burst-loss channel to `client`. While
    /// attached, the channel's Markov state decides every loss for that
    /// client (both directions) instead of the link's Bernoulli
    /// `drop_prob`; the shared loss RNG is left untouched, so other
    /// clients' loss sequences are unaffected.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn set_burst_loss(&mut self, client: usize, channel: GilbertElliott) {
        self.burst[client] = Some(channel);
    }

    /// Loss decision for one transfer of `client` over `link`.
    fn transfer_lost(&mut self, client: usize, link: &LinkSpec) -> bool {
        match &mut self.burst[client] {
            Some(channel) => channel.transfer_lost(),
            None => self.rng.gen::<f64>() < link.drop_prob(),
        }
    }

    /// Attaches a telemetry recorder. Recording observes transfers only —
    /// it never touches the loss RNG, so traced and untraced runs take
    /// identical decisions.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Returns `true` when the network has no clients (never true
    /// post-construction).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Link conditions of `client` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn link_at(&self, client: usize, now: SimTime) -> LinkSpec {
        self.traces[client].link_at(now)
    }

    /// Replaces a client's trace (used by fault-injection schedules).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn set_trace(&mut self, client: usize, trace: LinkTrace) {
        self.traces[client] = trace;
    }

    fn record_drop(&self, client: usize, bytes: usize, now: SimTime, direction: TransferDirection) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.counter_add(names::NET_DROPS, 1);
        self.recorder.event(
            EventRecord::new(names::EVENT_TRANSFER_DROP, now.seconds())
                .client(client)
                .field("bytes", bytes)
                .field("direction", direction.name()),
        );
    }

    fn record_transfer(
        &self,
        client: usize,
        bytes: usize,
        start: SimTime,
        arrival: SimTime,
        direction: TransferDirection,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let (span_kind, histogram) = direction.telemetry();
        let (start, end) = (start.seconds(), arrival.seconds());
        self.recorder.histogram_record(histogram, end - start);
        self.recorder.span(
            SpanRecord::new(span_kind, start, end)
                .client(client)
                .field("bytes", bytes),
        );
    }
}

impl TransferMedium for ClientNetwork {
    /// One loss decision on the link as it stands at `now`, then latency +
    /// serialisation for the direction.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    fn transfer(
        &mut self,
        client: usize,
        bytes: usize,
        now: SimTime,
        direction: TransferDirection,
    ) -> TransferOutcome {
        let link = self.traces[client].link_at(now);
        if self.transfer_lost(client, &link) {
            self.record_drop(client, bytes, now, direction);
            return TransferOutcome::Dropped;
        }
        let arrival = now + link.transfer_time(bytes, direction);
        self.record_transfer(client, bytes, now, arrival, direction);
        TransferOutcome::Delivered { arrival }
    }

    fn link_at(&self, client: usize, now: SimTime) -> LinkSpec {
        ClientNetwork::link_at(self, client, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkProfile;
    use crate::TransferDirection::{Downlink, Uplink};

    fn perfect_network(n: usize) -> ClientNetwork {
        let spec = LinkSpec::new(1000.0, 2000.0, 0.1, 0.2, 0.0);
        ClientNetwork::new(vec![LinkTrace::constant(spec); n], 0)
    }

    #[test]
    fn lossless_link_always_delivers() {
        let mut net = perfect_network(2);
        for _ in 0..100 {
            assert!(net.transfer(0, 100, SimTime::ZERO, Uplink).is_delivered());
        }
    }

    #[test]
    fn delivery_time_matches_link_math() {
        let mut net = perfect_network(1);
        let out = net.transfer(0, 1000, SimTime::from_seconds(5.0), Uplink);
        assert!((out.arrival().unwrap().seconds() - 6.1).abs() < 1e-9);
        let down = net.transfer(0, 2000, SimTime::ZERO, Downlink);
        assert!((down.arrival().unwrap().seconds() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn fully_lossy_link_always_drops() {
        let spec = LinkProfile::Broadband.spec().with_drop_prob(1.0);
        let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 0);
        for _ in 0..20 {
            let out = net.transfer(0, 10, SimTime::ZERO, Uplink);
            assert_eq!(out, TransferOutcome::Dropped);
            assert!(out.arrival().is_none());
        }
    }

    #[test]
    fn loss_rate_approximates_drop_prob() {
        let spec = LinkProfile::Broadband.spec().with_drop_prob(0.3);
        let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 1);
        let drops = (0..2000)
            .filter(|_| !net.transfer(0, 10, SimTime::ZERO, Uplink).is_delivered())
            .count();
        let rate = drops as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn set_trace_swaps_conditions() {
        let mut net = perfect_network(1);
        net.set_trace(
            0,
            LinkTrace::constant(LinkSpec::new(1.0, 1.0, 0.0, 0.0, 0.0)),
        );
        let out = net.transfer(0, 100, SimTime::ZERO, Uplink);
        assert!((out.arrival().unwrap().seconds() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_are_deterministic_per_seed() {
        let spec = LinkProfile::Lossy.spec();
        let run = |seed: u64| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], seed);
            (0..50)
                .map(|_| net.transfer(0, 10, SimTime::ZERO, Uplink).is_delivered())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_network_panics() {
        ClientNetwork::new(Vec::new(), 0);
    }

    #[test]
    fn burst_channel_overrides_bernoulli_loss() {
        use crate::GilbertElliott;

        // Lossless link, but an always-Bad certain-loss channel attached.
        let mut net = perfect_network(2);
        net.set_burst_loss(0, GilbertElliott::new(1.0, 0.0, 0.0, 1.0, 0));
        for _ in 0..20 {
            assert!(!net.transfer(0, 10, SimTime::ZERO, Uplink).is_delivered());
            // The other client is untouched by client 0's channel.
            assert!(net.transfer(1, 10, SimTime::ZERO, Uplink).is_delivered());
        }
    }

    #[test]
    fn burst_channel_leaves_other_clients_rng_untouched() {
        // Attaching a burst channel to client 0 must not shift the shared
        // Bernoulli RNG stream observed by client 1.
        let spec = LinkProfile::Lossy.spec();
        let run = |with_burst: bool| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec); 2], 9);
            if with_burst {
                net.set_burst_loss(0, crate::GilbertElliott::new(0.5, 0.5, 0.3, 0.9, 4));
            }
            (0..100)
                .map(|_| {
                    if with_burst {
                        net.transfer(0, 10, SimTime::ZERO, Uplink);
                    }
                    net.transfer(1, 10, SimTime::ZERO, Uplink).is_delivered()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn recorder_observes_transfers_and_drops() {
        use adafl_telemetry::InMemoryRecorder;

        let rec = InMemoryRecorder::shared();
        let mut net = perfect_network(1);
        net.set_recorder(rec.clone());
        net.transfer(0, 1000, SimTime::ZERO, Uplink);
        net.transfer(0, 2000, SimTime::ZERO, Downlink);

        let lossy = LinkProfile::Broadband.spec().with_drop_prob(1.0);
        let mut net = ClientNetwork::new(vec![LinkTrace::constant(lossy)], 0);
        net.set_recorder(rec.clone());
        net.transfer(0, 10, SimTime::from_seconds(3.0), Uplink);

        let t = rec.snapshot();
        assert_eq!(t.spans_of(names::SPAN_UPLINK).count(), 1);
        assert_eq!(t.spans_of(names::SPAN_DOWNLINK).count(), 1);
        assert_eq!(t.counters[names::NET_DROPS], 1);
        let drop = t.events_of(names::EVENT_TRANSFER_DROP).next().unwrap();
        assert_eq!(drop.client, Some(0));
        assert!((drop.sim_time - 3.0).abs() < 1e-12);
        assert_eq!(t.histograms[names::NET_UPLINK_SECONDS].count(), 1);
    }

    #[test]
    fn recording_never_perturbs_loss_decisions() {
        use adafl_telemetry::InMemoryRecorder;

        let spec = LinkProfile::Lossy.spec();
        let run = |record: bool| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 7);
            if record {
                net.set_recorder(InMemoryRecorder::shared());
            }
            (0..200)
                .map(|_| net.transfer(0, 10, SimTime::ZERO, Uplink).is_delivered())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}
