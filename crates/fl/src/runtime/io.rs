//! Transport + ledger accounting for the round runtime.
//!
//! [`RoundIo`] owns the simulated network, the optional reliable-transport
//! layer and the communication ledger, and centralises the charging rules
//! every engine previously duplicated:
//!
//! * **Reliable transport** (both directions): a delivered transfer is
//!   charged its payload on the direction counter, wasted (retransmitted)
//!   bytes on the retransmission counter and ACK/NACK frames on the
//!   control counter; a transfer that exhausts its retries charges the
//!   whole payload as retransmission waste and nothing else.
//! * **Fire-and-forget uplink**: charged only when the datagram arrives.
//! * **Fire-and-forget downlink**: the *synchronous* protocol charges the
//!   broadcast unconditionally (the server transmits whether or not the
//!   client hears it), while the *asynchronous* protocol charges only on
//!   delivery — callers pick via `charge_lost_send`. This asymmetry is
//!   pinned by the golden traces and documented by the ledger-audit tests.
//! * **Mesh relays**: after every transfer, relay bytes the mesh
//!   accumulated (hops beyond the sender's own first hop, across all
//!   retransmission attempts) are charged via
//!   [`CommunicationLedger::record_relay`]. Stars accumulate none, so
//!   star ledgers are unchanged byte for byte.

use super::payload::UpdatePayload;
use crate::config::FlConfig;
use crate::faults::{attack_payload, corrupt_payload, FaultKind, FaultPlan};
use crate::ledger::CommunicationLedger;
use adafl_compression::DecodeError;
use adafl_netsim::{
    FleetNetwork, ReliablePolicy, ReliableTransfer, SimTime, TransferDirection, TransferMedium,
};
use adafl_telemetry::SharedRecorder;

/// Seconds a fire-and-forget sender waits before treating a datagram as
/// lost; also how long an async client whose upload the policy halted
/// idles before it re-requests the global model.
pub(super) const RESYNC_DELAY_SECONDS: f64 = 1.0;

/// Seconds a synchronous server waits on a round in which no update was
/// delivered before moving on.
pub(super) const EMPTY_ROUND_WAIT_SECONDS: f64 = 0.5;

/// One client's prepared uplink before the wire-level fault transforms:
/// the encoded payload plus the attack/corruption the fault plan assigns.
#[derive(Debug)]
pub struct UplinkFrame {
    /// The payload as the compression policy produced it.
    pub payload: UpdatePayload,
    /// Byzantine attack rewriting the encoded bytes, with its collusion
    /// seed, when the client is an attacker: well-formed frames carrying
    /// adversarial values, invisible to the decoder.
    pub attack: Option<(FaultKind, u64)>,
    /// Transit bit-flip seed when the update is corrupted in flight. Dense
    /// and sparse frames re-parse with poisoned values the defensive gate
    /// must catch; packed frames may stop parsing entirely.
    pub corrupt: Option<u64>,
}

impl UplinkFrame {
    /// The fault plan's view of one prepared uplink. Colluding Byzantine
    /// clients share a direction keyed by `collusion_key`: the round for
    /// the synchronous schedule, the global version the client trained
    /// from for the asynchronous one. Stopping a Byzantine frame is the
    /// robust stage's job.
    pub fn new(
        faults: &mut FaultPlan,
        client: usize,
        payload: UpdatePayload,
        collusion_key: usize,
    ) -> Self {
        UplinkFrame {
            payload,
            attack: faults
                .attacks_update(client)
                .map(|kind| (kind, faults.collusion_seed(collusion_key))),
            corrupt: faults.corrupts_update(client),
        }
    }

    /// The wire-fault transform both runtimes apply to an uplink: attack,
    /// then corruption, then the decoder's verdict on what is left — a
    /// pure function of the frame's own bytes.
    pub fn process(mut self) -> ProcessedFrame {
        let attacked = self.attack.map(|(kind, seed)| {
            attack_payload(&mut self.payload, kind, seed);
            kind
        });
        let decode_error = self
            .corrupt
            .and_then(|seed| corrupt_payload(&mut self.payload, seed).err());
        ProcessedFrame {
            payload: self.payload,
            attacked,
            corrupted: self.corrupt.is_some(),
            decode_error,
        }
    }
}

/// Outcome of [`UplinkFrame::process`] for one frame.
#[derive(Debug)]
pub struct ProcessedFrame {
    /// The payload after any attack and corruption transforms.
    pub payload: UpdatePayload,
    /// The attack that ran, for telemetry.
    pub attacked: Option<FaultKind>,
    /// Whether a corruption transform ran, for telemetry.
    pub corrupted: bool,
    /// Set when corruption broke the frame so the decoder rejects it.
    pub decode_error: Option<DecodeError>,
}

/// Outcome of driving one transfer through [`RoundIo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the payload reached the receiver; `None` when it was lost.
    pub arrival: Option<SimTime>,
    /// When the sender learned the transfer's fate — the resync point for
    /// lost transfers (send time + 1 s for fire-and-forget datagrams).
    pub sender_done: SimTime,
}

/// The runtime's communication plane: network, optional retry transport
/// and the byte ledger, with one charging implementation shared by every
/// protocol flavour.
#[derive(Debug)]
pub struct RoundIo {
    network: FleetNetwork,
    ledger: CommunicationLedger,
    transport: Option<ReliableTransfer>,
}

impl RoundIo {
    /// Wraps a network (star or mesh) and a fresh ledger, fire-and-forget.
    pub fn new(network: impl Into<FleetNetwork>, clients: usize) -> Self {
        RoundIo {
            network: network.into(),
            ledger: CommunicationLedger::new(clients),
            transport: None,
        }
    }

    /// The communication plane a server is assembled with: `network`, the
    /// optional reliable transport every transfer then runs through
    /// (seeded `seed_for("transport")`), and the recorder wired into both.
    pub(super) fn assemble(
        network: FleetNetwork,
        config: &FlConfig,
        retry: Option<ReliablePolicy>,
        recorder: Option<&SharedRecorder>,
    ) -> Self {
        let mut io = RoundIo::new(network, config.clients);
        io.transport =
            retry.map(|policy| ReliableTransfer::new(policy, config.seed_for("transport")));
        if let Some(recorder) = recorder {
            io.network.set_recorder(recorder.clone());
            if let Some(t) = &mut io.transport {
                t.set_recorder(recorder.clone());
            }
        }
        io
    }

    /// The cumulative ledger.
    pub fn ledger(&self) -> &CommunicationLedger {
        &self.ledger
    }

    /// Mutable ledger access, for control-plane charges (digests, score
    /// reports) owned by selection policies.
    pub fn ledger_mut(&mut self) -> &mut CommunicationLedger {
        &mut self.ledger
    }

    /// The simulated network (e.g. for [`FleetNetwork::link_at`] probes).
    pub fn network(&self) -> &FleetNetwork {
        &self.network
    }

    /// Drains relay bytes the mesh accumulated for the transfer that just
    /// ran — including every retransmission attempt the reliable
    /// transport made — and charges them to `client`. A star never
    /// accumulates any, so this is a no-op there and the ledger stays
    /// byte-identical to the pre-mesh accounting.
    fn charge_relays(&mut self, client: usize) {
        let relayed = self.network.take_relay_bytes();
        if relayed > 0 {
            self.ledger.record_relay(client, relayed as usize);
        }
    }

    /// The one send both directions go through: over the reliable transport
    /// when one is configured, fire-and-forget otherwise, charged by the
    /// module's rules — the payload on `direction`'s counter — and followed
    /// by the mesh's relay charge.
    fn send(
        &mut self,
        client: usize,
        bytes: usize,
        now: SimTime,
        direction: TransferDirection,
        charge_lost_send: bool,
    ) -> Delivery {
        let (delivery, charge_payload) = match &mut self.transport {
            Some(t) => {
                let report = t.transfer(&mut self.network, client, bytes, now, direction);
                if report.delivered() {
                    if report.wasted_bytes > 0 {
                        self.ledger
                            .record_retransmission(client, report.wasted_bytes as usize);
                    }
                    self.ledger
                        .record_control(client, report.control_bytes as usize);
                } else {
                    self.ledger
                        .record_retransmission(client, report.payload_bytes as usize);
                }
                let delivery = Delivery {
                    arrival: report.arrival,
                    sender_done: report.sender_done,
                };
                (delivery, report.delivered())
            }
            None => {
                let arrival = self
                    .network
                    .transfer(client, bytes, now, direction)
                    .arrival();
                let delivery = Delivery {
                    arrival,
                    sender_done: now + SimTime::from_seconds(RESYNC_DELAY_SECONDS),
                };
                (delivery, charge_lost_send || arrival.is_some())
            }
        };
        if charge_payload {
            match direction {
                TransferDirection::Uplink => self.ledger.record_uplink(client, bytes),
                TransferDirection::Downlink => self.ledger.record_downlink(client, bytes),
            }
        }
        self.charge_relays(client);
        delivery
    }

    /// Server→client transfer. `charge_lost_send` selects the sync
    /// broadcast rule (charge the payload even when the datagram is lost)
    /// over the async rule (charge only on delivery); reliable transport
    /// ignores the flag and always applies its own accounting.
    pub fn downlink(
        &mut self,
        client: usize,
        bytes: usize,
        now: SimTime,
        charge_lost_send: bool,
    ) -> Delivery {
        self.send(
            client,
            bytes,
            now,
            TransferDirection::Downlink,
            charge_lost_send,
        )
    }

    /// Client→server transfer of one update payload. The ledger charge is
    /// the payload's `encoded_len()` — the codec, not a size formula, is
    /// the accounting authority.
    pub fn uplink_update(
        &mut self,
        client: usize,
        payload: &UpdatePayload,
        now: SimTime,
    ) -> Delivery {
        self.uplink(client, payload.encoded_len(), now)
    }

    /// Client→server transfer; fire-and-forget charges only on delivery.
    pub fn uplink(&mut self, client: usize, bytes: usize, now: SimTime) -> Delivery {
        self.send(client, bytes, now, TransferDirection::Uplink, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_netsim::graph::{NodeRole, Topology};
    use adafl_netsim::{
        ClientNetwork, CostAwareDijkstra, LinkProfile, LinkSpec, LinkTrace, MeshLayout,
    };

    fn lossless_io(clients: usize) -> RoundIo {
        let network = ClientNetwork::new(
            vec![LinkTrace::constant(LinkProfile::Broadband.spec()); clients],
            7,
        );
        RoundIo::new(network, clients)
    }

    fn lossy_io(clients: usize) -> RoundIo {
        let b = LinkProfile::Broadband.spec();
        let spec = LinkSpec::new(
            b.uplink_bandwidth(),
            b.downlink_bandwidth(),
            b.uplink_latency(),
            b.downlink_latency(),
            1.0,
        );
        let network = ClientNetwork::new(vec![LinkTrace::constant(spec); clients], 7);
        RoundIo::new(network, clients)
    }

    #[test]
    fn delivered_datagrams_charge_both_directions() {
        let mut io = lossless_io(2);
        let d = io.downlink(0, 100, SimTime::ZERO, false);
        assert!(d.arrival.is_some());
        let u = io.uplink(1, 50, SimTime::ZERO);
        assert!(u.arrival.is_some());
        assert_eq!(io.ledger().downlink_bytes(), 100);
        assert_eq!(io.ledger().uplink_bytes(), 50);
    }

    #[test]
    fn lost_sync_broadcast_is_still_charged_but_async_is_not() {
        let mut io = lossy_io(1);
        let d = io.downlink(0, 100, SimTime::ZERO, true);
        assert!(d.arrival.is_none());
        assert_eq!(io.ledger().downlink_bytes(), 100, "sync rule: server paid");

        let mut io = lossy_io(1);
        let d = io.downlink(0, 100, SimTime::ZERO, false);
        assert!(d.arrival.is_none());
        assert_eq!(
            io.ledger().downlink_bytes(),
            0,
            "async rule: nothing charged"
        );
    }

    #[test]
    fn lost_uplink_is_never_charged() {
        let mut io = lossy_io(1);
        let u = io.uplink(0, 80, SimTime::ZERO);
        assert!(u.arrival.is_none());
        assert_eq!(io.ledger().uplink_bytes(), 0);
        // Fire-and-forget loss discovery point: send time + 1 s.
        assert!((u.sender_done.seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uplink_update_charges_exactly_the_encoded_bytes() {
        let mut io = lossless_io(1);
        let payload = UpdatePayload::dense(vec![0.5; 10]);
        let u = io.uplink_update(0, &payload, SimTime::ZERO);
        assert!(u.arrival.is_some());
        assert_eq!(io.ledger().uplink_bytes() as usize, payload.encode().len());
    }

    /// client — relay — server chain behind a [`RoundIo`].
    fn mesh_io(drop_prob: f64) -> RoundIo {
        let mut topo = Topology::new();
        let server = topo.add_node(NodeRole::Server);
        let relay = topo.add_node(NodeRole::Relay);
        let client = topo.add_node(NodeRole::Client);
        let spec = LinkSpec::new(1000.0, 1000.0, 0.1, 0.1, drop_prob);
        topo.add_duplex_link(client, relay, spec);
        topo.add_duplex_link(relay, server, spec);
        let layout = MeshLayout {
            topology: topo,
            clients: vec![client],
            server,
        };
        RoundIo::new(
            layout.into_network(Box::new(CostAwareDijkstra::default()), 7),
            1,
        )
    }

    #[test]
    fn mesh_transfers_charge_relay_hops() {
        let mut io = mesh_io(0.0);
        let u = io.uplink(0, 1000, SimTime::ZERO);
        assert!(u.arrival.is_some());
        let d = io.downlink(0, 500, SimTime::ZERO, false);
        assert!(d.arrival.is_some());
        // Two hops each way: one relay hop per transfer.
        assert_eq!(io.ledger().uplink_bytes(), 1000);
        assert_eq!(io.ledger().downlink_bytes(), 500);
        assert_eq!(io.ledger().relay_bytes(), 1500);
        assert_eq!(io.ledger().relay_messages(), 2);
        assert_eq!(io.ledger().total_bytes_with_control(), 3000);
    }

    #[test]
    fn mesh_relay_charges_cover_reliable_retries() {
        // Lossy mesh + retry transport: every attempt that cleared the
        // first hop also cost the relay a transmission, and the ledger
        // must see all of them, not just the final successful attempt's.
        let mut io = mesh_io(0.3);
        io.transport = Some(ReliableTransfer::new(ReliablePolicy::default(), 3));
        let mut attempts_with_relay = 0;
        for i in 0..50 {
            let before = io.ledger().relay_bytes();
            io.uplink(0, 100, SimTime::from_seconds(i as f64 * 100.0));
            attempts_with_relay += ((io.ledger().relay_bytes() - before) / 100) as usize;
        }
        let delivered = io.ledger().uplink_updates() as usize;
        assert!(
            attempts_with_relay >= delivered,
            "relay hops ({attempts_with_relay}) must cover at least every \
             delivered transfer ({delivered})"
        );
        assert!(io.ledger().relay_bytes() > 0);
    }

    #[test]
    fn star_ledgers_never_record_relay_traffic() {
        let mut io = lossless_io(1);
        io.uplink(0, 1000, SimTime::ZERO);
        io.downlink(0, 1000, SimTime::ZERO, true);
        assert_eq!(io.ledger().relay_bytes(), 0);
        assert_eq!(io.ledger().relay_messages(), 0);
    }

    #[test]
    fn reliable_transport_charges_control_and_retransmissions() {
        let mut io = lossless_io(1);
        io.transport = Some(ReliableTransfer::new(ReliablePolicy::default(), 3));
        let u = io.uplink(0, 200, SimTime::ZERO);
        assert!(u.arrival.is_some());
        assert_eq!(io.ledger().uplink_bytes(), 200);
        assert!(io.ledger().control_bytes() > 0, "ACK frames are charged");

        let mut io = lossy_io(1);
        io.transport = Some(ReliableTransfer::new(ReliablePolicy::default(), 3));
        let u = io.uplink(0, 200, SimTime::ZERO);
        assert!(u.arrival.is_none());
        assert_eq!(io.ledger().uplink_bytes(), 0);
        // Every attempt of a failed transfer is charged as waste (the
        // default policy retries the full payload each time).
        let wasted = io.ledger().retransmission_bytes();
        assert!(wasted >= 200, "waste covers at least one attempt: {wasted}");
        assert_eq!(wasted % 200, 0, "waste is whole payloads: {wasted}");
    }
}
