//! Graph-topology network simulation: multi-hop meshes with pluggable,
//! cost-aware dynamic rerouting.
//!
//! The star-shaped [`ClientNetwork`] models each client as one direct
//! link to the server. Real embedded fleets are ad-hoc meshes: traffic
//! crosses relays, nodes and links fail and recover mid-round, batteries
//! die, and the *path* a payload takes is itself a decision. This module
//! adds that layer:
//!
//! * [`Topology`] — nodes ([`NodeRole`]), directed links (a [`LinkSpec`]
//!   each, optionally a Gilbert–Elliott burst channel), seeded
//!   failure/recovery schedules, and optional [`EnergyBudget`]s that
//!   drain with transmitted bytes.
//! * [`RoutePlanner`] — the routing strategy. [`StaticShortestPath`] is
//!   the naive baseline (hop-count BFS, planned once, fails hard);
//!   [`CostAwareDijkstra`] re-plans on the live graph with
//!   latency + bandwidth + loss edge costs.
//! * [`MeshNetwork`] — presents the same `transfer(direction)` surface
//!   as [`ClientNetwork`] over a routed topology, so the FL engines run
//!   either flavor unchanged.
//! * [`FleetNetwork`] — the enum the engines actually hold. Its `Star`
//!   arm delegates to the untouched [`ClientNetwork`] code path, which
//!   is what keeps star-topology runs byte-for-byte identical.
//! * [`TransferMedium`] — the shared transfer surface, implemented by
//!   all three, each beside its type, over which the reliable transport
//!   is generic.
//!
//! [`ClientNetwork`]: crate::ClientNetwork

mod mesh;
mod route;
mod topology;

pub use mesh::{MeshLayout, MeshNetwork};
pub use route::{CostAwareDijkstra, RoutePlanner, StaticShortestPath};
pub use topology::{EnergyBudget, MeshLink, NodeRole, Topology};

use crate::{ClientNetwork, LinkSpec, SimTime, TransferDirection, TransferOutcome};
use adafl_telemetry::SharedRecorder;

/// The transfer surface shared by the star and mesh networks: simulate a
/// payload moving between a client and the server, and describe the
/// effective end-to-end link for probes and ACK timing.
///
/// The reliable transport ([`ReliableTransfer`]) is generic over this
/// trait, so retry/backoff semantics are written once and hold over any
/// medium.
///
/// [`ReliableTransfer`]: crate::ReliableTransfer
pub trait TransferMedium {
    /// Simulates moving `bytes` between `client` and the server in
    /// `direction`, starting at `now`.
    fn transfer(
        &mut self,
        client: usize,
        bytes: usize,
        now: SimTime,
        direction: TransferDirection,
    ) -> TransferOutcome;

    /// Effective end-to-end link conditions of `client` at `now`.
    fn link_at(&self, client: usize, now: SimTime) -> LinkSpec;
}

/// Either network flavor behind one type, so the round runtime holds a
/// concrete value and the star arm stays the exact pre-mesh code path.
///
/// Engine constructors take `impl Into<FleetNetwork>`, and both flavors
/// convert with [`From`] — existing call sites passing a
/// [`ClientNetwork`] compile unchanged.
#[derive(Debug, Clone)]
pub enum FleetNetwork {
    /// Star of direct per-client links (the original model).
    Star(ClientNetwork),
    /// Routed multi-hop mesh.
    Mesh(MeshNetwork),
}

impl From<ClientNetwork> for FleetNetwork {
    fn from(net: ClientNetwork) -> Self {
        FleetNetwork::Star(net)
    }
}

impl From<MeshNetwork> for FleetNetwork {
    fn from(net: MeshNetwork) -> Self {
        FleetNetwork::Mesh(net)
    }
}

impl FleetNetwork {
    /// Number of clients.
    pub fn len(&self) -> usize {
        match self {
            FleetNetwork::Star(net) => net.len(),
            FleetNetwork::Mesh(net) => net.len(),
        }
    }

    /// Returns `true` when the network has no clients (never true
    /// post-construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches a telemetry recorder to the underlying network.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        match self {
            FleetNetwork::Star(net) => net.set_recorder(recorder),
            FleetNetwork::Mesh(net) => net.set_recorder(recorder),
        }
    }

    /// Relay bytes accumulated by the mesh since the last call; always
    /// zero for a star (a star has no relays — nothing is recorded and
    /// no state is touched).
    pub fn take_relay_bytes(&mut self) -> u64 {
        match self {
            FleetNetwork::Star(_) => 0,
            FleetNetwork::Mesh(net) => net.take_relay_bytes(),
        }
    }

    /// The star network, when this is one (used by star-only tooling).
    pub fn as_star(&self) -> Option<&ClientNetwork> {
        match self {
            FleetNetwork::Star(net) => Some(net),
            FleetNetwork::Mesh(_) => None,
        }
    }

    /// The mesh network, when this is one.
    pub fn as_mesh(&self) -> Option<&MeshNetwork> {
        match self {
            FleetNetwork::Star(_) => None,
            FleetNetwork::Mesh(net) => Some(net),
        }
    }

    /// Effective end-to-end link conditions of `client` at `now` — the
    /// direct link for a star, the routed path's combined spec for a mesh.
    pub fn link_at(&self, client: usize, now: SimTime) -> LinkSpec {
        match self {
            FleetNetwork::Star(net) => net.link_at(client, now),
            FleetNetwork::Mesh(net) => net.link_at(client, now),
        }
    }
}

impl TransferMedium for FleetNetwork {
    fn transfer(
        &mut self,
        client: usize,
        bytes: usize,
        now: SimTime,
        direction: TransferDirection,
    ) -> TransferOutcome {
        match self {
            FleetNetwork::Star(net) => net.transfer(client, bytes, now, direction),
            FleetNetwork::Mesh(net) => net.transfer(client, bytes, now, direction),
        }
    }

    fn link_at(&self, client: usize, now: SimTime) -> LinkSpec {
        FleetNetwork::link_at(self, client, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkTrace;
    use adafl_telemetry::{names, InMemoryRecorder};

    #[test]
    fn every_medium_moves_a_payload_in_link_time_under_the_directions_names() {
        // Loss-free links whose numbers are exact in binary, so a two-hop
        // store-and-forward sum equals the combined spec's time bit for bit.
        let spec = LinkSpec::new(1024.0, 2048.0, 0.125, 0.25, 0.0);
        let star = |rec: SharedRecorder| {
            let mut net = ClientNetwork::new(vec![LinkTrace::constant(spec)], 0);
            net.set_recorder(rec);
            net
        };
        // client — relay — server.
        let mesh = |rec: SharedRecorder| {
            let mut topology = Topology::new();
            let server = topology.add_node(NodeRole::Server);
            let relay = topology.add_node(NodeRole::Relay);
            let client = topology.add_node(NodeRole::Client);
            topology.add_duplex_link(client, relay, spec);
            topology.add_duplex_link(relay, server, spec);
            let layout = MeshLayout {
                topology,
                clients: vec![client],
                server,
            };
            let mut net = layout.into_network(Box::new(StaticShortestPath), 0);
            net.set_recorder(rec);
            net
        };
        type Build<'a> = &'a dyn Fn(SharedRecorder) -> Box<dyn TransferMedium>;
        let media: [(&str, Build<'_>); 4] = [
            ("star", &|rec| Box::new(star(rec))),
            ("mesh", &|rec| Box::new(mesh(rec))),
            ("fleet star", &|rec| Box::new(FleetNetwork::from(star(rec)))),
            ("fleet mesh", &|rec| Box::new(FleetNetwork::from(mesh(rec)))),
        ];
        let directions = [
            (
                TransferDirection::Uplink,
                names::SPAN_UPLINK,
                names::NET_UPLINK_SECONDS,
            ),
            (
                TransferDirection::Downlink,
                names::SPAN_DOWNLINK,
                names::NET_DOWNLINK_SECONDS,
            ),
        ];
        let (now, bytes) = (SimTime::from_seconds(4.0), 2048);
        for (direction, span_kind, histogram) in directions {
            for (name, build) in media {
                let case = format!("{name}, {direction:?}");
                let rec = InMemoryRecorder::shared();
                let mut net = build(rec.clone());
                let link_time = net.link_at(0, now).transfer_time(bytes, direction);
                let outcome = net.transfer(0, bytes, now, direction);
                assert_eq!(outcome.arrival(), Some(now + link_time), "{case}");
                let trace = rec.snapshot();
                assert_eq!(trace.spans.len(), 1, "{case}");
                assert_eq!(trace.spans_of(span_kind).count(), 1, "{case}");
                let timed: Vec<&str> = trace
                    .histograms
                    .keys()
                    .map(String::as_str)
                    .filter(|h| *h != names::MESH_PATH_HOPS)
                    .collect();
                assert_eq!(timed, [histogram], "{case}");
            }
        }
    }
}
