//! Discrete-event network simulator for federated learning — the offline
//! stand-in for the ns3-fl simulation the paper uses (see DESIGN.md).
//!
//! The FL engines in `adafl-fl` consume three abstractions from this crate:
//!
//! * [`LinkSpec`] — a client's instantaneous uplink/downlink bandwidth,
//!   latency and loss probability, with [`LinkSpec::transfer_time`]
//!   computing a payload's delay in a [`TransferDirection`].
//! * [`LinkTrace`] — time-varying link conditions (constant, periodic
//!   degradation, seeded random walk), because the paper's core argument is
//!   that *static* strategies fail under *dynamic* networks.
//! * [`EventQueue`] — a deterministic discrete-event scheduler driving the
//!   asynchronous FL engine and all simulated-time measurements.
//!
//! On top of these, the [`graph`] module models multi-hop meshes: a
//! [`Topology`] of clients, relays and the server with failure/recovery
//! schedules and energy budgets, routed by a pluggable [`RoutePlanner`]
//! and exposed to the engines through [`MeshNetwork`] / [`FleetNetwork`],
//! which share the star network's transfer surface.
//!
//! # Examples
//!
//! ```
//! use adafl_netsim::{LinkSpec, SimTime};
//!
//! let link = LinkSpec::new(1_000_000.0, 2_000_000.0, 0.02, 0.01, 0.0);
//! let t = link.uplink_time(500_000);
//! assert!((t.seconds() - 0.52).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod gilbert;
pub mod graph;
mod link;
mod network;
mod reliable;
mod time;
mod trace;
pub mod tracefile;

pub use event::EventQueue;
pub use gilbert::{ChannelState, GilbertElliott};
pub use graph::{
    CostAwareDijkstra, EnergyBudget, FleetNetwork, MeshLayout, MeshNetwork, NodeRole, RoutePlanner,
    StaticShortestPath, Topology, TransferMedium,
};
pub use link::{LinkProfile, LinkSpec, TransferDirection};
pub use network::{ClientNetwork, TransferOutcome};
pub use reliable::{ReliablePolicy, ReliableTransfer, TransferReport};
pub use time::SimTime;
pub use trace::{LinkTrace, TraceKind};
