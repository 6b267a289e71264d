//! The policy-driven round runtime shared by every protocol flavour.
//!
//! AdaFL and its baselines are one server protocol — select, broadcast,
//! train, compress/uplink, screen, aggregate — run under a synchronous or
//! a fully asynchronous schedule and specialised by policy. The server is
//! written once: a `ServerCore` (global model and `ĝ`, test set,
//! transport and ledger, compute and fault models, recorder, the one
//! evaluator and its history rows) and a `ServerStages` chain (defense
//! screen → capacity feedback → robust pre-aggregation → aggregate or
//! coverage fold). The two runtimes are thin drivers that add only their
//! schedule, and a flavour is nothing but the bundle of policies handed to
//! the builder:
//!
//! ```text
//!   RuntimeBuilder ── scenario parts + options ──┐
//!     .build_sync(strategy)                      │   policy bundle
//!     .build_async(strategy)                     │   (baseline | AdaFL)
//!     .build_{sync,async}_runtime(policies)      ▼
//!             ┌───────────────────────────────────────────────────┐
//!             │  SyncRuntime (rounds)      AsyncRuntime (events)  │
//!             │  ┌────────────────┐        ┌───────────────────┐  │
//!             │  │ select (pool)  │        │ schedule_downlink │  │
//!             │  │ broadcast      │        │ start_training    │  │
//!             │  │ train (pool)   │        │ on_arrival        │  │
//!             │  │ encode         │        └─────────┬─────────┘  │
//!             │  │ uplink → sink  │                  │            │
//!             │  └───────┬────────┘                  │            │
//!             │   cohort ▼                   arrival ▼            │
//!             │  ServerStages: screen → capacity feedback →       │
//!             │                robust → aggregate | coverage fold │
//!             │  ServerCore:   global model + ĝ · test set ·      │
//!             │                RoundIo (network + transport +     │
//!             │                ledger) · ComputeModel · FaultPlan │
//!             │                · recorder · evaluator (sharded    │
//!             │                over the sync pool) + history rows │
//!             └───────────────────────────────────────────────────┘
//!
//!   policy axes:  SelectionPolicy   CompressionPolicy   AggregationPolicy
//!                 (random | utility) (static | DGC)     (SyncStrategy | AdaFL)
//!                                AsyncPolicy (dense | utility-gated DGC)
//! ```
//!
//! [`RuntimeBuilder`] is the only construction and configuration surface;
//! there are no per-flavour wrapper types, and a built runtime's
//! configuration is final. `adafl-core` adds the two AdaFL bundles through
//! an extension trait on the same builder. Every flavour's behaviour is
//! pinned byte-for-byte by the golden traces in `tests/golden/` —
//! identical `RunHistory`, ledger totals and telemetry streams.

mod baseline;
mod builder;
mod core;
mod emit;
mod event;
mod io;
mod payload;
mod policy;
mod sink;
mod stages;
mod sync;

pub use baseline::{
    RandomSelection, StaticCompressionPolicy, StrategyAggregation, StrategyAsyncPolicy,
};
pub use builder::{BuildError, RuntimeBuilder};
pub use event::AsyncRuntime;
pub use io::{Delivery, RoundIo};
pub use payload::{RoundUpdate, UpdatePayload, WireForm};
pub use policy::{
    AggregationPolicy, AsyncApplyCtx, AsyncDownlinkCtx, AsyncPolicy, AsyncUploadCtx,
    CompressionPolicy, SelectionCtx, SelectionPolicy, StreamAccumulator, SyncUploadCtx,
};
pub use sink::{Closed, SinkMode, UpdateSink};
pub use sync::{SyncPolicies, SyncRuntime};
