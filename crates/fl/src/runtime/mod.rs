//! The policy-driven round runtime shared by every protocol flavour.
//!
//! AdaFL and its baselines are one round protocol specialised by policy:
//! the runtime owns the skeleton — client scheduling, transport and ledger
//! charging, fault injection, checkpoint recovery, the defensive gate,
//! telemetry spans and history recording — once, and a flavour is nothing
//! but the bundle of policies handed to the builder:
//!
//! ```text
//!   RuntimeBuilder ── scenario parts + options ──┐
//!     .build_sync(strategy)                      │   policy bundle
//!     .build_async(strategy)                     │   (baseline | AdaFL)
//!     .build_{sync,async}_runtime(policies)      ▼
//!                 ┌─────────────────────────────────────────────┐
//!                 │  SyncRuntime          AsyncRuntime          │
//!                 │  ┌───────────────┐    ┌──────────────────┐  │
//!                 │  │ select_cohort │    │ event loop       │  │
//!                 │  │ broadcast     │    │ download/train   │  │
//!                 │  │ train (pool)  │    │ upload/apply     │  │
//!                 │  │ encode        │    └──────┬───────────┘  │
//!                 │  │ uplink        │           │              │
//!                 │  │ aggregate     │           │              │
//!                 │  └──────┬────────┘           │              │
//!                 │         ▼                    ▼              │
//!                 │  RoundIo (network + transport + ledger)     │
//!                 │  FaultPlan · DefenseGate · telemetry        │
//!                 └─────────────────────────────────────────────┘
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
mod emit;
mod event;
mod io;
mod payload;
mod policy;
mod sink;
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
