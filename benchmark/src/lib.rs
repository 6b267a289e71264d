//! A benchmark of whole `SyncRuntime` / `AsyncRuntime` runs, measured from
//! outside the program through its public API.
//!
//! The binary has one mode, the driver's contract: `--workload W --seed N
//! --seconds S --trace 0|1`, a result object on the last line of standard
//! output, everything human-readable on standard error. README.md defines
//! the metrics, the workloads and the host-paired timing protocol.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workloads;
