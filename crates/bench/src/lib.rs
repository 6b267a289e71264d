//! Experiment harness regenerating every table and figure of the AdaFL
//! paper.
//!
//! The paper's figures and tables are experiment files under `configs/`,
//! expanded by [`config`] and run by the `run_config` binary; the other
//! binaries in `src/bin/` are the claim sweeps that calibrate, assert or
//! measure in-process (see DESIGN.md's experiment index). This library holds
//! the shared pieces: the task definitions ([`tasks`]), fleet builders
//! ([`fleet`]), run drivers ([`runner`]) and reporting helpers ([`report`]).
//!
//! Absolute numbers differ from the paper (synthetic data, scaled models,
//! simulated links — see DESIGN.md's substitution table); the comparisons —
//! who wins, by roughly what factor, where the curves cross — are the
//! reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod config;
pub mod fleet;
pub mod golden;
pub mod plot;
pub mod report;
pub mod runner;
pub mod tasks;
