//! **AdaFL** — the adaptive federated-learning framework of *"Resilient
//! Federated Learning on Embedded Devices with Constrained Network
//! Connectivity"* (DAC 2025).
//!
//! AdaFL couples two adaptive mechanisms, both driven by a per-client
//! **utility score** `S_i = f(B_i^down, B_i^up, U(g_i, ĝ))` combining the
//! client's link bandwidth with the similarity between its local gradient
//! and the previous round's global gradient:
//!
//! 1. **Adaptive node selection** ([`selection`], Algorithm 1 of the paper):
//!    only clients whose score passes a threshold `τ`, ranked top-`K`,
//!    transmit updates — exploiting the paper's empirical finding that
//!    moderate client dropout barely hurts accuracy.
//! 2. **Adaptive gradient compression** ([`compression_control`]): selected
//!    clients compress with deep gradient compression at a rate set by
//!    their utility — high-utility clients send nearly-dense updates
//!    (ratio → 4×), low-utility clients aggressive sparse ones (→ 210×) —
//!    exploiting the finding that *staleness* hurts more than *sparsity*,
//!    so updates must above all stay timely.
//!
//! Both mechanisms are [`policies`] for the round runtimes of `adafl-fl`:
//! [`AdaFlBuild`] extends its `RuntimeBuilder` with
//! [`build_adafl_sync`](AdaFlBuild::build_adafl_sync) and
//! [`build_adafl_async`](AdaFlBuild::build_adafl_async), the synchronous
//! and fully-asynchronous protocols evaluated in the paper (Tables I/II,
//! Figure 3), on top of the substrate crates (`adafl-fl`, `adafl-netsim`,
//! `adafl-compression`).
//!
//! # Examples
//!
//! ```no_run
//! use adafl_core::{AdaFlBuild, AdaFlConfig};
//! use adafl_data::{partition::Partitioner, synthetic::SyntheticSpec};
//! use adafl_fl::{runtime::RuntimeBuilder, FlConfig};
//! use adafl_nn::models::ModelSpec;
//!
//! let data = SyntheticSpec::mnist_like(16, 1000).generate(0);
//! let (train, test) = data.split_at(800);
//! let fl = FlConfig::builder()
//!     .clients(10)
//!     .rounds(30)
//!     .model(ModelSpec::MnistCnn { height: 16, width: 16, classes: 10 })
//!     .build();
//! let mut runtime = RuntimeBuilder::new(fl, test)
//!     .partitioned(&train, Partitioner::LabelShards { shards_per_client: 2 })
//!     .build_adafl_sync(&AdaFlConfig::default());
//! let history = runtime.run();
//! println!("AdaFL reached {:.1}%", history.final_accuracy() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
pub mod capacity;
pub mod compression_control;
mod config;
pub mod policies;
pub mod selection;
pub mod utility;
pub mod wire;

pub use build::{adafl_sync_policies, AdaFlBuild};
pub use capacity::AdaptiveCapacity;
pub use compression_control::CompressionController;
pub use config::AdaFlConfig;
pub use selection::select_clients;
pub use utility::{utility_score, SimilarityMetric, UtilityInputs};

// The two AdaFL flavours' end-to-end tests, under the module paths tier-1's
// floor list names them by.
#[cfg(test)]
#[path = "async_runtime_tests.rs"]
mod async_engine;
#[cfg(test)]
#[path = "sync_runtime_tests.rs"]
mod sync_engine;
