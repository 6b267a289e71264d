//! Synthetic datasets and federated partitioners for the AdaFL reproduction.
//!
//! Real MNIST/CIFAR downloads are unavailable in the offline build
//! environment, so this crate provides seeded class-conditional generators
//! ([`synthetic`]) whose learning dynamics stand in for them (see DESIGN.md's
//! substitution table), plus the IID and non-IID partitioners
//! ([`partition`]) that distribute a dataset across federated clients.
//!
//! # Examples
//!
//! ```
//! use adafl_data::synthetic::SyntheticSpec;
//! use adafl_data::partition::Partitioner;
//!
//! let spec = SyntheticSpec::mnist_like(16, 200);
//! let data = spec.generate(42);
//! let parts = Partitioner::Iid.split(&data, 10, 7);
//! assert_eq!(parts.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corruption;
mod dataset;
pub mod loader;
pub mod partition;
pub mod synthetic;

pub use dataset::Dataset;
