//! Federated-learning framework for the AdaFL reproduction.
//!
//! Provides everything around the paper's contribution: simulated devices
//! and the trainers they compute with ([`Device`], [`Trainer`], or both in
//! one [`FlClient`]); one policy-driven round protocol in two
//! shapes — the synchronous [`runtime::SyncRuntime`] with the FedAvg /
//! FedAdam / FedProx / SCAFFOLD baselines ([`sync::strategies`]) and the
//! event-driven [`runtime::AsyncRuntime`] with FedAsync / FedBuff
//! (`async::strategies`) — both assembled by [`runtime::RuntimeBuilder`];
//! network integration via `adafl-netsim`, fault injection ([`faults`])
//! for the paper's resiliency study (Figure 1), and communication
//! accounting ([`ledger`]) for Tables I/II.
//!
//! The AdaFL policies themselves live in `adafl-core`, which plugs them
//! into the same builder.
//!
//! # Examples
//!
//! ```no_run
//! use adafl_data::{partition::Partitioner, synthetic::SyntheticSpec};
//! use adafl_fl::{config::FlConfig, runtime::RuntimeBuilder, sync::strategies::FedAvg};
//! use adafl_nn::models::ModelSpec;
//!
//! let data = SyntheticSpec::mnist_like(16, 1000).generate(0);
//! let (train, test) = data.split_at(800);
//! let cfg = FlConfig::builder()
//!     .clients(10)
//!     .rounds(20)
//!     .model(ModelSpec::LogisticRegression { in_features: 256, classes: 10 })
//!     .build();
//! let mut runtime = RuntimeBuilder::new(cfg, test)
//!     .partitioned(&train, Partitioner::Iid)
//!     .build_sync(Box::new(FedAvg::new()));
//! let history = runtime.run();
//! println!("final accuracy {}", history.final_accuracy());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod r#async;
pub mod checkpoint;
pub mod client;
pub mod compute;
pub mod config;
pub mod defense;
pub mod faults;
pub mod fleet;
pub mod history;
pub mod ledger;
pub mod pool;
pub mod robust;
pub mod runtime;
mod spec;
pub mod submodel;
pub mod sync;

pub use client::{Device, FlClient, LocalOutcome, Trainer, Trainers};
pub use config::FlConfig;
pub use fleet::{Binder, ClientPool, Fleet, ShardSource, VecShardSource};
pub use history::{RoundRecord, RunHistory};
pub use ledger::CommunicationLedger;
pub use submodel::{CapacityPolicy, CapacityTier, StaticCapacity};
