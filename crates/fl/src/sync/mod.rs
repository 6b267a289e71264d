//! Synchronous federated learning: the [`SyncStrategy`] contract, its
//! baseline strategies and the static client-side compression schemes.
//! The round protocol itself is [`crate::runtime::SyncRuntime`].

pub mod strategies;

mod static_compression;

pub(crate) use static_compression::CompressorState;
pub use static_compression::StaticCompression;
pub use strategies::{ClientUpdate, SyncStrategy};

// The baseline flavour's end-to-end tests, under the module path tier-1's
// floor list names them by.
#[cfg(test)]
#[path = "runtime_tests.rs"]
mod engine;
