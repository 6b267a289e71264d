//! Asynchronous federated learning: the [`AsyncStrategy`] contract and
//! its baseline strategies. The event loop itself is
//! [`crate::runtime::AsyncRuntime`].

pub mod strategies;

pub use strategies::AsyncStrategy;

// The baseline flavour's end-to-end tests, under the module path tier-1's
// floor list names them by.
#[cfg(test)]
#[path = "runtime_tests.rs"]
mod engine;
