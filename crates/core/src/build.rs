//! AdaFL flavours on the shared [`RuntimeBuilder`].
//!
//! `adafl-fl`'s builder knows how to assemble the baseline flavours; this
//! extension trait teaches it the two AdaFL ones, so every run in the
//! workspace is constructed through the same entry point and comes back
//! as the same [`SyncRuntime`] / [`AsyncRuntime`] — AdaFL is a policy
//! bundle ([`crate::policies`]), not a wrapper type:
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
//!     .model(ModelSpec::LogisticRegression { in_features: 256, classes: 10 })
//!     .build();
//! let mut runtime = RuntimeBuilder::new(fl, test)
//!     .partitioned(&train, Partitioner::Iid)
//!     .build_adafl_sync(&AdaFlConfig::default());
//! let history = runtime.run();
//! ```

use crate::config::AdaFlConfig;
use crate::policies::{AdaFlAggregation, AdaFlAsyncPolicy, AdaptiveDgc, UtilitySelection};
use adafl_fl::runtime::{AsyncRuntime, RuntimeBuilder, SyncPolicies, SyncRuntime};

/// Builds the AdaFL policy bundle for a synchronous runtime: utility
/// selection seeded with `selection_seed`, rank-adaptive DGC, the
/// sample-weighted sparse mean, and no deadline enforcement (the AdaFL
/// server waits for its whole cohort).
pub fn adafl_sync_policies(ada: &AdaFlConfig, selection_seed: u64) -> SyncPolicies {
    SyncPolicies {
        selection: Box::new(UtilitySelection::new(ada, selection_seed)),
        compression: Box::new(AdaptiveDgc::new(ada)),
        aggregation: Box::new(AdaFlAggregation),
        enforce_deadline: false,
    }
}

/// Extension methods building the AdaFL flavours from a
/// [`RuntimeBuilder`].
pub trait AdaFlBuild {
    /// Builds the synchronous AdaFL flavour (Figure 2's control flow,
    /// top-k topology): [`adafl_sync_policies`] on a [`SyncRuntime`].
    /// Each post-warm-up round:
    ///
    /// 1. The server broadcasts a compact **digest** of the previous
    ///    round's global gradient `ĝ` (top-1% sparse) to every client.
    /// 2. Each client probes one mini-batch gradient at its current local
    ///    state and reports only a **utility score** (16 bytes) — no model
    ///    transfer.
    /// 3. The server runs Algorithm 1 (threshold `τ`, top-`K`) over the
    ///    scores.
    /// 4. Selected clients download the full global model, train locally,
    ///    and upload **DGC-compressed** deltas at a rank-dependent ratio.
    /// 5. The server aggregates the sparse deltas (sample-weighted), and
    ///    the aggregate becomes the next round's `ĝ`.
    ///
    /// Unselected clients neither download the full model nor upload —
    /// that is where the 60–78 % bandwidth saving comes from.
    ///
    /// # Panics
    ///
    /// Panics when `ada` is invalid, and wherever
    /// [`RuntimeBuilder::build_sync_runtime`] does.
    fn build_adafl_sync(self, ada: &AdaFlConfig) -> SyncRuntime;

    /// Builds the fully-asynchronous AdaFL flavour
    /// ([`AdaFlAsyncPolicy`] on an [`AsyncRuntime`]): "the server upgrades
    /// its global model each time it receives a gradient update". Each
    /// client loops independently; after training it evaluates its own
    /// utility against the `ĝ` digest it received with the global model:
    ///
    /// * score `< τ` → the client **halts**: it discards the upload
    ///   (saving the uplink entirely) and waits for the next global model
    ///   — the paper's computational-saving behaviour for low-utility
    ///   clients;
    /// * score `≥ τ` → the delta is DGC-compressed at a score-dependent
    ///   ratio and uploaded; the server mixes it in with a
    ///   staleness-discounted weight.
    ///
    /// # Panics
    ///
    /// Panics when `ada` is invalid, with the
    /// [`BuildError`](adafl_fl::runtime::BuildError)'s message where
    /// [`RuntimeBuilder::build_async_runtime`] would return one, and
    /// wherever that panics.
    fn build_adafl_async(self, ada: &AdaFlConfig) -> AsyncRuntime;
}

impl AdaFlBuild for RuntimeBuilder {
    fn build_adafl_sync(self, ada: &AdaFlConfig) -> SyncRuntime {
        ada.validate();
        let policies = adafl_sync_policies(ada, self.fl().seed_for("selection"));
        self.build_sync_runtime(policies)
    }

    fn build_adafl_async(self, ada: &AdaFlConfig) -> AsyncRuntime {
        ada.validate();
        let policy = AdaFlAsyncPolicy::new(ada, self.fl().clients);
        self.build_async_runtime(Box::new(policy))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}
