//! Cohort-resident client pools for fleet-scale simulation.
//!
//! The classic runtime keeps one [`FlClient`] — model replica, optimizer,
//! scratch arenas, data shard — resident per simulated client:
//! O(clients × model) memory that caps realistic runs at tens of
//! thousands of clients. A [`ClientPool`] instead keeps only as many live
//! clients as one cohort, rebinding each slot to the client it simulates
//! this round ([`FlClient::rebind`]) and materialising that client's
//! shard on demand from a [`ShardSource`]. Per-client dense state is
//! O(cohort), data is O(cohort × shard), and the fleet size only shows up
//! in O(clients)-but-tiny structures (link traces, the ledger, the fault
//! plan).
//!
//! Pooled fleets trade per-client *persistence* for memory: a slot's
//! loader is reseeded deterministically from `(seed, client, round)`, so
//! runs are reproducible, but nothing survives on a specific client
//! across rounds. A crashed pooled client therefore has nothing to
//! checkpoint — it sits its outage out and is rebound like any other —
//! while utility probes over the full fleet need a resident one.

use crate::client::FlClient;
use adafl_data::Dataset;
use adafl_nn::models::ModelSpec;
use std::fmt;

/// Produces client shards on demand, so a pooled fleet never holds more
/// than one cohort's data resident.
pub trait ShardSource: fmt::Debug + Send {
    /// Number of clients this source can shard for.
    fn clients(&self) -> usize;

    /// Materialises client `client`'s shard. Must be deterministic in
    /// `client` — two calls return identical datasets.
    ///
    /// # Panics
    ///
    /// Implementations panic when `client >= self.clients()`.
    fn shard(&self, client: usize) -> Dataset;
}

/// A [`ShardSource`] over pre-partitioned shards, cloning the requested
/// shard on demand. Holds all shards resident — useful for tests and
/// small fleets where the pooled *compute* state is the point, not the
/// data footprint.
#[derive(Debug)]
pub struct VecShardSource {
    shards: Vec<Dataset>,
}

impl VecShardSource {
    /// Wraps pre-partitioned shards.
    pub fn new(shards: Vec<Dataset>) -> Self {
        VecShardSource { shards }
    }
}

impl ShardSource for VecShardSource {
    fn clients(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, client: usize) -> Dataset {
        self.shards[client].clone()
    }
}

/// A pool of cohort-resident [`FlClient`]s: at most one cohort's worth of
/// live clients, rebound to the scheduled client ids each round.
pub struct ClientPool {
    spec: ModelSpec,
    source: Box<dyn ShardSource>,
    slots: Vec<FlClient>,
    learning_rate: f32,
    momentum: f32,
    batch_size: usize,
    seed: u64,
}

impl fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientPool")
            .field("clients", &self.source.clients())
            .field("resident_slots", &self.slots.len())
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

impl ClientPool {
    /// Creates an empty pool; slots are built lazily the first time a
    /// cohort of that size is checked out, then reused forever.
    pub fn new(
        spec: ModelSpec,
        source: Box<dyn ShardSource>,
        learning_rate: f32,
        momentum: f32,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        ClientPool {
            spec,
            source,
            slots: Vec::new(),
            learning_rate,
            momentum,
            batch_size,
            seed,
        }
    }

    /// Fleet size the pool simulates.
    pub fn clients(&self) -> usize {
        self.source.clients()
    }

    /// Live slots currently resident (peaks at the largest cohort seen).
    pub fn resident_slots(&self) -> usize {
        self.slots.len()
    }

    /// Checks out one slot per scheduled client, each rebound to simulate
    /// its client for round `round`, in the order given. Slots beyond the
    /// cohort size stay untouched and get reused next round.
    ///
    /// # Panics
    ///
    /// Panics when any id is out of range or its shard is empty.
    pub fn checkout(&mut self, ids: &[usize], round: u64) -> Vec<&mut FlClient> {
        while self.slots.len() < ids.len() {
            let c = ids[self.slots.len()];
            self.slots.push(FlClient::new(
                c,
                self.spec.build(self.seed),
                self.source.shard(c),
                self.learning_rate,
                self.momentum,
                self.batch_size,
                self.seed,
            ));
        }
        let slots = &mut self.slots[..ids.len()];
        for (slot, &c) in slots.iter_mut().zip(ids) {
            slot.rebind(c, self.source.shard(c), self.seed, round);
        }
        slots.iter_mut().collect()
    }
}

/// The runtime's client storage: every client resident (classic), or a
/// cohort-sized pool (fleet scale).
#[derive(Debug)]
pub enum Fleet {
    /// One live [`FlClient`] per simulated client.
    Resident(Vec<FlClient>),
    /// Cohort-resident pool over a [`ShardSource`].
    Pooled(ClientPool),
}

impl Fleet {
    /// Whether this fleet is pooled.
    pub fn is_pooled(&self) -> bool {
        matches!(self, Fleet::Pooled(_))
    }

    /// Live [`FlClient`]s currently resident: the whole fleet for
    /// resident storage, the peak cohort seen so far for pooled storage.
    pub fn resident_count(&self) -> usize {
        match self {
            Fleet::Resident(clients) => clients.len(),
            Fleet::Pooled(pool) => pool.resident_slots(),
        }
    }

    /// The resident clients as a mutable slice — the whole fleet for
    /// resident storage, empty for pooled storage (selection policies
    /// that probe individual clients need a resident fleet).
    pub fn resident_mut(&mut self) -> &mut [FlClient] {
        match self {
            Fleet::Resident(clients) => clients,
            Fleet::Pooled(_) => &mut [],
        }
    }

    /// Mutable access to one resident client (crash checkpoint/restore);
    /// `None` on a pooled fleet, which keeps no per-client state.
    pub fn resident_client(&mut self, client: usize) -> Option<&mut FlClient> {
        match self {
            Fleet::Resident(clients) => Some(&mut clients[client]),
            Fleet::Pooled(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_data::synthetic::SyntheticSpec;

    fn spec() -> ModelSpec {
        ModelSpec::LogisticRegression {
            in_features: 64,
            classes: 10,
        }
    }

    fn source(clients: usize) -> Box<dyn ShardSource> {
        let data = SyntheticSpec::mnist_like(8, clients * 20).generate(3);
        let shards = adafl_data::partition::Partitioner::Iid.split(&data, clients, 0);
        Box::new(VecShardSource::new(shards))
    }

    #[test]
    fn pool_reuses_slots_across_cohorts() {
        let mut pool = ClientPool::new(spec(), source(10), 0.05, 0.9, 8, 7);
        let a = pool.checkout(&[0, 3, 5], 0);
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].id(), 3);
        drop(a);
        assert_eq!(pool.resident_slots(), 3);
        let b = pool.checkout(&[7, 9], 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].id(), 7);
        drop(b);
        // Two cohorts later, still only the peak cohort's slots exist.
        assert_eq!(pool.resident_slots(), 3);
    }

    #[test]
    fn pooled_training_is_deterministic_per_client_and_round() {
        let shards = {
            let data = SyntheticSpec::mnist_like(8, 200).generate(3);
            adafl_data::partition::Partitioner::Iid.split(&data, 10, 0)
        };
        let mut pool_a = ClientPool::new(
            spec(),
            Box::new(VecShardSource::new(shards.clone())),
            0.05,
            0.9,
            8,
            7,
        );
        let mut pool_b = ClientPool::new(
            spec(),
            Box::new(VecShardSource::new(shards)),
            0.05,
            0.9,
            8,
            7,
        );
        let global = spec().build(7).params_flat();
        // Same client, same round, different slot position → same outcome.
        let mut a = pool_a.checkout(&[2, 4], 0);
        let out_a = a[1].train_local(&global, 3, None);
        drop(a);
        let mut b = pool_b.checkout(&[4], 0);
        let out_b = b[0].train_local(&global, 3, None);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn fleet_pooled_exposes_no_resident_clients() {
        let mut fleet = Fleet::Pooled(ClientPool::new(spec(), source(4), 0.05, 0.9, 8, 7));
        assert!(fleet.is_pooled());
        assert!(fleet.resident_mut().is_empty());
    }
}
