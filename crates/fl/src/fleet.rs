//! Cohort-resident device pools for fleet-scale simulation.
//!
//! A resident fleet keeps one [`Device`] per simulated client — shard,
//! loader and parameter replica: O(clients × model) memory that caps
//! realistic runs at tens of thousands of clients. A [`ClientPool`]
//! instead keeps only as many devices as one cohort, with no replica, and
//! rebinds each to the client it simulates this round ([`Device::rebind`])
//! with that client's shard handed over on demand by a [`ShardSource`]:
//! shared with the source where it keeps the shard resident (a
//! [`Dataset`] clone is a reference-count increment), materialised where
//! it does not. Per-client state is O(cohort × shard), and the fleet size
//! only shows up in O(clients)-but-tiny structures (link traces, the
//! ledger, the fault plan). Neither kind of fleet holds compute: the runtime's
//! [`Trainers`](crate::client::Trainers), one per pool thread, do.
//!
//! Pooled fleets trade per-client *persistence* for memory: a device's
//! loader is reseeded deterministically from `(seed, client, round)`, so
//! runs are reproducible, but nothing survives on a specific client
//! across rounds. A pooled device trains from the global model, and the
//! coordinates a sub-view round leaves uncovered are the initial model's
//! (see the replica rule in [`crate::client`]). A crashed pooled client
//! therefore has nothing to checkpoint — it sits its outage out and is
//! rebound like any other — while utility probes over the full fleet need
//! a resident one.

use crate::client::Device;
use adafl_data::Dataset;
use adafl_nn::models::ModelSpec;
use std::fmt;

/// Hands out client shards on demand, so a pooled fleet never holds more
/// than one cohort's data beyond what the source itself keeps. `Sync`,
/// because each training job fetches its own device's shard on a pool
/// thread.
pub trait ShardSource: fmt::Debug + Send + Sync {
    /// Number of clients this source can shard for.
    fn clients(&self) -> usize;

    /// Client `client`'s shard, shared with the source's own copy or
    /// materialised. Must be deterministic in `client` — two calls return
    /// identical datasets.
    ///
    /// # Panics
    ///
    /// Implementations panic when `client >= self.clients()`.
    fn shard(&self, client: usize) -> Dataset;
}

/// A [`ShardSource`] over pre-partitioned shards, sharing the requested
/// shard on demand: a device reads the source's own storage, and a fetch
/// neither copies nor allocates. Holds all shards resident — useful for
/// tests and small fleets where the pooled *compute* state is the point,
/// not the data footprint.
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

/// Binds a pooled device to the client it simulates this round — the
/// per-device step of a checkout, run inside each training job.
#[derive(Debug, Clone, Copy)]
pub struct Binder<'a> {
    source: &'a dyn ShardSource,
    seed: u64,
}

impl Binder<'_> {
    /// Installs client `client`'s shard on `device` and reseeds its loader
    /// for `round`.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of range or its shard is empty.
    pub fn bind(&self, device: &mut Device, client: usize, round: u64) {
        device.rebind(client, self.source.shard(client), self.seed, round);
    }
}

/// A pool of cohort-resident [`Device`]s without replicas: at most one
/// cohort's worth, rebound to the scheduled client ids each round.
pub struct ClientPool {
    /// The fleet's model, which the pool's devices never hold: trainers
    /// are the runtime's.
    spec: ModelSpec,
    source: Box<dyn ShardSource>,
    devices: Vec<Device>,
    learning_rate: f32,
    momentum: f32,
    batch_size: usize,
    seed: u64,
}

impl fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientPool")
            .field("spec", &self.spec)
            .field("clients", &self.source.clients())
            .field("resident_slots", &self.devices.len())
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

impl ClientPool {
    /// Creates an empty pool; devices are built lazily the first time a
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
            devices: Vec::new(),
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

    /// Live devices currently resident (peaks at the largest cohort seen).
    pub fn resident_slots(&self) -> usize {
        self.devices.len()
    }

    /// One device per scheduled client, in the order given, still bound to
    /// whoever they simulated last, and the [`Binder`] each must go
    /// through before it trains. Devices beyond the cohort size stay
    /// untouched and get reused next round; a device created here fetches
    /// its first client's shard once.
    ///
    /// # Panics
    ///
    /// Panics when a created device's id is out of range or its shard is
    /// empty.
    pub fn lease(&mut self, ids: &[usize]) -> (&mut [Device], Binder<'_>) {
        while self.devices.len() < ids.len() {
            let c = ids[self.devices.len()];
            self.devices.push(Device::new(
                c,
                self.source.shard(c),
                self.learning_rate,
                self.momentum,
                self.batch_size,
                self.seed,
            ));
        }
        let binder = Binder {
            source: &*self.source,
            seed: self.seed,
        };
        (&mut self.devices[..ids.len()], binder)
    }

    /// Checks out one device per scheduled client, each bound to simulate
    /// its client for round `round`, in the order given: [`ClientPool::lease`]
    /// plus the same per-device [`Binder::bind`] a training job runs.
    ///
    /// # Panics
    ///
    /// Panics when any id is out of range or its shard is empty.
    pub fn checkout(&mut self, ids: &[usize], round: u64) -> Vec<&mut Device> {
        let (devices, binder) = self.lease(ids);
        devices
            .iter_mut()
            .zip(ids)
            .map(|(device, &c)| {
                binder.bind(device, c, round);
                device
            })
            .collect()
    }
}

/// The runtime's client storage: every device resident with its replica
/// (classic), or a cohort-sized pool (fleet scale).
#[derive(Debug)]
pub enum Fleet {
    /// One live [`Device`], replica included, per simulated client.
    Resident(Vec<Device>),
    /// Cohort-resident pool over a [`ShardSource`].
    Pooled(ClientPool),
}

impl Fleet {
    /// Whether this fleet is pooled.
    pub fn is_pooled(&self) -> bool {
        matches!(self, Fleet::Pooled(_))
    }

    /// Live devices currently resident: the whole fleet for resident
    /// storage, the peak cohort seen so far for pooled storage.
    pub fn resident_count(&self) -> usize {
        match self {
            Fleet::Resident(devices) => devices.len(),
            Fleet::Pooled(pool) => pool.resident_slots(),
        }
    }

    /// The resident devices as a mutable slice — the whole fleet for
    /// resident storage, empty for pooled storage (selection policies
    /// that probe individual clients need a resident fleet).
    pub fn resident_mut(&mut self) -> &mut [Device] {
        match self {
            Fleet::Resident(devices) => devices,
            Fleet::Pooled(_) => &mut [],
        }
    }

    /// Mutable access to one resident device (crash checkpoint/restore);
    /// `None` on a pooled fleet, which keeps no per-client state.
    pub fn resident_device(&mut self, client: usize) -> Option<&mut Device> {
        match self {
            Fleet::Resident(devices) => devices.get_mut(client),
            Fleet::Pooled(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Trainer;
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
        let mut trainer = Trainer::new(spec().build(7));
        // Same client, same round, different slot position → same outcome.
        let mut a = pool_a.checkout(&[2, 4], 0);
        let out_a = trainer.train_local(a[1], &global, 3, None);
        drop(a);
        let mut b = pool_b.checkout(&[4], 0);
        let out_b = trainer.train_local(b[0], &global, 3, None);
        assert_eq!(out_a, out_b);
        // A pooled device keeps no replica for the next client to inherit.
        assert!(pool_b.checkout(&[4], 1)[0].replica().is_none());
    }

    #[test]
    fn fleet_pooled_exposes_no_resident_clients() {
        let mut fleet = Fleet::Pooled(ClientPool::new(spec(), source(4), 0.05, 0.9, 8, 7));
        assert!(fleet.is_pooled());
        assert!(fleet.resident_mut().is_empty());
    }
}
