//! Allocation guard for the replica rule: building a resident runtime
//! allocates one parameter replica per device only when something reads
//! replicas.
//!
//! A counting global allocator tallies the allocations exactly one
//! parameter vector long while a 256-client runtime is built. FedAvg over
//! random selection reads no replica, so it allocates as many of them at
//! 256 clients as at 2; AdaFL's utility probes read the replicas, so its
//! runtime allocates at least one more per device.
//!
//! Kept as a single `#[test]` so no concurrent test thread perturbs the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::runtime::{RuntimeBuilder, SyncRuntime};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::FlConfig;
use adafl_nn::models::ModelSpec;

struct CountingAllocator;

/// The allocation size counted, in bytes; 0 counts nothing.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == WATCHED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size == WATCHED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn spec() -> ModelSpec {
    ModelSpec::Mlp {
        in_features: 64,
        hidden: vec![16],
        classes: 10,
    }
}

/// How many parameter-vector-sized allocations building `build` over
/// `clients` resident clients makes.
fn parameter_vectors(clients: usize, build: fn(RuntimeBuilder) -> SyncRuntime) -> u64 {
    let fl = FlConfig::builder()
        .clients(clients)
        .batch_size(4)
        .model(spec())
        .build();
    let data = SyntheticSpec::mnist_like(8, 4 * clients + 40).generate(1);
    let (train, test) = data.split_at(4 * clients);
    let builder = RuntimeBuilder::new(fl, test).partitioned(&train, Partitioner::Iid);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let runtime = build(builder);
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(runtime);
    counted
}

#[test]
fn only_a_run_that_reads_replicas_allocates_them() {
    const CLIENTS: usize = 256;
    let dim = spec().build(0).param_count();
    WATCHED.store(dim * std::mem::size_of::<f32>(), Ordering::Relaxed);

    let fedavg = |b: RuntimeBuilder| b.build_sync(Box::new(FedAvg::new()));
    let adafl = |b: RuntimeBuilder| b.build_adafl_sync(&AdaFlConfig::default());
    let (fedavg_small, fedavg_fleet) = (
        parameter_vectors(2, fedavg),
        parameter_vectors(CLIENTS, fedavg),
    );
    let adafl_fleet = parameter_vectors(CLIENTS, adafl);
    assert!(fedavg_fleet > 0, "the server's global model is counted");
    assert_eq!(
        fedavg_fleet, fedavg_small,
        "FedAvg over random selection allocates no per-device parameter vector"
    );
    assert!(
        adafl_fleet >= fedavg_fleet + CLIENTS as u64,
        "AdaFL allocates a replica per device: {adafl_fleet} parameter vectors \
         against FedAvg's {fedavg_fleet}"
    );
}
