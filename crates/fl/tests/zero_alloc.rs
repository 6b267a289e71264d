//! Allocation-regression guard for the training hot path.
//!
//! A counting global allocator measures how many heap allocations a
//! `train_local` call performs after warm-up. Each call has a fixed
//! allocation overhead (the returned delta vector, flat parameter
//! snapshots), but the *per-step* cost must be zero: a call running 11
//! steps must allocate exactly as much as a call running 1 step. This
//! pins the whole workspace architecture — batch loading, im2col, layer
//! forward/backward, loss, and the optimizer step all reuse buffers. The
//! sub-view entry and the utility probe share that one step, so their
//! counts are pinned against it here too, and so is a pooled device's
//! per-round rebind onto a warm trainer.
//!
//! Kept as a single `#[test]` so no concurrent test thread perturbs the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::{Device, FlClient, ShardSource, Trainer, VecShardSource};
use adafl_nn::models::ModelSpec;
use adafl_nn::SubView;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn steady_state_training_steps_allocate_nothing() {
    // The paper's CNN: conv → pool → conv → pool → dense → dense, so the
    // check covers im2col scratch, activation caches and argmax buffers,
    // not just the dense path. Shard size is a multiple of the batch size
    // so every batch has identical shape.
    let spec = ModelSpec::MnistCnn {
        height: 16,
        width: 16,
        classes: 10,
    };
    let data = SyntheticSpec::mnist_like(16, 64).generate(5);
    let shards = Partitioner::Iid.split(&data, 1, 7);
    let mut clients = FlClient::fleet(&spec, shards, 0.05, 0.9, 16, 13);
    let client = &mut clients[0];
    let global = spec.build(13).params_flat();

    // Warm-up: grows every workspace/cache to steady-state capacity and
    // crosses an epoch boundary (4 batches per epoch).
    client.train_local(&global, 12, None);

    let (allocs_one_step, _) = allocations_during(|| client.train_local(&global, 1, None));
    let (allocs_eleven_steps, _) = allocations_during(|| client.train_local(&global, 11, None));

    // Identical totals mean the 10 extra steps performed zero heap
    // allocations; the fixed per-call overhead (delta vector, parameter
    // snapshots) cancels out.
    assert_eq!(
        allocs_eleven_steps, allocs_one_step,
        "per-step allocations crept back into the training hot path: \
         1-step call made {allocs_one_step} allocations, \
         11-step call made {allocs_eleven_steps}"
    );
    // Sanity: the counter is actually live.
    assert!(
        allocs_one_step > 0,
        "fixed per-call overhead should register"
    );

    // The gradient-hook configuration (the path sub-view training rides:
    // mask → hook → re-mask over the flat gradient) must not reintroduce
    // per-step allocations either. The hook itself only rescales in place.
    let mut hook = |grads: &mut [f32], _params: &[f32], _global: &[f32]| {
        for g in grads.iter_mut() {
            *g *= 0.5;
        }
    };
    client.train_local(&global, 12, Some(&mut hook));
    let (hooked_one_step, _) =
        allocations_during(|| client.train_local(&global, 1, Some(&mut hook)));
    let (hooked_eleven_steps, _) =
        allocations_during(|| client.train_local(&global, 11, Some(&mut hook)));
    assert_eq!(
        hooked_eleven_steps, hooked_one_step,
        "per-step allocations crept into the gradient-hook path: \
         1-step call made {hooked_one_step} allocations, \
         11-step call made {hooked_eleven_steps}"
    );

    // The sub-view entry rides the same loop: no per-step allocation, and
    // per call exactly what `train_local` pays (the returned delta) — the
    // hook's round anchor is copied into scratch the client keeps.
    let view = SubView::full(&client.model().segment_map());
    client.train_local_view(&view, &global, 12, Some(&mut hook));
    let (view_one_step, _) =
        allocations_during(|| client.train_local_view(&view, &global, 1, None));
    let (view_eleven_steps, _) =
        allocations_during(|| client.train_local_view(&view, &global, 11, None));
    let (hooked_view, _) =
        allocations_during(|| client.train_local_view(&view, &global, 1, Some(&mut hook)));
    assert_eq!(
        view_eleven_steps, view_one_step,
        "per-step allocations crept into the sub-view path"
    );
    assert_eq!(
        (view_one_step, hooked_view),
        (allocs_one_step, allocs_one_step),
        "a sub-view call must allocate as often as a full-width call, hooked or not"
    );
    let (probe, _) = allocations_during(|| client.probe_gradient_with(|grad| grad.len()));
    assert_eq!(probe, 0, "a borrowed probe must not allocate");

    // A pooled round: the device is rebound to its client — the shard the
    // source shares, the loader reseeded in place — and trained on a warm
    // trainer. Fetching the shard allocates nothing; the round allocates
    // only the returned delta.
    let source = VecShardSource::new(Partitioner::Iid.split(&data, 2, 7));
    let mut trainer = Trainer::new(spec.build(13));
    let mut device = Device::new(0, source.shard(0), 0.05, 0.9, 16, 13);
    for round in 0..2 {
        for c in 0..2 {
            device.rebind(c, source.shard(c), 13, round);
            trainer.train_local(&mut device, &global, 4, None);
        }
    }
    let (shard, _) = allocations_during(|| source.shard(1));
    let (pooled, _) = allocations_during(|| {
        device.rebind(1, source.shard(1), 13, 2);
        trainer.train_local(&mut device, &global, 4, None)
    });
    assert_eq!(shard, 0, "a shared shard must not allocate");
    assert_eq!(
        pooled, 1,
        "a rebind plus training on a warm trainer must allocate only the delta"
    );
}
