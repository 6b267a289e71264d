//! Host-paired timing: the definition of every time this benchmark
//! reports.
//!
//! The benchmark runs on a small slice of a shared machine whose speed
//! drifts by up to 2× over minutes, inflating CPU time exactly as it
//! inflates wall time. So beside every repetition the benchmark measures
//! the *host*: two frozen kernels whose cost on a calm host is a constant
//! in this file. A time metric is
//!
//! ```text
//! mean of the faster half of the repetitions' seconds
//! ───────────────────────────────────────────────────
//! mean of the faster half of the host samples' slowdowns
//! ```
//!
//! Kernels, nominal constants and the statistic are fixed here; no flag
//! selects them, because two runs are only comparable when they agree on
//! all three. README.md records the evidence behind each choice.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Floats the `fma` kernel sweeps: 16 KB, resident in L1.
const FMA_FLOATS: usize = 4096;
/// Sweeps per `fma` sample (≈ 30 ms on a calm host).
const FMA_SWEEPS: usize = 100_000;
/// Seconds one `fma` sample takes on one thread of this host in a calm
/// phase (first quartile of 40 samples, 2026-09-28).
pub const FMA_NOMINAL_S: f64 = 0.0295;

/// Vectors the `fill` kernel writes per round.
const FILL_VECS: usize = 256;
/// Floats per vector: 10 KB, 2.5 MB per round — beyond L1, the cache and
/// memory write path the pooled workloads spend their time in.
const FILL_FLOATS: usize = 2560;
/// Rounds per `fill` sample (≈ 27 ms on a calm host).
const FILL_ROUNDS: usize = 280;
/// Seconds one `fill` sample takes on one thread of this host in a calm
/// phase (the samples beside an `fma` at its nominal, 2026-09-28).
pub const FILL_NOMINAL_S: f64 = 0.0270;

/// Multiply-add throughput over an L1-resident buffer. Every sweep is
/// `FMA_FLOATS` independent multiply-adds, so the kernel is bound by
/// arithmetic throughput, not by the latency of one dependent chain (a
/// chain kernel was bimodal on a calm host).
fn fma_kernel() -> f64 {
    let mut buf = [0.0f32; FMA_FLOATS];
    for (i, x) in buf.iter_mut().enumerate() {
        *x = i as f32 * 1e-3;
    }
    let (a, b) = black_box((0.999_f32, 1e-3_f32));
    let start = Instant::now();
    for _ in 0..FMA_SWEEPS {
        for x in buf.iter_mut() {
            *x = *x * a + b;
        }
        black_box(&mut buf);
    }
    start.elapsed().as_secs_f64()
}

/// The `fill` kernel's vectors, allocated and touched once per sampling
/// thread. The kernel writes them and never allocates: glibc's trim and
/// mmap thresholds follow the largest block the *program* has freed, so a
/// kernel that allocates would read 0.11 or 0.82 ms per round depending on
/// what the workload did before it, and fixing the thresholds from here
/// would run the program in an allocator regime its users do not get.
#[derive(Debug)]
struct FillBuffers(Vec<Vec<f32>>);

impl FillBuffers {
    fn new() -> Self {
        FillBuffers(vec![vec![0.0; FILL_FLOATS]; FILL_VECS])
    }
}

/// Fill `FILL_VECS` vectors of 10 KB per round.
fn fill_kernel(buffers: &mut FillBuffers) -> f64 {
    let start = Instant::now();
    for round in 0..FILL_ROUNDS {
        for (i, v) in buffers.0.iter_mut().enumerate() {
            v.fill((round + i) as f32);
        }
        black_box(&mut buffers.0);
    }
    start.elapsed().as_secs_f64()
}

/// Seconds of (`fma`, `fill`) on the calling thread.
fn run_kernels(buffers: &mut FillBuffers) -> (f64, f64) {
    (fma_kernel(), fill_kernel(buffers))
}

/// A persistent thread that runs the kernels on request. Persistent,
/// because a kernel that runs first on a freshly spawned thread measures
/// thread start-up, not the host.
#[derive(Debug)]
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<(f64, f64)>,
    handle: Option<JoinHandle<()>>,
}

/// Measures how much slower than nominal the host currently is, on as
/// many threads as the workload keeps busy.
#[derive(Debug)]
pub struct HostSampler {
    helpers: Vec<Helper>,
    /// The calling thread's buffers, when it samples alone.
    own: Option<FillBuffers>,
}

impl HostSampler {
    /// `threads <= 1` samples on the calling thread alone (the async
    /// workload's event loop); `threads >= 2` samples on that many
    /// persistent helper threads while the caller waits, as the runtime's
    /// worker pool does.
    pub fn new(threads: usize) -> Self {
        let helpers = if threads <= 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|i| {
                    let (go, go_rx) = channel::<()>();
                    let (done_tx, done) = channel();
                    let handle = std::thread::Builder::new()
                        .name(format!("host-sample-{i}"))
                        .spawn(move || {
                            let mut buffers = FillBuffers::new();
                            while go_rx.recv().is_ok() {
                                if done_tx.send(run_kernels(&mut buffers)).is_err() {
                                    break;
                                }
                            }
                        })
                        .expect("failed to spawn host-sample thread");
                    Helper {
                        go: Some(go),
                        done,
                        handle: Some(handle),
                    }
                })
                .collect()
        };
        let own = helpers.is_empty().then(FillBuffers::new);
        let mut sampler = HostSampler { helpers, own };
        // The first sample pays thread start-up and cold caches.
        sampler.sample();
        sampler
    }

    /// One host sample (≈ 60 ms): both kernels on every thread, each timed
    /// on its slowest thread; the slowdown is the geometric mean of the two
    /// ratios to nominal.
    pub fn sample(&mut self) -> f64 {
        let (fma, fill) = if let Some(buffers) = &mut self.own {
            run_kernels(buffers)
        } else {
            for h in &self.helpers {
                h.go.as_ref()
                    .expect("sender lives until drop")
                    .send(())
                    .expect("host-sample thread is alive");
            }
            self.helpers.iter().fold((0.0f64, 0.0f64), |acc, h| {
                let (fma, fill) = h.done.recv().expect("host-sample thread is alive");
                (acc.0.max(fma), acc.1.max(fill))
            })
        };
        ((fma / FMA_NOMINAL_S) * (fill / FILL_NOMINAL_S)).sqrt()
    }
}

impl Drop for HostSampler {
    fn drop(&mut self) {
        for h in &mut self.helpers {
            // Hanging up ends the helper's loop.
            drop(h.go.take());
            if let Some(handle) = h.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Mean of the faster (smaller) half of `samples`, the middle one included
/// when the count is odd. Slow outliers — a stolen quantum, a neighbour's
/// burst — fall in the discarded half. Zero for no samples.
pub fn faster_half_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = sorted.len().div_ceil(2);
    sorted[..keep].iter().sum::<f64>() / keep as f64
}

/// Median of `samples`; zero for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The host-paired time: what `seconds` would have been on the nominal
/// host. `slowdowns` must hold at least one sample.
pub fn paired(seconds: &[f64], slowdowns: &[f64]) -> f64 {
    faster_half_mean(seconds) / faster_half_mean(slowdowns)
}
