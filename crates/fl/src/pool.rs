//! Persistent worker pool for parallel client training.
//!
//! The engines used to spawn one OS thread per selected client per round
//! (`std::thread::scope`), which puts thread creation and teardown on the
//! hot path of every simulated round. [`WorkerPool`] keeps a fixed set of
//! workers alive for the engine's whole lifetime and feeds them scoped jobs
//! over a channel; [`WorkerPool::scope_run`] returns results in submission
//! order, so parallel and sequential execution stay byte-identical.
//!
//! Built on `std` threads and channels only — no external dependencies.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased unit of work queued to the workers.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size pool of persistent worker threads.
///
/// Created once per engine; dropped with the engine (workers shut down and
/// are joined). On single-core hosts (or `threads <= 1`) the pool spawns no
/// workers at all and [`WorkerPool::scope_run`] runs jobs inline, which is
/// both fastest and trivially deterministic.
///
/// # Examples
///
/// ```
/// use adafl_fl::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let data = vec![1u64, 2, 3];
/// let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = data
///     .iter()
///     .map(|&x| Box::new(move || x * 10) as Box<_>)
///     .collect();
/// assert_eq!(pool.scope_run(jobs), vec![10, 20, 30]);
/// ```
pub struct WorkerPool {
    /// `None` only during drop (taken to hang up the channel).
    injector: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(queue: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only while dequeuing, never while running a job.
        let job = match queue.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => break,
        };
        match job {
            Ok(job) => job(),
            // Sender dropped: the pool is shutting down.
            Err(_) => break,
        }
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers. `threads <= 1` spawns no
    /// threads; jobs then run inline on the caller.
    pub fn new(threads: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let queue = Arc::new(Mutex::new(rx));
        let workers = if threads > 1 {
            (0..threads)
                .map(|i| {
                    let queue = Arc::clone(&queue);
                    std::thread::Builder::new()
                        .name(format!("adafl-worker-{i}"))
                        .spawn(move || worker_loop(queue))
                        .expect("failed to spawn worker thread")
                })
                .collect()
        } else {
            Vec::new()
        };
        WorkerPool {
            injector: Some(tx),
            workers,
        }
    }

    /// Creates a pool sized to the host's available parallelism.
    pub fn with_default_size() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(n)
    }

    /// Number of worker threads (zero means jobs run inline).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs every job to completion and returns their results **in
    /// submission order**, regardless of which worker finished first — this
    /// is what keeps pool-parallel engine rounds byte-identical to
    /// sequential ones.
    ///
    /// Jobs may borrow from the caller's stack (`'env`): `scope_run` blocks
    /// until every job has reported back, so no borrow outlives the call —
    /// the same contract as `std::thread::scope`, without respawning
    /// threads.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised on the caller *after* all
    /// jobs have finished (so `'env` borrows still end inside this call).
    pub fn scope_run<'env, T: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        // A single job, or no workers: inline execution on the caller.
        if n == 1 || self.workers.is_empty() {
            return jobs.into_iter().map(|job| job()).collect();
        }

        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        let injector = self.injector.as_ref().expect("pool is alive");
        for (idx, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                // The receiver only disappears if the caller's stack is
                // unwinding already; losing the result is fine then.
                let _ = tx.send((idx, result));
            });
            // SAFETY: the only difference between the two types is the
            // closure's lifetime bound. The borrows captured by `wrapped`
            // stay valid for the whole call: every submitted job sends
            // exactly one message (the `catch_unwind` guarantees the send
            // happens even when the job panics), and the loop below blocks
            // until all `n` messages arrive — so every job has finished,
            // and released its `'env` borrows, before `scope_run` returns.
            let wrapped: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped) };
            injector.send(wrapped).expect("worker threads are alive");
        }
        drop(tx);

        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, result) = rx.recv().expect("every job reports exactly once");
            slots[idx] = Some(result);
        }

        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.expect("all slots filled after n receives") {
                Ok(value) => out.push(value),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Hang up the job channel so workers drain and exit, then join.
        drop(self.injector.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger finish times so out-of-order completion is
                    // actually exercised.
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * i
                }) as Box<_>
            })
            .collect();
        let results = pool.scope_run(jobs);
        assert_eq!(results, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_borrow_caller_state_mutably() {
        let pool = WorkerPool::new(2);
        let mut buffers = vec![vec![0u32; 4]; 3];
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send + '_>> = buffers
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| {
                Box::new(move || {
                    buf.fill(i as u32 + 1);
                    buf.iter().sum()
                }) as Box<_>
            })
            .collect();
        assert_eq!(pool.scope_run(jobs), vec![4, 8, 12]);
        assert_eq!(buffers[2], vec![3, 3, 3, 3]);
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..5)
                .map(|i| Box::new(move || round * 10 + i) as Box<_>)
                .collect();
            let expected: Vec<u64> = (0..5).map(|i| round * 10 + i).collect();
            assert_eq!(pool.scope_run(jobs), expected);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let jobs: Vec<Box<dyn FnOnce() -> std::thread::ThreadId + Send>> = (0..3)
            .map(|_| Box::new(|| std::thread::current().id()) as Box<_>)
            .collect();
        for id in pool.scope_run(jobs) {
            assert_eq!(id, caller, "no workers means inline execution");
        }
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(pool.scope_run(jobs).is_empty());
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_finish() {
        let pool = WorkerPool::new(2);
        let finished = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
                .map(|i| {
                    let finished = std::sync::Arc::clone(&finished);
                    Box::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        i
                    }) as Box<_>
                })
                .collect();
            pool.scope_run(jobs)
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The three non-panicking jobs all completed before the re-raise.
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 3);
        // The pool survives a panicking round.
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
            vec![Box::new(|| 7u8) as Box<_>, Box::new(|| 9u8) as Box<_>];
        assert_eq!(pool.scope_run(jobs), vec![7, 9]);
    }
}
