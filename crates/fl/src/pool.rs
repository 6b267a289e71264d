//! Persistent worker pool for parallel client training.
//!
//! The engines used to spawn one OS thread per selected client per round
//! (`std::thread::scope`), which puts thread creation and teardown on the
//! hot path of every simulated round. [`WorkerPool`] keeps a fixed set of
//! helper threads alive for the engine's whole lifetime. A scope costs one
//! hand-off, not one per job: [`WorkerPool::scope_run`] offers the helpers
//! a single claim loop over its job vector (an atomic index), runs the same
//! loop on the caller, and then sleeps at most once, until the last helper
//! that joined has left. Results are stored by job index, so they come
//! back in submission order and parallel and sequential execution stay
//! byte-identical.
//!
//! Built on `std` threads, mutexes and condition variables — no external
//! dependencies.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A scope's claim loop with its lifetime erased, as the helpers see it.
type Task = &'static (dyn Fn() + Sync);

/// The one scope currently open to helpers.
struct Offer {
    task: Task,
    /// Helpers that may still join.
    seats: usize,
}

#[derive(Default)]
struct State {
    /// `Some` from the moment a scope publishes its loop until every
    /// helper that joined it has left; another scope meanwhile runs alone
    /// on its caller.
    offer: Option<Offer>,
    /// Helpers inside the offered loop.
    active: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Helpers wait here for an offer or for shutdown.
    work: Condvar,
    /// A scope's caller waits here for its last helper to leave.
    done: Condvar,
}

/// Jobs never run while a pool lock is held, so a poisoned lock still
/// guards consistent state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job of a scope, from submission to result.
enum Slot<'env, T> {
    Queued(Box<dyn FnOnce() -> T + Send + 'env>),
    Running,
    Done(std::thread::Result<T>),
}

/// Fixed-size pool of persistent helper threads.
///
/// Created once per engine; dropped with the engine (helpers shut down and
/// are joined). A pool of width `threads` spawns `threads − 1` helpers, and
/// the caller of [`WorkerPool::scope_run`] is the remaining thread, so at
/// most `threads` threads run a scope's jobs. On single-core hosts (or
/// `threads <= 1`) the pool spawns nothing and jobs run inline, which is
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
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

fn helper_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                match state.offer.as_mut() {
                    Some(offer) if offer.seats > 0 => {
                        offer.seats -= 1;
                        let task = offer.task;
                        state.active += 1;
                        break task;
                    }
                    _ => {
                        state = shared
                            .work
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        // The claim loop catches every job's panic, so this returns.
        task();
        let mut state = lock(&shared.state);
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Closes a published scope: no helper may join after this, and the
/// caller does not leave — by return or by unwind — before every helper
/// that joined has left the claim loop, so no job outlives its borrows.
struct ScopeGuard<'a> {
    shared: &'a Shared,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        if let Some(offer) = state.offer.as_mut() {
            offer.seats = 0;
        }
        while state.active > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.offer = None;
    }
}

impl WorkerPool {
    /// Creates a pool of width `threads`: `threads − 1` helper threads
    /// plus the caller. `threads <= 1` spawns nothing; jobs then run
    /// inline on the caller. A helper the host refuses to spawn narrows
    /// the pool instead of failing, down to inline execution.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let mut helpers = Vec::new();
        for i in 1..threads {
            let worker = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("adafl-worker-{i}"))
                .spawn(move || helper_loop(&worker))
            {
                Ok(handle) => helpers.push(handle),
                Err(_) => break,
            }
        }
        WorkerPool { shared, helpers }
    }

    /// Creates a pool sized to the host's available parallelism.
    pub fn with_default_size() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(n)
    }

    /// The pool's width: threads that run a scope's jobs, the caller
    /// included. Zero means jobs run inline.
    pub fn workers(&self) -> usize {
        match self.helpers.len() {
            0 => 0,
            helpers => helpers + 1,
        }
    }

    /// Runs every job to completion and returns their results **in
    /// submission order**, regardless of which thread finished first — this
    /// is what keeps pool-parallel engine rounds byte-identical to
    /// sequential ones.
    ///
    /// The caller claims jobs alongside the helpers, so a scope costs one
    /// wake-up of the idle helpers and at most one of the caller. While
    /// another scope holds the helpers (a concurrent or nested call), the
    /// caller runs its jobs alone.
    ///
    /// Jobs may borrow from the caller's stack (`'env`): `scope_run` does
    /// not return or unwind before every helper has left its jobs, so no
    /// borrow outlives the call — the same contract as `std::thread::scope`,
    /// without respawning threads.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised on the caller *after* all
    /// jobs have finished (so `'env` borrows still end inside this call);
    /// with several, the first in submission order is re-raised.
    pub fn scope_run<'env, T: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = jobs.len();
        // A single job, or no helpers: inline execution on the caller.
        if n <= 1 || self.helpers.is_empty() {
            return jobs.into_iter().map(|job| job()).collect();
        }

        // Slot `i` holds job `i` until a thread claims index `i`, then
        // that job's result; the atomic index hands out each slot once, so
        // every lock below is uncontended. The index publishes nothing
        // (`Relaxed`): each slot's mutex orders its job and its result.
        let slots: Vec<Mutex<Slot<'env, T>>> = jobs
            .into_iter()
            .map(|job| Mutex::new(Slot::Queued(job)))
            .collect();
        let next = AtomicUsize::new(0);
        let claim_loop = || {
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                let claimed = std::mem::replace(&mut *lock(slot), Slot::Running);
                if let Slot::Queued(job) = claimed {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    *lock(slot) = Slot::Done(result);
                }
            }
        };

        let task: &(dyn Fn() + Sync) = &claim_loop;
        // SAFETY: the two types differ only in the lifetime bound. Helpers
        // reach `task` only through the offer published below, and
        // `guard` retracts that offer and waits until every helper that
        // took a seat has returned from `task` before this frame — and
        // with it `claim_loop`, `slots` and the `'env` borrows inside the
        // jobs — can be left, by return or by unwind.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(task) };
        let guard = {
            let mut state = lock(&self.shared.state);
            if state.offer.is_some() {
                None
            } else {
                state.offer = Some(Offer {
                    task,
                    seats: self.helpers.len().min(n - 1),
                });
                self.shared.work.notify_all();
                Some(ScopeGuard {
                    shared: &self.shared,
                })
            }
        };
        claim_loop();
        drop(guard);

        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            // The caller's claim loop ran past the last index and every
            // helper has left, so every slot is `Done`.
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Slot::Done(Ok(value)) => out.push(value),
                Slot::Done(Err(payload)) => panic = panic.or(Some(payload)),
                Slot::Queued(_) | Slot::Running => {}
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
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// Spins until `flag` is set, for at most ten seconds.
    fn wait_for(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn results_keep_submission_order_when_the_caller_runs_jobs() {
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        let (caller_ran, helper_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let jobs: Vec<Box<dyn FnOnce() -> (usize, bool) + Send + '_>> = (0..32usize)
            .map(|i| {
                let (caller_ran, helper_ran) = (&caller_ran, &helper_ran);
                Box::new(move || {
                    let on_caller = std::thread::current().id() == caller;
                    if on_caller { caller_ran } else { helper_ran }.store(true, Ordering::SeqCst);
                    // Hold each thread in its first job until both the
                    // caller and a helper have claimed one.
                    wait_for(caller_ran);
                    wait_for(helper_ran);
                    (i, on_caller)
                }) as Box<_>
            })
            .collect();
        let results = pool.scope_run(jobs);
        let order: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        assert!(
            results.iter().any(|&(_, on_caller)| on_caller),
            "the caller ran jobs"
        );
        assert!(
            results.iter().any(|&(_, on_caller)| !on_caller),
            "a helper ran jobs"
        );
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_every_helper() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let (helper_started, caller_panics) = (AtomicBool::new(false), AtomicBool::new(false));
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8usize)
                .map(|i| {
                    let (helper_started, caller_panics) = (&helper_started, &caller_panics);
                    let (started, finished) = (&started, &finished);
                    Box::new(move || {
                        if std::thread::current().id() == caller {
                            wait_for(helper_started);
                            caller_panics.store(true, Ordering::SeqCst);
                            panic!("caller job {i}");
                        }
                        started.fetch_add(1, Ordering::SeqCst);
                        helper_started.store(true, Ordering::SeqCst);
                        // Still inside this job when the caller's job panics;
                        // the sleep keeps it there past the caller's exit
                        // if the caller did not wait.
                        wait_for(caller_panics);
                        std::thread::sleep(Duration::from_millis(20));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Box<_>
                })
                .collect();
            pool.scope_run(jobs)
        }));
        // Seen right after the re-raise: every job a helper began is done.
        let (started, finished) = (
            started.load(Ordering::SeqCst),
            finished.load(Ordering::SeqCst),
        );
        assert!(result.is_err(), "the caller's panic propagates");
        assert!(started > 0, "a helper ran jobs");
        assert_eq!(
            started, finished,
            "re-raised while a helper was still running"
        );
        // The pool is reusable afterwards.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i + 1) as Box<_>)
            .collect();
        assert_eq!(pool.scope_run(jobs), (1..=16).collect::<Vec<_>>());
    }

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
