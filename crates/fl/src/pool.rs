//! Persistent worker pool for parallel client training.
//!
//! The engines used to spawn one OS thread per selected client per round
//! (`std::thread::scope`), which puts thread creation and teardown on the
//! hot path of every simulated round. [`WorkerPool`] keeps a fixed set of
//! helper threads alive for the engine's whole lifetime. A scope costs one
//! hand-off, not one per job: [`WorkerPool::scope_drain`] offers the
//! helpers a single claim loop over its job vector (an atomic index) and
//! claims from the same index on the caller, which between its own jobs
//! hands every finished result, in submission order, to a drain callback.
//! Results are stored by job index, so they come back in submission order
//! and parallel and sequential execution stay byte-identical;
//! [`WorkerPool::scope_run`] is the drain that collects them.
//!
//! [`WorkerPool::scope_stream`] is the scope for a caller that learns its
//! jobs one at a time: a [`Stream`] takes jobs while it is open, the
//! helpers run the earliest ones ahead, and the caller collects each result
//! by its [`Ticket`] whenever it needs it — running the job itself if no
//! helper has claimed it yet.
//!
//! Built on `std` threads, mutexes and condition variables — no external
//! dependencies.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicUsize, Ordering};
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
    /// Claimed and not yet done, or done and already drained.
    Running,
    Done(std::thread::Result<T>),
}

/// Fixed-size pool of persistent helper threads.
///
/// Created once per engine; dropped with the engine (helpers shut down and
/// are joined). A pool of width `threads` spawns `threads − 1` helpers, and
/// the caller of [`WorkerPool::scope_drain`] is the remaining thread, so at
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
    /// sequential ones. [`WorkerPool::scope_drain`] collecting into a
    /// `Vec`.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised on the caller *after* all
    /// jobs have finished; with several, the first in submission order is
    /// re-raised.
    pub fn scope_run<'env, T: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(jobs.len());
        self.scope_drain(jobs, |value| out.push(value));
        out
    }

    /// Runs every job to completion and hands each result to `drain` **in
    /// submission order**, as soon as it and every earlier result are
    /// ready — so the caller consumes result `i` while the helpers still
    /// run later jobs.
    ///
    /// The caller claims jobs alongside the helpers, so a scope costs one
    /// wake-up of the idle helpers and at most one of the caller per
    /// result it waits for. Before claiming another job the caller drains
    /// every result that is ready; once every job is claimed it sleeps
    /// until the next result in order is. While another scope holds the
    /// helpers (a concurrent call, or one opened inside `drain`), the
    /// caller runs its jobs alone, draining each as it finishes.
    ///
    /// Jobs may borrow from the caller's stack (`'env`): `scope_drain` does
    /// not return or unwind before every helper has left its jobs, so no
    /// borrow outlives the call — the same contract as `std::thread::scope`,
    /// without respawning threads.
    ///
    /// # Panics
    ///
    /// If a job panics, no result after it is drained, and the panic is
    /// re-raised on the caller *after* all jobs have finished (so `'env`
    /// borrows still end inside this call); with several, the first in
    /// submission order is re-raised. A panic inside `drain` propagates at
    /// once, still after every helper has left.
    pub fn scope_drain<'env, T: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
        mut drain: impl FnMut(T),
    ) {
        let n = jobs.len();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        // A single job, or no helpers: inline execution on the caller.
        if n <= 1 || self.helpers.is_empty() {
            for job in jobs {
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(value) if panic.is_none() => drain(value),
                    Ok(_) => {}
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            return;
        }

        // Slot `i` holds job `i` until a thread claims index `i`, then
        // that job's result until the caller drains it; the atomic index
        // hands out each slot once, so every lock below is uncontended but
        // for the caller checking a slot a helper is about to fill. The
        // index publishes nothing (`Relaxed`): each slot's mutex orders its
        // job and its result.
        let slots: Vec<Mutex<Slot<'env, T>>> = jobs
            .into_iter()
            .map(|job| Mutex::new(Slot::Queued(job)))
            .collect();
        let next = AtomicUsize::new(0);
        // The slot the caller sleeps on, `usize::MAX` while it is awake.
        let waiting = AtomicUsize::new(usize::MAX);
        let caller = std::thread::current();
        // Claims and runs one job; `false` once every job is claimed.
        let claim_one = || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return false;
            };
            let claimed = std::mem::replace(&mut *lock(slot), Slot::Running);
            if let Slot::Queued(job) = claimed {
                let result = catch_unwind(AssertUnwindSafe(job));
                *lock(slot) = Slot::Done(result);
                // Pairs with the caller's fence: either the caller sees
                // this result before it sleeps, or this sees it asleep.
                fence(Ordering::SeqCst);
                if waiting.load(Ordering::Relaxed) == i {
                    caller.unpark();
                }
            }
            true
        };
        let claim_loop = || while claim_one() {};

        self.offer(&claim_loop, n - 1, || {
            let mut drained = 0;
            while drained < n {
                // Take the next result in order when it is ready.
                let ready = match &mut *lock(&slots[drained]) {
                    slot @ Slot::Done(_) => Some(std::mem::replace(slot, Slot::Running)),
                    _ => None,
                };
                match ready {
                    Some(Slot::Done(Ok(value))) if panic.is_none() => drain(value),
                    Some(Slot::Done(Err(payload))) if panic.is_none() => panic = Some(payload),
                    Some(_) => {}
                    // Not stored yet: run another job meanwhile or, once
                    // every job is claimed, sleep until the helper running
                    // it stores it.
                    None => {
                        if !claim_one() {
                            waiting.store(drained, Ordering::Relaxed);
                            fence(Ordering::SeqCst);
                            while !matches!(*lock(&slots[drained]), Slot::Done(_)) {
                                std::thread::park();
                            }
                            waiting.store(usize::MAX, Ordering::Relaxed);
                        }
                        continue;
                    }
                }
                drained += 1;
            }
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Opens a stream scope: `body` submits jobs to the [`Stream`] while it
    /// runs and joins the ones whose results it needs, in any order.
    ///
    /// Each job carries a key; helpers claim the queued job with the
    /// smallest key first (then the earliest submitted), but only while
    /// fewer than [`WorkerPool::workers`] jobs claimed ahead of their join —
    /// running or finished — wait to be joined, which bounds the results a
    /// stream holds. [`Stream::join`] runs a still-queued job inline on the
    /// caller, so a pool without helpers runs every job at its join, in
    /// join order.
    ///
    /// When `body` returns or unwinds the stream closes: queued jobs are
    /// dropped without running, jobs a helper is inside finish, and only
    /// then does `scope_stream` return, so — as with
    /// [`WorkerPool::scope_drain`] — jobs may borrow from the caller's stack
    /// (`'env`). Results never joined are dropped. While another scope
    /// holds the helpers, every job runs at its join.
    ///
    /// # Panics
    ///
    /// A job's panic is re-raised by its [`Stream::join`]. When `body`
    /// returns, the first panic (in submission order) of a job that ran
    /// but was never joined is re-raised; a panic of `body` itself
    /// propagates, in both cases after every helper has left.
    pub fn scope_stream<'env, K, T, R>(&self, body: impl FnOnce(&Stream<'env, K, T>) -> R) -> R
    where
        K: Ord + Send + 'env,
        T: Send + 'env,
    {
        let stream = Stream {
            jobs: Mutex::new(Jobs {
                queued: BTreeMap::new(),
                done: BTreeMap::new(),
                ahead: 0,
                submitted: 0,
                closed: false,
            }),
            changed: Condvar::new(),
            ahead_max: self.workers(),
        };
        let serve = || stream.serve();
        let out = self.offer(&serve, self.helpers.len(), || {
            let _close = Close(&stream);
            body(&stream)
        });
        let panicked = std::mem::take(&mut lock(&stream.jobs).done)
            .into_values()
            .find_map(Result::err);
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        out
    }

    /// Offers `task` to up to `seats` helpers while `body` runs on the
    /// caller. Returns — by return or by unwind — only after every helper
    /// that took a seat has left `task`, so `task` and everything it
    /// borrows outlive the helpers' use of them. While another scope holds
    /// the helpers (a concurrent call, or one opened inside a job or a
    /// drain), or with no seats, nothing is offered and `body` runs alone.
    fn offer<R>(&self, task: &(dyn Fn() + Sync), seats: usize, body: impl FnOnce() -> R) -> R {
        let seats = seats.min(self.helpers.len());
        if seats == 0 {
            return body();
        }
        // SAFETY: the two types differ only in the lifetime bound. Helpers
        // reach `task` only through the offer published below, and `_guard`
        // retracts that offer and waits until every helper that took a seat
        // has returned from `task` before this frame — and with it the
        // borrow of `task` — can be left, by return or by unwind. The guard
        // never leaves this frame, so nothing can forget it.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(task) };
        let _guard = {
            let mut state = lock(&self.shared.state);
            if state.offer.is_some() {
                None
            } else {
                state.offer = Some(Offer { task, seats });
                self.shared.work.notify_all();
                Some(ScopeGuard {
                    shared: &self.shared,
                })
            }
        };
        body()
    }
}

/// A stream scope's job.
type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A stream's jobs, from submission to join.
struct Jobs<'env, K, T> {
    /// Jobs no thread has claimed, smallest key first, then submission
    /// order.
    queued: BTreeMap<(K, usize), Job<'env, T>>,
    /// Finished jobs awaiting their join, by submission number.
    done: BTreeMap<usize, std::thread::Result<T>>,
    /// Jobs claimed ahead of their join, running or in `done`.
    ahead: usize,
    submitted: usize,
    closed: bool,
}

impl<'env, K: Ord, T> Jobs<'env, K, T> {
    /// Claims the earliest queued job ahead of its join, if the bound
    /// allows one more.
    fn claim_ahead(&mut self, ahead_max: usize) -> Option<(usize, Job<'env, T>)> {
        if self.closed || self.ahead >= ahead_max {
            return None;
        }
        let ((_, seq), job) = self.queued.pop_first()?;
        self.ahead += 1;
        Some((seq, job))
    }
}

/// A job list that grows while its scope is open; see
/// [`WorkerPool::scope_stream`].
pub struct Stream<'env, K, T> {
    jobs: Mutex<Jobs<'env, K, T>>,
    /// Signalled on every submission, finished job, join and on close.
    changed: Condvar,
    /// The pool's width: how many jobs may be claimed ahead of their join.
    ahead_max: usize,
}

impl<K, T> std::fmt::Debug for Stream<'_, K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("ahead_max", &self.ahead_max)
            .finish_non_exhaustive()
    }
}

/// A submitted job's claim on its result, redeemed once by
/// [`Stream::join`].
#[derive(Debug)]
#[must_use = "a job is only collected by joining its ticket"]
pub struct Ticket<K> {
    id: (K, usize),
}

impl<'env, K: Ord, T> Stream<'env, K, T> {
    /// Queues `job` under `key`; helpers start the queued job with the
    /// smallest key (then the earliest submitted) first.
    pub fn submit(&self, key: K, job: impl FnOnce() -> T + Send + 'env) -> Ticket<K>
    where
        K: Clone,
    {
        let mut jobs = lock(&self.jobs);
        let id = (key, jobs.submitted);
        jobs.submitted += 1;
        jobs.queued.insert(id.clone(), Box::new(job));
        drop(jobs);
        self.changed.notify_all();
        Ticket { id }
    }

    /// Returns the result of the ticket's job. A job still queued runs
    /// inline; while a helper runs it, the caller runs the earliest other
    /// queued job meanwhile (within the bound on jobs claimed ahead) and
    /// sleeps only when it cannot.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic.
    pub fn join(&self, ticket: Ticket<K>) -> T {
        let mut jobs = lock(&self.jobs);
        loop {
            if let Some(result) = jobs.done.remove(&ticket.id.1) {
                jobs.ahead -= 1;
                drop(jobs);
                self.changed.notify_all();
                return match result {
                    Ok(value) => value,
                    Err(payload) => resume_unwind(payload),
                };
            }
            if let Some(job) = jobs.queued.remove(&ticket.id) {
                drop(jobs);
                return job();
            }
            jobs = match jobs.claim_ahead(self.ahead_max) {
                Some((seq, job)) => {
                    drop(jobs);
                    self.finish(seq, job)
                }
                None => self
                    .changed
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Runs a job claimed ahead and stores its result; returns the lock.
    fn finish(&self, seq: usize, job: Job<'env, T>) -> MutexGuard<'_, Jobs<'env, K, T>> {
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut jobs = lock(&self.jobs);
        jobs.done.insert(seq, result);
        self.changed.notify_all();
        jobs
    }

    /// A helper's loop: run the earliest queued jobs ahead until the
    /// stream closes.
    fn serve(&self) {
        let mut jobs = lock(&self.jobs);
        while !jobs.closed {
            jobs = match jobs.claim_ahead(self.ahead_max) {
                Some((seq, job)) => {
                    drop(jobs);
                    self.finish(seq, job)
                }
                None => self
                    .changed
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// Closes a stream on the caller's way out of its body, by return or by
/// unwind: no job is claimed after this, queued ones are dropped, and
/// helpers waiting for work leave.
struct Close<'a, 'env, K, T>(&'a Stream<'env, K, T>);

impl<K, T> Drop for Close<'_, '_, K, T> {
    fn drop(&mut self) {
        let queued = {
            let mut jobs = lock(&self.0.jobs);
            jobs.closed = true;
            std::mem::take(&mut jobs.queued)
        };
        self.0.changed.notify_all();
        drop(queued);
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

    #[test]
    fn results_drain_in_submission_order_at_every_width() {
        use rand::{Rng, SeedableRng};
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let mut rng = rand::rngs::StdRng::seed_from_u64(width as u64);
            // Seeded random durations, so results finish out of order.
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..48usize)
                .map(|i| {
                    let micros = rng.gen_range(0..300u64);
                    Box::new(move || {
                        std::thread::sleep(Duration::from_micros(micros));
                        i
                    }) as Box<_>
                })
                .collect();
            let mut drained = Vec::new();
            pool.scope_drain(jobs, |i| drained.push(i));
            assert_eq!(drained, (0..48).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn the_caller_drains_while_a_helper_is_still_inside_a_later_job() {
        const OUTSIDE: usize = usize::MAX;
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let (helper_entered, overlapped) = (AtomicBool::new(false), AtomicBool::new(false));
        // The job a helper is inside right now, or `OUTSIDE`.
        let inside = AtomicUsize::new(OUTSIDE);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..8usize)
            .map(|j| {
                let (helper_entered, overlapped, inside) = (&helper_entered, &overlapped, &inside);
                Box::new(move || {
                    if std::thread::current().id() == caller {
                        // Keep the caller from running away with every
                        // job before a helper holds one.
                        wait_for(helper_entered);
                    } else if j > 0 {
                        // Job 0 cannot wait on a drain that needs it done.
                        inside.store(j, Ordering::SeqCst);
                        helper_entered.store(true, Ordering::SeqCst);
                        wait_for(overlapped);
                        inside.store(OUTSIDE, Ordering::SeqCst);
                    }
                    j
                }) as Box<_>
            })
            .collect();
        let mut drained = Vec::new();
        pool.scope_drain(jobs, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "drains run on the caller"
            );
            let j = inside.load(Ordering::SeqCst);
            if j != OUTSIDE && j > i {
                overlapped.store(true, Ordering::SeqCst);
            }
            drained.push(i);
        });
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
        assert!(
            overlapped.load(Ordering::SeqCst),
            "result i was drained while a helper was still inside job j > i"
        );
    }

    #[test]
    fn the_first_panic_in_order_is_re_raised_after_every_job_and_ends_the_drain() {
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let finished = AtomicUsize::new(0);
            let mut drained = Vec::new();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..16usize)
                    .map(|i| {
                        let finished = &finished;
                        Box::new(move || {
                            // The later panic finishes first.
                            match i {
                                9 => panic!("job 9"),
                                5 => {
                                    std::thread::sleep(Duration::from_millis(5));
                                    panic!("job 5")
                                }
                                _ => {}
                            }
                            std::thread::sleep(Duration::from_micros(200));
                            finished.fetch_add(1, Ordering::SeqCst);
                            i
                        }) as Box<_>
                    })
                    .collect();
                pool.scope_drain(jobs, |i| drained.push(i));
            }));
            let finished = finished.load(Ordering::SeqCst);
            let payload = result.expect_err("the panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"job 5"),
                "width {width}"
            );
            assert_eq!(
                finished, 14,
                "every other job finished first (width {width})"
            );
            assert_eq!(drained, (0..5).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn a_scope_opened_inside_a_drain_runs_inline() {
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        let outer: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(Duration::from_micros(100));
                    i
                }) as Box<_>
            })
            .collect();
        let mut nested_threads = Vec::new();
        pool.scope_drain(outer, |_| {
            let inner: Vec<Box<dyn FnOnce() -> std::thread::ThreadId + Send>> = (0..4)
                .map(|_| Box::new(|| std::thread::current().id()) as Box<_>)
                .collect();
            nested_threads.extend(pool.scope_run(inner));
        });
        assert_eq!(nested_threads.len(), 24);
        assert!(
            nested_threads.iter().all(|&id| id == caller),
            "a nested scope runs on the caller alone"
        );
    }

    /// Spins until `done()` holds, for at most ten seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn stream_results_match_inline_execution_whatever_the_order() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let offsets: Vec<u64> = (0..48).map(|i| i * 7 % 11).collect();
        let expected: Vec<u64> = (0..48u64).map(|i| i * i + offsets[i as usize]).collect();
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let mut rng = rand::rngs::StdRng::seed_from_u64(width as u64);
            let mut got = vec![None; 48];
            pool.scope_stream(|stream| {
                let mut open = Vec::new();
                for (i, offset) in offsets.iter().enumerate() {
                    // Keys out of submission order, with ties; the jobs
                    // borrow the caller's `offsets`.
                    let (key, micros) = (rng.gen_range(0..8u32), rng.gen_range(0..200u64));
                    let ticket = stream.submit(key, move || {
                        std::thread::sleep(Duration::from_micros(micros));
                        (i as u64) * (i as u64) + offset
                    });
                    open.push((i, ticket));
                    // Join some while later jobs are still to come, in
                    // random order.
                    if i % 5 == 4 {
                        open.shuffle(&mut rng);
                        for (i, ticket) in open.drain(..3) {
                            got[i] = Some(stream.join(ticket));
                        }
                    }
                }
                open.shuffle(&mut rng);
                for (i, ticket) in open {
                    got[i] = Some(stream.join(ticket));
                }
            });
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, expected, "width {width}");
        }
    }

    #[test]
    fn joining_a_queued_job_runs_it_on_the_caller() {
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let helpers = width - 1;
            let caller = std::thread::current().id();
            let (started, release) = (AtomicUsize::new(0), AtomicBool::new(false));
            pool.scope_stream(|stream| {
                // Hold every helper inside a job of its own.
                let blockers: Vec<_> = (0..helpers)
                    .map(|_| {
                        let (started, release) = (&started, &release);
                        stream.submit(0, move || {
                            started.fetch_add(1, Ordering::SeqCst);
                            wait_for(release);
                            std::thread::current().id()
                        })
                    })
                    .collect();
                wait_until(|| started.load(Ordering::SeqCst) == helpers);
                let queued = stream.submit(1, || std::thread::current().id());
                assert_eq!(stream.join(queued), caller, "width {width}");
                release.store(true, Ordering::SeqCst);
                for blocker in blockers {
                    assert_ne!(stream.join(blocker), caller, "width {width}");
                }
            });
        }
    }

    #[test]
    fn no_more_than_workers_jobs_wait_unjoined() {
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let ran = AtomicUsize::new(0);
            pool.scope_stream(|stream| {
                let tickets: Vec<_> = (0..24u32)
                    .map(|i| {
                        let ran = &ran;
                        stream.submit(i, move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                            i
                        })
                    })
                    .collect();
                // Helpers run ahead up to the pool's width and stop there.
                let ahead = if width == 1 { 0 } else { width };
                wait_until(|| ran.load(Ordering::SeqCst) == ahead);
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(ran.load(Ordering::SeqCst), ahead, "width {width}");
                for (joined, ticket) in tickets.into_iter().enumerate() {
                    assert_eq!(stream.join(ticket), joined as u32);
                    assert!(ran.load(Ordering::SeqCst) <= joined + 1 + pool.workers());
                    assert!(lock(&stream.jobs).done.len() <= pool.workers());
                }
            });
        }
    }

    #[test]
    fn jobs_left_queued_at_close_are_dropped_and_never_run() {
        /// Counts the jobs dropped, run or not.
        struct Dropped<'a>(&'a AtomicUsize);
        impl Drop for Dropped<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let (ran, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
            pool.scope_stream(|stream| {
                let mut tickets: Vec<_> = (0..16u32)
                    .map(|i| {
                        let (ran, dropped) = (&ran, Dropped(&dropped));
                        stream.submit(i, move || {
                            let _dropped = dropped;
                            std::thread::sleep(Duration::from_micros(300));
                            ran.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for ticket in tickets.drain(..2) {
                    stream.join(ticket);
                }
            });
            let ran_at_close = ran.load(Ordering::SeqCst);
            assert_eq!(dropped.load(Ordering::SeqCst), 16, "width {width}");
            assert!(ran_at_close >= 2 && ran_at_close <= 2 + pool.workers());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(ran.load(Ordering::SeqCst), ran_at_close, "width {width}");
        }
    }

    #[test]
    fn a_joined_panic_propagates_after_every_helper_left() {
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.scope_stream(|stream| {
                    let tickets: Vec<_> = (0..8usize)
                        .map(|i| {
                            let (started, finished) = (&started, &finished);
                            stream.submit(i, move || {
                                started.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(2));
                                if i == 5 {
                                    panic!("job 5");
                                }
                                finished.fetch_add(1, Ordering::SeqCst);
                            })
                        })
                        .collect();
                    for ticket in tickets {
                        stream.join(ticket);
                    }
                })
            }));
            let payload = result.expect_err("the panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 5"));
            // Every job begun, but the panicking one, was done by the
            // re-raise.
            let (started, finished) = (
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
            );
            assert_eq!(started, finished + 1, "width {width}");
            // The pool is reusable afterwards.
            assert_eq!(pool.scope_stream(|s| s.join(s.submit(0, || 7))), 7);
        }
    }

    #[test]
    fn the_first_unjoined_panic_is_re_raised_at_close() {
        for width in 1..=4 {
            let pool = WorkerPool::new(width);
            let attempted = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.scope_stream(|stream| {
                    // Submitted first, claimed second: the smaller key wins
                    // the claim, submission order the re-raise.
                    let attempted = &attempted;
                    for (key, name) in [(5u8, "first"), (0, "second")] {
                        let _ticket = stream.submit(key, move || {
                            attempted.fetch_add(1, Ordering::SeqCst);
                            panic!("{name}")
                        });
                    }
                    if width > 1 {
                        wait_until(|| attempted.load(Ordering::SeqCst) == 2);
                    }
                })
            }));
            if width == 1 {
                // No helper ran the jobs, and nothing joined them.
                assert!(result.is_ok());
                assert_eq!(attempted.load(Ordering::SeqCst), 0);
            } else {
                let payload = result.expect_err("the panic is re-raised");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("first"),
                    "width {width}"
                );
            }
        }
    }
}
