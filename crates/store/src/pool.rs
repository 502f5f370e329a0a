//! A persistent, sized-to-the-machine work-stealing worker pool.
//!
//! **One process-wide scheduler** runs every piece of real concurrency in
//! the workspace: the serving layer's rounds, MapReduce tasks and
//! background index builds. Nothing else spawns threads, so concurrent
//! queries share one set of workers instead of oversubscribing the host
//! with their own:
//!
//! * a fixed set of worker threads, sized to the machine
//!   ([`WorkStealingPool::global`]; override with `RJ_POOL_THREADS`),
//! * one deque per worker: submissions are distributed round-robin, a
//!   worker pops its own deque from the front and **steals** from the
//!   back of a sibling's deque when its own runs dry — the classic
//!   work-stealing discipline that keeps every core busy under skewed
//!   task sizes,
//! * a scoped batch-submit API ([`WorkStealingPool::run_batch`]) that
//!   blocks until the whole batch completes and returns results in
//!   **submission order**, so callers keep deterministic output and
//!   borrowed (non-`'static`) task closures — the contract of
//!   `std::thread::scope`, without a thread per task,
//! * **help-first joining**: a thread waiting on its batch executes other
//!   pending pool jobs instead of sleeping. This is what makes *nested*
//!   submission safe — a pool job may itself call `run_batch` (a serving
//!   round running a query whose MapReduce job fans its tasks out, say)
//!   without deadlocking even when every worker is occupied, because each
//!   waiter doubles as a worker.
//!
//! The pool schedules *real* execution only. Modelled time never depends
//! on it: the MapReduce engine charges each job's critical path from its
//! tasks' own clients, so counted metrics and simulated wall-clock are
//! identical at every pool size (CI runs the suite at `RJ_POOL_THREADS` 1
//! and 8).
//!
//! Task panics are caught per task and re-raised on the submitting thread
//! (first panicking task in submission order), leaving the pool healthy.
//!
//! **Priority classes.** The pool runs two classes of work. *Foreground*
//! jobs (query execution) go to the per-worker deques
//! and are claimed first. *Background* jobs (index builds, maintenance)
//! sit in a single FIFO that workers only drain when every foreground
//! deque is dry — so a burst of interactive queries never queues behind a
//! bulk rebuild, while background work soaks up idle cores. Submit at a
//! chosen class with [`WorkStealingPool::run_batch_at`];
//! [`WorkStealingPool::run_batch`] is the foreground shorthand.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

// Under `--cfg rj_check` the pool's synchronization primitives come from
// the rj_check shims, whose every operation is a scheduling point for the
// deterministic interleaving explorer (`rj_analyze::chk`). The shims fall
// back to plain `std` behaviour outside a model run, so the pool works
// normally even in an rj_check build; without the cfg this module compiles
// against `std::sync` directly and rj_analyze is not involved at all.
#[cfg(rj_check)]
use rj_analyze::chk::sync::{
    atomic::{AtomicBool, AtomicUsize, Ordering},
    Condvar, Mutex,
};
#[cfg(not(rj_check))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(rj_check))]
use std::sync::{Condvar, Mutex};

/// A type-erased, lifetime-erased unit of pool work. Every job is built by
/// [`WorkStealingPool::run_batch`], which wraps the user closure in
/// `catch_unwind` — so running a job never unwinds into the worker loop.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Scheduling class of a submitted batch. Foreground work is claimed
/// before any background job; background work runs only on otherwise-idle
/// capacity. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolPriority {
    /// Latency-sensitive work: query execution, serving rounds.
    Foreground,
    /// Bulk/deferrable work: index builds, maintenance sweeps.
    Background,
}

/// State shared between the pool handle, its workers, and joining callers.
struct PoolShared {
    /// One deque per worker; stealing pops the far end.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Single FIFO for [`PoolPriority::Background`] jobs, drained only
    /// when every foreground deque is dry.
    background: Mutex<VecDeque<Job>>,
    /// Round-robin submission cursor.
    next_queue: AtomicUsize,
    /// Jobs injected (either class) but not yet claimed — lets idle
    /// workers sleep without scanning every queue. Counted *before* the
    /// push, so it transiently over-counts but never under-counts (see
    /// [`PoolShared::inject`]).
    pending: AtomicUsize,
    /// Sleep/wake coordination for idle workers.
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Claims one job: own queue first (front — LIFO locality for the
    /// owner would hurt submission-order fairness, so the owner also pops
    /// the front, FIFO), then steals from siblings' backs, and only when
    /// every foreground deque is dry falls through to the background FIFO.
    fn claim(&self, me: usize) -> Option<Job> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let n = self.queues.len();
        for i in 0..n {
            let q = &self.queues[(me + i) % n];
            let job = if i == 0 {
                q.lock().expect("pool queue poisoned").pop_front()
            } else {
                q.lock().expect("pool queue poisoned").pop_back()
            };
            if let Some(job) = job {
                self.pending.fetch_sub(1, Ordering::Release);
                return Some(job);
            }
        }
        if let Some(job) = self
            .background
            .lock()
            .expect("pool background queue poisoned")
            .pop_front()
        {
            self.pending.fetch_sub(1, Ordering::Release);
            return Some(job);
        }
        None
    }

    /// Pushes `jobs` at the given class — foreground round-robin across
    /// the worker deques, background onto the shared FIFO — and wakes
    /// sleepers. The wake is issued under `sleep_lock` so a worker that
    /// just re-checked `pending` and is about to wait cannot miss it.
    fn inject(&self, jobs: Vec<Job>, priority: PoolPriority) {
        let count = jobs.len();
        if count == 0 {
            return;
        }
        // Count *before* pushing: a worker may claim a job the instant it
        // lands in a deque, and its `fetch_sub` in `claim` must never
        // drive `pending` below zero — the counter would wrap to
        // ~usize::MAX and every worker would busy-spin forever. The
        // transient over-count in the window between this add and the
        // pushes only costs an idle worker one empty scan.
        self.pending.fetch_add(count, Ordering::Release);
        match priority {
            PoolPriority::Foreground => {
                for job in jobs {
                    let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
                    self.queues[slot]
                        .lock()
                        .expect("pool queue poisoned")
                        .push_back(job);
                }
            }
            PoolPriority::Background => {
                let mut q = self
                    .background
                    .lock()
                    .expect("pool background queue poisoned");
                q.extend(jobs);
            }
        }
        let _guard = self.sleep_lock.lock().expect("pool sleep lock poisoned");
        self.wake.notify_all();
    }

    /// Help-first join: run pending pool jobs (any batch's — helping a
    /// sibling still drains the queue our own jobs sit in) until this
    /// batch's countdown reaches zero, sleeping only when the queues are
    /// empty and our stragglers are running on other threads.
    ///
    /// Exits that skip `done_lock` are sound because `sync` is the
    /// Arc-owned [`BatchSync`], not the batch's stack frame: the
    /// last-finishing task may still be locking/notifying it after we
    /// observe zero, and its own Arc clone keeps it alive through that.
    fn join_batch(&self, sync: &BatchSync) {
        // A fixed claim origin is fine: `claim` scans every queue.
        let origin = self.queues.len() - 1;
        while sync.remaining.load(Ordering::Acquire) > 0 {
            if let Some(job) = self.claim(origin) {
                job();
                continue;
            }
            let guard = self.sleep_lock.lock().expect("pool lock poisoned");
            if sync.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if self.pending.load(Ordering::Acquire) > 0 {
                continue; // new work appeared — go help
            }
            drop(guard);
            let guard = sync.done_lock.lock().expect("batch lock poisoned");
            if sync.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            // Short timeout: completion notifies `done`, but fresh
            // stealable work would not — re-check for both periodically.
            let _ = sync
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("batch lock poisoned");
        }
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if let Some(job) = self.claim(me) {
                job();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let guard = self.sleep_lock.lock().expect("pool sleep lock poisoned");
            // Re-check under the lock: `inject` notifies while holding it,
            // so either we see the new job here or the wait sees the wake.
            if self.pending.load(Ordering::Acquire) == 0 && !self.shutdown.load(Ordering::Acquire) {
                // The timeout is a robustness backstop only; correctness
                // never depends on it.
                let _ = self
                    .wake
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("pool sleep lock poisoned");
            }
        }
    }
}

/// Completion tracking of one submitted batch: a countdown of unfinished
/// tasks and the joiner's wake channel.
///
/// This lives in an `Arc` cloned into every job — never on the submitting
/// stack — because the joiner is allowed to return the instant an
/// acquire-load of `remaining` reads zero, while the last-finishing task
/// may still be *between* its decrement and the `done` notify. Everything
/// that task touches after the decrement must therefore be owned memory
/// that outlives the batch, kept alive by the job's own clone. (The result
/// slots, by contrast, stay borrowed on the submitting stack: every slot
/// access strictly precedes the decrement.)
struct BatchSync {
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
}

impl BatchSync {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(BatchSync {
            remaining: AtomicUsize::new(n),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        })
    }

    /// Marks one task finished and wakes the joiner after the last. The
    /// release-ordered decrement is the final access the task makes to any
    /// *borrowed* batch state; the lock-and-notify that follows touches
    /// only this Arc-owned struct.
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = self.done_lock.lock().expect("batch lock poisoned");
            self.done.notify_all();
        }
    }
}

/// Fault-injection twins of the two pool protocols whose pre-fix versions
/// shipped real bugs. They exist only for the rj_check regression models
/// below: each re-creates the buggy ordering and carries an assertion at
/// the exact point the original code went wrong, so the interleaving
/// explorer can demonstrate the bug and `chk::replay` can reproduce it.
#[cfg(all(test, rj_check))]
impl PoolShared {
    /// The pre-fix `inject`: jobs pushed *before* the pending count is
    /// raised. In that window a concurrent `claim` can pop a job and
    /// decrement `pending` past zero, wrapping it to ~`usize::MAX`; the
    /// assertion observes the wrap when the late increment reads it back.
    fn inject_push_first(&self, jobs: Vec<Job>, priority: PoolPriority) {
        let count = jobs.len();
        if count == 0 {
            return;
        }
        match priority {
            PoolPriority::Foreground => {
                for job in jobs {
                    let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
                    self.queues[slot]
                        .lock()
                        .expect("pool queue poisoned")
                        .push_back(job);
                }
            }
            PoolPriority::Background => {
                self.background
                    .lock()
                    .expect("pool background queue poisoned")
                    .extend(jobs);
            }
        }
        let before = self.pending.fetch_add(count, Ordering::Release);
        assert!(
            before <= usize::MAX / 2,
            "pending counter underflowed: a claim outran the accounting"
        );
        let _guard = self.sleep_lock.lock().expect("pool sleep lock poisoned");
        self.wake.notify_all();
    }
}

#[cfg(all(test, rj_check))]
impl BatchSync {
    /// The pre-fix `finish_one`, from when `BatchSync` lived on the
    /// joiner's stack. `freed` stands for that stack frame: the joiner
    /// sets it the instant it observes `remaining == 0` (returning from
    /// `join_batch` and popping the frame). Touching `done_lock`/`done`
    /// after that is the use-after-free the Arc-owned design removed.
    fn finish_one_on_stack(&self, freed: &AtomicBool) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            assert!(
                !freed.load(Ordering::Acquire),
                "use-after-free: last finisher touched batch state after the joiner freed it"
            );
            let _guard = self.done_lock.lock().expect("batch lock poisoned");
            assert!(
                !freed.load(Ordering::Acquire),
                "use-after-free: last finisher touched batch state after the joiner freed it"
            );
            self.done.notify_all();
        }
    }
}

/// A persistent work-stealing worker pool. See the module docs.
///
/// Most callers want the process-wide [`WorkStealingPool::global`] pool;
/// dedicated pools ([`WorkStealingPool::new`]) exist for tests and
/// benchmarks and shut their workers down on drop.
pub struct WorkStealingPool {
    shared: Arc<PoolShared>,
    threads: usize,
    /// Join handles of owned (non-global) pools; drained on drop.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkStealingPool {
    /// Spawns a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            // Each deque starts with the room its first push would grow,
            // so a deque's first job allocates nothing and the pool width
            // does not change what a batch allocates.
            queues: (0..threads)
                .map(|_| Mutex::new(VecDeque::with_capacity(4)))
                .collect(),
            background: Mutex::new(VecDeque::new()),
            next_queue: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rj-pool-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    // rjlint: allow(no-unwrap) — worker spawn fails only on OS
                    // thread exhaustion; no useful typed recovery exists.
                    .expect("spawning pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool, created on first use and sized to the
    /// machine (`std::thread::available_parallelism`, overridable with the
    /// `RJ_POOL_THREADS` environment variable). Every serving round and
    /// MapReduce job shares it, so total real concurrency tracks the
    /// hardware no matter how many queries run at once.
    pub fn global() -> &'static WorkStealingPool {
        static GLOBAL: OnceLock<WorkStealingPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("RJ_POOL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                });
            WorkStealingPool::new(threads)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task of `tasks` on the pool, blocking until all have
    /// completed, and returns their results in **submission order**.
    ///
    /// Tasks may borrow from the caller's stack (they only need to outlive
    /// this call, not `'static`), and may themselves call `run_batch` on
    /// the same pool: the submitting thread *helps* — it executes pending
    /// pool jobs while waiting — so nested batches cannot deadlock even
    /// with a single worker. A single-task batch runs inline on the
    /// caller's thread.
    ///
    /// If a task panics, the panic is re-raised here (first panicking task
    /// in submission order) after the whole batch has finished; the pool
    /// itself stays healthy.
    pub fn run_batch<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        self.run_batch_at(PoolPriority::Foreground, tasks)
    }

    /// [`WorkStealingPool::run_batch`] with an explicit scheduling class.
    ///
    /// A `Background` batch's jobs yield to all queued foreground work
    /// (workers claim them only when the foreground deques are dry), but
    /// the *submitting* thread still helps from either class while
    /// joining, so a background batch always makes progress — even on a
    /// one-worker pool fully occupied by foreground jobs — and nesting
    /// stays deadlock-free across classes.
    pub fn run_batch_at<'env, T: Send + 'env>(
        &self,
        priority: PoolPriority,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // Inline fast path: nothing to overlap, no cross-thread hop.
            // rjlint: allow(no-unwrap) — guarded by the `n == 1` branch.
            let task = tasks.into_iter().next().expect("one task");
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(v) => return vec![v],
                Err(p) => resume_unwind(p),
            }
        }
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let sync = BatchSync::new(n);
        let slots_ref: &[Mutex<Option<std::thread::Result<T>>>] = &slots;
        let jobs: Vec<Job> = tasks
            .into_iter()
            .enumerate()
            .map(|(idx, task)| {
                let sync = Arc::clone(&sync);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    *slots_ref[idx].lock().expect("batch slot poisoned") = Some(result);
                    sync.finish_one();
                });
                // SAFETY: lifetime erasure (`'_` → `'static`; same layout,
                // a fat pointer) to hand the job to the persistent
                // workers — exactly the contract of `std::thread::scope`:
                // this function does not return before `join_batch` has
                // observed `remaining == 0`, and every access a job makes
                // to borrowed state (`slots_ref` and the `'env` captures
                // of `task`) strictly precedes its release-ordered
                // countdown decrement in `BatchSync::finish_one`, which
                // the joiner's acquire load synchronizes with — so every
                // borrow outlives every borrowed access. What the
                // last-finishing job touches *after* its decrement (the
                // `done_lock`/`done` wake) is the Arc-owned `BatchSync`,
                // kept alive past this function's return by the job's own
                // clone, never borrowed. Jobs never unwind (the closure
                // body is fully wrapped in `catch_unwind`), so a job
                // cannot abort before reaching its countdown, and the
                // joiner itself only runs non-unwinding pool jobs while
                // waiting.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        self.shared.inject(jobs, priority);
        self.join_batch(&sync);
        let mut out = Vec::with_capacity(n);
        let mut panicked = None;
        for slot in slots {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // rjlint: allow(no-unwrap) — join_batch returns only after the
                // batch countdown hits zero, so every slot is filled.
                .expect("batch joined before all tasks finished")
            {
                Ok(v) => out.push(v),
                Err(p) => {
                    if panicked.is_none() {
                        panicked = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panicked {
            resume_unwind(p);
        }
        out
    }

    /// Help-first join; see [`PoolShared::join_batch`].
    fn join_batch(&self, sync: &BatchSync) {
        self.shared.join_batch(sync);
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep_lock.lock().expect("pool lock poisoned");
            self.shared.wake.notify_all();
        }
        for handle in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn boxed<'env, T, F: FnOnce() -> T + Send + 'env>(
        f: F,
    ) -> Box<dyn FnOnce() -> T + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkStealingPool::new(3);
        let got = pool.run_batch((0..64).map(|i| boxed(move || i * 2)).collect());
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_tasks_than_workers_all_run() {
        let pool = WorkStealingPool::new(2);
        let counter = AtomicU64::new(0);
        let got = pool.run_batch(
            (0..500)
                .map(|i| {
                    let counter = &counter;
                    boxed(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect(),
        );
        assert_eq!(got.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(got[499], 499);
    }

    #[test]
    fn tasks_borrow_from_the_caller_stack() {
        let pool = WorkStealingPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let slice = &data;
        let sums = pool.run_batch(
            (0..4)
                .map(|c| boxed(move || slice.iter().filter(|x| **x % 4 == c).sum::<u64>()))
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_batches_do_not_deadlock_even_on_one_worker() {
        // Every task submits a sub-batch; with a single worker this can
        // only complete if joiners help execute pending jobs.
        let pool = WorkStealingPool::new(1);
        let got = pool.run_batch(
            (0..8u64)
                .map(|i| {
                    let pool = &pool;
                    boxed(move || {
                        let inner =
                            pool.run_batch((0..4u64).map(|j| boxed(move || i * 10 + j)).collect());
                        inner.iter().sum::<u64>()
                    })
                })
                .collect(),
        );
        let want: Vec<u64> = (0..8u64)
            .map(|i| (0..4).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deeply_nested_batches_complete() {
        let pool = WorkStealingPool::new(2);
        fn level(pool: &WorkStealingPool, depth: usize) -> u64 {
            if depth == 0 {
                return 1;
            }
            pool.run_batch(
                (0..3)
                    .map(|_| {
                        let pool_ref = pool;
                        Box::new(move || level(pool_ref, depth - 1))
                            as Box<dyn FnOnce() -> u64 + Send + '_>
                    })
                    .collect(),
            )
            .iter()
            .sum()
        }
        assert_eq!(level(&pool, 3), 27);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkStealingPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![
                boxed(|| 1),
                boxed(|| panic!("boom in lane 1")),
                boxed(|| 3),
            ]);
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        // The pool keeps working after a task panic.
        let got = pool.run_batch((0..10).map(|i| boxed(move || i)).collect());
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let pool = WorkStealingPool::new(3);
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..10u64 {
                        let got = pool.run_batch(
                            (0..8u64)
                                .map(|i| boxed(move || t * 1000 + round * 10 + i))
                                .collect(),
                        );
                        let want: Vec<u64> = (0..8u64).map(|i| t * 1000 + round * 10 + i).collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn global_pool_is_machine_sized_and_reused() {
        let a = WorkStealingPool::global();
        let b = WorkStealingPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        let got = a.run_batch((0..32).map(|i| boxed(move || i + 1)).collect());
        assert_eq!(got[31], 32);
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = WorkStealingPool::new(2);
        let empty: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(pool.run_batch(empty).is_empty());
        assert_eq!(pool.run_batch(vec![boxed(|| 7u32)]), vec![7]);
    }

    /// A bare `PoolShared` with no worker threads: lets tests drive
    /// `inject`/`claim` deterministically (and the rj_check models drive
    /// them under the interleaving explorer, worker threads being model
    /// threads there).
    pub(super) fn workerless_shared(queues: usize) -> PoolShared {
        PoolShared {
            queues: (0..queues).map(|_| Mutex::new(VecDeque::new())).collect(),
            background: Mutex::new(VecDeque::new()),
            next_queue: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn marker_job(log: &Arc<Mutex<Vec<&'static str>>>, tag: &'static str) -> Job {
        let log = Arc::clone(log);
        Box::new(move || log.lock().unwrap().push(tag))
    }

    #[test]
    fn claim_drains_all_foreground_before_any_background() {
        let shared = workerless_shared(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Background submitted *first*; foreground must still win.
        shared.inject(
            vec![marker_job(&log, "bg0"), marker_job(&log, "bg1")],
            PoolPriority::Background,
        );
        shared.inject(
            vec![marker_job(&log, "fg0"), marker_job(&log, "fg1")],
            PoolPriority::Foreground,
        );
        while let Some(job) = shared.claim(0) {
            job();
        }
        assert_eq!(*log.lock().unwrap(), vec!["fg0", "fg1", "bg0", "bg1"]);
        assert_eq!(shared.pending.load(Ordering::Acquire), 0);
    }

    #[test]
    fn foreground_injected_midway_preempts_remaining_background() {
        let shared = workerless_shared(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        shared.inject(
            vec![marker_job(&log, "bg0"), marker_job(&log, "bg1")],
            PoolPriority::Background,
        );
        shared.claim(0).expect("bg0")();
        shared.inject(vec![marker_job(&log, "fg0")], PoolPriority::Foreground);
        shared.claim(0).expect("fg0 before bg1")();
        shared.claim(0).expect("bg1")();
        assert_eq!(*log.lock().unwrap(), vec!["bg0", "fg0", "bg1"]);
    }

    #[test]
    fn background_batches_complete_in_submission_order() {
        let pool = WorkStealingPool::new(2);
        let got = pool.run_batch_at(
            PoolPriority::Background,
            (0..32).map(|i| boxed(move || i * 3)).collect(),
        );
        assert_eq!(got, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn foreground_nested_inside_background_on_one_worker() {
        // A background job that itself fans out foreground work exercises
        // cross-class nesting: joiners must help across both queues or a
        // one-worker pool would wedge here.
        let pool = WorkStealingPool::new(1);
        let got = pool.run_batch_at(
            PoolPriority::Background,
            (0..4u64)
                .map(|i| {
                    let pool = &pool;
                    boxed(move || {
                        pool.run_batch((0..3u64).map(|j| boxed(move || i * 10 + j)).collect())
                            .iter()
                            .sum::<u64>()
                    })
                })
                .collect(),
        );
        let want: Vec<u64> = (0..4u64)
            .map(|i| (0..3).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(got, want);
    }
}

/// rj_check interleaving models of the pool's hot protocols, plus the
/// regression models of the two historical pool bugs. Run with
/// `RUSTFLAGS="--cfg rj_check" cargo test -p rj_store --lib model_`
/// (without the cfg this module does not exist).
///
/// The passing models drive the *real* `inject`/`claim`/`worker_loop`/
/// `finish_one` code — the shims compiled into this module under
/// `--cfg rj_check` make every sync operation a scheduling point — and
/// assert their invariants hold on **every** bounded interleaving. The
/// failing models drive the fault-injection twins above and assert the
/// explorer finds (and `chk::replay` reproduces) the historical bug.
#[cfg(all(test, rj_check))]
mod model_tests {
    use super::tests::workerless_shared;
    use super::*;
    use rj_analyze::chk::{self, thread, CheckOutcome, Config};

    fn noop_job() -> Job {
        Box::new(|| {})
    }

    /// Joiner tail of `join_batch` (minus helping): wait until the batch
    /// countdown reaches zero. Bounded in the model — every pass through
    /// the loop blocks on the condvar, never spins.
    fn await_batch(sync: &BatchSync) {
        loop {
            if sync.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            let guard = sync.done_lock.lock().expect("batch lock poisoned");
            if sync.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            let _ = sync
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("batch lock poisoned");
        }
    }

    /// The real count-first `inject` racing two claimers: the pending
    /// counter never wraps and fully drains, on every interleaving.
    #[test]
    fn model_pending_accounting_survives_racing_claims() {
        let outcome = chk::explore_with(Config::default(), || {
            let shared = Arc::new(workerless_shared(1));
            shared.inject(vec![noop_job()], PoolPriority::Foreground);
            let s1 = Arc::clone(&shared);
            let w1 = thread::spawn(move || {
                if let Some(job) = s1.claim(0) {
                    job();
                }
            });
            let s2 = Arc::clone(&shared);
            let w2 = thread::spawn(move || {
                if let Some(job) = s2.claim(0) {
                    job();
                }
            });
            // Races with both claimers.
            shared.inject(vec![noop_job()], PoolPriority::Foreground);
            w1.join();
            w2.join();
            // Claimers may have seen the count before the push and given
            // up empty-handed; whatever they left behind drains here, and
            // the books must balance exactly.
            while let Some(job) = shared.claim(0) {
                job();
            }
            assert_eq!(
                shared.pending.load(Ordering::Acquire),
                0,
                "pending out of balance after full drain"
            );
        });
        match outcome {
            CheckOutcome::Pass {
                schedules,
                exhausted,
            } => {
                assert!(exhausted, "bounded space should be fully explored");
                assert!(schedules > 1, "model must actually branch");
            }
            CheckOutcome::Fail { message, .. } => panic!("inject/claim accounting: {message}"),
        }
    }

    /// Regression model of the PR-5 underflow bug: the push-first twin of
    /// `inject` lets a racing claim decrement `pending` past zero. The
    /// explorer must find a failing schedule and `replay` must reproduce
    /// it from the decision vector alone.
    #[test]
    fn model_push_first_inject_underflows_pending() {
        fn model() {
            let shared = Arc::new(workerless_shared(1));
            shared.inject(vec![noop_job()], PoolPriority::Foreground);
            let s1 = Arc::clone(&shared);
            let w1 = thread::spawn(move || {
                if let Some(job) = s1.claim(0) {
                    job();
                }
            });
            let s2 = Arc::clone(&shared);
            let w2 = thread::spawn(move || {
                if let Some(job) = s2.claim(0) {
                    job();
                }
            });
            shared.inject_push_first(vec![noop_job()], PoolPriority::Foreground);
            w1.join();
            w2.join();
        }
        let CheckOutcome::Fail {
            message, schedule, ..
        } = chk::explore_with(Config::default(), model)
        else {
            panic!("explorer missed the push-before-count underflow");
        };
        assert!(
            message.contains("underflowed"),
            "unexpected failure: {message}"
        );
        assert!(
            !chk::replay(&schedule, model).is_pass(),
            "recorded schedule must reproduce the underflow"
        );
    }

    /// Regression model of the stack-batch bug: with `BatchSync` on the
    /// joiner's stack, the last finisher's post-decrement lock/notify
    /// races the joiner freeing the frame. Found and replayable.
    #[test]
    fn model_stack_batch_sync_is_a_use_after_free() {
        fn model() {
            let sync = BatchSync::new(1);
            let freed = Arc::new(AtomicBool::new(false));
            let finisher_sync = Arc::clone(&sync);
            let finisher_freed = Arc::clone(&freed);
            let finisher =
                thread::spawn(move || finisher_sync.finish_one_on_stack(&finisher_freed));
            await_batch(&sync);
            // The joiner returns — on the pre-fix design this is the stack
            // frame holding the batch state going away.
            freed.store(true, Ordering::Release);
            finisher.join();
        }
        let CheckOutcome::Fail {
            message, schedule, ..
        } = chk::explore_with(Config::default(), model)
        else {
            panic!("explorer missed the stack-batch use-after-free");
        };
        assert!(
            message.contains("use-after-free"),
            "unexpected failure: {message}"
        );
        assert!(
            !chk::replay(&schedule, model).is_pass(),
            "recorded schedule must reproduce the use-after-free"
        );
    }

    /// The fixed, Arc-owned countdown: two finishers running the real
    /// `finish_one` against a waiting joiner — no lost wake, no deadlock,
    /// on every interleaving.
    #[test]
    fn model_arc_batch_sync_countdown_never_loses_the_wake() {
        let outcome = chk::explore_with(Config::default(), || {
            let sync = BatchSync::new(2);
            let finishers: Vec<_> = (0..2)
                .map(|_| {
                    let sync = Arc::clone(&sync);
                    thread::spawn(move || sync.finish_one())
                })
                .collect();
            await_batch(&sync);
            for f in finishers {
                f.join();
            }
        });
        match outcome {
            CheckOutcome::Pass {
                schedules,
                exhausted,
            } => {
                assert!(exhausted, "bounded space should be fully explored");
                assert!(schedules > 1, "model must actually branch");
            }
            CheckOutcome::Fail { message, .. } => panic!("batch countdown: {message}"),
        }
    }

    /// A real `worker_loop` against pre-queued work of both classes: the
    /// worker drains foreground before background on every schedule, and
    /// the shutdown handshake (store + locked notify, as in `Drop`) always
    /// terminates it.
    #[test]
    fn model_worker_drains_foreground_first_then_shuts_down() {
        let outcome = chk::explore_with(Config::default(), || {
            let shared = Arc::new(workerless_shared(1));
            let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
            let sync = BatchSync::new(2);
            let tagged = |tag: &'static str| -> Job {
                let order = Arc::clone(&order);
                let sync = Arc::clone(&sync);
                Box::new(move || {
                    order.lock().expect("order log poisoned").push(tag);
                    sync.finish_one();
                })
            };
            // Both classes queued before the worker exists, background
            // first — claim order is then pure priority policy.
            shared.inject(vec![tagged("bg")], PoolPriority::Background);
            shared.inject(vec![tagged("fg")], PoolPriority::Foreground);
            let worker_shared = Arc::clone(&shared);
            let worker = thread::spawn(move || worker_shared.worker_loop(0));
            await_batch(&sync);
            assert_eq!(
                *order.lock().expect("order log poisoned"),
                vec!["fg", "bg"],
                "background claimed before foreground"
            );
            shared.shutdown.store(true, Ordering::Release);
            {
                let _guard = shared.sleep_lock.lock().expect("pool sleep lock poisoned");
                shared.wake.notify_all();
            }
            worker.join();
        });
        match outcome {
            CheckOutcome::Pass {
                schedules,
                exhausted,
            } => {
                assert!(exhausted, "bounded space should be fully explored");
                assert!(schedules > 1, "model must actually branch");
            }
            CheckOutcome::Fail { message, .. } => panic!("worker priority/shutdown: {message}"),
        }
    }

    /// The real help-first `join_batch` against a racing claimer: the
    /// joiner executes whatever the claimer leaves behind, waits out a
    /// straggler the claimer still holds, and the batch always completes
    /// with balanced accounting.
    #[test]
    fn model_help_first_join_completes_with_a_racing_claimer() {
        let outcome = chk::explore_with(Config::default(), || {
            let shared = Arc::new(workerless_shared(1));
            let sync = BatchSync::new(2);
            let jobs: Vec<Job> = (0..2)
                .map(|_| {
                    let sync = Arc::clone(&sync);
                    Box::new(move || sync.finish_one()) as Job
                })
                .collect();
            shared.inject(jobs, PoolPriority::Foreground);
            let claimer_shared = Arc::clone(&shared);
            let claimer = thread::spawn(move || {
                if let Some(job) = claimer_shared.claim(0) {
                    job();
                }
            });
            shared.join_batch(&sync);
            claimer.join();
            assert_eq!(sync.remaining.load(Ordering::Acquire), 0);
            assert_eq!(shared.pending.load(Ordering::Acquire), 0);
        });
        match outcome {
            CheckOutcome::Pass {
                schedules,
                exhausted,
            } => {
                assert!(exhausted, "bounded space should be fully explored");
                assert!(schedules > 1, "model must actually branch");
            }
            CheckOutcome::Fail { message, .. } => panic!("help-first join: {message}"),
        }
    }

    /// `inject` racing a worker that may be anywhere between claiming and
    /// going to sleep: the locked notify (and the timed-wait backstop)
    /// guarantee the job always runs and the shutdown always lands.
    #[test]
    fn model_inject_always_reaches_a_sleepy_worker() {
        let outcome = chk::explore_with(Config::default(), || {
            let shared = Arc::new(workerless_shared(1));
            let sync = BatchSync::new(1);
            let worker_shared = Arc::clone(&shared);
            let worker = thread::spawn(move || worker_shared.worker_loop(0));
            let job_sync = Arc::clone(&sync);
            shared.inject(
                vec![Box::new(move || job_sync.finish_one()) as Job],
                PoolPriority::Foreground,
            );
            await_batch(&sync);
            shared.shutdown.store(true, Ordering::Release);
            {
                let _guard = shared.sleep_lock.lock().expect("pool sleep lock poisoned");
                shared.wake.notify_all();
            }
            worker.join();
        });
        match outcome {
            CheckOutcome::Pass {
                schedules,
                exhausted,
            } => {
                assert!(exhausted, "bounded space should be fully explored");
                assert!(schedules > 1, "model must actually branch");
            }
            CheckOutcome::Fail { message, .. } => panic!("inject/sleep race: {message}"),
        }
    }
}
