//! A sized-to-the-machine scoped fan-out.
//!
//! **One batch API** runs every piece of real concurrency in the
//! workspace: the serving layer's rounds and maintenance rebuilds, and
//! MapReduce tasks. Nothing else spawns threads.
//!
//! * A pool is only a width ([`WorkStealingPool::global`] sizes it to the
//!   machine; override with `RJ_POOL_THREADS`). It owns no threads.
//! * [`WorkStealingPool::run_batch`] runs a batch on at most `width`
//!   lanes. A batch of one task, or a width of one, runs in order on the
//!   caller. Otherwise one `std::thread::scope` spawns `lanes − 1` threads
//!   and the caller is the last lane. Every lane pops the next task from
//!   one shared queue until it is empty.
//! * Tasks may borrow from the caller's stack, results come back in
//!   **submission order**, every task runs, and the first panic in
//!   submission order is re-raised after the whole batch has finished.
//! * Nested batches cannot deadlock: a lane that submits a batch joins its
//!   own lanes. Nesting is at most two deep (a serving round's rebuild
//!   running a MapReduce job), so one caller has at most `width²` lanes
//!   live. Concurrent callers each fan out, so live threads stay at or
//!   below callers × width.
//!
//! The pool schedules *real* execution only. Modelled time never depends
//! on it: the MapReduce engine charges each job's critical path from its
//! tasks' own clients, so counted metrics and simulated wall-clock are
//! identical at every width (CI runs the suite at `RJ_POOL_THREADS` 1
//! and 8).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One task of a batch: it may borrow anything that outlives the batch.
type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A batch width. See the module docs. (The name predates the scoped
/// fan-out; `benchmark/src/seam.rs` pins it.)
///
/// Most callers want the process-wide [`WorkStealingPool::global`] width;
/// dedicated pools ([`WorkStealingPool::new`]) exist for tests, benchmarks
/// and services configured with their own width.
pub struct WorkStealingPool {
    threads: usize,
}

impl WorkStealingPool {
    /// A pool that runs each batch on at most `threads` lanes (at least 1).
    pub fn new(threads: usize) -> Self {
        WorkStealingPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide pool, sized to the machine on first use
    /// (`std::thread::available_parallelism`, overridable with the
    /// `RJ_POOL_THREADS` environment variable).
    pub fn global() -> &'static WorkStealingPool {
        static GLOBAL: OnceLock<WorkStealingPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("RJ_POOL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
            WorkStealingPool::new(threads)
        })
    }

    /// The most lanes one batch runs on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task of `tasks`, blocking until all have completed, and
    /// returns their results in **submission order**.
    ///
    /// Tasks may borrow from the caller's stack (they only need to outlive
    /// this call, not `'static`) and may themselves call `run_batch`. If a
    /// task panics, the rest still run, and the panic of the first
    /// panicking task in submission order is re-raised here.
    pub fn run_batch<'env, T: Send + 'env>(&self, tasks: Vec<Task<'env, T>>) -> Vec<T> {
        let n = tasks.len();
        let lanes = self.threads.min(n);
        let run = |task: Task<'env, T>| catch_unwind(AssertUnwindSafe(task));
        if lanes <= 1 {
            return settle(n, tasks.into_iter().map(run));
        }
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let lane = || loop {
            let next = queue.lock().expect("pool queue poisoned").next();
            let Some((idx, task)) = next else { return };
            *slots[idx].lock().expect("batch slot poisoned") = Some(run(task));
        };
        std::thread::scope(|scope| {
            for _ in 1..lanes {
                scope.spawn(lane);
            }
            lane();
        });
        // The scope joined every lane, and a lane stops only once the
        // queue is empty, so every slot holds its task's result.
        let results = slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner));
        settle(n, results)
    }
}

/// Collects a batch's results in order, re-raising the first panic once
/// every result has been drawn (drawing a serial batch's results is what
/// runs its tasks).
fn settle<T>(n: usize, results: impl Iterator<Item = std::thread::Result<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    let mut panicked = None;
    for result in results {
        match result {
            Ok(v) => out.push(v),
            Err(p) => panicked = panicked.or(Some(p)),
        }
    }
    if let Some(p) = panicked {
        resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    fn boxed<'env, T, F: FnOnce() -> T + Send + 'env>(f: F) -> Task<'env, T> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let got =
            WorkStealingPool::new(3).run_batch((0..64).map(|i| boxed(move || i * 2)).collect());
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_tasks_than_workers_all_run() {
        let got = WorkStealingPool::new(2).run_batch((0..500).map(|i| boxed(move || i)).collect());
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_borrow_from_the_caller_stack() {
        let data: Vec<u64> = (0..100).collect();
        let slice = &data;
        let sums = WorkStealingPool::new(2).run_batch(
            (0..4)
                .map(|c| boxed(move || slice.iter().filter(|x| **x % 4 == c).sum::<u64>()))
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    /// Batches of `fanout` tasks nested `depth` deep: each leaf returns 1,
    /// so the total is `fanout^depth`.
    fn nested(pool: &WorkStealingPool, fanout: u64, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let tasks = (0..fanout).map(|_| boxed(move || nested(pool, fanout, depth - 1)));
        pool.run_batch(tasks.collect()).iter().sum()
    }

    #[test]
    fn nested_batches_do_not_deadlock_even_on_one_worker() {
        assert_eq!(nested(&WorkStealingPool::new(1), 8, 2), 64);
    }

    #[test]
    fn deeply_nested_batches_complete() {
        assert_eq!(nested(&WorkStealingPool::new(2), 3, 3), 27);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        for width in [1, 2] {
            let pool = WorkStealingPool::new(width);
            let ran = AtomicUsize::new(0);
            let ran = &ran;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let count = move || ran.fetch_add(1, SeqCst);
                pool.run_batch(vec![boxed(count), boxed(|| panic!("boom")), boxed(count)]);
            }));
            assert!(caught.is_err(), "panic lost at width {width}");
            assert_eq!(ran.load(SeqCst), 2, "a task skipped at width {width}");
            let got = pool.run_batch((0..10).map(|i| boxed(move || i)).collect());
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_batch_runs_on_at_most_threads_lanes() {
        for width in [1, 2, 4] {
            let pool = WorkStealingPool::new(width);
            let (live, peak) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
            let task = move || {
                peak.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                live.fetch_sub(1, SeqCst);
            };
            pool.run_batch((0..64).map(|_| boxed(task)).collect());
            let peak = peak.load(SeqCst);
            assert!(peak <= pool.threads(), "{peak} lanes at width {width}");
        }
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let pool = &WorkStealingPool::new(3);
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                scope.spawn(move || {
                    for round in 0..10u64 {
                        let want: Vec<u64> = (0..8).map(|i| t * 1000 + round * 10 + i).collect();
                        let got = pool.run_batch(want.iter().map(|&v| boxed(move || v)).collect());
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn global_pool_is_machine_sized_and_reused() {
        let (a, b) = (WorkStealingPool::global(), WorkStealingPool::global());
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        let got = a.run_batch((0..32).map(|i| boxed(move || i + 1)).collect());
        assert_eq!(got[31], 32);
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = WorkStealingPool::new(2);
        assert!(pool.run_batch(Vec::<Task<u32>>::new()).is_empty());
        assert_eq!(pool.run_batch(vec![boxed(|| 7u32)]), vec![7]);
    }
}
