//! rj_check — a deterministic interleaving explorer for small concurrent
//! protocols, in the spirit of `loom` and CHESS.
//!
//! A *model* is a closure that spawns threads via [`thread::spawn`] and
//! synchronizes through the shim primitives in [`sync`]
//! (`Mutex`/`Condvar`/`Atomic*`). Only one model thread runs at a time:
//! every shim operation is a *scheduling point* where the explorer decides
//! which thread performs the next operation. [`explore`] re-runs the model
//! under depth-first search over those decisions until every interleaving
//! (within bounds) has been executed, so an assertion that holds after
//! exploration holds on **every** schedule — and a failing schedule is
//! reported as a replayable decision vector ([`replay`]).
//!
//! **Bounded preemptions.** Context switches away from a *blocked or
//! finished* thread are free; switches away from a still-runnable thread
//! are *preemptions*, and each schedule may contain at most
//! [`Config::max_preemptions`] of them (CHESS-style context bounding —
//! most concurrency bugs need only one or two preemptions).
//!
//! **Fair scheduling.** Recheck loops (a claim that re-checks a queue
//! under a lock, say) are unbounded only under an unfair scheduler. After
//! [`Config::fair_yield_after`] consecutive scheduling points on one
//! thread while a sibling is runnable, the explorer forces a free switch
//! away and prunes the keep-spinning continuation — the standard
//! fair-scheduler assumption of CHESS-style checkers.
//!
//! **Timeouts and deadlock.** `wait_timeout` durations are ignored; a
//! timed waiter is woken only when no thread is runnable (the timeout
//! cannot fire earlier in any schedule the protocol's correctness may
//! depend on — correctness must never depend on timing). If no thread is
//! runnable and no timed waiter exists, the schedule is reported as a
//! deadlock.
//!
//! **Scope.** This is an interleaving explorer, not a weak-memory model:
//! execution is sequentially consistent and `Ordering` arguments are
//! recorded but not weakened. Model code must be deterministic given the
//! schedule (no host time, no randomness) and must synchronize only
//! through the shims; a panic *caught inside* the model (e.g. by a
//! per-task `catch_unwind`) is not modelled.

pub mod sync;
pub mod thread;

use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum preemptive context switches per schedule (CHESS bound).
    pub max_preemptions: usize,
    /// Hard cap on explored schedules; hitting it yields
    /// `Pass { exhausted: false }`.
    pub max_schedules: usize,
    /// Hard cap on scheduling points in one execution; exceeding it fails
    /// the schedule (livelock suspicion).
    pub max_steps: usize,
    /// Fair-yield bound: after this many *consecutive* scheduling points
    /// on one thread while a sibling is runnable, the scheduler forces a
    /// free (non-preemption-charged) switch away and prunes the
    /// keep-running continuation. Real protocols contain recheck loops
    /// that are unbounded only under an unfair scheduler (e.g. a claim
    /// re-check while a push is suspended mid-flight); this is
    /// the standard fair-scheduler assumption that keeps them explorable.
    /// Bugs requiring a longer uninterrupted run of a single thread are
    /// outside the bound.
    pub fair_yield_after: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_preemptions: 2,
            max_schedules: 200_000,
            max_steps: 20_000,
            fair_yield_after: 100,
        }
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Every explored schedule ran to completion without a panic.
    Pass {
        /// Number of distinct schedules executed.
        schedules: usize,
        /// Whether the bounded state space was fully explored (false only
        /// when `max_schedules` stopped the search).
        exhausted: bool,
    },
    /// A schedule failed (assertion/panic, deadlock, or livelock bound).
    Fail {
        /// Why (panic message, "deadlock: …", …).
        message: String,
        /// The decision vector reproducing the failure: the thread id
        /// chosen at each scheduling point. Feed to [`replay`].
        schedule: Vec<usize>,
        /// Schedules executed up to and including the failing one.
        schedules: usize,
    },
}

impl CheckOutcome {
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass { .. })
    }

    /// The failing decision vector, if any.
    pub fn failing_schedule(&self) -> Option<&[usize]> {
        match self {
            CheckOutcome::Fail { schedule, .. } => Some(schedule),
            CheckOutcome::Pass { .. } => None,
        }
    }
}

/// Explores `f` under the default [`Config`]; panics with the failing
/// schedule if any interleaving fails. Use in tests as the model-checking
/// analogue of `#[test]` body assertions.
pub fn explore<F: Fn() + Send + Sync + 'static>(f: F) {
    match explore_with(Config::default(), f) {
        CheckOutcome::Pass { .. } => {}
        CheckOutcome::Fail {
            message, schedule, ..
        } => panic!("rj_check: model failed\n  failure: {message}\n  schedule: {schedule:?}"),
    }
}

/// Explores `f` under `config` and returns the outcome instead of
/// panicking — the entry point for tests that *expect* a failing schedule
/// (regression models of historical bugs).
pub fn explore_with<F: Fn() + Send + Sync + 'static>(config: Config, f: F) -> CheckOutcome {
    install_panic_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut path: Vec<Branch> = Vec::new();
    let mut schedules = 0usize;
    loop {
        schedules += 1;
        let (new_path, failure) =
            run_once(Arc::clone(&f), std::mem::take(&mut path), config, false);
        path = new_path;
        if let Some(failure) = failure {
            return CheckOutcome::Fail {
                message: failure.message,
                schedule: failure.decisions,
                schedules,
            };
        }
        // Depth-first backtrack to the deepest branch with an untried
        // alternative.
        loop {
            match path.last_mut() {
                None => {
                    return CheckOutcome::Pass {
                        schedules,
                        exhausted: true,
                    }
                }
                Some(b) => {
                    b.next += 1;
                    if b.next < b.candidates.len() {
                        break;
                    }
                    path.pop();
                }
            }
        }
        if schedules >= config.max_schedules {
            return CheckOutcome::Pass {
                schedules,
                exhausted: false,
            };
        }
    }
}

/// Runs `f` once under a pinned decision vector (as reported by
/// [`CheckOutcome::Fail`]); decisions past the vector's end follow the
/// default non-preemptive policy. Returns the single-schedule outcome.
pub fn replay<F: Fn() + Send + Sync + 'static>(schedule: &[usize], f: F) -> CheckOutcome {
    install_panic_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let path = schedule
        .iter()
        .map(|&tid| Branch {
            candidates: vec![tid],
            next: 0,
        })
        .collect();
    let (_, failure) = run_once(f, path, Config::default(), true);
    match failure {
        Some(failure) => CheckOutcome::Fail {
            message: failure.message,
            schedule: failure.decisions,
            schedules: 1,
        },
        None => CheckOutcome::Pass {
            schedules: 1,
            exhausted: false,
        },
    }
}

/// Internal marker panic used to unwind parked model threads when a run
/// aborts; suppressed by the panic hook and never reported.
pub(crate) struct AbortRun;

fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortRun>().is_some() {
                return;
            }
            // Real model-thread panics are captured into the CheckOutcome;
            // printing each one would spam exploration logs.
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("rj-model-"))
            {
                return;
            }
            prev(info);
        }));
    });
}

/// One scheduling point along the DFS path: the candidate threads that
/// were eligible (preemption bound already applied) and which candidate
/// the current iteration takes.
pub(crate) struct Branch {
    candidates: Vec<usize>,
    next: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    Runnable,
    BlockedMutex(usize),
    WaitingCv {
        cv: usize,
        mutex: usize,
        timed: bool,
    },
    BlockedJoin(usize),
    Finished,
}

pub(crate) struct Failure {
    message: String,
    decisions: Vec<usize>,
}

pub(crate) struct RunInner {
    state: Vec<ThreadState>,
    /// Thread allowed to run; `usize::MAX` when the run is over.
    current: usize,
    step: usize,
    path: Vec<Branch>,
    /// `path` entries that existed when the run started are replayed;
    /// entries beyond are fresh territory.
    replay_len: usize,
    decisions: Vec<usize>,
    preemptions: usize,
    /// Consecutive scheduling points the current thread has been chosen
    /// at; drives the fair-yield bound.
    consecutive: usize,
    mutex_owner: Vec<Option<usize>>,
    n_condvars: usize,
    woke_by_timeout: Vec<bool>,
    aborted: Option<String>,
    finished: usize,
    spawned: usize,
    config: Config,
    strict_replay: bool,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// One model execution's shared scheduler state.
pub(crate) struct Run {
    pub(crate) id: u64,
    inner: StdMutex<RunInner>,
    cv: StdCondvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Run>, usize)>> = const { RefCell::new(None) };
}

/// The (run, thread-id) of the calling model thread, if inside a model.
pub(crate) fn current() -> Option<(Arc<Run>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<Run>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

fn run_once(
    f: Arc<dyn Fn() + Send + Sync>,
    path: Vec<Branch>,
    config: Config,
    strict_replay: bool,
) -> (Vec<Branch>, Option<Failure>) {
    static NEXT_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let replay_len = path.len();
    let run = Arc::new(Run {
        id: NEXT_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        inner: StdMutex::new(RunInner {
            state: vec![ThreadState::Runnable],
            current: 0,
            step: 0,
            path,
            replay_len,
            decisions: Vec::new(),
            preemptions: 0,
            consecutive: 0,
            mutex_owner: Vec::new(),
            n_condvars: 0,
            woke_by_timeout: vec![false],
            aborted: None,
            finished: 0,
            spawned: 1,
            config,
            strict_replay,
            handles: Vec::new(),
        }),
        cv: StdCondvar::new(),
    });
    Run::spawn_model_thread(&run, 0, move || f());
    // Wait for every model thread (including ones spawned mid-run) to
    // finish — abort paths mark threads finished too, so this converges
    // for failing schedules as well.
    {
        let mut g = run.lock();
        while g.finished < g.spawned {
            g = run.cv.wait(g).expect("rj_check scheduler lock");
        }
    }
    // Join the real threads so nothing leaks into the next execution.
    loop {
        let handles: Vec<_> = run.lock().handles.drain(..).collect();
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let mut g = run.lock();
    let failure = g.aborted.take().map(|message| Failure {
        message,
        decisions: std::mem::take(&mut g.decisions),
    });
    (std::mem::take(&mut g.path), failure)
}

impl Run {
    pub(crate) fn lock(&self) -> StdMutexGuard<'_, RunInner> {
        self.inner.lock().expect("rj_check scheduler lock")
    }

    fn notify(&self) {
        self.cv.notify_all();
    }

    /// Registers a new mutex for this run.
    pub(crate) fn alloc_mutex(&self) -> usize {
        let mut g = self.lock();
        g.mutex_owner.push(None);
        g.mutex_owner.len() - 1
    }

    pub(crate) fn alloc_condvar(&self) -> usize {
        let mut g = self.lock();
        g.n_condvars += 1;
        g.n_condvars - 1
    }

    /// Aborts the run with `message`; every parked thread unwinds via
    /// [`AbortRun`] on its next wakeup.
    fn abort_locked(&self, g: &mut RunInner, message: String) {
        if g.aborted.is_none() {
            g.aborted = Some(message);
        }
        self.notify();
    }

    /// Panics with [`AbortRun`] if the run is aborted. Call with the lock
    /// held (it is released by the unwind through the guard in callers —
    /// here we take no guard, callers drop theirs first).
    fn bail_if_aborted(g: &RunInner) {
        if g.aborted.is_some() {
            std::panic::panic_any(AbortRun);
        }
    }

    /// The scheduling decision: picks which thread performs the next
    /// operation, recording/replaying the DFS branch. Returns without
    /// switching if the current thread is chosen again.
    fn advance_locked(&self, g: &mut RunInner) {
        loop {
            let runnable: Vec<usize> = g
                .state
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == ThreadState::Runnable)
                .map(|(t, _)| t)
                .collect();
            if !runnable.is_empty() {
                if let Some(chosen) = self.choose_locked(g, &runnable) {
                    g.current = chosen;
                }
                self.notify();
                return;
            }
            if g.finished == g.spawned {
                g.current = usize::MAX;
                self.notify();
                return;
            }
            // Deliver timeouts only when nothing else can run.
            let timed: Vec<(usize, usize)> = g
                .state
                .iter()
                .enumerate()
                .filter_map(|(t, s)| match s {
                    ThreadState::WaitingCv {
                        mutex, timed: true, ..
                    } => Some((t, *mutex)),
                    _ => None,
                })
                .collect();
            if !timed.is_empty() {
                for (t, mutex) in timed {
                    g.woke_by_timeout[t] = true;
                    g.state[t] = if g.mutex_owner[mutex].is_some() {
                        ThreadState::BlockedMutex(mutex)
                    } else {
                        ThreadState::Runnable
                    };
                }
                continue;
            }
            let stuck: Vec<String> = g
                .state
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != ThreadState::Finished)
                .map(|(t, s)| format!("thread {t}: {s:?}"))
                .collect();
            self.abort_locked(
                g,
                format!("deadlock: no runnable thread [{}]", stuck.join(", ")),
            );
            return;
        }
    }

    fn choose_locked(&self, g: &mut RunInner, runnable: &[usize]) -> Option<usize> {
        let from = g.current;
        let pos = g.step;
        g.step += 1;
        if g.step > g.config.max_steps {
            self.abort_locked(
                g,
                format!(
                    "livelock: no completion within {} scheduling points",
                    g.config.max_steps
                ),
            );
            return None;
        }
        let from_runnable = runnable.contains(&from);
        // Fair-yield (see `Config::fair_yield_after`): a thread that has
        // held the baton this long while a sibling is runnable is treated
        // as spinning — the switch away is forced (free) and the
        // keep-spinning continuation is not offered as a candidate.
        let spinning =
            from_runnable && runnable.len() > 1 && g.consecutive >= g.config.fair_yield_after;
        let chosen = if pos < g.path.len() {
            let b = &g.path[pos];
            let c = b.candidates[b.next];
            if !runnable.contains(&c) {
                let msg = if g.strict_replay && pos < g.replay_len {
                    format!("replay diverged: thread {c} not runnable at step {pos}")
                } else {
                    format!(
                        "nondeterministic model: replayed thread {c} not runnable at step {pos} — \
                         model code must depend only on the schedule"
                    )
                };
                self.abort_locked(g, msg);
                return None;
            }
            c
        } else {
            // Fresh territory: default is non-preemptive (stay on the
            // current thread when it can continue), alternatives that
            // preempt consume budget; a forced fair-yield switches the
            // default away instead.
            let budget = g.config.max_preemptions.saturating_sub(g.preemptions);
            let default = if from_runnable && !spinning {
                from
            } else {
                *runnable
                    .iter()
                    .find(|&&t| t != from)
                    .unwrap_or(&runnable[0])
            };
            let mut candidates = vec![default];
            for &t in runnable {
                if t == default || (spinning && t == from) {
                    continue;
                }
                if !from_runnable || spinning || budget > 0 {
                    candidates.push(t);
                }
            }
            g.path.push(Branch {
                candidates,
                next: 0,
            });
            default
        };
        if from_runnable && !spinning && chosen != from {
            g.preemptions += 1;
        }
        g.consecutive = if chosen == from { g.consecutive + 1 } else { 0 };
        g.decisions.push(chosen);
        Some(chosen)
    }

    /// Parks the calling thread until the scheduler hands it the baton.
    fn park_until_scheduled<'a>(
        &self,
        mut g: StdMutexGuard<'a, RunInner>,
        me: usize,
    ) -> StdMutexGuard<'a, RunInner> {
        while g.current != me && g.aborted.is_none() {
            g = self.cv.wait(g).expect("rj_check scheduler lock");
        }
        if g.aborted.is_some() {
            drop(g);
            std::panic::panic_any(AbortRun);
        }
        g
    }

    /// A plain scheduling point: the calling thread stays runnable and may
    /// or may not keep the baton.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut g = self.lock();
        Self::bail_if_aborted(&g);
        self.advance_locked(&mut g);
        let g = self.park_until_scheduled(g, me);
        drop(g);
    }

    /// Scheduler-side mutex acquire (the real lock is taken by the caller
    /// afterwards, which cannot contend — only one thread runs at a time).
    pub(crate) fn acquire(&self, me: usize, mutex: usize) {
        self.yield_point(me);
        let mut g = self.lock();
        loop {
            Self::bail_if_aborted(&g);
            if g.mutex_owner[mutex].is_none() {
                g.mutex_owner[mutex] = Some(me);
                return;
            }
            g.state[me] = ThreadState::BlockedMutex(mutex);
            self.advance_locked(&mut g);
            g = self.park_until_scheduled(g, me);
        }
    }

    /// Scheduler-side mutex release. Bookkeeping always happens; the
    /// scheduling point is skipped during an unwind so guard drops in
    /// panicking code cannot park a dying thread.
    pub(crate) fn release(&self, me: usize, mutex: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.mutex_owner[mutex], Some(me), "release of unowned mutex");
        g.mutex_owner[mutex] = None;
        Self::wake_mutex_blocked(&mut g, mutex);
        if g.aborted.is_some() || std::thread::panicking() {
            self.notify();
            return;
        }
        self.advance_locked(&mut g);
        let g = self.park_until_scheduled(g, me);
        drop(g);
    }

    fn wake_mutex_blocked(g: &mut RunInner, mutex: usize) {
        for s in g.state.iter_mut() {
            if *s == ThreadState::BlockedMutex(mutex) {
                *s = ThreadState::Runnable;
            }
        }
    }

    /// Condvar wait: atomically releases `mutex` and parks on `cv`; on
    /// return the thread has been woken (notify or — for timed waits —
    /// timeout delivery) and scheduled, but has NOT yet reacquired the
    /// mutex. Returns whether the wake was a timeout.
    pub(crate) fn cv_wait(&self, me: usize, cv: usize, mutex: usize, timed: bool) -> bool {
        let mut g = self.lock();
        Self::bail_if_aborted(&g);
        debug_assert_eq!(g.mutex_owner[mutex], Some(me), "cv wait without the lock");
        g.mutex_owner[mutex] = None;
        Self::wake_mutex_blocked(&mut g, mutex);
        g.woke_by_timeout[me] = false;
        g.state[me] = ThreadState::WaitingCv { cv, mutex, timed };
        self.advance_locked(&mut g);
        let g = self.park_until_scheduled(g, me);
        let timed_out = g.woke_by_timeout[me];
        drop(g);
        timed_out
    }

    /// Condvar notify: moves waiters to mutex contention. `all` wakes
    /// every waiter, otherwise the lowest thread id (deterministic stand-in
    /// for `notify_one`'s unspecified pick).
    pub(crate) fn cv_notify(&self, me: usize, cv: usize, all: bool) {
        self.yield_point(me);
        let mut g = self.lock();
        Self::bail_if_aborted(&g);
        let waiters: Vec<(usize, usize)> = g
            .state
            .iter()
            .enumerate()
            .filter_map(|(t, s)| match s {
                ThreadState::WaitingCv { cv: c, mutex, .. } if *c == cv => Some((t, *mutex)),
                _ => None,
            })
            .collect();
        for (t, mutex) in waiters {
            g.state[t] = if g.mutex_owner[mutex].is_some() {
                ThreadState::BlockedMutex(mutex)
            } else {
                ThreadState::Runnable
            };
            if !all {
                break;
            }
        }
        drop(g);
    }

    /// Blocks until thread `target` finishes.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        self.yield_point(me);
        let mut g = self.lock();
        loop {
            Self::bail_if_aborted(&g);
            if g.state[target] == ThreadState::Finished {
                return;
            }
            g.state[me] = ThreadState::BlockedJoin(target);
            self.advance_locked(&mut g);
            g = self.park_until_scheduled(g, me);
        }
    }

    /// Registers a new model thread and spawns its carrier. `entry` runs
    /// once the scheduler first picks the thread.
    pub(crate) fn spawn_model_thread<F: FnOnce() + Send + 'static>(
        self: &Arc<Run>,
        tid: usize,
        entry: F,
    ) {
        let run = Arc::clone(self);
        // rjlint: allow(thread-discipline) — the model checker's carrier
        // threads ARE the machinery that checks the protocols; they never run
        // production work and exist only inside an exploration.
        let handle = std::thread::Builder::new()
            .name(format!("rj-model-{tid}"))
            .spawn(move || {
                set_current(Some((Arc::clone(&run), tid)));
                // The initial park sits INSIDE catch_unwind: if the run
                // aborts before this thread is ever scheduled, the AbortRun
                // unwind must still fall through to the Finished bookkeeping
                // below or the driver would wait forever.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    {
                        let g = run.lock();
                        let g = run.park_until_scheduled(g, tid);
                        drop(g);
                    }
                    entry()
                }));
                set_current(None);
                let mut g = run.lock();
                g.state[tid] = ThreadState::Finished;
                g.finished += 1;
                if let Err(payload) = result {
                    if payload.downcast_ref::<AbortRun>().is_none() && g.aborted.is_none() {
                        let message = panic_message(payload.as_ref());
                        g.aborted = Some(format!("thread {tid} panicked: {message}"));
                    }
                    run.notify();
                    return;
                }
                // Wake joiners and hand the baton on.
                for s in g.state.iter_mut() {
                    if *s == ThreadState::BlockedJoin(tid) {
                        *s = ThreadState::Runnable;
                    }
                }
                run.advance_locked(&mut g);
                drop(g);
            })
            .expect("spawning rj_check model thread");
        self.lock().handles.push(handle);
    }

    /// Registers a sibling thread id from inside the model (the
    /// `chk::thread::spawn` path). Returns the new tid.
    pub(crate) fn register_thread(&self) -> usize {
        let mut g = self.lock();
        let tid = g.spawned;
        g.spawned += 1;
        g.state.push(ThreadState::Runnable);
        g.woke_by_timeout.push(false);
        tid
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
