//! Model-aware stand-ins for `std::sync` primitives.
//!
//! Inside a model run every operation is a scheduling point recorded and
//! explored by [`crate::chk::explore`]; outside a run each type degrades
//! to its `std` counterpart, so code compiled against the shims (e.g.
//! `rj_core::cancel` under `--cfg rj_check`) still runs normally when it
//! is not being model-checked.
//!
//! Model identity is per-run: objects learn their scheduler id lazily on
//! first use and re-register when a new run begins, so models may build
//! their state inside the explored closure (the normal pattern) without
//! any registration ceremony.

use super::{current, Run};
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    PoisonError, TryLockError,
};
use std::time::Duration;

type Meta = StdMutex<Option<(u64, usize)>>;

fn model_id(meta: &Meta, run: &Arc<Run>, alloc: impl FnOnce() -> usize) -> usize {
    let mut m = meta.lock().expect("chk meta lock");
    match *m {
        Some((rid, id)) if rid == run.id => id,
        _ => {
            let id = alloc();
            *m = Some((run.id, id));
            id
        }
    }
}

/// A mutex whose lock/unlock are scheduling points inside a model run.
pub struct Mutex<T> {
    inner: StdMutex<T>,
    meta: Meta,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: StdMutex::new(value),
            meta: StdMutex::new(None),
        }
    }

    fn mid(&self, run: &Arc<Run>) -> usize {
        model_id(&self.meta, run, || run.alloc_mutex())
    }

    /// Takes the real (uncontended, by scheduler construction) lock after
    /// the scheduler granted ownership.
    fn take_real(&self) -> StdMutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(g) => g,
            // A prior aborted schedule may have poisoned the real lock
            // while unwinding; scheduler-side exclusivity still holds.
            Err(TryLockError::Poisoned(pe)) => pe.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("rj_check exclusivity violated: real lock contended")
            }
        }
    }

    /// Consumes the mutex and returns the value. Not a scheduling point:
    /// exclusive ownership means no other thread can observe it.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match current() {
            Some((run, me)) => {
                let mid = self.mid(&run);
                run.acquire(me, mid);
                Ok(MutexGuard {
                    mutex: self,
                    std: Some(self.take_real()),
                    model: Some((run, me, mid)),
                })
            }
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    mutex: self,
                    std: Some(g),
                    model: None,
                }),
                Err(pe) => Err(PoisonError::new(MutexGuard {
                    mutex: self,
                    std: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }
}

/// Guard for [`Mutex`]; dropping it is a scheduling point in a model.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    std: Option<StdMutexGuard<'a, T>>,
    model: Option<(Arc<Run>, usize, usize)>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard already released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the scheduler hands the baton on.
        drop(self.std.take());
        if let Some((run, me, mid)) = self.model.take() {
            run.release(me, mid);
        }
    }
}

/// Result of a [`Condvar::wait_timeout`]; inside a model "timed out"
/// means the scheduler delivered the timeout because no thread was
/// runnable (durations are ignored — correctness must not depend on
/// timing).
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose wait/notify are scheduling points inside a
/// model run.
pub struct Condvar {
    inner: StdCondvar,
    meta: Meta,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar {
            inner: StdCondvar::new(),
            meta: StdMutex::new(None),
        }
    }

    fn cid(&self, run: &Arc<Run>) -> usize {
        model_id(&self.meta, run, || run.alloc_condvar())
    }

    fn wait_model<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (run, me, mid) = guard.model.take().expect("model cv wait on fallback guard");
        let mutex = guard.mutex;
        let cv = self.cid(&run);
        drop(guard.std.take()); // real release before the baton moves
        drop(guard); // defused: both fields taken
        let timed_out = run.cv_wait(me, cv, mid, timed);
        run.acquire(me, mid);
        (
            MutexGuard {
                mutex,
                std: Some(mutex.take_real()),
                model: Some((run, me, mid)),
            },
            WaitTimeoutResult { timed_out },
        )
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.model.is_some() {
            return Ok(self.wait_model(guard, false).0);
        }
        let mutex = guard.mutex;
        let mut guard = guard;
        let std = guard.std.take().expect("guard already released");
        drop(guard);
        match self.inner.wait(std) {
            Ok(g) => Ok(MutexGuard {
                mutex,
                std: Some(g),
                model: None,
            }),
            Err(pe) => Err(PoisonError::new(MutexGuard {
                mutex,
                std: Some(pe.into_inner()),
                model: None,
            })),
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.model.is_some() {
            return Ok(self.wait_model(guard, true));
        }
        let mutex = guard.mutex;
        let mut guard = guard;
        let std = guard.std.take().expect("guard already released");
        drop(guard);
        match self.inner.wait_timeout(std, dur) {
            Ok((g, t)) => Ok((
                MutexGuard {
                    mutex,
                    std: Some(g),
                    model: None,
                },
                WaitTimeoutResult {
                    timed_out: t.timed_out(),
                },
            )),
            Err(pe) => {
                let (g, t) = pe.into_inner();
                Err(PoisonError::new((
                    MutexGuard {
                        mutex,
                        std: Some(g),
                        model: None,
                    },
                    WaitTimeoutResult {
                        timed_out: t.timed_out(),
                    },
                )))
            }
        }
    }

    pub fn notify_all(&self) {
        match current() {
            Some((run, me)) => {
                let cv = self.cid(&run);
                run.cv_notify(me, cv, true);
            }
            None => self.inner.notify_all(),
        }
    }

    /// In a model, wakes the lowest-id waiter (a deterministic stand-in
    /// for `notify_one`'s unspecified choice).
    pub fn notify_one(&self) {
        match current() {
            Some((run, me)) => {
                let cv = self.cid(&run);
                run.cv_notify(me, cv, false);
            }
            None => self.inner.notify_one(),
        }
    }
}

/// Model-aware atomics. Orderings are accepted for API compatibility and
/// passed to the underlying atomic; the *exploration* itself is
/// sequentially consistent (interleavings, not weak memory).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    fn yield_point() {
        if let Some((run, me)) = super::current() {
            run.yield_point(me);
        }
    }

    macro_rules! model_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Model-aware drop-in for the `std` atomic of the same name.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                pub const fn new(v: $prim) -> $name {
                    $name {
                        inner: <$std>::new(v),
                    }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.load(order)
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    yield_point();
                    self.inner.store(v, order)
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.swap(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    yield_point();
                    self.inner.compare_exchange(cur, new, ok, err)
                }
            }
        };
    }

    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    impl AtomicUsize {
        pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
            if let Some((run, me)) = super::current() {
                run.yield_point(me);
            }
            self.inner.fetch_add(v, order)
        }

        pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
            if let Some((run, me)) = super::current() {
                run.yield_point(me);
            }
            self.inner.fetch_sub(v, order)
        }
    }
}
