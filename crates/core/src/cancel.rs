//! Cooperative cancellation and deadlines for in-flight rank joins.
//!
//! A serving layer (an `rj_serve`-style front-end) needs to stop a query
//! mid-flight — the client cancelled, or its deadline expired — without
//! poisoning shared state and without forgetting the work already billed.
//! Since PR 8 a cancellation *is a cursor pause*: execution runs on a
//! pull-based [`crate::cursor::RankedCursor`], a stop condition ends the
//! pull at a batch boundary, and the suspended
//! [`crate::cursor::CursorState`] can be resumed later instead of being
//! forfeited. (The pre-cursor `run_isl_cancellable` driver this module
//! once carried is gone; every cursor honours the same policy through
//! [`crate::cursor::RankedCursor::next_batch`].)
//!
//! * [`CancelToken`] — a cheaply cloneable flag the *requester* trips;
//!   the executing side polls it at batch boundaries only, so a stop
//!   never tears a half-fetched batch (every batch is fully paid for and
//!   fully accounted before the check). A "batch" is each algorithm's
//!   own boundary unit, all checked by the one cursor pump: an ISL
//!   batch of index rows, a BFHM guarantee-loop step, a DRJN round; a
//!   MapReduce baseline, whose jobs cannot stop once launched, is checked
//!   before they launch.
//! * [`StopPolicy`] — token, simulated-time deadline, and a
//!   fault-injection hook, all checked at batch boundaries.
//! * [`StopReason`] — why a pull stopped early, reported in
//!   [`crate::cursor::CursorBatch::stopped`].

// Under `--cfg rj_check` the flag is the rj_check shim atomic, so the
// deterministic interleaving explorer can schedule around every
// cancel/observe pair; outside a model run (and without the cfg) the
// behaviour is plain `std`. See `rj_analyze::chk`.
#[cfg(rj_check)]
use rj_analyze::chk::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(rj_check))]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; tripping it
/// is sticky (there is no reset — mint a fresh token per query).
///
/// The token of [`StopPolicy::never`] has no flag: it is never
/// cancelled, [`CancelToken::cancel`] on it (or a clone) does nothing, and
/// making it allocates nothing.
#[derive(Clone, Debug)]
pub struct CancelToken {
    /// `None` for the flagless token of [`StopPolicy::never`].
    cancelled: Option<Arc<AtomicBool>>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            cancelled: Some(Arc::default()),
        }
    }
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag. Idempotent; visible to every clone. A no-op on the
    /// flagless token of [`StopPolicy::never`].
    pub fn cancel(&self) {
        if let Some(flag) = &self.cancelled {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone;
    /// always `false` for the flagless token of [`StopPolicy::never`].
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    }
}

/// When a cancellable execution must stop. All conditions are checked at
/// batch boundaries only — a tripped condition stops the query *after*
/// the batch that is currently paid for, never mid-batch.
#[derive(Clone, Debug, Default)]
pub struct StopPolicy {
    /// External cancellation flag; trip it from any thread.
    pub token: CancelToken,
    /// Budget of simulated seconds this query may charge before it is
    /// stopped with [`StopReason::DeadlineExpired`]. Measured against the
    /// executing cluster's own ledger from the moment execution starts —
    /// run deadline-bearing queries on a dedicated
    /// [`rj_store::cluster::Cluster::fork_metrics`] fork so concurrent
    /// work cannot eat the budget. `None` disables the deadline.
    pub deadline_sim_seconds: Option<f64>,
    /// Fault-injection hook: trip the token after this many batches
    /// (ISL batches, BFHM steps or DRJN rounds), as if a client cancelled
    /// exactly there. Exercises mid-query
    /// cancellation deterministically in tests; leave `None` in
    /// production.
    pub cancel_after_batches: Option<u64>,
}

impl StopPolicy {
    /// A policy that never stops: execution is identical to the plain,
    /// uncancellable path. Its token has no flag (cancelling it does
    /// nothing), so the policy costs no allocation — the one-shot drivers
    /// make one per run.
    pub fn never() -> Self {
        StopPolicy {
            token: CancelToken { cancelled: None },
            deadline_sim_seconds: None,
            cancel_after_batches: None,
        }
    }
}

/// Why a cancellable execution stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelToken`] was tripped.
    Cancelled,
    /// The query's simulated-time deadline elapsed.
    DeadlineExpired,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::policy_stop;

    #[test]
    fn token_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled(), "clones share one flag");
        clone.cancel();
        assert!(token.is_cancelled(), "idempotent");
    }

    #[test]
    fn policy_constructors() {
        let never = StopPolicy::never();
        assert!(never.token.cancelled.is_none());
        assert!(never.deadline_sim_seconds.is_none());
        assert!(never.cancel_after_batches.is_none());
        let default = StopPolicy::default();
        assert!(default.token.cancelled.is_some());
        assert!(default.deadline_sim_seconds.is_none());
    }

    #[test]
    fn a_never_policy_never_stops_and_a_token_policy_stops_on_cancel() {
        let never = StopPolicy::never();
        never.token.clone().cancel();
        assert!(!never.token.is_cancelled(), "cancelling `never` is a no-op");
        assert_eq!(policy_stop(&never, u64::MAX, f64::MAX), None);

        let policy = StopPolicy::default();
        assert_eq!(policy_stop(&policy, 1, 0.0), None);
        policy.token.cancel();
        assert_eq!(policy_stop(&policy, 1, 0.0), Some(StopReason::Cancelled));
        let deadline = StopPolicy {
            deadline_sim_seconds: Some(1.0),
            ..StopPolicy::default()
        };
        assert_eq!(
            policy_stop(&deadline, 1, 1.0),
            Some(StopReason::DeadlineExpired)
        );

        // The batch-count hook stops even a policy built on `never`.
        let hooked = StopPolicy {
            cancel_after_batches: Some(2),
            ..StopPolicy::never()
        };
        assert_eq!(policy_stop(&hooked, 1, 0.0), None);
        assert_eq!(policy_stop(&hooked, 2, 0.0), Some(StopReason::Cancelled));
    }
}

/// rj_check models (run with `RUSTFLAGS="--cfg rj_check" cargo test -p
/// rj_core --lib model_`): every interleaving of cancel vs. observe.
#[cfg(all(test, rj_check))]
mod model_tests {
    use super::*;
    use rj_analyze::chk::{self, thread};

    #[test]
    fn model_cancel_is_seen_after_join_on_every_schedule() {
        chk::explore(|| {
            let token = CancelToken::new();
            let clone = token.clone();
            let t = thread::spawn(move || clone.cancel());
            // Racing read: both answers are legal before the join…
            let _ = token.is_cancelled();
            t.join();
            // …but after joining the canceller, the trip MUST be visible.
            assert!(token.is_cancelled(), "cancel lost across clones");
        });
    }

    #[test]
    fn model_double_cancel_from_two_threads_is_idempotent() {
        chk::explore(|| {
            let token = CancelToken::new();
            let (a, b) = (token.clone(), token.clone());
            let ta = thread::spawn(move || a.cancel());
            let tb = thread::spawn(move || b.cancel());
            ta.join();
            tb.join();
            assert!(token.is_cancelled());
        });
    }
}
