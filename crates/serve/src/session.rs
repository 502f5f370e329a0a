//! Query sessions: what a client submits, and what it gets back.

use std::sync::Arc;

use rj_core::result::JoinTuple;
use rj_store::metrics::MetricsSnapshot;

/// Opaque handle of one submitted query session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

/// Scheduling class of a session. Classes are strict: no session of a
/// lower class is dispatched while a higher-class session is queued
/// (weighted fairness applies *within* a class).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryPriority {
    /// Bulk/deferrable queries: analytics sweeps, prefetching.
    Background,
    /// Default class for programmatic clients.
    Batch,
    /// Latency-sensitive user-facing queries; always served first.
    Interactive,
}

/// Everything a client chooses at submit time.
#[derive(Clone, Debug)]
pub struct SubmitOptions {
    /// How many results the session wants (the query's `k`).
    pub k: usize,
    /// Scheduling class.
    pub priority: QueryPriority,
    /// Budget of simulated seconds the query may charge before it is
    /// stopped with [`SessionOutcome::DeadlineExpired`]. `None` means no
    /// deadline. Checked at batch boundaries.
    pub deadline_sim_seconds: Option<f64>,
    /// Fault-injection hook: cancel the session after this many ISL
    /// batches, as if the client called cancel exactly there. Exercises
    /// mid-query cancellation deterministically in tests; leave `None`
    /// in production.
    pub cancel_after_batches: Option<u64>,
    /// Results per page. `None` (the default) runs the query to its full
    /// `k` in one dispatch. `Some(p)` makes the session **paged**: the
    /// scheduling round certifies only the first `p` ranks, the session
    /// parks as a paused cursor ([`SessionStatus::Paged`] carries a
    /// continuation token), and each
    /// [`crate::RankJoinService::next_page`] call resumes it for `p`
    /// more — billed exactly the consumed delta of that page. Paged
    /// sessions never coalesce (their cursor belongs to one client).
    pub page_size: Option<usize>,
}

impl SubmitOptions {
    /// An interactive top-`k` query with no deadline.
    pub fn topk(k: usize) -> Self {
        SubmitOptions {
            k,
            priority: QueryPriority::Interactive,
            deadline_sim_seconds: None,
            cancel_after_batches: None,
            page_size: None,
        }
    }

    /// Same options at a different priority, builder-style.
    pub fn with_priority(mut self, priority: QueryPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Same options with a simulated-seconds deadline, builder-style. Kept
    /// beside [`SubmitOptions::with_priority`] and
    /// [`SubmitOptions::with_page_size`]: the serving tests submit with it.
    pub fn with_deadline(mut self, sim_seconds: f64) -> Self {
        self.deadline_sim_seconds = Some(sim_seconds);
        self
    }

    /// Same options paged at `page_size` results per pull, builder-style
    /// (see [`SubmitOptions::page_size`]).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = Some(page_size.max(1));
        self
    }
}

/// How a completed session's answer was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// The session ran its own execution on its tenant's ledger.
    Execution,
    /// The session coalesced onto a concurrent deeper execution of the
    /// same backend and took a prefix of that answer; it was charged
    /// nothing.
    SharedExecution,
    /// The session was answered from the backend's result-prefix cache;
    /// it was charged nothing.
    PrefixCache,
    /// The session ended (cancelled) before any execution touched it.
    Unserved,
}

/// How a session ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Ran to normal completion; `results` is the full top-k answer.
    Complete,
    /// Cancelled by the client; `results` holds the best candidates at
    /// the stopping batch boundary.
    Cancelled,
    /// The simulated-seconds deadline elapsed; `results` holds the best
    /// candidates at the stopping batch boundary.
    DeadlineExpired,
    /// The execution layer failed; the message is the error's display.
    Failed(String),
}

/// The terminal record of one session.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// The answer (complete, or best-so-far for stopped sessions).
    /// Shared: coalesced sessions alias the leader's allocation.
    pub results: Arc<Vec<JoinTuple>>,
    /// Exactly what this session charged its tenant's ledger. Zero for
    /// shared/cache-served and queue-cancelled sessions.
    pub charged: MetricsSnapshot,
    /// How the answer was produced.
    pub served_by: ServedBy,
    /// Service clock when the session was submitted.
    pub submitted_at: f64,
    /// Service clock when the session reached this terminal state.
    pub completed_at: f64,
}

/// Continuation token of a paged session: names the exact page boundary
/// the paused cursor stopped at. Pass it to
/// [`crate::RankJoinService::next_page`] to pull the next page; a token
/// from an earlier page (the client retried, or raced itself) is refused
/// with [`crate::ServeError::InvalidContinuation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageToken {
    /// The paged session.
    pub session: SessionId,
    /// Page sequence number (how many pages have been served).
    pub(crate) seq: u64,
}

/// One paged session's progress, reported while it is parked between
/// pages.
#[derive(Clone, Debug)]
pub struct PageInfo {
    /// Every result certified so far (all pages, rank order).
    pub results: Arc<Vec<JoinTuple>>,
    /// What the pages served so far charged, in total (billed to the
    /// tenant when the session reaches a terminal state).
    pub charged: MetricsSnapshot,
    /// Continuation for the next page.
    pub token: PageToken,
}

/// What [`crate::RankJoinService::poll`] reports.
#[derive(Clone, Debug)]
pub enum SessionStatus {
    /// Waiting for admission.
    Queued,
    /// Selected into the current scheduling round.
    Running,
    /// Paged session parked between pages; carries the continuation.
    Paged(PageInfo),
    /// Terminal; carries the result record.
    Done(SessionResult),
}
