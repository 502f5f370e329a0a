//! Serving-layer errors.

use std::fmt;

use rj_core::error::RankJoinError;

/// Everything that can go wrong at the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant id does not name a registered tenant.
    UnknownTenant,
    /// The backend id does not name a registered backend.
    UnknownBackend,
    /// The session id does not name a submitted session.
    UnknownSession,
    /// The session finished and its record — outcome, result rows,
    /// billing record — was dropped after its grace window
    /// ([`crate::FINISHED_GRACE_ROUNDS`] scheduling rounds past the round
    /// it finished in). What it charged stays billed to its tenant; only
    /// the per-session record is gone. Collect a result within the window.
    SessionExpired,
    /// A scheduling step asked for a lifecycle transition the session's
    /// state does not allow; the session is left as it was. No client
    /// call can cause this — it reports a bug in the service as an error,
    /// where a panic under the service lock would take down every tenant.
    InvalidTransition {
        /// The transition that was refused.
        step: &'static str,
        /// The state the session was found in.
        found: &'static str,
    },
    /// Admission control rejected the submit: the tenant already has its
    /// maximum number of queued sessions.
    QueueFull {
        /// The rejected tenant's registered name.
        tenant: String,
    },
    /// The backend executor has no ISL index prepared or attached; the
    /// serving layer executes through the cancellable ISL path and
    /// refuses backends it could not stop at batch boundaries.
    NotIslPrepared,
    /// Tenant weights must be finite and strictly positive.
    InvalidWeight(f64),
    /// The continuation token does not name the session's current page
    /// boundary (the session is not paged, already terminal, or the
    /// token is from an earlier page).
    InvalidContinuation,
    /// The paused cursor's statistics version no longer matches the
    /// backend: a maintained write or an index rebuild changed the data
    /// under the continuation. The session is terminated
    /// ([`crate::SessionOutcome::Failed`]) — re-submit the query.
    StaleContinuation {
        /// Version the cursor was opened under.
        expected: u64,
        /// The backend's current version.
        found: u64,
    },
    /// An execution-layer error surfaced while serving.
    Core(RankJoinError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant => write!(f, "unknown tenant id"),
            ServeError::UnknownBackend => write!(f, "unknown backend id"),
            ServeError::UnknownSession => write!(f, "unknown session id"),
            ServeError::SessionExpired => write!(
                f,
                "session expired: it finished and its record was dropped after the grace window"
            ),
            ServeError::InvalidTransition { step, found } => {
                write!(f, "session table refused `{step}` on a {found} session")
            }
            ServeError::QueueFull { tenant } => {
                write!(f, "admission rejected: tenant `{tenant}` queue is full")
            }
            ServeError::NotIslPrepared => {
                write!(f, "backend has no ISL index prepared or attached")
            }
            ServeError::InvalidWeight(w) => {
                write!(f, "tenant weight must be finite and > 0, got {w}")
            }
            ServeError::InvalidContinuation => {
                write!(f, "continuation token does not name the current page")
            }
            ServeError::StaleContinuation { expected, found } => write!(
                f,
                "continuation is stale: cursor pinned stats version {expected}, backend is at {found}"
            ),
            ServeError::Core(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RankJoinError> for ServeError {
    fn from(e: RankJoinError) -> Self {
        ServeError::Core(e)
    }
}
