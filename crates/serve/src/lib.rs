//! Multi-tenant serving front-end for rank-join queries.
//!
//! The lower layers answer *how* to run one top-k join well: indexed
//! algorithms ([`rj_core`]), cost-based planning, and a
//! process-wide batch fan-out ([`rj_store::pool`]). This crate
//! arbitrates *who* gets to use that machine when "heavy traffic from
//! millions of users" (the paper's cloud-store setting, §1) lands on one
//! cluster:
//!
//! * **Sessions** — [`RankJoinService::submit`] / [`poll`] / [`cancel`]
//!   with per-query deadlines. Queries stop at batch boundaries via the
//!   [`rj_core::cancel`] seam, so a cancelled or deadline-stopped session
//!   charges its tenant exactly the consumed prefix, never a torn batch.
//!   A session lives `queued → running → [paged ⇄ running] → done →
//!   expired`: a finished session's record stays pollable for a grace
//!   window of [`FINISHED_GRACE_ROUNDS`] scheduling rounds and is then
//!   dropped, after which its id answers [`ServeError::SessionExpired`].
//!   The window is counted in rounds — not on the simulated clock, which
//!   stands still while rounds only serve cache hits, and not in records,
//!   which would evict a burst of cache hits before any client could
//!   poll them. So the service holds one window's worth of finished
//!   sessions, not every session it ever served, and a round finds its
//!   queued work through an index instead of walking the records. Billing
//!   is unaffected: a charge is accumulated when the session finishes.
//! * **Metering** — every (tenant, backend) pair runs on its own
//!   [`rj_store::cluster::Cluster::fork_metrics`] ledger. Per-tenant
//!   usage is the sum of the tenant's forks, and the service's billing
//!   records conserve it exactly: work metered equals work billed
//!   ([`RankJoinService::tenant_usage`] vs
//!   [`RankJoinService::charged_total`]).
//! * **Admission & fairness** — bounded per-tenant queues (overload is
//!   rejected at submit, not absorbed), strict priority classes
//!   ([`QueryPriority`]), and weighted stride scheduling between tenants
//!   inside a class: a tenant's *pass* advances by charged simulated
//!   seconds over its weight, and the scheduler always serves the
//!   smallest pass — long-run service is proportional to weight.
//! * **Work sharing** — concurrent sessions on the same registered
//!   backend (same canonical [`rj_core::JoinSpec`] fingerprint, same
//!   execution config) coalesce onto one execution at the deepest
//!   requested `k`; because every algorithm returns one deterministic
//!   total order (score, then key), a completed depth-`k'` answer serves
//!   any later `k ≤ k'` session straight from the **result-prefix
//!   cache**. Cache entries are versioned against the backend's one
//!   statistics handle ([`rj_core::SharedTableStats`], for a binary pair
//!   and a multi-way spec alike) — the same version counter maintained
//!   writes, rebuilds and statistics passes bump — so a stale prefix is
//!   never served. A backend is a [`rj_core::RankJoinExecutor`] running
//!   ISL, whose one code path serves every arity, so everything above
//!   registration is join-arity agnostic.
//! * **Background maintenance** — index rebuilds run as their own pool
//!   batch after each round's query groups, so a round's queries never
//!   wait behind a rebuild.
//!
//! Scheduling rounds are explicit and deterministic:
//! [`RankJoinService::run_round`] drains one admission decision onto the
//! pool and advances the service's simulated clock by the round's
//! makespan, which makes fairness and sharing effects reproducible in
//! tests and in the host-clock benchmark's `serve_shared` workload.
//!
//! [`poll`]: RankJoinService::poll
//! [`cancel`]: RankJoinService::cancel

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod error;
pub mod service;
pub mod session;
pub mod sharing;
mod table;
pub mod tenant;

pub use error::ServeError;
pub use service::{BackendId, RankJoinService, RoundReport, ServeConfig, ServeCounters};
pub use session::{
    PageInfo, PageToken, QueryPriority, ServedBy, SessionId, SessionOutcome, SessionResult,
    SessionStatus, SubmitOptions,
};
pub use table::FINISHED_GRACE_ROUNDS;
pub use tenant::{TenantId, TenantProfile};
