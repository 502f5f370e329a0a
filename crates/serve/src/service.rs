//! The serving orchestrator: sessions in, scheduling rounds out.
//!
//! A [`RankJoinService`] is driven by explicit **scheduling rounds**
//! ([`RankJoinService::run_round`]): each round serves every valid
//! prefix-cache hit, admits up to [`ServeConfig::round_width`] queued
//! sessions (strict priority classes, weighted stride fairness inside a
//! class — see [`crate::admission`]), executes one pool task per backend
//! group, then runs any queued index rebuilds as a second batch. The
//! service's simulated clock advances by the round's makespan (the
//! slowest group, mirroring the store's parallel-round accounting), which
//! is what makes fairness and sharing effects measurable: sojourn =
//! completion clock − submit clock.
//!
//! Every backend is a prototype [`RankJoinExecutor`] over a join spec of
//! any arity, running ISL, and its caches are versioned against that
//! executor's one statistics handle ([`SharedTableStats`]).
//!
//! Rounds are intended to be driven from one thread (a benchmark loop or
//! a dispatcher); `submit`, `poll`, and `cancel` may be called
//! concurrently from any thread — the service lock is *released* while a
//! round executes on the pool, and in-flight executions observe
//! cancellation at batch boundaries through their session's
//! [`rj_core::cancel::CancelToken`].
//!
//! # Session lifecycle
//!
//! ```text
//! queued → running → [paged ⇄ running] → done → expired
//! ```
//!
//! `submit` queues a session; a round picks it (running) and either
//! finishes it (done) or — a paged session — parks it after a page
//! (paged), from where each `next_page` runs it again. A finished
//! session's record (outcome, result rows, billing record) stays
//! pollable for a grace window of [`crate::FINISHED_GRACE_ROUNDS`]
//! scheduling rounds, is dropped at the top of the next round after that
//! (expired), and from then on `poll`, `cancel` and `next_page` on its id
//! answer [`ServeError::SessionExpired`]. What the session charged was
//! billed to its tenant when it finished and does not leave with the
//! record. The window counts rounds, not simulated seconds or records —
//! the constant's docs say why. Sessions that are queued, running or
//! parked are never dropped: a parked cursor waits for its client
//! indefinitely (ending one is a billing event, so it is not done behind
//! the client's back).
//!
//! The records and the indices a round reads instead of walking them —
//! the queued ids in arrival order, the finished queue in round order —
//! live in the `table` module, whose transition methods are the only
//! code that changes a session's state.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rj_core::cancel::{StopPolicy, StopReason};
use rj_core::cursor::CursorState;
use rj_core::error::RankJoinError;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::result::JoinTuple;
use rj_core::statsmaint::SharedTableStats;
use rj_store::metrics::{MetricsSnapshot, QueryMeter};
use rj_store::pool::WorkStealingPool;

use crate::admission::{select_round, Candidate};
use crate::error::ServeError;
use crate::session::{
    PageInfo, PageToken, ServedBy, SessionId, SessionOutcome, SessionResult, SessionStatus,
    SubmitOptions,
};
use crate::sharing::{donation, Answer, WorkEntry};
use crate::table::{PagedSession, RecState, SessionTable};
use crate::tenant::{TenantId, TenantProfile, TenantState};

/// Opaque handle of one registered query backend — a join spec plus the
/// execution configuration of the prototype executor it was registered
/// with. Work sharing coalesces sessions *within* one backend only, and
/// registration dedupes backends by the canonical share key
/// `(`[`JoinSpec` fingerprint](rj_core::query::JoinSpec::fingerprint)`,
/// execution config)` — the fingerprint covers every side and edge, so
/// a multi-way spec extending a binary pair can never alias the pair's
/// backend (or its caches).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(pub(crate) usize);

/// Service-wide tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum sessions dispatched per scheduling round (prefix-cache
    /// hits are served on top of this — they occupy no execution slot).
    pub round_width: usize,
    /// Admission bound: a tenant with this many sessions already queued
    /// has further submits rejected with [`ServeError::QueueFull`].
    pub max_queue_per_tenant: usize,
    /// Enables cross-query work sharing: coalescing, prefix-cache hits
    /// and warm starts. Off, every session runs its own cold execution.
    pub sharing: bool,
    /// The service's pool width, or `None` for the process-wide
    /// [`WorkStealingPool::global`] width.
    pub pool_threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            round_width: 4,
            max_queue_per_tenant: 64,
            sharing: true,
            pool_threads: None,
        }
    }
}

/// Monotone service observables (all since service creation).
#[derive(Clone, Debug, Default)]
pub struct ServeCounters {
    /// Sessions accepted by admission.
    pub submitted: u64,
    /// Submits rejected by the per-tenant queue bound.
    pub rejected: u64,
    /// Sessions that reached [`SessionOutcome::Complete`].
    pub completed: u64,
    /// Sessions that ended [`SessionOutcome::Cancelled`].
    pub cancelled: u64,
    /// Sessions that ended [`SessionOutcome::DeadlineExpired`].
    pub deadline_expired: u64,
    /// Sessions that ended [`SessionOutcome::Failed`].
    pub failed: u64,
    /// Query executions actually run (a coalesced group counts one).
    pub executions: u64,
    /// Sessions served by coalescing onto a concurrent execution.
    pub coalesced: u64,
    /// Sessions served from the result-prefix cache.
    pub cache_hits: u64,
    /// Prefix hits and coalesced followers whose rows had to be copied
    /// out of the shared answer; the other `cache_hits + coalesced -
    /// cuts_built` were handed an allocation something already held.
    pub cuts_built: u64,
    /// Executions warm-started from the donated cursor state in their
    /// backend's work entry (they paid only the reads beyond the donor's
    /// consumed prefix).
    pub warm_starts: u64,
    /// Pages served to paged sessions (first pages and
    /// [`RankJoinService::next_page`] resumes).
    pub pages_served: u64,
    /// Rebuilds auto-enqueued because a backend's mutated fraction
    /// crossed its statistics handle's staleness bound.
    pub staleness_rebuilds: u64,
    /// Scheduling rounds run.
    pub rounds: u64,
    /// Finished sessions whose record was dropped after its grace window
    /// ([`crate::FINISHED_GRACE_ROUNDS`]); `submitted - reaped` is the
    /// number of records the service holds.
    pub reaped: u64,
    /// Background index rebuilds completed.
    pub maintenance_runs: u64,
    /// Background index rebuilds that failed.
    pub maintenance_failures: u64,
}

/// What one [`RankJoinService::run_round`] call did.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// Sessions dispatched into execution groups this round.
    pub dispatched: usize,
    /// Sessions that reached a terminal state this round (including
    /// prefix-cache hits).
    pub completed: usize,
    /// Sessions sent back to the queue (their coalesced leader stopped
    /// before completing).
    pub requeued: usize,
    /// Simulated seconds the round advanced the service clock by — the
    /// makespan over this round's backend groups.
    pub sim_seconds: f64,
    /// Background index rebuilds run after the query groups.
    pub maintenance_runs: usize,
}

struct BackendState {
    /// The registered executor; mutated only by background rebuilds.
    prototype: Arc<Mutex<RankJoinExecutor>>,
    /// The spec's shared statistics handle — the coherence backbone:
    /// maintained writes, re-preparations and collections bump its
    /// version, which retires the work entry below.
    stats: Arc<SharedTableStats>,
    /// Lazily created per-tenant execution forks: executor clones, each
    /// bound to a metrics fork of the base cluster (its
    /// `engine().cluster()`). Everything a pool job needs, shared
    /// immutably.
    forks: HashMap<TenantId, Arc<RankJoinExecutor>>,
    /// The deepest completed answer and the deepest donated cursor state,
    /// at one statistics version.
    work: WorkEntry,
}

struct ServiceState {
    clock: f64,
    tenants: Vec<TenantState>,
    backends: Vec<BackendState>,
    table: SessionTable,
    /// Registration dedupe: canonical share key → backend index.
    share_keys: HashMap<(u64, String), usize>,
    maintenance: VecDeque<usize>,
    counters: ServeCounters,
    charged_total: MetricsSnapshot,
}

/// One session's slice of a dispatch group (built under the service
/// lock, executed without it).
struct SessPlan {
    id: u64,
    k: usize,
    /// `Some` makes this a paged session: it opens a pinned cursor,
    /// serves one page, and parks (never coalesces).
    page_size: Option<usize>,
    policy: StopPolicy,
    fork: Arc<RankJoinExecutor>,
}

/// One backend's dispatch group for a round.
struct GroupPlan {
    backend: usize,
    /// Sessions sorted deepest-`k` first; under sharing the first
    /// non-cancelled, non-paged session executes for the whole group.
    sessions: Vec<SessPlan>,
    sharing: bool,
    /// The group's work, at the statistics version sampled at dispatch:
    /// the backend's donor if it is current there. Work the group adds is
    /// cached only if its version is still current when the round is
    /// applied (no maintained write raced the execution).
    work: WorkEntry,
}

/// A terminal session outcome produced off-lock by a group job.
struct SessFinal {
    id: u64,
    outcome: SessionOutcome,
    results: Arc<Vec<JoinTuple>>,
    charged: MetricsSnapshot,
    served_by: ServedBy,
}

/// A paged session's first page, produced off-lock by a group job.
struct PagedFirst {
    id: u64,
    state: CursorState,
    /// The fork the page ran on — where `next_page` resumes.
    fork: Arc<RankJoinExecutor>,
    results: Vec<JoinTuple>,
    charged: MetricsSnapshot,
}

struct GroupOutput {
    finals: Vec<SessFinal>,
    requeue: Vec<u64>,
    /// Paged sessions that served their first page and parked.
    paged: Vec<PagedFirst>,
    backend: usize,
    /// Simulated seconds this group's executions charged (sequential
    /// within the group).
    sim: f64,
    /// The plan's work plus what the group's execution offered to it —
    /// the entry its followers were cut from.
    work: WorkEntry,
    executions: u64,
    coalesced: u64,
    cuts_built: u64,
    warm_starts: u64,
    pages: u64,
}

/// The multi-tenant serving front-end. See the crate docs for the model.
pub struct RankJoinService {
    config: ServeConfig,
    pool: WorkStealingPool,
    state: Mutex<ServiceState>,
}

impl RankJoinService {
    /// Creates a service with no tenants or backends registered.
    pub fn new(config: ServeConfig) -> Self {
        let pool = WorkStealingPool::new(
            config
                .pool_threads
                .unwrap_or_else(|| WorkStealingPool::global().threads()),
        );
        RankJoinService {
            config,
            pool,
            state: Mutex::new(ServiceState {
                clock: 0.0,
                tenants: Vec::new(),
                backends: Vec::new(),
                table: SessionTable::default(),
                share_keys: HashMap::new(),
                maintenance: VecDeque::new(),
                counters: ServeCounters::default(),
                charged_total: MetricsSnapshot::default(),
            }),
        }
    }

    /// Registers a backend from a prototype executor — a
    /// [`RankJoinExecutor`] or a [`rj_core::SpecExecutor`], over a join
    /// spec of any arity. The executor must have an ISL index prepared or
    /// attached (the serving layer executes through
    /// batch-boundary-stoppable cursors over the index). The backend's
    /// share key for coalescing and the prefix cache is the canonical
    /// spec fingerprint plus the execution config; registering an
    /// equivalent executor again, through either type, returns the
    /// existing backend (so its sessions share work), and a multi-way spec
    /// extending the same pair gets a different key.
    pub fn register_backend(
        &self,
        exec: impl Into<RankJoinExecutor>,
    ) -> Result<BackendId, ServeError> {
        let exec = exec.into();
        if exec.isl_table().is_none() {
            return Err(ServeError::NotIslPrepared);
        }
        let key = (exec.fingerprint(), config_sig(&exec));
        let stats = exec.stats_handle();
        let mut st = self.lock();
        if let Some(&existing) = st.share_keys.get(&key) {
            return Ok(BackendId(existing));
        }
        let id = st.backends.len();
        st.share_keys.insert(key, id);
        st.backends.push(BackendState {
            prototype: Arc::new(Mutex::new(exec)),
            stats,
            forks: HashMap::new(),
            work: WorkEntry::default(),
        });
        Ok(BackendId(id))
    }

    /// Registers a tenant. `weight` sets its fair share (must be finite
    /// and strictly positive); a new tenant joins at the minimum pass of
    /// the existing tenants so it competes immediately without draining
    /// an unbounded backlog of "missed" service.
    pub fn register_tenant(&self, name: &str, weight: f64) -> Result<TenantId, ServeError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(ServeError::InvalidWeight(weight));
        }
        let mut st = self.lock();
        let join_pass = st
            .tenants
            .iter()
            .map(|t| t.pass)
            .fold(f64::INFINITY, f64::min);
        let join_pass = if join_pass.is_finite() {
            join_pass
        } else {
            0.0
        };
        let id = st.tenants.len();
        st.tenants.push(TenantState::new(
            TenantProfile {
                name: name.to_owned(),
                weight,
            },
            join_pass,
        ));
        Ok(TenantId(id))
    }

    /// Submits a query session. Admission control may reject it
    /// synchronously ([`ServeError::QueueFull`]); an accepted session is
    /// queued until a scheduling round serves it.
    pub fn submit(
        &self,
        tenant: TenantId,
        backend: BackendId,
        opts: SubmitOptions,
    ) -> Result<SessionId, ServeError> {
        let mut st = self.lock();
        if backend.0 >= st.backends.len() {
            return Err(ServeError::UnknownBackend);
        }
        let profile = &st
            .tenants
            .get(tenant.0)
            .ok_or(ServeError::UnknownTenant)?
            .profile;
        if st.table.queued_for(tenant) >= self.config.max_queue_per_tenant {
            let tenant = profile.name.clone();
            st.counters.rejected += 1;
            return Err(ServeError::QueueFull { tenant });
        }
        let clock = st.clock;
        let id = st.table.submit(tenant, backend, opts, clock);
        st.counters.submitted += 1;
        Ok(SessionId(id))
    }

    /// Reports a session's current status. A finished session stays
    /// pollable for [`crate::FINISHED_GRACE_ROUNDS`] scheduling rounds,
    /// then answers [`ServeError::SessionExpired`].
    pub fn poll(&self, session: SessionId) -> Result<SessionStatus, ServeError> {
        let st = self.lock();
        Ok(match st.table.get(session.0)?.state() {
            RecState::Queued => SessionStatus::Queued,
            RecState::Running => SessionStatus::Running,
            RecState::Paged(paged) => SessionStatus::Paged(PageInfo {
                results: Arc::clone(&paged.results),
                charged: paged.charged,
                token: PageToken {
                    session,
                    seq: paged.seq,
                },
            }),
            RecState::Done(result) => SessionStatus::Done(result.clone()),
        })
    }

    /// Resumes a paged session's paused cursor for one more page.
    ///
    /// `token` must be the continuation from the session's latest
    /// [`SessionStatus::Paged`] report ([`ServeError::InvalidContinuation`]
    /// otherwise; [`ServeError::SessionExpired`] once the session has
    /// finished and outlived its grace window). The resume re-checks the
    /// cursor's pinned statistics version: if a maintained write or index
    /// rebuild moved the backend on, the session fails terminally and
    /// [`ServeError::StaleContinuation`] is returned — the parked scan
    /// positions describe data that no longer exists.
    ///
    /// The page is billed exactly its consumed ledger delta; the
    /// accumulated charge is billed to the tenant when the session
    /// reaches a terminal state. Returns the session's new status (parked
    /// again, or done).
    pub fn next_page(&self, token: PageToken) -> Result<SessionStatus, ServeError> {
        let id = token.session.0;
        // Take the parked cursor out under the lock.
        let (paged, policy, k, page_size, backend) = {
            let mut st = self.lock();
            let (paged, record) = st.table.take_parked(id, Some(token.seq))?;
            let page_size = record.opts.page_size.unwrap_or(record.opts.k).max(1);
            let (k, backend) = (record.opts.k, record.backend.0);
            (paged, record.stop_policy(), k, page_size, backend)
        };
        let PagedSession {
            state,
            fork,
            results,
            mut charged,
            seq,
        } = paged;
        let page = page_size.min(k.saturating_sub(results.len())).max(1);

        // Resume and pull off-lock; the version check happens inside the
        // executor's resume.
        let meter = QueryMeter::start(fork.engine().cluster().metrics());
        let mut cursor = match fork.resume_cursor(state) {
            Ok(cursor) => cursor,
            Err(e) => {
                // The resume failed: the session ends, billed the pages
                // already served.
                let (message, error) = match e {
                    RankJoinError::StaleCursor { expected, found } => (
                        "stale continuation: backend data changed".to_owned(),
                        ServeError::StaleContinuation { expected, found },
                    ),
                    e => (e.to_string(), ServeError::Core(e)),
                };
                let mut st = self.lock();
                let clock = st.clock;
                let failed = SessFinal {
                    id,
                    outcome: SessionOutcome::Failed(message),
                    results,
                    charged,
                    served_by: ServedBy::Execution,
                };
                Self::finalize(&mut st, failed, clock)?;
                return Err(error);
            }
        };
        let pulled = cursor.next_batch(page, &policy);
        let delta = meter.finish();

        // Apply under the lock.
        let mut st = self.lock();
        st.clock += delta.sim_seconds;
        st.counters.pages_served += 1;
        let clock = st.clock;
        charged += delta;
        let (outcome, results) = match pulled {
            Err(e) => (Some(SessionOutcome::Failed(e.to_string())), results),
            Ok(batch) => {
                // The page is pushed onto the parked rows in place; they
                // are copied only while a client still holds an earlier
                // page's `PageInfo`.
                let mut all = results;
                Arc::make_mut(&mut all).extend(batch.results);
                let outcome = page_outcome(batch.stopped, batch.done || all.len() >= k);
                (outcome, all)
            }
        };
        match outcome {
            None => st.table.park(
                id,
                PagedSession {
                    state: cursor.pause(),
                    fork,
                    results,
                    charged,
                    seq: seq + 1,
                },
            )?,
            Some(outcome) => {
                if outcome == SessionOutcome::Complete {
                    // The paged session's final descent state is donated
                    // like any completed execution's; its answer is not.
                    let state = cursor.pause();
                    let backend = &mut st.backends[backend];
                    let current = backend.stats.version();
                    let pinned = state.pinned_version();
                    backend.work.offer(current, pinned, None, donation(state));
                }
                let final_ = SessFinal {
                    id,
                    outcome,
                    results,
                    charged,
                    served_by: ServedBy::Execution,
                };
                Self::finalize(&mut st, final_, clock)?;
            }
        }
        drop(st);
        self.poll(token.session)
    }

    /// Cancels a session. A still-queued session terminates immediately
    /// with zero charge; a running one stops at its next batch boundary
    /// (its result then reports [`SessionOutcome::Cancelled`] and the
    /// consumed prefix's charge); a parked paged session terminates
    /// immediately, billed the pages already served. Cancelling a
    /// finished session is a no-op, and
    /// [`ServeError::SessionExpired`] once its record has been dropped.
    pub fn cancel(&self, session: SessionId) -> Result<(), ServeError> {
        let id = session.0;
        let mut st = self.lock();
        let clock = st.clock;
        let record = st.table.get(id)?;
        record.token.cancel();
        let final_ = match record.state() {
            RecState::Running | RecState::Done(_) => return Ok(()),
            RecState::Queued => cancelled_unserved(id),
            RecState::Paged(_) => {
                let (paged, _) = st.table.take_parked(id, None)?;
                SessFinal {
                    id,
                    outcome: SessionOutcome::Cancelled,
                    results: paged.results,
                    charged: paged.charged,
                    served_by: ServedBy::Execution,
                }
            }
        };
        Self::finalize(&mut st, final_, clock)
    }

    /// Queues a background rebuild of the backend's ISL index. It runs on
    /// the pool after the next round's query groups, and (via
    /// the re-preparation's statistics invalidation) coherently
    /// invalidates the backend's prefix cache and every sharer's plans.
    pub fn schedule_rebuild(&self, backend: BackendId) -> Result<(), ServeError> {
        let mut st = self.lock();
        if backend.0 >= st.backends.len() {
            return Err(ServeError::UnknownBackend);
        }
        st.maintenance.push_back(backend.0);
        Ok(())
    }

    /// The service's simulated clock (seconds).
    pub fn clock(&self) -> f64 {
        self.lock().clock
    }

    /// Snapshot of the service counters.
    pub fn counters(&self) -> ServeCounters {
        self.lock().counters.clone()
    }

    /// Everything this tenant's executions charged, read from its
    /// per-backend fork ledgers (the metering ground truth).
    pub fn tenant_usage(&self, tenant: TenantId) -> Result<MetricsSnapshot, ServeError> {
        let st = self.lock();
        if tenant.0 >= st.tenants.len() {
            return Err(ServeError::UnknownTenant);
        }
        let mut total = MetricsSnapshot::default();
        for backend in &st.backends {
            if let Some(fork) = backend.forks.get(&tenant) {
                total += fork.engine().cluster().metrics().snapshot();
            }
        }
        Ok(total)
    }

    /// Sum of every tenant's fork ledgers — the cluster-side total of
    /// metered serving work.
    pub fn total_usage(&self) -> MetricsSnapshot {
        let st = self.lock();
        let mut total = MetricsSnapshot::default();
        for backend in &st.backends {
            for fork in backend.forks.values() {
                total += fork.engine().cluster().metrics().snapshot();
            }
        }
        total
    }

    /// Sum of the charges billed to this tenant's finished sessions.
    /// Conservation: equals [`RankJoinService::tenant_usage`] once no
    /// session of the tenant is in flight.
    pub fn tenant_charged(&self, tenant: TenantId) -> Result<MetricsSnapshot, ServeError> {
        let st = self.lock();
        st.tenants
            .get(tenant.0)
            .map(|t| t.charged)
            .ok_or(ServeError::UnknownTenant)
    }

    /// The backend's cached warm-start donor as `(consumed depth, pinned
    /// statistics version)`, `None` while nothing is cached. Kept for
    /// tests: the serving tests check with it that a run left the donor
    /// alone.
    pub fn warm_donor(&self, backend: BackendId) -> Result<Option<(u64, u64)>, ServeError> {
        let st = self.lock();
        let backend = st
            .backends
            .get(backend.0)
            .ok_or(ServeError::UnknownBackend)?;
        Ok(backend.work.donor_depth())
    }

    /// Sum of the charges billed across all finished sessions —
    /// conservation partner of [`RankJoinService::total_usage`].
    pub fn charged_total(&self) -> MetricsSnapshot {
        self.lock().charged_total
    }

    /// Runs scheduling rounds until no session is queued and no
    /// maintenance is pending (parked paged sessions do not count — they
    /// wait on their client's `next_page`). Terminates: every round
    /// finalizes its group leaders, so pending work strictly shrinks.
    pub fn run_until_idle(&self) -> Result<Vec<RoundReport>, ServeError> {
        let mut reports = Vec::new();
        loop {
            {
                let st = self.lock();
                if !st.table.has_queued() && st.maintenance.is_empty() {
                    return Ok(reports);
                }
            }
            reports.push(self.run_round()?);
        }
    }

    /// Runs one scheduling round. See the module docs for the phases.
    pub fn run_round(&self) -> Result<RoundReport, ServeError> {
        let mut report = RoundReport::default();

        // Phase 1 (locked): drop the finished sessions whose grace window
        // closed, enqueue staleness-driven rebuilds, serve cache hits,
        // select, plan groups.
        let (groups, maintenance) = {
            let mut st = self.lock();
            st.counters.rounds += 1;
            let round = st.counters.rounds;
            st.counters.reaped += st.table.reap(round);
            Self::enqueue_stale_rebuilds(&mut st);
            if self.config.sharing {
                report.completed += Self::serve_cache_hits(&mut st)?;
            }
            let picked = Self::pick_round(&st, self.config.round_width);
            report.dispatched = picked.len();
            let groups = Self::plan_groups(&mut st, &picked, self.config.sharing)?;
            let pending: Vec<usize> = st.maintenance.drain(..).collect();
            let maintenance: Vec<(usize, Arc<Mutex<RankJoinExecutor>>)> = pending
                .into_iter()
                .map(|b| (b, Arc::clone(&st.backends[b].prototype)))
                .collect();
            (groups, maintenance)
        };

        // Phase 2 (unlocked): query groups, then index rebuilds, each
        // batch fanned out on the pool. The pool parallelizes across groups;
        // sessions within a group run sequentially on their forks so
        // per-session ledger deltas never interleave. A tenant fork
        // recycles through its backend prototype's spare list (a fork
        // shares the list of the executor it was forked from), and a
        // group is one backend's, so a backend's list is touched by one
        // group at a time: what a group allocates does not depend on which
        // thread ran it, or on which tenant's fork a session landed on.
        // Backends registered from forks of one executor share its list;
        // their groups may run at once and reach it in either order.
        let outputs: Vec<GroupOutput> = self.pool.run_batch(
            groups
                .into_iter()
                .map(|group| {
                    Box::new(move || run_group(group)) as Box<dyn FnOnce() -> GroupOutput + Send>
                })
                .collect(),
        );
        report.maintenance_runs = maintenance.len();
        let maint_results: Vec<Result<(), String>> = self.pool.run_batch(
            maintenance
                .into_iter()
                .map(|(_, prototype)| {
                    Box::new(move || {
                        let mut proto = prototype.lock().expect("backend prototype poisoned");
                        rebuild(&mut proto).map_err(|e| e.to_string())
                    }) as Box<dyn FnOnce() -> Result<(), String> + Send>
                })
                .collect(),
        );

        // Phase 3 (locked): advance the clock by the round makespan and
        // apply every outcome.
        let mut st = self.lock();
        let wall = outputs.iter().map(|o| o.sim).fold(0.0, f64::max);
        st.clock += wall;
        report.sim_seconds = wall;
        let clock = st.clock;
        for output in outputs {
            st.counters.executions += output.executions;
            st.counters.coalesced += output.coalesced;
            st.counters.cuts_built += output.cuts_built;
            st.counters.warm_starts += output.warm_starts;
            st.counters.pages_served += output.pages;
            for final_ in output.finals {
                report.completed += 1;
                Self::finalize(&mut st, final_, clock)?;
            }
            for first in output.paged {
                st.table.park(
                    first.id,
                    PagedSession {
                        state: first.state,
                        fork: first.fork,
                        results: Arc::new(first.results),
                        charged: first.charged,
                        seq: 1,
                    },
                )?;
            }
            for id in output.requeue {
                report.requeued += 1;
                st.table.requeue(id)?;
            }
            let backend = &mut st.backends[output.backend];
            let current = backend.stats.version();
            backend.work.absorb(current, output.work);
        }
        for result in maint_results {
            match result {
                Ok(()) => st.counters.maintenance_runs += 1,
                Err(_) => st.counters.maintenance_failures += 1,
            }
        }
        Ok(report)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.state.lock().expect("service state poisoned")
    }

    /// Serves every queued session its backend's current answer can
    /// serve. Free work: no execution slot, no charge, completion at the
    /// current clock.
    fn serve_cache_hits(st: &mut ServiceState) -> Result<usize, ServeError> {
        let clock = st.clock;
        let ids: Vec<u64> = st.table.queued().map(|(id, _)| id).collect();
        let mut served = 0;
        for id in ids {
            let record = st.table.get(id)?;
            if record.opts.page_size.is_some() {
                // Paged sessions contract for a live cursor, not a
                // one-shot answer — they always execute.
                continue;
            }
            let k = record.opts.k;
            let backend = &mut st.backends[record.backend.0];
            let Some((results, built)) = backend.work.hit(k, backend.stats.version()) else {
                continue;
            };
            st.counters.cache_hits += 1;
            st.counters.cuts_built += u64::from(built);
            Self::finalize(
                st,
                SessFinal {
                    id,
                    outcome: SessionOutcome::Complete,
                    results,
                    charged: MetricsSnapshot::default(),
                    served_by: ServedBy::PrefixCache,
                },
                clock,
            )?;
            served += 1;
        }
        Ok(served)
    }

    /// Builds the admission candidate list and picks the round.
    fn pick_round(st: &ServiceState, width: usize) -> Vec<u64> {
        let candidates: Vec<Candidate> = st
            .table
            .queued()
            .map(|(id, s)| Candidate {
                index: id as usize,
                priority: s.opts.priority,
                tenant_pass: st.tenants[s.tenant.0].pass,
                arrival: id,
            })
            .collect();
        select_round(candidates, width)
            .into_iter()
            .map(|i| i as u64)
            .collect()
    }

    /// Enqueues a rebuild for every backend whose statistics handle is
    /// stale — the serving layer's automatic use of the
    /// maintained-statistics contract: past the bound the planner would
    /// re-collect anyway, so the index itself is rebuilt (and statistics
    /// re-collected) in the background instead of letting every query pay
    /// for drift. Nothing plans from a multi-way spec's handle, so it
    /// never collects and is never stale.
    fn enqueue_stale_rebuilds(st: &mut ServiceState) {
        for idx in 0..st.backends.len() {
            if st.backends[idx].stats.is_stale() && !st.maintenance.contains(&idx) {
                st.maintenance.push_back(idx);
                st.counters.staleness_rebuilds += 1;
            }
        }
    }

    /// Marks the picked sessions running and groups them per backend,
    /// deepest `k` first, resolving each session's (tenant, backend)
    /// execution fork. Each group starts from its backend's donor.
    fn plan_groups(
        st: &mut ServiceState,
        picked: &[u64],
        sharing: bool,
    ) -> Result<Vec<GroupPlan>, ServeError> {
        let mut by_backend: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &id in picked {
            let record = st.table.start(id)?;
            by_backend.entry(record.backend.0).or_default().push(id);
        }
        let mut groups = Vec::with_capacity(by_backend.len());
        for (backend_idx, ids) in by_backend {
            let backend = &st.backends[backend_idx];
            let work = backend.work.donor_only(backend.stats.version());
            let mut sessions = Vec::with_capacity(ids.len());
            for id in ids {
                let record = st.table.get(id)?;
                let (tenant, k, page_size) = (record.tenant, record.opts.k, record.opts.page_size);
                let policy = record.stop_policy();
                let fork = Self::fork_for(st, backend_idx, tenant)?;
                sessions.push(SessPlan {
                    id,
                    k,
                    page_size,
                    policy,
                    fork,
                });
            }
            // Deepest `k` first, arrival (= id) order among equals.
            sessions.sort_by_key(|s| (std::cmp::Reverse(s.k), s.id));
            groups.push(GroupPlan {
                backend: backend_idx,
                sessions,
                sharing,
                work,
            });
        }
        Ok(groups)
    }

    /// The lazily-created per-(tenant, backend) execution fork.
    fn fork_for(
        st: &mut ServiceState,
        backend_idx: usize,
        tenant: TenantId,
    ) -> Result<Arc<RankJoinExecutor>, ServeError> {
        if let Some(fork) = st.backends[backend_idx].forks.get(&tenant) {
            return Ok(Arc::clone(fork));
        }
        let prototype = Arc::clone(&st.backends[backend_idx].prototype);
        let proto = prototype.lock().expect("backend prototype poisoned");
        let fork = Arc::new(proto.fork_onto(&proto.engine().cluster().fork_metrics())?);
        drop(proto);
        st.backends[backend_idx]
            .forks
            .insert(tenant, Arc::clone(&fork));
        Ok(fork)
    }

    /// Applies one terminal outcome: stores the result (starting the
    /// record's grace window at the current round), bills the tenant,
    /// advances its stride pass, and bumps outcome counters. The charge
    /// is accumulated here and never read back from the record, so
    /// billing does not depend on how long the record is kept.
    fn finalize(st: &mut ServiceState, final_: SessFinal, clock: f64) -> Result<(), ServeError> {
        let SessFinal {
            id,
            outcome,
            results,
            charged,
            served_by,
        } = final_;
        let counter = match outcome {
            SessionOutcome::Complete => &mut st.counters.completed,
            SessionOutcome::Cancelled => &mut st.counters.cancelled,
            SessionOutcome::DeadlineExpired => &mut st.counters.deadline_expired,
            SessionOutcome::Failed(_) => &mut st.counters.failed,
        };
        let record = st
            .table
            .finish(id, st.counters.rounds, |record| SessionResult {
                outcome,
                results,
                charged,
                served_by,
                submitted_at: record.submitted_at,
                completed_at: clock,
            })?;
        *counter += 1;
        let tenant = &mut st.tenants[record.tenant.0];
        tenant.charged += charged;
        tenant.pass += charged.sim_seconds / tenant.profile.weight;
        st.charged_total += charged;
        Ok(())
    }
}

/// The execution-configuration half of a backend's share key: two
/// backends share work only if both the spec *and* the way it executes
/// match. The service only opens ISL, so its batch sizes are that way.
fn config_sig(exec: &RankJoinExecutor) -> String {
    format!("isl:{:?}", exec.isl_config)
}

/// Rebuilds the score index, then runs one statistics pass through the
/// handle: the rebuild invalidated the maintained snapshot, and the pass
/// restarts the staleness clock at zero, so the writes that follow are
/// measured against the rebuilt world.
fn rebuild(exec: &mut RankJoinExecutor) -> rj_core::error::Result<()> {
    exec.prepare_isl()?;
    exec.stats_handle()
        .stats_for_planning(exec.engine().cluster())
        .map(drop)
}

/// Executes one backend group on the calling pool lane. Paged sessions
/// run individually (their cursor belongs to one client) and serve their
/// first page. Sharing on: the first non-cancelled plain session (deepest
/// `k`) leads — it executes once for the whole group, warm-started when
/// the plan carries a donor, and offers its answer and paused state to
/// the group's entry — and every later session is cut from that entry;
/// if the leader stopped early the entry has no answer and they are
/// requeued (its donated state warm-starts their rerun). Sharing off:
/// every session executes itself cold, and nothing is offered.
fn run_group(plan: GroupPlan) -> GroupOutput {
    let mut out = GroupOutput {
        finals: Vec::with_capacity(plan.sessions.len()),
        requeue: Vec::new(),
        paged: Vec::new(),
        backend: plan.backend,
        sim: 0.0,
        work: plan.work,
        executions: 0,
        coalesced: 0,
        cuts_built: 0,
        warm_starts: 0,
        pages: 0,
    };
    let sessions = &plan.sessions;
    for (sess, page_size) in sessions.iter().filter_map(|s| Some((s, s.page_size?))) {
        if sess.policy.token.is_cancelled() {
            out.finals.push(cancelled_unserved(sess.id));
            continue;
        }
        execute_first_page(sess, page_size, &mut out);
    }
    let mut led = false;
    for sess in sessions.iter().filter(|s| s.page_size.is_none()) {
        if sess.policy.token.is_cancelled() {
            out.finals.push(cancelled_unserved(sess.id));
            continue;
        }
        if plan.sharing && led {
            let Some((results, built)) = out.work.hit(sess.k, out.work.version()) else {
                out.requeue.push(sess.id);
                continue;
            };
            out.coalesced += 1;
            out.cuts_built += u64::from(built);
            out.finals.push(SessFinal {
                id: sess.id,
                outcome: SessionOutcome::Complete,
                results,
                charged: MetricsSnapshot::default(),
                served_by: ServedBy::SharedExecution,
            });
            continue;
        }
        led = true;
        let version = out.work.version();
        let donor = out.work.donor(version).filter(|_| plan.sharing);
        out.warm_starts += u64::from(donor.is_some());
        let (final_, paused, version) = execute_one(sess, version, donor.map(Arc::as_ref));
        out.executions += 1;
        out.sim += final_.charged.sim_seconds;
        if plan.sharing {
            let complete = final_.outcome == SessionOutcome::Complete;
            let answer = complete.then(|| Answer::completed(sess.k, Arc::clone(&final_.results)));
            out.work
                .offer(version, version, answer, paused.and_then(donation));
        }
        out.finals.push(final_);
    }
    out
}

fn cancelled_unserved(id: u64) -> SessFinal {
    SessFinal {
        id,
        outcome: SessionOutcome::Cancelled,
        results: Arc::new(Vec::new()),
        charged: MetricsSnapshot::default(),
        served_by: ServedBy::Unserved,
    }
}

/// Runs one session's query on its own fork through the cursor stack,
/// billing it the fork's exact ledger delta. A `donor` re-targets a copy
/// of the donated state to this session's `k` — tuples the donor
/// consumed are re-joined in memory and charge nothing, so the session
/// pays only the reads beyond the donor's prefix. Returns the terminal
/// outcome, the paused state (unless the run failed), and the statistics
/// version the run read at: the cursor's pinned version, which is newer
/// than the dispatch `version` when opening the cursor ran a statistics
/// pass (or raced a write). Work is offered under that version.
fn execute_one(
    sess: &SessPlan,
    version: u64,
    donor: Option<&CursorState>,
) -> (SessFinal, Option<CursorState>, u64) {
    let fork = &sess.fork;
    let meter = QueryMeter::start(fork.engine().cluster().metrics());
    let opened = match donor {
        Some(state) => state
            .clone()
            .resume_retargeted(fork.engine().cluster(), sess.k),
        None => fork.open_cursor(Algorithm::Isl, sess.k),
    };
    let mut cursor = match opened {
        Ok(cursor) => cursor,
        Err(e) => {
            let final_ = SessFinal {
                id: sess.id,
                outcome: SessionOutcome::Failed(e.to_string()),
                results: Arc::new(Vec::new()),
                charged: meter.finish(),
                served_by: ServedBy::Execution,
            };
            return (final_, None, version);
        }
    };
    let mut results: Vec<JoinTuple> = Vec::new();
    let mut stopped: Option<StopReason> = None;
    let mut failed: Option<String> = None;
    while results.len() < sess.k {
        match cursor.next_batch(sess.k - results.len(), &sess.policy) {
            Err(e) => {
                failed = Some(e.to_string());
                break;
            }
            Ok(batch) => {
                results.extend(batch.results);
                if let Some(reason) = batch.stopped {
                    stopped = Some(reason);
                    break;
                }
                if batch.done {
                    break;
                }
            }
        }
    }
    let charged = meter.finish();
    let paused = failed.is_none().then(|| cursor.pause());
    let version = paused.as_ref().map_or(version, CursorState::pinned_version);
    let (outcome, results) = match (failed, stopped) {
        (Some(message), _) => (SessionOutcome::Failed(message), Arc::new(Vec::new())),
        (None, Some(StopReason::Cancelled)) => (SessionOutcome::Cancelled, Arc::new(results)),
        (None, Some(StopReason::DeadlineExpired)) => {
            (SessionOutcome::DeadlineExpired, Arc::new(results))
        }
        (None, None) => (SessionOutcome::Complete, Arc::new(results)),
    };
    let final_ = SessFinal {
        id: sess.id,
        outcome,
        results,
        charged,
        served_by: ServedBy::Execution,
    };
    (final_, paused, version)
}

/// A served page's terminal outcome: its stop reason, else `Complete` once
/// the session's answer is `finished`; `None` while it pages on.
fn page_outcome(stopped: Option<StopReason>, finished: bool) -> Option<SessionOutcome> {
    match stopped {
        Some(StopReason::Cancelled) => Some(SessionOutcome::Cancelled),
        Some(StopReason::DeadlineExpired) => Some(SessionOutcome::DeadlineExpired),
        None => finished.then_some(SessionOutcome::Complete),
    }
}

/// Serves a paged session's first page on its own fork: opens an
/// executor-pinned cursor (so later [`RankJoinService::next_page`]
/// resumes get the stale-continuation check), pulls one page, and either
/// finalizes (stopped / already done) or parks the paused state into
/// `out.paged`.
fn execute_first_page(sess: &SessPlan, page_size: usize, out: &mut GroupOutput) {
    let fork = &sess.fork;
    let page = page_size.min(sess.k).max(1);
    let meter = QueryMeter::start(fork.engine().cluster().metrics());
    let fail = |charged: MetricsSnapshot, message: String, out: &mut GroupOutput| {
        out.finals.push(SessFinal {
            id: sess.id,
            outcome: SessionOutcome::Failed(message),
            results: Arc::new(Vec::new()),
            charged,
            served_by: ServedBy::Execution,
        });
    };
    let mut cursor = match fork.open_cursor(Algorithm::Isl, sess.k) {
        Ok(cursor) => cursor,
        Err(e) => {
            let charged = meter.finish();
            out.executions += 1;
            out.sim += charged.sim_seconds;
            fail(charged, e.to_string(), out);
            return;
        }
    };
    let pulled = cursor.next_batch(page, &sess.policy);
    let charged = meter.finish();
    out.executions += 1;
    out.sim += charged.sim_seconds;
    match pulled {
        Err(e) => fail(charged, e.to_string(), out),
        Ok(batch) => {
            out.pages += 1;
            let finished = batch.done || batch.results.len() >= sess.k;
            match page_outcome(batch.stopped, finished) {
                Some(outcome) => out.finals.push(SessFinal {
                    id: sess.id,
                    outcome,
                    results: Arc::new(batch.results),
                    charged,
                    served_by: ServedBy::Execution,
                }),
                None => out.paged.push(PagedFirst {
                    id: sess.id,
                    state: cursor.pause(),
                    fork: Arc::clone(fork),
                    results: batch.results,
                    charged,
                }),
            }
        }
    }
}
