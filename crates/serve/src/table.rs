//! The session table: every session record the service still holds, and
//! the two indices that let a scheduling round find its work without
//! walking them.
//!
//! A session moves through
//!
//! ```text
//! queued → running → [paged ⇄ running] → done → expired
//! ```
//!
//! and the methods of [`SessionTable`] are the only code that moves it: a
//! record's state is private to this module. Each transition checks the
//! state it starts from — one asked for out of order is refused with
//! [`ServeError::InvalidTransition`] and changes nothing — and keeps the
//! indices exact:
//!
//! * the **queued index** — the ids in `Queued`, ascending, with the
//!   per-tenant counts admission bounds. Ids are handed out in submit
//!   order, so ascending id is arrival order; "is anything queued?", the
//!   prefix-cache sweep and the admission candidates all read this index
//!   and cost O(queued), however many sessions the service has served;
//! * the **finished queue** — `(round finished, id)` of every record in
//!   `Done`, pushed by [`SessionTable::finish`] and therefore already in
//!   round order. [`SessionTable::reap`] pops from its front the records
//!   whose grace window ([`FINISHED_GRACE_ROUNDS`]) has passed: O(reaped),
//!   no walk, no thread — the shape `rj_store` gives tombstones.
//!
//! `done → expired` is the only step that removes a record, so a queued,
//! running or parked session is never dropped. After it the id answers
//! [`ServeError::SessionExpired`]: ids are never reused, so an absent id
//! below the next one to hand out was submitted, finished and reaped, and
//! any other was never submitted here ([`ServeError::UnknownSession`]).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use rj_core::cancel::{CancelToken, StopPolicy};
use rj_core::cursor::CursorState;
use rj_core::executor::RankJoinExecutor;
use rj_core::result::JoinTuple;
use rj_store::metrics::MetricsSnapshot;

use crate::error::ServeError;
use crate::service::BackendId;
use crate::session::{SessionResult, SubmitOptions};
use crate::tenant::TenantId;

/// How many scheduling rounds a finished session's record (its outcome,
/// result rows and billing record) stays pollable: it is dropped at the
/// top of the first round more than this many rounds after the one it
/// finished in, and its id answers [`ServeError::SessionExpired`] from
/// then on.
///
/// The window is measured in rounds because a round is the service's own
/// unit of progress. The simulated clock only moves when a round
/// executes, and on a cache-friendly workload almost none do (99.9 % of
/// the `serve_shared` benchmark's rounds execute nothing), so a window in
/// simulated seconds would hardly ever close. A cap on the number of
/// finished records would close too early: one round can finish `tenants
/// × max_queue_per_tenant` prefix-cache hits at once, and a count would
/// evict some of them before any client had a chance to poll.
///
/// 256 rounds keeps a client that polls once per round of its own far
/// inside the window, while the records retained under steady load are
/// bounded by 256 rounds' worth of sessions instead of every session ever
/// served (the benchmark's peak heap with the window at 64 / 256 / 1 024
/// rounds: 89 / 94 / 110 MB, against 172 MB without reaping). A constant,
/// not a [`crate::ServeConfig`] field: no caller has needed another value.
pub const FINISHED_GRACE_ROUNDS: u64 = 256;

/// A paged session parked between pages: the paused cursor plus
/// everything accumulated so far.
pub(crate) struct PagedSession {
    /// The paused execution (stats-version pinned at open).
    pub state: CursorState,
    /// The session's execution fork — `next_page` resumes here.
    pub fork: Arc<RankJoinExecutor>,
    /// All results certified so far, rank order, across pages.
    pub results: Arc<Vec<JoinTuple>>,
    /// Total charge across the pages served so far (billed to the tenant
    /// at the terminal state).
    pub charged: MetricsSnapshot,
    /// Pages served; the continuation token must match.
    pub seq: u64,
}

/// Where a session is in its lifecycle (see the module docs).
pub(crate) enum RecState {
    Queued,
    Running,
    Paged(PagedSession),
    Done(SessionResult),
}

impl RecState {
    fn name(&self) -> &'static str {
        match self {
            RecState::Queued => "queued",
            RecState::Running => "running",
            RecState::Paged(_) => "paged",
            RecState::Done(_) => "done",
        }
    }
}

/// One session the service still holds.
pub(crate) struct SessionRecord {
    pub tenant: TenantId,
    pub backend: BackendId,
    pub opts: SubmitOptions,
    pub token: CancelToken,
    pub submitted_at: f64,
    /// Written by [`SessionTable`]'s transitions only.
    state: RecState,
}

impl SessionRecord {
    pub fn state(&self) -> &RecState {
        &self.state
    }

    /// How an execution of this session is told to stop: its cancel
    /// token and the limits it was submitted with.
    pub fn stop_policy(&self) -> StopPolicy {
        StopPolicy {
            token: self.token.clone(),
            deadline_sim_seconds: self.opts.deadline_sim_seconds,
            cancel_after_batches: self.opts.cancel_after_batches,
        }
    }
}

/// See the module docs.
#[derive(Default)]
pub(crate) struct SessionTable {
    records: HashMap<u64, SessionRecord>,
    /// Ids of the records in `Queued`, ascending (= arrival order).
    queued: BTreeSet<u64>,
    /// Queued sessions per tenant index.
    tenant_queued: Vec<usize>,
    /// `(round finished, id)` of every record in `Done`, oldest first.
    finished: VecDeque<(u64, u64)>,
    /// The next id to hand out; every id below it was submitted.
    next_session: u64,
}

/// Why `id` has no record (see the module docs).
fn absent(id: u64, next_session: u64) -> ServeError {
    if id < next_session {
        ServeError::SessionExpired
    } else {
        ServeError::UnknownSession
    }
}

/// The record a transition is about to move. Borrows the record map
/// alone, so the transition can update the indices beside it.
fn record_mut(
    records: &mut HashMap<u64, SessionRecord>,
    next_session: u64,
    id: u64,
) -> Result<&mut SessionRecord, ServeError> {
    records.get_mut(&id).ok_or(absent(id, next_session))
}

fn refused(step: &'static str, found: &RecState) -> ServeError {
    ServeError::InvalidTransition {
        step,
        found: found.name(),
    }
}

impl SessionTable {
    /// The record of `id`, or why there is none.
    pub fn get(&self, id: u64) -> Result<&SessionRecord, ServeError> {
        self.records.get(&id).ok_or(absent(id, self.next_session))
    }

    /// Whether any session is waiting for admission.
    pub fn has_queued(&self) -> bool {
        !self.queued.is_empty()
    }

    /// The queued sessions in arrival order.
    pub fn queued(&self) -> impl Iterator<Item = (u64, &SessionRecord)> {
        self.queued
            .iter()
            .filter_map(|id| Some((*id, self.records.get(id)?)))
    }

    /// How many of `tenant`'s sessions are queued — what admission bounds.
    pub fn queued_for(&self, tenant: TenantId) -> usize {
        self.tenant_queued.get(tenant.0).copied().unwrap_or(0)
    }

    /// Admits a new session into `Queued` and returns its id.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        backend: BackendId,
        opts: SubmitOptions,
        clock: f64,
    ) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.records.insert(
            id,
            SessionRecord {
                tenant,
                backend,
                opts,
                token: CancelToken::new(),
                submitted_at: clock,
                state: RecState::Queued,
            },
        );
        if self.tenant_queued.len() <= tenant.0 {
            self.tenant_queued.resize(tenant.0 + 1, 0);
        }
        self.tenant_queued[tenant.0] += 1;
        self.queued.insert(id);
        id
    }

    /// `Queued → Running`: a round picked the session.
    pub fn start(&mut self, id: u64) -> Result<&SessionRecord, ServeError> {
        let record = record_mut(&mut self.records, self.next_session, id)?;
        match record.state {
            RecState::Queued => record.state = RecState::Running,
            ref other => return Err(refused("start", other)),
        }
        self.queued.remove(&id);
        self.tenant_queued[record.tenant.0] -= 1;
        Ok(record)
    }

    /// `Running → Queued`: the execution the session coalesced onto
    /// stopped early.
    pub fn requeue(&mut self, id: u64) -> Result<(), ServeError> {
        let record = record_mut(&mut self.records, self.next_session, id)?;
        match record.state {
            RecState::Running => record.state = RecState::Queued,
            ref other => return Err(refused("requeue", other)),
        }
        self.queued.insert(id);
        self.tenant_queued[record.tenant.0] += 1;
        Ok(())
    }

    /// `Running → Paged`: a page was served and the cursor parks.
    pub fn park(&mut self, id: u64, paged: PagedSession) -> Result<(), ServeError> {
        let record = record_mut(&mut self.records, self.next_session, id)?;
        match record.state {
            RecState::Running => record.state = RecState::Paged(paged),
            ref other => return Err(refused("park", other)),
        }
        Ok(())
    }

    /// `Paged → Running`: hands the parked cursor out, to be resumed for
    /// another page or cancelled. With `seq` given the session must be
    /// parked at exactly that page boundary. Anything else — not paged,
    /// already terminal, an earlier page's token — is
    /// [`ServeError::InvalidContinuation`].
    pub fn take_parked(
        &mut self,
        id: u64,
        seq: Option<u64>,
    ) -> Result<(PagedSession, &SessionRecord), ServeError> {
        let record = record_mut(&mut self.records, self.next_session, id)?;
        let current = matches!(&record.state, RecState::Paged(p) if seq.is_none_or(|s| s == p.seq));
        if !current {
            return Err(ServeError::InvalidContinuation);
        }
        match std::mem::replace(&mut record.state, RecState::Running) {
            RecState::Paged(paged) => Ok((paged, record)),
            _ => unreachable!("checked above"),
        }
    }

    /// `Queued | Running → Done`, in scheduling round `round`: stores the
    /// result `done` builds from the record and starts the record's grace
    /// window. `round` must not run backwards between calls — it is the
    /// service's round counter — which is what keeps the finished queue
    /// ordered without sorting.
    pub fn finish(
        &mut self,
        id: u64,
        round: u64,
        done: impl FnOnce(&SessionRecord) -> SessionResult,
    ) -> Result<&SessionRecord, ServeError> {
        let record = record_mut(&mut self.records, self.next_session, id)?;
        match record.state {
            RecState::Queued => {
                self.queued.remove(&id);
                self.tenant_queued[record.tenant.0] -= 1;
            }
            RecState::Running => {}
            ref other => return Err(refused("finish", other)),
        }
        record.state = RecState::Done(done(record));
        self.finished.push_back((round, id));
        Ok(record)
    }

    /// `Done → expired`: drops every record that finished more than
    /// [`FINISHED_GRACE_ROUNDS`] rounds before `round`; returns how many.
    pub fn reap(&mut self, round: u64) -> u64 {
        let mut reaped = 0;
        while let Some(&(finished, id)) = self.finished.front() {
            if finished + FINISHED_GRACE_ROUNDS >= round {
                break;
            }
            self.finished.pop_front();
            reaped += u64::from(self.records.remove(&id).is_some());
        }
        reaped
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rj_core::query::{JoinSide, RankJoinQuery};
    use rj_core::score::ScoreFn;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;

    use super::*;
    use crate::session::{ServedBy, SessionOutcome};

    /// A parked cursor over a four-row join — what `park` is handed.
    fn parked_cursor() -> (CursorState, Arc<RankJoinExecutor>) {
        let cluster = Cluster::new(1, CostModel::test());
        for table in ["l", "r"] {
            cluster.create_table(table, &["d"]).unwrap();
            for i in 0..4u8 {
                let score = f64::from(i + 1) / 8.0;
                cluster
                    .client()
                    .mutate_row(
                        table,
                        &[b'k', i],
                        vec![
                            rj_store::cell::Mutation::put("d", b"jk", vec![b'a' + i % 2]),
                            rj_store::cell::Mutation::put(
                                "d",
                                b"score",
                                score.to_be_bytes().to_vec(),
                            ),
                        ],
                    )
                    .unwrap();
            }
        }
        let query = RankJoinQuery::new(
            JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
            4,
            ScoreFn::Sum,
        );
        let mut executor = RankJoinExecutor::new(&cluster, query);
        executor.prepare_isl().unwrap();
        let state = executor
            .open_cursor(rj_core::executor::Algorithm::Isl, 4)
            .unwrap()
            .pause();
        (state, Arc::new(executor))
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Model {
        Queued,
        Running,
        Paged(u64),
        Done(u64),
    }

    impl Model {
        fn name(self) -> &'static str {
            match self {
                Model::Queued => "queued",
                Model::Running => "running",
                Model::Paged(_) => "paged",
                Model::Done(_) => "done",
            }
        }
    }

    fn done(record: &SessionRecord) -> SessionResult {
        SessionResult {
            outcome: SessionOutcome::Complete,
            results: Arc::new(Vec::new()),
            charged: MetricsSnapshot::default(),
            served_by: ServedBy::Execution,
            submitted_at: record.submitted_at,
            completed_at: record.submitted_at,
        }
    }

    /// `Ok`, or the refusal's `Debug` form (`ServeError` has no
    /// `PartialEq`).
    fn verdict<T>(result: Result<T, ServeError>) -> Result<(), String> {
        result.map(drop).map_err(|e| format!("{e:?}"))
    }

    /// The table's indices against the model's states.
    fn check(
        table: &SessionTable,
        model: &BTreeMap<u64, (usize, Model)>,
    ) -> Result<(), TestCaseError> {
        let held: Vec<(u64, &str)> = model.iter().map(|(id, (_, s))| (*id, s.name())).collect();
        let mut records: Vec<(u64, &str)> = table
            .records
            .iter()
            .map(|(id, r)| (*id, r.state.name()))
            .collect();
        records.sort_unstable();
        prop_assert_eq!(records, held);
        let queued: Vec<u64> = table.queued().map(|(id, _)| id).collect();
        let want: Vec<u64> = model
            .iter()
            .filter(|(_, (_, s))| *s == Model::Queued)
            .map(|(id, _)| *id)
            .collect();
        prop_assert_eq!(&queued, &want);
        prop_assert_eq!(table.has_queued(), !want.is_empty());
        for tenant in 0..4 {
            let recount = model
                .values()
                .filter(|(t, s)| *t == tenant && *s == Model::Queued)
                .count();
            prop_assert_eq!(table.queued_for(TenantId(tenant)), recount);
        }
        prop_assert!(table
            .finished
            .iter()
            .zip(table.finished.iter().skip(1))
            .all(|(a, b)| a.0 <= b.0));
        let mut finished: Vec<u64> = table.finished.iter().map(|(_, id)| *id).collect();
        finished.sort_unstable();
        let want: Vec<u64> = model
            .iter()
            .filter(|(_, (_, s))| matches!(s, Model::Done(_)))
            .map(|(id, _)| *id)
            .collect();
        prop_assert_eq!(finished, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Any interleaving of the table's operations, legal or not, on
        /// ids that are live, reaped or never handed out: each call's
        /// verdict is the one a plain state-per-id model predicts (a
        /// refused call changes nothing), and after every step the queued
        /// index is exactly the `Queued` records in id order, the
        /// per-tenant counts equal a recount, the finished queue is in
        /// round order, and the records held are the model's — so nothing
        /// but a `Done` record past its window was ever dropped.
        #[test]
        fn table_matches_a_state_per_id_model(ops in prop::collection::vec(
            (0u8..8, 0u16..1000, 0usize..3, 0u8..50), 1..250)) {
            let (cursor, fork) = parked_cursor();
            let paged = |seq| PagedSession {
                state: cursor.clone(),
                fork: Arc::clone(&fork),
                results: Arc::new(Vec::new()),
                charged: MetricsSnapshot::default(),
                seq,
            };
            let mut table = SessionTable::default();
            let mut model: BTreeMap<u64, (usize, Model)> = BTreeMap::new();
            let (mut next, mut round) = (0u64, 0u64);

            for (op, pick, tenant, step) in ops {
                // Mostly a submitted id; now and then one past the end.
                let id = u64::from(pick) % (next + 2);
                let held = model.get(&id).map(|(_, s)| *s);
                // What the model says of a transition to `to` that is
                // `legal` from the held state, refused with `refusal`
                // otherwise.
                let expect = |legal: bool, to: Model, refusal: &str| match held {
                    None if id < next => Err("SessionExpired".to_owned()),
                    None => Err("UnknownSession".to_owned()),
                    Some(_) if legal => Ok(to),
                    Some(_) if refusal.is_empty() => Err("InvalidContinuation".to_owned()),
                    Some(from) => Err(format!(
                        "InvalidTransition {{ step: {refusal:?}, found: {:?} }}",
                        from.name()
                    )),
                };
                let (got, want) = match op {
                    0 => {
                        let opts = SubmitOptions::topk(1);
                        prop_assert_eq!(table.submit(TenantId(tenant), BackendId(0), opts, 0.0), next);
                        model.insert(next, (tenant, Model::Queued));
                        next += 1;
                        (Ok(()), Ok(Model::Queued))
                    }
                    1 => (
                        verdict(table.start(id)),
                        expect(held == Some(Model::Queued), Model::Running, "start"),
                    ),
                    2 => (
                        verdict(table.requeue(id)),
                        expect(held == Some(Model::Running), Model::Queued, "requeue"),
                    ),
                    3 => {
                        let seq = u64::from(step);
                        (
                            verdict(table.park(id, paged(seq))),
                            expect(held == Some(Model::Running), Model::Paged(seq), "park"),
                        )
                    }
                    4 => {
                        // The right page boundary, a wrong one, or (what
                        // `cancel` asks for) whichever it is parked at.
                        let seq = match (step % 3, held) {
                            (0, Some(Model::Paged(at))) => Some(at),
                            (0 | 1, _) => Some(u64::from(step) + 50),
                            _ => None,
                        };
                        let current =
                            matches!(held, Some(Model::Paged(at)) if seq.is_none_or(|s| s == at));
                        (
                            verdict(table.take_parked(id, seq)),
                            expect(current, Model::Running, ""),
                        )
                    }
                    5 | 6 => (
                        verdict(table.finish(id, round, done)),
                        expect(
                            matches!(held, Some(Model::Queued | Model::Running)),
                            Model::Done(round),
                            "finish",
                        ),
                    ),
                    _ => {
                        // Mostly the next round; one step in eight jumps
                        // to just inside, onto, or just past the end of a
                        // grace window that starts now.
                        round += match step {
                            0..6 => FINISHED_GRACE_ROUNDS - 1 + u64::from(step % 3),
                            _ => 1,
                        };
                        let before = model.len();
                        model.retain(|_, (_, s)| {
                            !matches!(s, Model::Done(at) if *at + FINISHED_GRACE_ROUNDS < round)
                        });
                        prop_assert_eq!(table.reap(round), (before - model.len()) as u64);
                        check(&table, &model)?;
                        continue;
                    }
                };
                prop_assert_eq!(&got, &want.clone().map(drop), "op {} on {:?}", op, held);
                if let (1..=6, Ok(to)) = (op, want) {
                    model.get_mut(&id).unwrap().1 = to;
                }

                check(&table, &model)?;
            }
        }
    }
}
