//! Pull-based ranked-enumeration cursors over the rank-join drivers.
//!
//! The paper's algorithms are written as run-to-completion top-k calls,
//! but a serving layer wants the *any-k* shape from the ranked-enumeration
//! literature (Tziavelis et al.): results pulled in rank order a page at a
//! time, execution suspended between pulls, and the suspended state cheap
//! to park, migrate, and resume. This module defines that surface:
//!
//! * [`RankedCursor`] — the pull interface: [`RankedCursor::next_batch`]
//!   produces the next `n` results in the *same* deterministic rank order
//!   as the one-shot run ([`crate::result::JoinTuple::rank_cmp`]), and
//!   [`RankedCursor::pause`] detaches a [`CursorState`] that resumes on
//!   any cluster handle sharing the same data.
//! * [`CursorState`] — the detached state: plain owned data (scan
//!   positions, the operators' seen-tuple stores, partial accumulators),
//!   serializable in principle, pinned to the statistics version it was
//!   opened under.
//! * `StepCursor` — the one cursor over the three incremental
//!   algorithms. Each is a step machine behind the crate-private `Step`
//!   trait: ISL's batched descent (`IslCore`, here; any number of sides —
//!   at three or more, the multiway rank join, each batch from the side
//!   that sets the threshold, a side optionally bulk-ingested up front,
//!   [`SideAccess`]), BFHM's §5.3 guarantee loop (`BfhmCore`, in
//!   [`crate::bfhm`]) and DRJN's rounds (`DrjnCore`, in [`crate::drjn`]).
//!   Its one `next_batch` is the one pump: it pages, meters every pull
//!   with one [`rj_store::QueryMeter`] and stops at the algorithm's own
//!   boundary unit (an ISL batch, a BFHM step, a DRJN round). A one-shot
//!   run of any of the three is this cursor drained in one pull.
//! * [`MaterializedCursor`] — the bulk MapReduce algorithms (Hive, Pig,
//!   IJLMR) as cursors: the one-shot run executes on the first pull (MR
//!   jobs are not incremental — all reads are charged then, exactly the
//!   one-shot amount) and later pulls page from the buffer for free. It
//!   is also every algorithm's `k = 0` cursor, empty from the start.
//!
//! [`crate::executor::RankJoinExecutor`] has the uniform entry points
//! (`execute_with_k` / `open_cursor` / `resume_cursor`); it is the only
//! door to a run.
//!
//! # The equivalence contract
//!
//! For every algorithm, **any** schedule of `next_batch` / `pause` /
//! resume calls (any page sizes, any resume cluster) emits the one-shot
//! run's result sequence exactly, and draining the cursor charges exactly
//! the one-shot run's counted metrics (KV reads, bytes, RPCs). A prefix
//! consumption charges only what the prefix needed. This holds because a
//! cursor only ever emits *certified* results — results provably in their
//! final rank position:
//!
//! * ISL (any number of sides) emits a buffered result only while its
//!   score is **strictly** above the HRJN threshold (every future tuple
//!   scores ≤ threshold, so nothing can be inserted at or before an
//!   emitted rank — even a tie at the threshold stays un-emitted until
//!   the run completes, because a late tie with a smaller key would sort
//!   *before* it);
//! * BFHM emits only results strictly above its threat bound, DRJN only
//!   results strictly above the unpulled-score bound — the same strict
//!   rule against each algorithm's "anything still out there" bound;
//! * a drained cursor (threshold crossed or inputs exhausted) emits
//!   everything, matching the one-shot answer.

use std::ops::Range;
use std::sync::Arc;

use rj_mapreduce::MapReduceEngine;
use rj_store::cell::Cell;
use rj_store::client::{Client, ScannerState};
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::metrics::{MetricsSnapshot, QueryMeter};
use rj_store::row::{RowBatch, RowRef, RowResult};
use rj_store::scan::Scan;

use crate::cancel::{StopPolicy, StopReason};
use crate::codec;
use crate::error::{RankJoinError, Result};
use crate::hrjn::HrjnState;
use crate::query::{JoinSpec, RankJoinQuery};
use crate::result::JoinTuple;
use crate::spare::Spares;
use crate::stats::{Extras, QueryOutcome};

/// Evaluates a [`StopPolicy`] at a cursor step boundary. `charged_sim` is
/// the cursor's *cumulative* simulated-seconds charge (all calls since
/// open), so a deadline bounds the whole query, not one page. The
/// batch-count hook trips the token and stops by itself, so it stops a
/// policy whose token has no flag too.
pub(crate) fn policy_stop(
    policy: &StopPolicy,
    batches: u64,
    charged_sim: f64,
) -> Option<StopReason> {
    let tripped = policy
        .cancel_after_batches
        .is_some_and(|trip_at| batches >= trip_at);
    if tripped {
        policy.token.cancel();
    }
    if tripped || policy.token.is_cancelled() {
        return Some(StopReason::Cancelled);
    }
    if let Some(budget) = policy.deadline_sim_seconds {
        if charged_sim >= budget {
            return Some(StopReason::DeadlineExpired);
        }
    }
    None
}

/// One page of results pulled from a [`RankedCursor`].
#[derive(Clone, Debug)]
pub struct CursorBatch {
    /// The next results in rank order — the one-shot answer's rows
    /// `emitted .. emitted + results.len()`. May be shorter than the `n`
    /// asked for when the cursor drained or a stop condition fired.
    pub results: Vec<JoinTuple>,
    /// The cursor is fully drained: every result of the one-shot run has
    /// been emitted. Further pulls return empty batches.
    pub done: bool,
    /// A [`StopPolicy`] condition fired at a step boundary; the cursor
    /// stopped early but remains valid — pause it or keep pulling.
    pub stopped: Option<StopReason>,
    /// Exactly what *this call* charged to the executing cluster's ledger
    /// (the consumed delta a metering layer bills for this page).
    pub metrics: MetricsSnapshot,
}

/// A pausable, resumable rank-join execution: results are pulled in rank
/// order a batch at a time, and the execution can be suspended into a
/// [`CursorState`] between pulls. See the module docs for the
/// equivalence contract every implementation satisfies.
pub trait RankedCursor: Send {
    /// Pulls up to `n` further results, stopping early if `policy` fires
    /// at a step boundary. Results already buffered are served without
    /// new reads; otherwise the underlying descent advances just far
    /// enough to certify `n` more ranks.
    fn next_batch(&mut self, n: usize, policy: &StopPolicy) -> Result<CursorBatch>;

    /// Detaches the execution into a plain-data [`CursorState`].
    fn pause(self: Box<Self>) -> CursorState;

    /// Results emitted so far (across all `next_batch` calls and resumes).
    fn emitted(&self) -> usize;

    /// How deep the underlying descent has consumed its inputs — an
    /// algorithm-specific monotone progress measure (ISL: tuples consumed
    /// from the score lists; BFHM: bucket + reverse-row fetches; DRJN:
    /// tuples pulled). Deeper states warm deeper re-targets.
    fn consumed_depth(&self) -> u64;

    /// Cumulative metric charge across the cursor's whole life (all
    /// pulls, including before a pause/resume).
    fn charged(&self) -> MetricsSnapshot;

    /// Whether the cursor is fully drained (see [`CursorBatch::done`]).
    fn is_done(&self) -> bool;

    /// The driving algorithm's display name (`"ISL"`, `"BFHM"`, ...).
    fn algorithm(&self) -> &'static str;
}

/// Common bookkeeping carried by every run, cursor implementation and
/// detached state.
#[derive(Clone)]
pub(crate) struct CursorMeta {
    /// Target result count — the cursor's `k`, kept here and in the
    /// operator, never in the (shared) query descriptor.
    pub k: usize,
    /// Results emitted so far.
    pub emitted: usize,
    /// Cumulative metric charge.
    pub charged: MetricsSnapshot,
    /// The statistics version the run was opened under.
    pub pinned_version: u64,
    /// The spare list of the executor that opened the run: where its
    /// buffers came from and go back to when it drops ([`crate::spare`]).
    pub spares: Spares,
}

impl CursorMeta {
    pub(crate) fn new(k: usize, pinned_version: u64, spares: Spares) -> Self {
        CursorMeta {
            k,
            emitted: 0,
            charged: MetricsSnapshot::default(),
            pinned_version,
            spares,
        }
    }
}

/// A paused cursor, detached from any cluster handle.
///
/// # Serialization & coherence contract
///
/// The state is **plain owned data** — scan positions (start keys plus
/// already-billed buffered rows), the operator's seen-tuple stores and
/// top-k buffer, partial accumulators, counters — with no handles into
/// any live cluster, so it
/// is serializable in principle (this workspace vendors no serde; the
/// contract is that nothing in here is process-specific). The query
/// descriptor is the one exception to "owned": a state shares its
/// executor's `Arc` of it and reads the index families and score
/// function through that, while its `k` belongs to the run (the state's
/// own bookkeeping and operator), not to the descriptor — so parking,
/// cloning or resuming a state copies no descriptor. Resuming on any
/// cluster handle over the *same data* continues the execution exactly:
/// same remaining result sequence, remaining reads billed to the resuming
/// handle's ledger (a resume on a different [`Cluster::fork_metrics`]
/// fork bills the continuation there — nothing already billed is
/// re-charged).
///
/// **Stats-version pinning.** A cursor opened through
/// [`crate::executor::RankJoinExecutor::open_cursor`] records the version
/// of the executor's one statistics handle
/// ([`crate::statsmaint::SharedTableStats::version`], the same handle for
/// every arity). Every maintained write, every index (re-)preparation
/// and every statistics pass bumps that version, and `resume_cursor`
/// refuses a version mismatch with
/// [`RankJoinError::StaleCursor`]: the buffered tuples and scan positions
/// were computed against the old data, so the token is permanently
/// invalid and the query must re-run. Every state is pinned: the
/// executor is the only door to a run.
///
/// States are `Clone`: a serving layer can park one copy in a
/// partial-work cache and resume another.
#[derive(Clone)]
pub struct CursorState {
    pub(crate) inner: StateInner,
}

/// The per-algorithm payloads of a [`CursorState`].
#[derive(Clone)]
pub(crate) enum StateInner {
    /// ISL/HRJN descent state (binary ISL at two sides, the multiway
    /// rank join at more).
    Isl(Box<IslCore>),
    /// BFHM guarantee-loop state.
    Bfhm(Box<crate::bfhm::BfhmCore>),
    /// DRJN round state.
    Drjn(Box<crate::drjn::DrjnCore>),
    /// Bulk-MR algorithm state (buffered one-shot answer).
    Materialized(Box<MaterializedCore>),
}

impl std::fmt::Debug for CursorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CursorState")
            .field("algorithm", &self.algorithm())
            .field("k", &self.k())
            .field("emitted", &self.emitted())
            .field("consumed_depth", &self.consumed_depth())
            .field("pinned_version", &self.pinned_version())
            .finish_non_exhaustive()
    }
}

impl CursorState {
    fn meta(&self) -> &CursorMeta {
        match &self.inner {
            StateInner::Isl(c) => &c.meta,
            StateInner::Bfhm(c) => &c.meta,
            StateInner::Drjn(c) => &c.meta,
            StateInner::Materialized(c) => &c.meta,
        }
    }

    /// The algorithm driving this state.
    pub fn algorithm(&self) -> &'static str {
        match &self.inner {
            StateInner::Isl(c) => c.algorithm(),
            StateInner::Bfhm(c) => c.algorithm(),
            StateInner::Drjn(c) => c.algorithm(),
            StateInner::Materialized(c) => c.algorithm,
        }
    }

    /// The `k` the paused execution targets.
    pub fn k(&self) -> usize {
        self.meta().k
    }

    /// Results emitted before the pause.
    pub fn emitted(&self) -> usize {
        self.meta().emitted
    }

    /// Cumulative metric charge before the pause.
    pub fn charged(&self) -> MetricsSnapshot {
        self.meta().charged
    }

    /// Input depth consumed before the pause (see
    /// [`RankedCursor::consumed_depth`]).
    pub fn consumed_depth(&self) -> u64 {
        match &self.inner {
            StateInner::Isl(c) => c.consumed_depth(),
            StateInner::Bfhm(c) => c.consumed_depth(),
            StateInner::Drjn(c) => c.consumed_depth(),
            StateInner::Materialized(c) => c.results.as_ref().map_or(0, |r| r.len()) as u64,
        }
    }

    /// The statistics version the cursor was opened under (see the
    /// coherence contract above).
    pub fn pinned_version(&self) -> u64 {
        self.meta().pinned_version
    }

    /// Refuses the state with [`RankJoinError::StaleCursor`] when it was
    /// pinned to a statistics version other than `found`, the backend's
    /// current one.
    pub(crate) fn check_version(&self, found: u64) -> Result<()> {
        let expected = self.pinned_version();
        if expected == found {
            Ok(())
        } else {
            Err(RankJoinError::StaleCursor { expected, found })
        }
    }

    /// Whether this state can be re-targeted to a deeper `k` (the
    /// partial-work warm-start path): an ISL state (any number of sides)
    /// keeps every tuple it consumed, so its top-k buffer can be rebuilt
    /// at any larger `k`.
    pub fn supports_retarget(&self) -> bool {
        matches!(self.inner, StateInner::Isl(_))
    }

    /// Resumes the paused execution on `cluster` (which must hold the
    /// same data the cursor was consuming — see the coherence contract).
    /// Remaining work is billed to `cluster`'s metric ledger.
    pub fn resume_on(self, cluster: &Cluster) -> Result<Box<dyn RankedCursor>> {
        match self.inner {
            StateInner::Isl(core) => Ok(Box::new(StepCursor::new(cluster, *core))),
            StateInner::Bfhm(core) => Ok(Box::new(StepCursor::new(cluster, *core))),
            StateInner::Drjn(core) => Ok(Box::new(StepCursor::new(cluster, *core))),
            StateInner::Materialized(core) => {
                Ok(Box::new(MaterializedCursor::resume(cluster, *core)))
            }
        }
    }

    /// Re-targets an ISL state to a (usually deeper) `new_k` and resumes
    /// it on `cluster` — the partial-work warm start. The top-k buffer is
    /// rebuilt at `k = new_k` from the tuples already consumed (pure
    /// in-memory work: nothing already read is re-charged), emission
    /// restarts at rank 0, and the cumulative charge resets — the warmed
    /// query is billed only what *it* consumes beyond the donor prefix.
    /// No statistics version is checked: the caller owns coherence.
    pub fn resume_retargeted(
        self,
        cluster: &Cluster,
        new_k: usize,
    ) -> Result<Box<dyn RankedCursor>> {
        match self.inner {
            StateInner::Isl(mut core) => {
                core.retarget(new_k);
                Ok(Box::new(StepCursor::new(cluster, *core)))
            }
            _ => Err(RankJoinError::Internal(
                "only ISL cursor states support re-targeting to a deeper k",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// The one pump (ISL, BFHM, DRJN)
// ---------------------------------------------------------------------

/// A run the one cursor pumps: ISL's batched descent, BFHM's guarantee
/// loop or DRJN's rounds, advanced one boundary unit at a time. Results
/// are buffered in rank order; a run emits only the prefix it has
/// certified final.
pub(crate) trait Step: Send + Sized {
    /// Advances one boundary unit on `cluster`: whether work remains (a
    /// stop policy is evaluated only then).
    fn step(&mut self, cluster: &Cluster) -> Result<bool>;

    /// Whether the run has nothing left to do (`k = 0` included).
    fn drained(&self) -> bool;

    /// How many buffered results are certain to be final: all of them
    /// once the run is drained.
    fn certified(&self) -> usize;

    /// The buffered results of ranks `ranks`, built.
    fn results(&self, ranks: Range<usize>) -> Vec<JoinTuple>;

    /// See [`RankedCursor::consumed_depth`].
    fn consumed_depth(&self) -> u64;

    /// Boundary units taken since the run started (a warm start's
    /// re-target starts one), the counter `cancel_after_batches` reads:
    /// ISL batches, BFHM steps, DRJN rounds.
    fn boundaries(&self) -> u64;

    /// The run's bookkeeping.
    fn meta(&self) -> &CursorMeta;

    /// The run's bookkeeping, to update.
    fn meta_mut(&mut self) -> &mut CursorMeta;

    /// The run as its paused [`CursorState`] payload.
    fn paused(self) -> StateInner;

    /// The driving algorithm's display name.
    fn algorithm(&self) -> &'static str;

    /// Runs once the page that emits the `k`-th result is decided, before
    /// its charge is taken: BFHM's lazy write-backs (§6).
    fn ready(&mut self, _cluster: &Cluster) -> Result<()> {
        Ok(())
    }

    /// The run's own counters, reported by its one-shot outcome.
    fn extras(&self) -> Extras;
}

/// The one cursor over a [`Step`] run: a fresh run, or a detached one
/// resumed, attached to the cluster handle whose ledger its pulls bill.
pub(crate) struct StepCursor<C> {
    cluster: Cluster,
    core: C,
}

impl<C: Step> StepCursor<C> {
    /// Attaches `core` to `cluster`. A detached run carries its whole
    /// position, so there is nothing to rebuild, re-read or re-bill.
    pub(crate) fn new(cluster: &Cluster, core: C) -> Self {
        StepCursor {
            cluster: cluster.clone(),
            core,
        }
    }

    /// The cursor drained in one pull: the one-shot run. It bills what
    /// the run charged, a read made at opening included, and reports the
    /// run's own counters.
    pub(crate) fn drain(mut self) -> Result<QueryOutcome> {
        let page = self.next_batch(self.core.meta().k, &StopPolicy::never())?;
        Ok(QueryOutcome {
            extras: self.core.extras(),
            ..QueryOutcome::new(self.core.algorithm(), page.results, self.charged())
        })
    }
}

impl<C: Step> RankedCursor for StepCursor<C> {
    /// Steps until `want` results are certified, the run drains, or the
    /// policy fires at a boundary; then emits the certified part of the
    /// page. The page's charge is one meter's delta.
    fn next_batch(&mut self, n: usize, policy: &StopPolicy) -> Result<CursorBatch> {
        let core = &mut self.core;
        let (k, emitted) = (core.meta().k, core.meta().emitted);
        let want = emitted.saturating_add(n).min(k);
        let meter = QueryMeter::start(self.cluster.metrics());
        let mut stopped = None;
        // A re-targeted ISL run may certify `want` part-way through a
        // batch; its state is consistent there, so it reads no further.
        while !core.drained() && core.certified() < want {
            if !core.step(&self.cluster)? {
                break;
            }
            let charged_sim = core.meta().charged.sim_seconds + meter.so_far().sim_seconds;
            stopped = policy_stop(policy, core.boundaries(), charged_sim);
            if stopped.is_some() {
                break;
            }
        }
        let emit_to = core.certified().min(want).max(emitted);
        if emit_to == k {
            core.ready(&self.cluster)?;
        }
        let metrics = meter.finish();
        let meta = core.meta_mut();
        meta.charged += metrics;
        meta.emitted = emit_to;
        Ok(CursorBatch {
            // A page builds its own results, never the whole buffer.
            results: core.results(emitted..emit_to),
            done: self.is_done(),
            stopped,
            metrics,
        })
    }

    fn pause(self: Box<Self>) -> CursorState {
        CursorState {
            inner: self.core.paused(),
        }
    }

    fn emitted(&self) -> usize {
        self.core.meta().emitted
    }

    fn consumed_depth(&self) -> u64 {
        self.core.consumed_depth()
    }

    fn charged(&self) -> MetricsSnapshot {
        self.core.meta().charged
    }

    /// Done once every result of the one-shot run is out: all `k` of
    /// them (each was certified final, so the run's remaining steps could
    /// only confirm them), or everything a drained run found.
    fn is_done(&self) -> bool {
        let meta = self.core.meta();
        meta.emitted == meta.k || (self.core.drained() && meta.emitted == self.core.certified())
    }

    fn algorithm(&self) -> &'static str {
        self.core.algorithm()
    }
}

// ---------------------------------------------------------------------
// ISL
// ---------------------------------------------------------------------

/// How one side of an ISL descent is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideAccess {
    /// Batched descending-score index descent — the side takes turns in
    /// the threshold race (the paper's Algorithm 4 at two sides).
    Descend,
    /// The side's full index family is scanned and ingested before the
    /// descent starts — materialize-then-join, the right call for a small
    /// side whose exhaustion tightens the threshold immediately.
    Materialize,
}

/// What opening an ISL cursor with the wrong number of per-side
/// arguments answers.
const ONE_PER_SIDE: RankJoinError =
    RankJoinError::InvalidSpec("one batch size and one SideAccess per side required");

/// One side of the descent: how it is consumed and where its scanner
/// stands (its tuples live under the side's label, read through the
/// shared spec). Its scans refill a row batch taken from the run's
/// spares when the cursor opens, and given back when the cursor drops
/// ([`crate::spare`]).
#[derive(Clone)]
pub(crate) struct SideScan {
    /// Index rows pulled per turn (the paper's `C_i`, §4.2.3).
    pub batch: usize,
    pub access: SideAccess,
    scan: SideRows,
}

/// Where one side's scan stands.
#[derive(Clone)]
enum SideRows {
    /// Not opened yet (always, for a materialized side): the batch its
    /// scan will open on.
    Unopened(RowBatch),
    /// Detached scanner position, its batch inside.
    Open(ScannerState),
}

impl Default for SideRows {
    fn default() -> Self {
        SideRows::Unopened(RowBatch::new())
    }
}

impl SideRows {
    fn into_batch(self) -> RowBatch {
        match self {
            SideRows::Unopened(rows) => rows,
            SideRows::Open(scan) => scan.into_batch(),
        }
    }
}

/// Detached state of an ISL cursor: the exact position of the batched
/// descent, plus the HRJN operator itself. Resuming attaches a cluster
/// handle and does no other work, however deep the descent has gone.
#[derive(Clone)]
pub(crate) struct IslCore {
    /// Bookkeeping, with `meta.k == state.k()`.
    pub meta: CursorMeta,
    /// The spec the descent serves, shared with whoever opened it: each
    /// side's label is its column family in the index table.
    pub spec: Arc<JoinSpec>,
    /// Index table name, the table's own handle.
    pub table: Arc<str>,
    /// Per-side scan state, in spec side order.
    pub sides: Vec<SideScan>,
    /// Which side the current batch pulls from, picked at its start (see
    /// its `Step::step`).
    pub turn: usize,
    /// Batches this run completed or started: a re-target starts a run,
    /// counting only the part-way batch it continues.
    pub batches: u64,
    /// A batch is part-way through (paused by early HRJN termination —
    /// a deeper re-target continues it mid-row).
    pub in_batch: bool,
    /// Rows consumed within the current batch.
    pub rows_taken: usize,
    /// The row HRJN terminated inside and the position of its first cell
    /// not yet pushed (the one-shot loop stops pushing the instant HRJN
    /// terminates; a deeper re-target must push the remainder before
    /// reading on). The one row the cursor copies out of its scanner.
    pub pending: Option<(RowResult, usize)>,
    /// The HRJN operator: seen tuples of every side, bounds, exhaustion
    /// flags (the only copy of them) and the top-k buffer.
    pub state: HrjnState,
}

impl Drop for IslCore {
    /// Gives each side's row batch and the operator's buffers back.
    fn drop(&mut self) {
        let spares = &self.meta.spares;
        for (position, side) in self.sides.iter_mut().enumerate() {
            spares.give_batch(position, std::mem::take(&mut side.scan).into_batch());
        }
        self.state.give_back(spares);
    }
}

/// Decodes one index cell — qualifier = base row key, value = the cell
/// layout of [`codec::encode_values_score`] — against `side`'s edge count
/// and feeds it to HRJN as a tuple of `side`, copying nothing. A cell that
/// does not decode (written for a different spec, or corrupt) is a typed
/// error: joining on it, skipping it or guessing its score would all
/// return a wrong answer silently.
fn push_index_cell(state: &mut HrjnState, side: usize, cell: &Cell) -> Result<()> {
    let (join_values, score) = codec::decode_values_score(&cell.value, state.edges(side))?;
    state.push_borrowed(side, &cell.qualifier, join_values, score)
}

/// Feeds every cell of `side`'s index family in `row` to HRJN. Row key =
/// negated score (cells carry it exactly); each cell of the side's family
/// = one indexed tuple.
fn ingest_row(state: &mut HrjnState, side: usize, family: &str, row: RowRef<'_>) -> Result<()> {
    if keys::decode_score_desc(row.key).is_none() {
        return Ok(());
    }
    for cell in row.family_cells(family) {
        push_index_cell(state, side, cell)?;
    }
    Ok(())
}

/// [`ingest_row`] from cell position `first_cell` on, stopping the
/// instant HRJN terminates (Algorithm 4 tests inside the tuple loop):
/// `Some(next)` when it did, `next` being the position of the first cell
/// not looked at.
fn descend_row(
    state: &mut HrjnState,
    side: usize,
    family: &str,
    row: RowRef<'_>,
    first_cell: usize,
) -> Result<Option<usize>> {
    if keys::decode_score_desc(row.key).is_none() {
        return Ok(None);
    }
    for (at, cell) in row.cells.iter().enumerate().skip(first_cell) {
        if *cell.family != *family {
            continue;
        }
        push_index_cell(state, side, cell)?;
        if state.is_done() {
            return Ok(Some(at + 1));
        }
    }
    Ok(None)
}

impl IslCore {
    /// The descent for the top `meta.k` of `spec`, side `i` pulling
    /// `batch(i)` rows per turn: the operator and the scans take their
    /// buffers from `meta.spares`, and give them back there.
    pub(crate) fn open(
        cluster: &Cluster,
        spec: &Arc<JoinSpec>,
        meta: CursorMeta,
        index_table: &str,
        batch: impl Fn(usize) -> usize,
        access: &[SideAccess],
    ) -> Result<Self> {
        if access.len() != spec.n() {
            return Err(ONE_PER_SIDE);
        }
        let table = cluster
            .table(index_table)
            .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?
            .name_handle();
        Ok(IslCore {
            sides: access
                .iter()
                .enumerate()
                .map(|(position, &access)| SideScan {
                    batch: batch(position),
                    access,
                    scan: SideRows::Unopened(meta.spares.batch(position)),
                })
                .collect(),
            state: HrjnState::from_spares(&meta.spares, spec, meta.k),
            meta,
            spec: spec.clone(),
            table,
            turn: 0,
            batches: 0,
            in_batch: false,
            rows_taken: 0,
            pending: None,
        })
    }

    fn retarget(&mut self, new_k: usize) {
        let spares = std::mem::take(&mut self.meta.spares);
        self.meta = CursorMeta::new(new_k, self.meta.pinned_version, spares);
        self.batches = u64::from(self.in_batch);
        self.state.retarget(new_k);
    }

    /// Bulk-ingests every [`SideAccess::Materialize`] side not ingested
    /// yet: a full descending-score scan of its index family, all tuples
    /// pushed and the side exhausted (which is the record that it ran).
    /// Reads are charged like any scan — materialization is paid once, on
    /// whichever pull triggers it.
    fn materialize_sides(&mut self, client: &Client) -> Result<()> {
        let IslCore {
            spec,
            table,
            sides,
            state,
            ..
        } = self;
        for (i, side) in sides.iter_mut().enumerate() {
            if side.access != SideAccess::Materialize || state.is_exhausted(i) {
                continue;
            }
            let family = spec.sides[i].label.as_str();
            let spec = Scan::new().families(&[family]).caching(side.batch);
            let rows = std::mem::take(&mut side.scan).into_batch();
            let mut scan = client.scan_with_batch(table, spec, rows)?;
            while let Some(row) = scan.next_row()? {
                ingest_row(state, i, family, row)?;
            }
            side.scan = SideRows::Unopened(scan.into_state().into_batch());
            state.exhaust(i);
        }
        Ok(())
    }
}

impl Step for IslCore {
    /// Runs exactly one batch of the descent (after the materialization
    /// pass on the first call), or finishes a part-way batch left by an
    /// earlier re-target — the body of the paper's Algorithm 4 loop.
    /// Returns whether a batch completed at its boundary with input left;
    /// `false` when nothing is left to do (HRJN terminated or every input
    /// exhausted, possibly mid-batch): a batch that exhausts every side is
    /// the last, so no policy is evaluated after it.
    fn step(&mut self, cluster: &Cluster) -> Result<bool> {
        if self.drained() {
            return Ok(false);
        }
        let client = cluster.client();
        self.materialize_sides(&client)?;
        if self.drained() {
            return Ok(false);
        }
        let n = self.sides.len();
        if !self.in_batch {
            // Three or more sides pull the side that sets the threshold,
            // two alternate (Algorithm 4); materialized sides are exhausted,
            // and all-exhausted is `drained`, so a side with input exists.
            // Two sides pulled by the threshold would read about 40 % less
            // but put ISL ahead of BFHM where the paper's Figure 7 has
            // BFHM lead, so the binary descent keeps the paper's order.
            match self.state.pull_side() {
                Some(side) if n > 2 => self.turn = side,
                _ => {
                    while self.state.is_exhausted(self.turn) {
                        self.turn = (self.turn + 1) % n;
                    }
                }
            }
            self.batches += 1;
            self.rows_taken = 0;
            self.in_batch = true;
        }
        let turn = self.turn;
        let side = &mut self.sides[turn];
        let family = self.spec.sides[turn].label.as_str();
        // The scanner is reattached at its detached position only when a
        // further row is demanded, and detached again whether or not the
        // rows failed: a failed RPC leaves the descent after the last row
        // it consumed, and the next call continues the batch from there.
        let mut scan = None;
        let rows = (|| -> Result<bool> {
            // The row a previous (shallower) target stopped inside goes
            // first: its remaining cells are already read and billed,
            // never re-fetched — a re-target that terminates again inside
            // it leaves the scanner untouched.
            if let Some((row, first_cell)) = self.pending.take() {
                let cells = row.cells.len();
                let stopped =
                    descend_row(&mut self.state, turn, family, row.as_row_ref(), first_cell)?;
                if let Some(next) = stopped {
                    self.pending = (next < cells).then_some((row, next));
                    return Ok(false);
                }
            }
            while self.rows_taken < side.batch {
                let scan = match &mut scan {
                    Some(scan) => scan,
                    none => none.insert(match std::mem::take(&mut side.scan) {
                        SideRows::Open(position) => client.resume_scan(position)?,
                        SideRows::Unopened(rows) => {
                            let spec = Scan::new().families(&[family]).caching(side.batch);
                            client.scan_with_batch(&self.table, spec, rows)?
                        }
                    }),
                };
                let Some(row) = scan.next_row()? else {
                    self.state.exhaust(turn);
                    break;
                };
                // Fetched in this batch, so paid for whatever comes of it.
                self.rows_taken += 1;
                if let Some(next) = descend_row(&mut self.state, turn, family, row, 0)? {
                    self.pending = (next < row.cells.len()).then(|| (row.to_owned(), next));
                    return Ok(false);
                }
            }
            Ok(true)
        })();
        if let Some(scan) = scan {
            side.scan = SideRows::Open(scan.into_state());
        }
        let completed = rows?;
        if completed {
            self.in_batch = false;
            self.turn = (turn + 1) % n;
        }
        Ok(completed && !self.state.all_exhausted())
    }

    fn drained(&self) -> bool {
        self.meta.k == 0 || self.state.is_done() || self.state.all_exhausted()
    }

    /// While the descent runs, the buffered prefix **strictly** above the
    /// HRJN threshold; once drained, everything (see the module docs for
    /// why strictness is what makes emitted prefixes exact under score
    /// ties).
    fn certified(&self) -> usize {
        if self.drained() {
            return self.state.result_count();
        }
        let Some(threshold) = self.state.threshold() else {
            return 0;
        };
        self.state.results_above(threshold)
    }

    fn results(&self, ranks: Range<usize>) -> Vec<JoinTuple> {
        self.state.results(ranks)
    }

    /// Tuples consumed from the score lists.
    fn consumed_depth(&self) -> u64 {
        self.state.tuples_consumed() as u64
    }

    fn boundaries(&self) -> u64 {
        self.batches
    }

    fn meta(&self) -> &CursorMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut CursorMeta {
        &mut self.meta
    }

    fn paused(self) -> StateInner {
        StateInner::Isl(Box::new(self))
    }

    /// The paper's binary algorithm keeps its name; more sides report
    /// the multiway join.
    fn algorithm(&self) -> &'static str {
        if self.sides.len() == 2 {
            "ISL"
        } else {
            "MULTIWAY"
        }
    }

    /// The paper's binary ISL reports the tuples it consumed and the
    /// batches it fetched; more sides report none.
    fn extras(&self) -> Extras {
        if self.sides.len() != 2 {
            return Extras::None;
        }
        Extras::Isl {
            tuples_consumed: self.consumed_depth(),
            batches: self.batches,
        }
    }
}

// ---------------------------------------------------------------------
// Materialized (Hive / Pig / IJLMR)
// ---------------------------------------------------------------------

/// Which bulk-MR algorithm a [`MaterializedCursor`] runs.
#[derive(Clone, Debug)]
pub(crate) enum MaterializedSource {
    /// Hive-style baseline (2 MR jobs + fetch).
    Hive,
    /// Pig-style baseline (3 MR jobs).
    Pig,
    /// IJLMR over its prepared index table.
    Ijlmr(Arc<str>),
}

/// Detached state of a [`MaterializedCursor`].
#[derive(Clone)]
pub(crate) struct MaterializedCore {
    pub meta: CursorMeta,
    /// What the first pull runs: the executor's query, shared (the run's
    /// `k` is `meta.k`), and the algorithm. `None` for a `k = 0` cursor.
    pub run: Option<(Arc<RankJoinQuery>, MaterializedSource)>,
    /// The one-shot answer, once the first pull has executed it.
    pub results: Option<Vec<JoinTuple>>,
    pub algorithm: &'static str,
}

/// Bulk MapReduce algorithms as cursors: MR jobs are not incremental, so
/// the first pull runs the one-shot execution (charging exactly the
/// one-shot metrics) and every later pull pages from the buffered answer
/// for free.
pub struct MaterializedCursor {
    cluster: Cluster,
    core: MaterializedCore,
}

impl MaterializedCursor {
    pub(crate) fn open(
        cluster: &Cluster,
        query: &Arc<RankJoinQuery>,
        k: usize,
        source: MaterializedSource,
        algorithm: &'static str,
        pinned_version: u64,
    ) -> Self {
        MaterializedCursor {
            cluster: cluster.clone(),
            core: MaterializedCore {
                meta: CursorMeta::new(k, pinned_version, Spares::default()),
                run: Some((query.clone(), source)),
                results: None,
                algorithm,
            },
        }
    }

    /// The `k = 0` cursor of `algorithm`, any arity: empty from the start
    /// and free, as the one-shot run at `k = 0` is, pinned like any other.
    pub(crate) fn empty(cluster: &Cluster, algorithm: &'static str, pinned_version: u64) -> Self {
        MaterializedCursor {
            cluster: cluster.clone(),
            core: MaterializedCore {
                meta: CursorMeta::new(0, pinned_version, Spares::default()),
                run: None,
                results: Some(Vec::new()),
                algorithm,
            },
        }
    }

    pub(crate) fn resume(cluster: &Cluster, core: MaterializedCore) -> Self {
        MaterializedCursor {
            cluster: cluster.clone(),
            core,
        }
    }

    fn ensure_materialized(&mut self) -> Result<MetricsSnapshot> {
        let (None, Some((query, source))) = (&self.core.results, &self.core.run) else {
            return Ok(MetricsSnapshot::default());
        };
        let meter = QueryMeter::start(self.cluster.metrics());
        let engine = MapReduceEngine::new(self.cluster.clone());
        // The MapReduce baselines take the query with its `k` inside.
        let query = query.with_k(self.core.meta.k);
        let outcome = match source {
            MaterializedSource::Hive => crate::hive::run(&engine, &query)?,
            MaterializedSource::Pig => crate::pig::run(&engine, &query)?,
            MaterializedSource::Ijlmr(table) => crate::ijlmr::run(&engine, &query, table)?,
        };
        self.core.results = Some(outcome.results);
        let delta = meter.finish();
        self.core.meta.charged += delta;
        Ok(delta)
    }
}

impl RankedCursor for MaterializedCursor {
    fn next_batch(&mut self, n: usize, policy: &StopPolicy) -> Result<CursorBatch> {
        // MR jobs are not interruptible mid-flight; the policy is honoured
        // at the only step boundary there is — before launching the run.
        if self.core.results.is_none() {
            if let Some(reason) = policy_stop(policy, 0, self.core.meta.charged.sim_seconds) {
                return Ok(CursorBatch {
                    results: Vec::new(),
                    done: false,
                    stopped: Some(reason),
                    metrics: MetricsSnapshot::default(),
                });
            }
        }
        let metrics = self.ensure_materialized()?;
        let results = self
            .core
            .results
            .as_ref()
            .ok_or(RankJoinError::Internal("materialization left no results"))?;
        let emit_to = results.len().min(self.core.meta.emitted.saturating_add(n));
        let page = results[self.core.meta.emitted..emit_to].to_vec();
        self.core.meta.emitted = emit_to;
        Ok(CursorBatch {
            results: page,
            done: self.is_done(),
            stopped: None,
            metrics,
        })
    }

    fn pause(self: Box<Self>) -> CursorState {
        CursorState {
            inner: StateInner::Materialized(Box::new(self.core)),
        }
    }

    fn emitted(&self) -> usize {
        self.core.meta.emitted
    }

    fn consumed_depth(&self) -> u64 {
        self.core.results.as_ref().map_or(0, |r| r.len()) as u64
    }

    fn charged(&self) -> MetricsSnapshot {
        self.core.meta.charged
    }

    fn is_done(&self) -> bool {
        self.core
            .results
            .as_ref()
            .is_some_and(|r| self.core.meta.emitted == r.len().min(self.core.meta.k))
    }

    fn algorithm(&self) -> &'static str {
        self.core.algorithm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::isl::IslConfig;
    use crate::multiway::SpecExecutor;
    use crate::oracle;
    use crate::testsupport::{
        running_example_cluster, three_way_path_cluster, three_way_path_sized,
    };

    /// The 3-way path fixture at `k`, its score index built.
    fn built(k: usize) -> (Cluster, JoinSpec, SpecExecutor) {
        let (c, spec) = three_way_path_cluster(k);
        let mut ex = SpecExecutor::new(&c, spec.clone());
        ex.prepare().unwrap();
        (c, spec, ex)
    }

    /// The descent of `ex`'s spec at its own `k`, every side pulling
    /// `batch` rows per turn and consumed as `access` says.
    fn open(ex: &mut SpecExecutor, batch: usize, access: &[SideAccess]) -> StepCursor<IslCore> {
        ex.isl_config = IslConfig::uniform(batch);
        ex.access_override = Some(access.to_vec());
        ex.open_isl(ex.spec().k).unwrap()
    }

    fn drain(cursor: &mut dyn RankedCursor, page: usize) -> Vec<JoinTuple> {
        let mut out = Vec::new();
        loop {
            let batch = cursor.next_batch(page, &StopPolicy::default()).unwrap();
            out.extend(batch.results);
            if batch.done {
                return out;
            }
        }
    }

    /// `(kv_reads, rpc_calls, network_bytes)` charged since `before`.
    fn ledger_since(c: &Cluster, before: &MetricsSnapshot) -> (u64, u64, u64) {
        let d = c.metrics().snapshot().delta_since(before);
        (d.kv_reads, d.rpc_calls, d.network_bytes)
    }

    #[test]
    fn all_descend_matches_oracle() {
        let (c, spec, mut ex) = built(5);
        let mut cursor = open(&mut ex, 64, &[SideAccess::Descend; 3]);
        assert_eq!(cursor.algorithm(), "MULTIWAY");
        let got = drain(&mut cursor, 2);
        let want = oracle::topk_spec(&c, &spec).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn every_access_mix_matches_oracle() {
        use SideAccess::{Descend, Materialize};
        let want = {
            let (c, spec) = three_way_path_cluster(6);
            oracle::topk_spec(&c, &spec).unwrap()
        };
        for mask in 0..8u8 {
            let (_, _, mut ex) = built(6);
            let access: Vec<SideAccess> = (0..3)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Materialize
                    } else {
                        Descend
                    }
                })
                .collect();
            let mut cursor = open(&mut ex, 3, &access);
            let got = drain(&mut cursor, 4);
            assert_eq!(got, want, "access mask {mask:03b}");
        }
    }

    #[test]
    fn pause_resume_preserves_sequence_and_charge() {
        let (c, _, mut ex) = built(6);
        let one_shot = {
            let before = c.metrics().snapshot();
            let mut cursor = open(&mut ex, 2, &[SideAccess::Descend; 3]);
            let results = drain(&mut cursor, 100);
            (results, ledger_since(&c, &before))
        };

        let (c2, _, mut ex2) = built(6);
        let before = c2.metrics().snapshot();
        let mut cursor: Box<dyn RankedCursor> =
            Box::new(open(&mut ex2, 2, &[SideAccess::Descend; 3]));
        let mut paged = Vec::new();
        loop {
            let batch = cursor.next_batch(1, &StopPolicy::default()).unwrap();
            paged.extend(batch.results);
            if batch.done {
                break;
            }
            let state = cursor.pause();
            assert_eq!(state.algorithm(), "MULTIWAY");
            cursor = state.resume_on(&c2).unwrap();
        }
        assert_eq!(paged, one_shot.0);
        assert_eq!(ledger_since(&c2, &before), one_shot.1);
    }

    #[test]
    fn retarget_deepens_without_rereads() {
        let (c, spec, mut ex) = built(2);
        let mut cursor = open(&mut ex, 64, &[SideAccess::Descend; 3]);
        let top2 = drain(&mut cursor, 100);
        assert_eq!(
            top2.len(),
            2.min(oracle::topk_spec(&c, &spec).unwrap().len())
        );
        let state = Box::new(cursor).pause();
        assert!(state.supports_retarget());
        let mut deeper = state.resume_retargeted(&c, 6).unwrap();
        let got = drain(deeper.as_mut(), 10);
        let want = oracle::topk_spec(&c, &spec.with_k(6)).unwrap();
        assert_eq!(got, want);
    }

    /// The index table vanishes under a running cursor (re-created
    /// without its families): the pull that needs the next RPC fails —
    /// every time, it is never taken for an exhausted input — and the
    /// descent stands where the last consumed row left it.
    #[test]
    fn a_failed_scan_rpc_fails_the_pull_and_keeps_the_descent_position() {
        let (c, _, mut ex) = built(6);
        let table = ex.isl_table().unwrap().to_owned();
        let mut cursor = open(&mut ex, 2, &[SideAccess::Descend; 3]);
        let first = cursor.next_batch(1, &StopPolicy::default()).unwrap();
        assert_eq!(first.results.len(), 1);
        assert!(!first.done);
        c.drop_table(&table).unwrap();
        c.create_table(&table, &["other"]).unwrap();

        let position =
            |cursor: &StepCursor<IslCore>| (cursor.core.batches, cursor.consumed_depth());
        let mut failed_at = None;
        for _ in 0..2 {
            // A buffered row or two may still be served; then the RPC fails.
            let err = loop {
                match cursor.next_batch(1, &StopPolicy::default()) {
                    Ok(batch) => assert!(!batch.done, "a truncated input is not a drained one"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(
                err,
                RankJoinError::Store(rj_store::StoreError::FamilyNotFound { .. })
            ));
            assert_eq!(
                *failed_at.get_or_insert(position(&cursor)),
                position(&cursor)
            );
        }
        assert!(!cursor.is_done());
    }

    /// A descent for the top 0 reads nothing and is done at once.
    #[test]
    fn k_zero_is_empty_and_free() {
        let (c, _, mut ex) = built(0);
        let before = c.metrics().snapshot();
        let mut cursor = open(&mut ex, 64, &[SideAccess::Descend; 3]);
        let batch = cursor.next_batch(5, &StopPolicy::default()).unwrap();
        assert!(batch.results.is_empty());
        assert!(batch.done);
        assert_eq!(ledger_since(&c, &before), (0, 0, 0));
    }

    /// Each side's batch size comes from [`IslConfig`], one per side by
    /// construction; an access override must name one access per side,
    /// and a run or cursor with another count is refused.
    #[test]
    fn one_batch_size_and_access_per_side_required() {
        let (_, _, mut ex) = built(3);
        for sides in [2, 4] {
            ex.access_override = Some(vec![SideAccess::Descend; sides]);
            let refused = |r: Result<()>| matches!(r, Err(RankJoinError::InvalidSpec(_)));
            assert!(refused(ex.execute_with_k(3).map(drop)), "{sides} sides");
            assert!(refused(ex.open_cursor(3).map(drop)), "{sides} sides");
        }
    }

    /// ISL billing on the running example, in absolute terms: `(kv_reads,
    /// rpc_calls, network_bytes)` per `(k, batch_left, batch_right)`,
    /// one-shot and paged by 1 with a pause/resume between pages.
    #[test]
    fn golden_ledger_isl_running_example() {
        let golden = [
            ((1, 1, 1), (8, 16, 288)),
            ((3, 2, 2), (12, 10, 432)),
            ((3, 1, 16), (19, 14, 684)),
            ((40, 16, 16), (22, 12, 792)),
        ];
        for ((k, batch_left, batch_right), want) in golden {
            let (c, q) = running_example_cluster();
            let mut ex = RankJoinExecutor::new(&c, q);
            ex.isl_config = IslConfig {
                batch_left,
                batch_right,
            };
            ex.prepare_isl().unwrap();

            let before = c.metrics().snapshot();
            let one_shot = ex.execute_with_k(Algorithm::Isl, k).unwrap().results;
            assert_eq!(ledger_since(&c, &before), want, "one-shot k={k}");

            let before = c.metrics().snapshot();
            let mut cursor = ex.open_cursor(Algorithm::Isl, k).unwrap();
            assert_eq!(cursor.algorithm(), "ISL");
            let mut paged = Vec::new();
            loop {
                let batch = cursor.next_batch(1, &StopPolicy::never()).unwrap();
                paged.extend(batch.results);
                if batch.done {
                    break;
                }
                cursor = ex.resume_cursor(cursor.pause()).unwrap();
            }
            assert_eq!(ledger_since(&c, &before), want, "paged k={k}");
            assert_eq!(paged, one_shot);
        }
    }

    /// The same for the 3-way path fixture at batch 2: all sides
    /// descended, and the interior side materialized. The last row skews
    /// the side sizes: the descent pulls the side whose term is the
    /// threshold and leaves A, the 4-tuple end side, unexhausted at k = 1
    /// (cycling the sides drains it and bills `(28, 67, 984)`).
    #[test]
    fn golden_ledger_three_way_path() {
        const UNIFORM: [usize; 3] = [14, 12, 13];
        let golden = [
            ((2, false, UNIFORM), (14, 21, 482)),
            ((2, true, UNIFORM), (22, 34, 786)),
            ((6, false, UNIFORM), (15, 23, 515)),
            ((6, true, UNIFORM), (23, 36, 819)),
            ((1, false, [4, 12, 40]), (21, 44, 723)),
        ];
        for ((k, materialize, sizes), want) in golden {
            let (c, spec) = three_way_path_sized(k, sizes);
            let mut ex = SpecExecutor::new(&c, spec);
            ex.isl_config = IslConfig::uniform(2);
            ex.prepare().unwrap();
            let mut access = vec![SideAccess::Descend; 3];
            if materialize {
                access[1] = SideAccess::Materialize;
            }
            ex.access_override = Some(access);
            let before = c.metrics().snapshot();
            let out = ex.execute_with_k(k).unwrap();
            assert_eq!(out.results.len(), k);
            assert_eq!(
                ledger_since(&c, &before),
                want,
                "k={k} materialize={materialize} sizes={sizes:?}"
            );
        }
    }
}
