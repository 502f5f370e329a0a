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
//! * `StepCursor` — the one cursor over all six algorithms. Each is a
//!   step machine behind the crate-private `Step` trait: ISL's batched
//!   descent (`IslCore`, in [`crate::isl`]; any number of sides — at
//!   three or more, the multiway rank join, each batch from the side that
//!   sets the threshold), BFHM's §5.3 guarantee loop (`BfhmCore`, in
//!   [`crate::bfhm`]), DRJN's rounds (`DrjnCore`, in [`crate::drjn`]) and
//!   the bulk MapReduce baselines (`MaterializedCore`, here: Hive, Pig
//!   and IJLMR, whose one step runs every job — they are not incremental,
//!   so all reads are charged then, exactly the one-shot amount — and
//!   buffers the answer that later pages hand out for free). With
//!   nothing to run, `MaterializedCore` is every algorithm's `k = 0` run,
//!   empty from the start. Its one `next_batch` is the one pump: it
//!   pages, meters every pull with one [`rj_store::QueryMeter`] and stops
//!   at the algorithm's own boundary unit (an ISL batch, a BFHM step, a
//!   DRJN round, a MapReduce run before its jobs launch). A one-shot run
//!   is this cursor drained in one pull.
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
use rj_store::cluster::Cluster;
use rj_store::metrics::{MetricsSnapshot, QueryMeter};

use crate::cancel::{StopPolicy, StopReason};
use crate::error::{RankJoinError, Result};
use crate::isl::IslCore;
use crate::query::RankJoinQuery;
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
    /// Bulk-MR algorithm state (buffered one-shot answer), and every
    /// `k = 0` state.
    Materialized(Box<MaterializedCore>),
}

/// `$body` over the run inside a [`StateInner`], whichever algorithm's.
macro_rules! each_run {
    ($inner:expr, $run:ident => $body:expr) => {
        match $inner {
            StateInner::Isl($run) => $body,
            StateInner::Bfhm($run) => $body,
            StateInner::Drjn($run) => $body,
            StateInner::Materialized($run) => $body,
        }
    };
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
        each_run!(&self.inner, run => run.meta())
    }

    /// The algorithm driving this state.
    pub fn algorithm(&self) -> &'static str {
        each_run!(&self.inner, run => run.algorithm())
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
        each_run!(&self.inner, run => run.consumed_depth())
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
        Ok(each_run!(self.inner, run => Box::new(StepCursor::new(cluster, *run))))
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
// The one pump (every algorithm)
// ---------------------------------------------------------------------

/// A run the one cursor pumps: ISL's batched descent, BFHM's guarantee
/// loop, DRJN's rounds or a MapReduce baseline's jobs, advanced one
/// boundary unit at a time. Results are buffered in rank order; a run
/// emits only the prefix it has certified final.
pub(crate) trait Step: Send + Sized {
    /// Advances one boundary unit on `cluster`: whether work remains (a
    /// stop policy is evaluated only then).
    fn step(&mut self, cluster: &Cluster) -> Result<bool>;

    /// Whether a stop policy is also evaluated before each step: a
    /// MapReduce run cannot stop once its jobs launch, so its one
    /// boundary is before them.
    fn stops_before_step(&self) -> bool {
        false
    }

    /// Whether the run has nothing left to do (`k = 0` included).
    fn drained(&self) -> bool;

    /// How many buffered results are certain to be final: all of them
    /// once the run is drained.
    fn certified(&self) -> usize;

    /// The buffered results of ranks `ranks`, the next ones to emit,
    /// built or handed over.
    fn results(&mut self, ranks: Range<usize>) -> Vec<JoinTuple>;

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
        let stop = |core: &C| {
            let charged_sim = core.meta().charged.sim_seconds + meter.so_far().sim_seconds;
            policy_stop(policy, core.boundaries(), charged_sim)
        };
        let mut stopped = None;
        // A re-targeted ISL run may certify `want` part-way through a
        // batch; its state is consistent there, so it reads no further.
        while !core.drained() && core.certified() < want {
            if core.stops_before_step() {
                stopped = stop(core);
                if stopped.is_some() {
                    break;
                }
            }
            if !core.step(&self.cluster)? {
                break;
            }
            stopped = stop(core);
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
// Materialized (Hive / Pig / IJLMR, and every k = 0 run)
// ---------------------------------------------------------------------

/// Which bulk-MR algorithm a [`MaterializedCore`] runs.
#[derive(Clone, Debug)]
pub(crate) enum MaterializedSource {
    /// Hive-style baseline (2 MR jobs + fetch).
    Hive,
    /// Pig-style baseline (3 MR jobs).
    Pig,
    /// IJLMR over its prepared index table.
    Ijlmr(Arc<str>),
}

/// A bulk MapReduce run as a step machine: its one step runs every job
/// on a fresh engine over the pumping cluster and buffers the answer and
/// the run's counters. With nothing to run it is a `k = 0` run, drained
/// from the start.
#[derive(Clone)]
pub(crate) struct MaterializedCore {
    meta: CursorMeta,
    /// What the step runs: the executor's query, shared (the run's `k` is
    /// `meta.k`), and the algorithm; `None` once it ran, or for `k = 0`.
    run: Option<(Arc<RankJoinQuery>, MaterializedSource)>,
    /// The answer's ranks from `meta.emitted` on.
    unsent: Vec<JoinTuple>,
    extras: Extras,
    algorithm: &'static str,
}

impl MaterializedCore {
    pub(crate) fn new(
        meta: CursorMeta,
        run: Option<(Arc<RankJoinQuery>, MaterializedSource)>,
        algorithm: &'static str,
    ) -> Self {
        MaterializedCore {
            meta,
            run,
            unsent: Vec::new(),
            extras: Extras::None,
            algorithm,
        }
    }
}

impl Step for MaterializedCore {
    /// Runs the jobs: nothing is left after them. A failed job leaves the
    /// run to do, for the next pull to retry.
    fn step(&mut self, cluster: &Cluster) -> Result<bool> {
        if let Some((query, source)) = &self.run {
            let engine = MapReduceEngine::new(cluster.clone());
            let k = self.meta.k;
            (self.unsent, self.extras) = match source {
                MaterializedSource::Hive => crate::hive::run(&engine, query, k)?,
                MaterializedSource::Pig => crate::pig::run(&engine, query, k)?,
                MaterializedSource::Ijlmr(table) => crate::ijlmr::run(&engine, query, k, table)?,
            };
            self.run = None;
        }
        Ok(false)
    }

    fn stops_before_step(&self) -> bool {
        true
    }

    fn drained(&self) -> bool {
        self.run.is_none()
    }

    fn certified(&self) -> usize {
        self.meta.emitted + self.unsent.len()
    }

    /// The front of the unsent answer; all of it, without a copy, when
    /// the page takes the rest (a one-shot run's only page).
    fn results(&mut self, ranks: Range<usize>) -> Vec<JoinTuple> {
        if ranks.len() == self.unsent.len() {
            return std::mem::take(&mut self.unsent);
        }
        self.unsent.drain(..ranks.len()).collect()
    }

    /// The answer's size, once the jobs ran.
    fn consumed_depth(&self) -> u64 {
        self.certified() as u64
    }

    fn boundaries(&self) -> u64 {
        0
    }

    fn meta(&self) -> &CursorMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut CursorMeta {
        &mut self.meta
    }

    fn paused(self) -> StateInner {
        StateInner::Materialized(Box::new(self))
    }

    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn extras(&self) -> Extras {
        self.extras
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::isl::IslConfig;
    use crate::multiway::SpecExecutor;
    use crate::oracle;
    use crate::query::JoinSpec;
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
    /// `batch` rows per turn.
    fn open(ex: &mut SpecExecutor, batch: usize) -> StepCursor<IslCore> {
        ex.isl_config = IslConfig::uniform(batch);
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
        let mut cursor = open(&mut ex, 64);
        assert_eq!(cursor.algorithm(), "MULTIWAY");
        let got = drain(&mut cursor, 2);
        let want = oracle::topk_spec(&c, &spec).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pause_resume_preserves_sequence_and_charge() {
        let (c, _, mut ex) = built(6);
        let one_shot = {
            let before = c.metrics().snapshot();
            let mut cursor = open(&mut ex, 2);
            let results = drain(&mut cursor, 100);
            (results, ledger_since(&c, &before))
        };

        let (c2, _, mut ex2) = built(6);
        let before = c2.metrics().snapshot();
        let mut cursor: Box<dyn RankedCursor> = Box::new(open(&mut ex2, 2));
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
        let mut cursor = open(&mut ex, 64);
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
        let mut cursor = open(&mut ex, 2);
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
        let mut cursor = open(&mut ex, 64);
        let batch = cursor.next_batch(5, &StopPolicy::default()).unwrap();
        assert!(batch.results.is_empty());
        assert!(batch.done);
        assert_eq!(ledger_since(&c, &before), (0, 0, 0));
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

    /// The same for the 3-way path fixture at batch 2, every side
    /// descended. The last row skews the side sizes: the descent pulls
    /// the side whose term is the threshold and leaves A, the 4-tuple end
    /// side, unexhausted at k = 1 (cycling the sides drains it and bills
    /// `(28, 67, 984)`).
    #[test]
    fn golden_ledger_three_way_path() {
        const UNIFORM: [usize; 3] = [14, 12, 13];
        let golden = [
            ((2, UNIFORM), (14, 21, 482)),
            ((6, UNIFORM), (15, 23, 515)),
            ((1, [4, 12, 40]), (21, 44, 723)),
        ];
        for ((k, sizes), want) in golden {
            let (c, spec) = three_way_path_sized(k, sizes);
            let mut ex = SpecExecutor::new(&c, spec);
            ex.isl_config = IslConfig::uniform(2);
            ex.prepare().unwrap();
            let before = c.metrics().snapshot();
            let out = ex.execute_with_k(k).unwrap();
            assert_eq!(out.results.len(), k);
            assert_eq!(ledger_since(&c, &before), want, "k={k} sizes={sizes:?}");
        }
    }
}
