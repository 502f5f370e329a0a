//! A uniform entry point over all six rank-join algorithms.
//!
//! The executor owns the MapReduce engine handle, remembers which indices
//! have been built for a query pair, and dispatches [`Algorithm`] choices
//! to the right module — the shape the experiment harness and the
//! examples drive everything through.
//!
//! **`k` belongs to the run, not the descriptor.** The executor builds its
//! query and the query's two-side spec once, in
//! [`RankJoinExecutor::new`], behind `Arc`s that every run, cursor, parked
//! [`CursorState`] and [`RankJoinExecutor::fork_onto`] fork shares. A run
//! at any `k` passes `(descriptor, k)` to the driver; the descriptor's own
//! `k` is only the default of [`RankJoinExecutor::execute`] and
//! [`RankJoinExecutor::plan`]. Only the MapReduce baselines (HIVE, PIG,
//! IJLMR) still take a copy of the query with its `k` inside.
//!
//! **Spares belong to the executor.** Every ISL, BFHM and DRJN run or
//! cursor an executor opens takes its buffers from the executor's spare
//! list and gives them back when it drops (`crate::spare`); a
//! [`RankJoinExecutor::fork_onto`] fork is the same executor over another
//! ledger and recycles through the same list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rj_mapreduce::MapReduceEngine;
use rj_store::cluster::Cluster;

use crate::bfhm::{self, maintenance::WriteBackPolicy, BfhmConfig, BfhmCursor};
use crate::cursor::{
    CursorMeta, CursorState, IslCursor, MaterializedCursor, MaterializedSource, RankedCursor,
    SideAccess,
};
use crate::drjn::{self, DrjnConfig, DrjnCursor};
use crate::error::{RankJoinError, Result};
use crate::indexutil::BuildStats;
use crate::isl::{self, IslConfig};
use crate::planner::{self, Candidates, CostEstimate, Objective, Plan};
use crate::query::{JoinSpec, RankJoinQuery};
use crate::spare::Spares;
use crate::stats::QueryOutcome;
use crate::statsmaint::{SharedTableStats, DEFAULT_STALENESS_BOUND};
use crate::{hive, ijlmr, pig};

/// The algorithm suite of the paper, plus the cost-based planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Hive-style baseline (§3.1).
    Hive,
    /// Pig-style baseline (§3.1).
    Pig,
    /// Inverse Join List MapReduce rank join (§4.1).
    Ijlmr,
    /// Inverse Score List rank join (§4.2).
    Isl,
    /// Bloom Filter Histogram Matrix rank join (§5).
    Bfhm,
    /// DRJN comparator (§7.1).
    Drjn,
    /// Cost-based selection ([`crate::planner`]): predicts every
    /// prepared algorithm's cost from table statistics and the cluster's
    /// [`rj_store::costmodel::CostModel`], then runs the cheapest under
    /// the executor's [`Objective`], exactly as if it had been named.
    /// Unprepared indices are simply not candidates; the index-free
    /// HIVE/PIG baselines always are, so Auto never fails for lack of
    /// preparation.
    Auto,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Hive,
        Algorithm::Pig,
        Algorithm::Ijlmr,
        Algorithm::Isl,
        Algorithm::Bfhm,
        Algorithm::Drjn,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Hive => "HIVE",
            Algorithm::Pig => "PIG",
            Algorithm::Ijlmr => "IJLMR",
            Algorithm::Isl => "ISL",
            Algorithm::Bfhm => "BFHM",
            Algorithm::Drjn => "DRJN",
            Algorithm::Auto => "AUTO",
        }
    }

    /// Whether the algorithm needs a pre-built index. `Auto` does not: it
    /// plans over whatever happens to be prepared.
    pub fn needs_index(&self) -> bool {
        !matches!(self, Algorithm::Hive | Algorithm::Pig | Algorithm::Auto)
    }
}

/// Facade over engine + indices for one query pair (see the module docs
/// for why `k` is an argument of every run rather than part of the
/// query).
pub struct RankJoinExecutor {
    engine: MapReduceEngine,
    /// The query, built once and shared by every run, cursor and fork.
    query: Arc<RankJoinQuery>,
    /// The query's two-side spec — the ISL descent's descriptor — built
    /// once with it.
    spec: Arc<JoinSpec>,
    ijlmr_table: Option<Arc<str>>,
    isl_table: Option<Arc<str>>,
    bfhm_table: Option<(Arc<str>, BfhmConfig)>,
    drjn_table: Option<(Arc<str>, DrjnConfig)>,
    /// ISL batch sizes used at query time.
    pub isl_config: IslConfig,
    /// BFHM write-back policy used at query time.
    pub write_back: WriteBackPolicy,
    /// What [`Algorithm::Auto`] optimizes for (default: turnaround time).
    pub objective: Objective,
    /// Largest fraction of either side's tuples that may mutate (through
    /// the maintained write path) before planning stops trusting the
    /// incrementally-maintained statistics and re-collects. See
    /// [`crate::statsmaint`].
    pub staleness_bound: f64,
    /// Shared, incrementally-maintained statistics handle. Collected
    /// lazily on the first `Auto` plan, updated in place by
    /// [`crate::maintenance::MaintainedSide`] writes registered on it,
    /// and invalidated wholesale whenever an index is (re-)prepared or
    /// attached. `Arc`-shared so `fork_metrics` clones serving the same
    /// query pair reuse one snapshot instead of each re-collecting.
    stats: Arc<SharedTableStats>,
    /// Plan cache: repeated `(k, objective)` queries skip
    /// estimation entirely. The ISL batch config and the staleness bound
    /// (bit-exact) are part of the key because they are public fields
    /// that feed the estimate/statistics decision — a caller mutating
    /// either must not be served a plan computed under the old value.
    /// Each entry records the statistics-handle version it was computed
    /// at, so maintained writes coherently invalidate plans across every
    /// executor sharing the handle.
    #[allow(clippy::type_complexity)]
    plan_cache: Mutex<HashMap<(usize, Objective, IslConfig, u64), (u64, Arc<Plan>)>>,
    /// Candidacy cache: which algorithms are executable right now, both
    /// positive ("ISL prepared, with this config") and negative ("BFHM
    /// not prepared — don't re-check until a `prepare_*`/`attach_*`
    /// bump"). Invalidated only by preparation changes, never by
    /// statistics movement, so `Auto` stops re-evaluating permanently
    /// unprepared algorithms on every plan.
    /// Keyed by the ISL batch config the entry was built under: the
    /// config is a public field feeding the candidate set, so mutating it
    /// must re-evaluate (same reason it sits in the plan-cache key).
    candidates_cache: Mutex<Option<(IslConfig, Arc<Candidates>)>>,
    /// How many times the candidate set was actually (re-)evaluated —
    /// the observable the negative-candidacy caching contract is tested
    /// against (grows on preparation changes only).
    candidate_evaluations: AtomicU64,
    /// The buffers this executor's (and its forks') runs gave back, for
    /// their next runs.
    pub(crate) spares: Spares,
}

impl RankJoinExecutor {
    /// Creates an executor for `query` on `cluster`. The query and its
    /// two-side spec are built here, once; `query.k` is the default depth
    /// of [`RankJoinExecutor::execute`] and [`RankJoinExecutor::plan`].
    pub fn new(cluster: &Cluster, query: RankJoinQuery) -> Self {
        let spec = Arc::new(query.to_spec());
        let stats = SharedTableStats::new(spec.clone());
        RankJoinExecutor::over(cluster, Arc::new(query), spec, stats)
    }

    /// An executor with no index and default tuning over an already
    /// shared query, spec and statistics handle.
    fn over(
        cluster: &Cluster,
        query: Arc<RankJoinQuery>,
        spec: Arc<JoinSpec>,
        stats: Arc<SharedTableStats>,
    ) -> Self {
        RankJoinExecutor {
            engine: MapReduceEngine::new(cluster.clone()),
            query,
            spec,
            ijlmr_table: None,
            isl_table: None,
            bfhm_table: None,
            drjn_table: None,
            isl_config: IslConfig::default(),
            write_back: WriteBackPolicy::Off,
            objective: Objective::Time,
            staleness_bound: DEFAULT_STALENESS_BOUND,
            stats,
            plan_cache: Mutex::new(HashMap::new()),
            candidates_cache: Mutex::new(None),
            candidate_evaluations: AtomicU64::new(0),
            spares: Spares::new(),
        }
    }

    /// Sets the planning objective, builder-style.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The underlying engine (for direct module calls).
    pub fn engine(&self) -> &MapReduceEngine {
        &self.engine
    }

    /// The query this executor serves.
    pub fn query(&self) -> &RankJoinQuery {
        &self.query
    }

    /// The query's two-side spec ([`RankJoinQuery::to_spec`]), built once
    /// in [`RankJoinExecutor::new`].
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// The shared spec itself — what a wrapping
    /// [`crate::multiway::SpecExecutor`] keys on.
    pub(crate) fn spec_handle(&self) -> Arc<JoinSpec> {
        self.spec.clone()
    }

    /// The shared statistics handle. Register it on a
    /// [`crate::maintenance::MaintainedSide`] (via
    /// [`with_stats`](crate::maintenance::MaintainedSide::with_stats)) so
    /// writes keep plans fresh, and hand it to other executors for the
    /// same query pair (via [`RankJoinExecutor::attach_stats`]) so they
    /// share one snapshot.
    pub fn stats_handle(&self) -> Arc<SharedTableStats> {
        self.stats.clone()
    }

    /// Adopts another executor's statistics handle (it must describe the
    /// same query pair). `fork_metrics`-cloned executors serving one
    /// query pair attach the original's handle so statistics are
    /// collected once and maintained coherently, instead of every fork
    /// re-collecting identical snapshots.
    pub fn attach_stats(&mut self, handle: Arc<SharedTableStats>) -> Result<()> {
        // Statistics are a function of (table, join column, score column)
        // per side; the label keys the deltas. All must match — two
        // queries over the same tables ranking by different columns have
        // different histograms.
        let same_side = |a: &crate::query::JoinSide, b: &crate::query::JoinSide| {
            a.table == b.table
                && a.label == b.label
                && a.join_col == b.join_col
                && a.score_col == b.score_col
        };
        let theirs = &handle.spec().sides;
        if theirs.len() != 2
            || !same_side(&theirs[0], &self.query.left)
            || !same_side(&theirs[1], &self.query.right)
        {
            return Err(RankJoinError::Internal(
                "stats handle describes a different query pair",
            ));
        }
        self.plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.stats = handle;
        Ok(())
    }

    /// Drops cached plans and statistics — used by `prepare_*`, which
    /// rebuilds an index from the *current* base data and so doubles as
    /// the caller's explicit "re-sync with the world" signal. The
    /// statistics invalidation propagates through the shared handle to
    /// every executor sharing it (their versioned plan-cache entries go
    /// stale with it).
    fn invalidate_plans(&mut self) {
        self.stats.invalidate();
        self.plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        *self
            .candidates_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Drops only this executor's cached plans — used by `attach_*`:
    /// adopting an already-built index changes the *candidate set*, but
    /// not the base tables the shared statistics describe, so wiping the
    /// shared snapshot (and forcing every sharer through a redundant full
    /// pass) would be invalidation at the wrong altitude.
    fn refresh_candidates(&mut self) {
        self.plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        *self
            .candidates_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Drops a stale index table before a rebuild. Re-preparation
    /// replaces the index rather than writing into the survivor; every
    /// `prepare_*` clears its table slot before calling this and restores
    /// it only after the fresh build completes, so a planner that
    /// triggers lazy builds can never dispatch to a half-rebuilt index.
    fn drop_stale(&mut self, table: &str) -> Result<()> {
        if self.engine.cluster().table(table).is_ok() {
            self.engine.cluster().drop_table(table)?;
        }
        Ok(())
    }

    /// Builds the IJLMR index. Calling this again drops and rebuilds the
    /// index from the current base data (safe re-preparation).
    pub fn prepare_ijlmr(&mut self) -> Result<BuildStats> {
        let table = ijlmr::index_table_name(&self.query);
        self.invalidate_plans();
        self.ijlmr_table = None;
        self.drop_stale(&table)?;
        let stats = ijlmr::build(&self.engine, &self.query, &table)?;
        self.ijlmr_table = Some(table.into());
        Ok(stats)
    }

    /// Builds the ISL index. Calling this again drops and rebuilds the
    /// index from the current base data (safe re-preparation).
    pub fn prepare_isl(&mut self) -> Result<BuildStats> {
        let table = isl::index::index_table_name(&self.spec);
        self.invalidate_plans();
        self.isl_table = None;
        self.drop_stale(&table)?;
        let stats = isl::index::build(&self.engine, &self.spec, &table)?;
        self.isl_table = Some(table.into());
        Ok(stats)
    }

    /// Builds the BFHM index. Calling this again drops and rebuilds the
    /// index from the current base data (safe re-preparation).
    pub fn prepare_bfhm(&mut self, config: BfhmConfig) -> Result<BuildStats> {
        let table = bfhm::index_table_name(&self.query);
        self.invalidate_plans();
        self.bfhm_table = None;
        self.drop_stale(&table)?;
        let (stats, _m) = bfhm::build_pair(&self.engine, &self.query, &table, &config)?;
        self.bfhm_table = Some((table.into(), config));
        Ok(stats)
    }

    /// Builds the DRJN matrices. Calling this again drops and rebuilds
    /// the index from the current base data (safe re-preparation).
    pub fn prepare_drjn(&mut self, config: DrjnConfig) -> Result<BuildStats> {
        let table = drjn::index_table_name(&self.query);
        self.invalidate_plans();
        self.drjn_table = None;
        self.drop_stale(&table)?;
        let stats = drjn::build_pair(&self.engine, &self.query, &table, &config)?;
        self.drjn_table = Some((table.into(), config));
        Ok(stats)
    }

    /// Adopts an already-built IJLMR index table (e.g. one another
    /// executor for the same query pair prepared) without rebuilding.
    pub fn attach_ijlmr(&mut self, table: &str) -> Result<()> {
        self.engine
            .cluster()
            .table(table)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        self.refresh_candidates();
        self.ijlmr_table = Some(table.into());
        Ok(())
    }

    /// Adopts an already-built ISL index table without rebuilding.
    pub fn attach_isl(&mut self, table: &str) -> Result<()> {
        self.engine
            .cluster()
            .table(table)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        self.refresh_candidates();
        self.isl_table = Some(table.into());
        Ok(())
    }

    /// Adopts an already-built BFHM index table without rebuilding.
    /// `config` must match the build (bucket count is verified at query
    /// time against the index metadata).
    pub fn attach_bfhm(&mut self, table: &str, config: BfhmConfig) -> Result<()> {
        self.engine
            .cluster()
            .table(table)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        self.refresh_candidates();
        self.bfhm_table = Some((table.into(), config));
        Ok(())
    }

    /// Adopts already-built DRJN matrices without rebuilding. `config`
    /// must match the build.
    pub fn attach_drjn(&mut self, table: &str, config: DrjnConfig) -> Result<()> {
        self.engine
            .cluster()
            .table(table)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        self.refresh_candidates();
        self.drjn_table = Some((table.into(), config));
        Ok(())
    }

    /// The ISL index table currently prepared or attached, if any. A
    /// serving layer uses this to drive cursor-based ISL execution
    /// ([`crate::cursor::IslCursor::open`]) against the same index the
    /// executor would dispatch to.
    pub fn isl_table(&self) -> Option<&str> {
        self.isl_table.as_deref()
    }

    /// Clones this executor onto `cluster` — typically a
    /// [`Cluster::fork_metrics`] fork, giving the clone its own metering
    /// ledger over the same shared data. The clone shares the query, its
    /// spec and every attached index table, copies all tuning fields
    /// (`isl_config`, `write_back`, `objective`, ...), and shares the
    /// *same* statistics handle, so plans and maintained-write
    /// invalidations stay coherent across all forks while each fork's work
    /// is billed to its own ledger. The clone also shares this executor's
    /// spare list: its runs recycle the buffers this executor's runs gave
    /// back, and the other way round.
    pub fn fork_onto(&self, cluster: &Cluster) -> Result<RankJoinExecutor> {
        let bfhm = self.bfhm_table.as_ref().map(|(table, _)| table);
        let drjn = self.drjn_table.as_ref().map(|(table, _)| table);
        for table in [
            self.ijlmr_table.as_ref(),
            self.isl_table.as_ref(),
            bfhm,
            drjn,
        ]
        .into_iter()
        .flatten()
        {
            cluster
                .table(table)
                .map_err(|_| RankJoinError::MissingIndex(table.to_string()))?;
        }
        let mut fork = RankJoinExecutor::over(
            cluster,
            self.query.clone(),
            self.spec.clone(),
            self.stats.clone(),
        );
        fork.ijlmr_table = self.ijlmr_table.clone();
        fork.isl_table = self.isl_table.clone();
        fork.bfhm_table = self.bfhm_table.clone();
        fork.drjn_table = self.drjn_table.clone();
        fork.isl_config = self.isl_config;
        fork.write_back = self.write_back;
        fork.objective = self.objective;
        fork.staleness_bound = self.staleness_bound;
        fork.spares = self.spares.clone();
        Ok(fork)
    }

    /// The planner's candidate set: everything currently prepared, plus
    /// the index-free baselines. Served from the candidacy cache —
    /// positive and negative candidacy ("BFHM is not prepared") are
    /// evaluated once per preparation state and reused by every plan
    /// until a `prepare_*`/`attach_*` call bumps it, rather than being
    /// re-derived on each planning call.
    pub fn candidates(&self) -> Candidates {
        (*self.cached_candidates()).clone()
    }

    /// How many times the candidate set has actually been evaluated —
    /// stays flat across any number of plans while the preparation state
    /// is unchanged (the negative-candidacy caching contract).
    pub fn candidate_evaluations(&self) -> u64 {
        self.candidate_evaluations.load(Ordering::Relaxed)
    }

    fn cached_candidates(&self) -> Arc<Candidates> {
        let mut guard = self.candidates_cache.lock().expect("candidates cache");
        match guard.as_ref() {
            Some((config, cached)) if *config == self.isl_config => cached.clone(),
            _ => {
                self.candidate_evaluations.fetch_add(1, Ordering::Relaxed);
                let fresh = Arc::new(Candidates {
                    baselines: true,
                    ijlmr: self.ijlmr_table.is_some(),
                    isl: self.isl_table.as_ref().map(|_| self.isl_config),
                    bfhm: self.bfhm_table.as_ref().map(|(_, c)| c.clone()),
                    drjn: self.drjn_table.as_ref().map(|(_, c)| *c),
                });
                *guard = Some((self.isl_config, fresh.clone()));
                fresh
            }
        }
    }

    /// The ranked plan for the stored `k` (see [`RankJoinExecutor::plan_with_k`]).
    pub fn plan(&self) -> Result<Arc<Plan>> {
        self.plan_with_k(self.query.k)
    }

    /// Returns the ranked cost-based plan for this query at `k`,
    /// computing and caching it (keyed by `(k, objective)`) on first use.
    ///
    /// Statistics come from the shared handle: the first call collects
    /// them through the metric-free admin path; maintained writes
    /// registered on the handle update them in place; and when the
    /// mutated fraction exceeds [`RankJoinExecutor::staleness_bound`] the
    /// handle transparently re-collects. Cached plans are versioned
    /// against the handle, so every maintained write invalidates exactly
    /// the plans it makes stale —
    /// [`Plan::explain`](crate::planner::Plan::explain) reports which
    /// statistics path the plan used.
    pub fn plan_with_k(&self, k: usize) -> Result<Arc<Plan>> {
        let key = (
            k,
            self.objective,
            self.isl_config,
            self.staleness_bound.to_bits(),
        );
        // Fast path: a cached plan whose recorded handle version is still
        // current needs no statistics work at all (version equality means
        // no delta, invalidation, or collection happened since it was
        // computed — so the staleness verdict is unchanged too).
        if let Some((version, plan)) = self.plan_cache.lock().expect("plan cache").get(&key) {
            if *version == self.stats.version() {
                return Ok(plan.clone());
            }
        }
        let planned = self
            .stats
            .stats_for_planning(self.engine.cluster(), self.staleness_bound)?;
        let mut plan = planner::plan(
            &planned.stats,
            &self.query,
            k,
            self.engine.cluster().cost_model(),
            self.objective,
            &self.cached_candidates(),
        );
        plan.stats_source = planned.source;
        let plan = Arc::new(plan);
        self.plan_cache
            .lock()
            .expect("plan cache")
            .insert(key, (planned.version, plan.clone()));
        Ok(plan)
    }

    /// The bookkeeping of a run for the top `k`, pinned to
    /// `pinned_version`, recycling through this executor's spares.
    fn meta(&self, k: usize, pinned_version: Option<u64>) -> CursorMeta {
        CursorMeta::new(k, pinned_version, self.spares.clone())
    }

    /// Executes `algorithm` with the stored `k`.
    pub fn execute(&self, algorithm: Algorithm) -> Result<QueryOutcome> {
        self.execute_with_k(algorithm, self.query.k)
    }

    /// Executes `algorithm` with an overridden `k` — over the shared
    /// query, which is not copied (the MapReduce baselines excepted).
    ///
    /// `k = 0` short-circuits to an empty, zero-cost outcome for every
    /// algorithm (the [`RankJoinQuery::with_k`] contract) — no store
    /// access, no planning.
    pub fn execute_with_k(&self, algorithm: Algorithm, k: usize) -> Result<QueryOutcome> {
        if k == 0 {
            return Ok(QueryOutcome::new(
                algorithm.name(),
                Vec::new(),
                rj_store::metrics::MetricsSnapshot::default(),
            ));
        }
        let cluster = self.engine.cluster();
        match algorithm {
            Algorithm::Auto => {
                let plan = self.plan_with_k(k)?;
                let best = plan.best().ok_or(RankJoinError::Internal(
                    "planner produced no candidate (baselines missing)",
                ))?;
                let rank = plan.ranked.len() as f64;
                Ok(self
                    .execute_with_k(best, k)?
                    .with_extra("planner_candidates", rank))
            }
            // The MapReduce baselines take the query with its `k` inside.
            Algorithm::Hive => hive::run(&self.engine, &self.query.with_k(k)),
            Algorithm::Pig => pig::run(&self.engine, &self.query.with_k(k)),
            Algorithm::Ijlmr => {
                let t = self
                    .ijlmr_table
                    .as_deref()
                    .ok_or_else(|| RankJoinError::MissingIndex("ijlmr (unprepared)".into()))?;
                ijlmr::run(&self.engine, &self.query.with_k(k), t)
            }
            Algorithm::Isl => {
                let t = self
                    .isl_table
                    .as_deref()
                    .ok_or_else(|| RankJoinError::MissingIndex("isl (unprepared)".into()))?;
                let batch = self.isl_config.batches();
                isl::run_spec(cluster, &self.spec, self.meta(k, None), t, &batch)
            }
            Algorithm::Bfhm => {
                let (t, config) = self
                    .bfhm_table
                    .as_ref()
                    .ok_or_else(|| RankJoinError::MissingIndex("bfhm (unprepared)".into()))?;
                let meta = self.meta(k, None);
                bfhm::run_shared(cluster, &self.query, meta, t, config, self.write_back)
            }
            Algorithm::Drjn => {
                let (t, config) = self
                    .drjn_table
                    .as_ref()
                    .ok_or_else(|| RankJoinError::MissingIndex("drjn (unprepared)".into()))?;
                drjn::run_shared(&self.engine, &self.query, self.meta(k, None), t, config)
            }
        }
    }

    /// Opens a pull-based [`RankedCursor`] over `algorithm` targeting the
    /// top `k_hint` results — the cursor-shaped sibling of
    /// [`RankJoinExecutor::execute_with_k`]. The cursor is pinned to the
    /// shared statistics handle's current version, so a paused state
    /// resumed through [`RankJoinExecutor::resume_cursor`] after any
    /// maintained write or re-preparation fails with
    /// [`RankJoinError::StaleCursor`] instead of silently mixing epochs.
    ///
    /// `Algorithm::Auto` plans once at open (priced at `k_hint`) and opens
    /// the chosen algorithm's cursor: it reports, parks and resumes as
    /// that algorithm.
    pub fn open_cursor(
        &self,
        algorithm: Algorithm,
        k_hint: usize,
    ) -> Result<Box<dyn RankedCursor>> {
        let cluster = self.engine.cluster();
        match algorithm {
            Algorithm::Auto => {
                // Plan first: the first plan may run the statistics pass,
                // which bumps the handle version the cursor pins.
                let best = self
                    .plan_with_k(k_hint)?
                    .best()
                    .ok_or(RankJoinError::Internal(
                        "planner produced no candidate (baselines missing)",
                    ))?;
                self.open_cursor(best, k_hint)
            }
            Algorithm::Isl => {
                let t = self
                    .isl_table
                    .as_deref()
                    .ok_or_else(|| RankJoinError::MissingIndex("isl (unprepared)".into()))?;
                // The shared two-side spec, both sides descended.
                Ok(Box::new(IslCursor::open_on(
                    cluster,
                    &self.spec,
                    self.meta(k_hint, Some(self.stats.version())),
                    t,
                    &self.isl_config.batches(),
                    &[SideAccess::Descend; 2],
                )?))
            }
            Algorithm::Bfhm => {
                let (t, config) = self
                    .bfhm_table
                    .as_ref()
                    .ok_or_else(|| RankJoinError::MissingIndex("bfhm (unprepared)".into()))?;
                Ok(Box::new(BfhmCursor::open(
                    cluster,
                    &self.query,
                    self.meta(k_hint, Some(self.stats.version())),
                    t,
                    config,
                    self.write_back,
                )?))
            }
            Algorithm::Drjn => {
                let (t, config) = self
                    .drjn_table
                    .as_ref()
                    .ok_or_else(|| RankJoinError::MissingIndex("drjn (unprepared)".into()))?;
                Ok(Box::new(DrjnCursor::open(
                    cluster,
                    &self.query,
                    self.meta(k_hint, Some(self.stats.version())),
                    t,
                    config,
                )?))
            }
            Algorithm::Hive => Ok(Box::new(MaterializedCursor::open(
                cluster,
                &self.query,
                k_hint,
                MaterializedSource::Hive,
                "HIVE",
                Some(self.stats.version()),
            ))),
            Algorithm::Pig => Ok(Box::new(MaterializedCursor::open(
                cluster,
                &self.query,
                k_hint,
                MaterializedSource::Pig,
                "PIG",
                Some(self.stats.version()),
            ))),
            Algorithm::Ijlmr => {
                let t = self
                    .ijlmr_table
                    .clone()
                    .ok_or_else(|| RankJoinError::MissingIndex("ijlmr (unprepared)".into()))?;
                Ok(Box::new(MaterializedCursor::open(
                    cluster,
                    &self.query,
                    k_hint,
                    MaterializedSource::Ijlmr(t),
                    "IJLMR",
                    Some(self.stats.version()),
                )))
            }
        }
    }

    /// Resumes a paused [`CursorState`] on this executor's cluster,
    /// refusing a statistics-version mismatch with
    /// [`RankJoinError::StaleCursor`] (see the [`CursorState`] coherence
    /// contract).
    pub fn resume_cursor(&self, state: CursorState) -> Result<Box<dyn RankedCursor>> {
        state.check_version(self.stats.version())?;
        state.resume_on(self.engine.cluster())
    }

    /// Re-targets a paused ISL state to a deeper `new_k` and resumes it —
    /// the partial-work warm start (see
    /// [`CursorState::resume_retargeted`]), with the same staleness check
    /// as [`RankJoinExecutor::resume_cursor`].
    pub fn resume_cursor_retargeted(
        &self,
        state: CursorState,
        new_k: usize,
    ) -> Result<Box<dyn RankedCursor>> {
        state.check_version(self.stats.version())?;
        state.resume_retargeted(self.engine.cluster(), new_k)
    }

    /// Prices the next page of a cursor-shaped execution: the predicted
    /// *marginal* cost of deepening `algorithm` from `k_consumed` ranks
    /// to `k_consumed + page` — plans priced per-batch instead of
    /// per-query. Served from the same versioned plan cache as
    /// [`RankJoinExecutor::plan_with_k`]; `Algorithm::Auto` prices the
    /// deeper plan's winner.
    pub fn price_page(
        &self,
        algorithm: Algorithm,
        k_consumed: usize,
        page: usize,
    ) -> Result<CostEstimate> {
        let to = k_consumed.saturating_add(page).max(1);
        let deep = self.plan_with_k(to)?;
        let priced = if algorithm == Algorithm::Auto {
            deep.best().ok_or(RankJoinError::Internal(
                "planner produced no candidate (baselines missing)",
            ))?
        } else {
            algorithm
        };
        let not_candidate =
            RankJoinError::Internal("algorithm is not a candidate under the current preparation");
        if k_consumed == 0 {
            return deep.estimate(priced).cloned().ok_or(not_candidate);
        }
        let shallow = self.plan_with_k(k_consumed)?;
        deep.marginal_from(&shallow, priced).ok_or(not_candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::statsmaint::StatsMaintainer;
    use crate::testsupport::running_example_cluster;

    #[test]
    fn all_algorithms_agree_via_the_facade() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_ijlmr().unwrap();
        ex.prepare_isl().unwrap();
        ex.prepare_bfhm(BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        })
        .unwrap();
        ex.prepare_drjn(DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        })
        .unwrap();

        let want = oracle::topk(&c, &q).unwrap();
        for algo in Algorithm::ALL {
            let got = ex.execute(algo).unwrap();
            assert_eq!(got.results, want, "{}", algo.name());
            assert_eq!(got.algorithm, algo.name());
        }
    }

    #[test]
    fn unprepared_index_errors() {
        let (c, q) = running_example_cluster();
        let ex = RankJoinExecutor::new(&c, q);
        for algo in [
            Algorithm::Ijlmr,
            Algorithm::Isl,
            Algorithm::Bfhm,
            Algorithm::Drjn,
        ] {
            assert!(matches!(
                ex.execute(algo).unwrap_err(),
                RankJoinError::MissingIndex(_)
            ));
            assert!(algo.needs_index());
        }
        assert!(!Algorithm::Hive.needs_index());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["HIVE", "PIG", "IJLMR", "ISL", "BFHM", "DRJN"]);
        assert_eq!(Algorithm::Auto.name(), "AUTO");
        assert!(!Algorithm::Auto.needs_index());
    }

    #[test]
    fn auto_matches_oracle_and_caches_plans() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        ex.prepare_bfhm(BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        })
        .unwrap();
        for k in [1, 3, 10, 38] {
            let qk = q.with_k(k);
            let got = ex.execute_with_k(Algorithm::Auto, k).unwrap();
            assert_eq!(got.results, oracle::topk(&c, &qk).unwrap(), "k={k}");
            assert!(got.extra("planner_candidates").unwrap() >= 4.0);
        }
        // Cached: the same (k, objective) returns the same Arc.
        let p1 = ex.plan_with_k(3).unwrap();
        let p2 = ex.plan_with_k(3).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p1, &p2), "plan must be cached");
        // Different objective → different cache slot.
        ex.objective = crate::planner::Objective::Dollars;
        let p3 = ex.plan_with_k(3).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn auto_without_any_index_falls_back_to_baselines() {
        let (c, q) = running_example_cluster();
        let ex = RankJoinExecutor::new(&c, q.clone());
        let got = ex.execute(Algorithm::Auto).unwrap();
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
        let plan = ex.plan().unwrap();
        assert!(matches!(
            plan.best().unwrap(),
            Algorithm::Hive | Algorithm::Pig
        ));
    }

    #[test]
    fn k_zero_short_circuits_every_algorithm() {
        let (c, q) = running_example_cluster();
        let ex = RankJoinExecutor::new(&c, q);
        // No index prepared, yet k = 0 is answerable for all of them.
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let got = ex.execute_with_k(algo, 0).unwrap();
            assert!(got.results.is_empty(), "{}", algo.name());
            assert_eq!(got.metrics.kv_reads, 0, "{}", algo.name());
            assert_eq!(got.metrics.sim_seconds, 0.0, "{}", algo.name());
        }
    }

    #[test]
    fn re_preparation_replaces_the_index() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        let kvs_first = c.table(&isl::index_table_name(&q)).unwrap().kv_count();
        // Second prepare must not error, must not double entries, and the
        // query must stay correct.
        ex.prepare_isl().unwrap();
        let kvs_second = c.table(&isl::index_table_name(&q)).unwrap().kv_count();
        assert_eq!(kvs_first, kvs_second, "rebuild must replace, not append");
        assert_eq!(
            ex.execute(Algorithm::Isl).unwrap().results,
            oracle::topk(&c, &q).unwrap()
        );
        // Same for the other three index builders.
        ex.prepare_ijlmr().unwrap();
        ex.prepare_ijlmr().unwrap();
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        };
        ex.prepare_bfhm(config.clone()).unwrap();
        ex.prepare_bfhm(config).unwrap();
        ex.prepare_drjn(DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        })
        .unwrap();
        ex.prepare_drjn(DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        })
        .unwrap();
        let want = oracle::topk(&c, &q).unwrap();
        for algo in Algorithm::ALL {
            assert_eq!(ex.execute(algo).unwrap().results, want, "{}", algo.name());
        }
    }

    #[test]
    fn shared_stats_handle_collects_once_across_executors() {
        let (c, q) = running_example_cluster();
        let mut builder = RankJoinExecutor::new(&c, q.clone());
        builder.prepare_isl().unwrap();
        builder.prepare_ijlmr().unwrap();
        let _ = builder.plan().unwrap();
        assert_eq!(builder.stats_handle().collections(), 1);

        // A fork_metrics clone serving the same pair adopts the handle:
        // no second statistics pass, observable on both the collection
        // counter and the admin-read ledger.
        let fork = c.fork_metrics();
        let mut other = RankJoinExecutor::new(&fork, q.clone());
        other.attach_isl(&isl::index_table_name(&q)).unwrap();
        other.attach_stats(builder.stats_handle()).unwrap();
        let admin_before = fork.metrics().snapshot().admin_kv_reads;
        let plan = other.plan().unwrap();
        assert_eq!(builder.stats_handle().collections(), 1);
        assert_eq!(fork.metrics().snapshot().admin_kv_reads, admin_before);
        assert!(plan.best().is_some());

        // Adopting a further index after sharing changes this executor's
        // candidate set, not the base tables — the shared snapshot must
        // survive (no re-collection for anyone).
        other.attach_ijlmr(&ijlmr::index_table_name(&q)).unwrap();
        let plan = other.plan().unwrap();
        assert_eq!(builder.stats_handle().collections(), 1);
        assert_eq!(fork.metrics().snapshot().admin_kv_reads, admin_before);
        assert!(plan.estimate(Algorithm::Ijlmr).is_some());

        // Re-preparing through one executor invalidates coherently: the
        // other's next plan comes from a fresh pass.
        builder.prepare_isl().unwrap();
        let _ = other.plan().unwrap();
        assert_eq!(builder.stats_handle().collections(), 2);
    }

    #[test]
    fn tightening_the_staleness_bound_takes_effect_immediately() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        let _ = ex.plan().unwrap();
        // One mutation on an 11-tuple side ≈ 9% staleness.
        ex.stats_handle()
            .apply_delta(&crate::statsmaint::StatsDelta {
                table: &q.left.table,
                join_col: &q.left.join_col,
                score_col: &q.left.score_col,
                op: crate::statsmaint::DeltaOp::Insert,
                join_fingerprint: 7,
                score: 0.5,
                entry_bytes: 32.0,
            });
        let p1 = ex.plan().unwrap();
        assert!(matches!(
            p1.stats_source,
            crate::planner::StatsSource::Maintained { .. }
        ));
        // Tightening the public bound must not be masked by the cached
        // plan: the next plan re-collects.
        ex.staleness_bound = 0.01;
        let p2 = ex.plan().unwrap();
        assert!(
            matches!(
                p2.stats_source,
                crate::planner::StatsSource::Recollected { .. }
            ),
            "bound change ignored: {:?}",
            p2.stats_source
        );
        assert_eq!(ex.stats_handle().collections(), 2);

        // The same contract on a three-way spec's access plans. The
        // re-collection under the tighter bound moves the version, so
        // the looser-bound plan cached before it is planned again from
        // the new snapshot instead of served from the old one.
        let (c, spec) = crate::testsupport::three_way_path_cluster(3);
        let mut exec = crate::multiway::SpecExecutor::new(&c, spec.clone());
        let stats = exec.stats_handle();
        exec.plan_access(3).unwrap();
        // One mutation on the 13-tuple side C ≈ 8% staleness.
        let c_side = &spec.sides[2];
        stats.apply_delta(&crate::statsmaint::StatsDelta {
            table: &c_side.table,
            join_col: &c_side.join_col,
            score_col: &c_side.score_col,
            op: crate::statsmaint::DeltaOp::Insert,
            join_fingerprint: 7,
            score: 0.5,
            entry_bytes: 32.0,
        });
        let loose = exec.plan_access(3).unwrap();
        assert_eq!(stats.collections(), 1);
        exec.staleness_bound = 0.01;
        let version = stats.version();
        exec.plan_access(3).unwrap();
        assert_eq!(stats.collections(), 2);
        assert!(stats.version() > version, "a collection moves the version");
        exec.staleness_bound = DEFAULT_STALENESS_BOUND;
        assert!(
            !Arc::ptr_eq(&loose, &exec.plan_access(3).unwrap()),
            "a plan from before the re-collection was served"
        );
    }

    #[test]
    fn attach_stats_rejects_a_different_query_pair() {
        let (c, q) = running_example_cluster();
        let ex = RankJoinExecutor::new(&c, q.clone());
        let mut swapped = q.clone();
        std::mem::swap(&mut swapped.left, &mut swapped.right);
        let mut other = RankJoinExecutor::new(&c, swapped);
        assert!(other.attach_stats(ex.stats_handle()).is_err());
    }

    #[test]
    fn candidate_evaluations_stay_flat_until_preparation_changes() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        let evals = ex.candidate_evaluations();
        for k in [1, 2, 3, 5, 8] {
            let _ = ex.plan_with_k(k).unwrap();
            let _ = ex.candidates();
        }
        assert_eq!(
            ex.candidate_evaluations(),
            evals + 1,
            "negative candidacy (BFHM/DRJN unprepared) must be cached, \
             not re-checked per plan"
        );
        // A preparation change is the re-check signal.
        ex.prepare_bfhm(BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        })
        .unwrap();
        let _ = ex.plan().unwrap();
        assert_eq!(ex.candidate_evaluations(), evals + 2);
        assert!(ex.candidates().bfhm.is_some());
        // Mutating the public ISL config must not serve a stale cache.
        ex.isl_config = IslConfig::uniform(7);
        assert_eq!(ex.candidates().isl, Some(IslConfig::uniform(7)));
    }

    #[test]
    fn attach_adopts_existing_indices() {
        let (c, q) = running_example_cluster();
        let mut builder = RankJoinExecutor::new(&c, q.clone());
        builder.prepare_isl().unwrap();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        assert!(ex.attach_isl("no_such_table").is_err());
        ex.attach_isl(&isl::index_table_name(&q)).unwrap();
        assert_eq!(
            ex.execute(Algorithm::Isl).unwrap().results,
            oracle::topk(&c, &q).unwrap()
        );
    }
}
