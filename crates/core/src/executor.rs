//! The one executor: a uniform entry point over all six rank-join
//! algorithms, for a join spec of any arity.
//!
//! The executor owns the MapReduce engine handle, remembers which indices
//! have been built for its spec, and dispatches [`Algorithm`] choices to
//! the right module — the shape the experiment harness, the serving layer
//! and the examples drive everything through. ISL (§4.2) is the one
//! algorithm whose index and HRJN descent serve any join tree, so it runs
//! every arity the same way: every side descends its score list (the
//! paper's algorithm). BFHM, DRJN, IJLMR, Hive and Pig
//! are binary algorithms: they read the spec's binary form
//! ([`JoinSpec::as_binary`]) and answer [`RankJoinError::InvalidSpec`]
//! for a spec without one, where [`Algorithm::Auto`] has one candidate,
//! ISL.
//!
//! **One door per run.** Every algorithm's run is opened in one place
//! (`open_isl`, `open_bfhm`, `open_drjn`, `open_mr`, and `open_empty`
//! for every `k = 0` run) as the crate's one cursor ([`crate::cursor`]);
//! [`RankJoinExecutor::execute_with_k`] is that cursor drained in one
//! pull, and [`RankJoinExecutor::open_cursor`] hands it out.
//!
//! **`k` belongs to the run, not the descriptor.** The executor builds its
//! spec (and its binary query) once, behind `Arc`s that every run,
//! cursor, parked [`CursorState`] and [`RankJoinExecutor::fork_onto`]
//! fork shares. A run at any `k` passes `(descriptor, k)` to the driver;
//! the descriptor's own `k` is only the default of
//! [`RankJoinExecutor::execute`] and [`RankJoinExecutor::plan`].
//!
//! **Spares belong to the executor.** Every run or cursor an executor
//! opens takes its buffers from the executor's spare list and gives them
//! back when it drops (`crate::spare`); a
//! [`RankJoinExecutor::fork_onto`] fork is the same executor over another
//! ledger and recycles through the same list.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use rj_mapreduce::MapReduceEngine;
use rj_store::cluster::Cluster;

use crate::bfhm::{self, maintenance::WriteBackPolicy, BfhmConfig, BfhmCore};
use crate::cursor::{
    CursorMeta, CursorState, MaterializedCore, MaterializedSource, RankedCursor, StepCursor,
};
use crate::drjn::{self, DrjnConfig, DrjnCore};
use crate::error::{RankJoinError, Result};
use crate::ijlmr;
use crate::indexutil::BuildStats;
use crate::isl::{self, IslConfig, IslCore};
use crate::planner::{self, Candidates, Objective, Plan};
use crate::query::{JoinSpec, RankJoinQuery};
use crate::spare::Spares;
use crate::stats::QueryOutcome;
use crate::statsmaint::SharedTableStats;

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
    /// preparation. A spec without a binary form has one candidate, ISL.
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
}

/// One of the four indices, with the configuration a query over it
/// needs.
enum Index {
    Ijlmr,
    Isl,
    Bfhm(BfhmConfig),
    Drjn(DrjnConfig),
}

/// The index tables an executor prepared or attached.
#[derive(Clone, Default)]
struct Indices {
    ijlmr: Option<Arc<str>>,
    isl: Option<Arc<str>>,
    bfhm: Option<(Arc<str>, BfhmConfig)>,
    drjn: Option<(Arc<str>, DrjnConfig)>,
}

impl Indices {
    /// Records `table` as `index`'s table, or forgets the index.
    fn set(&mut self, index: &Index, table: Option<Arc<str>>) {
        match index {
            Index::Ijlmr => self.ijlmr = table,
            Index::Isl => self.isl = table,
            Index::Bfhm(config) => self.bfhm = table.map(|t| (t, config.clone())),
            Index::Drjn(config) => self.drjn = table.map(|t| (t, *config)),
        }
    }

    fn tables(&self) -> impl Iterator<Item = &Arc<str>> {
        let bfhm = self.bfhm.as_ref().map(|(table, _)| table);
        let drjn = self.drjn.as_ref().map(|(table, _)| table);
        [self.ijlmr.as_ref(), self.isl.as_ref(), bfhm, drjn]
            .into_iter()
            .flatten()
    }
}

/// The index in `slot`, or [`RankJoinError::MissingIndex`].
fn prepared<'a, T>(slot: &'a Option<T>, name: &str) -> Result<&'a T> {
    slot.as_ref()
        .ok_or_else(|| RankJoinError::MissingIndex(format!("{name} (unprepared)")))
}

/// `(k, objective, ISL batch config)`.
type PlanKey = (usize, Objective, IslConfig);

/// What the binary algorithms and the cost-based planner answer for a
/// spec without a binary form.
const NOT_BINARY: RankJoinError = RankJoinError::InvalidSpec(
    "BFHM, DRJN, IJLMR, Hive, Pig and the cost-based planner join two sides",
);

/// Facade over engine + indices for one join spec (see the module docs
/// for why `k` is an argument of every run rather than part of the
/// spec).
pub struct RankJoinExecutor {
    engine: MapReduceEngine,
    /// The spec, built once and shared by every run, cursor and fork.
    spec: Arc<JoinSpec>,
    /// The spec's binary form, which the binary algorithms and the
    /// planner read; `None` for a spec without one.
    query: Option<Arc<RankJoinQuery>>,
    indices: Indices,
    /// ISL batch sizes used at query time: side 0 pulls `batch_left`
    /// rows per turn, every other side `batch_right`.
    pub isl_config: IslConfig,
    /// BFHM write-back policy used at query time.
    pub write_back: WriteBackPolicy,
    /// What [`Algorithm::Auto`] optimizes for (default: turnaround time).
    pub objective: Objective,
    /// Shared, incrementally-maintained statistics handle. Collected
    /// lazily on the first cost-based plan, updated in place by
    /// [`crate::maintenance::MaintainedSide`] writes registered on it,
    /// and invalidated wholesale whenever an index is (re-)prepared.
    /// `Arc`-shared so `fork_metrics` clones serving the same spec reuse
    /// one snapshot instead of each re-collecting.
    stats: Arc<SharedTableStats>,
    /// Plan cache: repeated `(k, objective)` queries skip planning
    /// entirely. The ISL batch config is part of the key because it is a
    /// public field that feeds the estimate — a caller mutating it must
    /// not be served a plan computed under the old value.
    /// Each entry records the statistics-handle version it was computed
    /// at, so maintained writes coherently invalidate plans across every
    /// executor sharing the handle.
    plan_cache: Mutex<HashMap<PlanKey, (u64, Arc<Plan>)>>,
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
        RankJoinExecutor::over(cluster, spec, Some(Arc::new(query)), stats)
    }

    /// Creates an executor for `spec` of any arity on `cluster`. A spec
    /// with a binary form is served as that query
    /// ([`RankJoinExecutor::new`]).
    pub(crate) fn for_spec(cluster: &Cluster, spec: JoinSpec) -> Self {
        if let Some(query) = spec.as_binary() {
            return RankJoinExecutor::new(cluster, query);
        }
        let spec = Arc::new(spec);
        let stats = SharedTableStats::new(spec.clone());
        RankJoinExecutor::over(cluster, spec, None, stats)
    }

    /// An executor with no index and default tuning over an already
    /// shared spec, query and statistics handle.
    fn over(
        cluster: &Cluster,
        spec: Arc<JoinSpec>,
        query: Option<Arc<RankJoinQuery>>,
        stats: Arc<SharedTableStats>,
    ) -> Self {
        RankJoinExecutor {
            engine: MapReduceEngine::new(cluster.clone()),
            spec,
            query,
            indices: Indices::default(),
            isl_config: IslConfig::default(),
            write_back: WriteBackPolicy::Off,
            objective: Objective::Time,
            stats,
            plan_cache: Mutex::new(HashMap::new()),
            spares: Spares::new(),
        }
    }

    /// The underlying engine (for direct module calls).
    pub fn engine(&self) -> &MapReduceEngine {
        &self.engine
    }

    /// The binary query this executor serves.
    ///
    /// # Panics
    ///
    /// When the spec has no binary form (three or more sides, see
    /// [`JoinSpec::as_binary`]); [`RankJoinExecutor::spec`] describes
    /// every executor.
    pub fn query(&self) -> &RankJoinQuery {
        match &self.query {
            Some(query) => query,
            None => panic!("a spec without a binary form has no binary query"),
        }
    }

    /// The binary form the binary algorithms read.
    fn binary_query(&self) -> Result<&Arc<RankJoinQuery>> {
        self.query.as_ref().ok_or(NOT_BINARY)
    }

    /// The spec this executor serves, built once.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// The spec's canonical fingerprint ([`JoinSpec::fingerprint`]) —
    /// the sharing/caching key serving layers coalesce on.
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint()
    }

    /// The shared statistics handle. Register it on a
    /// [`crate::maintenance::MaintainedSide`] (via
    /// [`with_stats`](crate::maintenance::MaintainedSide::with_stats)) so
    /// writes keep plans fresh. Every [`RankJoinExecutor::fork_onto`] fork
    /// shares it, so the forks plan from one snapshot; its version is the
    /// one every cursor and serving cache over this executor pins.
    pub fn stats_handle(&self) -> Arc<SharedTableStats> {
        self.stats.clone()
    }

    /// Drops cached plans and statistics — used by `prepare_*`, which
    /// rebuilds an index from the *current* base data and so doubles as
    /// the caller's explicit "re-sync with the world" signal. The
    /// statistics invalidation propagates through the shared handle to
    /// every executor sharing it (their versioned plan-cache entries go
    /// stale with it).
    fn invalidate_plans(&mut self) {
        self.stats.invalidate();
        self.clear_plans();
    }

    /// Drops only this executor's cached plans — used by `attach_*`:
    /// adopting an already-built index changes the *candidate set*, but
    /// not the base tables the shared statistics describe, so wiping the
    /// shared snapshot (and forcing every sharer through a redundant full
    /// pass) would be invalidation at the wrong altitude.
    fn clear_plans(&mut self) {
        self.plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Builds `index` from the current base data, dropping and replacing
    /// any earlier build (safe re-preparation). The index is forgotten
    /// while it rebuilds, so a failed build leaves no table behind that a
    /// run could dispatch to.
    fn prepare(&mut self, index: Index) -> Result<BuildStats> {
        let table = match &index {
            Index::Isl => isl::index::index_table_name(&self.spec),
            Index::Ijlmr => ijlmr::index_table_name(self.binary_query()?),
            Index::Bfhm(_) => bfhm::index_table_name(self.binary_query()?),
            Index::Drjn(_) => drjn::index_table_name(self.binary_query()?),
        };
        self.invalidate_plans();
        self.indices.set(&index, None);
        if self.engine.cluster().table(&table).is_ok() {
            self.engine.cluster().drop_table(&table)?;
        }
        let engine = &self.engine;
        let built = match &index {
            Index::Isl => isl::index::build(engine, &self.spec, &table)?,
            Index::Ijlmr => ijlmr::build(engine, self.binary_query()?, &table)?,
            Index::Bfhm(config) => {
                bfhm::build_pair(engine, self.binary_query()?, &table, config)?.0
            }
            Index::Drjn(config) => drjn::build_pair(engine, self.binary_query()?, &table, config)?,
        };
        self.indices.set(&index, Some(table.into()));
        Ok(built)
    }

    /// Adopts `table`, an already-built `index` (e.g. one another
    /// executor for the same spec prepared), without rebuilding.
    fn attach(&mut self, index: Index, table: &str) -> Result<()> {
        if !matches!(index, Index::Isl) {
            self.binary_query()?;
        }
        self.engine
            .cluster()
            .table(table)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        self.clear_plans();
        self.indices.set(&index, Some(table.into()));
        Ok(())
    }

    /// Builds the IJLMR index, replacing any earlier build.
    pub fn prepare_ijlmr(&mut self) -> Result<BuildStats> {
        self.prepare(Index::Ijlmr)
    }

    /// Builds the ISL index over every side, replacing any earlier build.
    pub fn prepare_isl(&mut self) -> Result<BuildStats> {
        self.prepare(Index::Isl)
    }

    /// Builds the BFHM index, replacing any earlier build.
    pub fn prepare_bfhm(&mut self, config: BfhmConfig) -> Result<BuildStats> {
        self.prepare(Index::Bfhm(config))
    }

    /// Builds the DRJN matrices, replacing any earlier build.
    pub fn prepare_drjn(&mut self, config: DrjnConfig) -> Result<BuildStats> {
        self.prepare(Index::Drjn(config))
    }

    /// Adopts an already-built IJLMR index table without rebuilding. Kept
    /// with [`RankJoinExecutor::attach_isl`], one per index: tests share
    /// one build across executors with it.
    pub fn attach_ijlmr(&mut self, table: &str) -> Result<()> {
        self.attach(Index::Ijlmr, table)
    }

    /// Adopts an already-built ISL index table without rebuilding.
    pub fn attach_isl(&mut self, table: &str) -> Result<()> {
        self.attach(Index::Isl, table)
    }

    /// Adopts an already-built BFHM index table without rebuilding.
    /// `config` must match the build (bucket count is verified at query
    /// time against the index metadata). Kept for tests, as
    /// [`RankJoinExecutor::attach_ijlmr`] is.
    pub fn attach_bfhm(&mut self, table: &str, config: BfhmConfig) -> Result<()> {
        self.attach(Index::Bfhm(config), table)
    }

    /// The ISL index table currently prepared or attached, if any.
    pub fn isl_table(&self) -> Option<&str> {
        self.indices.isl.as_deref()
    }

    /// Clones this executor onto `cluster` — typically a
    /// [`Cluster::fork_metrics`] fork, giving the clone its own metering
    /// ledger over the same shared data. The clone shares the spec and
    /// every attached index table, copies all tuning fields
    /// (`isl_config`, `write_back`, `objective`, ...), and shares the
    /// *same* statistics handle, so plans and maintained-write
    /// invalidations stay coherent across all forks while each fork's work
    /// is billed to its own ledger. The clone also shares this executor's
    /// spare list: its runs recycle the buffers this executor's runs gave
    /// back, and the other way round.
    pub fn fork_onto(&self, cluster: &Cluster) -> Result<RankJoinExecutor> {
        for table in self.indices.tables() {
            cluster
                .table(table)
                .map_err(|_| RankJoinError::MissingIndex(table.to_string()))?;
        }
        let mut fork = RankJoinExecutor::over(
            cluster,
            self.spec.clone(),
            self.query.clone(),
            self.stats.clone(),
        );
        fork.indices = self.indices.clone();
        fork.isl_config = self.isl_config;
        fork.write_back = self.write_back;
        fork.objective = self.objective;
        fork.spares = self.spares.clone();
        Ok(fork)
    }

    /// The planner's candidate set: everything currently prepared (ISL
    /// with the current `isl_config`), plus the index-free baselines.
    pub fn candidates(&self) -> Candidates {
        Candidates {
            baselines: true,
            ijlmr: self.indices.ijlmr.is_some(),
            isl: self.indices.isl.as_ref().map(|_| self.isl_config),
            bfhm: self.indices.bfhm.as_ref().map(|(_, c)| c.clone()),
            drjn: self.indices.drjn.as_ref().map(|(_, c)| *c),
        }
    }

    /// The ranked plan for the stored `k` (see [`RankJoinExecutor::plan_with_k`]).
    pub fn plan(&self) -> Result<Arc<Plan>> {
        self.plan_with_k(self.spec.k)
    }

    /// Returns the ranked cost-based plan for this query at `k`,
    /// computing and caching it (keyed by `(k, objective)`) on first use;
    /// [`RankJoinError::InvalidSpec`] for a spec without a binary form.
    ///
    /// Statistics come from the shared handle: the first call collects
    /// them through the metric-free admin path; maintained writes
    /// registered on the handle update them in place; and when the
    /// mutated fraction exceeds the handle's staleness bound it
    /// transparently re-collects. Cached plans are versioned
    /// against the handle, so every maintained write invalidates exactly
    /// the plans it makes stale —
    /// [`Plan::explain`](crate::planner::Plan::explain) reports which
    /// statistics path the plan used.
    pub fn plan_with_k(&self, k: usize) -> Result<Arc<Plan>> {
        let query = self.binary_query()?;
        let key = (k, self.objective, self.isl_config);
        // Fast path: a cached plan whose recorded handle version is still
        // current needs no statistics work at all (version equality means
        // no delta, invalidation, or collection happened since it was
        // computed — so the staleness verdict is unchanged too).
        if let Some((version, plan)) = self.plan_cache.lock().expect("plan cache").get(&key) {
            if *version == self.stats.version() {
                return Ok(plan.clone());
            }
        }
        let fresh = self.stats.stats_for_planning(self.engine.cluster())?;
        let mut plan = planner::plan(
            &fresh.stats,
            query,
            k,
            self.engine.cluster().cost_model(),
            self.objective,
            &self.candidates(),
        );
        plan.stats_source = fresh.source;
        let plan = Arc::new(plan);
        self.plan_cache
            .lock()
            .expect("plan cache")
            .insert(key, (fresh.version, plan.clone()));
        Ok(plan)
    }

    /// What [`Algorithm::Auto`] runs at `k`, out of how many candidates:
    /// the planner's cheapest for a spec with a binary form, ISL otherwise.
    fn choose(&self, k: usize) -> Result<(Algorithm, usize)> {
        if self.query.is_none() {
            return Ok((Algorithm::Isl, 1));
        }
        let plan = self.plan_with_k(k)?;
        let best = plan.best().ok_or(RankJoinError::Internal(
            "planner produced no candidate (baselines missing)",
        ))?;
        Ok((best, plan.ranked.len()))
    }

    /// The bookkeeping of a run for the top `k`, pinned to the statistics
    /// version as of opening, recycling through this executor's spares.
    fn meta(&self, k: usize) -> CursorMeta {
        CursorMeta::new(k, self.stats.version(), self.spares.clone())
    }

    /// Opens the ISL descent for the top `k`.
    pub(crate) fn open_isl(&self, k: usize) -> Result<StepCursor<IslCore>> {
        let table = prepared(&self.indices.isl, "isl")?;
        let cluster = self.engine.cluster();
        let batch = |side| self.isl_config.batch(side);
        let core = IslCore::open(cluster, &self.spec, self.meta(k), table, batch)?;
        Ok(StepCursor::new(cluster, core))
    }

    /// Opens BFHM's guarantee loop for the top `k`, which reads the
    /// index metadata row.
    fn open_bfhm(&self, k: usize) -> Result<StepCursor<BfhmCore>> {
        let query = self.binary_query()?;
        let (table, config) = prepared(&self.indices.bfhm, "bfhm")?;
        let cluster = self.engine.cluster();
        let core = BfhmCore::open(cluster, query, self.meta(k), table, config, self.write_back)?;
        Ok(StepCursor::new(cluster, core))
    }

    /// Opens DRJN's rounds for the top `k`.
    fn open_drjn(&self, k: usize) -> Result<StepCursor<DrjnCore>> {
        let query = self.binary_query()?;
        let (table, config) = prepared(&self.indices.drjn, "drjn")?;
        let cluster = self.engine.cluster();
        let core = DrjnCore::new(cluster, query, self.meta(k), table, config)?;
        Ok(StepCursor::new(cluster, core))
    }

    /// Opens the run of `algorithm`, a MapReduce baseline (Hive, Pig or
    /// IJLMR), for the top `k`: its jobs run on the first pull.
    fn open_mr(&self, algorithm: Algorithm, k: usize) -> Result<StepCursor<MaterializedCore>> {
        let query = self.binary_query()?.clone();
        let source = match algorithm {
            Algorithm::Hive => MaterializedSource::Hive,
            Algorithm::Pig => MaterializedSource::Pig,
            Algorithm::Ijlmr => {
                MaterializedSource::Ijlmr(prepared(&self.indices.ijlmr, "ijlmr")?.clone())
            }
            _ => return Err(RankJoinError::Internal("not a MapReduce baseline")),
        };
        let core = MaterializedCore::new(self.meta(k), Some((query, source)), algorithm.name());
        Ok(StepCursor::new(self.engine.cluster(), core))
    }

    /// Opens the run of `algorithm` for the top 0, at any arity: nothing
    /// to run, so it is empty and free, with no store access and no
    /// planning.
    fn open_empty(&self, algorithm: Algorithm) -> StepCursor<MaterializedCore> {
        let core = MaterializedCore::new(self.meta(0), None, algorithm.name());
        StepCursor::new(self.engine.cluster(), core)
    }

    /// Executes `algorithm` with the stored `k`.
    pub fn execute(&self, algorithm: Algorithm) -> Result<QueryOutcome> {
        self.execute_with_k(algorithm, self.spec.k)
    }

    /// Executes `algorithm` with an overridden `k` — over the shared
    /// spec, which is not copied: the run's cursor drained in one pull.
    ///
    /// `k = 0` answers an empty, zero-cost outcome for every algorithm
    /// (the [`RankJoinQuery::with_k`] contract) — no store access, no
    /// planning.
    pub fn execute_with_k(&self, algorithm: Algorithm, k: usize) -> Result<QueryOutcome> {
        match algorithm {
            _ if k == 0 => self.open_empty(algorithm).drain(),
            Algorithm::Auto => {
                let (best, candidates) = self.choose(k)?;
                let mut outcome = self.execute_with_k(best, k)?;
                outcome.planner_candidates = Some(candidates);
                Ok(outcome)
            }
            Algorithm::Isl => self.open_isl(k)?.drain(),
            Algorithm::Bfhm => self.open_bfhm(k)?.drain(),
            Algorithm::Drjn => self.open_drjn(k)?.drain(),
            Algorithm::Hive | Algorithm::Pig | Algorithm::Ijlmr => {
                self.open_mr(algorithm, k)?.drain()
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
    ///
    /// `k_hint = 0` opens an empty, zero-cost cursor for every algorithm,
    /// as [`RankJoinExecutor::execute_with_k`] answers `k = 0` — no store
    /// access, no planning.
    pub fn open_cursor(
        &self,
        algorithm: Algorithm,
        k_hint: usize,
    ) -> Result<Box<dyn RankedCursor>> {
        match algorithm {
            _ if k_hint == 0 => Ok(Box::new(self.open_empty(algorithm))),
            // Plan first: the first plan may run the statistics pass,
            // which bumps the handle version the cursor pins.
            Algorithm::Auto => self.open_cursor(self.choose(k_hint)?.0, k_hint),
            Algorithm::Isl => Ok(Box::new(self.open_isl(k_hint)?)),
            Algorithm::Bfhm => Ok(Box::new(self.open_bfhm(k_hint)?)),
            Algorithm::Drjn => Ok(Box::new(self.open_drjn(k_hint)?)),
            Algorithm::Hive | Algorithm::Pig | Algorithm::Ijlmr => {
                Ok(Box::new(self.open_mr(algorithm, k_hint)?))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
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
        }
    }

    /// BFHM, DRJN, IJLMR, Hive and Pig join two sides: on a three-side
    /// spec each one's preparation, run and cursor is a typed error, and
    /// `Auto` runs ISL, its one candidate.
    #[test]
    fn binary_algorithms_refuse_a_spec_without_a_binary_form() {
        let (c, spec) = crate::testsupport::three_way_path_cluster(4);
        let mut ex = crate::multiway::SpecExecutor::new(&c, spec.clone());
        let invalid = |r: Result<()>| matches!(r, Err(RankJoinError::InvalidSpec(_)));
        assert!(invalid(ex.prepare_ijlmr().map(drop)));
        assert!(invalid(ex.prepare_bfhm(BfhmConfig::default()).map(drop)));
        assert!(invalid(ex.prepare_drjn(DrjnConfig::default()).map(drop)));
        assert!(invalid(ex.attach_ijlmr("isl__A__B__C")));
        assert!(invalid(ex.plan().map(drop)));
        ex.prepare().unwrap();
        let ex = RankJoinExecutor::from(ex);
        for algo in [
            Algorithm::Hive,
            Algorithm::Pig,
            Algorithm::Ijlmr,
            Algorithm::Bfhm,
            Algorithm::Drjn,
        ] {
            assert!(invalid(ex.execute_with_k(algo, 4).map(drop)), "{algo:?}");
            assert!(invalid(ex.open_cursor(algo, 4).map(drop)), "{algo:?}");
        }
        let auto = ex.execute_with_k(Algorithm::Auto, 4).unwrap();
        assert_eq!(auto.algorithm, "MULTIWAY");
        assert_eq!(auto.planner_candidates, Some(1));
        assert_eq!(auto.results, oracle::topk_spec(&c, &spec).unwrap());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["HIVE", "PIG", "IJLMR", "ISL", "BFHM", "DRJN"]);
        assert_eq!(Algorithm::Auto.name(), "AUTO");
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
            assert!(got.planner_candidates.unwrap() >= 4);
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
        // An IJLMR index built by an executor with its own handle.
        RankJoinExecutor::new(&c, q.clone())
            .prepare_ijlmr()
            .unwrap();
        let mut builder = RankJoinExecutor::new(&c, q.clone());
        builder.prepare_isl().unwrap();
        let _ = builder.plan().unwrap();
        assert_eq!(builder.stats_handle().collections(), 1);

        // A fork serving the same pair shares the handle: no second
        // statistics pass, observable on both the collection counter and
        // the admin-read ledger.
        let fork = c.fork_metrics();
        let mut other = builder.fork_onto(&fork).unwrap();
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

    /// One maintained insert through the first side of `stats`'s spec.
    fn insert_delta(stats: &SharedTableStats) {
        let side = &stats.spec().sides[0];
        stats.apply_delta(&crate::statsmaint::StatsDelta {
            table: &side.table,
            join_col: &side.join_col,
            score_col: &side.score_col,
            op: crate::statsmaint::DeltaOp::Insert,
            join_fingerprint: 7,
            score: 0.5,
            entry_bytes: 32.0,
        });
    }

    #[test]
    fn a_recollection_retires_every_cached_plan() {
        use crate::planner::StatsSource;
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        let stats = ex.stats_handle();
        ex.plan().unwrap();
        // One mutation on an 11-tuple side ≈ 9% staleness: both cached
        // plans are re-planned from the maintained snapshot.
        insert_delta(&stats);
        let below = [1, 3].map(|k| ex.plan_with_k(k).unwrap());
        assert!(below
            .iter()
            .all(|p| matches!(p.stats_source, StatsSource::Maintained { .. })));
        // A second one ≈ 18%: the next plan re-collects, once, and no plan
        // from before the re-collection is served at either depth.
        insert_delta(&stats);
        let above = [1, 3].map(|k| ex.plan_with_k(k).unwrap());
        assert!(matches!(
            above[0].stats_source,
            StatsSource::Recollected { .. }
        ));
        assert_eq!(
            above[1].stats_source,
            StatsSource::Maintained { staleness: 0.0 }
        );
        assert_eq!(stats.collections(), 2);
        for (old, new) in below.iter().zip(&above) {
            assert!(!Arc::ptr_eq(old, new), "a pre-collection plan was served");
        }
    }

    /// The candidate set is what is prepared now, with the ISL config
    /// as it stands now.
    #[test]
    fn candidates_follow_preparation_and_the_isl_config() {
        let (c, q) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&c, q.clone());
        ex.prepare_isl().unwrap();
        ex.prepare_bfhm(BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        })
        .unwrap();
        assert!(ex.candidates().bfhm.is_some());
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
