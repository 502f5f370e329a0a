//! [`SpecExecutor`] — the spec-driven execution facade.
//!
//! One entry point for any [`JoinSpec`]. A two-side spec runs through the
//! binary [`RankJoinExecutor`] (the spec's [`JoinSpec::as_binary`]
//! projection constructs the [`crate::query::RankJoinQuery`] it serves),
//! which opens the same [`IslCursor`] over the same index this executor's
//! N-ary arm opens — so a binary query's results *and* counted metrics
//! are the same through either door; `From<RankJoinExecutor>` wraps an
//! existing binary executor the same way, sharing its spec. Specs with
//! three or more sides build the score index ([`crate::isl::index`]),
//! plan a per-side access ([`crate::multiway::planner`]) and open the
//! cursor directly. Either way the executor has one statistics handle,
//! [`SpecExecutor::stats_handle`] — a [`SharedTableStats`] over the spec
//! — and every cursor it opens is pinned to that handle's version.
//!
//! As in the binary executor, `k` belongs to the run, not the
//! descriptor: the spec is built once, in [`SpecExecutor::new`], and every
//! cursor, run and fork shares it, taking `k` as an argument. And as
//! there, spares belong to the executor (`crate::spare`): the N-ary arm
//! owns one list, a two-side spec recycles through its binary executor's,
//! and a fork shares the list of the executor it was forked from.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rj_mapreduce::MapReduceEngine;
use rj_store::cluster::Cluster;

use crate::cancel::StopPolicy;
use crate::cursor::{CursorMeta, CursorState, IslCursor, RankedCursor, SideAccess};
use crate::error::{RankJoinError, Result};
use crate::executor::{Algorithm, RankJoinExecutor};
use crate::indexutil::BuildStats;
use crate::isl::index;
use crate::multiway::planner::choose_access;
use crate::query::JoinSpec;
use crate::spare::Spares;
use crate::stats::QueryOutcome;
use crate::statsmaint::{SharedTableStats, DEFAULT_STALENESS_BOUND};

/// Knobs of the multiway descent.
#[derive(Clone, Copy, Debug)]
pub struct MultiwayConfig {
    /// Rows fetched per batch from each side.
    pub batch: usize,
}

impl Default for MultiwayConfig {
    fn default() -> Self {
        MultiwayConfig { batch: 64 }
    }
}

/// `(k, staleness-bound bits)` → the access plan and the statistics
/// version it was made at.
type AccessPlans = HashMap<(usize, u64), (u64, Arc<[SideAccess]>)>;

enum SpecKind {
    /// Two sides: the binary executor, delegated to verbatim.
    Binary(Box<RankJoinExecutor>),
    /// Three or more sides: the multiway path.
    Nary {
        /// Built/attached score index table.
        table: Option<String>,
        stats: Arc<SharedTableStats>,
        /// Access-plan cache, as the binary executor caches its plans:
        /// the staleness bound is in the key because it is a public field
        /// that feeds the statistics decision, and an entry is a hit only
        /// at the statistics version it was planned under — a maintained
        /// write, `prepare` or `attach` makes it a miss.
        plans: Mutex<AccessPlans>,
        /// The buffers this arm's runs gave back, for its next runs.
        spares: Spares,
    },
}

/// Executes any [`JoinSpec`] (see the module docs).
pub struct SpecExecutor {
    engine: MapReduceEngine,
    /// The spec, shared by every cursor, run and fork.
    spec: Arc<JoinSpec>,
    kind: SpecKind,
    /// Multiway descent knobs (N-ary path; the binary path keeps its own
    /// [`RankJoinExecutor::isl_config`], reachable via
    /// [`SpecExecutor::binary_mut`]).
    pub config: MultiwayConfig,
    /// Forces the per-side access assignment instead of planning it
    /// (N-ary path only).
    pub access_override: Option<Vec<SideAccess>>,
    /// Staleness bound fed to spec-statistics planning — same contract
    /// as [`RankJoinExecutor::staleness_bound`], which governs the
    /// binary path independently.
    pub staleness_bound: f64,
}

impl SpecExecutor {
    /// Creates an executor for `spec` on `cluster`.
    pub fn new(cluster: &Cluster, spec: JoinSpec) -> Self {
        let spec = Arc::new(spec);
        let kind = match spec.as_binary() {
            Some(query) => SpecKind::Binary(Box::new(RankJoinExecutor::new(cluster, query))),
            None => SpecKind::Nary {
                table: None,
                stats: SharedTableStats::new(spec.clone()),
                plans: Mutex::default(),
                spares: Spares::new(),
            },
        };
        SpecExecutor {
            engine: MapReduceEngine::new(cluster.clone()),
            spec,
            kind,
            config: MultiwayConfig::default(),
            access_override: None,
            staleness_bound: DEFAULT_STALENESS_BOUND,
        }
    }

    /// The spec this executor serves.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// The spec's canonical fingerprint ([`JoinSpec::fingerprint`]) —
    /// the sharing/caching key serving layers coalesce on.
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint()
    }

    /// Whether this executor runs the binary delegation path.
    pub fn is_binary(&self) -> bool {
        matches!(self.kind, SpecKind::Binary(_))
    }

    /// The delegated binary executor, when two-sided (full binary API:
    /// every algorithm and the planner).
    pub fn binary(&self) -> Option<&RankJoinExecutor> {
        match &self.kind {
            SpecKind::Binary(b) => Some(b),
            SpecKind::Nary { .. } => None,
        }
    }

    /// Mutable access to the delegated binary executor.
    pub fn binary_mut(&mut self) -> Option<&mut RankJoinExecutor> {
        match &mut self.kind {
            SpecKind::Binary(b) => Some(b),
            SpecKind::Nary { .. } => None,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &MapReduceEngine {
        &self.engine
    }

    /// The spec's shared statistics handle, for either arity — register
    /// it on the maintained write path so every side's deltas keep plans
    /// fresh; its version is the one every cursor and serving cache over
    /// this executor pins.
    pub fn stats_handle(&self) -> Arc<SharedTableStats> {
        match &self.kind {
            SpecKind::Binary(b) => b.stats_handle(),
            SpecKind::Nary { stats, .. } => stats.clone(),
        }
    }

    /// Builds the score index ([`index::build`]) over every side.
    pub fn prepare(&mut self) -> Result<BuildStats> {
        match &mut self.kind {
            SpecKind::Binary(b) => b.prepare_isl(),
            SpecKind::Nary { table, stats, .. } => {
                let name = index::index_table_name(&self.spec);
                let built = index::build(&self.engine, &self.spec, &name)?;
                *table = Some(name);
                // Same contract as the binary `prepare_*`: preparation
                // invalidates statistics (and bumps the version every
                // open cursor is pinned against).
                stats.invalidate();
                Ok(built)
            }
        }
    }

    /// Attaches an already-built index table instead of building one.
    pub fn attach(&mut self, index_table: &str) -> Result<()> {
        match &mut self.kind {
            SpecKind::Binary(b) => b.attach_isl(index_table),
            SpecKind::Nary { table, stats, .. } => {
                self.engine
                    .cluster()
                    .table(index_table)
                    .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?;
                *table = Some(index_table.to_owned());
                stats.invalidate();
                Ok(())
            }
        }
    }

    /// Whether the index is ready (built or attached).
    pub fn prepared(&self) -> bool {
        match &self.kind {
            SpecKind::Binary(b) => b.isl_table().is_some(),
            SpecKind::Nary { table, .. } => table.is_some(),
        }
    }

    /// The index table in use, if prepared.
    pub fn index_table(&self) -> Option<&str> {
        match &self.kind {
            SpecKind::Binary(b) => b.isl_table(),
            SpecKind::Nary { table, .. } => table.as_deref(),
        }
    }

    /// The per-side access assignment a top-`k` run would use:
    /// [`access_override`](SpecExecutor::access_override) if set,
    /// otherwise the planner's choice over current spec statistics
    /// (collecting within the staleness bound — see
    /// [`SharedTableStats::stats_for_planning`]), cached per `k` until the
    /// statistics version moves. Binary specs descend both sides by
    /// construction (that *is* ISL).
    pub fn plan_access(&self, k: usize) -> Result<Arc<[SideAccess]>> {
        if let Some(access) = &self.access_override {
            return Ok(access.as_slice().into());
        }
        match &self.kind {
            SpecKind::Binary(_) => Ok([SideAccess::Descend; 2].into()),
            SpecKind::Nary { stats, plans, .. } => {
                let key = (k, self.staleness_bound.to_bits());
                // A plan recorded at the current version needs no
                // statistics work: nothing was written, invalidated or
                // collected since, so the staleness verdict stands too.
                if let Some((version, access)) = plans.lock().expect("access plans").get(&key) {
                    if *version == stats.version() {
                        return Ok(access.clone());
                    }
                }
                let planned =
                    stats.stats_for_planning(self.engine.cluster(), self.staleness_bound)?;
                let access: Arc<[SideAccess]> = choose_access(&self.spec, &planned.stats, k).into();
                plans
                    .lock()
                    .expect("access plans")
                    .insert(key, (planned.version, access.clone()));
                Ok(access)
            }
        }
    }

    /// Opens the N-ary arm's cursor over `table`, pinned to `stats`, its
    /// buffers taken from and given back to `spares`.
    fn open_nary(
        &self,
        table: Option<&str>,
        stats: &SharedTableStats,
        spares: &Spares,
        k_hint: usize,
    ) -> Result<IslCursor> {
        let table =
            table.ok_or_else(|| RankJoinError::MissingIndex("multiway (unprepared)".into()))?;
        // Plan first, then pin: the access choice may run a statistics
        // pass, and the cursor must pin the version as of the moment it
        // starts reading.
        let access = self.plan_access(k_hint)?;
        IslCursor::open_on(
            self.engine.cluster(),
            &self.spec,
            CursorMeta::new(k_hint, Some(stats.version()), spares.clone()),
            table,
            &vec![self.config.batch; self.spec.n()],
            &access,
        )
    }

    /// Opens a pull-based [`RankedCursor`] targeting the top `k_hint` —
    /// the spec-level sibling of [`RankJoinExecutor::open_cursor`].
    pub fn open_cursor(&self, k_hint: usize) -> Result<Box<dyn RankedCursor>> {
        match &self.kind {
            SpecKind::Binary(b) => b.open_cursor(Algorithm::Isl, k_hint),
            SpecKind::Nary {
                table,
                stats,
                spares,
                ..
            } => Ok(Box::new(self.open_nary(
                table.as_deref(),
                stats,
                spares,
                k_hint,
            )?)),
        }
    }

    /// Executes the spec's own `k`.
    pub fn execute(&self) -> Result<QueryOutcome> {
        self.execute_with_k(self.spec.k)
    }

    /// Executes with an overridden `k` (`k = 0` short-circuits to an
    /// empty, zero-cost outcome — the [`JoinSpec::with_k`] contract).
    pub fn execute_with_k(&self, k: usize) -> Result<QueryOutcome> {
        match &self.kind {
            SpecKind::Binary(b) => b.execute_with_k(Algorithm::Isl, k),
            SpecKind::Nary {
                table,
                stats,
                spares,
                ..
            } => {
                if k == 0 {
                    return Ok(QueryOutcome::new(
                        "MULTIWAY",
                        Vec::new(),
                        rj_store::metrics::MetricsSnapshot::default(),
                    ));
                }
                // The cursor drained in one call, as the binary one-shot
                // drains it.
                let mut cursor = self.open_nary(table.as_deref(), stats, spares, k)?;
                cursor.pump(k, &StopPolicy::never())?;
                let results = cursor.hrjn().current_results();
                Ok(QueryOutcome::new("MULTIWAY", results, cursor.charged()))
            }
        }
    }

    /// Resumes a paused [`CursorState`], refusing a statistics-version
    /// mismatch with [`RankJoinError::StaleCursor`] — the same coherence
    /// contract as [`RankJoinExecutor::resume_cursor`].
    pub fn resume_cursor(&self, state: CursorState) -> Result<Box<dyn RankedCursor>> {
        match &self.kind {
            SpecKind::Binary(b) => b.resume_cursor(state),
            SpecKind::Nary { stats, .. } => {
                state.check_version(stats.version())?;
                state.resume_on(self.engine.cluster())
            }
        }
    }

    /// Re-targets a paused state to a deeper `new_k` and resumes it (the
    /// warm start), with the same staleness check.
    pub fn resume_cursor_retargeted(
        &self,
        state: CursorState,
        new_k: usize,
    ) -> Result<Box<dyn RankedCursor>> {
        match &self.kind {
            SpecKind::Binary(b) => b.resume_cursor_retargeted(state, new_k),
            SpecKind::Nary { stats, .. } => {
                state.check_version(stats.version())?;
                state.resume_retargeted(self.engine.cluster(), new_k)
            }
        }
    }

    /// Clones this executor onto `cluster` (typically a
    /// [`Cluster::fork_metrics`] fork): same spec, same attached index,
    /// same tuning, and the *same* shared statistics handle, so
    /// maintained-write invalidations stay coherent across forks while
    /// each fork bills its own ledger. The clone recycles through this
    /// executor's spare list.
    pub fn fork_onto(&self, cluster: &Cluster) -> Result<SpecExecutor> {
        let (engine, kind) = match &self.kind {
            SpecKind::Binary(b) => {
                let fork = b.fork_onto(cluster)?;
                (fork.engine().clone(), SpecKind::Binary(Box::new(fork)))
            }
            SpecKind::Nary {
                table,
                stats,
                spares,
                ..
            } => {
                if let Some(t) = table {
                    cluster
                        .table(t)
                        .map_err(|_| RankJoinError::MissingIndex(t.clone()))?;
                }
                let kind = SpecKind::Nary {
                    table: table.clone(),
                    stats: stats.clone(),
                    plans: Mutex::default(),
                    spares: spares.clone(),
                };
                (MapReduceEngine::new(cluster.clone()), kind)
            }
        };
        Ok(SpecExecutor {
            engine,
            spec: self.spec.clone(),
            kind,
            config: self.config,
            access_override: self.access_override.clone(),
            staleness_bound: self.staleness_bound,
        })
    }
}

impl From<RankJoinExecutor> for SpecExecutor {
    /// Wraps a binary executor — its indices, tuning and statistics
    /// handle — as the two-side spec executor, sharing its spec so the
    /// fingerprint (and every cache key built from it) is the same.
    fn from(binary: RankJoinExecutor) -> Self {
        SpecExecutor {
            engine: binary.engine().clone(),
            spec: binary.spec_handle(),
            kind: SpecKind::Binary(Box::new(binary)),
            config: MultiwayConfig::default(),
            access_override: None,
            staleness_bound: DEFAULT_STALENESS_BOUND,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::testsupport::{running_example_cluster, three_way_path_cluster};

    #[test]
    fn binary_spec_delegates_byte_for_byte() {
        // The compatibility pin in miniature (the proptest version lives
        // in tests/multiway.rs): identical results AND identical counted
        // metrics between the spec path and the binary path.
        let (c1, q1) = running_example_cluster();
        let mut binary = RankJoinExecutor::new(&c1, q1.clone());
        binary.prepare_isl().unwrap();
        let before1 = c1.metrics().snapshot();
        let direct = binary.execute_with_k(Algorithm::Isl, 3).unwrap();
        let charge1 = c1.metrics().snapshot().delta_since(&before1);

        let (c2, q2) = running_example_cluster();
        let mut spec_exec = SpecExecutor::new(&c2, q2.to_spec());
        assert!(spec_exec.is_binary());
        spec_exec.prepare().unwrap();
        let before2 = c2.metrics().snapshot();
        let via_spec = spec_exec.execute_with_k(3).unwrap();
        let charge2 = c2.metrics().snapshot().delta_since(&before2);

        assert_eq!(direct.results, via_spec.results);
        assert_eq!(direct.algorithm, via_spec.algorithm);
        assert_eq!(charge1, charge2, "metrics must be byte-for-byte identical");
    }

    #[test]
    fn nary_execute_matches_oracle() {
        let (c, spec) = three_way_path_cluster(5);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        assert!(!exec.is_binary());
        assert!(!exec.prepared());
        exec.prepare().unwrap();
        assert!(exec.prepared());
        let outcome = exec.execute().unwrap();
        assert_eq!(outcome.algorithm, "MULTIWAY");
        assert_eq!(outcome.results, oracle::topk_spec(&c, &spec).unwrap());
        assert!(outcome.metrics.kv_reads > 0, "index reads are billed");
    }

    #[test]
    fn unprepared_nary_refuses() {
        let (c, spec) = three_way_path_cluster(3);
        let exec = SpecExecutor::new(&c, spec);
        assert!(matches!(
            exec.execute(),
            Err(RankJoinError::MissingIndex(_))
        ));
    }

    #[test]
    fn k_zero_is_free() {
        let (c, spec) = three_way_path_cluster(3);
        let mut exec = SpecExecutor::new(&c, spec);
        exec.prepare().unwrap();
        let before = c.metrics().snapshot();
        let outcome = exec.execute_with_k(0).unwrap();
        assert!(outcome.results.is_empty());
        assert_eq!(before.kv_reads, c.metrics().snapshot().kv_reads);
    }

    #[test]
    fn cursor_roundtrip_with_staleness_check() {
        let (c, spec) = three_way_path_cluster(6);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        exec.prepare().unwrap();
        let mut cursor = exec.open_cursor(6).unwrap();
        let first = cursor.next_batch(2, &StopPolicy::default()).unwrap();
        let state = cursor.pause();
        let mut resumed = exec.resume_cursor(state).unwrap();
        let mut rest = Vec::new();
        loop {
            let batch = resumed.next_batch(10, &StopPolicy::default()).unwrap();
            rest.extend(batch.results);
            if batch.done {
                break;
            }
        }
        let mut all = first.results;
        all.extend(rest);
        assert_eq!(all, oracle::topk_spec(&c, &spec).unwrap());

        // A version bump between pause and resume must be refused.
        let mut cursor = exec.open_cursor(6).unwrap();
        cursor.next_batch(1, &StopPolicy::default()).unwrap();
        let state = cursor.pause();
        exec.stats_handle().invalidate();
        assert!(matches!(
            exec.resume_cursor(state),
            Err(RankJoinError::StaleCursor { .. })
        ));
    }

    /// `attach` checks only that the table exists, so an index built for
    /// a *path* over some labels can be attached to a *star* over the
    /// same labels. Its cells carry the wrong number of join values for
    /// two of the three sides; reading them must be a typed error — never
    /// a panic, a mis-join, or a silently short answer.
    #[test]
    fn index_built_for_another_shape_is_refused_with_a_typed_error() {
        let (c, path) = three_way_path_cluster(4);
        let mut builder = SpecExecutor::new(&c, path.clone());
        builder.prepare().unwrap();
        let table = builder.index_table().unwrap().to_owned();

        let star = JoinSpec::star(path.sides.clone(), 4, path.score_fn).unwrap();
        for access in [SideAccess::Descend, SideAccess::Materialize] {
            let mut exec = SpecExecutor::new(&c, star.clone());
            exec.attach(&table).unwrap();
            exec.access_override = Some(vec![access; 3]);
            let err = exec.execute().unwrap_err();
            assert!(matches!(err, RankJoinError::Codec(_)), "{access:?}: {err}");
            let mut cursor = exec.open_cursor(4).unwrap();
            assert!(matches!(
                cursor.next_batch(1, &StopPolicy::default()),
                Err(RankJoinError::Codec(_))
            ));
        }
        // The index still serves the spec it was built for.
        let want = oracle::topk_spec(&c, &path).unwrap();
        assert_eq!(builder.execute().unwrap().results, want);
    }

    #[test]
    fn access_override_is_honoured() {
        let (c, spec) = three_way_path_cluster(4);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        exec.prepare().unwrap();
        exec.access_override = Some(vec![
            SideAccess::Materialize,
            SideAccess::Descend,
            SideAccess::Materialize,
        ]);
        assert_eq!(
            *exec.plan_access(4).unwrap(),
            *exec.access_override.clone().unwrap()
        );
        let outcome = exec.execute().unwrap();
        assert_eq!(outcome.results, oracle::topk_spec(&c, &spec).unwrap());
    }

    #[test]
    fn access_plan_is_cached_until_the_statistics_version_moves() {
        let (c, spec) = three_way_path_cluster(4);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        let stats = exec.stats_handle();
        let first = exec.plan_access(4).unwrap();
        assert!(Arc::ptr_eq(&first, &exec.plan_access(4).unwrap()));
        assert_eq!(stats.collections(), 1);
        assert!(!Arc::ptr_eq(&first, &exec.plan_access(5).unwrap()));

        // A `prepare`, a maintained write and an `attach` each move the
        // version: the next call plans again, and that plan is cached.
        exec.prepare().unwrap();
        let prepared = exec.plan_access(4).unwrap();
        assert!(!Arc::ptr_eq(&first, &prepared));
        assert!(Arc::ptr_eq(&prepared, &exec.plan_access(4).unwrap()));
        let side = crate::maintenance::MaintainedSide::new(&c, spec.sides[2].clone())
            .with_stats(stats.clone());
        side.insert(b"c_new", b"a", 0.5, Vec::new()).unwrap();
        let written = exec.plan_access(4).unwrap();
        assert!(!Arc::ptr_eq(&prepared, &written));
        let table = exec.index_table().unwrap().to_owned();
        exec.attach(&table).unwrap();
        // Opening plans, then pins: the cursor carries the version its
        // plan was made at, and the plan it made is the one cached.
        let collections = stats.collections();
        let state = exec.open_cursor(4).unwrap().pause();
        assert_eq!(state.pinned_version(), Some(stats.version()));
        assert_eq!(stats.collections(), collections + 1);
        let attached = exec.plan_access(4).unwrap();
        assert!(!Arc::ptr_eq(&written, &attached));
        assert_eq!(stats.collections(), collections + 1);

        // An override is answered as given and leaves the cache alone.
        exec.access_override = Some(vec![SideAccess::Materialize; 3]);
        assert_eq!(*exec.plan_access(4).unwrap(), [SideAccess::Materialize; 3]);
        exec.access_override = None;
        assert!(Arc::ptr_eq(&attached, &exec.plan_access(4).unwrap()));
    }

    #[test]
    fn fork_shares_stats_and_bills_own_ledger() {
        let (c, spec) = three_way_path_cluster(4);
        let mut exec = SpecExecutor::new(&c, spec);
        exec.prepare().unwrap();
        exec.execute().unwrap();
        let collections = exec.stats_handle().collections();
        let fork_cluster = c.fork_metrics();
        let fork = exec.fork_onto(&fork_cluster).unwrap();
        let before_parent = c.metrics().snapshot();
        let outcome = fork.execute().unwrap();
        assert!(!outcome.results.is_empty());
        assert_eq!(
            c.metrics().snapshot().kv_reads,
            before_parent.kv_reads,
            "fork work billed to the fork's ledger"
        );
        assert_eq!(
            fork.stats_handle().collections(),
            collections,
            "fork reuses the shared snapshot instead of re-collecting"
        );
    }
}
