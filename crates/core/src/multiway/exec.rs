//! [`SpecExecutor`] — the spec-shaped face of the one executor.
//!
//! [`RankJoinExecutor`] runs a [`JoinSpec`] of any arity. This newtype
//! gives it the signatures a spec-driven caller knows — no algorithm
//! argument, because ISL is the one algorithm over any join tree — and
//! derefs to it for everything else: the statistics handle, the per-side
//! access ([`RankJoinExecutor::plan_access`]), resuming cursors and
//! the tuning fields. A two-side spec with a binary form is its binary
//! query's executor, so a binary query's results *and* counted metrics
//! are the same through either door.

use std::ops::{Deref, DerefMut};

use rj_store::cluster::Cluster;

use crate::cursor::RankedCursor;
use crate::error::Result;
use crate::executor::{Algorithm, RankJoinExecutor};
use crate::indexutil::BuildStats;
use crate::query::JoinSpec;
use crate::stats::QueryOutcome;

/// Executes any [`JoinSpec`] through ISL (see the module docs).
pub struct SpecExecutor(RankJoinExecutor);

impl SpecExecutor {
    /// Creates an executor for `spec` on `cluster`.
    pub fn new(cluster: &Cluster, spec: JoinSpec) -> Self {
        SpecExecutor(RankJoinExecutor::for_spec(cluster, spec))
    }

    /// Builds the score index over every side.
    pub fn prepare(&mut self) -> Result<BuildStats> {
        self.0.prepare_isl()
    }

    /// Attaches an already-built score index table instead of building one.
    pub fn attach(&mut self, index_table: &str) -> Result<()> {
        self.0.attach_isl(index_table)
    }

    /// Executes the spec's own `k`.
    pub fn execute(&self) -> Result<QueryOutcome> {
        self.0.execute(Algorithm::Isl)
    }

    /// Executes with an overridden `k` (`k = 0` short-circuits to an
    /// empty, zero-cost outcome — the [`JoinSpec::with_k`] contract).
    pub fn execute_with_k(&self, k: usize) -> Result<QueryOutcome> {
        self.0.execute_with_k(Algorithm::Isl, k)
    }

    /// Opens a pull-based [`RankedCursor`] targeting the top `k_hint`.
    pub fn open_cursor(&self, k_hint: usize) -> Result<Box<dyn RankedCursor>> {
        self.0.open_cursor(Algorithm::Isl, k_hint)
    }

    /// Clones this executor onto `cluster` ([`RankJoinExecutor::fork_onto`]).
    pub fn fork_onto(&self, cluster: &Cluster) -> Result<SpecExecutor> {
        self.0.fork_onto(cluster).map(SpecExecutor)
    }
}

impl Deref for SpecExecutor {
    type Target = RankJoinExecutor;

    fn deref(&self) -> &RankJoinExecutor {
        &self.0
    }
}

impl DerefMut for SpecExecutor {
    fn deref_mut(&mut self) -> &mut RankJoinExecutor {
        &mut self.0
    }
}

impl From<SpecExecutor> for RankJoinExecutor {
    fn from(exec: SpecExecutor) -> Self {
        exec.0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cancel::StopPolicy;
    use crate::cursor::SideAccess;
    use crate::error::RankJoinError;
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
        assert!(exec.isl_table().is_none());
        exec.prepare().unwrap();
        assert!(exec.isl_table().is_some());
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
        let table = builder.isl_table().unwrap().to_owned();

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

    /// The override applies at every arity: on a two-side spec each of
    /// the four assignments answers the oracle, and its cursor drained
    /// in pages of one answers and bills the same.
    #[test]
    fn access_override_is_honoured_on_two_sides() {
        use SideAccess::{Descend, Materialize};
        let (c, q) = running_example_cluster();
        let mut exec = SpecExecutor::new(&c, q.to_spec());
        exec.isl_config = crate::isl::IslConfig::uniform(4);
        exec.prepare().unwrap();
        let bill =
            |m: rj_store::metrics::MetricsSnapshot| (m.kv_reads, m.rpc_calls, m.network_bytes);
        for access in [
            [Descend, Descend],
            [Descend, Materialize],
            [Materialize, Descend],
            [Materialize, Materialize],
        ] {
            exec.access_override = Some(access.to_vec());
            for k in [1, 3, 10, 40] {
                let got = exec.execute_with_k(k).unwrap();
                let want = oracle::topk(&c, &q.with_k(k)).unwrap();
                assert_eq!(got.results, want, "{access:?} k={k}");
                let mut cursor = exec.open_cursor(k).unwrap();
                let mut paged = Vec::new();
                while !cursor.is_done() {
                    paged.extend(cursor.next_batch(1, &StopPolicy::never()).unwrap().results);
                }
                assert_eq!(paged, want, "{access:?} k={k}");
                assert_eq!(
                    bill(got.metrics),
                    bill(cursor.charged()),
                    "{access:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn access_plan_is_the_override_or_all_descend_and_reads_no_statistics() {
        let (c, spec) = three_way_path_cluster(4);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        exec.prepare().unwrap();
        let stats = exec.stats_handle();
        // Every side descends at every `k`, from one assignment the
        // executor's forks share; nothing collects statistics.
        let descend = exec.plan_access(4).unwrap();
        assert_eq!(*descend, [SideAccess::Descend; 3]);
        assert!(Arc::ptr_eq(&descend, &exec.plan_access(25).unwrap()));
        let fork = exec.fork_onto(&c.fork_metrics()).unwrap();
        assert!(Arc::ptr_eq(&descend, &fork.plan_access(4).unwrap()));
        exec.execute().unwrap();
        assert_eq!(stats.collections(), 0);

        // An override is answered as given.
        exec.access_override = Some(vec![SideAccess::Materialize; 3]);
        assert_eq!(*exec.plan_access(4).unwrap(), [SideAccess::Materialize; 3]);
        exec.access_override = None;

        // A maintained write moves the version without a snapshot, and
        // an opened cursor pins the version current at its opening.
        let version = stats.version();
        let side = crate::maintenance::MaintainedSide::new(&c, spec.sides[2].clone())
            .with_stats(stats.clone());
        side.insert(b"c_new", b"a", 0.5, Vec::new()).unwrap();
        assert!(stats.version() > version);
        let state = exec.open_cursor(4).unwrap().pause();
        assert_eq!(state.pinned_version(), stats.version());
        assert_eq!(stats.collections(), 0);
    }

    /// Cursor coherence needs no snapshot: a maintained write between
    /// pause and resume moves the version even though the handle never
    /// collected, and the resume is refused.
    #[test]
    fn a_maintained_write_stales_a_paused_cursor_that_never_collected() {
        let (c, spec) = three_way_path_cluster(6);
        let mut exec = SpecExecutor::new(&c, spec.clone());
        exec.prepare().unwrap();
        let stats = exec.stats_handle();
        let mut cursor = exec.open_cursor(6).unwrap();
        cursor.next_batch(1, &StopPolicy::default()).unwrap();
        let state = cursor.pause();
        let side = crate::maintenance::MaintainedSide::new(&c, spec.sides[0].clone())
            .with_stats(stats.clone());
        side.insert(b"a_new", b"a", 0.99, Vec::new()).unwrap();
        assert!(matches!(
            exec.resume_cursor(state),
            Err(RankJoinError::StaleCursor { .. })
        ));
        assert_eq!(stats.collections(), 0);
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
