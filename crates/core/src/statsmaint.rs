//! Incremental statistics maintenance: keeping the planner's
//! [`TableStats`] fresh under the §6 maintained write path.
//!
//! The cost-based planners ([`crate::planner`], and
//! [`crate::multiway::planner`] for wider specs) are only as good as the
//! statistics behind them — the point Tziavelis et al. (*Ranked
//! Enumeration for Database Queries*; *Optimal Join Algorithms Meet
//! Top-k*) make for every cost-based ranked-query choice. So the
//! statistics follow the writes, and one object owns them:
//! [`SharedTableStats`], one handle per [`JoinSpec`] for every arity (a
//! binary query's is its two-side spec's).
//!
//! * **Deltas.** Every maintained insert/delete is reduced to a
//!   [`StatsDelta`] — table and columns, join value, score, bytes — and
//!   merged into the handle registered on the writing
//!   [`crate::maintenance::MaintainedSide`].
//! * **In-place merge.** Next to its [`TableStats`] snapshot the handle
//!   keeps, per edge, a join-value fingerprint sketch (so distinct counts
//!   and the join cardinality `Σ_v a_v·b_v` adjust incrementally) and,
//!   per side, a byte total. Everything stays exact but `max_score`,
//!   which after deletes widens to its bucket's bound (as the BFHM blob
//!   maintenance does).
//! * **The staleness rule.** Up to [`STALENESS_BOUND`] of any side's
//!   tuples mutated since the last [`TableStats::collect`] pass, planning
//!   trusts the snapshot (no table pass — tests watch the store's admin
//!   reads); above it the handle re-collects, and
//!   [`Plan::explain`](crate::planner::Plan::explain) names the path
//!   ([`StatsSource`]).
//!
//! The handle is `Arc`-shared by the executor, its `fork_metrics` forks
//! and the write paths; plan caches, parked cursors and the serving
//! layer's caches are versioned against it, so every delta, invalidation
//! and collection retires stale plans everywhere.
//!
//! **The fence.** A maintained write runs its base put under the handle's
//! lock and merges its delta under the same guard, only when the put
//! landed; a collection holds that lock from its scan to its install. So
//! a write lands wholly before a collection (the scan counts its row; no
//! snapshot took its delta) or wholly after (the scan missed it; the
//! delta merges into the new snapshot): it counts once. Index puts follow
//! outside the lock. Under `--cfg rj_check` the lock is the
//! `rj_analyze::chk` shim, and the `model_*` tests check the fence on
//! every interleaving.
//!
//! **What the bound can and cannot see.** The mutation counter advances
//! only on deltas, so the bound covers the maintained path's own
//! imperfections (`max_score` after deletes, an insert over a live key,
//! partial-failure retries, the edges of a side with several incident
//! edges that a one-column delta does not name). Writes that bypass
//! `MaintainedSide` (raw `Client::mutate_row`) are invisible to it, as
//! they are to the §6 index maintenance: a caller who bulk-loads around
//! the write path re-prepares (or [`SharedTableStats::invalidate`]s) as
//! it rebuilds the indices.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Under `--cfg rj_check` the lock is the rj_check shim mutex, so the
// interleaving explorer schedules around every write and collection
// (the `model_*` tests); otherwise it is plain `std`. See `cancel.rs`.
#[cfg(rj_check)]
use rj_analyze::chk::sync::{Mutex, MutexGuard};
#[cfg(not(rj_check))]
use std::sync::{Mutex, MutexGuard};

use rj_store::cluster::Cluster;

use crate::error::{RankJoinError, Result};
use crate::planner::{
    collect_detailed, DetailedStats, SideStats, StatsSource, TableStats, KV_OVERHEAD_BYTES,
    STAT_BUCKETS,
};
use crate::query::{Column, JoinSpec};

/// Fraction of a side's tuples that may mutate before planning stops
/// trusting the maintained snapshot and re-collects. The snapshot drifts
/// only through the imperfections listed in the module docs, all of which
/// advance the mutation counter; 10% keeps re-collection rare under
/// update-heavy workloads while bounding how long such drift can steer
/// depth estimates.
pub const STALENESS_BOUND: f64 = 0.1;

/// Seed for the join-value fingerprint hash (stable across processes —
/// the sketch itself is in-memory only, but determinism keeps tests and
/// replays exact).
const FINGERPRINT_SEED: u64 = 0x5747_5353;

/// 64-bit fingerprint of a join value, keying the distinct-join-value
/// sketch. Collisions merge two join values' counts; at 64 bits they are
/// negligible next to histogram bucketing error.
pub fn join_fingerprint(join_value: &[u8]) -> u64 {
    rj_sketch::hash::hash_bytes(FINGERPRINT_SEED, join_value)
}

/// Whether a delta adds or removes a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// A maintained insert landed.
    Insert,
    /// A maintained delete landed.
    Delete,
}

/// The statistics-relevant residue of one maintained base-table mutation,
/// merged by [`crate::maintenance::MaintainedSide`] under the same lock
/// as its base write, once that write lands.
///
/// A delta names the *statistics schema* it touched — base table, join
/// and score columns — not a side label, and a handle applies it to
/// **every** side whose table and score column are the delta's and one
/// of whose incident edge columns is its join column, so a self-join
/// over one table with identical columns sees each write on both sides,
/// as a full pass would. A side with several incident edges gets **one**
/// delta per row mutation, keyed by the join column the writer
/// maintains; the other edges drift until the staleness bound forces a
/// re-collection.
///
/// The schema is borrowed from the writing [`crate::query::JoinSide`]: a
/// delta owns nothing, so emitting one allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct StatsDelta<'a> {
    /// Base table the mutation hit.
    pub table: &'a str,
    /// `(family, qualifier)` of the join-attribute column written.
    pub join_col: &'a Column,
    /// `(family, qualifier)` of the score column written.
    pub score_col: &'a Column,
    /// Insert or delete.
    pub op: DeltaOp,
    /// Fingerprint of the tuple's join value (see [`join_fingerprint`]).
    pub join_fingerprint: u64,
    /// The tuple's score.
    pub score: f64,
    /// Indexed-entry bytes the tuple contributes to transfer-size models
    /// (same accounting as the full statistics pass).
    pub entry_bytes: f64,
}

impl StatsDelta<'_> {
    /// Whether this delta writes side `i` of `spec` (see the type docs).
    fn describes(&self, spec: &JoinSpec, i: usize) -> bool {
        let side = &spec.sides[i];
        side.table == self.table
            && side.score_col == *self.score_col
            && spec.incident_edges(i).any(|(_, col)| col == self.join_col)
    }
}

/// The maintained snapshot plus the bookkeeping deltas need to merge
/// exactly — the fields of the full pass's [`DetailedStats`], so the
/// collect path and the merge path stay structurally in sync.
struct Maintained {
    /// The snapshot, shared with the planning calls that read it: a
    /// delta copies it only while one of them still holds it.
    stats: Arc<TableStats>,
    /// Per edge: fingerprint → tuple count at each endpoint.
    join_counts: Vec<HashMap<u64, [u64; 2]>>,
    /// Per-side total indexed-entry bytes.
    entry_bytes: Vec<f64>,
    /// Per-side mutations folded in since the last full pass.
    mutations: Vec<u64>,
    /// Per-side tuple counts at the last full pass (staleness denominator).
    baseline_tuples: Vec<u64>,
}

impl Maintained {
    fn new(detail: DetailedStats) -> Self {
        let baseline_tuples: Vec<u64> = detail.stats.sides.iter().map(|s| s.tuples).collect();
        Maintained {
            mutations: vec![0; baseline_tuples.len()],
            baseline_tuples,
            stats: Arc::new(detail.stats),
            join_counts: detail.join_counts,
            entry_bytes: detail.entry_bytes,
        }
    }

    /// Fraction of tuples mutated since the last full pass — the largest
    /// of the sides' fractions, so mutating 10% of a small side is as
    /// stale as mutating 10% of a large one.
    fn staleness(&self) -> f64 {
        self.mutations
            .iter()
            .zip(&self.baseline_tuples)
            .map(|(&m, &b)| m as f64 / b.max(1) as f64)
            .fold(0.0, f64::max)
    }

    /// Merges one delta into side `side` of `spec` in place: the side's
    /// tuples, histogram and bytes once, and every incident edge whose
    /// column the delta names at that edge's endpoint. Everything but
    /// `max_score` stays exact. For a same-schema self-join this runs
    /// once per side; the order-sensitive partner-count reads make the
    /// two applications compose to exactly the full-pass arithmetic
    /// (`(c+1)² − c² = 2c+1` pairs per inserted value, symmetrically for
    /// deletes).
    fn apply(&mut self, spec: &JoinSpec, side: usize, delta: &StatsDelta<'_>) {
        let stats = Arc::make_mut(&mut self.stats);
        let fingerprint = delta.join_fingerprint;
        for (e, col) in spec.incident_edges(side) {
            if col != delta.join_col {
                continue;
            }
            let end = usize::from(spec.edges[e].a != side);
            let edge = &mut stats.edges[e];
            let sketch = &mut self.join_counts[e];
            let counts = sketch.entry(fingerprint).or_insert([0, 0]);
            let partner_count = counts[1 - end];
            match delta.op {
                DeltaOp::Insert => {
                    if counts[end] == 0 {
                        edge.distinct[end] += 1;
                    }
                    counts[end] += 1;
                    edge.pairs += partner_count;
                }
                DeltaOp::Delete => {
                    // Only a tuple the sketch has actually seen can retire
                    // a distinct join value or join pairs — deleting a row
                    // that arrived outside the maintained path
                    // (fingerprint absent or already zero) must not push
                    // these *below* the truth.
                    if counts[end] > 0 {
                        counts[end] -= 1;
                        if counts[end] == 0 {
                            edge.distinct[end] = edge.distinct[end].saturating_sub(1);
                        }
                        edge.pairs = edge.pairs.saturating_sub(partner_count);
                    }
                    if *counts == [0, 0] {
                        sketch.remove(&fingerprint);
                    }
                }
            }
        }
        let s = &mut stats.sides[side];
        let bucket = SideStats::bucket_of(delta.score);
        match delta.op {
            DeltaOp::Insert => {
                s.tuples += 1;
                s.hist[bucket] += 1;
                s.max_score = s.max_score.max(delta.score);
                self.entry_bytes[side] += delta.entry_bytes;
            }
            DeltaOp::Delete => {
                s.tuples = s.tuples.saturating_sub(1);
                s.hist[bucket] = s.hist[bucket].saturating_sub(1);
                self.entry_bytes[side] = (self.entry_bytes[side] - delta.entry_bytes).max(0.0);
                // The true max of the survivors is unknown; clamp to the
                // highest non-empty bucket's upper bound (conservative:
                // never below the true max, at most one bucket above it).
                if s.tuples == 0 {
                    s.max_score = 0.0;
                } else if s.hist[SideStats::bucket_of(s.max_score)] == 0 {
                    let top = (0..STAT_BUCKETS).rev().find(|&b| s.hist[b] > 0);
                    s.max_score = top.map(SideStats::upper).unwrap_or(0.0).min(s.max_score);
                }
            }
        }
        if s.tuples > 0 {
            s.avg_entry_bytes = self.entry_bytes[side] / s.tuples as f64;
        } else {
            s.avg_entry_bytes = KV_OVERHEAD_BYTES;
        }
        self.mutations[side] += 1;
    }
}

/// What [`SharedTableStats::stats_for_planning`] hands the executor.
pub struct PlannedStats {
    /// The snapshot to predict from.
    pub stats: Arc<TableStats>,
    /// Which path produced it (reported by `Plan::explain`).
    pub source: StatsSource,
    /// Handle version the snapshot corresponds to — plan-cache entries
    /// keyed on it go stale when another delta or invalidation lands.
    pub version: u64,
}

/// One spec's `Arc`-shared, incrementally-maintained statistics, for any
/// arity (see the module docs). Each executor creates one and shares it
/// (`stats_handle` /
/// [`attach_stats`](crate::executor::RankJoinExecutor::attach_stats));
/// [`MaintainedSide::with_stats`](crate::maintenance::MaintainedSide::with_stats)
/// registers it on the write path.
pub struct SharedTableStats {
    /// The spec, shared with the executor that created the handle.
    spec: Arc<JoinSpec>,
    /// Bumped by every delta, invalidation, and collection — the
    /// plan-cache coherence token. Atomic so readers never block on the
    /// snapshot lock.
    version: AtomicU64,
    /// Full statistics passes run through this handle (tests assert the
    /// below-bound path never grows it).
    collections: AtomicU64,
    maintained: Mutex<Option<Maintained>>,
}

impl SharedTableStats {
    /// A handle for one spec (no snapshot yet; the first planning call
    /// collects), sharing the caller's spec.
    pub fn new(spec: Arc<JoinSpec>) -> Arc<Self> {
        Arc::new(SharedTableStats {
            spec,
            version: AtomicU64::new(0),
            collections: AtomicU64::new(0),
            maintained: Mutex::new(None),
        })
    }

    /// The spec this handle describes.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// Current coherence version (bumped by deltas, invalidations, and
    /// collections).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// How many full statistics passes this handle has run.
    pub fn collections(&self) -> u64 {
        self.collections.load(Ordering::Relaxed)
    }

    /// The snapshot under the handle's lock — the lock every write's
    /// fence and every collection take (see the module docs).
    fn lock(&self) -> MutexGuard<'_, Option<Maintained>> {
        self.maintained.lock().expect("stats handle")
    }

    /// Fraction of any side's tuples mutated since the last full pass
    /// (`f64::INFINITY` when no snapshot exists yet).
    pub fn staleness(&self) -> f64 {
        self.lock()
            .as_ref()
            .map_or(f64::INFINITY, Maintained::staleness)
    }

    /// Whether a snapshot exists and more than [`STALENESS_BOUND`] of a
    /// side's tuples mutated since it was collected: the next planning
    /// call re-collects.
    pub fn is_stale(&self) -> bool {
        self.lock()
            .as_ref()
            .is_some_and(|m| m.staleness() > STALENESS_BOUND)
    }

    /// The maintained snapshot as it stands, without triggering a
    /// collection — `None` before the first planning call or after an
    /// invalidation. Diagnostics and tests compare this against a fresh
    /// [`TableStats::collect`] pass.
    pub fn maintained_stats(&self) -> Option<TableStats> {
        self.lock().as_ref().map(|m| TableStats::clone(&m.stats))
    }

    /// Drops the snapshot entirely — index (re-)preparation changed the
    /// world in ways deltas don't describe. The next planning call
    /// re-collects.
    pub fn invalidate(&self) {
        *self.lock() = None;
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The planner entry point: returns maintained statistics when the
    /// mutated fraction is within [`STALENESS_BOUND`], and transparently
    /// runs a full pass otherwise (or when no snapshot exists yet). The
    /// pass holds the handle's lock from its scan to its install, so no
    /// fenced write lands in between.
    pub fn stats_for_planning(&self, cluster: &Cluster) -> Result<PlannedStats> {
        let mut guard = self.lock();
        let source = match guard.as_ref().map(Maintained::staleness) {
            Some(s) if s <= STALENESS_BOUND => StatsSource::Maintained { staleness: s },
            Some(s) => StatsSource::Recollected { staleness: s },
            None => StatsSource::Exact,
        };
        if !matches!(source, StatsSource::Maintained { .. }) {
            *guard = Some(Maintained::new(collect_detailed(cluster, &self.spec)?));
            self.collections.fetch_add(1, Ordering::Relaxed);
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        let m = guard.as_mut().ok_or(RankJoinError::Internal(
            "stats snapshot missing after ensure",
        ))?;
        // Region counts can drift under maintained inserts (auto-splits)
        // without any delta describing it; they are free to re-read.
        for (i, side) in self.spec.sides.iter().enumerate() {
            let regions = cluster.table(&side.table)?.region_infos().len();
            if m.stats.sides[i].regions != regions {
                Arc::make_mut(&mut m.stats).sides[i].regions = regions;
            }
        }
        Ok(PlannedStats {
            stats: m.stats.clone(),
            source,
            version: self.version(),
        })
    }

    /// Folds one write's delta into **every** side whose statistics
    /// schema it describes (see [`StatsDelta`]) — both sides of a
    /// same-schema self-join, exactly as a full collection pass would
    /// count the row. Deltas for schemas this spec does not touch are
    /// ignored; deltas arriving before the first collection only bump
    /// the version (the first planning call collects them anyway).
    ///
    /// Unfenced: a collection between the write and this call counts
    /// the row twice. [`crate::maintenance::MaintainedSide`] merges
    /// through the fence; a caller writing by hand serializes its writes
    /// against planning calls itself.
    pub fn apply_delta(&self, delta: &StatsDelta<'_>) {
        self.merge(&mut self.lock(), delta);
    }

    /// Runs a base write under the handle's lock and merges its delta
    /// under the same guard when the write succeeded — the fence (see the
    /// module docs). A failed write merges nothing.
    pub(crate) fn fenced(
        &self,
        delta: &StatsDelta<'_>,
        write: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let mut guard = self.lock();
        write()?;
        self.merge(&mut guard, delta);
        Ok(())
    }

    fn merge(&self, maintained: &mut Option<Maintained>, delta: &StatsDelta<'_>) {
        let spec = &self.spec;
        if !(0..spec.n()).any(|i| delta.describes(spec, i)) {
            return;
        }
        if let Some(m) = maintained.as_mut() {
            for i in (0..spec.n()).filter(|&i| delta.describes(spec, i)) {
                m.apply(spec, i, delta);
            }
        }
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maintenance::MaintainedSide;
    use crate::planner::entry_bytes_of;
    use crate::query::RankJoinQuery;
    use crate::testsupport::{put_tuple, running_example_cluster, three_way_path_cluster};

    /// A delta written through side `side`'s own join column, for row
    /// key `rk_test`.
    pub(crate) fn delta<'q>(
        spec: &'q JoinSpec,
        side: usize,
        op: DeltaOp,
        join: &[u8],
        score: f64,
    ) -> StatsDelta<'q> {
        let s = spec.try_side(side).expect("spec side");
        StatsDelta {
            table: &s.table,
            join_col: &s.join_col,
            score_col: &s.score_col,
            op,
            join_fingerprint: join_fingerprint(join),
            score,
            entry_bytes: entry_bytes_of(join, b"rk_test"),
        }
    }

    /// A handle over `spec` with its first pass collected.
    fn primed(c: &Cluster, spec: JoinSpec) -> Arc<SharedTableStats> {
        let h = SharedTableStats::new(Arc::new(spec));
        h.stats_for_planning(c).unwrap();
        h
    }

    /// The handle's snapshot equals a fresh pass over `c`, field for
    /// field.
    pub(crate) fn assert_exact(c: &Cluster, h: &SharedTableStats) {
        let fresh = TableStats::collect(c, h.spec()).unwrap();
        assert_eq!(h.maintained_stats().expect("a snapshot"), fresh);
    }

    #[test]
    fn first_planning_call_collects_then_maintains() {
        let (c, q) = running_example_cluster();
        let h = SharedTableStats::new(Arc::new(q.to_spec()));
        assert_eq!(h.collections(), 0);
        assert!(h.staleness().is_infinite() && !h.is_stale());
        let p = h.stats_for_planning(&c).unwrap();
        assert_eq!(p.source, StatsSource::Exact);
        assert_eq!(h.collections(), 1);
        assert_eq!(p.stats.edges[0].pairs, 29);
        // Second call: maintained path, no new collection.
        let p2 = h.stats_for_planning(&c).unwrap();
        assert_eq!(p2.source, StatsSource::Maintained { staleness: 0.0 });
        assert_eq!(h.collections(), 1);
        assert_eq!(p2.version, p.version);
    }

    #[test]
    fn deltas_merge_exactly_against_a_fresh_pass() {
        let (c, q) = running_example_cluster();
        let h = primed(&c, q.to_spec());
        let side = MaintainedSide::new(&c, q.right.clone()).with_stats(h.clone());
        side.insert(b"rk_test", b"b", 0.99, vec![]).unwrap();
        assert_exact(&c, &h);
        assert!(h.staleness() > 0.0 && !h.is_stale());
        side.delete(b"r2_02").unwrap();
        assert_exact(&c, &h);
    }

    #[test]
    fn delete_clamps_max_score_conservatively() {
        let (c, q) = running_example_cluster();
        let h = primed(&c, q.to_spec());
        // r2's max is 0.92 (r2_11); delete it from the sketch.
        h.apply_delta(&delta(h.spec(), 1, DeltaOp::Delete, b"b", 0.92));
        let m = &h.maintained_stats().unwrap().sides[1];
        // True new max is 0.91 (r2_02); bucket-granular clamp gives 0.92
        // (the upper bound of bucket 91) — never below the truth.
        assert!(m.max_score >= 0.91);
        assert!(m.max_score <= 0.92 + 1e-12);
        assert_eq!(m.tuples, 10);
    }

    /// Writes through `side` (one incident edge) past the bound; the
    /// handle must re-collect. Also run over the three-way path.
    pub(crate) fn check_crossing_the_bound(c: &Cluster, spec: &JoinSpec, side: usize) {
        let h = primed(c, spec.clone());
        let fresh = TableStats::collect(c, spec).unwrap();
        let edge = spec.incident_edges(side).next().unwrap().0;
        let end = usize::from(spec.edges[edge].a != side);
        // A new join value lands on the side and on its edge's endpoint,
        // and moves the version.
        let v = h.version();
        h.apply_delta(&delta(spec, side, DeltaOp::Insert, b"zz", 0.95));
        assert!(h.version() > v, "a delta bumps the coherence version");
        let m = h.maintained_stats().unwrap();
        assert_eq!(m.sides[side].tuples, fresh.sides[side].tuples + 1);
        assert_eq!(m.sides[side].hist[95], fresh.sides[side].hist[95] + 1);
        let distinct = |s: &TableStats| s.edges[edge].distinct[end];
        assert_eq!(distinct(&m), distinct(&fresh) + 1);
        assert!(h.staleness() > 0.0 && !h.is_stale());
        // A second mutation on an 11- or 13-tuple side is > 10%.
        // Cancelling ops still count: staleness measures churn, not net
        // size change.
        h.apply_delta(&delta(spec, side, DeltaOp::Delete, b"zz", 0.95));
        assert!(h.is_stale());
        let v = h.version();
        let p = h.stats_for_planning(c).unwrap();
        assert!(matches!(p.source, StatsSource::Recollected { .. }));
        assert_eq!(h.collections(), 2);
        assert!(h.version() > v, "a collection bumps the coherence version");
        assert_eq!(p.version, h.version());
        assert_eq!(h.staleness(), 0.0, "re-collection resets the clock");
    }

    /// A delta for a table outside `spec` moves nothing.
    pub(crate) fn check_foreign_deltas_are_ignored(c: &Cluster, spec: &JoinSpec) {
        let h = primed(c, spec.clone());
        let v = h.version();
        let write = delta(spec, 0, DeltaOp::Insert, b"x", 0.5);
        h.apply_delta(&StatsDelta {
            table: "some_other_table",
            ..write
        });
        assert_eq!(h.staleness(), 0.0);
        assert_eq!(h.version(), v, "unrelated writes must not thrash plans");
    }

    /// `invalidate` drops the snapshot; the next planning call collects.
    pub(crate) fn check_invalidate_forces_a_fresh_pass(c: &Cluster, spec: &JoinSpec) {
        let h = primed(c, spec.clone());
        h.invalidate();
        assert!(h.maintained_stats().is_none());
        let p = h.stats_for_planning(c).unwrap();
        assert_eq!(p.source, StatsSource::Exact);
        assert_eq!(h.collections(), 2);
    }

    #[test]
    fn crossing_the_bound_recollects() {
        let (c, q) = running_example_cluster();
        check_crossing_the_bound(&c, &q.to_spec(), 0);
    }

    #[test]
    fn deleting_an_unseen_join_value_cannot_understate_the_sketch() {
        let (c, q) = running_example_cluster();
        let h = primed(&c, q.to_spec());
        let before = h.maintained_stats().unwrap();
        // A delete whose join value never entered the sketch (e.g. the
        // row was written by a client bypassing MaintainedSide after the
        // collection): distinct joins and join cardinality must hold.
        h.apply_delta(&delta(h.spec(), 0, DeltaOp::Delete, b"never_seen", 0.3));
        let after = h.maintained_stats().unwrap();
        assert_eq!(after.edges[0].distinct, before.edges[0].distinct);
        assert_eq!(after.edges[0].pairs, before.edges[0].pairs);
        // The churn still counts toward staleness.
        assert!(h.staleness() > 0.0);
    }

    #[test]
    fn self_join_deltas_update_both_sides() {
        use crate::query::JoinSide;
        use crate::score::ScoreFn;
        use rj_store::costmodel::CostModel;
        // One table ranked against itself (same join/score columns, two
        // labels): a maintained write must land on BOTH sides' stats,
        // exactly as a full collection would count it.
        let c = Cluster::new(2, CostModel::test());
        c.create_table("t", &["d"]).unwrap();
        let client = c.client();
        for (key, j, score) in [("t0", b'x', 0.4f64), ("t1", b'x', 0.6), ("t2", b'y', 0.8)] {
            put_tuple(&client, "t", key.as_bytes(), &[j], score);
        }
        let side = |label| JoinSide::new("t", label, ("d", b"jk"), ("d", b"score"));
        let q = RankJoinQuery::new(side("A"), side("B"), 3, ScoreFn::Sum);
        let h = primed(&c, q.to_spec());
        // One insert through side A's write path.
        let writer = MaintainedSide::new(&c, q.left.clone()).with_stats(h.clone());
        writer.insert(b"t3", b"x", 0.9, vec![]).unwrap();
        assert_exact(&c, &h);
        let m = h.maintained_stats().unwrap();
        assert_eq!([m.sides[0].tuples, m.sides[1].tuples], [4, 4]);
        // (2+1)² + 1² = 10 pairs for x/y fan-outs 3/1 joined with itself.
        assert_eq!(m.edges[0].pairs, 10, "self-join cardinality");
    }

    #[test]
    fn foreign_deltas_are_ignored() {
        let (c, q) = running_example_cluster();
        check_foreign_deltas_are_ignored(&c, &q.to_spec());
    }

    #[test]
    fn interior_side_matches_either_edge_column() {
        let (c, spec) = three_way_path_cluster(3);
        let h = primed(&c, spec.clone());
        // Side B joins A on jk1 and C on jk2; a delta naming jk2 must
        // land on B (tuples) and on edge 1's B endpoint (distinct).
        let jk2 = ("d".to_owned(), b"jk2".to_vec());
        h.apply_delta(&StatsDelta {
            join_col: &jk2,
            ..delta(&spec, 1, DeltaOp::Insert, b"qq", 0.5)
        });
        let m = h.maintained_stats().unwrap();
        assert_eq!(m.sides[1].tuples, 13);
        let fresh = TableStats::collect(&c, &spec).unwrap();
        assert_eq!(m.edges[1].distinct[0], fresh.edges[1].distinct[0] + 1);
        assert_eq!(
            m.edges[0].distinct, fresh.edges[0].distinct,
            "edge 0 untouched"
        );
    }

    #[test]
    fn invalidate_forces_a_fresh_pass() {
        let (c, q) = running_example_cluster();
        check_invalidate_forces_a_fresh_pass(&c, &q.to_spec());
    }
}

/// rj_check models (run with `RUSTFLAGS="--cfg rj_check" cargo test -p
/// rj_core --lib model_`): a maintained write against the first
/// collection, on every interleaving.
#[cfg(all(test, rj_check))]
mod model_tests {
    use super::tests::{assert_exact, delta};
    use super::*;
    use crate::maintenance::MaintainedSide;
    use crate::testsupport::{put_tuple, running_example_cluster};
    use rj_analyze::chk::{self, thread, CheckOutcome, Config};

    /// Runs `write` on a second thread while the first collects through
    /// the handle, then checks the snapshot against a fresh pass.
    fn against_a_first_collection(write: fn(&Cluster, &Arc<SharedTableStats>)) {
        let (c, q) = running_example_cluster();
        let h = SharedTableStats::new(Arc::new(q.to_spec()));
        let (writer_c, writer_h) = (c.clone(), h.clone());
        let writer = thread::spawn(move || write(&writer_c, &writer_h));
        h.stats_for_planning(&c).unwrap();
        writer.join();
        assert_exact(&c, &h);
    }

    /// The maintained write path of the running example's side R2.
    fn r2(c: &Cluster, h: &Arc<SharedTableStats>) -> MaintainedSide {
        MaintainedSide::new(c, h.spec().sides[1].clone()).with_stats(h.clone())
    }

    #[test]
    fn model_a_fenced_insert_is_counted_once() {
        chk::explore(|| {
            against_a_first_collection(|c, h| {
                r2(c, h).insert(b"r2_99", b"b", 0.99, vec![]).unwrap();
            })
        });
    }

    #[test]
    fn model_a_fenced_delete_is_counted_once() {
        chk::explore(|| {
            against_a_first_collection(|c, h| {
                r2(c, h).delete(b"r2_02").unwrap();
            })
        });
    }

    /// The order before the fence, rebuilt from public calls: the base
    /// put, then the delta. A collection that runs between the two scans
    /// the row and then merges its delta: the row is counted twice.
    #[test]
    fn model_an_unfenced_insert_is_counted_twice_on_some_schedule() {
        let outcome = chk::explore_with(Config::default(), || {
            against_a_first_collection(|c, h| {
                put_tuple(&c.client(), "r2", b"rk_test", b"b", 0.99);
                h.apply_delta(&delta(h.spec(), 1, DeltaOp::Insert, b"b", 0.99));
            })
        });
        // The failing schedule fails the snapshot's equality, nothing else.
        assert!(
            matches!(&outcome, CheckOutcome::Fail { message, .. } if message.contains("left == right")),
            "no schedule double-counts the unfenced write: {outcome:?}"
        );
    }
}
