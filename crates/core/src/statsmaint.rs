//! Incremental statistics maintenance: keeping the planner's
//! [`TableStats`] fresh under the §6 maintained write path.
//!
//! The cost-based planners ([`crate::planner`] for binary queries,
//! [`crate::multiway::planner`] for the per-side access choice of wider
//! specs) are only as good as the freshness of the statistics behind
//! them — the adaptive-operator literature (Tziavelis et al., *Ranked
//! Enumeration for Database Queries*; *Optimal Join Algorithms Meet
//! Top-k*) makes the same point for every cost-based ranked-query
//! choice. Before this module, an executor snapshotted statistics once
//! and only invalidated them on `prepare_*`/`attach_*`; a workload mixing
//! [`crate::maintenance::MaintainedSide`] writes with
//! [`crate::executor::Algorithm::Auto`] queries silently planned against
//! histograms that no longer described the data.
//!
//! There is one handle for every arity: [`SharedTableStats`], keyed by
//! the [`JoinSpec`] it describes. A binary query's handle is the one over
//! its two-side spec ([`crate::query::RankJoinQuery::to_spec`]). It has
//! three parts:
//!
//! * **Deltas.** Every maintained insert/delete is reduced to a
//!   [`StatsDelta`] — which table and columns, which join value, which
//!   score, how many bytes — and fanned out to the registered
//!   [`StatsMaintainer`]s, exactly like the §6 index maintenance fans
//!   base mutations out to the attached indices.
//! * **In-place merge.** The handle holds one maintained [`TableStats`]
//!   snapshot per spec plus the bookkeeping a delta needs to merge
//!   *exactly*: per edge, a join-value fingerprint sketch (so each
//!   endpoint's distinct count and the edge's join cardinality
//!   `Σ_v a_v·b_v` adjust incrementally), and per side a byte total.
//!   Tuple counts, histograms, distinct counts, and join cardinality stay
//!   exact under any interleaving; only `max_score` degrades to
//!   bucket-granular after deletes (the true maximum of the survivors is
//!   unknown without a recount — the same conservative deviation the BFHM
//!   blob maintenance documents, and conservative in the same direction:
//!   bounds only widen).
//! * **A staleness bound the planner can reason about.** The handle
//!   tracks the fraction of any side's tuples mutated since the last
//!   full [`crate::planner::collect_stats`] pass. Below the executor's bound, planning
//!   trusts the maintained snapshot (no table pass — asserted in tests
//!   via the store's admin-read accounting); above it, the executor
//!   transparently re-collects, and [`Plan::explain`](crate::planner::Plan::explain)
//!   reports which path was taken via [`StatsSource`].
//!
//! The handle is `Arc`-shared: the executor that owns a spec, any
//! `fork_metrics` clones serving the same spec concurrently, and the
//! maintained write paths all see one set of statistics, and plan-cache
//! entries, parked cursors and the serving layer's caches are versioned
//! against it, so every delta, invalidation and collection coherently
//! invalidates stale plans everywhere.
//!
//! **What the bound can and cannot see.** The mutation counter advances
//! only on deltas, i.e. on writes routed through `MaintainedSide` — so
//! the bound covers the maintained path's *own* imperfections (the
//! bucket-granular `max_score` after deletes, the double-count race
//! below, partial-failure retries, the join columns of a side with
//! several incident edges that a one-column delta does not name), all of
//! which do advance the counter and therefore eventually force a
//! re-collection. Writes that bypass
//! `MaintainedSide` entirely (raw `Client::mutate_row`) are invisible to
//! the counter, exactly as they are invisible to the §6 index
//! maintenance: the contract is that online mutations go through the
//! intercepted write path, and a caller who bulk-loads around it must
//! re-prepare (or [`SharedTableStats::invalidate`]) just as they must
//! rebuild the indices.
//!
//! **Concurrency caveat.** Exactness is guaranteed for writes serialized
//! against collections. A maintained write racing a concurrent full
//! collection can be counted twice: its base row lands early enough for
//! the collection's scan to see it, while its delta (blocked on the
//! handle lock the collection holds) merges into the freshly installed
//! snapshot afterwards. The drift is bounded by in-flight writes, every
//! such delta still advances the mutation counter, and the next
//! bound-crossing re-collection erases it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use rj_store::cluster::Cluster;

use crate::error::{RankJoinError, Result};
use crate::planner::{
    collect_detailed, DetailedStats, SideStats, StatsSource, TableStats, KV_OVERHEAD_BYTES,
    STAT_BUCKETS,
};
use crate::query::{Column, JoinSpec};

/// Default fraction of a side's tuples that may mutate before the planner
/// stops trusting incrementally-maintained statistics and re-collects.
///
/// The maintained snapshot is exact in everything but `max_score`, so
/// the bound is really about the maintained path's residual
/// imperfections — bucket-granular extrema after deletes, the
/// double-count race under concurrent collection, partial-failure
/// retries — all of which advance the mutation counter. 10% keeps
/// re-collection rare under update-heavy workloads while bounding how
/// long such drift can influence depth estimates. (Writes bypassing
/// `MaintainedSide` never advance the counter — see the module docs.)
pub const DEFAULT_STALENESS_BOUND: f64 = 0.1;

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
/// emitted by [`crate::maintenance::MaintainedSide`] after its base write
/// lands.
///
/// A delta identifies the write by the *statistics schema* it touched —
/// base table plus join/score columns — not by side label: statistics
/// are a function of `(table, join columns, score column)`, so a handle
/// applies a matching delta to **every** side with that schema. A side
/// matches when its table and score column are the delta's and the
/// delta's join column is one of the side's incident edge columns. In
/// particular, a self-join over one table with identical columns sees
/// each write on both sides (exactly as a full `collect_stats` pass
/// would); a self-join ranking the two sides by *different* columns only
/// updates the side whose columns the write actually carried.
///
/// The write-path contract for a side with several incident edges: emit
/// **one** delta per row mutation, keyed by whichever join column the
/// writer maintains. The other edges' distinct counts drift until the
/// staleness bound forces a re-collection — exactly the drift the bound
/// exists to bound.
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

/// Anything that wants to observe maintained-write deltas — the §6 write
/// path fans each mutation out to every registered maintainer, mirroring
/// how it fans the mutation itself out to the attached indices.
pub trait StatsMaintainer: Send + Sync {
    /// Folds one write's delta in.
    fn apply_delta(&self, delta: &StatsDelta<'_>);
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
    /// keyed on it go stale the moment another delta or invalidation
    /// lands.
    pub version: u64,
}

/// One spec's `Arc`-shared, incrementally-maintained statistics, for any
/// arity (see the module docs).
///
/// Created with each [`crate::executor::RankJoinExecutor`] (and
/// [`crate::multiway::SpecExecutor`]); share it across executors
/// serving the same spec (e.g. the serving layer's `fork_metrics` clones)
/// via `stats_handle` /
/// [`attach_stats`](crate::executor::RankJoinExecutor::attach_stats), and
/// register it on the write path with
/// [`MaintainedSide::with_stats`](crate::maintenance::MaintainedSide::with_stats).
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

    /// Fraction of any side's tuples mutated since the last full pass
    /// (`f64::INFINITY` when no snapshot exists yet).
    pub fn staleness(&self) -> f64 {
        self.maintained
            .lock()
            .expect("stats handle")
            .as_ref()
            .map_or(f64::INFINITY, Maintained::staleness)
    }

    /// The maintained snapshot as it stands, without triggering a
    /// collection — `None` before the first planning call or after an
    /// invalidation. Diagnostics and tests compare this against a fresh
    /// [`crate::planner::collect_stats`] pass.
    pub fn maintained_stats(&self) -> Option<TableStats> {
        self.maintained
            .lock()
            .expect("stats handle")
            .as_ref()
            .map(|m| TableStats::clone(&m.stats))
    }

    /// Drops the snapshot entirely — index (re-)preparation changed the
    /// world in ways deltas don't describe. The next planning call
    /// re-collects.
    pub fn invalidate(&self) {
        *self.maintained.lock().expect("stats handle") = None;
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The planner entry point: returns maintained statistics when the
    /// mutated fraction is within `staleness_bound`, and transparently
    /// runs a full pass otherwise (or when no snapshot exists yet).
    ///
    /// A non-finite or negative bound is treated as `0.0` — the most
    /// conservative reading (never trust a mutated snapshot), rather
    /// than NaN comparisons silently forcing a full pass on *every*
    /// call, mutated or not.
    pub fn stats_for_planning(
        &self,
        cluster: &Cluster,
        staleness_bound: f64,
    ) -> Result<PlannedStats> {
        // f64::max(NaN, 0.0) = 0.0, which also clamps negatives.
        let staleness_bound = staleness_bound.max(0.0);
        let mut guard = self.maintained.lock().expect("stats handle");
        let source = match guard.as_ref().map(Maintained::staleness) {
            Some(s) if s <= staleness_bound => StatsSource::Maintained { staleness: s },
            Some(s) => StatsSource::Recollected { staleness: s },
            None => StatsSource::Exact,
        };
        if matches!(source, StatsSource::Exact | StatsSource::Recollected { .. }) {
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
}

impl StatsMaintainer for SharedTableStats {
    /// Folds a maintained write into **every** side whose statistics
    /// schema the delta describes (see [`StatsDelta`]) — both sides of a
    /// same-schema self-join, exactly as a full collection pass would
    /// count the row. Deltas for schemas this spec does not touch are
    /// ignored (a write path may broadcast to maintainers of several
    /// specs); deltas arriving before the first collection only bump the
    /// version (there is nothing to merge into — the first planning call
    /// collects them anyway).
    fn apply_delta(&self, delta: &StatsDelta<'_>) {
        let spec = &self.spec;
        if !(0..spec.n()).any(|i| delta.describes(spec, i)) {
            return;
        }
        if let Some(m) = self.maintained.lock().expect("stats handle").as_mut() {
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
    use crate::planner::{collect_stats, entry_bytes_of};
    use crate::query::RankJoinQuery;
    use crate::testsupport::{put_tuple, running_example_cluster, three_way_path_cluster};

    /// A delta written through side `side`'s own join column.
    fn delta<'q>(
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

    /// A handle over `q`'s two-side spec, and the spec.
    fn binary_handle(q: &RankJoinQuery) -> (Arc<SharedTableStats>, Arc<JoinSpec>) {
        let spec = Arc::new(q.to_spec());
        (SharedTableStats::new(spec.clone()), spec)
    }

    #[test]
    fn first_planning_call_collects_then_maintains() {
        let (c, q) = running_example_cluster();
        let (h, _) = binary_handle(&q);
        assert_eq!(h.collections(), 0);
        assert!(h.staleness().is_infinite());
        let p = h.stats_for_planning(&c, 0.1).unwrap();
        assert_eq!(p.source, StatsSource::Exact);
        assert_eq!(h.collections(), 1);
        assert_eq!(p.stats.edges[0].pairs, 29);
        // Second call: maintained path, no new collection.
        let p2 = h.stats_for_planning(&c, 0.1).unwrap();
        assert_eq!(p2.source, StatsSource::Maintained { staleness: 0.0 });
        assert_eq!(h.collections(), 1);
        assert_eq!(p2.version, p.version);
    }

    #[test]
    fn deltas_merge_exactly_against_a_fresh_pass() {
        let (c, q) = running_example_cluster();
        let (h, spec) = binary_handle(&q);
        h.stats_for_planning(&c, 1.0).unwrap();
        // Mirror two real mutations on the base table + the handle.
        let client = c.client();
        let ts = c.next_ts();
        client
            .mutate_row(
                "r2",
                b"rk_test",
                vec![
                    rj_store::cell::Mutation::put_at("d", b"jk", b"b".to_vec(), ts),
                    rj_store::cell::Mutation::put_at(
                        "d",
                        b"score",
                        0.99f64.to_be_bytes().to_vec(),
                        ts,
                    ),
                ],
            )
            .unwrap();
        h.apply_delta(&delta(&spec, 1, DeltaOp::Insert, b"b", 0.99));
        let fresh = collect_stats(&c, &q).unwrap();
        let maintained = h.maintained_stats().unwrap();
        let (m, f) = (&maintained.sides[1], &fresh.sides[1]);
        assert_eq!(m.tuples, f.tuples);
        assert_eq!(m.hist, f.hist);
        assert_eq!(maintained.edges[0].distinct, fresh.edges[0].distinct);
        assert_eq!(maintained.edges[0].pairs, fresh.edges[0].pairs);
        assert_eq!(m.max_score, f.max_score);
        assert!(h.staleness() > 0.0 && h.staleness() < 0.1);
    }

    #[test]
    fn delete_clamps_max_score_conservatively() {
        let (c, q) = running_example_cluster();
        let (h, spec) = binary_handle(&q);
        h.stats_for_planning(&c, 1.0).unwrap();
        // r2's max is 0.92 (r2_11); delete it from the sketch.
        h.apply_delta(&delta(&spec, 1, DeltaOp::Delete, b"b", 0.92));
        let m = &h.maintained_stats().unwrap().sides[1];
        // True new max is 0.91 (r2_02); bucket-granular clamp gives 0.92
        // (the upper bound of bucket 91) — never below the truth.
        assert!(m.max_score >= 0.91);
        assert!(m.max_score <= 0.92 + 1e-12);
        assert_eq!(m.tuples, 10);
    }

    /// Writes through `side` (one incident edge) past a 10% bound; the
    /// handle must re-collect. Also run over the three-way path.
    pub(crate) fn check_crossing_the_bound(c: &Cluster, spec: &JoinSpec, side: usize) {
        let h = SharedTableStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(c, 0.1).unwrap();
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
        assert!(h.staleness() > 0.0 && h.staleness() < 0.1);
        // A second mutation on an 11- or 13-tuple side is > 10%.
        // Cancelling ops still count: staleness measures churn, not net
        // size change.
        h.apply_delta(&delta(spec, side, DeltaOp::Delete, b"zz", 0.95));
        assert!(h.staleness() > 0.1);
        let v = h.version();
        let p = h.stats_for_planning(c, 0.1).unwrap();
        assert!(matches!(p.source, StatsSource::Recollected { .. }));
        assert_eq!(h.collections(), 2);
        assert!(h.version() > v, "a collection bumps the coherence version");
        assert_eq!(p.version, h.version());
        assert_eq!(h.staleness(), 0.0, "re-collection resets the clock");
    }

    /// A delta for a table outside `spec` moves nothing.
    pub(crate) fn check_foreign_deltas_are_ignored(c: &Cluster, spec: &JoinSpec) {
        let h = SharedTableStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(c, 0.1).unwrap();
        let v = h.version();
        h.apply_delta(&StatsDelta {
            table: "some_other_table",
            join_col: &("d".into(), b"jk".to_vec()),
            score_col: &("d".into(), b"score".to_vec()),
            op: DeltaOp::Insert,
            join_fingerprint: 7,
            score: 0.5,
            entry_bytes: 32.0,
        });
        assert_eq!(h.staleness(), 0.0);
        assert_eq!(h.version(), v, "unrelated writes must not thrash plans");
    }

    /// `invalidate` drops the snapshot; the next planning call collects.
    pub(crate) fn check_invalidate_forces_a_fresh_pass(c: &Cluster, spec: &JoinSpec) {
        let h = SharedTableStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(c, 0.1).unwrap();
        h.invalidate();
        assert!(h.maintained_stats().is_none());
        let p = h.stats_for_planning(c, 0.1).unwrap();
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
        let (h, spec) = binary_handle(&q);
        h.stats_for_planning(&c, 1.0).unwrap();
        let before = h.maintained_stats().unwrap();
        // A delete whose join value never entered the sketch (e.g. the
        // row was written by a client bypassing MaintainedSide after the
        // collection): distinct joins and join cardinality must hold.
        h.apply_delta(&delta(&spec, 0, DeltaOp::Delete, b"never_seen", 0.3));
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
        let q = RankJoinQuery::new(
            JoinSide::new("t", "A", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("t", "B", ("d", b"jk"), ("d", b"score")),
            3,
            ScoreFn::Sum,
        );
        let (h, _) = binary_handle(&q);
        h.stats_for_planning(&c, 1.0).unwrap();
        // Mirror a real insert on the table + one delta through side A's
        // write path.
        put_tuple(&client, "t", b"t3", b"x", 0.9);
        h.apply_delta(&StatsDelta {
            table: "t",
            join_col: &("d".into(), b"jk".to_vec()),
            score_col: &("d".into(), b"score".to_vec()),
            op: DeltaOp::Insert,
            join_fingerprint: join_fingerprint(b"x"),
            score: 0.9,
            entry_bytes: entry_bytes_of(b"x", b"t3"),
        });
        let fresh = collect_stats(&c, &q).unwrap();
        let m = h.maintained_stats().unwrap();
        for (side, name) in [(0, "left"), (1, "right")] {
            let (ms, fs) = (&m.sides[side], &fresh.sides[side]);
            assert_eq!(ms.tuples, fs.tuples, "{name} sees the write");
            assert_eq!(ms.hist, fs.hist);
        }
        // (2+1)² + 1² = 10 pairs for x/y fan-outs 3/1 joined with itself.
        assert_eq!(fresh.edges[0].pairs, 10);
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
        let h = SharedTableStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(&c, 1.0).unwrap();
        // Side B joins A on jk1 and C on jk2; a delta naming jk2 must
        // land on B (tuples) and on edge 1's B endpoint (distinct).
        h.apply_delta(&StatsDelta {
            table: "tb",
            join_col: &("d".into(), b"jk2".to_vec()),
            score_col: &("d".into(), b"score".to_vec()),
            op: DeltaOp::Insert,
            join_fingerprint: join_fingerprint(b"qq"),
            score: 0.5,
            entry_bytes: 32.0,
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
