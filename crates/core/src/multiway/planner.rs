//! Per-side statistics, the per-side access choice, and the N-side
//! staleness/versioning handle behind [`crate::multiway::SpecExecutor`].
//!
//! The binary planner ([`crate::planner`]) ranks whole algorithms; the
//! multiway planner's unit of choice is finer — **per side**, descend
//! the score index ([`SideAccess::Descend`]) or bulk-ingest it
//! ([`SideAccess::Materialize`]) — with one cost model composed along
//! the spec's join tree: at a uniform descent depth `d`, the expected
//! result count is `Π_i m_i / Π_e D_e` (tuples seen per side over the
//! product of per-edge distinct-value counts, the classic
//! independent-uniform join estimate), and the predicted read bill is
//! the sum of per-side consumption. [`choose_access`] minimizes that
//! bill over all `2^n` assignments — a small, exact search (specs are a
//! handful of sides, never hundreds).
//!
//! [`SharedSpecStats`] is the N-side sibling of
//! [`crate::statsmaint::SharedTableStats`]: one `Arc`-shared maintained
//! snapshot per spec, fed by the same [`StatsDelta`] fan-out the §6
//! maintained write path emits, with a mutation-fraction staleness bound
//! and an atomic coherence version that plan caches, cursors, and the
//! serving layer's warm caches pin against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rj_store::cluster::Cluster;

use crate::cursor::SideAccess;
use crate::error::{RankJoinError, Result};
use crate::planner::{StatsSource, KV_OVERHEAD_BYTES, STAT_BUCKETS};
use crate::query::JoinSpec;
use crate::statsmaint::{join_fingerprint, DeltaOp, StatsDelta, StatsMaintainer};

/// Statistics for one side of a spec (same histogram geometry as the
/// binary [`crate::planner::SideStats`]).
#[derive(Clone, Debug)]
pub struct SpecSideStats {
    /// Tuples with a valid `(edge values, score)` extraction.
    pub tuples: u64,
    /// Equi-width score histogram over `[0,1]`.
    pub hist: Vec<u64>,
    /// Highest score seen (0.0 when empty).
    pub max_score: f64,
    /// Average bytes per indexed entry.
    pub avg_entry_bytes: f64,
}

impl SpecSideStats {
    fn empty() -> Self {
        SpecSideStats {
            tuples: 0,
            hist: vec![0; STAT_BUCKETS],
            max_score: 0.0,
            avg_entry_bytes: KV_OVERHEAD_BYTES,
        }
    }

    fn bucket_of(score: f64) -> usize {
        ((score * STAT_BUCKETS as f64) as usize).min(STAT_BUCKETS - 1)
    }
}

/// A statistics snapshot over every side and edge of a spec.
#[derive(Clone, Debug)]
pub struct SpecStats {
    /// Per-side statistics, in side order.
    pub sides: Vec<SpecSideStats>,
    /// Per-edge distinct join-value counts `(at endpoint a, at endpoint
    /// b)`, in edge order.
    pub edge_distinct: Vec<(u64, u64)>,
}

impl SpecStats {
    /// The join-selectivity divisor of edge `e`: the larger endpoint's
    /// distinct count (the independent-uniform estimate divides by the
    /// join attribute's domain size, best approximated by the bigger
    /// side's distinct count), floored at 1.
    fn edge_divisor(&self, e: usize) -> f64 {
        let (a, b) = self.edge_distinct[e];
        a.max(b).max(1) as f64
    }

    /// Expected join results when each side contributes its first
    /// `seen[i]` tuples: `Π_i seen_i / Π_e D_e`.
    pub(crate) fn expected_results(&self, seen: &[f64]) -> f64 {
        let numerator: f64 = seen.iter().product();
        let denominator: f64 = (0..self.edge_distinct.len())
            .map(|e| self.edge_divisor(e))
            .product();
        numerator / denominator
    }
}

/// Collects a [`SpecStats`] snapshot through the store's metric-free
/// admin read path — the N-ary `ANALYZE` (one pass per side; charged to
/// [`rj_store::metrics::MetricsSnapshot::admin_kv_reads`] only).
pub fn collect_spec_stats(cluster: &Cluster, spec: &JoinSpec) -> Result<SpecStats> {
    collect_with_sketch(cluster, spec).map(|(stats, _)| stats)
}

/// Predicted index reads of one access assignment: materialized sides
/// pay their full tuple count up front; descending sides pay the uniform
/// round-robin depth at which the expected result count reaches `k`.
pub(crate) fn predicted_reads(stats: &SpecStats, access: &[SideAccess], k: usize) -> f64 {
    let n = access.len();
    let totals: Vec<f64> = stats.sides.iter().map(|s| s.tuples as f64).collect();
    let max_depth = totals
        .iter()
        .zip(access)
        .filter(|(_, a)| **a == SideAccess::Descend)
        .map(|(t, _)| *t as u64)
        .max()
        .unwrap_or(0);
    // Smallest uniform descend depth whose expected yield covers k
    // (doubling scan — depths are small integers, exactness is not the
    // point of a ranking model).
    let mut depth = 0u64;
    if k > 0 && max_depth > 0 {
        depth = 1;
        loop {
            let seen: Vec<f64> = (0..n)
                .map(|i| match access[i] {
                    SideAccess::Materialize => totals[i],
                    SideAccess::Descend => totals[i].min(depth as f64),
                })
                .collect();
            if stats.expected_results(&seen) >= k as f64 || depth >= max_depth {
                break;
            }
            depth *= 2;
        }
    }
    (0..n)
        .map(|i| match access[i] {
            SideAccess::Materialize => totals[i],
            SideAccess::Descend => totals[i].min(depth as f64),
        })
        .sum()
}

/// Chooses the cheapest per-side access assignment for a top-`k` run of
/// `spec` under `stats` — exact enumeration of all `2^n` assignments,
/// deterministic tie-break (first minimum in mask order, which prefers
/// all-descend on ties).
pub fn choose_access(spec: &JoinSpec, stats: &SpecStats, k: usize) -> Vec<SideAccess> {
    let n = spec.n();
    let mut best: Option<(f64, Vec<SideAccess>)> = None;
    for mask in 0..(1u32 << n) {
        let access: Vec<SideAccess> = (0..n)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    SideAccess::Materialize
                } else {
                    SideAccess::Descend
                }
            })
            .collect();
        let cost = predicted_reads(stats, &access, k);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, access));
        }
    }
    // rjlint: allow(no-unwrap) — the assignment enumeration always yields at
    // least one candidate (every side has a non-empty access-choice set).
    best.expect("at least one assignment").1
}

/// What [`SharedSpecStats::stats_for_planning`] hands the executor.
pub struct PlannedSpecStats {
    /// The snapshot to plan from.
    pub stats: Arc<SpecStats>,
    /// Which path produced it.
    pub source: StatsSource,
    /// Handle version the snapshot corresponds to.
    pub version: u64,
}

/// Per-edge `[endpoint a, endpoint b]` join-value fingerprint → count
/// sketches (distinct-count maintenance).
type EdgeSketches = Vec<[HashMap<u64, u64>; 2]>;

/// The maintained snapshot plus the per-edge fingerprint sketches deltas
/// merge into.
struct MaintainedSpec {
    stats: SpecStats,
    /// Per-(edge, endpoint) fingerprint → count (distinct maintenance).
    edge_values: EdgeSketches,
    mutations: Vec<u64>,
    baseline_tuples: Vec<u64>,
}

impl MaintainedSpec {
    fn staleness(&self) -> f64 {
        self.mutations
            .iter()
            .zip(&self.baseline_tuples)
            .map(|(&m, &b)| m as f64 / b.max(1) as f64)
            .fold(0.0, f64::max)
    }
}

/// One spec's `Arc`-shared, incrementally-maintained statistics — the
/// N-side sibling of [`crate::statsmaint::SharedTableStats`], fed by the
/// same [`StatsDelta`] fan-out.
///
/// A delta matches side `i` when its `(table, score_col)` equal the
/// side's and its `join_col` is one of the side's incident edge columns.
/// The side's tuple count and histogram fold the delta in once, and
/// every incident edge whose column the delta names adjusts its distinct
/// sketch. The write-path contract for a side with several incident
/// edges: emit **one** delta per row mutation (keyed by whichever join
/// column the writer maintains — other edges' distinct counts drift
/// until the staleness bound forces a re-collection, exactly the drift
/// the bound exists to bound).
pub struct SharedSpecStats {
    /// The spec, shared with the executor that created the handle.
    spec: Arc<JoinSpec>,
    version: AtomicU64,
    collections: AtomicU64,
    maintained: Mutex<Option<MaintainedSpec>>,
}

impl SharedSpecStats {
    /// A handle for one spec (no snapshot yet; the first planning call
    /// collects), sharing the caller's spec.
    pub fn new(spec: Arc<JoinSpec>) -> Arc<Self> {
        Arc::new(SharedSpecStats {
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

    /// Current coherence version (bumped by maintained deltas and
    /// invalidations — *not* by collections, which only read the data
    /// and must not spuriously invalidate caches or pinned cursors).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Full statistics passes run through this handle.
    pub fn collections(&self) -> u64 {
        self.collections.load(Ordering::Relaxed)
    }

    /// Fraction of any side's tuples mutated since the last full pass
    /// (`f64::INFINITY` when no snapshot exists yet).
    pub fn staleness(&self) -> f64 {
        self.maintained
            .lock()
            .expect("spec stats handle")
            .as_ref()
            .map_or(f64::INFINITY, MaintainedSpec::staleness)
    }

    /// The maintained snapshot as it stands, without collecting.
    pub fn maintained_stats(&self) -> Option<SpecStats> {
        self.maintained
            .lock()
            .expect("spec stats handle")
            .as_ref()
            .map(|m| m.stats.clone())
    }

    /// Drops the snapshot; the next planning call re-collects.
    pub fn invalidate(&self) {
        *self.maintained.lock().expect("spec stats handle") = None;
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The planner entry point: maintained statistics while the mutated
    /// fraction is within `staleness_bound`, a transparent full pass
    /// otherwise (or before the first snapshot).
    pub fn stats_for_planning(
        &self,
        cluster: &Cluster,
        staleness_bound: f64,
    ) -> Result<PlannedSpecStats> {
        let staleness_bound = staleness_bound.max(0.0);
        let mut guard = self.maintained.lock().expect("spec stats handle");
        let source = match guard.as_ref().map(MaintainedSpec::staleness) {
            Some(s) if s <= staleness_bound => StatsSource::Maintained { staleness: s },
            Some(s) => StatsSource::Recollected { staleness: s },
            None => StatsSource::Exact,
        };
        if !matches!(source, StatsSource::Maintained { .. }) {
            let stats = collect_with_sketch(cluster, &self.spec)?;
            let baseline_tuples = stats.0.sides.iter().map(|s| s.tuples).collect();
            *guard = Some(MaintainedSpec {
                stats: stats.0,
                edge_values: stats.1,
                mutations: vec![0; self.spec.n()],
                baseline_tuples,
            });
            self.collections.fetch_add(1, Ordering::Relaxed);
        }
        let m = guard.as_ref().ok_or(RankJoinError::Internal(
            "stats snapshot missing after ensure",
        ))?;
        Ok(PlannedSpecStats {
            stats: Arc::new(m.stats.clone()),
            source,
            version: self.version(),
        })
    }
}

/// [`collect_spec_stats`] keeping the per-edge fingerprint sketches the
/// maintained path merges deltas into. One shared implementation so the
/// collect path and the delta path stay structurally in sync.
fn collect_with_sketch(cluster: &Cluster, spec: &JoinSpec) -> Result<(SpecStats, EdgeSketches)> {
    let n = spec.n();
    let mut sides = Vec::with_capacity(n);
    let mut edge_values: EdgeSketches = spec
        .edges
        .iter()
        .map(|_| [HashMap::new(), HashMap::new()])
        .collect();
    let mut admin_reads = 0u64;
    for (i, (side, columns)) in spec.sides.iter().zip(spec.side_columns()).enumerate() {
        let table = cluster.table(&side.table)?;
        let mut s = SpecSideStats::empty();
        let mut bytes = 0.0f64;
        // Streamed: each row is read in place, none is copied or kept.
        table.for_each_row(|row| {
            admin_reads += 1;
            let Some((values, score)) = columns.extract(row) else {
                return;
            };
            s.tuples += 1;
            s.max_score = s.max_score.max(score);
            s.hist[SpecSideStats::bucket_of(score)] += 1;
            bytes += crate::planner::entry_bytes_of(
                &values.iter().map(|v| v.len()).sum::<usize>().to_be_bytes(),
                row.key,
            );
            for ((e, _), value) in spec.incident_edges(i).zip(&values) {
                let endpoint = usize::from(spec.edges[e].a != i);
                *edge_values[e][endpoint]
                    .entry(join_fingerprint(value))
                    .or_insert(0) += 1;
            }
        });
        if s.tuples > 0 {
            s.avg_entry_bytes = bytes / s.tuples as f64;
        }
        sides.push(s);
    }
    cluster.metrics().add_admin_kv_reads(admin_reads);
    let edge_distinct = edge_values
        .iter()
        .map(|[a, b]| (a.len() as u64, b.len() as u64))
        .collect();
    Ok((
        SpecStats {
            sides,
            edge_distinct,
        },
        edge_values,
    ))
}

impl StatsMaintainer for SharedSpecStats {
    /// Folds a maintained write into every side it describes (see the
    /// type docs for the matching rule). Deltas for foreign schemas are
    /// ignored; deltas arriving before the first collection only bump
    /// the version.
    fn apply_delta(&self, delta: &StatsDelta<'_>) {
        // The incident edges of side `i` whose column the delta names.
        let edges = |i: usize| {
            self.spec
                .incident_edges(i)
                .filter(|(_, col)| *col == delta.join_col)
                .map(|(e, _)| e)
        };
        let matches = |i: usize| {
            let side = &self.spec.sides[i];
            side.table == delta.table
                && side.score_col == *delta.score_col
                && edges(i).next().is_some()
        };
        if !(0..self.spec.n()).any(matches) {
            return;
        }
        if let Some(m) = self.maintained.lock().expect("spec stats handle").as_mut() {
            for i in (0..self.spec.n()).filter(|&i| matches(i)) {
                let s = &mut m.stats.sides[i];
                let bucket = SpecSideStats::bucket_of(delta.score);
                match delta.op {
                    DeltaOp::Insert => {
                        s.tuples += 1;
                        s.hist[bucket] += 1;
                        s.max_score = s.max_score.max(delta.score);
                    }
                    DeltaOp::Delete => {
                        s.tuples = s.tuples.saturating_sub(1);
                        s.hist[bucket] = s.hist[bucket].saturating_sub(1);
                        if s.tuples == 0 {
                            s.max_score = 0.0;
                        }
                    }
                }
                for e in edges(i) {
                    let endpoint = usize::from(self.spec.edges[e].a != i);
                    let sketch = &mut m.edge_values[e][endpoint];
                    match delta.op {
                        DeltaOp::Insert => {
                            *sketch.entry(delta.join_fingerprint).or_insert(0) += 1;
                        }
                        DeltaOp::Delete => {
                            if let Some(c) = sketch.get_mut(&delta.join_fingerprint) {
                                *c = c.saturating_sub(1);
                                if *c == 0 {
                                    sketch.remove(&delta.join_fingerprint);
                                }
                            }
                        }
                    }
                    let (a, b) = (
                        m.edge_values[e][0].len() as u64,
                        m.edge_values[e][1].len() as u64,
                    );
                    m.stats.edge_distinct[e] = (a, b);
                }
                m.mutations[i] += 1;
            }
        }
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::three_way_path_cluster;

    #[test]
    fn collect_counts_sides_and_edges() {
        let (c, spec) = three_way_path_cluster(3);
        let before = c.metrics().snapshot();
        let stats = collect_spec_stats(&c, &spec).unwrap();
        let after = c.metrics().snapshot();
        assert_eq!(stats.sides.len(), 3);
        assert_eq!(stats.sides[0].tuples, 14);
        assert_eq!(stats.sides[1].tuples, 12);
        assert_eq!(stats.sides[2].tuples, 13);
        assert_eq!(stats.edge_distinct.len(), 2);
        for &(a, b) in &stats.edge_distinct {
            assert!((1..=3).contains(&a), "values drawn from 3 letters");
            assert!((1..=3).contains(&b));
        }
        assert_eq!(before.kv_reads, after.kv_reads, "admin path only");
        assert!(after.admin_kv_reads > before.admin_kv_reads);
    }

    #[test]
    fn choose_access_materializes_a_small_selective_side() {
        // A 50-tuple interior side between two 1000-tuple sides over a
        // selective join (distinct ~100 per edge): paying the 50-row
        // ingest up front yields the side's full contribution at once,
        // halving the depth the big sides must descend to — strictly
        // cheaper than round-robining all three.
        let (_, spec) = three_way_path_cluster(50);
        let mut stats = SpecStats {
            sides: vec![
                SpecSideStats {
                    tuples: 1000,
                    ..SpecSideStats::empty()
                },
                SpecSideStats {
                    tuples: 50,
                    ..SpecSideStats::empty()
                },
                SpecSideStats {
                    tuples: 1000,
                    ..SpecSideStats::empty()
                },
            ],
            edge_distinct: vec![(100, 50), (50, 100)],
        };
        stats.sides[0].hist[50] = 1000;
        stats.sides[1].hist[50] = 50;
        stats.sides[2].hist[50] = 1000;
        let access = choose_access(&spec, &stats, 5);
        assert_eq!(access[1], SideAccess::Materialize, "{access:?}");
        assert_eq!(access[0], SideAccess::Descend);
        assert_eq!(access[2], SideAccess::Descend);
    }

    #[test]
    fn choose_access_prefers_descend_for_small_k() {
        let (c, spec) = three_way_path_cluster(1);
        let stats = collect_spec_stats(&c, &spec).unwrap();
        let access = choose_access(&spec, &stats, 1);
        // Whatever the assignment, its predicted bill must be minimal.
        let chosen = predicted_reads(&stats, &access, 1);
        for mask in 0..8u32 {
            let alt: Vec<SideAccess> = (0..3)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        SideAccess::Materialize
                    } else {
                        SideAccess::Descend
                    }
                })
                .collect();
            assert!(chosen <= predicted_reads(&stats, &alt, 1));
        }
    }

    #[test]
    fn maintained_deltas_track_and_staleness_bounds() {
        let (c, spec) = three_way_path_cluster(3);
        let h = SharedSpecStats::new(Arc::new(spec.clone()));
        assert!(h.staleness().is_infinite());
        let p = h.stats_for_planning(&c, 0.1).unwrap();
        assert_eq!(p.source, StatsSource::Exact);
        assert_eq!(h.collections(), 1);
        // Below-bound maintained path: no re-collection.
        let p2 = h.stats_for_planning(&c, 0.1).unwrap();
        assert_eq!(p2.source, StatsSource::Maintained { staleness: 0.0 });
        assert_eq!(h.collections(), 1);
        // A delta against side 2 (table tc, column jk).
        let v = h.version();
        h.apply_delta(&StatsDelta {
            table: "tc",
            join_col: &("d".into(), b"jk".to_vec()),
            score_col: &("d".into(), b"score".to_vec()),
            op: DeltaOp::Insert,
            join_fingerprint: join_fingerprint(b"zz"),
            score: 0.95,
            entry_bytes: 32.0,
        });
        assert!(h.version() > v, "delta bumps the coherence version");
        let m = h.maintained_stats().unwrap();
        assert_eq!(m.sides[2].tuples, 14);
        assert_eq!(m.sides[2].hist[95], 1);
        // New distinct value on edge 1's C endpoint.
        let fresh = collect_spec_stats(&c, &spec).unwrap();
        assert_eq!(m.edge_distinct[1].1, fresh.edge_distinct[1].1 + 1);
        assert!(h.staleness() > 0.0 && h.staleness() < 0.1);
        // Churn past the bound forces a re-collection.
        for _ in 0..3 {
            h.apply_delta(&StatsDelta {
                table: "tc",
                join_col: &("d".into(), b"jk".to_vec()),
                score_col: &("d".into(), b"score".to_vec()),
                op: DeltaOp::Insert,
                join_fingerprint: join_fingerprint(b"zz"),
                score: 0.95,
                entry_bytes: 32.0,
            });
        }
        assert!(h.staleness() > 0.1);
        let p3 = h.stats_for_planning(&c, 0.1).unwrap();
        assert!(matches!(p3.source, StatsSource::Recollected { .. }));
        assert_eq!(h.collections(), 2);
        assert_eq!(h.staleness(), 0.0);
    }

    #[test]
    fn interior_side_matches_either_edge_column() {
        let (c, spec) = three_way_path_cluster(3);
        let h = SharedSpecStats::new(Arc::new(spec.clone()));
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
        let fresh = collect_spec_stats(&c, &spec).unwrap();
        assert_eq!(m.edge_distinct[1].0, fresh.edge_distinct[1].0 + 1);
        assert_eq!(
            m.edge_distinct[0], fresh.edge_distinct[0],
            "edge 0 untouched"
        );
    }

    #[test]
    fn foreign_deltas_are_ignored() {
        let (c, spec) = three_way_path_cluster(3);
        let h = SharedSpecStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(&c, 0.1).unwrap();
        let v = h.version();
        h.apply_delta(&StatsDelta {
            table: "unrelated",
            join_col: &("d".into(), b"jk".to_vec()),
            score_col: &("d".into(), b"score".to_vec()),
            op: DeltaOp::Insert,
            join_fingerprint: 7,
            score: 0.5,
            entry_bytes: 32.0,
        });
        assert_eq!(h.version(), v);
        assert_eq!(h.staleness(), 0.0);
    }

    #[test]
    fn invalidate_forces_fresh_pass() {
        let (c, spec) = three_way_path_cluster(3);
        let h = SharedSpecStats::new(Arc::new(spec.clone()));
        h.stats_for_planning(&c, 0.1).unwrap();
        h.invalidate();
        assert!(h.maintained_stats().is_none());
        let p = h.stats_for_planning(&c, 0.1).unwrap();
        assert_eq!(p.source, StatsSource::Exact);
        assert_eq!(h.collections(), 2);
    }
}
