//! The per-side access choice of an ISL run over three or more sides,
//! which [`crate::executor::RankJoinExecutor::plan_access`] makes and
//! caches.
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
//! The statistics come from the same [`TableStats`] snapshot and the same
//! [`crate::statsmaint::SharedTableStats`] handle the binary planner
//! reads: one side-stats entry per side, one edge-stats entry per edge,
//! maintained by the same delta fan-out and versioned by the same
//! counter.

use crate::cursor::SideAccess;
use crate::planner::TableStats;
use crate::query::JoinSpec;

/// Expected join results when each side contributes its first `seen[i]`
/// tuples: `Π_i seen_i / Π_e D_e`, where an edge's divisor `D_e` is the
/// larger endpoint's distinct count (the independent-uniform estimate
/// divides by the join attribute's domain size, best approximated by the
/// bigger side's distinct count), floored at 1.
fn expected_results(stats: &TableStats, seen: &[f64]) -> f64 {
    let numerator: f64 = seen.iter().product();
    let denominator: f64 = stats
        .edges
        .iter()
        .map(|e| e.distinct[0].max(e.distinct[1]).max(1) as f64)
        .product();
    numerator / denominator
}

/// Predicted index reads of one access assignment: materialized sides
/// pay their full tuple count up front; descending sides pay the uniform
/// depth at which the expected result count reaches `k` — only a model of
/// the threshold-led descent (see ROADMAP: fitting the planner constants).
pub(crate) fn predicted_reads(stats: &TableStats, access: &[SideAccess], k: usize) -> f64 {
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
            if expected_results(stats, &seen) >= k as f64 || depth >= max_depth {
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
pub fn choose_access(spec: &JoinSpec, stats: &TableStats, k: usize) -> Vec<SideAccess> {
    let n = spec.n();
    let side = |mask: u32, i| match mask >> i & 1 {
        0 => SideAccess::Descend,
        _ => SideAccess::Materialize,
    };
    let assignment = |mask| (0..n).map(|i| side(mask, i)).collect::<Vec<_>>();
    let mut best = assignment(0);
    let mut best_cost = predicted_reads(stats, &best, k);
    for mask in 1..(1u32 << n) {
        let access = assignment(mask);
        let cost = predicted_reads(stats, &access, k);
        if cost < best_cost {
            (best, best_cost) = (access, cost);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{EdgeStats, SideStats};
    use crate::statsmaint::tests::{
        check_crossing_the_bound, check_foreign_deltas_are_ignored,
        check_invalidate_forces_a_fresh_pass,
    };
    use crate::testsupport::three_way_path_cluster;

    #[test]
    fn collect_counts_sides_and_edges() {
        let (c, spec) = three_way_path_cluster(3);
        let before = c.metrics().snapshot();
        let stats = TableStats::collect(&c, &spec).unwrap();
        let after = c.metrics().snapshot();
        assert_eq!(stats.sides.len(), 3);
        assert_eq!(stats.sides[0].tuples, 14);
        assert_eq!(stats.sides[1].tuples, 12);
        assert_eq!(stats.sides[2].tuples, 13);
        assert_eq!(stats.edges.len(), 2);
        for edge in &stats.edges {
            for distinct in edge.distinct {
                assert!((1..=3).contains(&distinct), "values drawn from 3 letters");
            }
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
        // cheaper than descending all three.
        let (_, spec) = three_way_path_cluster(50);
        let side = |tuples| SideStats {
            tuples,
            ..SideStats::empty()
        };
        let edge = |distinct| EdgeStats { distinct, pairs: 0 };
        let mut stats = TableStats {
            sides: vec![side(1000), side(50), side(1000)],
            edges: vec![edge([100, 50]), edge([50, 100])],
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
        let stats = TableStats::collect(&c, &spec).unwrap();
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

    // The one statistics handle over a three-way spec (writes via end side C).

    #[test]
    fn maintained_deltas_track_and_staleness_bounds() {
        let (c, spec) = three_way_path_cluster(3);
        check_crossing_the_bound(&c, &spec, 2);
    }

    #[test]
    fn foreign_deltas_are_ignored() {
        let (c, spec) = three_way_path_cluster(3);
        check_foreign_deltas_are_ignored(&c, &spec);
    }

    #[test]
    fn invalidate_forces_fresh_pass() {
        let (c, spec) = three_way_path_cluster(3);
        check_invalidate_forces_a_fresh_pass(&c, &spec);
    }
}
