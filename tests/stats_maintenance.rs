//! Integration: incremental statistics maintenance under the §6 write
//! path (the stale-planner-statistics bugfix).
//!
//! The contract under test: registering an executor's shared statistics
//! handle on a [`MaintainedSide`] keeps the planner's [`TableStats`]
//! exact in place under any interleaving of maintained inserts and
//! deletes (modulo bucket-granular `max_score` after deletes); below the
//! handle's staleness bound planning never re-runs the full statistics
//! pass (asserted via the store's admin-read accounting); above it the
//! handle transparently re-collects; and in both regimes
//! `Algorithm::Auto` re-plans to match a fresh-statistics oracle instead
//! of serving the pre-mutation plan forever. The handle is the same for
//! a three-way spec, whose maintained statistics the property test checks
//! the same way.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use rankjoin::core::error::RankJoinError;
use rankjoin::core::planner::{self, Objective, TableStats};
use rankjoin::core::{ijlmr, isl, oracle};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, JoinEdge, JoinSide, JoinSpec, MaintainedSide,
    Mutation, Plan, RankJoinExecutor, RankJoinQuery, ScoreFn, SpecExecutor, StatsSource,
};

/// Loads `left`/`right` `(join, score)` tuples into a fresh cluster.
fn load(left: &[(u8, f64)], right: &[(u8, f64)], k: usize) -> (Cluster, RankJoinQuery) {
    load_pair(left, right, k, CostModel::test())
}

/// [`load`] under the `cost` profile.
fn load_pair(
    left: &[(u8, f64)],
    right: &[(u8, f64)],
    k: usize,
    cost: CostModel,
) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(3, cost);
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (rows, table) in [(left, "l"), (right, "r")] {
        for (i, (j, score)) in rows.iter().enumerate() {
            client
                .mutate_row(
                    table,
                    format!("{table}{i:03}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*j]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        k,
        ScoreFn::Sum,
    );
    (cluster, query)
}

/// Loads a three-way path `L ⋈ M ⋈ R`: `left` and `right` as [`load`]
/// does, and a middle side `M` joining `L` on `jk1` and `R` on `jk2`.
fn load_path(
    left: &[(u8, f64)],
    middle: &[(u8, u8, f64)],
    right: &[(u8, f64)],
) -> (Cluster, JoinSpec) {
    let (cluster, query) = load(left, right, 5);
    cluster.create_table("m", &["d"]).unwrap();
    let client = cluster.client();
    for (i, (j1, j2, score)) in middle.iter().enumerate() {
        client
            .mutate_row(
                "m",
                format!("m{i:03}").as_bytes(),
                vec![
                    Mutation::put("d", b"jk1", vec![*j1]),
                    Mutation::put("d", b"jk2", vec![*j2]),
                    Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                ],
            )
            .unwrap();
    }
    let sides = vec![
        query.left,
        JoinSide::new("m", "M", ("d", b"jk1"), ("d", b"score")),
        query.right,
    ];
    let edges = vec![
        JoinEdge::on_join_cols(&sides, 0, 1),
        JoinEdge {
            a: 1,
            a_col: ("d".into(), b"jk2".to_vec()),
            b: 2,
            b_col: ("d".into(), b"jk".to_vec()),
        },
    ];
    (
        cluster,
        JoinSpec::new(sides, edges, 5, ScoreFn::Sum).unwrap(),
    )
}

/// Prepares the three maintainable indices (ISL, IJLMR, BFHM) and returns
/// the executor. DRJN has no §6 write path, so it is left out: a write
/// that bypasses DRJN leaves its histogram, and with it its bounds and
/// cost, stale — not its results, since its pulls read the base tables.
fn prepared_executor(cluster: &Cluster, query: &RankJoinQuery) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query.clone());
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 10,
        ..Default::default()
    })
    .unwrap();
    ex
}

/// Builds the §6 write interceptor for one side, fanning out to all three
/// indices and the executor's statistics handle.
fn maintained_side(
    cluster: &Cluster,
    query: &RankJoinQuery,
    side: &JoinSide,
    ex: &RankJoinExecutor,
) -> MaintainedSide {
    MaintainedSide::new(cluster, side.clone())
        .with_isl(&isl::index_table_name(query))
        .with_ijlmr(&ijlmr::index_table_name(query))
        .with_bfhm(
            rankjoin::core::bfhm::maintenance::BfhmMaintainer::attach(
                cluster,
                &rankjoin::core::bfhm::index_table_name(query),
                &side.label,
            )
            .unwrap(),
        )
        .with_stats(ex.stats_handle())
}

/// One randomized maintained mutation.
#[derive(Clone, Debug)]
enum Op {
    Insert { side: bool, join: u8, score: f64 },
    Delete { side: bool, pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        any::<bool>(),
        0u8..10,
        0u32..=1000,
        0usize..64,
    )
        .prop_map(|(is_insert, side, join, s, pick)| {
            if is_insert {
                Op::Insert {
                    side,
                    join,
                    score: f64::from(s) / 1000.0,
                }
            } else {
                Op::Delete { side, pick }
            }
        })
}

/// Plays `ops` through the two maintained sides over the rows [`load`]
/// wrote (`lens` of them per side).
fn apply_ops(sides: &[MaintainedSide; 2], ops: &[Op], lens: [usize; 2]) {
    let mut live: [Vec<Vec<u8>>; 2] = [
        (0..lens[0])
            .map(|i| format!("l{i:03}").into_bytes())
            .collect(),
        (0..lens[1])
            .map(|i| format!("r{i:03}").into_bytes())
            .collect(),
    ];
    for (n, op) in ops.iter().enumerate() {
        match op {
            Op::Insert { side, join, score } => {
                let i = usize::from(*side);
                let key = format!("n{n:03}").into_bytes();
                sides[i].insert(&key, &[*join], *score, vec![]).unwrap();
                live[i].push(key);
            }
            Op::Delete { side, pick } => {
                let i = usize::from(*side);
                if live[i].is_empty() {
                    continue;
                }
                let key = live[i].remove(pick % live[i].len());
                match sides[i].delete(&key) {
                    Ok(_) => {}
                    Err(RankJoinError::MissingRow) => {}
                    Err(e) => panic!("maintained delete failed: {e}"),
                }
            }
        }
    }
}

/// Maintained statistics agree with a fresh collection: exactly for every
/// side's tuples, histogram and entry bytes and every edge's distinct
/// counts and join cardinality; within one histogram bucket for
/// `max_score` (the documented conservative clamp after deletes).
fn assert_stats_agree(maintained: &TableStats, fresh: &TableStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(maintained.sides.len(), fresh.sides.len());
    for (i, (m, f)) in maintained.sides.iter().zip(&fresh.sides).enumerate() {
        prop_assert_eq!(m.tuples, f.tuples, "side {} tuples", i);
        prop_assert_eq!(&m.hist, &f.hist, "side {} histogram", i);
        prop_assert!(
            (m.avg_entry_bytes - f.avg_entry_bytes).abs() < 1e-6,
            "side {} avg bytes {} vs {}",
            i,
            m.avg_entry_bytes,
            f.avg_entry_bytes
        );
        // max_score: never below the truth, at most one bucket above.
        prop_assert!(
            m.max_score >= f.max_score - 1e-12,
            "side {} max {} below truth {}",
            i,
            m.max_score,
            f.max_score
        );
        prop_assert!(
            m.max_score <= f.max_score + 0.01 + 1e-12,
            "side {} max {} above bucket bound of {}",
            i,
            m.max_score,
            f.max_score
        );
    }
    prop_assert_eq!(maintained.edges.len(), fresh.edges.len());
    for (e, (m, f)) in maintained.edges.iter().zip(&fresh.edges).enumerate() {
        prop_assert_eq!(m.distinct, f.distinct, "edge {} distinct", e);
        prop_assert_eq!(m.pairs, f.pairs, "edge {} join cardinality", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// After an arbitrary interleaving of maintained inserts/deletes, the
    /// incrementally-maintained [`TableStats`] agree with a fresh
    /// statistics pass — exactly for tuple counts, histograms,
    /// distinct join values, and the expected join cardinality; within
    /// one histogram bucket for `max_score` (the documented conservative
    /// clamp after deletes) — and `Auto` stays oracle-equivalent
    /// throughout. The same ops, written through the two end sides of a
    /// three-way path over the same rows plus a `middle` side, keep that
    /// spec's statistics in the same agreement.
    #[test]
    fn maintained_stats_agree_with_fresh_collection(
        left in prop::collection::vec((0u8..10, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0)), 3..25),
        right in prop::collection::vec((0u8..10, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0)), 3..25),
        middle in prop::collection::vec((0u8..10, 0u8..10, 0u32..=1000).prop_map(|(a, b, s)| (a, b, f64::from(s) / 1000.0)), 3..25),
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        let (cluster, query) = load(&left, &right, 5);
        let ex = prepared_executor(&cluster, &query);
        // Prime the handle: the snapshot must exist *before* the ops so
        // every delta is merged in place rather than collected later.
        let _ = ex.plan().unwrap();

        let sides = [
            maintained_side(&cluster, &query, &query.left, &ex),
            maintained_side(&cluster, &query, &query.right, &ex),
        ];
        apply_ops(&sides, &ops, [left.len(), right.len()]);
        let pair = TableStats::collect(&cluster.fork_metrics(), &query.to_spec()).unwrap();
        let maintained = ex.stats_handle().maintained_stats().expect("primed snapshot");
        assert_stats_agree(&maintained, &pair)?;

        // Auto answers from fresh plans: rank-equivalent to the oracle.
        let want = oracle::topk(&cluster, &query).unwrap();
        let got = ex.execute(Algorithm::Auto).unwrap();
        let got_scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
        prop_assert_eq!(got_scores, want_scores, "AUTO diverged from the oracle");

        // The three-way path: its end sides have one incident edge each,
        // so every delta names all of a written row's join values.
        let (cluster, spec) = load_path(&left, &middle, &right);
        let exec = SpecExecutor::new(&cluster, spec.clone());
        exec.stats_handle().stats_for_planning(&cluster).unwrap();
        let ends = [&spec.sides[0], &spec.sides[2]]
            .map(|side| MaintainedSide::new(&cluster, side.clone()).with_stats(exec.stats_handle()));
        apply_ops(&ends, &ops, [left.len(), right.len()]);
        let fresh = TableStats::collect(&cluster.fork_metrics(), &spec).unwrap();
        let maintained = exec.stats_handle().maintained_stats().expect("primed snapshot");
        assert_stats_agree(&maintained, &fresh)?;
        // The end sides hold the pair's rows, and one collector reads both
        // specs: the same rows give the same side statistics, entry bytes
        // included (a join value is sized by its own bytes at any arity).
        for (end, side) in [(0, 0), (2, 1)] {
            let (e, p) = (&fresh.sides[end], &pair.sides[side]);
            prop_assert_eq!(e.tuples, p.tuples, "end {} tuples", end);
            prop_assert_eq!(&e.hist, &p.hist, "end {} histogram", end);
            prop_assert_eq!(e.avg_entry_bytes.to_bits(), p.avg_entry_bytes.to_bits(),
                "end {} avg bytes {} vs the pair's {}", end, e.avg_entry_bytes, p.avg_entry_bytes);
        }
    }
}

/// Per-algorithm estimate equality between two plans (the planner is
/// deterministic given identical statistics, so maintained-exact
/// statistics must reproduce the fresh-stats oracle's numbers; tolerance
/// covers float-summation order and byte-rounding differences only).
fn assert_plans_match(got: &Plan, want: &Plan, context: &str) {
    assert_eq!(
        got.ranked.len(),
        want.ranked.len(),
        "{context}: candidate sets"
    );
    assert_eq!(
        got.best().unwrap(),
        want.best().unwrap(),
        "{context}: chosen algorithm"
    );
    for w in &want.ranked {
        let g = got.estimate(w.algorithm).expect("same candidates");
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-9);
        assert!(
            close(g.seconds, w.seconds),
            "{context}: {} seconds {} vs oracle {}",
            w.algorithm.name(),
            g.seconds,
            w.seconds
        );
        assert!(
            close(g.kv_reads, w.kv_reads),
            "{context}: {} reads {} vs oracle {}",
            w.algorithm.name(),
            g.kv_reads,
            w.kv_reads
        );
    }
}

/// A fresh-statistics oracle plan, collected on a forked ledger so its
/// admin reads never blur the executor-side accounting.
fn fresh_oracle_plan(cluster: &Cluster, query: &RankJoinQuery, ex: &RankJoinExecutor) -> Plan {
    let stats = TableStats::collect(&cluster.fork_metrics(), &query.to_spec()).unwrap();
    planner::plan(
        &stats,
        query,
        query.k,
        cluster.cost_model(),
        Objective::Time,
        &ex.candidates(),
    )
}

/// The PR's acceptance regression. On the pre-fix executor the statistics
/// snapshot and plan cache were only invalidated by `prepare_*` /
/// `attach_*`, so after these maintained writes `plan()` kept returning
/// the original pre-mutation plan (stale tuple counts, histograms, and
/// join cardinality) indefinitely — this test pins down both the
/// re-planning and the "no full statistics pass below the bound"
/// contract, the latter via admin-path read accounting.
#[test]
fn auto_replans_to_the_fresh_stats_oracle_with_bounded_recollection() {
    // 40 tuples per side, distinct-ish scores over a few join values.
    let rows = |base: f64| -> Vec<(u8, f64)> {
        (0..40u32)
            .map(|i| ((i % 5) as u8, (base + f64::from(i) * 0.017) % 1.0))
            .collect()
    };
    let (cluster, query) = load(&rows(0.11), &rows(0.43), 10);
    let ex = prepared_executor(&cluster, &query);
    let sides = [
        maintained_side(&cluster, &query, &query.left, &ex),
        maintained_side(&cluster, &query, &query.right, &ex),
    ];

    let p0 = ex.plan().unwrap();
    assert_eq!(p0.stats_source, StatsSource::Exact);
    assert_eq!(ex.stats_handle().collections(), 1);
    assert_plans_match(&p0, &fresh_oracle_plan(&cluster, &query, &ex), "initial");

    // ── Below the bound: 3 of 40 left tuples mutate (7.5% < 10%). ──
    let admin_before = cluster.metrics().snapshot().admin_kv_reads;
    for i in 0..3u32 {
        sides[0]
            .insert(
                format!("lb{i}").as_bytes(),
                &[2],
                0.9 + f64::from(i) * 0.02,
                vec![],
            )
            .unwrap();
    }
    let p1 = ex.plan().unwrap();
    assert!(
        matches!(p1.stats_source, StatsSource::Maintained { staleness } if staleness > 0.0),
        "below the bound the plan must come from maintained stats, got {:?}",
        p1.stats_source
    );
    // The stale-plan bug: the pre-mutation plan must NOT be served again.
    assert!(
        !std::sync::Arc::ptr_eq(&p0, &p1),
        "maintained writes must invalidate the cached plan"
    );
    // Re-planned to exactly what fresh statistics would predict...
    assert_plans_match(
        &p1,
        &fresh_oracle_plan(&cluster, &query, &ex),
        "below bound",
    );
    // ...without a single full statistics pass on the executor's path.
    assert_eq!(
        cluster.metrics().snapshot().admin_kv_reads,
        admin_before,
        "below the staleness bound the planner must not re-run a statistics pass"
    );
    assert_eq!(ex.stats_handle().collections(), 1);
    // Explain names the path taken.
    assert!(p1.explain().contains("maintained"));

    // ── Cross the bound: 9 more left mutations (12 of 40 = 30% > 10%). ──
    for i in 0..6u32 {
        sides[0]
            .insert(
                format!("lc{i}").as_bytes(),
                &[1],
                0.2 + f64::from(i) * 0.05,
                vec![],
            )
            .unwrap();
    }
    for i in 0..3u32 {
        sides[0].delete(format!("lb{i}").as_bytes()).unwrap();
    }
    assert!(ex.stats_handle().is_stale());
    let p2 = ex.plan().unwrap();
    assert!(
        matches!(p2.stats_source, StatsSource::Recollected { staleness } if staleness > 0.1),
        "above the bound the executor must transparently re-collect, got {:?}",
        p2.stats_source
    );
    assert!(
        cluster.metrics().snapshot().admin_kv_reads > admin_before,
        "the re-collection must be visible on the admin-read ledger"
    );
    assert_eq!(ex.stats_handle().collections(), 2);
    assert_plans_match(
        &p2,
        &fresh_oracle_plan(&cluster, &query, &ex),
        "above bound",
    );
    assert!(p2.explain().contains("recollected"));

    // And through it all, Auto answers correctly.
    let want = oracle::topk(&cluster, &query).unwrap();
    assert_eq!(ex.execute(Algorithm::Auto).unwrap().results, want);
}

/// The fork-sharing satellite: executors on `fork_metrics` clones share
/// one statistics snapshot (one collection total) and maintained writes
/// invalidate every sharer's cached plans coherently.
#[test]
fn forked_executors_share_statistics_and_invalidate_coherently() {
    let rows: Vec<(u8, f64)> = (0..20u32)
        .map(|i| ((i % 4) as u8, f64::from(i) / 20.0))
        .collect();
    let (cluster, query) = load(&rows, &rows, 5);
    let owner = prepared_executor(&cluster, &query);
    let _ = owner.plan().unwrap();
    assert_eq!(owner.stats_handle().collections(), 1);

    // A fork (the serving layer's shape): shares the owner's indices and
    // statistics handle instead of re-collecting.
    let fork = cluster.fork_metrics();
    let worker = owner.fork_onto(&fork).unwrap();
    let admin_before = fork.metrics().snapshot().admin_kv_reads;
    let w1 = worker.plan().unwrap();
    assert_eq!(
        owner.stats_handle().collections(),
        1,
        "no re-collection on the fork"
    );
    assert_eq!(fork.metrics().snapshot().admin_kv_reads, admin_before);

    // A maintained write through the owner's handle invalidates the
    // fork's cached plan too — and the fork re-plans from the updated
    // in-place statistics, still without a full pass.
    let side = maintained_side(&cluster, &query, &query.left, &owner);
    side.insert(b"shared0", &[1], 0.97, vec![]).unwrap();
    let w2 = worker.plan().unwrap();
    assert!(
        !std::sync::Arc::ptr_eq(&w1, &w2),
        "maintained write must invalidate the fork's plan"
    );
    assert!(matches!(w2.stats_source, StatsSource::Maintained { .. }));
    assert_eq!(owner.stats_handle().collections(), 1);
    assert_eq!(fork.metrics().snapshot().admin_kv_reads, admin_before);

    // Both executors answer from the updated world.
    let want = oracle::topk(&cluster, &query).unwrap();
    assert_eq!(owner.execute(Algorithm::Auto).unwrap().results, want);
    assert_eq!(worker.execute(Algorithm::Auto).unwrap().results, want);
}

/// Region counts drift under auto-splits with no stats delta describing
/// them; every planning call must read the live counts, not the
/// snapshot's.
#[test]
fn replanning_reads_live_region_counts_after_auto_splits() {
    let (cluster, query) = load_pair(
        &[(1, 0.9), (2, 0.8), (3, 0.7)],
        &[(1, 0.6), (2, 0.5), (3, 0.4)],
        2,
        CostModel::ec2(8),
    );
    let ex = RankJoinExecutor::new(&cluster, query.clone());
    let handle = ex.stats_handle();
    let first = handle.stats_for_planning(&cluster).unwrap().stats.sides[0].regions;

    // Trigger auto-splits on the left base table with raw writes (which
    // emit no delta and never advance the staleness clock).
    let table = cluster.table("l").unwrap();
    table.set_split_threshold(8);
    let client = cluster.client();
    for i in 0..64 {
        client
            .mutate_row(
                "l",
                format!("zz{i:04}").as_bytes(),
                vec![
                    Mutation::put("d", b"jk", vec![1]),
                    Mutation::put("d", b"score", 0.1f64.to_be_bytes().to_vec()),
                ],
            )
            .unwrap();
    }
    let live = cluster.table("l").unwrap().region_infos().len();
    assert!(live > first, "precondition: the writes must split regions");

    // The maintained snapshot was never told about any of this, yet the
    // planning entry point reports the live region count — and stays on
    // the maintained path (no re-collection).
    let planned = handle.stats_for_planning(&cluster).unwrap();
    assert_eq!(planned.stats.sides[0].regions, live);
    assert_eq!(handle.collections(), 1);
}
