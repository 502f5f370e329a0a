//! Adaptive-execution test suite: the mid-query abort-and-switch contract
//! (`rj_core::adaptive`).
//!
//! * Proptest: an `Auto`-dispatched ISL forced to abort-and-switch at an
//!   arbitrary batch point returns a top-k rank-equivalent to the oracle
//!   and to running the switched-to algorithm alone, on arbitrary data.
//! * Acceptance: a planted descent lie triggers exactly one switch that
//!   beats riding the lie out, with the read accounting pinned (no full
//!   statistics pass, admin reads flat — PR 4's no-recollect contract
//!   extended to the mid-query path); `replan_divergence = ∞` never
//!   switches and is metric-identical to plain ISL.
//! * Regression: the re-plan path reads *live* region counts, not the
//!   snapshot's (auto-splits emit no stats delta).

use proptest::prelude::*;

use rankjoin::core::oracle;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, IslConfig, JoinSide, Mutation, RankJoinExecutor,
    RankJoinQuery, ScoreFn, StatsSource,
};

/// Loads two relations and returns the top-k sum query over them.
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
                    format!("{table}{i:04}").as_bytes(),
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

/// Rank-equivalence under score ties (the repo's cross-algorithm
/// contract): identical score sequences, exact matches strictly above the
/// k-th score, genuine join tuples at it.
fn assert_rank_equivalent(
    label: &str,
    got: &[rankjoin::JoinTuple],
    want: &[rankjoin::JoinTuple],
    all: &[rankjoin::JoinTuple],
) {
    let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
    let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
    assert_eq!(got_scores, want_scores, "{label}: score sequences differ");
    let boundary = want.last().map(|t| t.score);
    for (g, w) in got.iter().zip(want) {
        if Some(g.score) != boundary {
            assert_eq!(g, w, "{label}: above-boundary tuple differs");
        } else {
            assert!(
                all.iter().any(|t| t.score == g.score
                    && t.left_key == g.left_key
                    && t.right_key == g.right_key),
                "{label}: boundary tuple is not a real join result: {g:?}"
            );
        }
    }
}

/// The algorithm behind an "ISL→X" adaptive outcome name.
fn switch_target(name: &str) -> Algorithm {
    match name {
        "ISL→HIVE" => Algorithm::Hive,
        "ISL→PIG" => Algorithm::Pig,
        "ISL→IJLMR" => Algorithm::Ijlmr,
        "ISL→BFHM" => Algorithm::Bfhm,
        "ISL→DRJN" => Algorithm::Drjn,
        other => panic!("not a switched outcome: {other}"),
    }
}

#[derive(Clone, Debug)]
struct SwitchScenario {
    left: Vec<(u8, f64)>,
    right: Vec<(u8, f64)>,
    k: usize,
    batch: usize,
    force_after: u64,
    with_bfhm: bool,
}

fn switch_scenario() -> impl Strategy<Value = SwitchScenario> {
    let tuple = (0u8..6, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0));
    (
        prop::collection::vec(tuple.clone(), 1..30),
        prop::collection::vec(tuple, 1..30),
        1usize..12,
        1usize..6,
        1u64..8,
        any::<bool>(),
    )
        .prop_map(
            |(left, right, k, batch, force_after, with_bfhm)| SwitchScenario {
                left,
                right,
                k,
                batch,
                force_after,
                with_bfhm,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Abort-and-switch is result-transparent at *any* switch point: the
    /// fault-injection hook forces the abort after an arbitrary batch,
    /// and the merged outcome must be rank-equivalent to the oracle —
    /// and, when a switch happened, to running the switched-to algorithm
    /// alone (its own rank-equivalence is asserted on the same data).
    #[test]
    fn forced_switch_is_oracle_equivalent_at_any_point(s in switch_scenario()) {
        // EC2 constants: the MR-job startup guarantees Auto prefers a
        // coordinator algorithm at this scale, so the ISL-adaptive path
        // actually engages whenever ISL wins the plan.
        let (cluster, query) = load_pair(&s.left, &s.right, s.k, CostModel::ec2(8));
        let mut ex = RankJoinExecutor::new(&cluster, query.clone());
        ex.isl_config = IslConfig::uniform(s.batch);
        ex.prepare_isl().unwrap();
        if s.with_bfhm {
            ex.prepare_bfhm(BfhmConfig { num_buckets: 10, ..Default::default() }).unwrap();
        }
        ex.adaptive_force_switch_after = Some(s.force_after);

        let want = oracle::topk(&cluster, &query).unwrap();
        let all = oracle::full_join(&cluster, &query).unwrap();
        let got = ex.execute(Algorithm::Auto).unwrap();
        assert_rank_equivalent("adaptive AUTO", &got.results, &want, &all);

        if got.extra("adaptive_switched") == Some(1.0) {
            let target = switch_target(got.algorithm);
            prop_assert!(target != Algorithm::Isl, "switch must change algorithms");
            // All prefix reads are charged to the one outcome.
            let wasted = got.extra("adaptive_wasted_kv_reads").unwrap_or(0.0);
            prop_assert!(got.metrics.kv_reads as f64 >= wasted);
            // The correction landed on the shared handle: the next plan
            // reports the mid-query statistics source.
            prop_assert!(ex.stats_handle().midquery_corrected());
            prop_assert!(matches!(
                ex.plan().unwrap().stats_source,
                StatsSource::MidQuery { .. }
            ));
            // Identical (up to genuine score ties) to the switched-to
            // algorithm running alone.
            let alone = ex.execute_with_k(target, s.k).unwrap();
            assert_rank_equivalent("switched-to alone", &alone.results, &want, &all);
            let got_scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
            let alone_scores: Vec<f64> = alone.results.iter().map(|t| t.score).collect();
            prop_assert_eq!(got_scores, alone_scores);
        }
    }
}

/// The planted-lie workload of the bench experiment (real scores in
/// `(0, 0.5]`, join matches only among the bottom-quarter tuples — ISL
/// must exhaust both lists — plus a skewed-refresh-set lie claiming a
/// dense population of high-scoring joining tuples). Loader and lie are
/// *shared* with `rj_bench::adaptive` so this acceptance test pins
/// regressions on exactly the workload CI measures.
fn lied_executor(rows: usize) -> (Cluster, RankJoinQuery, RankJoinExecutor) {
    let (cluster, query) = rj_bench::adaptive::load_workload(rows, true);
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.isl_config = IslConfig::uniform(rj_bench::adaptive::ISL_BATCH);
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(rj_bench::adaptive::bfhm_config()).unwrap();
    // Prime the statistics so the lie lands on a maintained snapshot,
    // then bend ~6% of each side's histogram — under the staleness
    // bound, so planning trusts it.
    let _ = ex.plan().unwrap();
    rj_bench::adaptive::plant_lie(&ex, &query, (rows / 16).max(8));
    (cluster, query, ex)
}

/// The PR's acceptance regression: the planted descent lie triggers
/// exactly one switch, with the statistics corrected in place — no full
/// statistics pass (collections flat, admin reads flat: the no-recollect
/// contract of PR 4, extended to the mid-query path) — and the switched
/// execution beats never-switch ISL on measured turnaround and reads.
#[test]
fn planted_lie_triggers_exactly_one_switch_with_reads_pinned() {
    let (cluster, query, ex) = lied_executor(1200);
    let plan = ex.plan().unwrap();
    assert_eq!(
        plan.best(),
        Some(Algorithm::Isl),
        "precondition: the lie must sell ISL:\n{}",
        plan.explain()
    );
    assert_eq!(ex.stats_handle().collections(), 1);

    let admin_before = cluster.metrics().snapshot().admin_kv_reads;
    let got = ex.execute(Algorithm::Auto).unwrap();
    let admin_after = cluster.metrics().snapshot().admin_kv_reads;

    // Exactly one switch, honestly accounted.
    assert_eq!(got.extra("adaptive_switched"), Some(1.0));
    assert_eq!(got.algorithm, "ISL→BFHM");
    assert_eq!(got.results, oracle::topk(&cluster, &query).unwrap());
    let wasted = got.extra("adaptive_wasted_kv_reads").unwrap();
    assert!(wasted > 0.0, "the aborted prefix cost something");
    assert!(got.metrics.kv_reads as f64 > wasted);

    // The mid-query correction is a delta, not a re-collection: no full
    // statistics pass ran (collections flat) and the admin-read ledger
    // never moved.
    assert_eq!(ex.stats_handle().collections(), 1, "no recollect");
    assert_eq!(admin_after, admin_before, "admin reads pinned");
    assert!(ex.stats_handle().midquery_corrected());

    // Running the same lie without switching (the counterfactual): a
    // fresh lied executor with an infinite bound rides ISL to the end.
    let (cluster2, query2, mut never) = lied_executor(1200);
    never.replan_divergence = f64::INFINITY;
    let rode = never.execute(Algorithm::Auto).unwrap();
    assert_eq!(rode.extra("adaptive_switched"), Some(0.0));
    assert_eq!(rode.algorithm, "ISL");
    assert_eq!(rode.results, oracle::topk(&cluster2, &query2).unwrap());
    assert!(!never.stats_handle().midquery_corrected());
    // ... and the switch pays on both axes at this workload.
    assert!(
        got.metrics.sim_seconds < rode.metrics.sim_seconds,
        "adaptive {:.3}s must beat never-switch {:.3}s",
        got.metrics.sim_seconds,
        rode.metrics.sim_seconds
    );
    assert!(got.metrics.kv_reads < rode.metrics.kv_reads);

    // The ∞-bound Auto run is metric-identical to plain ISL: observation
    // is pure bookkeeping over tuples already fetched.
    let plain = never.execute_with_k(Algorithm::Isl, 10).unwrap();
    assert_eq!(rode.metrics.kv_reads, plain.metrics.kv_reads);
    assert_eq!(rode.metrics.rpc_calls, plain.metrics.rpc_calls);
    assert_eq!(rode.metrics.network_bytes, plain.metrics.network_bytes);
    assert!((rode.metrics.sim_seconds - plain.metrics.sim_seconds).abs() < 1e-9);
}

/// A NaN divergence bound must read as "adaptivity off", never as
/// "switch every query".
#[test]
fn nan_divergence_bound_disables_switching() {
    let (cluster, query, mut ex) = lied_executor(400);
    ex.replan_divergence = f64::NAN;
    let got = ex.execute(Algorithm::Auto).unwrap();
    assert_eq!(got.extra("adaptive_switched"), Some(0.0));
    assert_eq!(got.results, oracle::topk(&cluster, &query).unwrap());
}

/// Region counts drift under auto-splits with no stats delta describing
/// them; the planning path every re-plan goes through must read the live
/// counts, not the snapshot's (ROADMAP learning (c) from PR 4).
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
    let first = handle
        .stats_for_planning(&cluster, 0.1)
        .unwrap()
        .stats
        .sides[0]
        .regions;

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
    let planned = handle.stats_for_planning(&cluster, 0.1).unwrap();
    assert_eq!(planned.stats.sides[0].regions, live);
    assert_eq!(handle.collections(), 1);
}
