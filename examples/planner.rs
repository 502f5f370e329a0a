//! The cost-based planner (`Algorithm::Auto`), end to end.
//!
//! Loads the paper's running example (Fig. 1) onto two clusters — one per
//! testbed cost profile (EC2 vs lab cluster) — builds the indices, prints
//! each planner's `explain()` ranking, and runs `Auto` to show the choice
//! executing. The point of the exercise is the paper's Fig. 7 vs Fig. 8
//! contrast: which algorithm is cheapest depends on the hardware profile
//! and on `k`, and the planner picks per query instead of asking the
//! caller.
//!
//! Run with: `cargo run --release --example planner`

use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, JoinSide, Mutation, Objective,
    RankJoinExecutor, RankJoinQuery, ScoreFn,
};

fn load_running_example(cluster: &Cluster) {
    cluster.create_table("r1", &["d"]).unwrap();
    cluster.create_table("r2", &["d"]).unwrap();
    let r1: &[(&str, &[u8], f64)] = &[
        ("r1_01", b"d", 0.82),
        ("r1_02", b"c", 0.93),
        ("r1_03", b"c", 0.67),
        ("r1_04", b"d", 0.82),
        ("r1_05", b"a", 0.73),
        ("r1_06", b"c", 0.79),
        ("r1_07", b"b", 0.82),
        ("r1_08", b"b", 0.70),
        ("r1_09", b"d", 0.68),
        ("r1_10", b"a", 1.00),
        ("r1_11", b"b", 0.64),
    ];
    let r2: &[(&str, &[u8], f64)] = &[
        ("r2_01", b"a", 0.51),
        ("r2_02", b"b", 0.91),
        ("r2_03", b"c", 0.64),
        ("r2_04", b"d", 0.53),
        ("r2_05", b"d", 0.41),
        ("r2_06", b"d", 0.50),
        ("r2_07", b"a", 0.35),
        ("r2_08", b"a", 0.38),
        ("r2_09", b"a", 0.37),
        ("r2_10", b"c", 0.31),
        ("r2_11", b"b", 0.92),
    ];
    let client = cluster.client();
    for (rows, table) in [(r1, "r1"), (r2, "r2")] {
        for &(key, join, score) in rows {
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", join.to_vec()),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
}

fn main() {
    let query = RankJoinQuery::new(
        JoinSide::new("r1", "R1", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r2", "R2", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Sum,
    );

    for cost in [CostModel::ec2(8), CostModel::lab()] {
        let profile = cost.name;
        let cluster = Cluster::with_profile(cost);
        load_running_example(&cluster);
        let mut executor = RankJoinExecutor::new(&cluster, query.clone());
        executor.prepare_ijlmr().unwrap();
        executor.prepare_isl().unwrap();
        executor
            .prepare_bfhm(BfhmConfig {
                num_buckets: 10,
                ..Default::default()
            })
            .unwrap();
        executor
            .prepare_drjn(DrjnConfig {
                num_buckets: 10,
                num_partitions: 64,
            })
            .unwrap();

        println!("=== profile {profile} ===");
        for k in [1, 10] {
            let plan = executor.plan_with_k(k).unwrap();
            println!("{}", plan.explain());
        }

        // And the dollar objective, which favours frugal reads.
        executor.objective = Objective::Dollars;
        println!("{}", executor.plan_with_k(10).unwrap().explain());
        executor.objective = Objective::Time;

        let outcome = executor.execute(Algorithm::Auto).unwrap();
        let triple = outcome
            .results
            .iter()
            .map(|t| format!("{:.2}", t.score))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "AUTO ran {} in {:.1}ms ({} KV reads): top-3 = {triple}\n",
            outcome.algorithm,
            outcome.metrics.sim_seconds * 1e3,
            outcome.metrics.kv_reads
        );
        assert_eq!(outcome.results.len(), 3);
        assert!((outcome.results[0].score - 1.74).abs() < 1e-9);
        // A second Auto run hits the plan cache (same Arc).
        let again = executor.execute(Algorithm::Auto).unwrap();
        assert_eq!(again.results, outcome.results);
    }
    println!("planner demo complete ✓");
}
