//! Unit-test fixtures shared across algorithm modules.

use rj_store::cell::Mutation;
use rj_store::client::Client;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::bfhm::maintenance::WriteBackPolicy;
use crate::bfhm::BfhmConfig;
use crate::error::Result;
use crate::executor::{Algorithm, RankJoinExecutor};
use crate::query::{JoinEdge, JoinSide, JoinSpec, RankJoinQuery};
use crate::score::ScoreFn;
use crate::stats::QueryOutcome;

/// Runs ISL at `query`'s own `k` over the score index already built at
/// `table`, through an executor that attaches it.
pub(crate) fn isl_run(c: &Cluster, query: &RankJoinQuery, table: &str) -> Result<QueryOutcome> {
    let mut ex = RankJoinExecutor::new(c, query.clone());
    ex.attach_isl(table)?;
    ex.execute(Algorithm::Isl)
}

/// Runs IJLMR at `query`'s own `k` over the inverted-list index already
/// built at `table`, through an executor that attaches it.
pub(crate) fn ijlmr_run(c: &Cluster, query: &RankJoinQuery, table: &str) -> Result<QueryOutcome> {
    let mut ex = RankJoinExecutor::new(c, query.clone());
    ex.attach_ijlmr(table)?;
    ex.execute(Algorithm::Ijlmr)
}

/// An executor for `query` over the BFHM index already built at `table`
/// with `config`, its runs under `write_back`.
pub(crate) fn bfhm_executor(
    c: &Cluster,
    query: &RankJoinQuery,
    table: &str,
    config: &BfhmConfig,
    write_back: WriteBackPolicy,
) -> Result<RankJoinExecutor> {
    let mut ex = RankJoinExecutor::new(c, query.clone());
    ex.write_back = write_back;
    ex.attach_bfhm(table, config.clone())?;
    Ok(ex)
}

/// Runs BFHM at `query`'s own `k` through [`bfhm_executor`].
pub(crate) fn bfhm_run(
    c: &Cluster,
    query: &RankJoinQuery,
    table: &str,
    config: &BfhmConfig,
    write_back: WriteBackPolicy,
) -> Result<QueryOutcome> {
    bfhm_executor(c, query, table, config, write_back)?.execute(Algorithm::Bfhm)
}

/// Writes one tuple in the layout every fixture here uses: family `d`,
/// the join value under `jk`, the score (f64 BE) under `score`.
pub(crate) fn put_tuple(client: &Client, table: &str, key: &[u8], join: &[u8], score: f64) {
    let columns = [
        Mutation::put("d", b"jk", join.to_vec()),
        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
    ];
    client.mutate_row(table, key, columns).unwrap();
}

/// The paper's Fig. 1 running example: relations R1 and R2 with 11 tuples
/// each, join values a–d, scores as printed. Returns a loaded cluster and
/// the top-3 sum-scored query used throughout §4–§5.
pub(crate) fn running_example_cluster() -> (Cluster, RankJoinQuery) {
    running_example_cluster_with(CostModel::test())
}

/// [`running_example_cluster`] under an explicit cost profile — for tests
/// that need realistic constants (e.g. MR job startup dominating at
/// 11-tuple scale) rather than the near-zero test profile.
pub(crate) fn running_example_cluster_with(cost: CostModel) -> (Cluster, RankJoinQuery) {
    let c = Cluster::new(3, cost);
    c.create_table("r1", &["d"]).unwrap();
    c.create_table("r2", &["d"]).unwrap();
    let client = c.client();
    for (rows, t) in [(fig1_r1(), "r1"), (fig1_r2(), "r2")] {
        for (k, j, s) in rows {
            put_tuple(&client, t, k.as_bytes(), j, s);
        }
    }
    let q = RankJoinQuery::new(
        JoinSide::new("r1", "R1", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r2", "R2", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Sum,
    );
    (c, q)
}

/// A three-relation path fixture: `A ⋈ B ⋈ C`, where the interior side
/// `B` joins `A` on column `jk1` and `C` on a *different* column `jk2`
/// (exercising per-edge columns). Deterministically generated join
/// values over `{a, b, c}` and scores over `(0, 1]`. Returns the loaded
/// cluster and the top-`k` sum-scored path spec.
pub(crate) fn three_way_path_cluster(k: usize) -> (Cluster, JoinSpec) {
    three_way_path_sized(k, [14, 12, 13])
}

/// [`three_way_path_cluster`] with `sizes[i]` tuples on side `i` — the
/// generator's stream is the same, so the default sizes give that fixture.
pub(crate) fn three_way_path_sized(k: usize, sizes: [usize; 3]) -> (Cluster, JoinSpec) {
    let c = Cluster::new(3, CostModel::test());
    c.create_table("ta", &["d"]).unwrap();
    c.create_table("tb", &["d"]).unwrap();
    c.create_table("tc", &["d"]).unwrap();
    let client = c.client();
    let mut x: u64 = 0x9e37_79b9;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    for i in 0..sizes[0] {
        let j = [b'a' + (step() >> 33) as u8 % 3];
        let s = ((step() >> 11) % 1000 + 1) as f64 / 1000.0;
        put_tuple(&client, "ta", format!("a{i:02}").as_bytes(), &j, s);
    }
    for i in 0..sizes[1] {
        let j1 = [b'a' + (step() >> 33) as u8 % 3];
        let j2 = [b'a' + (step() >> 33) as u8 % 3];
        let s = ((step() >> 11) % 1000 + 1) as f64 / 1000.0;
        client
            .mutate_row(
                "tb",
                format!("b{i:02}").as_bytes(),
                vec![
                    Mutation::put("d", b"jk1", j1.to_vec()),
                    Mutation::put("d", b"jk2", j2.to_vec()),
                    Mutation::put("d", b"score", s.to_be_bytes().to_vec()),
                ],
            )
            .unwrap();
    }
    for i in 0..sizes[2] {
        let j = [b'a' + (step() >> 33) as u8 % 3];
        let s = ((step() >> 11) % 1000 + 1) as f64 / 1000.0;
        put_tuple(&client, "tc", format!("c{i:02}").as_bytes(), &j, s);
    }
    let sides = vec![
        JoinSide::new("ta", "A", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("tb", "B", ("d", b"jk1"), ("d", b"score")),
        JoinSide::new("tc", "C", ("d", b"jk"), ("d", b"score")),
    ];
    let edges = vec![
        JoinEdge::on_join_cols(&sides, 0, 1),
        JoinEdge {
            a: 1,
            a_col: ("d".to_owned(), b"jk2".to_vec()),
            b: 2,
            b_col: ("d".to_owned(), b"jk".to_vec()),
        },
    ];
    let spec = JoinSpec::new(sides, edges, k, ScoreFn::Sum).unwrap();
    (c, spec)
}

/// Fig. 1, relation R1.
pub(crate) fn fig1_r1() -> Vec<(&'static str, &'static [u8], f64)> {
    vec![
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
    ]
}

/// Fig. 1, relation R2.
pub(crate) fn fig1_r2() -> Vec<(&'static str, &'static [u8], f64)> {
    vec![
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
    ]
}
