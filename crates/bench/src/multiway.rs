//! The `multiway` experiment: N-ary rank joins through the
//! [`rj_core::multiway::SpecExecutor`].
//!
//! Two lanes, all metered on private fork ledgers:
//!
//! * **Grid** — a 3-way path join over two dataset shapes (a
//!   *bottleneck* shape with a small selective interior side between two
//!   big outer sides, and a *uniform* shape) swept over `k`. Every cell
//!   records the KV reads of the descent, every side descending its
//!   score list.
//! * **Binary pin** — the two-side degenerate spec next to the binary
//!   ISL executor on identical data: the spec path must charge exactly
//!   the binary reads (the compatibility pin, surfaced as a benchmark
//!   artifact).

use rj_core::multiway::SpecExecutor;
use rj_core::query::{JoinSide, JoinSpec, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_core::{Algorithm, RankJoinExecutor};
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::report::{Json, Table};

/// `multiway` experiment knobs.
#[derive(Clone, Debug)]
pub struct MultiwayBenchConfig {
    /// Rows in each outer side of the bottleneck shape.
    pub outer_rows: usize,
    /// Rows in the bottleneck shape's interior side.
    pub interior_rows: usize,
    /// Rows per side of the uniform shape.
    pub uniform_rows: usize,
    /// Join-value alphabet size (controls fan-out).
    pub join_values: usize,
    /// Answer depths swept per shape.
    pub ks: Vec<usize>,
    /// LCG seed for the synthetic scores.
    pub seed: u64,
}

impl Default for MultiwayBenchConfig {
    fn default() -> Self {
        MultiwayBenchConfig {
            outer_rows: 240,
            interior_rows: 30,
            uniform_rows: 90,
            join_values: 12,
            ks: vec![1, 10, 25],
            seed: 0x3a11_ce5e_u64,
        }
    }
}

/// One grid cell: the descent's KV reads at one `(shape, k)`.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Dataset shape name (`bottleneck` / `uniform`).
    pub shape: &'static str,
    /// Answer depth.
    pub k: usize,
    /// KV reads of the run.
    pub kv_reads: u64,
}

/// `multiway` experiment results.
#[derive(Clone, Debug)]
pub struct MultiwayReport {
    /// The configuration the lanes ran under.
    pub config: MultiwayBenchConfig,
    /// One cell per `(shape, k)`.
    pub grid: Vec<GridCell>,
    /// Binary pin: KV reads of the binary ISL executor.
    pub binary_kv_reads: u64,
    /// Binary pin: KV reads of the two-side spec execution.
    pub spec_kv_reads: u64,
}

impl MultiwayReport {
    /// Whether the two-side spec charged exactly the binary reads.
    pub fn binary_identical(&self) -> bool {
        self.binary_kv_reads == self.spec_kv_reads
    }
}

/// Deterministic 64-bit LCG (same constants as the store's tests).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((self.0 >> 33) + 1) as f64) / (1u64 << 31) as f64
    }
}

/// Loads one table per side and returns the 3-way path spec over them.
fn load_three_way(rows: [usize; 3], join_values: usize, seed: u64) -> (Cluster, JoinSpec) {
    let c = Cluster::new(3, CostModel::test());
    let names = ["t0", "t1", "t2"];
    let labels = ["S0", "S1", "S2"];
    let client = c.client();
    let mut rng = Lcg(seed);
    let mut sides = Vec::with_capacity(3);
    for (i, n) in rows.into_iter().enumerate() {
        c.create_table(names[i], &["d"]).expect("bench table");
        for r in 0..n {
            let key = format!("{}_{r:05}", names[i]);
            let jv = format!("j{:03}", r % join_values.max(1));
            let score = rng.next_unit();
            client
                .mutate_row(
                    names[i],
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", jv.into_bytes()),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .expect("bench row");
        }
        sides.push(JoinSide::new(
            names[i],
            labels[i],
            ("d", b"jk"),
            ("d", b"score"),
        ));
    }
    let spec = JoinSpec::path(sides, 1, ScoreFn::Sum).expect("path spec");
    (c, spec)
}

/// The grid over one dataset shape, each run on a fresh fork ledger.
fn run_grid(
    shape: &'static str,
    rows: [usize; 3],
    config: &MultiwayBenchConfig,
    out: &mut Vec<GridCell>,
) {
    let (cluster, spec) = load_three_way(rows, config.join_values, config.seed);
    let mut proto = SpecExecutor::new(&cluster, spec);
    proto.prepare().expect("multiway index");
    for &k in &config.ks {
        let fork = cluster.fork_metrics();
        let ex = proto.fork_onto(&fork).expect("fork");
        let before = fork.metrics().snapshot();
        ex.execute_with_k(k).expect("multiway run");
        let kv_reads = fork.metrics().snapshot().delta_since(&before).kv_reads;
        out.push(GridCell { shape, k, kv_reads });
    }
}

/// The binary pin: identical data, binary ISL executor vs two-side spec.
fn run_binary_pin(config: &MultiwayBenchConfig) -> (u64, u64) {
    let k = config.ks.iter().copied().max().unwrap_or(10);
    let build = || {
        let c = Cluster::new(3, CostModel::test());
        let client = c.client();
        let mut rng = Lcg(config.seed);
        let mut sides = Vec::with_capacity(2);
        for (name, label) in [("l", "L"), ("r", "R")] {
            c.create_table(name, &["d"]).expect("bench table");
            for r in 0..config.uniform_rows {
                let jv = format!("j{:03}", r % config.join_values.max(1));
                client
                    .mutate_row(
                        name,
                        format!("{name}_{r:05}").as_bytes(),
                        vec![
                            Mutation::put("d", b"jk", jv.into_bytes()),
                            Mutation::put("d", b"score", rng.next_unit().to_be_bytes().to_vec()),
                        ],
                    )
                    .expect("bench row");
            }
            sides.push(JoinSide::new(name, label, ("d", b"jk"), ("d", b"score")));
        }
        let query = RankJoinQuery::new(sides[0].clone(), sides[1].clone(), k, ScoreFn::Sum);
        (c, query)
    };

    let (c1, q1) = build();
    let mut binary = RankJoinExecutor::new(&c1, q1.clone());
    binary.prepare_isl().expect("isl build");
    let before1 = c1.metrics().snapshot();
    binary
        .execute_with_k(Algorithm::Isl, k)
        .expect("binary run");
    let binary_kv_reads = c1.metrics().snapshot().delta_since(&before1).kv_reads;

    let (c2, q2) = build();
    let mut spec_exec = SpecExecutor::new(&c2, q2.to_spec());
    spec_exec.prepare().expect("spec prepare");
    let before2 = c2.metrics().snapshot();
    spec_exec.execute_with_k(k).expect("spec run");
    let spec_kv_reads = c2.metrics().snapshot().delta_since(&before2).kv_reads;

    (binary_kv_reads, spec_kv_reads)
}

/// Runs the `multiway` experiment.
pub fn run_multiway(config: &MultiwayBenchConfig) -> MultiwayReport {
    let mut grid = Vec::new();
    run_grid(
        "bottleneck",
        [config.outer_rows, config.interior_rows, config.outer_rows],
        config,
        &mut grid,
    );
    run_grid("uniform", [config.uniform_rows; 3], config, &mut grid);
    let (binary_kv_reads, spec_kv_reads) = run_binary_pin(config);
    MultiwayReport {
        config: config.clone(),
        grid,
        binary_kv_reads,
        spec_kv_reads,
    }
}

impl MultiwayReport {
    /// Renders the report as experiment tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut grid = Table::new(
            "3-way rank join: every side descended (KV reads)",
            &["shape", "k", "KV reads"],
        );
        for cell in &self.grid {
            grid.row(vec![
                cell.shape.to_owned(),
                cell.k.to_string(),
                cell.kv_reads.to_string(),
            ]);
        }
        let mut pin = Table::new(
            "Two-side spec vs binary ISL on identical data (KV reads)",
            &["path", "KV reads"],
        );
        pin.row(vec![
            "binary ISL".to_owned(),
            self.binary_kv_reads.to_string(),
        ]);
        pin.row(vec![
            "two-side spec".to_owned(),
            self.spec_kv_reads.to_string(),
        ]);
        vec![grid, pin]
    }

    /// Machine-readable JSON (the `BENCH_multiway.json` artifact).
    pub fn to_json(&self) -> String {
        let grid = self
            .grid
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("shape", c.shape.into()),
                    ("k", c.k.into()),
                    ("kv_reads", c.kv_reads.into()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "multiway".into()),
            ("grid", Json::Arr(grid)),
            ("binary_identical", self.binary_identical().into()),
            ("binary_kv_reads", self.binary_kv_reads.into()),
            ("spec_kv_reads", self.spec_kv_reads.into()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiway_bench_reads_every_cell_and_binary_pins() {
        let report = run_multiway(&MultiwayBenchConfig::default());
        assert_eq!(report.grid.len(), 6, "two shapes x three ks");
        for cell in &report.grid {
            assert!(cell.kv_reads > 0, "{cell:?}");
        }
        assert!(
            report.binary_identical(),
            "two-side spec must charge the binary reads: {} vs {}",
            report.spec_kv_reads,
            report.binary_kv_reads
        );
        let json = report.to_json();
        for key in ["\"experiment\"", "\"grid\"", "\"binary_identical\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(report.tables().len(), 2);
    }
}
