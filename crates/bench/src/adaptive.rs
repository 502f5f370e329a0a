//! The adaptive-execution experiment: does mid-query abort-and-switch
//! (`rj_core::adaptive`) pay when the planner's histograms lie, and stay
//! out of the way when they don't?
//!
//! Two synthetic workloads at the same size, both top-k sum-scored joins:
//!
//! * **friendly** — scores descend over `[0,1]` and the sides share join
//!   values throughout, so the top results join near the top of both
//!   score lists and honestly-priced ISL terminates after a few batches.
//!   The statistics are truthful; the adaptive lane must never switch.
//! * **planted-lie** — the real scores live in `[0, 0.5]` and join
//!   matches exist only among the bottom-quarter tuples, so ISL must
//!   exhaust both lists while BFHM's bucket probes stay flat. The
//!   executor's statistics handle is then fed a *skewed refresh set*: a
//!   batch of insert deltas claiming high-scoring (≈0.97), join-heavy
//!   tuples whose writes never landed on the base tables (a delta stream
//!   drifted from the data — under the staleness bound, so planning
//!   trusts it). The lied histogram prices ISL as a shallow cheap descent
//!   and `Auto` picks it; the first batch of execution observes scores
//!   ≈0.5 where ≈0.97 was predicted, trips the divergence bound, corrects
//!   the statistics mid-query, and switches.
//!
//! Each workload runs three lanes: **adaptive** (default
//! `replan_divergence`), **never-switch** (`replan_divergence = ∞` — the
//! one-shot planner of PR 3/4), and **oracle** lanes that run each
//! prepared algorithm alone (the hindsight-best turnaround). The JSON
//! artifact (`BENCH_adaptive.json`) records per-cell turnaround, reads,
//! switch counts, wasted prefix reads, and the headline `lie_speedup`
//! (never-switch over adaptive turnaround on the lie cell — the measured
//! value of switching). Every lane's answer is oracle-verified.

use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::oracle;
use rj_core::planner::entry_bytes_of;
use rj_core::query::{JoinSide, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_core::statsmaint::{join_fingerprint, DeltaOp, StatsDelta, StatsMaintainer};
use rj_core::{bfhm, isl};
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::report::{Json, Table};

/// Result size every lane queries for.
pub const K: usize = 10;
/// ISL batch size (both sides).
pub const ISL_BATCH: usize = 32;
/// BFHM bucket count.
const BFHM_BUCKETS: u32 = 10;

/// The experiment's BFHM configuration: explicit, generous filter bits.
/// Score buckets here mix matching and side-unique join values, and at
/// auto-sized (5% FPP) filters the Bloom collisions between the unique
/// populations drag in hundreds of fruitless reverse rows — the
/// experiment is about planning, not about starving the filters.
pub fn bfhm_config() -> bfhm::BfhmConfig {
    bfhm::BfhmConfig {
        num_buckets: BFHM_BUCKETS,
        filter_bits: Some(1 << 16),
        ..Default::default()
    }
}
/// Distinct join values that actually match in the planted-lie workload.
/// Few values keep BFHM's reverse-row fan-out (≈ values × hash positions
/// × bottom buckets) small, which is exactly the regime where BFHM's
/// frugal point gets beat a full ISL descent.
const MATCH_VALUES: usize = 2;

/// One `(workload, lane)` measurement.
#[derive(Clone, Debug)]
pub struct AdaptiveCell {
    /// Workload name ("friendly" / "planted-lie").
    pub workload: &'static str,
    /// Lane name ("adaptive" / "never-switch" / "oracle-isl" /
    /// "oracle-bfhm").
    pub lane: &'static str,
    /// What actually executed (e.g. "ISL", "BFHM", "ISL→BFHM").
    pub algorithm: String,
    /// Measured simulated turnaround, seconds.
    pub turnaround: f64,
    /// Measured KV read units (wasted prefix included for switched runs).
    pub kv_reads: u64,
    /// Whether a mid-query switch happened.
    pub switched: bool,
    /// KV reads the aborted ISL prefix burned before the switch.
    pub wasted_reads: u64,
    /// Observed-vs-predicted divergence that triggered the switch (0 when
    /// none did).
    pub divergence: f64,
}

/// The full experiment report.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// Rows loaded per side, per workload.
    pub rows_per_side: usize,
    /// Every `(workload, lane)` cell.
    pub cells: Vec<AdaptiveCell>,
    /// Switches observed on the truthful workload (must be 0).
    pub no_lie_switches: u64,
    /// Switches observed on the planted-lie workload (the fix fires
    /// exactly once per query).
    pub lie_switches: u64,
    /// Never-switch turnaround over adaptive turnaround on the lie cell —
    /// the measured payoff of abort-and-switch (> 1 means it paid).
    pub lie_speedup: f64,
}

impl AdaptiveReport {
    /// Renders the per-cell table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Adaptive execution: abort-and-switch vs one-shot planning \
                 ({} rows/side, k={K}, lie speedup {:.2}x)",
                self.rows_per_side, self.lie_speedup
            ),
            &[
                "workload", "lane", "ran", "sim time", "kv reads", "switched", "wasted",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.workload.to_owned(),
                c.lane.to_owned(),
                c.algorithm.clone(),
                format!("{:.3}s", c.turnaround),
                c.kv_reads.to_string(),
                if c.switched { "✓" } else { "—" }.to_owned(),
                c.wasted_reads.to_string(),
            ]);
        }
        t
    }

    /// Machine-readable JSON (the `BENCH_adaptive.json` artifact).
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("workload", c.workload.into()),
                    ("lane", c.lane.into()),
                    ("algorithm", c.algorithm.as_str().into()),
                    ("turnaround", Json::fixed(c.turnaround, 6)),
                    ("kv_reads", c.kv_reads.into()),
                    ("switched", c.switched.into()),
                    ("wasted_reads", c.wasted_reads.into()),
                    ("divergence", Json::fixed(c.divergence, 4)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "adaptive".into()),
            ("rows_per_side", self.rows_per_side.into()),
            ("k", K.into()),
            ("no_lie_switches", self.no_lie_switches.into()),
            ("lie_switches", self.lie_switches.into()),
            ("lie_speedup", Json::fixed(self.lie_speedup, 4)),
            ("cells", Json::Arr(cells)),
        ])
        .render()
    }
}

/// Loads one workload: `rows` tuples per side on an EC2-profile cluster,
/// returning the top-[`K`] sum query over the pair. Public so the
/// workspace acceptance tests (`tests/adaptive.rs`) pin regressions on
/// exactly the workload CI measures, instead of a drifting copy.
pub fn load_workload(rows: usize, deep_joins: bool) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(4, CostModel::ec2(8));
    cluster.create_table("adl", &["d"]).expect("left table");
    cluster.create_table("adr", &["d"]).expect("right table");
    let client = cluster.client();
    let n = rows.max(8);
    for i in 0..n {
        let rank = i as f64 / (n + 1) as f64;
        // Friendly: scores span (0,1], matches everywhere. Deep joins:
        // scores span (0,0.5], the top ¾ of each side joins nothing, and
        // matches exist only among the bottom-quarter tuples — the HRJN
        // threshold cannot cross until both lists are exhausted.
        let score = if deep_joins {
            0.5 * (1.0 - rank)
        } else {
            1.0 - rank
        };
        for (table, prefix) in [("adl", "L"), ("adr", "R")] {
            let join = if !deep_joins {
                format!("v{}", i % 24)
            } else if i < n * 3 / 4 {
                format!("{prefix}{i}") // side-unique: never matches
            } else {
                format!("m{}", i % MATCH_VALUES)
            };
            client
                .mutate_row(
                    table,
                    format!("{prefix}{i:06}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", join.into_bytes()),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .expect("load row");
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("adl", "AL", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("adr", "AR", ("d", b"jk"), ("d", b"score")),
        K,
        ScoreFn::Sum,
    );
    (cluster, query)
}

/// A lane executor on a forked ledger: adopts the builder's indices, owns
/// its own statistics handle (the lanes must not see each other's
/// corrections), and primes one plan so lies land on maintained
/// statistics.
fn lane_executor(
    cluster: &Cluster,
    query: &RankJoinQuery,
    replan_divergence: f64,
) -> RankJoinExecutor {
    let fork = cluster.fork_metrics();
    let mut ex = RankJoinExecutor::new(&fork, query.clone());
    ex.isl_config = isl::IslConfig::uniform(ISL_BATCH);
    ex.replan_divergence = replan_divergence;
    ex.attach_isl(&isl::index_table_name(query)).expect("isl");
    ex.attach_bfhm(&bfhm::index_table_name(query), bfhm_config())
        .expect("bfhm");
    let _ = ex.plan().expect("prime plan");
    ex
}

/// Plants the histogram lie: `fakes` insert deltas per side claiming
/// high-scoring tuples on a shared join value, none of which exist on the
/// base tables — a refresh-set delta stream that drifted from the data.
/// Kept under the staleness bound so planning *trusts* the lie.
pub fn plant_lie(ex: &RankJoinExecutor, query: &RankJoinQuery, fakes: usize) {
    let handle = ex.stats_handle();
    for f in 0..fakes {
        let join = format!("hot{}", f % 4).into_bytes();
        for side in [&query.left, &query.right] {
            handle.apply_delta(&StatsDelta {
                table: &side.table,
                join_col: &side.join_col,
                score_col: &side.score_col,
                op: DeltaOp::Insert,
                join_fingerprint: join_fingerprint(&join),
                score: 0.97,
                entry_bytes: entry_bytes_of(&join, b"fake_row"),
            });
        }
    }
}

/// Runs one lane, oracle-verifies the answer, and records the cell.
fn run_lane(
    ex: &RankJoinExecutor,
    cluster: &Cluster,
    query: &RankJoinQuery,
    workload: &'static str,
    lane: &'static str,
    algo: Algorithm,
) -> AdaptiveCell {
    let outcome = ex.execute_with_k(algo, K).expect("lane execution");
    let want = oracle::topk(cluster, query).expect("oracle");
    assert_eq!(
        outcome.results, want,
        "{workload}/{lane} returned a wrong answer"
    );
    AdaptiveCell {
        workload,
        lane,
        algorithm: outcome.algorithm.to_owned(),
        turnaround: outcome.metrics.sim_seconds,
        kv_reads: outcome.metrics.kv_reads,
        switched: outcome.extra("adaptive_switched") == Some(1.0),
        wasted_reads: outcome.extra("adaptive_wasted_kv_reads").unwrap_or(0.0) as u64,
        divergence: outcome.extra("adaptive_divergence").unwrap_or(0.0),
    }
}

/// Runs the full grid: two workloads × (adaptive, never-switch, per-
/// algorithm oracle) lanes.
pub fn run_adaptive(rows_per_side: usize) -> AdaptiveReport {
    let mut cells = Vec::new();
    for (workload, deep_joins) in [("friendly", false), ("planted-lie", true)] {
        let (cluster, query) = load_workload(rows_per_side, deep_joins);
        // Build the indices once per workload through a throwaway
        // executor; lanes attach without rebuilding.
        let mut builder = RankJoinExecutor::new(&cluster, query.clone());
        builder.prepare_isl().expect("isl build");
        builder.prepare_bfhm(bfhm_config()).expect("bfhm build");
        // ~6% of a side mutated: big enough to bend the histograms, under
        // the 10% staleness bound so the lie is *trusted*.
        let fakes = (rows_per_side / 16).max(8);

        let adaptive = lane_executor(&cluster, &query, rj_core::DEFAULT_REPLAN_DIVERGENCE);
        let never = lane_executor(&cluster, &query, f64::INFINITY);
        if deep_joins {
            plant_lie(&adaptive, &query, fakes);
            plant_lie(&never, &query, fakes);
        }
        cells.push(run_lane(
            &adaptive,
            &cluster,
            &query,
            workload,
            "adaptive",
            Algorithm::Auto,
        ));
        cells.push(run_lane(
            &never,
            &cluster,
            &query,
            workload,
            "never-switch",
            Algorithm::Auto,
        ));
        // Hindsight lanes: each prepared algorithm alone, honestly.
        let oracle_ex = lane_executor(&cluster, &query, f64::INFINITY);
        cells.push(run_lane(
            &oracle_ex,
            &cluster,
            &query,
            workload,
            "oracle-isl",
            Algorithm::Isl,
        ));
        cells.push(run_lane(
            &oracle_ex,
            &cluster,
            &query,
            workload,
            "oracle-bfhm",
            Algorithm::Bfhm,
        ));
    }
    let switches = |w: &str| {
        cells
            .iter()
            .filter(|c| c.workload == w && c.switched)
            .count() as u64
    };
    let turnaround = |w: &str, l: &str| {
        cells
            .iter()
            .find(|c| c.workload == w && c.lane == l)
            .map_or(f64::NAN, |c| c.turnaround)
    };
    let adaptive_lie = turnaround("planted-lie", "adaptive");
    let lie_speedup = if adaptive_lie > 0.0 {
        turnaround("planted-lie", "never-switch") / adaptive_lie
    } else {
        f64::NAN
    };
    let no_lie_switches = switches("friendly");
    let lie_switches = switches("planted-lie");
    AdaptiveReport {
        rows_per_side,
        cells,
        no_lie_switches,
        lie_switches,
        lie_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's bench-side acceptance: on the planted-lie workload the
    /// adaptive lane switches exactly once and beats never-switch ISL on
    /// measured turnaround; on the truthful workload nothing switches.
    #[test]
    fn planted_lie_switches_once_and_pays() {
        let report = run_adaptive(1500);
        assert_eq!(report.cells.len(), 8, "2 workloads × 4 lanes");
        assert_eq!(report.no_lie_switches, 0, "{:#?}", report.cells);
        assert_eq!(report.lie_switches, 1, "{:#?}", report.cells);
        let lie_adaptive = report
            .cells
            .iter()
            .find(|c| c.workload == "planted-lie" && c.lane == "adaptive")
            .unwrap();
        assert!(lie_adaptive.switched);
        assert_eq!(lie_adaptive.algorithm, "ISL→BFHM");
        assert!(lie_adaptive.divergence > rj_core::DEFAULT_REPLAN_DIVERGENCE);
        assert!(
            report.lie_speedup > 1.0,
            "switching must beat riding the lie out: {:#?}",
            report.cells
        );
        // The never-switch lane proves the counterfactual: same lie, no
        // switch, full ISL descent.
        let lie_never = report
            .cells
            .iter()
            .find(|c| c.workload == "planted-lie" && c.lane == "never-switch")
            .unwrap();
        assert_eq!(lie_never.algorithm, "ISL");
        assert!(!lie_never.switched);
        let json = report.to_json();
        for key in [
            "\"experiment\": \"adaptive\"",
            "\"cells\"",
            "\"lie_speedup\"",
            "\"no_lie_switches\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
