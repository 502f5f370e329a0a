//! The updates-planner experiment: does `Algorithm::Auto` keep agreeing
//! with a fresh-statistics oracle while TPC-H refresh sets stream through
//! the §6 maintained write path?
//!
//! Before the incremental statistics-maintenance subsystem
//! (`rj_core::statsmaint`), the answer was no: the executor snapshotted
//! statistics once, so every plan after the first refresh set was priced
//! against histograms that no longer described the data. This experiment
//! regression-guards the fix. Each round applies one refresh set through
//! [`MaintainedSide`]s registered on the executor's shared statistics
//! handle, then compares the executor's (incrementally-maintained) plan
//! against an oracle plan computed from a freshly collected
//! [`rj_core::planner::TableStats`] pass, for a small `k` sweep. The JSON artifact
//! (`BENCH_updates_planner.json`) records per-cell staleness, which
//! statistics path the plan took, and the overall *plan-agreement* rate —
//! plus how many full statistics passes the handle ran, which stays at
//! the initial one as long as staleness remains under the bound.

use rj_core::executor::Algorithm;
use rj_core::maintenance::MaintainedSide;
use rj_core::oracle;
use rj_core::planner::{self, Objective, TableStats};
use rj_tpch::{generate_update_set, TpchConfig};

use crate::experiments::apply_update_set;
use crate::fixture::{Fixture, FixtureConfig, QuerySpec};
use crate::report::{Json, Table};

/// The `k` values planned per round (small sweep — the interesting axis
/// here is rounds of mutations, not `k`).
const K_SWEEP: [usize; 3] = [1, 10, 50];

/// One `(round, k)` cell: the maintained plan vs the fresh-stats oracle.
#[derive(Clone, Debug)]
pub struct UpdateCell {
    /// Refresh-set rounds applied before this plan (1-based).
    pub round: usize,
    /// Result size planned for.
    pub k: usize,
    /// Mutated fraction recorded by the statistics handle at plan time.
    pub staleness: f64,
    /// Statistics path the plan took ("exact" / "maintained" /
    /// "recollected").
    pub source: &'static str,
    /// Algorithm the maintained plan chose.
    pub chosen: &'static str,
    /// Algorithm a plan over freshly collected statistics chooses.
    pub oracle: &'static str,
    /// `chosen == oracle`.
    pub agree: bool,
}

/// The full experiment report.
#[derive(Clone, Debug)]
pub struct UpdatesPlannerReport {
    /// TPC-H scale factor the fixture loaded.
    pub scale_factor: f64,
    /// Refresh-set rounds applied.
    pub rounds: usize,
    /// Total mutations that landed through the maintained write path.
    pub mutations: usize,
    /// Full statistics passes the shared handle ran over the whole
    /// experiment (1 = the initial pass; every re-collection adds one).
    pub collections: u64,
    /// Fraction of cells where the maintained plan agreed with the
    /// fresh-stats oracle.
    pub agreement: f64,
    /// Every `(round, k)` cell.
    pub cells: Vec<UpdateCell>,
}

impl UpdatesPlannerReport {
    /// Renders the per-round agreement table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Updates-planner: maintained plans vs fresh-stats oracle \
                 (SF={}, {} refresh rounds, {} mutations)",
                self.scale_factor, self.rounds, self.mutations
            ),
            &[
                "round",
                "k",
                "staleness",
                "stats path",
                "chosen",
                "oracle",
                "agree",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.round.to_string(),
                c.k.to_string(),
                format!("{:.2}%", c.staleness * 100.0),
                c.source.to_owned(),
                c.chosen.to_owned(),
                c.oracle.to_owned(),
                if c.agree { "✓" } else { "✗" }.to_owned(),
            ]);
        }
        t
    }

    /// Machine-readable JSON (the `BENCH_updates_planner.json` artifact).
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("round", c.round.into()),
                    ("k", c.k.into()),
                    ("staleness", Json::fixed(c.staleness, 6)),
                    ("source", c.source.into()),
                    ("chosen", c.chosen.into()),
                    ("oracle", c.oracle.into()),
                    ("agree", c.agree.into()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "updates_planner".into()),
            ("scale_factor", Json::Num(self.scale_factor, None)),
            ("rounds", self.rounds.into()),
            ("mutations", self.mutations.into()),
            ("collections", self.collections.into()),
            ("agreement", Json::fixed(self.agreement, 4)),
            ("cells", Json::Arr(cells)),
        ])
        .render()
    }
}

/// Runs the sweep: load Q2, register maintained sides on the executor's
/// statistics handle, then interleave refresh sets with `Auto` planning
/// and compare every plan against a fresh-stats oracle.
pub fn run_updates_planner(scale_factor: f64, rounds: usize) -> UpdatesPlannerReport {
    let tpch_cfg = TpchConfig::new(scale_factor);
    let fixture = Fixture::load(FixtureConfig::lab(scale_factor));
    let query = QuerySpec::Q2.query(10);
    // Prepare only the three indices the §6 write path maintains (ISL,
    // IJLMR, BFHM) — DRJN has no maintained write path, so offering it
    // to the planner under a mutating workload would let `Auto` run a
    // stale index. (This is why the experiment builds its own executor
    // instead of using `Fixture::prepare`, which builds all four.)
    let mut ex = rj_core::executor::RankJoinExecutor::new(&fixture.cluster, query.clone());
    ex.isl_config = rj_core::isl::IslConfig::uniform(fixture.config.isl_batch);
    ex.prepare_ijlmr().expect("ijlmr build");
    ex.prepare_isl().expect("isl build");
    ex.prepare_bfhm(rj_core::bfhm::BfhmConfig::with_buckets(
        fixture.config.bfhm_buckets,
    ))
    .expect("bfhm build");
    let handle = ex.stats_handle();

    let isl_table = rj_core::isl::index_table_name(&query);
    let ijlmr_table = rj_core::ijlmr::index_table_name(&query);
    let bfhm_table = rj_core::bfhm::index_table_name(&query);
    let maintained = |side: &rj_core::query::JoinSide| {
        MaintainedSide::new(&fixture.cluster, side.clone())
            .with_isl(&isl_table)
            .with_ijlmr(&ijlmr_table)
            .with_bfhm(
                rj_core::bfhm::maintenance::BfhmMaintainer::attach(
                    &fixture.cluster,
                    &bfhm_table,
                    &side.label,
                )
                .expect("attach bfhm maintainer"),
            )
            .with_stats(handle.clone())
    };
    let orders = maintained(&query.left);
    let lineitems = maintained(&query.right);

    // Prime the handle so round 1 exercises the maintained path, not the
    // first-ever collection.
    let _ = ex.plan().expect("prime plan");

    let mut cells = Vec::new();
    let mut mutations = 0usize;
    for round in 1..=rounds {
        let set = generate_update_set(&tpch_cfg, round as u64);
        mutations += apply_update_set(&orders, &lineitems, &set).expect("apply refresh set");

        // Fresh-stats oracle on a forked ledger (its admin reads must not
        // blur the handle's below-bound "no full pass" accounting).
        let oracle_fork = fixture.cluster.fork_metrics();
        let fresh = TableStats::collect(&oracle_fork, &query.to_spec()).expect("fresh stats");
        for k in K_SWEEP {
            let staleness = handle.staleness();
            let plan = ex.plan_with_k(k).expect("maintained plan");
            let oracle_plan = planner::plan(
                &fresh,
                &query,
                k,
                fixture.cluster.cost_model(),
                Objective::Time,
                &ex.candidates(),
            );
            let chosen = plan.best().expect("candidates").name();
            let oracle_best = oracle_plan.best().expect("candidates").name();
            cells.push(UpdateCell {
                round,
                k,
                staleness,
                source: plan.stats_source.name(),
                chosen,
                oracle: oracle_best,
                agree: chosen == oracle_best,
            });
        }
        // And the chosen plan must still *answer* correctly: Auto vs the
        // result oracle, once per round.
        let auto = ex.execute_with_k(Algorithm::Auto, 10).expect("auto");
        let want = oracle::topk(&fixture.cluster, &query).expect("oracle");
        assert_eq!(auto.results, want, "AUTO wrong after round {round}");
    }

    let agreement = cells.iter().filter(|c| c.agree).count() as f64 / cells.len().max(1) as f64;
    UpdatesPlannerReport {
        scale_factor,
        rounds,
        mutations,
        collections: handle.collections(),
        agreement,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's bench-side acceptance: under interleaved refresh sets the
    /// maintained plans agree with the fresh-stats oracle (the maintained
    /// snapshot is exact in everything the estimators read, modulo
    /// bucket-granular `max_score`), and as long as staleness stays under
    /// the bound the handle never re-runs the full statistics pass.
    #[test]
    fn maintained_plans_agree_with_fresh_stats_oracle() {
        let report = run_updates_planner(0.002, 3);
        assert_eq!(report.cells.len(), 9, "3 rounds × 3 k values");
        assert!(report.mutations > 0);
        assert!(
            report.agreement >= 0.9,
            "plan agreement {:.2} < 0.9:\n{:#?}",
            report.agreement,
            report.cells
        );
        // Every below-bound cell must have planned from maintained stats;
        // collections can only grow past the initial pass by crossing the
        // bound.
        let recollects = report
            .cells
            .iter()
            .filter(|c| c.source == "recollected")
            .count() as u64;
        assert!(report.collections <= 1 + recollects);
        assert!(report
            .cells
            .iter()
            .all(|c| c.source == "maintained" || c.source == "recollected"));
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"updates_planner\""));
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"agreement\""));
        assert!(json.contains("\"collections\""));
    }
}
