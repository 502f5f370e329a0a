//! The planner experiment: predicted vs measured cost for `Auto` and
//! every fixed algorithm over a `k` × cost-profile × query grid.
//!
//! For every grid cell the experiment (i) measures each fixed algorithm's
//! simulated turnaround time and KV-read dollar cost, (ii) asks the
//! cost-based planner for its prediction and choice under both
//! objectives, (iii) runs `Algorithm::Auto` end-to-end and cross-checks
//! its results against the oracle. The JSON artifact
//! (`BENCH_planner.json`) records the full grid plus the planner's
//! *agreement rate* — the fraction of cells where the planner picked the
//! measured-cheapest algorithm — which the acceptance test holds at ≥
//! 90%.

use rj_core::executor::Algorithm;
use rj_core::oracle;
use rj_core::planner::Objective;
use rj_core::stats::QueryOutcome;

use crate::experiments::K_SWEEP;
use crate::fixture::{Fixture, FixtureConfig, QuerySpec};
use crate::report::{fmt_seconds, Json, Table};

/// One algorithm's predicted and measured costs in one grid cell.
#[derive(Clone, Debug)]
pub struct AlgoCosts {
    /// Algorithm name.
    pub algo: &'static str,
    /// Planner-predicted turnaround seconds.
    pub pred_seconds: f64,
    /// Measured simulated turnaround seconds.
    pub meas_seconds: f64,
    /// Planner-predicted KV read units.
    pub pred_reads: f64,
    /// Measured KV read units.
    pub meas_reads: u64,
}

/// One cell of the planner grid.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Cost-model profile name ("EC2", "LC").
    pub profile: String,
    /// Query name ("Q1", "Q2").
    pub query: String,
    /// Result size.
    pub k: usize,
    /// Planner choice under [`Objective::Time`].
    pub chosen_time: &'static str,
    /// Planner choice under [`Objective::Dollars`].
    pub chosen_dollars: &'static str,
    /// Measured-fastest fixed algorithm.
    pub cheapest_time: &'static str,
    /// Measured-cheapest (fewest KV reads) fixed algorithm.
    pub cheapest_dollars: &'static str,
    /// Did the time-objective choice match the measured-fastest (ties on
    /// measured cost count as a match)?
    pub agree_time: bool,
    /// Did the dollar-objective choice match the measured-cheapest?
    pub agree_dollars: bool,
    /// Per-algorithm predicted/measured costs.
    pub algos: Vec<AlgoCosts>,
}

/// The full planner-experiment report.
#[derive(Clone, Debug)]
pub struct PlannerReport {
    /// Every grid cell.
    pub grid: Vec<GridCell>,
    /// Fraction of cells where the time-objective choice was measured-fastest.
    pub agreement_time: f64,
    /// Fraction of cells where the dollar-objective choice was measured-cheapest.
    pub agreement_dollars: f64,
}

impl PlannerReport {
    /// Renders per-profile/query prediction-vs-measurement tables plus an
    /// agreement summary.
    pub fn tables(&self) -> Vec<Table> {
        let mut out = Vec::new();
        let mut keys: Vec<(String, String)> = self
            .grid
            .iter()
            .map(|c| (c.profile.clone(), c.query.clone()))
            .collect();
        keys.dedup();
        for (profile, query) in keys {
            let header: Vec<String> = std::iter::once("algo".to_owned())
                .chain(K_SWEEP.iter().map(|k| format!("k={k} pred/meas")))
                .collect();
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut t = Table::new(
                &format!("Planner {profile} {query}: predicted vs measured time"),
                &header_refs,
            );
            let algo_names: Vec<&'static str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            for name in algo_names {
                let mut row = vec![name.to_owned()];
                for cell in self
                    .grid
                    .iter()
                    .filter(|c| c.profile == profile && c.query == query)
                {
                    let a = cell.algos.iter().find(|a| a.algo == name).expect("algo");
                    row.push(format!(
                        "{}/{}",
                        fmt_seconds(a.pred_seconds),
                        fmt_seconds(a.meas_seconds)
                    ));
                }
                t.row(row);
            }
            let mut chosen_row = vec!["AUTO→".to_owned()];
            for cell in self
                .grid
                .iter()
                .filter(|c| c.profile == profile && c.query == query)
            {
                chosen_row.push(format!(
                    "{}{}",
                    cell.chosen_time,
                    if cell.agree_time { " ✓" } else { " ✗" }
                ));
            }
            t.row(chosen_row);
            out.push(t);
        }
        let mut summary = Table::new(
            "Planner agreement with measured-cheapest",
            &["objective", "agreement"],
        );
        summary.row(vec![
            "time".into(),
            format!("{:.0}%", self.agreement_time * 100.0),
        ]);
        summary.row(vec![
            "dollars".into(),
            format!("{:.0}%", self.agreement_dollars * 100.0),
        ]);
        out.push(summary);
        out
    }

    /// Machine-readable JSON (the `BENCH_planner.json` artifact).
    pub fn to_json(&self) -> String {
        let grid = self
            .grid
            .iter()
            .map(|c| {
                let algos = c
                    .algos
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("algo", a.algo.into()),
                            ("pred_seconds", Json::fixed(a.pred_seconds, 6)),
                            ("meas_seconds", Json::fixed(a.meas_seconds, 6)),
                            ("pred_reads", Json::fixed(a.pred_reads, 1)),
                            ("meas_reads", a.meas_reads.into()),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("profile", c.profile.as_str().into()),
                    ("query", c.query.as_str().into()),
                    ("k", c.k.into()),
                    ("chosen_time", c.chosen_time.into()),
                    ("chosen_dollars", c.chosen_dollars.into()),
                    ("cheapest_time", c.cheapest_time.into()),
                    ("cheapest_dollars", c.cheapest_dollars.into()),
                    ("agree_time", c.agree_time.into()),
                    ("agree_dollars", c.agree_dollars.into()),
                    ("algos", Json::Arr(algos)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "planner".into()),
            ("agreement_time", Json::fixed(self.agreement_time, 4)),
            ("agreement_dollars", Json::fixed(self.agreement_dollars, 4)),
            ("grid", Json::Arr(grid)),
        ])
        .render()
    }
}

/// Measured cost of `outcome` under one objective.
fn measured(outcome: &QueryOutcome, objective: Objective) -> f64 {
    match objective {
        Objective::Time => outcome.metrics.sim_seconds,
        Objective::Dollars => outcome.metrics.kv_reads as f64,
    }
}

/// Runs one profile's share of the grid into `grid`.
fn run_profile(label: &str, config: FixtureConfig, grid: &mut Vec<GridCell>) {
    let mut fixture = Fixture::load(config);
    fixture.prepare(QuerySpec::Q1);
    fixture.prepare(QuerySpec::Q2);
    for spec in [QuerySpec::Q1, QuerySpec::Q2] {
        for &k in &K_SWEEP {
            // Measure every fixed algorithm once.
            let outcomes: Vec<(Algorithm, QueryOutcome)> = Algorithm::ALL
                .into_iter()
                .map(|algo| (algo, fixture.run(spec, algo, k)))
                .collect();
            // Auto must agree with the oracle on every cell.
            let auto = fixture
                .executor(spec)
                .execute_with_k(Algorithm::Auto, k)
                .expect("auto");
            let want = oracle::topk(&fixture.cluster, &spec.query(k)).expect("oracle");
            assert_eq!(auto.results, want, "AUTO wrong on {label} {spec:?} k={k}");

            let ex = fixture.executor_mut(spec);
            ex.objective = Objective::Time;
            let plan_time = ex.plan_with_k(k).expect("time plan");
            ex.objective = Objective::Dollars;
            let plan_dollars = ex.plan_with_k(k).expect("dollar plan");
            ex.objective = Objective::Time;

            let cheapest_by = |objective: Objective| -> &'static str {
                outcomes
                    .iter()
                    .min_by(|(_, a), (_, b)| {
                        measured(a, objective).total_cmp(&measured(b, objective))
                    })
                    .map(|(algo, _)| algo.name())
                    .expect("six algorithms")
            };
            // A choice "agrees" when its measured cost equals the best
            // measured cost (tie epsilon only — algorithms can tie on
            // identical read counts, making the cheapest *name*
            // ambiguous while the cheapest *cost* is not).
            let agrees = |choice: Algorithm, objective: Objective| -> bool {
                let best = outcomes
                    .iter()
                    .map(|(_, o)| measured(o, objective))
                    .fold(f64::INFINITY, f64::min);
                let chosen = outcomes
                    .iter()
                    .find(|(a, _)| *a == choice)
                    .map(|(_, o)| measured(o, objective))
                    .expect("choice was measured");
                chosen <= best * (1.0 + 1e-9) + 1e-12
            };
            let chosen_time = plan_time.best().expect("candidates");
            let chosen_dollars = plan_dollars.best().expect("candidates");
            grid.push(GridCell {
                profile: label.to_owned(),
                query: spec.name().to_owned(),
                k,
                chosen_time: chosen_time.name(),
                chosen_dollars: chosen_dollars.name(),
                cheapest_time: cheapest_by(Objective::Time),
                cheapest_dollars: cheapest_by(Objective::Dollars),
                agree_time: agrees(chosen_time, Objective::Time),
                agree_dollars: agrees(chosen_dollars, Objective::Dollars),
                algos: outcomes
                    .iter()
                    .map(|(algo, o)| AlgoCosts {
                        algo: algo.name(),
                        pred_seconds: plan_time
                            .estimate(*algo)
                            .map(|e| e.seconds)
                            .unwrap_or(f64::NAN),
                        meas_seconds: o.metrics.sim_seconds,
                        pred_reads: plan_time
                            .estimate(*algo)
                            .map(|e| e.kv_reads)
                            .unwrap_or(f64::NAN),
                        meas_reads: o.metrics.kv_reads,
                    })
                    .collect(),
            });
        }
    }
}

/// Runs the full planner grid: both cost profiles × both queries × the
/// figure `k` sweep.
pub fn run_planner(sf_ec2: f64, sf_lab: f64) -> PlannerReport {
    let mut grid = Vec::new();
    run_profile("EC2", FixtureConfig::ec2(sf_ec2), &mut grid);
    run_profile("LC", FixtureConfig::lab(sf_lab), &mut grid);
    let frac = |f: fn(&GridCell) -> bool| -> f64 {
        grid.iter().filter(|c| f(c)).count() as f64 / grid.len().max(1) as f64
    };
    PlannerReport {
        agreement_time: frac(|c| c.agree_time),
        agreement_dollars: frac(|c| c.agree_dollars),
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion: on the benchmark grid the planner
    /// picks the measured-cheapest prepared algorithm (per objective) on
    /// at least 90% of cells, and `Auto` is oracle-exact everywhere
    /// (asserted inside `run_profile`).
    #[test]
    fn planner_agreement_is_at_least_90_percent() {
        let report = run_planner(0.0005, 0.002);
        assert_eq!(report.grid.len(), 16, "2 profiles × 2 queries × 4 k");
        assert!(
            report.agreement_time >= 0.9,
            "time agreement {:.2} < 0.9:\n{:#?}",
            report.agreement_time,
            report
                .grid
                .iter()
                .filter(|c| !c.agree_time)
                .map(|c| format!(
                    "{} {} k={}: chose {}, fastest {}",
                    c.profile, c.query, c.k, c.chosen_time, c.cheapest_time
                ))
                .collect::<Vec<_>>()
        );
        assert!(
            report.agreement_dollars >= 0.9,
            "dollar agreement {:.2} < 0.9",
            report.agreement_dollars
        );
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"planner\""));
        assert!(json.contains("\"grid\""));
        assert!(json.contains("\"agreement_time\""));
    }
}
