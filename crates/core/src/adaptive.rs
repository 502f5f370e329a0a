//! Mid-query adaptive re-planning: abort-and-switch for ISL.
//!
//! The cost-based planner ([`crate::planner`]) is a *one-shot* oracle: it
//! prices every candidate from histograms and commits before the first
//! byte is read. The paper's Fig. 7/8 contrast shows how much that bet is
//! worth — no algorithm wins everywhere — and PR 4's statistics
//! maintenance keeps the histograms fresh *between* queries. But a
//! histogram can still be wrong at runtime (a raced refresh set, a delta
//! stream that drifted from the base data, plain estimation error), and a
//! mispriced ISL plan fails expensively: batched HRJN keeps descending
//! the score lists until the threshold crosses the k-th result, however
//! deep that turns out to be.
//!
//! The adaptive-operator idea from the ranked-enumeration literature
//! (Tziavelis et al., *Ranked Enumeration for Database Queries*; *Optimal
//! Join Algorithms Meet Top-k*) is to let the first batches of execution
//! correct the plan:
//!
//! 1. **Observe.** Every ISL batch descends each score list; after `d`
//!    pulled tuples a side sits at its lowest-seen score `s̄`. The plan's
//!    [`DescentModel`](crate::planner::DescentModel) predicts that score
//!    from the histograms the plan was priced on. The absolute gap is the
//!    *divergence* — in the normalized `[0,1]` score domain, so one bound
//!    works for every query.
//! 2. **Abort.** When the divergence crosses the executor's trust bound
//!    (`replan_divergence`, the runtime sibling of the staleness bound),
//!    the descent stops at a batch boundary: the tuples already fetched
//!    are paid for either way, everything else is still demand-driven.
//! 3. **Correct.** The observed per-side descent is folded back through
//!    the executor's one statistics handle,
//!    [`SharedTableStats`](crate::statsmaint::SharedTableStats) over the
//!    query's two-side spec
//!    ([`apply_observed_descent`](crate::statsmaint::SharedTableStats::apply_observed_descent))
//!    — a mid-query
//!    correction is just another delta plus a version bump, so every
//!    cached plan sharing the handle invalidates coherently, and later
//!    plans report [`StatsSource::MidQuery`](crate::planner::StatsSource).
//! 4. **Switch.** The executor re-plans over the corrected statistics
//!    (live region counts re-read, candidates minus ISL — restarting the
//!    algorithm that just proved mispriced is not a switch) and runs the
//!    new winner. The aborted prefix is not wasted twice: its buffered
//!    join results are genuine, so a switch to BFHM seeds the top-k
//!    accumulator with them, which can only tighten BFHM's termination
//!    bound. All reads — wasted prefix,
//!    re-plan, switched run — are charged to one [`QueryOutcome`](crate::stats::QueryOutcome), so the
//!    measured cost of adapting stays honest.
//!
//! Adaptivity only engages on ISL runs dispatched through
//! [`Algorithm::Auto`]: the divergence
//! test needs the plan's descent model, and a caller who asked for
//! `Algorithm::Isl` by name asked for ISL, not for a planner.

use std::sync::Arc;

use crate::executor::Algorithm;
use crate::hrjn::HrjnState;
use crate::isl::BatchVerdict;
use crate::planner::{Plan, STAT_BUCKETS};
use crate::statsmaint::ObservedDescent;

/// Default trust bound on observed-vs-predicted score divergence before
/// an `Auto`-dispatched ISL execution aborts and re-plans.
///
/// Units are absolute score distance in the normalized `[0,1]` domain.
/// Honest statistics keep the divergence within one histogram bucket
/// (0.01) plus maintained-path residual drift, so 0.2 never fires on a
/// truthful plan while catching any lie big enough to change the
/// ISL-vs-BFHM ranking. `f64::INFINITY` disables switching entirely.
pub const DEFAULT_REPLAN_DIVERGENCE: f64 = 0.2;

/// Per-side tuples that must have been consumed before that side's
/// divergence is judged — below this, the observation is mostly the
/// bucket-granularity floor, not signal.
const MIN_OBSERVED_TUPLES: usize = 4;

/// The per-batch divergence judge an adaptive ISL execution runs with.
/// Shares the (immutable, cached) plan whose descent model it judges
/// against, so it can also live inside the long-lived observer hook of an
/// executor-opened Auto cursor without copying the model's histograms.
pub(crate) struct DivergenceObserver {
    plan: Arc<Plan>,
    bound: f64,
    /// Fault-injection hook: abort unconditionally once this many batches
    /// ran (regardless of divergence). Drives the any-switch-point
    /// equivalence tests.
    force_after: Option<u64>,
    max_divergence: f64,
}

impl DivergenceObserver {
    /// A judge against `plan`'s descent model with the executor's bound.
    pub(crate) fn new(plan: &Arc<Plan>, bound: f64, force_after: Option<u64>) -> Self {
        DivergenceObserver {
            plan: plan.clone(),
            // NaN bounds read as "never trust" would abort every query;
            // the conservative reading for a *divergence* bound is the
            // opposite of the staleness bound's: garbage in, adaptivity
            // off.
            bound: if bound.is_nan() { f64::INFINITY } else { bound },
            force_after,
            max_divergence: 0.0,
        }
    }

    /// The largest divergence seen so far (what a triggered correction
    /// records).
    pub(crate) fn divergence(&self) -> f64 {
        self.max_divergence
    }

    /// The per-batch verdict (see [`crate::cursor::IslCursor::set_observer`]).
    pub(crate) fn after_batch(&mut self, state: &HrjnState, batches: u64) -> BatchVerdict {
        for side in 0..2 {
            let depth = state.consumed(side);
            if depth < MIN_OBSERVED_TUPLES {
                continue;
            }
            let Some((_, low)) = state.side_bounds(side) else {
                continue;
            };
            let predicted = self
                .plan
                .descent
                .expected_score_at_depth(side, depth as u64);
            self.max_divergence = self.max_divergence.max((low - predicted).abs());
        }
        if self.force_after.is_some_and(|n| batches >= n) || self.max_divergence > self.bound {
            BatchVerdict::Abort
        } else {
            BatchVerdict::Continue
        }
    }
}

/// Per-side observed descents of an aborted ISL prefix, ready for
/// [`apply_observed_descent`](crate::statsmaint::SharedTableStats::apply_observed_descent)
/// — shared by the one-shot abort path and the cursor switch path.
pub(crate) fn observed_from(state: &HrjnState) -> [Option<ObservedDescent>; 2] {
    [0, 1].map(|side| {
        let (max_score, low_score) = state.side_bounds(side)?;
        Some(ObservedDescent {
            hist: state.observed_histogram(side, STAT_BUCKETS),
            low_score,
            max_score,
            tuples: state.consumed(side) as u64,
        })
    })
}

/// Static display name of an adaptive execution that switched from ISL to
/// `target` — what the merged [`crate::stats::QueryOutcome::algorithm`] reports, so
/// harnesses can tell an adapted run from a native one at a glance.
pub(crate) fn switched_name(target: Algorithm) -> &'static str {
    match target {
        Algorithm::Hive => "ISL→HIVE",
        Algorithm::Pig => "ISL→PIG",
        Algorithm::Ijlmr => "ISL→IJLMR",
        Algorithm::Bfhm => "ISL→BFHM",
        Algorithm::Drjn => "ISL→DRJN",
        // Unreachable in practice: the switch plan never ranks ISL (it is
        // excluded from the candidates) or Auto (the planner never ranks
        // itself).
        Algorithm::Isl | Algorithm::Auto => "ISL→?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{self, Candidates, Objective};
    use crate::testsupport::running_example_cluster;
    use rj_store::costmodel::CostModel;

    fn example_plan() -> Arc<Plan> {
        let (c, q) = running_example_cluster();
        let stats = planner::collect_stats(&c, &q).unwrap();
        Arc::new(planner::plan(
            &stats,
            &q,
            3,
            &CostModel::ec2(8),
            Objective::Time,
            &Candidates::all(),
        ))
    }

    fn fresh_state() -> HrjnState {
        let side = |l: &str| crate::query::JoinSide::new(l, l, ("d", b"jk"), ("d", b"score"));
        let sides = vec![side("L"), side("R")];
        let spec = crate::query::JoinSpec::path(sides, 3, crate::score::ScoreFn::Sum).unwrap();
        HrjnState::new(&spec, 3)
    }

    fn feed(state: &mut HrjnState, side: usize, scores: &[f64]) {
        for (i, &s) in scores.iter().enumerate() {
            let (key, join) = (format!("k{i}"), format!("j{i}"));
            state
                .push_borrowed(side, key.as_bytes(), [join.as_bytes()], s)
                .unwrap();
        }
    }

    #[test]
    fn truthful_descent_never_trips() {
        let plan = example_plan();
        let mut obs = DivergenceObserver::new(&plan, DEFAULT_REPLAN_DIVERGENCE, None);
        let mut state = fresh_state();
        // The real running-example descents (left: 1.0, .93, .82, .82;
        // right: .92, .91, .64, .53).
        feed(&mut state, 0, &[1.0, 0.93, 0.82, 0.82]);
        feed(&mut state, 1, &[0.92, 0.91, 0.64, 0.53]);
        assert_eq!(obs.after_batch(&state, 1), BatchVerdict::Continue);
        assert!(
            obs.divergence() <= 0.02,
            "honest stats diverge by at most bucket granularity, got {}",
            obs.divergence()
        );
    }

    #[test]
    fn lied_descent_trips_the_bound() {
        let plan = example_plan();
        let mut obs = DivergenceObserver::new(&plan, DEFAULT_REPLAN_DIVERGENCE, None);
        let mut state = fresh_state();
        // Reality descends to 0.3 where the histogram claims the 4th-best
        // left tuple still scores 0.82.
        feed(&mut state, 0, &[0.6, 0.5, 0.4, 0.3]);
        feed(&mut state, 1, &[0.92, 0.91, 0.64, 0.53]);
        assert_eq!(obs.after_batch(&state, 1), BatchVerdict::Abort);
        assert!(obs.divergence() > DEFAULT_REPLAN_DIVERGENCE);
    }

    #[test]
    fn infinite_bound_never_aborts_and_nan_reads_as_infinite() {
        let plan = example_plan();
        for bound in [f64::INFINITY, f64::NAN] {
            let mut obs = DivergenceObserver::new(&plan, bound, None);
            let mut state = fresh_state();
            feed(&mut state, 0, &[0.2, 0.1, 0.05, 0.01]);
            feed(&mut state, 1, &[0.2, 0.1, 0.05, 0.01]);
            assert_eq!(obs.after_batch(&state, 9), BatchVerdict::Continue);
        }
    }

    #[test]
    fn forced_hook_aborts_regardless_of_divergence() {
        let plan = example_plan();
        let mut obs = DivergenceObserver::new(&plan, f64::INFINITY, Some(2));
        let state = fresh_state();
        assert_eq!(obs.after_batch(&state, 1), BatchVerdict::Continue);
        assert_eq!(obs.after_batch(&state, 2), BatchVerdict::Abort);
    }

    #[test]
    fn below_floor_observations_are_not_judged() {
        let plan = example_plan();
        let mut obs = DivergenceObserver::new(&plan, 0.01, None);
        let mut state = fresh_state();
        // Three wildly diverging tuples — still under the 4-tuple floor.
        feed(&mut state, 0, &[0.1, 0.05, 0.01]);
        assert_eq!(obs.after_batch(&state, 1), BatchVerdict::Continue);
        assert_eq!(obs.divergence(), 0.0);
    }

    #[test]
    fn switched_names_are_stable() {
        assert_eq!(switched_name(Algorithm::Bfhm), "ISL→BFHM");
        assert_eq!(switched_name(Algorithm::Hive), "ISL→HIVE");
        assert_eq!(switched_name(Algorithm::Drjn), "ISL→DRJN");
    }
}
