//! Monotone aggregate score functions.
//!
//! Rank joins score result tuples with a **monotonic** aggregate of the
//! individual tuple scores (paper §1.1): if every input score is ≥ another
//! set of input scores, the aggregate is ≥ too. Monotonicity is what makes
//! HRJN-style thresholds (§4.2.1), BFHM bucket bounds (Algorithm 7 lines
//! 9–10), and DRJN score bounds sound — upper bounds on inputs give upper
//! bounds on outputs.
//!
//! The paper's evaluation queries use two of these: Q1 scores by *product*
//! (`P.RetailPrice * L.ExtendedPrice`) and Q2 by *sum*
//! (`O.TotalPrice + L.ExtendedPrice`).

/// A monotone, non-negative aggregate over two scores.
///
/// Written binary because the paper evaluates two-way joins (§3); the
/// [`ScoreFn::combine_many`] helper folds n-ary inputs for the multi-way
/// extension point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScoreFn {
    /// `l + r` — the paper's Q2.
    Sum,
    /// `l * r` — the paper's Q1 (requires non-negative scores for
    /// monotonicity, which §1.1's `[0,1]` convention guarantees).
    Product,
    /// `wl*l + wr*r` with non-negative weights.
    WeightedSum {
        /// Left weight (≥ 0).
        wl: f64,
        /// Right weight (≥ 0).
        wr: f64,
    },
    /// `min(l, r)` — monotone, used in some top-k literature.
    Min,
    /// `max(l, r)`.
    Max,
}

impl ScoreFn {
    /// Combines two scores.
    #[inline]
    pub fn combine(&self, l: f64, r: f64) -> f64 {
        match self {
            ScoreFn::Sum => l + r,
            ScoreFn::Product => l * r,
            ScoreFn::WeightedSum { wl, wr } => wl * l + wr * r,
            ScoreFn::Min => l.min(r),
            ScoreFn::Max => l.max(r),
        }
    }

    /// Folds an n-ary score list left-to-right (multi-way extension).
    pub fn combine_many(&self, scores: &[f64]) -> f64 {
        self.combine_iter(scores.iter().copied())
    }

    /// [`ScoreFn::combine_many`] over scores produced on the fly.
    pub fn combine_iter(&self, scores: impl IntoIterator<Item = f64>) -> f64 {
        let mut scores = scores.into_iter();
        let Some(first) = scores.next() else {
            return 0.0;
        };
        scores.fold(first, |acc, s| self.combine(acc, s))
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreFn::Sum => "sum",
            ScoreFn::Product => "product",
            ScoreFn::WeightedSum { .. } => "weighted-sum",
            ScoreFn::Min => "min",
            ScoreFn::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FNS: [ScoreFn; 5] = [
        ScoreFn::Sum,
        ScoreFn::Product,
        ScoreFn::WeightedSum { wl: 0.3, wr: 0.7 },
        ScoreFn::Min,
        ScoreFn::Max,
    ];

    #[test]
    fn combine_basics() {
        assert_eq!(ScoreFn::Sum.combine(0.82, 0.91), 1.73);
        assert!((ScoreFn::Product.combine(0.5, 0.5) - 0.25).abs() < 1e-12);
        assert_eq!(ScoreFn::Min.combine(0.2, 0.9), 0.2);
        assert_eq!(ScoreFn::Max.combine(0.2, 0.9), 0.9);
        let w = ScoreFn::WeightedSum { wl: 2.0, wr: 1.0 };
        assert!((w.combine(0.5, 0.4) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_each_argument() {
        // The property every bound computation in the crate relies on.
        let grid = [0.0, 0.1, 0.31, 0.5, 0.93, 1.0];
        for f in FNS {
            for &a in &grid {
                for &b in &grid {
                    for &a2 in &grid {
                        if a2 >= a {
                            assert!(
                                f.combine(a2, b) >= f.combine(a, b),
                                "{f:?} not monotone in left"
                            );
                        }
                    }
                    for &b2 in &grid {
                        if b2 >= b {
                            assert!(
                                f.combine(a, b2) >= f.combine(a, b),
                                "{f:?} not monotone in right"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn combine_many_folds() {
        assert_eq!(ScoreFn::Sum.combine_many(&[]), 0.0);
        assert_eq!(ScoreFn::Sum.combine_many(&[0.4]), 0.4);
        assert!((ScoreFn::Sum.combine_many(&[0.1, 0.2, 0.3]) - 0.6).abs() < 1e-12);
        assert!((ScoreFn::Product.combine_many(&[0.5, 0.5, 0.5]) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> = FNS.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), FNS.len());
    }
}
