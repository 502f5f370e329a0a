//! Server-side filters.
//!
//! HBase lets clients push predicates to the region server so that
//! non-matching rows are read locally but never shipped. The paper's DRJN
//! adaptation depends on this: "we further augmented HBase with custom
//! server-side filters to allow for efficient filtering of tuples in step
//! (iv)" (§7.1) — the pull phase reads every tuple (paying dollar cost) but
//! only tuples above the score bound cross the network.

use crate::row::RowRef;

/// A predicate evaluated at the region server against a row's visible
/// cells, in place: the row is a borrowed view, so a rejected row was
/// never copied.
///
/// Returning `false` drops the row before it is shipped: the row's KV pairs
/// still count as reads (dollar cost), but contribute no network bytes.
pub trait ServerFilter: Send + Sync {
    /// Keep this row?
    fn accept(&self, row: RowRef<'_>) -> bool;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &'static str {
        "filter"
    }
}

/// Accepts rows where column `family:qualifier` decodes (big-endian f64,
/// order-preserving encoding **not** applied — plain `f64::to_be_bytes`)
/// to a value `>= threshold`. Missing column ⇒ reject.
pub struct ScoreAtLeast {
    /// Column family holding the score.
    pub family: String,
    /// Qualifier holding the score.
    pub qualifier: Vec<u8>,
    /// Inclusive lower bound.
    pub threshold: f64,
}

impl ServerFilter for ScoreAtLeast {
    fn accept(&self, row: RowRef<'_>) -> bool {
        row.value(&self.family, &self.qualifier)
            .and_then(|v| v.get(..8))
            .and_then(|b| b.try_into().ok().map(f64::from_be_bytes))
            .is_some_and(|s| s >= self.threshold)
    }

    fn name(&self) -> &'static str {
        "score-at-least"
    }
}

/// Accepts rows whose score column lies in `[min, max)` — DRJN's
/// incremental pull bands re-fetch only newly qualifying tuples.
pub struct ScoreInRange {
    /// Column family holding the score.
    pub family: String,
    /// Qualifier holding the score.
    pub qualifier: Vec<u8>,
    /// Inclusive lower bound.
    pub min: f64,
    /// Exclusive upper bound (`f64::INFINITY` for "no upper bound").
    pub max: f64,
}

impl ServerFilter for ScoreInRange {
    fn accept(&self, row: RowRef<'_>) -> bool {
        row.value(&self.family, &self.qualifier)
            .and_then(|v| v.get(..8))
            .and_then(|b| b.try_into().ok().map(f64::from_be_bytes))
            .is_some_and(|s| s >= self.min && s < self.max)
    }

    fn name(&self) -> &'static str {
        "score-in-range"
    }
}

/// Accepts rows whose key starts with the given prefix.
pub struct KeyPrefix(pub Vec<u8>);

impl ServerFilter for KeyPrefix {
    fn accept(&self, row: RowRef<'_>) -> bool {
        row.key.starts_with(&self.0)
    }

    fn name(&self) -> &'static str {
        "key-prefix"
    }
}

/// Accepts rows that have at least one cell in the given family — used to
/// skip rows that only carry data for other column families.
pub struct HasFamily(pub String);

impl ServerFilter for HasFamily {
    fn accept(&self, row: RowRef<'_>) -> bool {
        row.cells().any(|c| c.family == self.0)
    }

    fn name(&self) -> &'static str {
        "has-family"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::row::RowResult;
    use bytes::Bytes;

    fn row_with_score(score: f64) -> RowResult {
        RowResult {
            key: b"r1".to_vec(),
            cells: vec![Cell {
                family: "cf".into(),
                qualifier: Bytes::from_static(b"score"),
                timestamp: 1,
                value: Bytes::copy_from_slice(&score.to_be_bytes()),
            }],
        }
    }

    #[test]
    fn score_filter_thresholds() {
        let f = ScoreAtLeast {
            family: "cf".into(),
            qualifier: b"score".to_vec(),
            threshold: 0.5,
        };
        assert!(f.accept(row_with_score(0.5).as_row_ref()));
        assert!(f.accept(row_with_score(0.9).as_row_ref()));
        assert!(!f.accept(row_with_score(0.49).as_row_ref()));
    }

    #[test]
    fn score_filter_rejects_missing_column() {
        let f = ScoreAtLeast {
            family: "cf".into(),
            qualifier: b"other".to_vec(),
            threshold: 0.0,
        };
        assert!(!f.accept(row_with_score(1.0).as_row_ref()));
    }

    #[test]
    fn range_filter_is_half_open() {
        let f = ScoreInRange {
            family: "cf".into(),
            qualifier: b"score".to_vec(),
            min: 0.4,
            max: 0.6,
        };
        assert!(f.accept(row_with_score(0.4).as_row_ref()));
        assert!(f.accept(row_with_score(0.59).as_row_ref()));
        assert!(!f.accept(row_with_score(0.6).as_row_ref()));
        assert!(!f.accept(row_with_score(0.39).as_row_ref()));
        let open = ScoreInRange {
            family: "cf".into(),
            qualifier: b"score".to_vec(),
            min: 0.5,
            max: f64::INFINITY,
        };
        assert!(open.accept(row_with_score(1e9).as_row_ref()));
    }

    #[test]
    fn prefix_filter() {
        let f = KeyPrefix(b"r".to_vec());
        assert!(f.accept(row_with_score(0.1).as_row_ref()));
        let g = KeyPrefix(b"zz".to_vec());
        assert!(!g.accept(row_with_score(0.1).as_row_ref()));
    }

    #[test]
    fn has_family_filter() {
        let row = row_with_score(0.3);
        assert!(HasFamily("cf".into()).accept(row.as_row_ref()));
        assert!(!HasFamily("other".into()).accept(row.as_row_ref()));
    }
}
