//! Rank-join query descriptors: the binary [`RankJoinQuery`] and the
//! N-ary [`JoinSpec`] it is the two-side degenerate form of.

use rj_store::row::RowRef;

use crate::error::{RankJoinError, Result};
use crate::score::ScoreFn;

/// One side of a two-way rank join: where the tuples live and which
/// columns carry the join value and the score.
#[derive(Clone, Debug)]
pub struct JoinSide {
    /// Base table name.
    pub table: String,
    /// Short label — used as the column-family name inside shared index
    /// tables ("the IJLMR index for each indexed table is stored as a
    /// separate column family in one big table", §4.1.1).
    pub label: String,
    /// `(family, qualifier)` of the join-attribute column.
    pub join_col: (String, Vec<u8>),
    /// `(family, qualifier)` of the score column (f64 big-endian bits,
    /// normalized to `[0,1]` per §1.1).
    pub score_col: (String, Vec<u8>),
}

impl JoinSide {
    /// Builds a side descriptor.
    pub fn new(
        table: &str,
        label: &str,
        join_col: (&str, &[u8]),
        score_col: (&str, &[u8]),
    ) -> Self {
        JoinSide {
            table: table.to_owned(),
            label: label.to_owned(),
            join_col: (join_col.0.to_owned(), join_col.1.to_vec()),
            score_col: (score_col.0.to_owned(), score_col.1.to_vec()),
        }
    }

    /// Extracts `(join value, score)` from a base-table row; `None` when
    /// either column is missing, the score bytes are malformed, or the
    /// score is not finite (NaN/±∞ never enter the query path — they
    /// would poison every sort and threshold bound downstream).
    pub fn extract<'r>(&self, row: impl Into<RowRef<'r>>) -> Option<(Vec<u8>, f64)> {
        let (join, score) = self.extract_checked(row).ok()?;
        Some((join.to_vec(), score))
    }

    /// [`JoinSide::extract`] with typed errors instead of `None`, and the
    /// join value borrowed from the row — the single decoder behind both:
    /// query paths skip malformed rows via `extract`, while write paths
    /// that must *report* why a stored row is unusable (e.g.
    /// [`crate::maintenance::MaintainedSide::delete`]) surface the cause,
    /// and a statistics pass reads every row without copying any.
    pub fn extract_checked<'r>(&self, row: impl Into<RowRef<'r>>) -> Result<(&'r [u8], f64)> {
        let row = row.into();
        let join = row
            .value(&self.join_col.0, &self.join_col.1)
            .ok_or(RankJoinError::Internal("row lacks its join column"))?;
        let score = read_score(row, &self.score_col)?;
        Ok((join, score))
    }
}

/// A two-way top-k equi-join query (paper §1.1):
///
/// ```sql
/// SELECT * FROM left, right
/// WHERE left.join_col = right.join_col
/// ORDER BY score_fn(left.score_col, right.score_col)
/// STOP AFTER k
/// ```
#[derive(Clone, Debug)]
pub struct RankJoinQuery {
    /// Left input.
    pub left: JoinSide,
    /// Right input.
    pub right: JoinSide,
    /// Result size (`STOP AFTER k`).
    pub k: usize,
    /// Monotone aggregate scoring function.
    pub score_fn: ScoreFn,
}

impl RankJoinQuery {
    /// Builds a query.
    ///
    /// `k = 0` is a valid degenerate request: every algorithm (and the
    /// oracle) uniformly returns an empty, zero-cost result for it — no
    /// store access is performed.
    pub fn new(left: JoinSide, right: JoinSide, k: usize, score_fn: ScoreFn) -> Self {
        assert_ne!(
            left.label, right.label,
            "side labels must differ (they name index column families)"
        );
        RankJoinQuery {
            left,
            right,
            k,
            score_fn,
        }
    }

    /// The same query with a different `k`.
    ///
    /// Contract: any `k` is accepted. `k = 0` queries short-circuit to an
    /// empty, zero-cost result in every algorithm; `k` larger than the
    /// join cardinality enumerates the full result in rank order.
    pub fn with_k(&self, k: usize) -> Self {
        let mut q = self.clone();
        q.k = k;
        q
    }

    /// Checked side accessor by index (0 = left, 1 = right) — handy for
    /// the alternating fetch loops. Replaces the old panicking `side`:
    /// an out-of-range index is a typed [`RankJoinError::SideOutOfRange`]
    /// instead of a crash.
    pub fn try_side(&self, i: usize) -> Result<&JoinSide> {
        match i {
            0 => Ok(&self.left),
            1 => Ok(&self.right),
            _ => Err(RankJoinError::SideOutOfRange { index: i, sides: 2 }),
        }
    }

    /// This query as the two-side degenerate [`JoinSpec`] (one edge over
    /// the sides' own join columns). `spec.as_binary()` round-trips it.
    pub fn to_spec(&self) -> JoinSpec {
        JoinSpec::path(
            vec![self.left.clone(), self.right.clone()],
            self.k,
            self.score_fn,
        )
        // rjlint: allow(no-unwrap) — conversion of an already-validated binary
        // query into the equivalent two-side spec cannot fail.
        .expect("a validated binary query is a valid two-side spec")
    }
}

/// One equi-join edge of a [`JoinSpec`]: side `a`'s column `a_col` must
/// equal side `b`'s column `b_col`. The endpoints carry their own
/// `(family, qualifier)` so an interior side of a path can join its two
/// neighbours on *different* columns.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinEdge {
    /// Index of the first endpoint side.
    pub a: usize,
    /// `(family, qualifier)` of the join column on side `a`.
    pub a_col: (String, Vec<u8>),
    /// Index of the second endpoint side.
    pub b: usize,
    /// `(family, qualifier)` of the join column on side `b`.
    pub b_col: (String, Vec<u8>),
}

impl JoinEdge {
    /// An edge joining `sides[a]` and `sides[b]` on each side's own
    /// default join column.
    pub fn on_join_cols(sides: &[JoinSide], a: usize, b: usize) -> Self {
        JoinEdge {
            a,
            a_col: sides[a].join_col.clone(),
            b,
            b_col: sides[b].join_col.clone(),
        }
    }
}

/// A `(family, qualifier)` column address.
pub type Column = (String, Vec<u8>);

/// One side's columns as a [`JoinSpec`] reads them: the score column plus
/// one join column per incident edge ([`JoinSpec::side_columns`]).
#[derive(Clone, Debug)]
pub struct SideColumns {
    score_col: Column,
    edge_cols: Vec<Column>,
}

impl SideColumns {
    /// The column families these columns live in (the store deduplicates
    /// a projection) — what a base-table scan needs to read.
    pub fn families(&self) -> Vec<&str> {
        std::iter::once(&self.score_col)
            .chain(&self.edge_cols)
            .map(|col| col.0.as_str())
            .collect()
    }

    /// Extracts `(edge values, score)` from a base-table row: one join
    /// value per incident edge, in [`JoinSpec::incident_edges`] order,
    /// borrowed from the row. `None` when any column is missing, the
    /// score bytes are malformed, or the score is non-finite — mirroring
    /// [`JoinSide::extract`]'s skip-don't-crash contract.
    pub fn extract<'r>(&self, row: impl Into<RowRef<'r>>) -> Option<(Vec<&'r [u8]>, f64)> {
        let row = row.into();
        let score = read_score(row, &self.score_col).ok()?;
        let mut values = Vec::with_capacity(self.edge_cols.len());
        for col in &self.edge_cols {
            values.push(row.value(&col.0, &col.1)?.as_ref());
        }
        Some((values, score))
    }
}

/// Reads the finite f64 score stored under `col`.
pub(crate) fn read_score(row: RowRef<'_>, col: &Column) -> Result<f64> {
    let score_bytes = row
        .value(&col.0, &col.1)
        .ok_or(RankJoinError::Internal("row lacks its score column"))?;
    let score = f64::from_be_bytes(
        score_bytes
            .as_ref()
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .ok_or(RankJoinError::Internal("stored score is not 8 bytes"))?,
    );
    if !score.is_finite() {
        return Err(RankJoinError::NonFiniteScore(score));
    }
    Ok(score)
}

/// The shape of a validated [`JoinSpec`]'s join tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecShape {
    /// Two sides, one edge — the classic [`RankJoinQuery`] form.
    Binary,
    /// A chain: every side has at most two incident edges.
    Path,
    /// One hub side carries every edge.
    Star,
    /// Any other acyclic shape.
    Tree,
}

/// An N-ary top-k equi-join: an ordered list of sides plus equi-join
/// edges forming a connected acyclic tree (paths and stars are the
/// common cases), ranked by the monotone aggregate of all per-side
/// scores:
///
/// ```sql
/// SELECT * FROM R1, ..., Rn
/// WHERE <edges>
/// ORDER BY f(R1.score, ..., Rn.score)
/// STOP AFTER k
/// ```
///
/// The binary [`RankJoinQuery`] is the two-side degenerate form
/// ([`RankJoinQuery::to_spec`] / [`JoinSpec::as_binary`]); the ISL read
/// path — operator ([`crate::hrjn`]), cursor ([`crate::cursor`]), index
/// ([`crate::isl::index`]) — the multiway planner and the serving layer's
/// cache keys are all driven by this type.
#[derive(Clone, Debug)]
pub struct JoinSpec {
    /// The joined relations, in result order: side 0 is the result's
    /// `left`, the last side its `right`, interior sides land in
    /// [`crate::result::JoinTuple::inner`].
    pub sides: Vec<JoinSide>,
    /// The equi-join tree: exactly `sides.len() - 1` connected edges.
    pub edges: Vec<JoinEdge>,
    /// Result size (`STOP AFTER k`).
    pub k: usize,
    /// Monotone aggregate scoring function, folded over all sides in
    /// order ([`ScoreFn::combine_many`]).
    pub score_fn: ScoreFn,
}

impl JoinSpec {
    /// Builds and validates a spec: at least two sides, pairwise-distinct
    /// labels, and edges forming a connected acyclic tree over the sides.
    pub fn new(
        sides: Vec<JoinSide>,
        edges: Vec<JoinEdge>,
        k: usize,
        score_fn: ScoreFn,
    ) -> Result<Self> {
        if sides.len() < 2 {
            return Err(RankJoinError::InvalidSpec("a join needs at least 2 sides"));
        }
        for i in 0..sides.len() {
            for j in i + 1..sides.len() {
                if sides[i].label == sides[j].label {
                    return Err(RankJoinError::InvalidSpec(
                        "side labels must be pairwise distinct (they name index column families)",
                    ));
                }
            }
        }
        if edges.len() != sides.len() - 1 {
            return Err(RankJoinError::InvalidSpec(
                "a join tree over n sides has exactly n-1 edges",
            ));
        }
        for e in &edges {
            if e.a >= sides.len() || e.b >= sides.len() || e.a == e.b {
                return Err(RankJoinError::InvalidSpec(
                    "edge endpoints must be two distinct side indices",
                ));
            }
        }
        // n-1 edges + connected ⇒ acyclic: a union-find sweep suffices.
        let mut root: Vec<usize> = (0..sides.len()).collect();
        fn find(root: &mut [usize], mut x: usize) -> usize {
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        for e in &edges {
            let (ra, rb) = (find(&mut root, e.a), find(&mut root, e.b));
            if ra == rb {
                return Err(RankJoinError::InvalidSpec(
                    "edges form a cycle — the join graph must be a tree",
                ));
            }
            root[ra] = rb;
        }
        Ok(JoinSpec {
            sides,
            edges,
            k,
            score_fn,
        })
    }

    /// A path spec: sides joined in order, each edge over both endpoint
    /// sides' own default join columns.
    pub fn path(sides: Vec<JoinSide>, k: usize, score_fn: ScoreFn) -> Result<Self> {
        let edges = (0..sides.len().saturating_sub(1))
            .map(|i| JoinEdge::on_join_cols(&sides, i, i + 1))
            .collect();
        JoinSpec::new(sides, edges, k, score_fn)
    }

    /// A star spec: side 0 is the hub, every other side joins it on the
    /// default join columns. Kept for tests: the N-ary tests build the
    /// star shape with it, as callers build paths with [`JoinSpec::path`].
    pub fn star(sides: Vec<JoinSide>, k: usize, score_fn: ScoreFn) -> Result<Self> {
        let edges = (1..sides.len())
            .map(|i| JoinEdge::on_join_cols(&sides, 0, i))
            .collect();
        JoinSpec::new(sides, edges, k, score_fn)
    }

    /// Number of sides.
    pub fn n(&self) -> usize {
        self.sides.len()
    }

    /// Checked side accessor — the N-ary sibling of
    /// [`RankJoinQuery::try_side`].
    pub fn try_side(&self, i: usize) -> Result<&JoinSide> {
        self.sides.get(i).ok_or(RankJoinError::SideOutOfRange {
            index: i,
            sides: self.sides.len(),
        })
    }

    /// The same spec with a different `k` (same contract as
    /// [`RankJoinQuery::with_k`]).
    pub fn with_k(&self, k: usize) -> Self {
        let mut s = self.clone();
        s.k = k;
        s
    }

    /// The join-tree shape (validated specs are always trees).
    pub fn shape(&self) -> SpecShape {
        if self.sides.len() == 2 {
            return SpecShape::Binary;
        }
        let mut degree = vec![0usize; self.sides.len()];
        for e in &self.edges {
            degree[e.a] += 1;
            degree[e.b] += 1;
        }
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        if max_degree <= 2 {
            SpecShape::Path
        } else if max_degree == self.sides.len() - 1
            && degree.iter().filter(|&&d| d == 1).count() == self.sides.len() - 1
        {
            SpecShape::Star
        } else {
            SpecShape::Tree
        }
    }

    /// The edges incident to side `i`, each with the column that side
    /// contributes to it, in edge order. A side's tuples carry one join
    /// value per incident edge, in exactly this order.
    pub fn incident_edges(&self, i: usize) -> impl Iterator<Item = (usize, &Column)> {
        self.edges.iter().enumerate().filter_map(move |(e, edge)| {
            if edge.a == i {
                Some((e, &edge.a_col))
            } else if edge.b == i {
                Some((e, &edge.b_col))
            } else {
                None
            }
        })
    }

    /// Every side's score column and incident-edge join columns, in side
    /// order, resolved once — what a per-row loop (index build, statistics
    /// pass, oracle) extracts with.
    pub fn side_columns(&self) -> Vec<SideColumns> {
        self.sides
            .iter()
            .enumerate()
            .map(|(i, side)| SideColumns {
                score_col: side.score_col.clone(),
                edge_cols: self.incident_edges(i).map(|(_, col)| col.clone()).collect(),
            })
            .collect()
    }

    /// The two-side degenerate form as a [`RankJoinQuery`], when this
    /// spec is binary over the sides' own join columns (so the binary
    /// executors can run it byte-for-byte identically).
    pub fn as_binary(&self) -> Option<RankJoinQuery> {
        if self.sides.len() != 2 || self.edges.len() != 1 {
            return None;
        }
        let e = &self.edges[0];
        let (li, ri) = if e.a == 0 { (0, 1) } else { (1, 0) };
        let (lcol, rcol) = if e.a == 0 {
            (&e.a_col, &e.b_col)
        } else {
            (&e.b_col, &e.a_col)
        };
        let left = self.sides[li].clone();
        let right = self.sides[ri].clone();
        // The binary executors read the join value through the side's
        // own join_col; only a spec joining on those columns maps.
        if left.join_col != *lcol || right.join_col != *rcol {
            return None;
        }
        Some(RankJoinQuery::new(left, right, self.k, self.score_fn))
    }

    /// A stable canonical fingerprint of the spec's *identity* — every
    /// side (table, label, columns), every edge (endpoints normalized),
    /// and the score function, but **not** `k`: two submissions of the
    /// same join at different depths must share serving-cache keys.
    /// This is what the serving layer keys coalescing and prefix/warm
    /// caches by, so specs differing in any side or edge can never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        let put = |buf: &mut Vec<u8>, bytes: &[u8]| {
            buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            buf.extend_from_slice(bytes);
        };
        put(&mut buf, self.score_fn.name().as_bytes());
        buf.extend_from_slice(&(self.sides.len() as u32).to_be_bytes());
        for s in &self.sides {
            put(&mut buf, s.table.as_bytes());
            put(&mut buf, s.label.as_bytes());
            put(&mut buf, s.join_col.0.as_bytes());
            put(&mut buf, &s.join_col.1);
            put(&mut buf, s.score_col.0.as_bytes());
            put(&mut buf, &s.score_col.1);
        }
        // An edge normalized to (low endpoint, its column, high
        // endpoint, its column) so a↔b orientation can't change the key.
        type NormalizedEdge<'a> = (usize, &'a (String, Vec<u8>), usize, &'a (String, Vec<u8>));
        let mut edges: Vec<NormalizedEdge> = self
            .edges
            .iter()
            .map(|e| {
                if e.a <= e.b {
                    (e.a, &e.a_col, e.b, &e.b_col)
                } else {
                    (e.b, &e.b_col, e.a, &e.a_col)
                }
            })
            .collect();
        edges.sort();
        for (a, a_col, b, b_col) in edges {
            buf.extend_from_slice(&(a as u32).to_be_bytes());
            buf.extend_from_slice(&(b as u32).to_be_bytes());
            put(&mut buf, a_col.0.as_bytes());
            put(&mut buf, &a_col.1);
            put(&mut buf, b_col.0.as_bytes());
            put(&mut buf, &b_col.1);
        }
        rj_sketch::hash::hash_bytes(0x6a73_7065_635f_6670, &buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rj_store::cell::Cell;
    use rj_store::row::RowResult;

    fn row(join: u64, score: f64) -> RowResult {
        RowResult {
            key: b"rk".to_vec(),
            cells: vec![
                Cell {
                    family: "d".into(),
                    qualifier: Bytes::from_static(b"jk"),
                    timestamp: 1,
                    value: Bytes::copy_from_slice(&join.to_be_bytes()),
                },
                Cell {
                    family: "d".into(),
                    qualifier: Bytes::from_static(b"score"),
                    timestamp: 1,
                    value: Bytes::copy_from_slice(&score.to_be_bytes()),
                },
            ],
        }
    }

    fn side() -> JoinSide {
        JoinSide::new("t", "L", ("d", b"jk"), ("d", b"score"))
    }

    #[test]
    fn extract_reads_join_and_score() {
        let (j, s) = side().extract(&row(42, 0.73)).unwrap();
        assert_eq!(j, 42u64.to_be_bytes().to_vec());
        assert_eq!(s, 0.73);
    }

    #[test]
    fn extract_missing_columns_is_none() {
        let mut r = row(1, 0.5);
        r.cells.truncate(1); // drop score
        assert!(side().extract(&r).is_none());
        let empty = RowResult {
            key: b"k".to_vec(),
            cells: vec![],
        };
        assert!(side().extract(&empty).is_none());
    }

    #[test]
    fn extract_rejects_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = row(1, bad);
            assert!(side().extract(&r).is_none(), "{bad} must be rejected");
        }
    }

    #[test]
    fn k_zero_is_a_valid_query() {
        let l = side();
        let mut r = side();
        r.label = "R".into();
        let q = RankJoinQuery::new(l, r, 0, ScoreFn::Sum);
        assert_eq!(q.k, 0);
        assert_eq!(q.with_k(0).k, 0);
    }

    #[test]
    #[should_panic(expected = "labels must differ")]
    fn distinct_labels_enforced() {
        let l = side();
        let r = side();
        let _ = RankJoinQuery::new(l, r, 5, ScoreFn::Sum);
    }

    #[test]
    fn with_k_clones() {
        let l = side();
        let mut r = side();
        r.label = "R".into();
        let q = RankJoinQuery::new(l, r, 5, ScoreFn::Sum);
        assert_eq!(q.with_k(10).k, 10);
        assert_eq!(q.k, 5);
        assert_eq!(q.try_side(0).unwrap().label, "L");
        assert_eq!(q.try_side(1).unwrap().label, "R");
        assert!(matches!(
            q.try_side(2),
            Err(RankJoinError::SideOutOfRange { index: 2, sides: 2 })
        ));
    }
}
