//! Materialized row views returned by gets and scans.

use bytes::Bytes;

use crate::cell::Cell;

/// A row as returned to a client: the row key plus all visible cells,
/// ordered by `(family, qualifier)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowResult {
    /// Row key.
    pub key: Vec<u8>,
    /// Visible cells (latest visible version per column), sorted by
    /// `(family, qualifier)`.
    pub cells: Vec<Cell>,
}

impl RowResult {
    /// The latest visible value of `family:qualifier`, if any.
    pub fn value(&self, family: &str, qualifier: &[u8]) -> Option<&Bytes> {
        self.cells
            .iter()
            .find(|c| *c.family == *family && *c.qualifier == *qualifier)
            .map(|c| &c.value)
    }

    /// All cells in one family.
    pub fn family_cells<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Cell> + 'a {
        self.cells.iter().filter(move |c| *c.family == *family)
    }

    /// Total wire weight of the row (sum of cell weights).
    pub fn weight(&self) -> u64 {
        self.cells.iter().map(|c| c.weight(self.key.len())).sum()
    }

    /// Number of cells (KV pairs) in the row.
    pub fn kv_count(&self) -> u64 {
        self.cells.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(family: &str, q: &[u8], v: &[u8]) -> Cell {
        Cell {
            family: family.into(),
            qualifier: Bytes::copy_from_slice(q),
            timestamp: 1,
            value: Bytes::copy_from_slice(v),
        }
    }

    #[test]
    fn value_lookup() {
        let row = RowResult {
            key: b"r".to_vec(),
            cells: vec![cell("a", b"q1", b"v1"), cell("b", b"q1", b"v2")],
        };
        assert_eq!(row.value("a", b"q1").unwrap().as_ref(), b"v1");
        assert_eq!(row.value("b", b"q1").unwrap().as_ref(), b"v2");
        assert!(row.value("a", b"q2").is_none());
        assert!(row.value("c", b"q1").is_none());
    }

    #[test]
    fn family_cells_filters() {
        let row = RowResult {
            key: b"r".to_vec(),
            cells: vec![
                cell("a", b"q1", b"x"),
                cell("a", b"q2", b"y"),
                cell("b", b"q1", b"z"),
            ],
        };
        assert_eq!(row.family_cells("a").count(), 2);
        assert_eq!(row.family_cells("b").count(), 1);
        assert_eq!(row.kv_count(), 3);
    }
}
