//! Row views returned by gets and scans.
//!
//! A row crosses the store boundary in one of three shapes:
//!
//! * [`RowRef`] — a borrowed view, two slices (`key`, `cells`). Every
//!   accessor lives here; it is what a server-side filter inspects and
//!   what [`crate::client::Scanner::next_row`] and
//!   [`crate::client::Client::get_into`] lend out, so a row read that way
//!   costs its consumer no allocation.
//! * [`RowBatch`] — the rows of one scan step (or the one row of a point
//!   read), flat: all keys concatenated in one buffer, all cells in one
//!   vector, and one `(key end, cell end)` pair per row. The caller owns
//!   it; a scan step or point read clears and refills it, so in steady
//!   state (the buffers have grown to the largest step seen) a read
//!   allocates nothing however many rows it returns.
//! * [`RowResult`] — an owned row (`Vec<u8>` key, `Vec<Cell>` cells):
//!   what the owning point get returns and what [`RowRef::to_owned`]
//!   builds for a consumer that keeps rows.

use bytes::Bytes;

use crate::cell::Cell;

/// A borrowed row: the row key plus its visible cells, ordered by
/// `(family, qualifier)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRef<'a> {
    /// Row key.
    pub key: &'a [u8],
    /// Visible cells (the newest version per column), sorted by
    /// `(family, qualifier)`.
    pub cells: &'a [Cell],
}

impl<'a> RowRef<'a> {
    /// The visible value of `family:qualifier`, if any.
    pub fn value(self, family: &str, qualifier: &[u8]) -> Option<&'a Bytes> {
        self.cells
            .iter()
            .find(|c| *c.family == *family && *c.qualifier == *qualifier)
            .map(|c| &c.value)
    }

    /// All cells in one family.
    pub fn family_cells(self, family: &'a str) -> impl Iterator<Item = &'a Cell> + 'a {
        self.cells.iter().filter(move |c| *c.family == *family)
    }

    /// Total wire weight of the row (sum of cell weights).
    pub fn weight(self) -> u64 {
        self.cells.iter().map(|c| c.weight(self.key.len())).sum()
    }

    /// Number of cells (KV pairs) in the row.
    pub fn kv_count(self) -> u64 {
        self.cells.len() as u64
    }

    /// Copies the row out: one allocation for the key, one for the cells
    /// (whose qualifiers and values stay refcounted handles).
    pub fn to_owned(self) -> RowResult {
        RowResult {
            key: self.key.to_vec(),
            cells: self.cells.to_vec(),
        }
    }
}

impl<'a> From<&'a RowResult> for RowRef<'a> {
    fn from(row: &'a RowResult) -> Self {
        RowRef {
            key: &row.key,
            cells: &row.cells,
        }
    }
}

/// An owned row: the row key plus all visible cells, ordered by
/// `(family, qualifier)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowResult {
    /// Row key.
    pub key: Vec<u8>,
    /// Visible cells (the newest version per column), sorted by
    /// `(family, qualifier)`.
    pub cells: Vec<Cell>,
}

impl RowResult {
    /// The borrowed view every accessor below delegates to.
    pub fn as_row_ref(&self) -> RowRef<'_> {
        self.into()
    }

    /// The visible value of `family:qualifier`, if any.
    pub fn value(&self, family: &str, qualifier: &[u8]) -> Option<&Bytes> {
        self.as_row_ref().value(family, qualifier)
    }

    /// All cells in one family.
    pub fn family_cells<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Cell> + 'a {
        self.as_row_ref().family_cells(family)
    }

    /// Total wire weight of the row (sum of cell weights).
    pub fn weight(&self) -> u64 {
        self.as_row_ref().weight()
    }

    /// Number of cells (KV pairs) in the row.
    pub fn kv_count(&self) -> u64 {
        self.as_row_ref().kv_count()
    }
}

/// The rows of one scan step in three flat buffers (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct RowBatch {
    /// Every row's key, concatenated in row order.
    keys: Vec<u8>,
    /// Every row's cells, concatenated in row order. Cells past the last
    /// row's end belong to the row being written (see
    /// [`RowBatch::push_cell`]).
    cells: Vec<Cell>,
    /// Per row: where its key ends in `keys` and its cells end in `cells`
    /// (it starts where the previous row ends).
    ends: Vec<(usize, usize)>,
}

impl RowBatch {
    /// An empty batch; it allocates on first use.
    pub fn new() -> Self {
        RowBatch::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `i`, if the batch holds that many.
    pub fn get(&self, i: usize) -> Option<RowRef<'_>> {
        let &(key_end, cell_end) = self.ends.get(i)?;
        let (key_start, cell_start) = self.start_of(i);
        Some(RowRef {
            key: &self.keys[key_start..key_end],
            cells: &self.cells[cell_start..cell_end],
        })
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Removes every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.cells.clear();
        self.ends.clear();
    }

    /// Removes the first `n` rows, keeping the rest in order.
    pub fn drop_front(&mut self, n: usize) {
        if n >= self.len() {
            return self.clear();
        }
        let (key_start, cell_start) = self.start_of(n);
        self.keys.drain(..key_start);
        self.cells.drain(..cell_start);
        self.ends.drain(..n);
        for (key_end, cell_end) in &mut self.ends {
            *key_end -= key_start;
            *cell_end -= cell_start;
        }
    }

    /// Where row `i` starts: the previous row's ends.
    fn start_of(&self, i: usize) -> (usize, usize) {
        match i.checked_sub(1) {
            Some(previous) => self.ends[previous],
            None => (0, 0),
        }
    }

    /// Appends a cell to the row being written — the cells pushed since
    /// the last [`RowBatch::commit_row`] or [`RowBatch::discard_row`].
    pub(crate) fn push_cell(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// The row being written, viewed under `key`.
    pub(crate) fn open_row<'a>(&'a self, key: &'a [u8]) -> RowRef<'a> {
        let (_, cell_start) = self.start_of(self.len());
        RowRef {
            key,
            cells: &self.cells[cell_start..],
        }
    }

    /// Makes the row being written the batch's next row, under `key`.
    pub(crate) fn commit_row(&mut self, key: &[u8]) {
        self.keys.extend_from_slice(key);
        self.ends.push((self.keys.len(), self.cells.len()));
    }

    /// Drops the row being written.
    pub(crate) fn discard_row(&mut self) {
        let (_, cell_start) = self.start_of(self.len());
        self.cells.truncate(cell_start);
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

    /// Three rows of 1, 0 and 2 cells (a discarded row between them).
    fn batch() -> RowBatch {
        let mut batch = RowBatch::new();
        batch.push_cell(cell("a", b"q", b"1"));
        batch.commit_row(b"k1");
        batch.push_cell(cell("a", b"q", b"dropped"));
        assert_eq!(batch.open_row(b"kx").cells.len(), 1);
        batch.discard_row();
        batch.commit_row(b"key2");
        batch.push_cell(cell("a", b"q", b"3"));
        batch.push_cell(cell("b", b"q", b"4"));
        batch.commit_row(b"k3");
        batch
    }

    #[test]
    fn batch_rows_read_back_in_order_and_own_their_copies() {
        let batch = batch();
        assert_eq!(batch.len(), 3);
        let rows: Vec<RowResult> = batch.iter().map(RowRef::to_owned).collect();
        let keys: Vec<&[u8]> = rows.iter().map(|r| &r.key[..]).collect();
        assert_eq!(keys, [&b"k1"[..], b"key2", b"k3"]);
        let cells: Vec<usize> = rows.iter().map(|r| r.cells.len()).collect();
        assert_eq!(cells, [1, 0, 2]);
        assert_eq!(rows[2].value("b", b"q").unwrap().as_ref(), b"4");
        assert_eq!(batch.get(2).unwrap(), rows[2].as_row_ref());
        assert!(batch.get(3).is_none());
    }

    #[test]
    fn drop_front_keeps_the_unread_rows_and_clear_keeps_capacity() {
        let whole = batch();
        for n in 0..=4 {
            let mut rest = whole.clone();
            rest.drop_front(n);
            let want: Vec<RowRef<'_>> = whole.iter().skip(n).collect();
            assert_eq!(rest.iter().collect::<Vec<_>>(), want, "dropping {n}");
        }
        let mut batch = whole;
        let capacity = (batch.keys.capacity(), batch.cells.capacity());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!((batch.keys.capacity(), batch.cells.capacity()), capacity);
    }
}
