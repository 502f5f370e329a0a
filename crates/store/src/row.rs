//! Row views returned by gets and scans.
//!
//! A row crosses the store boundary in one of three shapes:
//!
//! * [`RowRef`] — a borrowed view: the key and its cells, each lent as a
//!   [`CellRef`] of byte slices. Every accessor lives here; it is what a
//!   server-side filter inspects and what
//!   [`crate::client::Scanner::next_row`] and
//!   [`crate::client::Client::get_into`] lend out, so a row read that way
//!   costs its consumer no allocation.
//! * [`RowBatch`] — the rows of one scan step (or the one row of a point
//!   read), flat: one byte buffer, one cell vector and one set of ends per
//!   row. The caller owns it; a scan step or point read clears and
//!   refills it, so in steady state (the buffers have grown to the largest
//!   step seen) a read allocates nothing however many rows it returns.
//! * [`RowResult`] — an owned row (`Vec<u8>` key, `Vec<Cell>` cells):
//!   what [`RowRef::to_owned`] builds for a consumer that keeps rows, and
//!   so what the scanner's `Iterator` adaptor and
//!   [`crate::client::Client::get`] return.
//!
//! A batch holds a cell's bytes the way the region holds them. A frozen
//! row's bytes live in its segment's arena (`crate::segment`), so the
//! batch copies them into its byte buffer, beside the row keys. A
//! memstore row keeps its writers' handles, so the batch lends those
//! handles on: [`CellRef::qualifier_handle`] then hands out the writer's
//! handle instead of a copy, which is what a consumer that keeps a
//! qualifier (a BFHM write-back's consumed records) holds. Either way a
//! cell lends the same `&[u8]`s and bills the same bytes.

use std::sync::Arc;

use bytes::Bytes;

use crate::cell::Cell;
use crate::segment::Key;

/// One cell as a row lends it: its parts as slices, and the handles
/// behind them when the row holds handles (an owned row's, a memstore
/// row's). Two cells are equal when their parts are.
#[derive(Clone, Copy, Debug)]
pub struct CellRef<'a> {
    /// Column family name.
    pub family: &'a str,
    /// Column qualifier.
    pub qualifier: &'a [u8],
    /// Write timestamp.
    pub timestamp: u64,
    /// Cell payload.
    pub value: &'a [u8],
    family_handle: &'a Arc<str>,
    /// `(qualifier, value)` handles, `None` for bytes the row copied.
    handles: Option<(&'a Bytes, &'a Bytes)>,
}

impl PartialEq for CellRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.family, self.qualifier, self.timestamp, self.value)
            == (other.family, other.qualifier, other.timestamp, other.value)
    }
}

impl Eq for CellRef<'_> {}

impl<'a> CellRef<'a> {
    /// [`Cell::weight`] of the cell.
    pub fn weight(&self, row_key_len: usize) -> u64 {
        (row_key_len + self.family.len() + self.qualifier.len() + 8 + self.value.len()) as u64
    }

    /// The family as the row's handle to it: shared, never copied.
    pub fn family_handle(&self) -> Arc<str> {
        Arc::clone(self.family_handle)
    }

    /// The qualifier as a handle: the one the row holds, or a copy when
    /// the row copied the bytes (a frozen row's).
    pub fn qualifier_handle(&self) -> Bytes {
        self.handles.map_or_else(
            || Bytes::copy_from_slice(self.qualifier),
            |(q, _)| q.clone(),
        )
    }

    /// The cell, owned: the row's handles, or copies of what it copied.
    pub fn to_cell(&self) -> Cell {
        let value = self
            .handles
            .map_or_else(|| Bytes::copy_from_slice(self.value), |(_, v)| v.clone());
        Cell {
            family: self.family_handle(),
            qualifier: self.qualifier_handle(),
            timestamp: self.timestamp,
            value,
        }
    }
}

impl Cell {
    /// The cell lent, with its handles.
    pub fn as_cell_ref(&self) -> CellRef<'_> {
        CellRef {
            family: &self.family,
            qualifier: &self.qualifier,
            timestamp: self.timestamp,
            value: &self.value,
            family_handle: &self.family,
            handles: Some((&self.qualifier, &self.value)),
        }
    }
}

/// The cells of a row view, wherever they are held.
#[derive(Clone, Copy, Debug)]
enum Cells<'a> {
    /// An owned row's.
    Owned(&'a [Cell]),
    /// A batch row's, with the batch's byte buffer their copies are in.
    Batch(&'a [BatchCell], &'a [u8]),
}

impl<'a> Cells<'a> {
    fn len(self) -> usize {
        match self {
            Cells::Owned(cells) => cells.len(),
            Cells::Batch(cells, _) => cells.len(),
        }
    }

    fn get(self, i: usize) -> CellRef<'a> {
        let (cell, bytes) = match self {
            Cells::Owned(cells) => return cells[i].as_cell_ref(),
            Cells::Batch(cells, bytes) => (&cells[i], bytes),
        };
        let (qualifier, value, handles) = match &cell.held {
            Held::Lent(qualifier, value) => (&qualifier[..], &value[..], Some((qualifier, value))),
            Held::Copied(start, mid, end) => {
                let [start, mid, end] = [start, mid, end].map(|&at| at as usize);
                (&bytes[start..mid], &bytes[mid..end], None)
            }
        };
        CellRef {
            family: &cell.family,
            qualifier,
            timestamp: cell.timestamp,
            value,
            family_handle: &cell.family,
            handles,
        }
    }
}

/// A borrowed row: the row key plus its visible cells, ordered by
/// `(family, qualifier)`. Two rows are equal when their keys and cells
/// are, however each is held.
#[derive(Clone, Copy, Debug)]
pub struct RowRef<'a> {
    /// Row key.
    pub key: &'a [u8],
    cells: Cells<'a>,
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.cells().eq(other.cells())
    }
}

impl Eq for RowRef<'_> {}

impl<'a> RowRef<'a> {
    /// Visible cells (the newest version per column), sorted by
    /// `(family, qualifier)`.
    pub fn cells(self) -> impl ExactSizeIterator<Item = CellRef<'a>> + Clone + 'a {
        (0..self.cells.len()).map(move |i| self.cells.get(i))
    }

    /// The visible cell `family:qualifier`, if any.
    pub fn cell(self, family: &str, qualifier: &[u8]) -> Option<CellRef<'a>> {
        self.cells()
            .find(|c| c.family == family && c.qualifier == qualifier)
    }

    /// The visible value of `family:qualifier`, if any.
    pub fn value(self, family: &str, qualifier: &[u8]) -> Option<&'a [u8]> {
        self.cell(family, qualifier).map(|c| c.value)
    }

    /// All cells in one family.
    pub fn family_cells(self, family: &'a str) -> impl Iterator<Item = CellRef<'a>> + 'a {
        self.cells().filter(move |c| c.family == family)
    }

    /// Total wire weight of the row (sum of cell weights).
    pub fn weight(self) -> u64 {
        self.cells().map(|c| c.weight(self.key.len())).sum()
    }

    /// Number of cells (KV pairs) in the row.
    pub fn kv_count(self) -> u64 {
        self.cells.len() as u64
    }

    /// Copies the row out: one allocation for the key, one for the cells,
    /// and two per cell whose bytes the row copied (a lent handle is
    /// shared, not copied).
    pub fn to_owned(self) -> RowResult {
        RowResult {
            key: self.key.to_vec(),
            cells: self.cells().map(|c| c.to_cell()).collect(),
        }
    }
}

impl<'a> From<&'a RowResult> for RowRef<'a> {
    fn from(row: &'a RowResult) -> Self {
        RowRef {
            key: &row.key,
            cells: Cells::Owned(&row.cells),
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
    pub fn value(&self, family: &str, qualifier: &[u8]) -> Option<&[u8]> {
        self.as_row_ref().value(family, qualifier)
    }

    /// All cells in one family.
    pub fn family_cells<'a>(&'a self, family: &'a str) -> impl Iterator<Item = CellRef<'a>> + 'a {
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

/// One cell of a batch.
#[derive(Clone, Debug)]
struct BatchCell {
    family: Arc<str>,
    timestamp: u64,
    held: Held,
}

/// Where a batch cell's qualifier and value are.
#[derive(Clone, Debug)]
enum Held {
    /// The handles a memstore row holds.
    Lent(Bytes, Bytes),
    /// Copied into the batch's byte buffer: the qualifier from the first
    /// offset to the second, the value from there to the third.
    Copied(u32, u32, u32),
}

/// Where one batch row ends: its key is `bytes[key_start..key_end]`, and
/// its cells end at `cell_end`. Its copied cell bytes come right before
/// its key, from where the previous row's key ends.
#[derive(Clone, Copy, Debug, Default)]
struct Ends {
    key_start: u32,
    key_end: u32,
    cell_end: u32,
}

/// A batch offset, which must fit its `u32`.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a row batch holds fewer than 2^32 bytes and cells")
}

/// The rows of one scan step in three flat buffers (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct RowBatch {
    /// Per row in order: the bytes its cells copied, then its key.
    bytes: Vec<u8>,
    /// Every row's cells, concatenated in row order. Cells past the last
    /// row's end belong to the row being written (see
    /// [`RowBatch::push_lent`]).
    cells: Vec<BatchCell>,
    ends: Vec<Ends>,
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
        let ends = self.ends.get(i)?;
        let cell_start = self.previous(i).cell_end as usize;
        Some(RowRef {
            key: &self.bytes[ends.key_start as usize..ends.key_end as usize],
            cells: Cells::Batch(&self.cells[cell_start..ends.cell_end as usize], &self.bytes),
        })
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Removes every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.cells.clear();
        self.ends.clear();
    }

    /// Removes the first `n` rows, keeping the rest in order.
    pub fn drop_front(&mut self, n: usize) {
        if n >= self.len() {
            return self.clear();
        }
        let Ends {
            key_end: bytes,
            cell_end: cells,
            ..
        } = self.previous(n);
        self.bytes.drain(..bytes as usize);
        self.cells.drain(..cells as usize);
        self.ends.drain(..n);
        for ends in &mut self.ends {
            ends.key_start -= bytes;
            ends.key_end -= bytes;
            ends.cell_end -= cells;
        }
        for cell in &mut self.cells {
            if let Held::Copied(start, mid, end) = &mut cell.held {
                (*start, *mid, *end) = (*start - bytes, *mid - bytes, *end - bytes);
            }
        }
    }

    /// Where row `i - 1` ends, which is where row `i` starts.
    fn previous(&self, i: usize) -> Ends {
        i.checked_sub(1)
            .map_or_else(Ends::default, |p| self.ends[p])
    }

    /// Makes room for `bytes` more copied bytes.
    pub(crate) fn reserve_bytes(&mut self, bytes: usize) {
        self.bytes.reserve(bytes);
    }

    /// Appends a cell lending a memstore column's handles to the row
    /// being written — the cells pushed since the last
    /// [`RowBatch::commit_row`] or [`RowBatch::discard_row`].
    pub(crate) fn push_lent(
        &mut self,
        family: &Arc<str>,
        timestamp: u64,
        qualifier: &Bytes,
        value: &Bytes,
    ) {
        self.cells.push(BatchCell {
            family: Arc::clone(family),
            timestamp,
            held: Held::Lent(qualifier.clone(), value.clone()),
        });
    }

    /// Appends a cell to the row being written, copying its bytes into
    /// the batch.
    pub(crate) fn push_copied(
        &mut self,
        family: &Arc<str>,
        timestamp: u64,
        qualifier: &[u8],
        value: &[u8],
    ) {
        let start = offset(self.bytes.len());
        self.bytes.extend_from_slice(qualifier);
        let mid = offset(self.bytes.len());
        self.bytes.extend_from_slice(value);
        self.cells.push(BatchCell {
            family: Arc::clone(family),
            timestamp,
            held: Held::Copied(start, mid, offset(self.bytes.len())),
        });
    }

    /// The row being written, viewed under `key`, unless it has no cell.
    /// A key in two parts (a frozen row's prefix and suffix) is written
    /// after the row's cells first, where [`RowBatch::commit_row`] keeps
    /// it and [`RowBatch::discard_row`] drops it; a whole key is viewed
    /// where it is.
    pub(crate) fn open_row<'a>(&'a mut self, key: Key<'a>) -> Option<RowRef<'a>> {
        let cell_start = self.previous(self.len()).cell_end as usize;
        if cell_start == self.cells.len() {
            return None;
        }
        let key_start = self.bytes.len();
        if !key.prefix.is_empty() {
            key.write_from(0, &mut self.bytes);
        }
        Some(RowRef {
            key: match key.prefix {
                [] => key.suffix,
                _ => &self.bytes[key_start..],
            },
            cells: Cells::Batch(&self.cells[cell_start..], &self.bytes),
        })
    }

    /// Makes the row that [`RowBatch::open_row`] opened under `key` the
    /// batch's next row, copying its key unless it was written then.
    pub(crate) fn commit_row(&mut self, key: Key<'_>) {
        if key.prefix.is_empty() {
            self.bytes.extend_from_slice(key.suffix);
        }
        let key_end = offset(self.bytes.len());
        self.ends.push(Ends {
            key_start: key_end - offset(key.len()),
            key_end,
            cell_end: offset(self.cells.len()),
        });
    }

    /// Drops the row being written.
    pub(crate) fn discard_row(&mut self) {
        let Ends {
            key_end, cell_end, ..
        } = self.previous(self.len());
        self.bytes.truncate(key_end as usize);
        self.cells.truncate(cell_end as usize);
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
        assert_eq!(row.value("a", b"q1").unwrap(), b"v1");
        assert_eq!(row.value("b", b"q1").unwrap(), b"v2");
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

    /// Pushes `c` lent when `lend`, copied otherwise.
    fn push(batch: &mut RowBatch, c: Cell, lend: bool) {
        if lend {
            batch.push_lent(&c.family, c.timestamp, &c.qualifier, &c.value);
        } else {
            batch.push_copied(&c.family, c.timestamp, &c.qualifier, &c.value);
        }
    }

    /// Three rows of 1, 0 and 2 cells (a discarded row between them),
    /// copied and lent in turn, under whole keys and keys in two parts.
    fn batch() -> RowBatch {
        let mut batch = RowBatch::new();
        push(&mut batch, cell("a", b"q", b"1"), false);
        batch.commit_row(Key::whole(b"k1"));
        push(&mut batch, cell("a", b"q", b"dropped"), false);
        let dropped = batch.open_row(Key {
            prefix: b"k",
            suffix: b"x",
        });
        let dropped = dropped.map(|row| (row.key, row.cells().len()));
        assert_eq!(dropped, Some((&b"kx"[..], 1)));
        batch.discard_row();
        assert!(batch.open_row(Key::whole(b"key2")).is_none(), "no cell");
        batch.commit_row(Key::whole(b"key2"));
        push(&mut batch, cell("a", b"q", b"3"), true);
        push(&mut batch, cell("b", b"q", b"4"), false);
        let k3 = Key {
            prefix: b"k3",
            suffix: b"",
        };
        assert_eq!(batch.open_row(k3).map(|row| row.key), Some(&b"k3"[..]));
        batch.commit_row(k3);
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
        assert_eq!(rows[2].value("a", b"q").unwrap(), b"3");
        assert_eq!(rows[2].value("b", b"q").unwrap(), b"4");
        assert_eq!(batch.get(2).unwrap(), rows[2].as_row_ref());
        assert!(batch.get(3).is_none());
    }

    /// A lent cell hands out the handle it was given; a copied one, a
    /// copy of its bytes.
    #[test]
    fn a_lent_qualifier_is_the_writers_handle_and_a_copied_one_a_copy() {
        let lent = cell("a", b"lent", b"v");
        let mut batch = RowBatch::new();
        push(&mut batch, lent.clone(), true);
        push(&mut batch, cell("a", b"copied", b"v"), false);
        batch.commit_row(Key::whole(b"k"));
        let row = batch.get(0).unwrap();
        let [first, second] = [0, 1].map(|i| row.cells().nth(i).unwrap().qualifier_handle());
        assert_eq!(first.as_ptr(), lent.qualifier.as_ptr());
        assert_eq!(second, Bytes::from(&b"copied"[..]));
        assert_eq!(row.cells().nth(1).unwrap().to_cell().value, lent.value);
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
        let capacity = (batch.bytes.capacity(), batch.cells.capacity());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!((batch.bytes.capacity(), batch.cells.capacity()), capacity);
    }

    /// A batch cell is no wider than an owned one.
    #[test]
    fn a_batch_cell_is_as_wide_as_a_cell() {
        assert_eq!(
            std::mem::size_of::<BatchCell>(),
            std::mem::size_of::<Cell>()
        );
    }
}
