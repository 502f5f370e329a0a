//! A region's frozen rows: its segment, the bytes of every row a flush
//! froze, in key order (see [`crate::region`] for where it sits).
//!
//! A segment owns its bytes, as an HBase HFile block does: it holds the
//! key, column and value bytes themselves, not handles to them. All its
//! row keys sit in one byte arena with one `u32` end per row; every
//! column's qualifier and value sit back to back in a second arena with
//! two `u32` ends per column; and each column keeps its family index as a
//! `u8`, its timestamp, and one tombstone bit. So a frozen cell costs 17
//! bytes and a bit beside its own bytes, and no allocation of its own. A
//! flush sizes the new segment in one counting pass over the memstore and
//! the segment it merges into, then copies every byte once: each array
//! is one allocation, and the writers' handles are freed with the
//! memstore.
//!
//! A row lives in exactly one half. The first write to a frozen row
//! thaws it: it is copied into a new memstore row, its qualifiers and
//! values made handles again, and the segment marks the row moved in a
//! bitmap, the segment's only change after a freeze. The moved row's
//! bytes stay in the arenas, dead, until the next flush leaves them out.

use std::ops::Range;

use bytes::Bytes;

use crate::memstore::{Column, Memstore, RowData};
use crate::region::Stored;

/// A region's frozen rows, in key order (see the module docs). Column
/// `c` is `families[c]`, `byte_ends[c]`, `timestamps[c]` and tombstone
/// bit `c`.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Every row's key, back to back.
    keys: Vec<u8>,
    /// Row `r`'s key ends at `key_ends[r]` and starts where row `r - 1`'s
    /// ends.
    key_ends: Vec<u32>,
    /// Row `r`'s columns end at `column_ends[r]`, sorted by `(family,
    /// qualifier)`.
    column_ends: Vec<u32>,
    families: Vec<u8>,
    /// Every column's qualifier and then its value, back to back.
    bytes: Vec<u8>,
    /// Column `c`'s `(qualifier end, value end)` in `bytes`; its
    /// qualifier starts where column `c - 1`'s value ends.
    byte_ends: Vec<(u32, u32)>,
    timestamps: Vec<u64>,
    /// Bit `c` marks column `c` a tombstone. Empty until the first.
    tombstones: Vec<u64>,
    /// Bit `r` marks row `r` moved into the memstore since the freeze.
    /// Empty until the first move.
    moved: Vec<u64>,
}

/// The end offset a segment array records, which must fit its `u32`.
fn offset(end: usize) -> u32 {
    u32::try_from(end).expect("a segment holds fewer than 2^32 bytes and columns")
}

/// The entries `[start, end)` of an array of ends: where entry `i` starts
/// is where entry `i - 1` ends.
fn span(ends: &[u32], entries: Range<usize>) -> Range<usize> {
    let start = |i: usize| i.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
    start(entries.start)..start(entries.end)
}

/// The first index of `range` that `before` is false on (it must be true
/// on a prefix of the range and false on the rest).
fn partition_point(range: Range<usize>, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn bit(bits: &[u64], i: usize) -> bool {
    let word = bits.get(i / 64).copied().unwrap_or(0);
    word >> (i % 64) & 1 == 1
}

/// Sets bit `i`; the first set sizes the bitmap for `len` bits at once.
fn set_bit(bits: &mut Vec<u64>, i: usize, len: usize) {
    let words = len.max(i + 1).div_ceil(64);
    if bits.len() < words {
        bits.resize(words, 0);
    }
    bits[i / 64] |= 1 << (i % 64);
}

impl Segment {
    /// Number of rows, moved ones included.
    pub(crate) fn len(&self) -> usize {
        self.key_ends.len()
    }

    pub(crate) fn key(&self, row: usize) -> &[u8] {
        &self.keys[span(&self.key_ends, row..row + 1)]
    }

    pub(crate) fn columns(&self, row: usize) -> Range<usize> {
        span(&self.column_ends, row..row + 1)
    }

    /// The first row whose key is `key` or greater.
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        partition_point(0..self.len(), |row| self.key(row) < key)
    }

    pub(crate) fn is_moved(&self, row: usize) -> bool {
        bit(&self.moved, row)
    }

    /// The row `key`, unless it is absent or moved.
    pub(crate) fn find_row(&self, key: &[u8]) -> Option<usize> {
        let row = self.lower_bound(key);
        (row < self.len() && self.key(row) == key && !self.is_moved(row)).then_some(row)
    }

    /// Where `columns` sit in `bytes`, back to back.
    fn bytes_of(&self, columns: Range<usize>) -> Range<usize> {
        let start = |c: usize| {
            c.checked_sub(1)
                .map_or(0, |prev| self.byte_ends[prev].1 as usize)
        };
        start(columns.start)..start(columns.end)
    }

    fn qualifier(&self, column: usize) -> &[u8] {
        let start = self.bytes_of(column..column + 1).start;
        &self.bytes[start..self.byte_ends[column].0 as usize]
    }

    pub(crate) fn stored(&self, column: usize) -> Stored<'_> {
        let (qualifier_end, value_end) = self.byte_ends[column];
        let tombstone = bit(&self.tombstones, column);
        Stored {
            family: usize::from(self.families[column]),
            qualifier: self.qualifier(column),
            ts: self.timestamps[column],
            value: (!tombstone).then(|| &self.bytes[qualifier_end as usize..value_end as usize]),
            column: None,
        }
    }

    /// The columns of `family` among a row's `columns`.
    pub(crate) fn family(&self, columns: Range<usize>, family: usize) -> Range<usize> {
        let families = &self.families[columns.clone()];
        let start = families.partition_point(|&f| usize::from(f) < family);
        let len = families[start..].partition_point(|&f| usize::from(f) == family);
        columns.start + start..columns.start + start + len
    }

    /// The column `family:qualifier` of `row`.
    pub(crate) fn find_column(&self, row: usize, family: usize, qualifier: &[u8]) -> Option<usize> {
        let columns = self.family(self.columns(row), family);
        let at = partition_point(columns.clone(), |c| self.qualifier(c) < qualifier);
        (at < columns.end && self.qualifier(at) == qualifier).then_some(at)
    }

    /// Thaws `row`: its columns as memstore columns, in a vector with room
    /// for `more`, their bytes copied into handles. Marks the row moved
    /// (see the module docs).
    pub(crate) fn take_row(&mut self, row: usize, more: usize) -> Vec<Column> {
        let columns = self.columns(row);
        let mut taken = Vec::with_capacity(columns.len() + more);
        taken.extend(columns.map(|c| {
            let stored = self.stored(c);
            Column {
                family: stored.family,
                qualifier: Bytes::copy_from_slice(stored.qualifier),
                ts: stored.ts,
                value: stored.value.map(Bytes::copy_from_slice),
            }
        }));
        let rows = self.len();
        set_bit(&mut self.moved, row, rows);
        taken
    }

    /// An empty segment with room for what it is about to be given:
    /// every array is allocated once.
    fn with_capacity(rows: usize, key_bytes: usize, columns: usize, bytes: usize) -> Segment {
        Segment {
            keys: Vec::with_capacity(key_bytes),
            key_ends: Vec::with_capacity(rows),
            column_ends: Vec::with_capacity(rows),
            families: Vec::with_capacity(columns),
            bytes: Vec::with_capacity(bytes),
            byte_ends: Vec::with_capacity(columns),
            timestamps: Vec::with_capacity(columns),
            tombstones: Vec::new(),
            moved: Vec::new(),
        }
    }

    /// Appends row `key` with its sorted `columns`, copying their bytes.
    fn push_row<'a>(&mut self, key: &[u8], columns: impl IntoIterator<Item = Stored<'a>>) {
        for column in columns {
            let family = u8::try_from(column.family).expect("a table has ≤ 256 families");
            self.families.push(family);
            self.bytes.extend_from_slice(column.qualifier);
            let qualifier_end = offset(self.bytes.len());
            match column.value {
                Some(value) => self.bytes.extend_from_slice(value),
                // Sized at once for the columns the segment has room for.
                None => {
                    let planned = self.timestamps.capacity();
                    set_bit(&mut self.tombstones, self.timestamps.len(), planned);
                }
            }
            self.byte_ends
                .push((qualifier_end, offset(self.bytes.len())));
            self.timestamps.push(column.ts);
        }
        self.keys.extend_from_slice(key);
        self.key_ends.push(offset(self.keys.len()));
        self.column_ends.push(offset(self.timestamps.len()));
    }

    /// Gives back the room left by moved rows.
    fn trimmed(mut self) -> Segment {
        if self.bytes.len() < self.bytes.capacity() || self.keys.len() < self.keys.capacity() {
            self.keys.shrink_to_fit();
            self.key_ends.shrink_to_fit();
            self.column_ends.shrink_to_fit();
            self.families.shrink_to_fit();
            self.bytes.shrink_to_fit();
            self.byte_ends.shrink_to_fit();
            self.timestamps.shrink_to_fit();
            self.tombstones.truncate(self.timestamps.len().div_ceil(64));
            self.tombstones.shrink_to_fit();
        }
        self
    }

    /// The flush: `memstore` frozen together with this segment's rows
    /// into a new segment, sized by one counting pass over the memstore
    /// (key lengths and column counts it holds inline, column bytes it
    /// does not) and filled by copying every byte once. A memstore row
    /// replaces the segment row it was moved from.
    pub(crate) fn merged(self, memstore: Memstore<RowData>) -> Segment {
        let (mut key_bytes, mut columns, mut bytes) = (0, 0, 0);
        for (key, row) in memstore.iter() {
            key_bytes += key.len();
            columns += row.columns.len();
            let held = |c: &Column| c.qualifier.len() + c.value.as_ref().map_or(0, |v| v.len());
            bytes += row.columns.iter().map(held).sum::<usize>();
        }
        let mut merged = Segment::with_capacity(
            self.len() + memstore.len(),
            self.keys.len() + key_bytes,
            self.timestamps.len() + columns,
            self.bytes.len() + bytes,
        );
        let freeze = |merged: &mut Segment, rows: Range<usize>| {
            for row in rows.filter(|&row| !self.is_moved(row)) {
                merged.push_row(self.key(row), self.columns(row).map(|c| self.stored(c)));
            }
        };
        let mut next = 0;
        for (key, row) in memstore.iter() {
            let end = self.lower_bound(key).max(next);
            freeze(&mut merged, next..end);
            next = end;
            merged.push_row(key, row.columns.iter().map(Column::stored));
        }
        freeze(&mut merged, next..self.len());
        merged.trimmed()
    }

    /// A copy of rows `rows`, without the moved ones.
    pub(crate) fn slice(&self, rows: Range<usize>) -> Segment {
        let columns = span(&self.column_ends, rows.clone());
        let mut slice = Segment::with_capacity(
            rows.len(),
            span(&self.key_ends, rows.clone()).len(),
            columns.len(),
            self.bytes_of(columns).len(),
        );
        for row in rows.filter(|&row| !self.is_moved(row)) {
            slice.push_row(self.key(row), self.columns(row).map(|c| self.stored(c)));
        }
        slice.trimmed()
    }
}
