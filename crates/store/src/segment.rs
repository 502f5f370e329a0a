//! A region's frozen rows: its segment, the bytes of every row a flush
//! froze, in key order (see [`crate::region`] for where it sits).
//!
//! A segment owns its bytes, as an HBase HFile block does: it holds the
//! key, column and value bytes themselves, not handles to them. All its
//! row keys sit in one byte arena with one `u32` end per row, and every
//! column's value in a second arena with one `u32` end per column. Each
//! row keeps a `u32` end of its columns, sorted by `(family, qualifier)`,
//! and each column a `u8` name code, a timestamp and one tombstone bit.
//!
//! What repeats is stored once, as HBase's data block encodings (`PREFIX`,
//! `DIFF`, `FAST_DIFF`) do inside an HFile block. Each segment chooses
//! three encodings from the rows it holds, never from the segment it was
//! copied from:
//! - **A name dictionary**, when its columns carry at most 256 distinct
//!   `(family, qualifier)` names (a base table has a handful). The names
//!   are kept once, sorted, and a column's code is its name's index, so
//!   code order is column order. With more names (an index table has one
//!   qualifier per row) the code is the column's family, and the
//!   qualifier sits in the arena before the value, with a `u32` end of
//!   its own.
//! - **Timestamps** as `u32` deltas from the segment's least, or as `u64`s
//!   when their span does not fit 32 bits.
//! - **No column ends** when every row holds exactly one column: row `r`
//!   is then column `r`.
//!
//! So a frozen base-table column costs 9 bytes and a bit beside its value
//! and its row 8 bytes; an index row of one column costs 17 bytes and a
//! bit beside its key, qualifier and value. A frozen cell needs no
//! allocation of its own.
//!
//! A flush or a split builds a segment in two passes over the rows it
//! copies: one counts their bytes, names, timestamps and columns per row,
//! which sizes every array and picks the encodings, and one copies every
//! byte once into arrays allocated once each. The writers' handles are
//! freed with the memstore.
//!
//! A row lives in exactly one half. The first write to a frozen row
//! thaws it: it is copied into a new memstore row, its qualifiers and
//! values made handles again, and the segment marks the row moved in a
//! bitmap, the segment's only change after a freeze. The moved row's
//! bytes stay in the arenas, dead, until the next flush leaves them out.

use std::ops::Range;
use std::slice;

use bytes::Bytes;

use crate::memstore::{Column, Memstore, RowData};
use crate::region::Stored;

/// The most names a dictionary holds: a column's code is a `u8`.
const MAX_NAMES: usize = 256;

/// A region's frozen rows, in key order (see the module docs). Column
/// `c` is `codes[c]`, `value_ends[c]` (and `qualifier_ends[c]` without a
/// dictionary), timestamp `c` and tombstone bit `c`.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Every row's key, back to back.
    keys: Vec<u8>,
    /// Row `r`'s key ends at `key_ends[r]` and starts where row `r - 1`'s
    /// ends.
    key_ends: Vec<u32>,
    /// Row `r`'s columns end at `column_ends[r]`, sorted by `(family,
    /// qualifier)`. Empty when every row holds one column.
    column_ends: Vec<u32>,
    /// The dictionary, when the columns carry at most [`MAX_NAMES`] names.
    names: Option<Names>,
    /// Column `c`'s name as its index in `names`, or its family without.
    codes: Vec<u8>,
    /// Every column's value, back to back, each after its qualifier when
    /// there is no dictionary.
    bytes: Vec<u8>,
    /// Column `c`'s qualifier end in `bytes`; empty with a dictionary.
    qualifier_ends: Vec<u32>,
    /// Column `c`'s value end in `bytes`; the column starts where column
    /// `c - 1`'s value ends.
    value_ends: Vec<u32>,
    timestamps: Timestamps,
    /// Bit `c` marks column `c` a tombstone. Empty until the first.
    tombstones: Vec<u64>,
    /// Bit `r` marks row `r` moved into the memstore since the freeze.
    /// Empty until the first move.
    moved: Vec<u64>,
}

/// A segment's distinct `(family, qualifier)` names, sorted and back to
/// back: each is its family byte and then its qualifier, so byte order
/// is name order.
#[derive(Debug)]
struct Names {
    bytes: Vec<u8>,
    /// Name `n` ends at `ends[n]`.
    ends: Vec<u32>,
}

impl Names {
    fn get(&self, code: usize) -> (usize, &[u8]) {
        let name = &self.bytes[span(&self.ends, code..code + 1)];
        (usize::from(name[0]), &name[1..])
    }

    /// The first code whose name is `(family, qualifier)` or greater.
    fn lower_bound(&self, family: usize, qualifier: &[u8]) -> usize {
        partition_point(0..self.ends.len(), |code| {
            self.get(code) < (family, qualifier)
        })
    }
}

/// Every column's timestamp.
#[derive(Debug)]
enum Timestamps {
    /// Less the least of them, when their span fits 32 bits.
    Deltas {
        least: u64,
        deltas: Vec<u32>,
    },
    Wide(Vec<u64>),
}

impl Default for Timestamps {
    fn default() -> Self {
        Timestamps::Wide(Vec::new())
    }
}

impl Timestamps {
    fn get(&self, column: usize) -> u64 {
        match self {
            Timestamps::Deltas { least, deltas } => least + u64::from(deltas[column]),
            Timestamps::Wide(timestamps) => timestamps[column],
        }
    }

    fn push(&mut self, ts: u64) {
        match self {
            Timestamps::Deltas { least, deltas } => {
                deltas.push(u32::try_from(ts - *least).expect("the planned span fits 32 bits"));
            }
            Timestamps::Wide(timestamps) => timestamps.push(ts),
        }
    }
}

/// Where `name` sits among sorted `names` (`Ok`), or would be inserted
/// (`Err`). A row mostly names its columns as the rows before it did, and
/// with the same qualifier handle, so `next`, the name after the row's
/// previous column's, is tried first, by address and then by bytes.
fn find_name(names: &[(usize, &[u8])], next: usize, name: (usize, &[u8])) -> Result<usize, usize> {
    match names.get(next) {
        Some(&(family, qualifier))
            if family == name.0 && (std::ptr::eq(qualifier, name.1) || qualifier == name.1) =>
        {
            Ok(next)
        }
        _ => names.binary_search(&name),
    }
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
        bits.reserve_exact(words - bits.len());
        bits.resize(words, 0);
    }
    bits[i / 64] |= 1 << (i % 64);
}

/// A row's sorted columns, as a flush or a split copies them.
enum Columns<'a> {
    Frozen(&'a Segment, Range<usize>),
    Thawed(slice::Iter<'a, Column>),
}

impl<'a> Iterator for Columns<'a> {
    type Item = Stored<'a>;

    fn next(&mut self) -> Option<Stored<'a>> {
        match self {
            Columns::Frozen(segment, columns) => columns.next().map(|c| segment.stored(c)),
            Columns::Thawed(columns) => columns.next().map(Column::stored),
        }
    }
}

/// What a new segment will hold, counted in one pass over its rows: the
/// size of every array and the encodings (see the module docs).
#[derive(Default)]
struct Plan<'a> {
    rows: usize,
    key_bytes: usize,
    columns: usize,
    qualifier_bytes: usize,
    value_bytes: usize,
    /// The distinct names, sorted; `None` past [`MAX_NAMES`].
    names: Option<Vec<(usize, &'a [u8])>>,
    least: u64,
    most: u64,
    one_column_rows: bool,
}

impl<'a> Plan<'a> {
    fn new() -> Self {
        Plan {
            names: Some(Vec::new()),
            least: u64::MAX,
            one_column_rows: true,
            ..Plan::default()
        }
    }

    fn count(&mut self, key: &[u8], columns: Columns<'a>) {
        let first = self.columns;
        let mut next = 0;
        for column in columns {
            self.columns += 1;
            self.qualifier_bytes += column.qualifier.len();
            self.value_bytes += column.value.map_or(0, <[u8]>::len);
            self.least = self.least.min(column.ts);
            self.most = self.most.max(column.ts);
            let Some(names) = &mut self.names else {
                continue;
            };
            let name = (column.family, column.qualifier);
            next = match find_name(names, next, name) {
                Ok(at) => at + 1,
                Err(_) if names.len() == MAX_NAMES => {
                    self.names = None;
                    continue;
                }
                Err(at) => {
                    names.insert(at, name);
                    at + 1
                }
            };
        }
        self.rows += 1;
        self.key_bytes += key.len();
        self.one_column_rows &= self.columns - first == 1;
    }

    /// An empty segment encoded as planned, every array allocated once at
    /// the size it is about to be filled to.
    fn segment(&self) -> Segment {
        let names = self.names.as_ref().map(|names| {
            let bytes = names.iter().map(|(_, qualifier)| 1 + qualifier.len()).sum();
            let mut dictionary = Names {
                bytes: Vec::with_capacity(bytes),
                ends: Vec::with_capacity(names.len()),
            };
            for &(family, qualifier) in names {
                let family = u8::try_from(family).expect("a table has ≤ 256 families");
                dictionary.bytes.push(family);
                dictionary.bytes.extend_from_slice(qualifier);
                dictionary.ends.push(offset(dictionary.bytes.len()));
            }
            dictionary
        });
        let (qualifier_ends, qualifier_bytes) = match names {
            Some(_) => (0, 0),
            None => (self.columns, self.qualifier_bytes),
        };
        let timestamps = if self.most.saturating_sub(self.least) <= u64::from(u32::MAX) {
            Timestamps::Deltas {
                least: self.least,
                deltas: Vec::with_capacity(self.columns),
            }
        } else {
            Timestamps::Wide(Vec::with_capacity(self.columns))
        };
        let column_ends = if self.one_column_rows { 0 } else { self.rows };
        Segment {
            keys: Vec::with_capacity(self.key_bytes),
            key_ends: Vec::with_capacity(self.rows),
            column_ends: Vec::with_capacity(column_ends),
            names,
            codes: Vec::with_capacity(self.columns),
            bytes: Vec::with_capacity(self.value_bytes + qualifier_bytes),
            qualifier_ends: Vec::with_capacity(qualifier_ends),
            value_ends: Vec::with_capacity(self.columns),
            timestamps,
            tombstones: Vec::new(),
            moved: Vec::new(),
        }
    }
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
        if self.column_ends.is_empty() {
            return row..row + 1;
        }
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

    /// Column `column`'s family and qualifier.
    fn name(&self, column: usize) -> (usize, &[u8]) {
        let code = usize::from(self.codes[column]);
        match &self.names {
            Some(names) => names.get(code),
            None => {
                let start = span(&self.value_ends, column..column + 1).start;
                (
                    code,
                    &self.bytes[start..self.qualifier_ends[column] as usize],
                )
            }
        }
    }

    pub(crate) fn stored(&self, column: usize) -> Stored<'_> {
        let (family, qualifier) = self.name(column);
        let Range { mut start, end } = span(&self.value_ends, column..column + 1);
        if self.names.is_none() {
            start += qualifier.len();
        }
        let tombstone = bit(&self.tombstones, column);
        Stored {
            family,
            qualifier,
            ts: self.timestamps.get(column),
            value: (!tombstone).then(|| &self.bytes[start..end]),
            column: None,
        }
    }

    /// The first of `columns` whose code is `code` or greater.
    fn first_code(&self, columns: Range<usize>, code: usize) -> usize {
        partition_point(columns, |c| usize::from(self.codes[c]) < code)
    }

    /// The columns of `family` among a row's `columns`.
    pub(crate) fn family(&self, columns: Range<usize>, family: usize) -> Range<usize> {
        // The family's codes: a run of the dictionary's, or the family.
        let codes = match &self.names {
            Some(names) => names.lower_bound(family, &[])..names.lower_bound(family + 1, &[]),
            None => family..family + 1,
        };
        self.first_code(columns.clone(), codes.start)..self.first_code(columns, codes.end)
    }

    /// The column `family:qualifier` of `row`.
    pub(crate) fn find_column(&self, row: usize, family: usize, qualifier: &[u8]) -> Option<usize> {
        let columns = self.family(self.columns(row), family);
        let at = match &self.names {
            Some(names) => self.first_code(columns.clone(), names.lower_bound(family, qualifier)),
            None => partition_point(columns.clone(), |c| self.name(c).1 < qualifier),
        };
        (at < columns.end && self.name(at).1 == qualifier).then_some(at)
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

    /// The encodings the segment chose, or their fallbacks, by name.
    #[cfg(test)]
    pub(crate) fn encodings(&self) -> [&'static str; 3] {
        [
            match self.names {
                Some(_) => "dictionary",
                None => "qualifiers in arena",
            },
            match self.timestamps {
                Timestamps::Deltas { .. } => "u32 deltas",
                Timestamps::Wide(_) => "u64 timestamps",
            },
            match self.column_ends.is_empty() {
                true => "one column per row",
                false => "column ends",
            },
        ]
    }

    /// Rows `rows` but the moved ones, as a flush or a split copies them.
    fn frozen(&self, rows: Range<usize>) -> impl Iterator<Item = (&[u8], Columns<'_>)> {
        rows.filter(|&row| !self.is_moved(row))
            .map(|row| (self.key(row), Columns::Frozen(self, self.columns(row))))
    }

    /// A segment of the rows `rows()` yields, in key order: one pass
    /// counts them and one copies them in (see the module docs).
    fn build<'a, I>(rows: impl Fn() -> I) -> Segment
    where
        I: Iterator<Item = (&'a [u8], Columns<'a>)>,
    {
        let mut plan = Plan::new();
        rows().for_each(|(key, columns)| plan.count(key, columns));
        let mut segment = plan.segment();
        let names = plan.names.as_deref();
        rows().for_each(|(key, columns)| segment.push_row(key, columns, names));
        segment
    }

    /// Appends row `key` with its sorted `columns`, copying their bytes
    /// as the segment was planned to hold them, with the plan's `names`.
    fn push_row(&mut self, key: &[u8], columns: Columns<'_>, names: Option<&[(usize, &[u8])]>) {
        let mut next = 0;
        for column in columns {
            let code = match names {
                Some(names) => {
                    let name = (column.family, column.qualifier);
                    let (Ok(code) | Err(code)) = find_name(names, next, name);
                    next = code + 1;
                    code
                }
                None => {
                    self.bytes.extend_from_slice(column.qualifier);
                    self.qualifier_ends.push(offset(self.bytes.len()));
                    column.family
                }
            };
            self.codes
                .push(u8::try_from(code).expect("a code or a family fits a byte"));
            match column.value {
                Some(value) => self.bytes.extend_from_slice(value),
                // Sized at once for the columns the segment has room for.
                None => {
                    let planned = self.value_ends.capacity();
                    set_bit(&mut self.tombstones, self.value_ends.len(), planned);
                }
            }
            self.value_ends.push(offset(self.bytes.len()));
            self.timestamps.push(column.ts);
        }
        self.keys.extend_from_slice(key);
        self.key_ends.push(offset(self.keys.len()));
        // A segment planned without column ends has no room for them.
        if self.column_ends.capacity() > 0 {
            self.column_ends.push(offset(self.value_ends.len()));
        }
    }

    /// The flush: `memstore` frozen together with this segment's rows
    /// into a new segment. A memstore row replaces the segment row it was
    /// moved from.
    pub(crate) fn merged(self, memstore: Memstore<RowData>) -> Segment {
        Segment::build(|| {
            let mut thawed = memstore.iter().peekable();
            let mut frozen = self.frozen(0..self.len()).peekable();
            std::iter::from_fn(move || {
                let from_memstore = match (thawed.peek(), frozen.peek()) {
                    (Some((key, _)), Some((frozen, _))) => key[..] < **frozen,
                    (thawed, _) => thawed.is_some(),
                };
                if !from_memstore {
                    return frozen.next();
                }
                let (key, row) = thawed.next()?;
                Some((&key[..], Columns::Thawed(row.columns.iter())))
            })
        })
    }

    /// A copy of rows `rows`, without the moved ones.
    pub(crate) fn slice(&self, rows: Range<usize>) -> Segment {
        Segment::build(|| self.frozen(rows.clone()))
    }
}
