//! A region's frozen rows: its segment, the bytes of every row a flush
//! froze, in key order (see [`crate::region`] for where it sits).
//!
//! A segment owns its bytes, as an HBase HFile block does: it holds the
//! key, column and value bytes themselves, not handles to them. All its
//! row keys sit in one byte arena, and every column's value in a second
//! arena with one `u32` end per column. Each row keeps a `u32` end of its
//! columns, sorted by `(family, qualifier)`, and each column a `u8` name
//! code and one tombstone bit.
//!
//! What repeats or can be derived is stored once, as HBase's data block
//! encodings (`PREFIX`, `DIFF`, `FAST_DIFF`) do inside an HFile block.
//! Each segment chooses its encodings from the rows it holds, never from
//! the segment it was copied from, and each has today's layout as its
//! fallback:
//! - **A name dictionary**, when its columns carry at most 256 distinct
//!   `(family, qualifier)` names (a base table has a handful). The names
//!   are kept once, sorted, and a column's code is its name's index, so
//!   code order is column order. With more names (an index table has one
//!   qualifier per row) the code is the column's family, and the
//!   qualifier sits in the arena before the value: all of one width per
//!   family when every family's qualifiers have one (an index row's
//!   qualifier is a base row key), else with a `u32` end of its own.
//! - **Fixed-width keys**, when every row key has one width: row `r`'s
//!   key is then the `r`th run of that many bytes, else it ends at a
//!   `u32` end of its own.
//! - **One timestamp per row**, when every row's columns share one (a
//!   row is written whole); else one per column.
//! - **Timestamps as `u16`, `u32` or `u64` deltas** from the segment's
//!   least, the narrowest their span fits.
//! - **No column ends** when every row holds exactly one column: row `r`
//!   is then column `r`.
//!
//! So a frozen base-table column costs 5 bytes and a bit beside its value
//! and its row 6 beside its key (its column end and a `u16` timestamp);
//! an index row of one column costs 7 bytes and a bit beside its key,
//! qualifier and value. A frozen cell needs no allocation of its own.
//!
//! A flush or a split builds a segment in two passes over the rows it
//! copies: one counts their bytes, names, widths, timestamps and columns
//! per row, which sizes every array and picks the encodings, and one
//! copies every byte once into arrays allocated once each. The writers'
//! handles are freed with the memstore.
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

/// The most names a dictionary holds: a column's code is a `u8`.
const MAX_NAMES: usize = 256;

/// A region's frozen rows, in key order (see the module docs). Column
/// `c` is `codes[c]`, `value_ends[c]` (and its qualifier's end or width
/// without a dictionary), tombstone bit `c` and a timestamp of its own
/// or of its row.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Number of rows, moved ones included.
    rows: usize,
    /// Every row's key, back to back.
    keys: Vec<u8>,
    key_ends: KeyEnds,
    /// Row `r`'s columns end at `column_ends[r]`, sorted by `(family,
    /// qualifier)`. Empty when every row holds one column.
    column_ends: Vec<u32>,
    names: Names,
    /// Column `c`'s name as its index in the dictionary, or its family.
    codes: Vec<u8>,
    /// Every column's value, back to back, each after its qualifier when
    /// there is no dictionary.
    bytes: Vec<u8>,
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

/// Where each row's key ends in `keys`.
#[derive(Debug)]
enum KeyEnds {
    /// Every key is this many bytes long.
    Width(usize),
    /// Row `r`'s key ends at `ends[r]` and starts where row `r - 1`'s
    /// ends.
    Ends(Vec<u32>),
}

impl Default for KeyEnds {
    fn default() -> Self {
        KeyEnds::Width(0)
    }
}

/// What a column's code names, and where its qualifier is.
#[derive(Debug)]
enum Names {
    /// The code indexes the segment's distinct names.
    Dictionary(Dictionary),
    /// The code is the family, and a family-`f` qualifier is `widths[f]`
    /// bytes of the arena before the value.
    Widths(Vec<u32>),
    /// The code is the family, and column `c`'s qualifier ends in the
    /// arena at `ends[c]`, where its value starts.
    Ends(Vec<u32>),
}

impl Default for Names {
    fn default() -> Self {
        Names::Widths(Vec::new())
    }
}

/// A segment's distinct `(family, qualifier)` names, sorted and back to
/// back: each is its family byte and then its qualifier, so byte order
/// is name order.
#[derive(Debug)]
struct Dictionary {
    bytes: Vec<u8>,
    /// Name `n` ends at `ends[n]`.
    ends: Vec<u32>,
}

impl Dictionary {
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

/// Every row's or every column's timestamp, less the least of them.
#[derive(Debug, Default)]
struct Timestamps {
    least: u64,
    /// One per row rather than one per column.
    per_row: bool,
    deltas: Deltas,
}

/// Timestamp deltas, as wide as their span needs.
#[derive(Debug)]
enum Deltas {
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Default for Deltas {
    fn default() -> Self {
        Deltas::U16(Vec::new())
    }
}

impl Timestamps {
    fn get(&self, row: usize, column: usize) -> u64 {
        let at = if self.per_row { row } else { column };
        self.least
            + match &self.deltas {
                Deltas::U16(deltas) => u64::from(deltas[at]),
                Deltas::U32(deltas) => u64::from(deltas[at]),
                Deltas::U64(deltas) => deltas[at],
            }
    }

    fn push(&mut self, ts: u64) {
        let delta = ts - self.least;
        let planned = "the planned span fits the deltas";
        match &mut self.deltas {
            Deltas::U16(deltas) => deltas.push(u16::try_from(delta).expect(planned)),
            Deltas::U32(deltas) => deltas.push(u32::try_from(delta).expect(planned)),
            Deltas::U64(deltas) => deltas.push(delta),
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

/// Whether `width` is the one every value seen so far has had, taking it
/// as that width when it is the first.
fn same_width(seen: &mut Option<usize>, width: usize) -> bool {
    *seen.get_or_insert(width) == width
}

/// A row's sorted columns, as a flush or a split copies them.
enum Columns<'a> {
    /// Row `.1`'s columns `.2` in a segment.
    Frozen(&'a Segment, usize, Range<usize>),
    Thawed(std::slice::Iter<'a, Column>),
}

impl<'a> Iterator for Columns<'a> {
    type Item = Stored<'a>;

    fn next(&mut self) -> Option<Stored<'a>> {
        match self {
            Columns::Frozen(segment, row, columns) => {
                columns.next().map(|c| segment.stored(*row, c))
            }
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
    /// The width of every key so far, while they share one.
    key_width: Option<usize>,
    one_key_width: bool,
    columns: usize,
    qualifier_bytes: usize,
    /// Family `f`'s qualifier width, while its qualifiers share one.
    qualifier_widths: Vec<Option<usize>>,
    one_qualifier_width: bool,
    value_bytes: usize,
    /// The distinct names, sorted; `None` past [`MAX_NAMES`].
    names: Option<Vec<(usize, &'a [u8])>>,
    least: u64,
    most: u64,
    one_timestamp_per_row: bool,
    one_column_rows: bool,
}

impl<'a> Plan<'a> {
    fn new() -> Self {
        Plan {
            names: Some(Vec::new()),
            least: u64::MAX,
            one_key_width: true,
            one_qualifier_width: true,
            one_timestamp_per_row: true,
            one_column_rows: true,
            ..Plan::default()
        }
    }

    fn count(&mut self, key: &[u8], columns: Columns<'a>) {
        let first = self.columns;
        let mut row_ts = None;
        let mut next = 0;
        for column in columns {
            self.columns += 1;
            self.qualifier_bytes += column.qualifier.len();
            self.value_bytes += column.value.map_or(0, <[u8]>::len);
            self.least = self.least.min(column.ts);
            self.most = self.most.max(column.ts);
            self.one_timestamp_per_row &= *row_ts.get_or_insert(column.ts) == column.ts;
            if self.qualifier_widths.len() <= column.family {
                self.qualifier_widths.resize(column.family + 1, None);
            }
            let width = &mut self.qualifier_widths[column.family];
            self.one_qualifier_width &= same_width(width, column.qualifier.len());
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
        self.one_key_width &= same_width(&mut self.key_width, key.len());
        self.one_timestamp_per_row &= row_ts.is_some();
        self.one_column_rows &= self.columns - first == 1;
    }

    /// An empty segment encoded as planned, every array allocated once at
    /// the size it is about to be filled to.
    fn segment(&self) -> Segment {
        let (names, qualifier_bytes) = match &self.names {
            Some(names) => {
                let bytes = names.iter().map(|(_, qualifier)| 1 + qualifier.len()).sum();
                let mut dictionary = Dictionary {
                    bytes: Vec::with_capacity(bytes),
                    ends: Vec::with_capacity(names.len()),
                };
                for &(family, qualifier) in names {
                    let family = u8::try_from(family).expect("a table has ≤ 256 families");
                    dictionary.bytes.push(family);
                    dictionary.bytes.extend_from_slice(qualifier);
                    dictionary.ends.push(offset(dictionary.bytes.len()));
                }
                (Names::Dictionary(dictionary), 0)
            }
            None if self.one_qualifier_width => {
                let widths = self.qualifier_widths.iter();
                let widths = widths.map(|width| offset(width.unwrap_or(0)));
                (Names::Widths(widths.collect()), self.qualifier_bytes)
            }
            None => (
                Names::Ends(Vec::with_capacity(self.columns)),
                self.qualifier_bytes,
            ),
        };
        let key_ends = match self.key_width {
            Some(width) if self.one_key_width => KeyEnds::Width(width),
            _ => KeyEnds::Ends(Vec::with_capacity(self.rows)),
        };
        let per_row = self.one_timestamp_per_row;
        let count = if per_row { self.rows } else { self.columns };
        let span = self.most.saturating_sub(self.least);
        let deltas = if span <= u64::from(u16::MAX) {
            Deltas::U16(Vec::with_capacity(count))
        } else if span <= u64::from(u32::MAX) {
            Deltas::U32(Vec::with_capacity(count))
        } else {
            Deltas::U64(Vec::with_capacity(count))
        };
        let column_ends = if self.one_column_rows { 0 } else { self.rows };
        Segment {
            rows: 0,
            keys: Vec::with_capacity(self.key_bytes),
            key_ends,
            column_ends: Vec::with_capacity(column_ends),
            names,
            codes: Vec::with_capacity(self.columns),
            bytes: Vec::with_capacity(self.value_bytes + qualifier_bytes),
            value_ends: Vec::with_capacity(self.columns),
            timestamps: Timestamps {
                least: self.least.min(self.most),
                per_row,
                deltas,
            },
            tombstones: Vec::new(),
            moved: Vec::new(),
        }
    }
}

impl Segment {
    /// Number of rows, moved ones included.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    pub(crate) fn key(&self, row: usize) -> &[u8] {
        match &self.key_ends {
            KeyEnds::Width(width) => &self.keys[row * width..(row + 1) * width],
            KeyEnds::Ends(ends) => &self.keys[span(ends, row..row + 1)],
        }
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
        let start = || span(&self.value_ends, column..column + 1).start;
        match &self.names {
            Names::Dictionary(names) => names.get(code),
            Names::Widths(widths) => {
                let start = start();
                (code, &self.bytes[start..start + widths[code] as usize])
            }
            Names::Ends(ends) => (code, &self.bytes[start()..ends[column] as usize]),
        }
    }

    /// Column `column` of row `row`.
    pub(crate) fn stored(&self, row: usize, column: usize) -> Stored<'_> {
        let (family, qualifier) = self.name(column);
        let Range { mut start, end } = span(&self.value_ends, column..column + 1);
        if !matches!(self.names, Names::Dictionary(_)) {
            start += qualifier.len();
        }
        let tombstone = bit(&self.tombstones, column);
        Stored {
            family,
            qualifier,
            ts: self.timestamps.get(row, column),
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
            Names::Dictionary(names) => {
                names.lower_bound(family, &[])..names.lower_bound(family + 1, &[])
            }
            _ => family..family + 1,
        };
        self.first_code(columns.clone(), codes.start)..self.first_code(columns, codes.end)
    }

    /// The column `family:qualifier` of `row`.
    pub(crate) fn find_column(&self, row: usize, family: usize, qualifier: &[u8]) -> Option<usize> {
        let columns = self.family(self.columns(row), family);
        let at = match &self.names {
            Names::Dictionary(names) => {
                self.first_code(columns.clone(), names.lower_bound(family, qualifier))
            }
            _ => partition_point(columns.clone(), |c| self.name(c).1 < qualifier),
        };
        (at < columns.end && self.name(at).1 == qualifier).then_some(at)
    }

    /// Thaws `row`: the columns `thaw` keeps as memstore columns, in a
    /// vector with room for the others and `more`, their bytes copied
    /// into handles. Marks the row moved (see the module docs).
    pub(crate) fn take_row(
        &mut self,
        row: usize,
        more: usize,
        mut thaw: impl FnMut(Stored<'_>) -> bool,
    ) -> Vec<Column> {
        let columns = self.columns(row);
        let mut taken = Vec::with_capacity(columns.len() + more);
        for column in columns {
            let stored = self.stored(row, column);
            if thaw(stored) {
                taken.push(Column {
                    family: stored.family,
                    qualifier: Bytes::copy_from_slice(stored.qualifier),
                    ts: stored.ts,
                    value: stored.value.map(Bytes::copy_from_slice),
                });
            }
        }
        set_bit(&mut self.moved, row, self.rows);
        taken
    }

    /// The encodings the segment chose, or their fallbacks, by name.
    #[cfg(test)]
    pub(crate) fn encodings(&self) -> String {
        let names = [
            match self.names {
                Names::Dictionary(_) => "dictionary",
                Names::Widths(_) => "qualifier widths",
                Names::Ends(_) => "qualifier ends",
            },
            match self.timestamps.deltas {
                Deltas::U16(_) => "u16 deltas",
                Deltas::U32(_) => "u32 deltas",
                Deltas::U64(_) => "u64 deltas",
            },
            match self.column_ends.is_empty() {
                true => "one column per row",
                false => "column ends",
            },
            match self.key_ends {
                KeyEnds::Width(_) => "key width",
                KeyEnds::Ends(_) => "key ends",
            },
            match self.timestamps.per_row {
                true => "row timestamps",
                false => "column timestamps",
            },
        ];
        names.join(", ")
    }

    /// Rows `rows` but the moved ones, as a flush or a split copies them.
    fn frozen(&self, rows: Range<usize>) -> impl Iterator<Item = (&[u8], Columns<'_>)> {
        rows.filter(|&row| !self.is_moved(row))
            .map(|row| (self.key(row), Columns::Frozen(self, row, self.columns(row))))
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
        let mut row_ts = None;
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
                    if let Names::Ends(ends) = &mut self.names {
                        ends.push(offset(self.bytes.len()));
                    }
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
            if !self.timestamps.per_row {
                self.timestamps.push(column.ts);
            }
            row_ts = Some(column.ts);
        }
        if let (true, Some(ts)) = (self.timestamps.per_row, row_ts) {
            self.timestamps.push(ts);
        }
        self.keys.extend_from_slice(key);
        if let KeyEnds::Ends(ends) = &mut self.key_ends {
            ends.push(offset(self.keys.len()));
        }
        self.rows += 1;
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
