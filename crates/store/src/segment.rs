//! A region's frozen rows: its segment, the bytes of every row a flush
//! froze, in key order (see [`crate::region`] for where it sits).
//!
//! A segment owns its bytes, as an HBase HFile block does: it holds the
//! key, column and value bytes themselves, not handles to them. All its
//! row keys sit in one byte arena, and every column's value in a second
//! arena with an end per column. A row's columns are sorted by `(family,
//! qualifier)`, and each column has a `u8` name code and one tombstone
//! bit.
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
//!   qualifier is a base row key), else with an end of its own.
//! - **One row shape**, when every row holds the same names in the same
//!   order (a base table's rows do): their `n` codes are kept once, and
//!   column `i` of row `r` is column `r * n + i`. Else every column keeps
//!   its code and every row the end of its columns, or no end when every
//!   row holds exactly one column (an index row): row `r` is column `r`.
//! - **A common key prefix**: the bytes every row key starts with, which
//!   for sorted keys are what the first and the last share, are kept
//!   once, and the key arena holds each key's suffix past them.
//! - **Fixed-width keys**, when every row key has one width: row `r`'s
//!   suffix is then the `r`th run of that many bytes, else it ends at an
//!   end of its own.
//! - **One timestamp per row**, when every row's columns share one (a
//!   row is written whole); else one per column.
//! - **Timestamps as `u16`, `u32` or `u64` deltas** from the segment's
//!   least, the narrowest their span fits.
//! - **Ends in blocks**: an array of ends (the value ends, and the key,
//!   qualifier and column ends where they are kept) holds a `u32` base
//!   per block of 256 entries and a `u16` offset per entry when every
//!   block spans less than 64 KiB, else a `u32` per entry (as for large
//!   BFHM blobs).
//!
//! So a frozen base-table column costs 2 bytes and a bit beside its value
//! (its value end) and its row 2 beside its key's suffix (a `u16`
//! timestamp); an index row of one column costs 5 bytes and a bit beside
//! its key's suffix, qualifier and value (its value end, code and
//! timestamp). Each block of 256 ends adds a 4-byte base. A frozen cell
//! needs no allocation of its own.
//!
//! A flush or a split builds a segment in two passes over the rows it
//! copies: one counts their bytes, names, widths, timestamps, columns per
//! row, block spans and first and last keys, which sizes every array and
//! picks the encodings, and one copies every byte once into arrays
//! allocated once each. The writers' handles are freed with the memstore.
//!
//! A row lives in exactly one half. The first write to a frozen row
//! thaws it: it is copied into a new memstore row, its qualifiers and
//! values made handles again, and the segment marks the row moved in a
//! bitmap, the segment's only change after a freeze. The moved row's
//! bytes stay in the arenas, dead, until the next flush leaves them out.

use std::cmp::Ordering;
use std::ops::Range;

use bytes::Bytes;

use crate::memstore::{Column, Memstore, RowData};
use crate::region::Stored;

/// The most names a dictionary holds: a column's code is a `u8`.
const MAX_NAMES: usize = 256;

/// Entries per block of [`Ends::Blocks`], each block with a base of its
/// own.
const BLOCK: usize = 256;

/// A region's frozen rows, in key order (see the module docs). Column
/// `c` of row `r` is its code, `value_ends` entry `c` (and its
/// qualifier's end or width without a dictionary), tombstone bit `c` and
/// a timestamp of its own or of its row.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Number of rows, moved ones included.
    rows: usize,
    /// The bytes every row key starts with.
    prefix: Vec<u8>,
    /// Every row key's suffix past `prefix`, back to back.
    keys: Vec<u8>,
    key_ends: KeyEnds,
    layout: Layout,
    names: Names,
    /// Every column's value, back to back, each after its qualifier when
    /// there is no dictionary.
    bytes: Vec<u8>,
    /// Column `c`'s value end in `bytes`; the column starts where column
    /// `c - 1`'s value ends.
    value_ends: Ends,
    timestamps: Timestamps,
    /// Bit `c` marks column `c` a tombstone. Empty until the first.
    tombstones: Vec<u64>,
    /// Bit `r` marks row `r` moved into the memstore since the freeze.
    /// Empty until the first move.
    moved: Vec<u64>,
}

/// A row key as a segment holds it: the prefix its segment's keys share,
/// then its own suffix. A key held whole has an empty prefix.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Key<'a> {
    pub(crate) prefix: &'a [u8],
    pub(crate) suffix: &'a [u8],
}

impl<'a> Key<'a> {
    pub(crate) fn whole(key: &'a [u8]) -> Self {
        Key {
            prefix: &[],
            suffix: key,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.prefix.len() + self.suffix.len()
    }

    /// How the key orders against `other`, split at the prefix's length:
    /// mostly `other` starts with the prefix, and the suffixes decide.
    pub(crate) fn cmp_bytes(&self, other: &[u8]) -> Ordering {
        match other.split_at_checked(self.prefix.len()) {
            Some((head, tail)) if head == self.prefix => self.suffix.cmp(tail),
            _ => {
                let head = &other[..self.prefix.len().min(other.len())];
                self.prefix.cmp(head)
            }
        }
    }

    fn bytes(self) -> impl Iterator<Item = &'a u8> {
        self.prefix.iter().chain(self.suffix)
    }

    /// Appends the key's bytes past its first `skip` to `out`.
    pub(crate) fn write_from(&self, skip: usize, out: &mut Vec<u8>) {
        let (prefix, suffix) = match skip.checked_sub(self.prefix.len()) {
            None => (&self.prefix[skip..], self.suffix),
            Some(past) => (&[][..], &self.suffix[past..]),
        };
        out.extend_from_slice(prefix);
        out.extend_from_slice(suffix);
    }

    pub(crate) fn to_vec(self) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.len());
        self.write_from(0, &mut key);
        key
    }
}

/// Where each entry of an array ends; an entry starts where the one
/// before it ends (see [`Ends::span`]).
#[derive(Debug)]
enum Ends {
    /// Entry `i` ends at `bases[i / BLOCK] + offsets[i]`, a block's base
    /// being where the entry before the block ends.
    Blocks { bases: Vec<u32>, offsets: Vec<u16> },
    /// Entry `i` ends at `ends[i]`.
    Wide(Vec<u32>),
}

impl Default for Ends {
    fn default() -> Self {
        Ends::Wide(Vec::new())
    }
}

impl Ends {
    /// Room for the ends `spans` counted, in blocks where they fit.
    fn planned(spans: &Spans) -> Ends {
        let entries = spans.count;
        if spans.wide {
            return Ends::Wide(Vec::with_capacity(entries));
        }
        Ends::Blocks {
            bases: Vec::with_capacity(entries.div_ceil(BLOCK)),
            offsets: Vec::with_capacity(entries),
        }
    }

    fn len(&self) -> usize {
        match self {
            Ends::Blocks { offsets, .. } => offsets.len(),
            Ends::Wide(ends) => ends.len(),
        }
    }

    /// Where entry `i` ends.
    fn get(&self, i: usize) -> usize {
        match self {
            Ends::Blocks { bases, offsets } => bases[i / BLOCK] as usize + usize::from(offsets[i]),
            Ends::Wide(ends) => ends[i] as usize,
        }
    }

    /// Entry `i`: from where entry `i - 1` ends to where it ends. Inside
    /// a block, both ends are offsets from its one base.
    fn span(&self, i: usize) -> Range<usize> {
        match self {
            Ends::Blocks { bases, offsets } => {
                let base = bases[i / BLOCK] as usize;
                let start = match i % BLOCK {
                    0 => base,
                    _ => base + usize::from(offsets[i - 1]),
                };
                start..base + usize::from(offsets[i])
            }
            Ends::Wide(ends) => {
                let start = i.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
                start..ends[i] as usize
            }
        }
    }

    /// Appends the next entry's end, as planned.
    fn push(&mut self, end: usize) {
        let at = self.len();
        let start = at.checked_sub(1).map_or(0, |prev| self.get(prev));
        match self {
            Ends::Blocks { bases, offsets } => {
                if at.is_multiple_of(BLOCK) {
                    bases.push(offset(start));
                }
                let delta = end - bases[at / BLOCK] as usize;
                offsets.push(u16::try_from(delta).expect("a planned block spans < 64 KiB"));
            }
            Ends::Wide(ends) => ends.push(offset(end)),
        }
    }
}

/// An array of ends as a plan counts it: how many, and whether a block
/// of [`BLOCK`] spans 64 KiB or more from where the entry before it
/// ends, so that [`Ends::Blocks`] cannot hold them.
#[derive(Debug, Default)]
struct Spans {
    count: usize,
    last: usize,
    base: usize,
    wide: bool,
}

impl Spans {
    fn push(&mut self, end: usize) {
        if self.count.is_multiple_of(BLOCK) {
            self.base = self.last;
        }
        self.wide |= end - self.base > usize::from(u16::MAX);
        self.last = end;
        self.count += 1;
    }
}

/// Where each row's key suffix ends in `keys`.
#[derive(Debug)]
enum KeyEnds {
    /// Every suffix is this many bytes long.
    Width(usize),
    /// Row `r`'s suffix is entry `r`.
    Ends(Ends),
}

impl Default for KeyEnds {
    fn default() -> Self {
        KeyEnds::Width(0)
    }
}

/// Which columns each row holds, and their codes.
#[derive(Debug)]
enum Layout {
    /// Every row holds one column of each of these `n` codes, in order:
    /// column `i` of row `r` is column `r * n + i`.
    Shape(Vec<u8>),
    /// Column `c`'s code is `codes[c]`. Row `r`'s columns are entry `r`
    /// of `ends`, or column `r` alone without them.
    Codes { codes: Vec<u8>, ends: Option<Ends> },
}

impl Default for Layout {
    fn default() -> Self {
        Layout::Shape(Vec::new())
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
    /// arena at entry `c`, where its value starts.
    Ends(Ends),
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
    /// Name `n` is entry `n`.
    ends: Ends,
}

impl Dictionary {
    fn get(&self, code: usize) -> (usize, &[u8]) {
        let name = &self.bytes[self.ends.span(code)];
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

/// Whether two names are one: a row mostly names its columns as the rows
/// before it did, with the same qualifier handle, so by address first and
/// then by bytes.
fn same_name(a: (usize, &[u8]), b: (usize, &[u8])) -> bool {
    a.0 == b.0 && (std::ptr::eq(a.1, b.1) || a.1 == b.1)
}

/// Where `name` sits among sorted `names` (`Ok`), or would be inserted
/// (`Err`). `next`, the name after the row's previous column's, is tried
/// first.
fn find_name(names: &[(usize, &[u8])], next: usize, name: (usize, &[u8])) -> Result<usize, usize> {
    match names.get(next) {
        Some(&next_name) if same_name(next_name, name) => Ok(next),
        _ => names.binary_search(&name),
    }
}

/// The end offset a segment array records, which must fit its `u32`.
fn offset(end: usize) -> u32 {
    u32::try_from(end).expect("a segment holds fewer than 2^32 bytes and columns")
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
    /// The first key; its common prefix with `last` is every key's.
    first: Option<Key<'a>>,
    last: Key<'a>,
    key_bytes: usize,
    /// The width of every key so far, while they share one.
    key_width: Option<usize>,
    one_key_width: bool,
    /// Whole keys' ends: a suffix's block spans no more than its keys'.
    key_spans: Spans,
    columns: usize,
    /// The first row's names, in order.
    shape: Vec<(usize, &'a [u8])>,
    one_shape: bool,
    column_spans: Spans,
    qualifier_bytes: usize,
    /// Family `f`'s qualifier width, while its qualifiers share one.
    qualifier_widths: Vec<Option<usize>>,
    one_qualifier_width: bool,
    value_bytes: usize,
    /// Value ends with a dictionary; value and qualifier ends in an arena
    /// of qualifiers and values without one.
    value_spans: Spans,
    arena_spans: Spans,
    qualifier_spans: Spans,
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
            one_shape: true,
            one_qualifier_width: true,
            one_timestamp_per_row: true,
            one_column_rows: true,
            ..Plan::default()
        }
    }

    fn count(&mut self, key: Key<'a>, columns: Columns<'a>) {
        let first = self.columns;
        let mut row_ts = None;
        let mut next = 0;
        for column in columns {
            let name = (column.family, column.qualifier);
            if self.rows == 0 {
                self.shape.push(name);
            } else if self.one_shape {
                let shaped = self.shape.get(self.columns - first);
                self.one_shape &= shaped.is_some_and(|&shaped| same_name(shaped, name));
            }
            self.columns += 1;
            self.qualifier_bytes += column.qualifier.len();
            self.qualifier_spans
                .push(self.qualifier_bytes + self.value_bytes);
            self.value_bytes += column.value.map_or(0, <[u8]>::len);
            self.arena_spans
                .push(self.qualifier_bytes + self.value_bytes);
            self.value_spans.push(self.value_bytes);
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
        self.one_shape &= self.columns - first == self.shape.len();
        self.column_spans.push(self.columns);
        self.rows += 1;
        self.key_bytes += key.len();
        self.key_spans.push(self.key_bytes);
        self.one_key_width &= same_width(&mut self.key_width, key.len());
        self.first.get_or_insert(key);
        self.last = key;
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
                    ends: Ends::Wide(Vec::with_capacity(names.len())),
                };
                for &(family, qualifier) in names {
                    let family = u8::try_from(family).expect("a table has ≤ 256 families");
                    dictionary.bytes.push(family);
                    dictionary.bytes.extend_from_slice(qualifier);
                    dictionary.ends.push(dictionary.bytes.len());
                }
                (Names::Dictionary(dictionary), 0)
            }
            None if self.one_qualifier_width => {
                let widths = self.qualifier_widths.iter();
                let widths = widths.map(|width| offset(width.unwrap_or(0)));
                (Names::Widths(widths.collect()), self.qualifier_bytes)
            }
            None => (
                Names::Ends(Ends::planned(&self.qualifier_spans)),
                self.qualifier_bytes,
            ),
        };
        let value_spans = match &self.names {
            Some(_) => &self.value_spans,
            None => &self.arena_spans,
        };
        let layout = match &self.names {
            Some(names) if self.one_shape => {
                let codes = self.shape.iter().map(|&name| {
                    let (Ok(code) | Err(code)) = find_name(names, 0, name);
                    u8::try_from(code).expect("a code fits a byte")
                });
                Layout::Shape(codes.collect())
            }
            _ => Layout::Codes {
                codes: Vec::with_capacity(self.columns),
                ends: (!self.one_column_rows).then(|| Ends::planned(&self.column_spans)),
            },
        };
        let (first, last) = (self.first.unwrap_or_default(), self.last);
        let shared = first.bytes().zip(last.bytes()).take_while(|(a, b)| a == b);
        let prefix: Vec<u8> = first.bytes().take(shared.count()).copied().collect();
        let key_ends = match self.key_width {
            Some(width) if self.one_key_width => KeyEnds::Width(width - prefix.len()),
            _ => KeyEnds::Ends(Ends::planned(&self.key_spans)),
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
        Segment {
            rows: 0,
            keys: Vec::with_capacity(self.key_bytes - self.rows * prefix.len()),
            prefix,
            key_ends,
            layout,
            names,
            bytes: Vec::with_capacity(self.value_bytes + qualifier_bytes),
            value_ends: Ends::planned(value_spans),
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

    fn suffix(&self, row: usize) -> &[u8] {
        match &self.key_ends {
            KeyEnds::Width(width) => &self.keys[row * width..(row + 1) * width],
            KeyEnds::Ends(ends) => &self.keys[ends.span(row)],
        }
    }

    pub(crate) fn key(&self, row: usize) -> Key<'_> {
        Key {
            prefix: &self.prefix,
            suffix: self.suffix(row),
        }
    }

    pub(crate) fn columns(&self, row: usize) -> Range<usize> {
        match &self.layout {
            Layout::Shape(shape) => row * shape.len()..(row + 1) * shape.len(),
            Layout::Codes {
                ends: Some(ends), ..
            } => ends.span(row),
            Layout::Codes { ends: None, .. } => row..row + 1,
        }
    }

    /// Column `column`'s code; it is one of row `row`'s.
    fn code(&self, row: usize, column: usize) -> usize {
        usize::from(match &self.layout {
            Layout::Shape(shape) => shape[column - row * shape.len()],
            Layout::Codes { codes, .. } => codes[column],
        })
    }

    /// The first row whose key is `key` or greater. `key` is split at the
    /// prefix's length, so the search compares suffixes alone.
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        let (head, tail) = key.split_at(self.prefix.len().min(key.len()));
        match head.cmp(&self.prefix) {
            Ordering::Less => 0,
            Ordering::Greater => self.len(),
            Ordering::Equal => partition_point(0..self.len(), |row| self.suffix(row) < tail),
        }
    }

    pub(crate) fn is_moved(&self, row: usize) -> bool {
        bit(&self.moved, row)
    }

    /// The row `key`, unless it is absent or moved.
    pub(crate) fn find_row(&self, key: &[u8]) -> Option<usize> {
        let row = self.lower_bound(key);
        let found = row < self.len() && self.key(row).cmp_bytes(key).is_eq();
        (found && !self.is_moved(row)).then_some(row)
    }

    /// Column `column`'s family and qualifier; it is one of row `row`'s,
    /// and its bytes start at `start` in the arena.
    fn name(&self, row: usize, column: usize, start: usize) -> (usize, &[u8]) {
        let code = self.code(row, column);
        match &self.names {
            Names::Dictionary(names) => names.get(code),
            Names::Widths(widths) => (code, &self.bytes[start..start + widths[code] as usize]),
            Names::Ends(ends) => (code, &self.bytes[start..ends.get(column)]),
        }
    }

    fn qualifier(&self, row: usize, column: usize) -> &[u8] {
        self.name(row, column, self.value_ends.span(column).start).1
    }

    /// Column `column` of row `row`.
    pub(crate) fn stored(&self, row: usize, column: usize) -> Stored<'_> {
        let Range { mut start, end } = self.value_ends.span(column);
        let (family, qualifier) = self.name(row, column, start);
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

    /// The first of row `row`'s `columns` whose code is `code` or greater.
    fn first_code(&self, row: usize, columns: Range<usize>, code: usize) -> usize {
        partition_point(columns, |c| self.code(row, c) < code)
    }

    /// The columns of `family` among row `row`'s `columns`.
    pub(crate) fn family(&self, row: usize, columns: Range<usize>, family: usize) -> Range<usize> {
        // The family's codes: a run of the dictionary's, or the family.
        let codes = match &self.names {
            Names::Dictionary(names) => {
                names.lower_bound(family, &[])..names.lower_bound(family + 1, &[])
            }
            _ => family..family + 1,
        };
        let start = self.first_code(row, columns.clone(), codes.start);
        start..self.first_code(row, columns, codes.end)
    }

    /// The column `family:qualifier` of `row`.
    pub(crate) fn find_column(&self, row: usize, family: usize, qualifier: &[u8]) -> Option<usize> {
        let columns = self.family(row, self.columns(row), family);
        let at = match &self.names {
            Names::Dictionary(names) => {
                let code = names.lower_bound(family, qualifier);
                self.first_code(row, columns.clone(), code)
            }
            _ => partition_point(columns.clone(), |c| self.qualifier(row, c) < qualifier),
        };
        (at < columns.end && self.qualifier(row, at) == qualifier).then_some(at)
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
            match self.layout {
                Layout::Shape(_) => "row shape",
                Layout::Codes { ends: None, .. } => "one column per row",
                Layout::Codes { ends: Some(_), .. } => "column ends",
            },
            match self.key_ends {
                KeyEnds::Width(_) => "key width",
                KeyEnds::Ends(_) => "key ends",
            },
            match self.timestamps.per_row {
                true => "row timestamps",
                false => "column timestamps",
            },
            match self.value_ends {
                Ends::Blocks { .. } => "u16 value ends",
                Ends::Wide(_) => "u32 value ends",
            },
        ];
        format!("{}, {}-byte prefix", names.join(", "), self.prefix.len())
    }

    /// Rows `rows` but the moved ones, as a flush or a split copies them.
    fn frozen(&self, rows: Range<usize>) -> impl Iterator<Item = (Key<'_>, Columns<'_>)> {
        rows.filter(|&row| !self.is_moved(row))
            .map(|row| (self.key(row), Columns::Frozen(self, row, self.columns(row))))
    }

    /// A segment of the rows `rows()` yields, in key order: one pass
    /// counts them and one copies them in (see the module docs).
    fn build<'a, I>(rows: impl Fn() -> I) -> Segment
    where
        I: Iterator<Item = (Key<'a>, Columns<'a>)>,
    {
        let mut plan = Plan::new();
        rows().for_each(|(key, columns)| plan.count(key, columns));
        let mut segment = plan.segment();
        rows().for_each(|(key, columns)| segment.push_row(key, columns, &plan));
        segment
    }

    /// Appends row `key` with its sorted `columns`, copying their bytes
    /// as `plan` planned the segment to hold them.
    fn push_row(&mut self, key: Key<'_>, columns: Columns<'_>, plan: &Plan<'_>) {
        let mut next = 0;
        let mut row_ts = None;
        for column in columns {
            if plan.names.is_none() {
                self.bytes.extend_from_slice(column.qualifier);
                if let Names::Ends(ends) = &mut self.names {
                    ends.push(self.bytes.len());
                }
            }
            if let Layout::Codes { codes, .. } = &mut self.layout {
                let code = match &plan.names {
                    Some(names) => {
                        let name = (column.family, column.qualifier);
                        let (Ok(code) | Err(code)) = find_name(names, next, name);
                        next = code + 1;
                        code
                    }
                    None => column.family,
                };
                codes.push(u8::try_from(code).expect("a code or a family fits a byte"));
            }
            match column.value {
                Some(value) => self.bytes.extend_from_slice(value),
                // Sized at once for the columns the segment has room for.
                None => set_bit(&mut self.tombstones, self.value_ends.len(), plan.columns),
            }
            self.value_ends.push(self.bytes.len());
            if !self.timestamps.per_row {
                self.timestamps.push(column.ts);
            }
            row_ts = Some(column.ts);
        }
        if let (true, Some(ts)) = (self.timestamps.per_row, row_ts) {
            self.timestamps.push(ts);
        }
        key.write_from(self.prefix.len(), &mut self.keys);
        if let KeyEnds::Ends(ends) = &mut self.key_ends {
            ends.push(self.keys.len());
        }
        self.rows += 1;
        if let Layout::Codes {
            ends: Some(ends), ..
        } = &mut self.layout
        {
            ends.push(self.value_ends.len());
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
                    (Some((key, _)), Some((frozen, _))) => frozen.cmp_bytes(key).is_gt(),
                    (thawed, _) => thawed.is_some(),
                };
                if !from_memstore {
                    return frozen.next();
                }
                let (key, row) = thawed.next()?;
                Some((Key::whole(key), Columns::Thawed(row.columns.iter())))
            })
        })
    }

    /// A copy of rows `rows`, without the moved ones.
    pub(crate) fn slice(&self, rows: Range<usize>) -> Segment {
        Segment::build(|| self.frozen(rows.clone()))
    }
}
