//! Regions: contiguous row-key ranges of a table, each hosted on one node.
//!
//! # Row layout: a memstore over one frozen segment
//!
//! A region stores its rows the way an HBase region server does. Writes
//! land in a **memstore**, a map from row key to the row's columns: a
//! sorted vector while it is small, a `BTreeMap` once a bulk write
//! outgrows that (`memstore.rs`). A **flush** freezes the memstore
//! into the region's **segment**, HBase's immutable sorted store file,
//! which a memstore flush or a MapReduce bulk load (`HFileOutputFormat`)
//! writes. A region holds at most one segment: a flush merges the
//! memstore into the one already there. Flushes happen when data
//! finishes arriving in bulk ([`crate::table::Table::flush`]): the TPC-H
//! loader flushes its tables once loaded, and a MapReduce job the table
//! it wrote. Maintained writes after that stay in the memstore. A flush
//! bills nothing, and every write still goes through `mutate_row`.
//!
//! A memstore row is one vector of `(family index, qualifier, version)`
//! columns sorted by `(family, qualifier)`, the order a read returns cells
//! in, allocated once for the `mutate_row` call that created it. A segment
//! is flat. All its row keys sit in one byte arena with one `u32` end per
//! row, and its columns are parallel arrays (family index as a `u8`,
//! qualifier, value or tombstone, timestamp) with one `u32` column end per
//! row. A flush counts rows, key bytes and columns before it places them
//! (the memstore holds key lengths and column counts inline, so the count
//! reads no row), then moves every handle in one pass and copies only key
//! bytes: each array is one allocation. At TPC-H SF 0.01 with Q1's and
//! Q2's ISL indices built, the store held 58.48 MB of heap for 20.71 MB
//! stored ([`Region::byte_size`]) as B-tree rows (2.82×), and holds about
//! 39 MB (1.88×) as segments.
//!
//! Both halves keep the qualifier and value handles of the mutations that
//! wrote them, not copies, and a column's family as an index into the
//! table's names. So a write allocates only a new memstore row's key and
//! column vector, or the growth of a widened row or of the tombstone queue;
//! the bytes behind a handle the writer shared across rows or tables (the
//! loader's column names and join keys, a §6 insert's row-key qualifier
//! and value-score payload) are held once for all of them. A read lends
//! those handles. A segment that inlined its bytes and lent zero-copy
//! slices of them would need a 24-byte handle (offset and length beside
//! the pointer), where a [`Bytes`] is 16: measured, that alone raised
//! every workload's peak heap by 8–14 % and `update_stream`'s allocated
//! bytes per op by 15 %. Billing and [`Region::byte_size`] count every
//! column's bytes as its own, however they are held.
//!
//! A row lives in exactly one half. The first write to a frozen row
//! copies it: its handles move into a new memstore row and the segment
//! marks the row moved in a bitmap, the segment's only change after a
//! freeze (the next flush leaves it out; until then the row's key bytes
//! stay in the arena and its emptied slots hold no heap). So a read
//! consults one half, a write is stale against the memstore row alone,
//! and a region reads, bills and counts the same whether and when it was
//! flushed. A frozen row that keeps taking writes, such as a BFHM bucket
//! row taking update records, is one memstore row from then on, as it was
//! before segments.
//!
//! # Retention
//!
//! A region keeps only what a read can still observe. No API reads at a
//! timestamp, so a column holds its **newest** version alone — the put or
//! tombstone with the highest timestamp, a tombstone shadowing a put of
//! the same timestamp. A write older than the stored version is dropped
//! on arrival; whichever order two writes to a column arrive in, the
//! column ends in the same state, which is what lets §6 pin one timestamp
//! on a base write and its index writes and call the result convergent.
//!
//! A column whose newest version is a tombstone is stored — and, like any
//! stored column, touched and billed by a read that walks over it — until
//! the cluster clock has moved more than [`TOMBSTONE_GRACE_TICKS`] past the
//! tombstone's timestamp. It is then physically removed, and its row with
//! it once empty: no longer counted, read or scanned. The window is
//! safety, not tuning: a concurrent
//! `MaintainedSide::delete` may land its index tombstone *before* the
//! index put of the racing, older `insert`, and the outcome is only
//! correct because the tombstone still masks the late put. Inside the
//! window that holds exactly as it did when every version was kept. A put
//! delayed past the window finds no tombstone and becomes visible again —
//! HBase's behaviour after a major compaction has dropped the delete
//! marker (`hbase.hstore.time.to.purge.deletes` is the analogous knob).
//!
//! Expired tombstones are found through a per-region queue ordered by
//! tombstone timestamp and drained by the next `mutate_row` on the region,
//! which already holds the region's write lock and already receives "now":
//! work proportional to the garbage, no region walk, no background thread.
//! A region nobody writes to keeps its last tombstones until it is.
//!
//! A purge removes a tombstone from the memstore. One that a flush froze
//! inside its window is purged like a write: its row is copied out first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::cell::{Cell, Mutation};
use crate::filter::ServerFilter;
use crate::memstore::{self, Memstore};
use crate::row::{RowBatch, RowResult};

/// Cluster-clock ticks a tombstone outlives its own timestamp before the
/// region drops it (see the module docs). Every `mutate_row` and every
/// `Cluster::next_ts` is one tick, so a maintained insert or delete with
/// three indices attached is about six.
pub const TOMBSTONE_GRACE_TICKS: u64 = 1024;

/// One stored column as a read sees it, from the memstore or the segment.
#[derive(Clone, Copy, Debug)]
struct Stored<'a> {
    /// Index into the table's family list.
    family: usize,
    qualifier: &'a Bytes,
    ts: u64,
    /// The value of a put; `None` for a tombstone.
    value: Option<&'a Bytes>,
}

impl Stored<'_> {
    /// Newer wins; at equal timestamps tombstones shadow puts.
    fn order_key(&self) -> (u64, bool) {
        (self.ts, self.value.is_none())
    }

    /// Stored bytes: [`Cell::weight`] for a put, the same without a value
    /// for a tombstone (what [`Mutation::weight`] charged for the write
    /// that stored it).
    fn weight(&self, row_key: &[u8], family_names: &[Arc<str>]) -> u64 {
        let value = self.value.map_or(0, |v| v.len());
        (row_key.len() + family_names[self.family].len() + self.qualifier.len() + 8 + value) as u64
    }
}

/// One memstore column: its newest version.
#[derive(Clone, Debug)]
struct Column {
    /// Index into the table's family list.
    family: usize,
    qualifier: Bytes,
    ts: u64,
    /// The value of a put; `None` for a tombstone.
    value: Option<Bytes>,
}

impl Column {
    fn stored(&self) -> Stored<'_> {
        Stored {
            family: self.family,
            qualifier: &self.qualifier,
            ts: self.ts,
            value: self.value.as_ref(),
        }
    }
}

/// The columns of one family in a row's sorted columns.
fn family_columns(columns: &[Column], family: usize) -> &[Column] {
    let start = columns.partition_point(|c| c.family < family);
    let len = columns[start..].partition_point(|c| c.family == family);
    &columns[start..start + len]
}

/// A memstore row: its columns, sorted by `(family, qualifier)` (see the
/// module docs).
#[derive(Clone, Debug)]
pub(crate) struct RowData {
    columns: Vec<Column>,
}

impl RowData {
    /// Where `family:qualifier` is stored (`Ok`), or where it would be
    /// inserted (`Err`).
    fn find(&self, family: usize, qualifier: &[u8]) -> std::result::Result<usize, usize> {
        self.columns
            .binary_search_by(|c| (c.family, &c.qualifier[..]).cmp(&(family, qualifier)))
    }
}

/// A region's frozen rows, in key order (see the module docs). Column `c`
/// is `families[c]`, `qualifiers[c]`, `values[c]` and `timestamps[c]`.
#[derive(Debug, Default)]
struct Segment {
    /// Every row's key, back to back.
    keys: Vec<u8>,
    /// Row `r`'s key ends at `key_ends[r]` and starts where row `r - 1`'s
    /// ends.
    key_ends: Vec<u32>,
    /// Row `r`'s columns end at `column_ends[r]`, sorted by `(family,
    /// qualifier)`.
    column_ends: Vec<u32>,
    families: Vec<u8>,
    qualifiers: Vec<Bytes>,
    /// `None` is a tombstone.
    values: Vec<Option<Bytes>>,
    timestamps: Vec<u64>,
    /// Bit `r` marks row `r` moved into the memstore since the freeze.
    /// Empty until the first move.
    moved: Vec<u64>,
}

/// The end offset a segment array records, which must fit its `u32`.
fn offset(end: usize) -> u32 {
    u32::try_from(end).expect("a segment holds fewer than 2^32 key bytes and columns")
}

/// The entries `[start, end)` of an array of ends: where entry `i` starts
/// is where entry `i - 1` ends.
fn span(ends: &[u32], entries: Range<usize>) -> Range<usize> {
    let start = |i: usize| i.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
    start(entries.start)..start(entries.end)
}

impl Segment {
    /// Number of rows, moved ones included.
    fn len(&self) -> usize {
        self.key_ends.len()
    }

    fn key(&self, row: usize) -> &[u8] {
        &self.keys[span(&self.key_ends, row..row + 1)]
    }

    fn columns(&self, row: usize) -> Range<usize> {
        span(&self.column_ends, row..row + 1)
    }

    /// The first row whose key is `key` or greater.
    fn lower_bound(&self, key: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn is_moved(&self, row: usize) -> bool {
        let word = self.moved.get(row / 64).copied().unwrap_or(0);
        word >> (row % 64) & 1 == 1
    }

    /// The row `key`, unless it is absent or moved.
    fn find_row(&self, key: &[u8]) -> Option<usize> {
        let row = self.lower_bound(key);
        (row < self.len() && self.key(row) == key && !self.is_moved(row)).then_some(row)
    }

    fn stored(&self, column: usize) -> Stored<'_> {
        Stored {
            family: usize::from(self.families[column]),
            qualifier: &self.qualifiers[column],
            ts: self.timestamps[column],
            value: self.values[column].as_ref(),
        }
    }

    /// The columns of `family` among a row's `columns`.
    fn family(&self, columns: Range<usize>, family: usize) -> Range<usize> {
        let families = &self.families[columns.clone()];
        let start = families.partition_point(|&f| usize::from(f) < family);
        let len = families[start..].partition_point(|&f| usize::from(f) == family);
        columns.start + start..columns.start + start + len
    }

    /// The column `family:qualifier` of `row`.
    fn find_column(&self, row: usize, family: usize, qualifier: &[u8]) -> Option<usize> {
        let columns = self.family(self.columns(row), family);
        let at = self.qualifiers[columns.clone()]
            .binary_search_by(|q| q[..].cmp(qualifier))
            .ok()?;
        Some(columns.start + at)
    }

    /// Moves `row`'s columns out, into a vector with room for `more`, and
    /// marks the row moved (see the module docs).
    fn take_row(&mut self, row: usize, more: usize) -> Vec<Column> {
        if self.moved.is_empty() {
            self.moved = vec![0; self.len().div_ceil(64)];
        }
        self.moved[row / 64] |= 1 << (row % 64);
        let columns = self.columns(row);
        let mut taken = Vec::with_capacity(columns.len() + more);
        for c in columns {
            taken.push(Column {
                family: usize::from(self.families[c]),
                qualifier: std::mem::take(&mut self.qualifiers[c]),
                ts: self.timestamps[c],
                value: self.values[c].take(),
            });
        }
        taken
    }

    /// An empty segment with room for what it is about to be given:
    /// every array is allocated once.
    fn with_capacity(rows: usize, key_bytes: usize, columns: usize) -> Segment {
        Segment {
            keys: Vec::with_capacity(key_bytes),
            key_ends: Vec::with_capacity(rows),
            column_ends: Vec::with_capacity(rows),
            families: Vec::with_capacity(columns),
            qualifiers: Vec::with_capacity(columns),
            values: Vec::with_capacity(columns),
            timestamps: Vec::with_capacity(columns),
            moved: Vec::new(),
        }
    }

    /// Appends row `key` with its sorted `columns`.
    fn push_row(&mut self, key: &[u8], columns: impl IntoIterator<Item = Column>) {
        for column in columns {
            let family = u8::try_from(column.family).expect("a table has ≤ 256 families");
            self.families.push(family);
            self.qualifiers.push(column.qualifier);
            self.values.push(column.value);
            self.timestamps.push(column.ts);
        }
        self.keys.extend_from_slice(key);
        self.key_ends.push(offset(self.keys.len()));
        self.column_ends.push(offset(self.qualifiers.len()));
    }

    /// Gives back the room left by moved rows.
    fn trimmed(mut self) -> Segment {
        if self.qualifiers.len() < self.qualifiers.capacity()
            || self.keys.len() < self.keys.capacity()
        {
            self.keys.shrink_to_fit();
            self.key_ends.shrink_to_fit();
            self.column_ends.shrink_to_fit();
            self.families.shrink_to_fit();
            self.qualifiers.shrink_to_fit();
            self.values.shrink_to_fit();
            self.timestamps.shrink_to_fit();
        }
        self
    }

    /// The flush: `memstore` frozen into this segment's rows, in one pass
    /// that moves every handle and copies only key bytes. The counts come
    /// from what the memstore holds inline (key lengths and column
    /// counts), so no row is visited twice. A memstore row replaces the
    /// segment row it was moved from.
    fn merged(mut self, memstore: Memstore<RowData>) -> Segment {
        let key_bytes: usize = memstore.iter().map(|(key, _)| key.len()).sum();
        let columns: usize = memstore.iter().map(|(_, row)| row.columns.len()).sum();
        let mut merged = Segment::with_capacity(
            self.len() + memstore.len(),
            self.keys.len() + key_bytes,
            self.qualifiers.len() + columns,
        );
        let mut drain = Drain::new(&mut self);
        let mut freeze = |merged: &mut Segment, rows: Range<usize>| {
            for row in rows {
                let columns = drain.take(self.columns(row).len());
                if self.is_moved(row) {
                    columns.for_each(drop);
                } else {
                    merged.push_row(self.key(row), columns);
                }
            }
        };
        let mut next = 0;
        for (key, row) in memstore {
            let end = self.lower_bound(&key).max(next);
            freeze(&mut merged, next..end);
            next = end;
            merged.push_row(&key, row.columns);
        }
        freeze(&mut merged, next..self.len());
        merged.trimmed()
    }

    /// A copy of rows `rows`, without the moved ones.
    fn slice(&self, rows: Range<usize>) -> Segment {
        let mut slice = Segment::with_capacity(
            rows.len(),
            span(&self.key_ends, rows.clone()).len(),
            span(&self.column_ends, rows.clone()).len(),
        );
        for row in rows.filter(|&row| !self.is_moved(row)) {
            let columns = self.columns(row).map(|c| {
                let stored = self.stored(c);
                Column {
                    family: stored.family,
                    qualifier: stored.qualifier.clone(),
                    ts: stored.ts,
                    value: stored.value.cloned(),
                }
            });
            slice.push_row(self.key(row), columns);
        }
        slice.trimmed()
    }
}

/// A segment's columns, moved out in order (the flush's source).
struct Drain {
    families: std::vec::IntoIter<u8>,
    qualifiers: std::vec::IntoIter<Bytes>,
    values: std::vec::IntoIter<Option<Bytes>>,
    timestamps: std::vec::IntoIter<u64>,
}

impl Drain {
    /// Takes `segment`'s columns, leaving its keys, ends and moved marks.
    fn new(segment: &mut Segment) -> Drain {
        Drain {
            families: std::mem::take(&mut segment.families).into_iter(),
            qualifiers: std::mem::take(&mut segment.qualifiers).into_iter(),
            values: std::mem::take(&mut segment.values).into_iter(),
            timestamps: std::mem::take(&mut segment.timestamps).into_iter(),
        }
    }

    /// The next `n` columns.
    fn take(&mut self, n: usize) -> impl Iterator<Item = Column> + '_ {
        (0..n).map_while(|_| {
            Some(Column {
                family: usize::from(self.families.next()?),
                qualifier: self.qualifiers.next()?,
                value: self.values.next()?,
                ts: self.timestamps.next()?,
            })
        })
    }
}

/// One stored row, held by one half.
#[derive(Clone, Debug)]
enum RowView<'a> {
    Memstore(&'a [Column]),
    /// The row's columns in the segment.
    Frozen(&'a Segment, Range<usize>),
}

impl<'a> RowView<'a> {
    /// Visits the stored columns a read of `families` touches (`None` =
    /// all), in `(family, qualifier)` order.
    fn for_each_selected(&self, families: Option<&[usize]>, mut visit: impl FnMut(Stored<'a>)) {
        match self {
            RowView::Memstore(columns) => {
                let Some(families) = families else {
                    return columns.iter().for_each(|c| visit(c.stored()));
                };
                for &family in families {
                    let columns = family_columns(columns, family);
                    columns.iter().for_each(|c| visit(c.stored()));
                }
            }
            RowView::Frozen(segment, columns) => {
                let Some(families) = families else {
                    return columns.clone().for_each(|c| visit(segment.stored(c)));
                };
                for &family in families {
                    let columns = segment.family(columns.clone(), family);
                    columns.for_each(|c| visit(segment.stored(c)));
                }
            }
        }
    }
}

/// A region's stored rows from some key on, in key order: memstore rows
/// merged with the segment rows not moved (no key is in both).
struct Rows<'a> {
    memstore: Peekable<memstore::Iter<'a, RowData>>,
    segment: &'a Segment,
    /// The next segment row.
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (&'a [u8], RowView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let segment = self.segment;
        while self.next < segment.len() && segment.is_moved(self.next) {
            self.next += 1;
        }
        let frozen = (self.next < segment.len()).then(|| segment.key(self.next));
        let from_memstore = match (self.memstore.peek(), frozen) {
            (Some((key, _)), Some(frozen)) => key[..] < *frozen,
            (memstore, _) => memstore.is_some(),
        };
        if from_memstore {
            let (key, row) = self.memstore.next()?;
            return Some((key, RowView::Memstore(&row.columns)));
        }
        let key = frozen?;
        let row = self.next;
        self.next += 1;
        Some((key, RowView::Frozen(segment, segment.columns(row))))
    }
}

/// A stored tombstone awaiting the end of its grace window. Ordered by
/// timestamp first, so the purge queue's head is the next to expire.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DeadColumn {
    ts: u64,
    row: Bytes,
    family: usize,
    qualifier: Bytes,
}

/// Byte/KV accounting for one region-server operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// KV pairs materialized at the server (dollar-cost units).
    pub kvs_scanned: u64,
    /// Bytes materialized at the server (disk volume).
    pub bytes_scanned: u64,
    /// KV pairs that passed filters and will be shipped.
    pub kvs_returned: u64,
    /// Bytes that passed filters and will be shipped.
    pub bytes_returned: u64,
}

/// One shard of a table: rows in `[start, end)` hosted on `node`.
#[derive(Debug)]
pub struct Region {
    /// First key served (inclusive); empty = table start.
    pub(crate) start: Vec<u8>,
    /// Hosting node index.
    pub(crate) node: usize,
    /// Rows written since the last flush, each holding a column. Row keys
    /// are refcounted so the purge queue names a row without copying its
    /// key.
    memstore: Memstore<RowData>,
    /// Rows frozen by the flushes so far.
    segment: Segment,
    /// Stored rows: memstore rows and segment rows not moved.
    row_count: usize,
    /// Live KV count (visible puts).
    kv_count: u64,
    /// Stored bytes: live cells plus retained tombstones.
    byte_size: u64,
    /// Stored tombstones, soonest to expire first. An entry whose column
    /// has since been overwritten is skipped when it surfaces.
    purge_queue: BinaryHeap<Reverse<DeadColumn>>,
}

impl Region {
    pub(crate) fn new(start: Vec<u8>, node: usize) -> Self {
        Region {
            start,
            node,
            memstore: Memstore::default(),
            segment: Segment::default(),
            row_count: 0,
            kv_count: 0,
            byte_size: 0,
            purge_queue: BinaryHeap::new(),
        }
    }

    /// Hosting node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Inclusive start key.
    pub fn start_key(&self) -> &[u8] {
        &self.start
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Bytes stored: live cells plus tombstones still inside their grace
    /// window.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }

    /// Live KV count.
    pub fn kv_count(&self) -> u64 {
        self.kv_count
    }

    /// The stored row `key`, if any.
    fn row(&self, key: &[u8]) -> Option<RowView<'_>> {
        if let Some(row) = self.memstore.get(key) {
            return Some(RowView::Memstore(&row.columns));
        }
        let row = self.segment.find_row(key)?;
        Some(RowView::Frozen(&self.segment, self.segment.columns(row)))
    }

    /// The stored rows from `from` (inclusive) on, in key order.
    fn rows_from(&self, from: &[u8]) -> Rows<'_> {
        Rows {
            memstore: self.memstore.range_from(from).peekable(),
            segment: &self.segment,
            next: self.segment.lower_bound(from),
        }
    }

    /// Applies mutations to one row atomically, after dropping the
    /// region's tombstones whose grace window `now` has passed. Returns
    /// bytes written (every mutation's wire size, stale ones included).
    ///
    /// Each mutation comes with its schema family index (validated by the
    /// table before routing here); `now` is the timestamp of unpinned
    /// mutations. A frozen row is moved into the memstore first.
    pub(crate) fn mutate_row<'m>(
        &mut self,
        row_key: &[u8],
        muts: impl IntoIterator<Item = (usize, &'m Mutation)>,
        now: u64,
        family_names: &[Arc<str>],
    ) -> u64 {
        let mut muts = muts.into_iter().peekable();
        if muts.peek().is_none() {
            return 0; // and no empty row is left behind
        }
        self.purge_tombstones(now, family_names);
        let fresh;
        let (row_handle, row) = if self.memstore.contains_key(row_key) {
            let Some(held) = self.memstore.get_key_value_mut(row_key) else {
                return 0;
            };
            held
        } else {
            // Sized for this call's mutations: every caller's iterator
            // reports how many it can yield at most, and yields them all.
            let (at_least, at_most) = muts.size_hint();
            let more = at_most.unwrap_or(at_least);
            let columns = match self.segment.find_row(row_key) {
                Some(frozen) => self.segment.take_row(frozen, more),
                None => {
                    // A new row: its first mutation cannot be stale.
                    self.row_count += 1;
                    Vec::with_capacity(more)
                }
            };
            fresh = Bytes::copy_from_slice(row_key);
            let row = self.memstore.insert(fresh.clone(), RowData { columns });
            (&fresh, row)
        };
        let mut bytes = 0u64;
        for (fam_idx, m) in muts {
            bytes += m.weight(row_key.len());
            let (qualifier, ts, value) = match m {
                Mutation::Put {
                    qualifier,
                    value,
                    timestamp,
                    ..
                } => (qualifier, timestamp.unwrap_or(now), Some(value)),
                Mutation::Delete {
                    qualifier,
                    timestamp,
                    ..
                } => (qualifier, timestamp.unwrap_or(now), None),
            };
            let new = Stored {
                family: fam_idx,
                qualifier,
                ts,
                value,
            };
            let slot = row.find(fam_idx, qualifier);
            let old = slot.ok().map(|at| row.columns[at].stored());
            if old.is_some_and(|old| new.order_key() < old.order_key()) {
                continue; // stale on arrival: the stored version is newer
            }
            let (was_visible, old_weight) = old.map_or((false, 0), |old| {
                (old.value.is_some(), old.weight(row_key, family_names))
            });
            let new_weight = new.weight(row_key, family_names);
            if value.is_none() {
                self.purge_queue.push(Reverse(DeadColumn {
                    ts,
                    row: row_handle.clone(),
                    family: fam_idx,
                    qualifier: qualifier.clone(),
                }));
            }
            match slot {
                Ok(at) => {
                    let column = &mut row.columns[at];
                    column.ts = ts;
                    column.value = value.cloned();
                }
                Err(at) => {
                    let column = Column {
                        family: fam_idx,
                        qualifier: qualifier.clone(),
                        ts,
                        value: value.cloned(),
                    };
                    row.columns.insert(at, column);
                }
            }
            self.kv_count = self.kv_count + u64::from(value.is_some()) - u64::from(was_visible);
            self.byte_size = self.byte_size + new_weight - old_weight;
        }
        bytes
    }

    /// Physically removes every column whose newest version is a tombstone
    /// more than [`TOMBSTONE_GRACE_TICKS`] older than `now`, and its row
    /// once empty.
    fn purge_tombstones(&mut self, now: u64, family_names: &[Arc<str>]) {
        let expired = |dead: &DeadColumn| dead.ts.saturating_add(TOMBSTONE_GRACE_TICKS) < now;
        while self
            .purge_queue
            .peek()
            .is_some_and(|Reverse(head)| expired(head))
        {
            let Some(Reverse(dead)) = self.purge_queue.pop() else {
                return;
            };
            let is_dead = |c: Stored<'_>| c.value.is_none() && c.ts == dead.ts;
            if !self.memstore.contains_key(&dead.row) {
                // Frozen by a flush since it was written: copied out
                // first, as a write would copy it.
                let Some(frozen) = self.segment.find_row(&dead.row) else {
                    continue;
                };
                let column = self
                    .segment
                    .find_column(frozen, dead.family, &dead.qualifier);
                if !column.is_some_and(|c| is_dead(self.segment.stored(c))) {
                    continue; // overwritten since
                }
                let columns = self.segment.take_row(frozen, 0);
                self.memstore.insert(dead.row.clone(), RowData { columns });
            }
            let Some(row) = self.memstore.get_mut(&dead.row) else {
                continue;
            };
            let Some(at) = row
                .find(dead.family, &dead.qualifier)
                .ok()
                .filter(|&at| is_dead(row.columns[at].stored()))
            else {
                continue; // overwritten since; a newer tombstone has its own entry
            };
            let tombstone = row.columns.remove(at);
            self.byte_size -= tombstone.stored().weight(&dead.row, family_names);
            if row.columns.is_empty() {
                self.memstore.remove(&dead.row);
                self.row_count -= 1;
            }
        }
    }

    /// Freezes the memstore into the segment, merged with the rows already
    /// there (see the module docs). What every read returns and bills is
    /// unchanged; no cost is charged.
    pub(crate) fn flush(&mut self) {
        if self.memstore.is_empty() {
            return;
        }
        let memstore = std::mem::take(&mut self.memstore);
        self.segment = std::mem::take(&mut self.segment).merged(memstore);
    }

    /// Walks the stored columns of one row in the given family indices
    /// (`None` = all) and hands each visible cell to `emit`, in
    /// `(family, qualifier)` order. Returns what the walk scanned. A cell
    /// is a set of refcounted handles, so the walk itself allocates
    /// nothing: a row that a projected scan merely walks over (all its
    /// cells in other families) costs no heap traffic.
    fn read_row(
        key: &[u8],
        row: &RowView<'_>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        mut emit: impl FnMut(Cell),
    ) -> ReadCost {
        let mut cost = ReadCost::default();
        row.for_each_selected(families, |column| {
            // Every stored column is touched by the read path, a
            // retained tombstone included.
            cost.kvs_scanned += 1;
            if let Some(value) = column.value {
                let cell = Cell {
                    family: Arc::clone(&family_names[column.family]),
                    qualifier: column.qualifier.clone(),
                    timestamp: column.ts,
                    value: value.clone(),
                };
                cost.bytes_scanned += cell.weight(key.len());
                emit(cell);
            }
        });
        cost
    }

    /// Point read of one row, owned: `None` when no selected column is
    /// visible. A returned row costs its key and its `cells` vector, the
    /// latter sized on the first visible cell for the columns the read
    /// touches. The owning adaptor beside [`Region::get_into`]: the same
    /// walk, the same cost.
    pub(crate) fn get(
        &self,
        key: &[u8],
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        let Some(row) = self.row(key) else {
            return (None, ReadCost::default());
        };
        let mut cells = Vec::new();
        let mut cost = Self::read_row(key, &row, family_names, families, |cell| {
            if cells.is_empty() {
                let mut touched = 0;
                row.for_each_selected(families, |_| touched += 1);
                cells.reserve_exact(touched);
            }
            cells.push(cell);
        });
        let row = (!cells.is_empty()).then(|| RowResult {
            key: key.to_vec(),
            cells,
        });
        if let Some(row) = &row {
            cost.kvs_returned = row.kv_count();
            cost.bytes_returned = row.weight();
        }
        (row, cost)
    }

    /// Point read of one row into the caller's batch: `out` is cleared and
    /// then holds the row, or nothing when no selected column is visible.
    /// Once `out` has grown to the widest row read into it, a read
    /// allocates nothing.
    pub(crate) fn get_into(
        &self,
        key: &[u8],
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        out: &mut RowBatch,
    ) -> ReadCost {
        out.clear();
        let Some(row) = self.row(key) else {
            return ReadCost::default();
        };
        let mut cost = Self::read_row(key, &row, family_names, families, |cell| {
            out.push_cell(cell)
        });
        let row = out.open_row(key);
        if !row.cells.is_empty() {
            cost.kvs_returned = row.kv_count();
            cost.bytes_returned = row.weight();
            out.commit_row(key);
        }
        cost
    }

    /// One scan step: visits up to `max_rows` rows starting at `*next_key`
    /// (inclusive), stopping before `stop` (exclusive), and appends the
    /// rows with a visible selected cell that pass `filter` to `out`.
    /// Returns the step's cost and whether the range holds more rows —
    /// `next_key` is then overwritten with the first row not visited.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_batch_into(
        &self,
        next_key: &mut Vec<u8>,
        stop: Option<&[u8]>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
        out: &mut RowBatch,
    ) -> (ReadCost, bool) {
        let mut cost = ReadCost::default();
        for (visited, (key, row)) in self.rows_from(next_key).enumerate() {
            if stop.is_some_and(|stop| key >= stop) {
                break;
            }
            if visited == max_rows {
                next_key.clear();
                next_key.extend_from_slice(key);
                return (cost, true);
            }
            let scanned = Self::read_row(key, &row, family_names, families, |cell| {
                out.push_cell(cell)
            });
            cost.kvs_scanned += scanned.kvs_scanned;
            cost.bytes_scanned += scanned.bytes_scanned;
            let row = out.open_row(key);
            if row.cells.is_empty() {
                continue;
            }
            if filter.is_none_or(|f| f.accept(row)) {
                cost.kvs_returned += row.kv_count();
                cost.bytes_returned += row.weight();
                out.commit_row(key);
            } else {
                out.discard_row();
            }
        }
        (cost, false)
    }

    /// Row keys in ascending order (rebalancing support).
    pub(crate) fn row_keys(&self) -> impl Iterator<Item = &[u8]> {
        self.rows_from(&[]).map(|(key, _)| key)
    }

    /// The median row key, used as an auto-split point. `None` if the
    /// region has fewer than two rows.
    pub(crate) fn split_point(&self) -> Option<Vec<u8>> {
        if self.row_count < 2 {
            return None;
        }
        self.row_keys().nth(self.row_count / 2).map(<[u8]>::to_vec)
    }

    /// Stored rows, live KV count and stored bytes by a full walk: what
    /// the incrementally maintained `row_count`, `kv_count` and
    /// `byte_size` must equal.
    pub(crate) fn recount(&self, family_names: &[Arc<str>]) -> (usize, u64, u64) {
        let (mut rows, mut kvs, mut bytes) = (0, 0, 0);
        for (key, row) in self.rows_from(&[]) {
            rows += 1;
            row.for_each_selected(None, |column| {
                kvs += u64::from(column.value.is_some());
                bytes += column.weight(key, family_names);
            });
        }
        (rows, kvs, bytes)
    }

    /// Splits off rows `>= split_key` into a new region hosted on `node`.
    pub(crate) fn split_off(
        &mut self,
        split_key: &[u8],
        node: usize,
        family_names: &[Arc<str>],
    ) -> Region {
        let mut upper = Region::new(split_key.to_vec(), node);
        upper.memstore = self.memstore.split_off(split_key);
        if self.segment.len() > 0 {
            let at = self.segment.lower_bound(split_key);
            upper.segment = self.segment.slice(at..self.segment.len());
            self.segment = self.segment.slice(0..at);
        }
        let (moved, kept) = std::mem::take(&mut self.purge_queue)
            .into_iter()
            .partition(|Reverse(dead)| &dead.row[..] >= split_key);
        upper.purge_queue = moved;
        self.purge_queue = kept;
        // Recompute accounting on both sides (splits are rare).
        (self.row_count, self.kv_count, self.byte_size) = self.recount(family_names);
        (upper.row_count, upper.kv_count, upper.byte_size) = upper.recount(family_names);
        upper
    }
}

#[cfg(test)]
impl Region {
    /// One scan step from `start` into a fresh batch, copied out:
    /// `(rows, cost, resume key)`.
    pub(crate) fn scan_owned(
        &self,
        start: &[u8],
        stop: Option<&[u8]>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> (Vec<RowResult>, ReadCost, Option<Vec<u8>>) {
        let mut next_key = start.to_vec();
        let mut batch = RowBatch::new();
        let (cost, more) = self.scan_batch_into(
            &mut next_key,
            stop,
            family_names,
            families,
            filter,
            max_rows,
            &mut batch,
        );
        let rows = batch.iter().map(|row| row.to_owned()).collect();
        (rows, cost, more.then_some(next_key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::RowRef;

    fn fams() -> Vec<Arc<str>> {
        vec!["a".into(), "b".into()]
    }

    fn put(region: &mut Region, key: &[u8], fam: usize, q: &[u8], v: &[u8], ts: u64) {
        let m = Mutation::put_at(if fam == 0 { "a" } else { "b" }, q, v.to_vec(), ts);
        region.mutate_row(key, [(fam, &m)], 0, &fams());
    }

    #[test]
    fn put_then_get() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k1", 0, b"q", b"v1", 1);
        let (row, cost) = r.get(b"k1", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"v1");
        assert_eq!(cost.kvs_scanned, 1);
        assert_eq!(r.kv_count(), 1);
    }

    #[test]
    fn newer_put_wins() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"old", 1);
        put(&mut r, b"k", 0, b"q", b"new", 5);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"new");
        assert_eq!(r.kv_count(), 1, "overwrite does not grow live count");
    }

    #[test]
    fn tombstone_hides_older_and_equal() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v", 5);
        let d = Mutation::delete_at("a", b"q", 5);
        r.mutate_row(b"k", [(0, &d)], 0, &fams());
        let (row, _) = r.get(b"k", &fams(), None);
        assert!(row.is_none(), "equal-timestamp delete shadows the put");
        assert_eq!(r.kv_count(), 0);
    }

    #[test]
    fn put_after_tombstone_resurrects() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v1", 1);
        let d = Mutation::delete_at("a", b"q", 2);
        r.mutate_row(b"k", [(0, &d)], 0, &fams());
        put(&mut r, b"k", 0, b"q", b"v2", 3);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn out_of_order_timestamps_resolve_correctly() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"newest", 10);
        put(&mut r, b"k", 0, b"q", b"stale", 3);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"newest");
    }

    #[test]
    fn scan_respects_bounds_and_batch() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let (rows, _, resume_key) = r.scan_owned(&[2], Some(&[8]), &fams(), None, None, 3);
        let keys: Vec<u8> = rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![2, 3, 4]);
        assert_eq!(resume_key, Some(vec![5]));
        let (rows, _, resume_key) = r.scan_owned(&[5], Some(&[8]), &fams(), None, None, 100);
        let keys: Vec<u8> = rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![5, 6, 7]);
        assert_eq!(resume_key, None);
    }

    #[test]
    fn scan_family_projection() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"va", 1);
        put(&mut r, b"k", 1, b"q", b"vb", 1);
        let (rows, ..) = r.scan_owned(b"", None, &fams(), Some(&[1]), None, 10);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 1);
        assert_eq!(&*rows[0].cells[0].family, "b");
    }

    /// The borrowed point read is the owned one in another container: on
    /// a present row, an absent one, one whose projected family is empty
    /// and one holding only a tombstone, `get_into` reports the cost `get`
    /// reports and leaves the batch holding the row `get` returns.
    #[test]
    fn get_into_reads_and_bills_exactly_what_get_does() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"both", 0, b"q1", b"va", 1);
        put(&mut r, b"both", 0, b"q2", b"vaa", 1);
        put(&mut r, b"both", 1, b"q", b"vb", 1);
        put(&mut r, b"only-a", 0, b"q", b"va", 1);
        put(&mut r, b"dead", 1, b"q", b"vb", 1);
        let tombstone = Mutation::delete_at("b", b"q", 2);
        r.mutate_row(b"dead", [(1, &tombstone)], 0, &fams());

        let mut batch = RowBatch::new();
        let keys: [&[u8]; 4] = [b"both", b"only-a", b"dead", b"absent"];
        for key in keys {
            for families in [None, Some(&[0usize][..]), Some(&[1][..]), Some(&[0, 1][..])] {
                let (owned, cost) = r.get(key, &fams(), families);
                let lent = r.get_into(key, &fams(), families, &mut batch);
                assert_eq!(lent, cost, "{key:?} {families:?}");
                assert_eq!(batch.len(), usize::from(owned.is_some()));
                assert_eq!(batch.get(0), owned.as_ref().map(RowResult::as_row_ref));
            }
        }
        // The tombstone is touched and billed, the row is not returned.
        let dead = r.get_into(b"dead", &fams(), Some(&[1]), &mut batch);
        assert_eq!((dead.kvs_scanned, dead.kvs_returned), (1, 0));
        assert!(batch.is_empty());
    }

    /// The union walk the planner's ISL cost model is calibrated against:
    /// a projected scan visits every row of the range — rows holding only
    /// foreign-family cells count toward the RPC's row budget and move
    /// the resume key, but are billed nothing and returned nowhere.
    #[test]
    fn projected_scan_over_foreign_rows_bills_and_resumes_as_pinned() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            // Even rows: family `a` only. Odd rows: family `b` only.
            put(&mut r, &[i], usize::from(i % 2), b"q", b"vv", 1);
        }
        // Row 2 also holds a dead `b` column: touched (one KV read) but
        // invisible, so the row is still not returned.
        put(&mut r, &[2], 1, b"dead", b"vv", 1);
        let tombstone = Mutation::delete_at("b", b"dead", 2);
        r.mutate_row(&[2], [(1, &tombstone)], 0, &fams());

        let (rows, cost, resume_key) = r.scan_owned(&[0], None, &fams(), Some(&[1]), None, 4);
        let keys: Vec<u8> = rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![1, 3], "two of the four visited rows return");
        assert_eq!(resume_key, Some(vec![4]), "all four visited rows count");
        // One visible cell: key 1 + family 1 + qualifier 1 + ts 8 + value 2.
        assert_eq!(
            cost,
            ReadCost {
                kvs_scanned: 3,
                bytes_scanned: 26,
                kvs_returned: 2,
                bytes_returned: 26,
            }
        );

        let (rows, cost, resume_key) = r.scan_owned(&[4], None, &fams(), Some(&[1]), None, 100);
        let keys: Vec<u8> = rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![5, 7, 9]);
        assert_eq!(resume_key, None);
        assert_eq!(
            cost,
            ReadCost {
                kvs_scanned: 3,
                bytes_scanned: 39,
                kvs_returned: 3,
                bytes_returned: 39,
            }
        );
    }

    #[test]
    fn filtered_rows_are_billed_but_not_returned() {
        struct RejectAll;
        impl ServerFilter for RejectAll {
            fn accept(&self, _row: RowRef<'_>) -> bool {
                false
            }
        }
        let mut r = Region::new(vec![], 0);
        for i in 0..5u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let (rows, cost, _) = r.scan_owned(b"", None, &fams(), None, Some(&RejectAll), 10);
        assert!(rows.is_empty());
        assert_eq!(cost.kvs_scanned, 5);
        assert_eq!(cost.kvs_returned, 0);
        assert_eq!(cost.bytes_returned, 0);
        assert!(cost.bytes_scanned > 0);
    }

    #[test]
    fn split_partitions_rows() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let split = r.split_point().unwrap();
        let upper = r.split_off(&split, 1, &fams());
        assert_eq!(r.row_count() + upper.row_count(), 10);
        assert!(r.row_keys().all(|k| k < split.as_slice()));
        assert!(upper.row_keys().all(|k| k >= split.as_slice()));
        assert_eq!(upper.node(), 1);
        assert_eq!(r.kv_count() + upper.kv_count(), 10);
    }

    /// Applies `m` (family `a`) to `key` with the cluster clock at `now`.
    fn apply(region: &mut Region, key: &[u8], m: &Mutation, now: u64) {
        region.mutate_row(key, [(0, m)], now, &fams());
    }

    fn value_of(region: &Region, key: &[u8]) -> Option<Vec<u8>> {
        let (row, _) = region.get(key, &fams(), None);
        row.and_then(|r| r.value("a", b"q").map(|v| v.to_vec()))
    }

    fn assert_accounting_matches_a_recount(region: &Region) {
        let counted = (region.row_count(), region.kv_count(), region.byte_size());
        assert_eq!(counted, region.recount(&fams()));
    }

    #[test]
    fn stale_writes_are_dropped_on_arrival() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"newest".to_vec(), 10),
            10,
        );
        let stored = r.byte_size();
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"stale".to_vec(), 3),
            11,
        );
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", 9), 12);
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"newest"[..]));
        assert_eq!(r.byte_size(), stored, "nothing stale is kept");
        let (_, cost) = r.get(b"k", &fams(), None);
        assert_eq!(cost.kvs_scanned, 1, "one stored version, one KV read");
        assert!(
            r.purge_queue.is_empty(),
            "a dropped tombstone is not queued"
        );
    }

    #[test]
    fn overwrite_and_delete_keep_byte_size_equal_to_a_recount() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", vec![0; 100], 1),
            1,
        );
        let long = r.byte_size();
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", vec![0; 10], 2),
            2,
        );
        assert_eq!(r.byte_size(), long - 90, "an overwrite replaces the bytes");
        assert_accounting_matches_a_recount(&r);
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", 3), 3);
        assert_eq!(
            r.byte_size(),
            long - 100,
            "a retained tombstone has no value"
        );
        assert_eq!(r.kv_count(), 0);
        assert_accounting_matches_a_recount(&r);
    }

    /// §6's race: a delete's index tombstone lands before the index put
    /// of the older insert it races with. Inside the grace window the
    /// tombstone masks the late put, at an older and at an equal
    /// timestamp, exactly as when every version was kept.
    #[test]
    fn tombstone_masks_late_and_equal_puts_inside_the_window() {
        let mut r = Region::new(vec![], 0);
        let ts = 5000;
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
        let late = ts + TOMBSTONE_GRACE_TICKS; // the window's last tick
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"older".to_vec(), ts - 1),
            late,
        );
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"equal".to_vec(), ts),
            late,
        );
        assert_eq!(value_of(&r, b"k"), None, "both puts stay masked");
        assert_eq!(r.kv_count(), 0);
        assert_eq!(r.row_count(), 1, "the tombstone is still stored");
        let (_, cost) = r.get(b"k", &fams(), None);
        assert_eq!(cost.kvs_scanned, 1, "and still touched and billed");
        // A newer put wins, as always.
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"newer".to_vec(), ts + 1),
            late,
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"newer"[..]));
        assert_accounting_matches_a_recount(&r);
    }

    /// The documented limit: past the window the tombstone is gone, and a
    /// put older than it becomes visible — HBase after a major compaction
    /// has dropped the delete marker.
    #[test]
    fn a_put_delayed_past_the_window_resurfaces() {
        let mut r = Region::new(vec![], 0);
        let ts = 5000;
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
        let past = ts + TOMBSTONE_GRACE_TICKS + 1;
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"older".to_vec(), ts - 1),
            past,
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"older"[..]));
        assert_accounting_matches_a_recount(&r);
    }

    #[test]
    fn expired_tombstones_and_their_rows_are_removed_by_the_next_write() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
            1,
        );
        let before = (r.row_count(), r.kv_count(), r.byte_size());
        for i in 0..10u8 {
            let ts = 10 + u64::from(i);
            apply(
                &mut r,
                &[b'k', i],
                &Mutation::put_at("a", b"q", b"v".to_vec(), ts),
                ts,
            );
        }
        for i in 0..10u8 {
            let ts = 20 + u64::from(i);
            apply(&mut r, &[b'k', i], &Mutation::delete_at("a", b"q", ts), ts);
        }
        assert_eq!(r.row_count(), 11, "dead rows are stored inside the window");
        assert_eq!(r.kv_count(), 1);
        assert_accounting_matches_a_recount(&r);
        // A write while the youngest tombstone is inside the window purges
        // only the older ones.
        let now = 25 + TOMBSTONE_GRACE_TICKS;
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), now),
            now,
        );
        assert_eq!(r.row_count(), 1 + 5, "tombstones at 25..=29 remain");
        assert_accounting_matches_a_recount(&r);
        let now = 30 + TOMBSTONE_GRACE_TICKS;
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), now),
            now,
        );
        assert_eq!((r.row_count(), r.kv_count(), r.byte_size()), before);
        assert!(r.purge_queue.is_empty());
        let (_, cost, _) = r.scan_owned(b"", None, &fams(), None, None, 100);
        assert_eq!(cost.kvs_scanned, 1, "a scan pays for the live cell only");
    }

    #[test]
    fn a_tombstone_overwritten_by_a_put_is_not_purged_with_it() {
        let mut r = Region::new(vec![], 0);
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", 10), 10);
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 11),
            11,
        );
        let now = 12 + TOMBSTONE_GRACE_TICKS;
        apply(
            &mut r,
            b"other",
            &Mutation::put_at("a", b"q", b"v".to_vec(), now),
            now,
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"v"[..]));
        assert!(r.purge_queue.is_empty(), "the stale entry was skipped");
        assert_accounting_matches_a_recount(&r);
    }

    /// A 2 000-column row over both families, written in shuffled column
    /// order with deletes in between — 2 500 ticks, so the older
    /// tombstones are purged along the way — and then purged of the rest:
    /// the sorted column vector takes inserts and removals anywhere, reads
    /// return cells in `(family, qualifier)` order, and the accounting
    /// equals a recount.
    #[test]
    fn wide_row_written_in_shuffled_order_reads_back_sorted() {
        const COLUMNS: u64 = 2000;
        // 7919 is prime and does not divide 2000: a permutation of 0..2000.
        let column = |i: u64| {
            let shuffled = (i * 7919) % COLUMNS;
            let family = (shuffled % 2) as usize;
            (family, ((shuffled / 2) as u16).to_be_bytes())
        };
        let name = |family: usize| if family == 0 { "a" } else { "b" };
        let mut r = Region::new(vec![], 0);
        let mut now = 0;
        for i in 0..COLUMNS {
            now += 1;
            let (family, qualifier) = column(i);
            let put = Mutation::put(name(family), &qualifier, vec![family as u8; 3]);
            r.mutate_row(b"wide", [(family, &put)], now, &fams());
            if i % 4 == 3 {
                now += 1;
                // An earlier column, of either family in turn.
                let (family, qualifier) = column(i - 2 - (i / 4) % 2);
                let delete = Mutation::delete(name(family), &qualifier);
                r.mutate_row(b"wide", [(family, &delete)], now, &fams());
            }
        }
        let live = COLUMNS - COLUMNS / 4;
        let sorted_cells = |r: &Region| {
            let (row, cost) = r.get(b"wide", &fams(), None);
            let cells = row.unwrap().cells;
            let columns: Vec<(&str, &[u8])> = cells
                .iter()
                .map(|c| (&*c.family, &c.qualifier[..]))
                .collect();
            assert!(columns.windows(2).all(|pair| pair[0] < pair[1]));
            (cells.len() as u64, cost.kvs_scanned)
        };
        let retained = r.purge_queue.len() as u64;
        assert!(0 < retained && retained < COLUMNS / 4);
        assert_eq!(
            sorted_cells(&r),
            (live, live + retained),
            "retained tombstones are touched"
        );
        assert_eq!(r.kv_count(), live);
        assert_accounting_matches_a_recount(&r);
        let (in_b, _, _) = r.scan_owned(b"", None, &fams(), Some(&[1]), None, 10);
        assert!(in_b[0].cells.iter().all(|c| &*c.family == "b"));
        assert_eq!(in_b[0].cells.len() as u64 * 2, live);

        // Past the last tombstone's window, one (size-neutral) overwrite
        // purges the rest.
        now += TOMBSTONE_GRACE_TICKS + 1;
        let (family, qualifier) = column(0);
        let put = Mutation::put(name(family), &qualifier, vec![family as u8; 3]);
        r.mutate_row(b"wide", [(family, &put)], now, &fams());
        assert_eq!(sorted_cells(&r), (live, live), "and then gone");
        assert!(r.purge_queue.is_empty());
        assert_accounting_matches_a_recount(&r);
    }

    #[test]
    fn split_recounts_stored_bytes_and_moves_pending_purges_with_their_rows() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"vv", 1);
        }
        // One dead row on each side of the split.
        for i in [1u8, 8] {
            apply(&mut r, &[i], &Mutation::delete_at("a", b"q", 2), 2);
        }
        let (kvs, bytes) = (r.kv_count(), r.byte_size());
        let mut upper = r.split_off(&[5], 1, &fams());
        assert_eq!(r.kv_count() + upper.kv_count(), kvs);
        assert_eq!(
            r.byte_size() + upper.byte_size(),
            bytes,
            "no history in the sum"
        );
        assert_accounting_matches_a_recount(&r);
        assert_accounting_matches_a_recount(&upper);
        // Each half purges its own dead row.
        let now = 3 + TOMBSTONE_GRACE_TICKS;
        apply(
            &mut r,
            &[0],
            &Mutation::put_at("a", b"q", b"vv".to_vec(), now),
            now,
        );
        apply(
            &mut upper,
            &[9],
            &Mutation::put_at("a", b"q", b"vv".to_vec(), now),
            now,
        );
        assert_eq!((r.row_count(), upper.row_count()), (4, 4));
        assert_accounting_matches_a_recount(&r);
        assert_accounting_matches_a_recount(&upper);
    }

    /// §6's delete over loaded data: the tombstone replaces the frozen
    /// column in the row the delete moved into the memstore, and once its
    /// grace window has passed, purging it deletes the column and the
    /// emptied row. The old value does not resurface, neither in the
    /// region nor after a later flush, and a put older than the purged
    /// tombstone then lands as on a never-written column (the documented
    /// limit of the window).
    #[test]
    fn a_purged_tombstone_over_a_frozen_column_leaves_it_deleted() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
            1,
        );
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
            1,
        );
        r.flush();
        assert!(r.memstore.is_empty());
        let ts = 10;
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
        assert_eq!(value_of(&r, b"k"), None, "the tombstone masks the segment");
        let (_, cost) = r.get(b"k", &fams(), None);
        assert_eq!(cost.kvs_scanned, 1, "one column, touched once");
        assert_eq!((r.row_count(), r.kv_count()), (2, 1));
        assert_accounting_matches_a_recount(&r);

        let now = ts + TOMBSTONE_GRACE_TICKS + 1;
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), now),
            now,
        );
        assert!(r.purge_queue.is_empty());
        assert_eq!(r.get(b"k", &fams(), None), (None, ReadCost::default()));
        assert_eq!((r.row_count(), r.kv_count()), (1, 1));
        assert_accounting_matches_a_recount(&r);
        r.flush();
        assert_eq!(r.get(b"k", &fams(), None), (None, ReadCost::default()));
        assert_eq!(r.segment.len(), 1, "the flush left the purged row out");
        assert_accounting_matches_a_recount(&r);

        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"old".to_vec(), 5),
            now,
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"old"[..]));
        assert_accounting_matches_a_recount(&r);
    }

    /// The first write to a frozen row moves the row into the memstore,
    /// where a write older than its column's version is dropped on
    /// arrival and a newer one replaces it: either way the row is read,
    /// billed and counted once, from one half.
    #[test]
    fn a_write_to_a_frozen_row_moves_it_and_is_stale_against_its_columns() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"newest".to_vec(), 10),
            10,
        );
        r.flush();
        let stored = (r.row_count(), r.kv_count(), r.byte_size());
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"stale".to_vec(), 3),
            11,
        );
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", 9), 12);
        assert_eq!(r.memstore.len(), 1, "the row moved, with its column");
        assert!(r.segment.is_moved(0));
        assert!(
            r.purge_queue.is_empty(),
            "a dropped tombstone is not queued"
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"newest"[..]));
        assert_eq!((r.row_count(), r.kv_count(), r.byte_size()), stored);
        assert_eq!(r.row_keys().count(), 1);

        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"new".to_vec(), 20),
            20,
        );
        assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"new"[..]));
        let (_, cost) = r.get(b"k", &fams(), None);
        assert_eq!(cost.kvs_scanned, 1, "the moved segment row is not billed");
        assert_accounting_matches_a_recount(&r);
    }

    /// A tombstone that a flush froze inside its grace window is purged
    /// once the window has passed: its row is copied out, the tombstone
    /// removed, and the row with it once empty. Its key is then free, in
    /// the region and after the next flush.
    #[test]
    fn a_frozen_tombstone_is_purged_with_its_row_once_its_window_passes() {
        let mut r = Region::new(vec![], 0);
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
            1,
        );
        apply(
            &mut r,
            b"k",
            &Mutation::put_at("a", b"q", b"v".to_vec(), 2),
            2,
        );
        let ts = 10;
        apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
        r.flush();
        assert_eq!((r.row_count(), r.kv_count()), (2, 1));
        let (_, cost) = r.get(b"k", &fams(), None);
        assert_eq!(cost.kvs_scanned, 1, "the frozen tombstone is billed");

        let now = ts + TOMBSTONE_GRACE_TICKS + 1;
        apply(
            &mut r,
            b"anchor",
            &Mutation::put_at("a", b"q", b"v".to_vec(), now),
            now,
        );
        assert!(r.purge_queue.is_empty());
        assert_eq!(r.get(b"k", &fams(), None), (None, ReadCost::default()));
        assert_eq!(r.row_keys().collect::<Vec<_>>(), [&b"anchor"[..]]);
        assert_accounting_matches_a_recount(&r);
        r.flush();
        assert_eq!(r.segment.len(), 1, "the flush left the purged row out");
        assert_accounting_matches_a_recount(&r);
    }
}
