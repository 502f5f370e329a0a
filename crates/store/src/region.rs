//! Regions: contiguous row-key ranges of a table, each hosted on one node.
//!
//! # Row layout: a memstore over one frozen segment
//!
//! A region stores its rows the way an HBase region server does.
//! Maintained writes (`mutate_row`) land in a **memstore**, a vector of
//! rows sorted by key (`memstore.rs`). Bulk writes go straight into
//! the region's **segment**, HBase's immutable sorted store file: the
//! TPC-H loader and every MapReduce job that writes a table stage their
//! rows and apply them as one bulk load ([`crate::bulk`]), as HBase's
//! `HFileOutputFormat2` writes store files and `completebulkload`
//! adopts them. A region holds at most one segment: a load builds a new
//! one from the old segment, the memstore and the loaded rows
//! (`Region::load`), each column keeping its newest version, so the
//! region reads, bills and counts as if every loaded row had gone
//! through `mutate_row` and the memstore had then been frozen. A load
//! bills nothing; its rows were billed when they were staged.
//!
//! A memstore row is one vector of `(family index, qualifier, version)`
//! columns sorted by `(family, qualifier)`, the order a read returns cells
//! in, allocated once for the `mutate_row` call that created it. It keeps
//! the qualifier and value handles of the mutations that wrote it, not
//! copies: a write allocates only a new row's key and column vector, or
//! the growth of a widened row or of the tombstone queue. A segment
//! (`crate::segment`) owns its bytes instead, in per-segment arenas: a
//! load copies every byte once and frees the writers' handles with the
//! memstore it freezes. At TPC-H SF 0.01 with Q1's and Q2's ISL indices built, the
//! store held 58.48 MB of heap for 20.71 MB stored ([`Region::byte_size`])
//! as B-tree rows (2.82×), 39.01 MB (1.88×) as segments of handles and
//! 23.19 MB (1.12×) as segments of bytes, 17.89 MB (0.86×) once a
//! segment stored its repeated names, timestamps and column ends once,
//! 15.35 MB (0.74×) once it stored nothing it can derive (no key or
//! qualifier ends whose widths repeat, one timestamp for a row written
//! whole, 16-bit timestamp deltas where their span fits), and holds
//! 13.31 MB (0.64×) since it stores its rows' one shape, its keys'
//! common prefix and its ends in blocks of 16-bit offsets once.
//!
//! A read lends what the half holds: a memstore cell's handles, or a
//! frozen cell's bytes, which the reader's [`RowBatch`] copies into the
//! buffer it recycles for row keys (a frozen row's key too, written from
//! its segment's prefix and its own suffix). Either way a read allocates
//! nothing once its batch has grown, and a point read and a scan step
//! are the same walk (`Region::get_into`, `Region::scan_batch_into`); a
//! caller that keeps a row copies it out ([`RowRef::to_owned`]). Billing and
//! [`Region::byte_size`] count every column's bytes, however they are
//! held.
//!
//! A row lives in exactly one half. The first write to a frozen row thaws
//! it into a new memstore row, its handles copied from the arena, and the
//! segment marks the row moved. So a read consults one half, a write is
//! stale against the memstore row alone, and a region reads, bills and
//! counts the same whether and when a load froze its memstore. A column the write
//! supersedes is not copied: the write stores it anew under its own
//! handles, so a delete that tombstones a whole frozen row copies none of
//! its columns. A frozen row that keeps taking writes, such as a BFHM
//! bucket row taking update records, is one memstore row from then on.
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
//! A purge removes a tombstone from the memstore. One that a load froze
//! inside its window is purged like a write: its row is copied out first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::mem::take;
use std::sync::Arc;

use bytes::Bytes;

use crate::bulk::LoadedRow;
use crate::cell::Mutation;
use crate::filter::ServerFilter;
use crate::memstore::{family_columns, Column, Memstore, RowData};
use crate::row::{RowBatch, RowRef};
use crate::segment::{Key, Segment};

/// Cluster-clock ticks a tombstone outlives its own timestamp before the
/// region drops it (see the module docs). Every `mutate_row` and every
/// `Cluster::next_ts` is one tick, so a maintained insert or delete with
/// three indices attached is about six.
pub const TOMBSTONE_GRACE_TICKS: u64 = 1024;

/// One stored column as a read sees it, from the memstore or the segment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stored<'a> {
    /// Index into the table's family list.
    pub(crate) family: usize,
    pub(crate) qualifier: &'a [u8],
    pub(crate) ts: u64,
    /// The value of a put; `None` for a tombstone.
    pub(crate) value: Option<&'a [u8]>,
    /// The memstore column it is, whose handles a read lends; `None` for
    /// a frozen column.
    pub(crate) column: Option<&'a Column>,
}

impl Stored<'_> {
    /// Newer wins; at equal timestamps tombstones shadow puts.
    fn order_key(&self) -> (u64, bool) {
        (self.ts, self.value.is_none())
    }

    /// Stored bytes: [`crate::cell::Cell::weight`] for a put, the same without a value
    /// for a tombstone (what [`Mutation::weight`] charged for the write
    /// that stored it).
    fn weight(&self, key_len: usize, family_names: &[Arc<str>]) -> u64 {
        let value = self.value.map_or(0, <[u8]>::len);
        (key_len + family_names[self.family].len() + self.qualifier.len() + 8 + value) as u64
    }

    /// Appends the cell, a put's, to the row `out` is writing: lending
    /// a memstore column's handles, copying a frozen column's bytes.
    fn lend(&self, family_names: &[Arc<str>], out: &mut RowBatch) {
        let family = &family_names[self.family];
        match self.column {
            Some(Column {
                qualifier,
                value: Some(value),
                ..
            }) => out.push_lent(family, self.ts, qualifier, value),
            _ => out.push_copied(
                family,
                self.ts,
                self.qualifier,
                self.value.unwrap_or_default(),
            ),
        }
    }
}

/// The column `m` writes to family `family`, stamped `now` unless it is
/// pinned, with its qualifier and value handles.
pub(crate) fn written(
    family: usize,
    m: &Mutation,
    now: u64,
) -> (Stored<'_>, &Bytes, Option<&Bytes>) {
    let (qualifier, timestamp, value) = match m {
        Mutation::Put {
            qualifier,
            value,
            timestamp,
            ..
        } => (qualifier, timestamp, Some(value)),
        Mutation::Delete {
            qualifier,
            timestamp,
            ..
        } => (qualifier, timestamp, None),
    };
    let new = Stored {
        family,
        qualifier,
        ts: timestamp.unwrap_or(now),
        value: value.map(|v| &v[..]),
        column: None,
    };
    (new, qualifier, value)
}

/// One stored row, held by one half.
#[derive(Clone, Debug)]
enum RowView<'a> {
    Memstore(&'a [Column]),
    /// A row of the segment.
    Frozen(&'a Segment, usize),
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
            &RowView::Frozen(segment, row) => {
                let columns = segment.columns(row);
                let Some(families) = families else {
                    return columns.for_each(|c| visit(segment.stored(row, c)));
                };
                for &family in families {
                    let columns = segment.family(row, columns.clone(), family);
                    columns.for_each(|c| visit(segment.stored(row, c)));
                }
            }
        }
    }

    /// The stored column `family:qualifier`, if any.
    fn column(&self, family: usize, qualifier: &[u8]) -> Option<Stored<'a>> {
        match self {
            RowView::Memstore(columns) => {
                let columns = family_columns(columns, family);
                let at = columns.binary_search_by(|c| c.qualifier[..].cmp(qualifier));
                at.ok().map(|at| columns[at].stored())
            }
            &RowView::Frozen(segment, row) => segment
                .find_column(row, family, qualifier)
                .map(|column| segment.stored(row, column)),
        }
    }
}

/// The row a conditional write found holding a visible value in every
/// column it checked ([`crate::client::Client::check_and_mutate_row`]),
/// read under the region lock the write then takes.
pub struct Checked<'a> {
    row: Option<RowView<'a>>,
    family: usize,
}

impl Checked<'_> {
    /// The qualifier handle the memstore stores for the checked column
    /// `qualifier`: a write that reuses it stores no second copy. `None`
    /// for a frozen row's column, whose bytes its segment owns.
    pub fn qualifier(&self, qualifier: &[u8]) -> Option<Bytes> {
        let stored = self.row.as_ref()?.column(self.family, qualifier)?;
        stored.column.map(|column| column.qualifier.clone())
    }
}

/// A region's stored rows in a key range, in key order: memstore rows
/// merged with the segment rows not moved (no key is in both).
struct Rows<'a> {
    memstore: Peekable<std::slice::Iter<'a, (Bytes, RowData)>>,
    segment: &'a Segment,
    /// The next segment row.
    next: usize,
    /// The segment row the range ends before.
    end: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (Key<'a>, RowView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let segment = self.segment;
        while self.next < self.end && segment.is_moved(self.next) {
            self.next += 1;
        }
        let frozen = (self.next < self.end).then(|| segment.key(self.next));
        let from_memstore = match (self.memstore.peek(), frozen) {
            (Some((key, _)), Some(frozen)) => frozen.cmp_bytes(key).is_gt(),
            (memstore, _) => memstore.is_some(),
        };
        if from_memstore {
            let (key, row) = self.memstore.next()?;
            return Some((Key::whole(key), RowView::Memstore(&row.columns)));
        }
        let key = frozen?;
        let row = self.next;
        self.next += 1;
        Some((key, RowView::Frozen(segment, row)))
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
    /// Rows written since the last load, each holding a column. Row keys
    /// are refcounted so the purge queue names a row without copying its
    /// key.
    memstore: Memstore<RowData>,
    /// Rows frozen by the loads so far.
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

    /// The encodings the region's segment chose, by name.
    pub(crate) fn encodings(&self) -> String {
        self.segment.encodings()
    }

    /// The stored row `key`, if any.
    fn row(&self, key: &[u8]) -> Option<RowView<'_>> {
        if let Some(row) = self.memstore.get(key) {
            return Some(RowView::Memstore(&row.columns));
        }
        let row = self.segment.find_row(key)?;
        Some(RowView::Frozen(&self.segment, row))
    }

    /// The stored rows from `from` (inclusive) on and before `stop`
    /// (exclusive), if there is one, in key order. Each half finds where
    /// the range ends once, so no row's key is compared with `stop`.
    fn rows(&self, from: &[u8], stop: Option<&[u8]>) -> Rows<'_> {
        let next = self.segment.lower_bound(from);
        let end = stop.map_or(self.segment.len(), |stop| self.segment.lower_bound(stop));
        Rows {
            memstore: self.memstore.range(from, stop).peekable(),
            segment: &self.segment,
            next,
            end: end.max(next),
        }
    }

    /// The row `key` if every `qualifiers` column of `family` holds a
    /// visible value in it (vacuously so for no columns), `None` if one
    /// does not.
    pub(crate) fn check<Q: AsRef<[u8]>>(
        &self,
        key: &[u8],
        family: usize,
        qualifiers: &[Q],
    ) -> Option<Checked<'_>> {
        let row = self.row(key);
        let visible = |qualifier: &Q| {
            let column = row
                .as_ref()
                .and_then(|row| row.column(family, qualifier.as_ref()));
            column.is_some_and(|column| column.value.is_some())
        };
        qualifiers
            .iter()
            .all(visible)
            .then_some(Checked { row, family })
    }

    /// Applies mutations to one row atomically, after dropping the
    /// region's tombstones whose grace window `now` has passed. Returns
    /// bytes written (every mutation's wire size, stale ones included).
    ///
    /// Each mutation comes with its schema family index (validated by the
    /// table before routing here); `now` is the timestamp of unpinned
    /// mutations. A frozen row is moved into the memstore first, but for
    /// the columns the call supersedes.
    pub(crate) fn mutate_row<'m, M>(
        &mut self,
        row_key: &[u8],
        muts: M,
        now: u64,
        family_names: &[Arc<str>],
    ) -> u64
    where
        M: IntoIterator<Item = (usize, &'m Mutation)>,
        M::IntoIter: Clone,
    {
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
                Some(frozen) => {
                    // A column whose first write in this call is not stale
                    // against it is left frozen: the write stores it anew,
                    // under the mutation's own handles, as on a new column.
                    let (kv_count, byte_size) = (&mut self.kv_count, &mut self.byte_size);
                    self.segment.take_row(frozen, more, |old| {
                        let mut writes = muts.clone().map(|(family, m)| written(family, m, now));
                        let first = writes.find(|(new, ..)| {
                            (new.family, new.qualifier) == (old.family, old.qualifier)
                        });
                        let superseded =
                            first.is_some_and(|(new, ..)| old.order_key() <= new.order_key());
                        if superseded {
                            *kv_count -= u64::from(old.value.is_some());
                            *byte_size -= old.weight(row_key.len(), family_names);
                        }
                        !superseded
                    })
                }
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
            let (new, qualifier, value) = written(fam_idx, m, now);
            let ts = new.ts;
            let slot = row.find(fam_idx, qualifier);
            let old = slot.ok().map(|at| row.columns[at].stored());
            if old.is_some_and(|old| new.order_key() < old.order_key()) {
                continue; // stale on arrival: the stored version is newer
            }
            let (was_visible, old_weight) = old.map_or((false, 0), |old| {
                (old.value.is_some(), old.weight(row_key.len(), family_names))
            });
            let new_weight = new.weight(row_key.len(), family_names);
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
                // Frozen by a load since it was written: copied out
                // first, as a write would copy it.
                let Some(frozen) = self.segment.find_row(&dead.row) else {
                    continue;
                };
                let column = self
                    .segment
                    .find_column(frozen, dead.family, &dead.qualifier);
                if !column.is_some_and(|c| is_dead(self.segment.stored(frozen, c))) {
                    continue; // overwritten since
                }
                let columns = self.segment.take_row(frozen, 0, |_| true);
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
            self.byte_size -= tombstone.stored().weight(dead.row.len(), family_names);
            if row.columns.is_empty() {
                self.memstore.remove(&dead.row);
                self.row_count -= 1;
            }
        }
    }

    /// A load of no rows: freezes the memstore into the segment, merged
    /// with the rows already there (see the module docs). What every read
    /// returns and bills is unchanged; no cost is charged.
    #[cfg(test)]
    pub(crate) fn flush(&mut self) {
        self.load(&[], &[], 0, &[]);
    }

    /// Writes `rows` into the region as `mutate_row` calls of them would
    /// and then freezes the memstore with them: one new segment of the old
    /// one, the memstore and the rows (see [`crate::bulk`]). Each row is a
    /// key and its range of `columns`, in the order written and stamped;
    /// the rows are sorted by key, and rows of one key come in the order
    /// written. First the tombstones a write at `now`, the last row's
    /// tick, would purge are purged. No cost is charged.
    pub(crate) fn load(
        &mut self,
        rows: &[LoadedRow<'_>],
        columns: &[Stored<'_>],
        now: u64,
        family_names: &[Arc<str>],
    ) {
        if rows.is_empty() && self.memstore.is_empty() {
            return;
        }
        if !rows.is_empty() {
            self.purge_tombstones(now, family_names);
        }
        let (segment, memstore) = (take(&mut self.segment), take(&mut self.memstore));
        let mut merged = Vec::with_capacity(columns.len());
        let mut merged_rows = Vec::with_capacity(rows.len());
        // A key's old columns and written ones, each with its arrival.
        let mut arrived: Vec<(Stored<'_>, usize)> = Vec::new();
        for group in rows.chunk_by(|a, b| a.0 == b.0) {
            let key = group[0].0;
            let old = match memstore.get(key) {
                Some(row) => Some(RowView::Memstore(&row.columns)),
                None => segment
                    .find_row(key)
                    .map(|row| RowView::Frozen(&segment, row)),
            };
            let start = merged.len();
            let written = &columns[group[0].1.clone()];
            let sorted = written
                .windows(2)
                .all(|w| (w[0].family, w[0].qualifier) < (w[1].family, w[1].qualifier));
            if old.is_none() && group.len() == 1 && sorted {
                merged.extend_from_slice(written);
            } else {
                arrived.clear();
                if let Some(old) = &old {
                    old.for_each_selected(None, |c| arrived.push((c, arrived.len())));
                }
                for (_, range) in group {
                    for &c in &columns[range.clone()] {
                        arrived.push((c, arrived.len()));
                    }
                }
                // Each column's versions in arrival order, of which a
                // version replaces the stored one unless it is older.
                arrived.sort_unstable_by(|(a, i), (b, j)| {
                    (a.family, a.qualifier, i).cmp(&(b.family, b.qualifier, j))
                });
                let same = |(a, _): &(Stored<'_>, usize), (b, _): &(Stored<'_>, usize)| {
                    (a.family, a.qualifier) == (b.family, b.qualifier)
                };
                for versions in arrived.chunk_by(same) {
                    let newest =
                        versions.iter().fold(versions[0], |stored, &version| {
                            match version.0.order_key() < stored.0.order_key() {
                                true => stored,
                                false => version,
                            }
                        });
                    merged.push(newest.0);
                }
            }
            // A written tombstone waits for its grace window to pass; an
            // old one is queued already.
            for c in &merged[start..] {
                let queued = |old: &RowView<'_>| {
                    let stored = old.column(c.family, c.qualifier);
                    stored.is_some_and(|o| o.value.is_none() && o.ts == c.ts)
                };
                if c.value.is_none() && !old.as_ref().is_some_and(queued) {
                    self.purge_queue.push(Reverse(DeadColumn {
                        ts: c.ts,
                        row: Bytes::copy_from_slice(key),
                        family: c.family,
                        qualifier: Bytes::copy_from_slice(c.qualifier),
                    }));
                }
            }
            // The accounting: the row's old columns out, its new ones in.
            match &old {
                Some(old) => old.for_each_selected(None, |c| {
                    self.kv_count -= u64::from(c.value.is_some());
                    self.byte_size -= c.weight(key.len(), family_names);
                }),
                None => self.row_count += 1,
            }
            for c in &merged[start..] {
                self.kv_count += u64::from(c.value.is_some());
                self.byte_size += c.weight(key.len(), family_names);
            }
            merged_rows.push((key, start..merged.len()));
        }
        self.segment = segment.merged(&memstore, &merged_rows, &merged);
    }

    /// Walks the stored columns of one row in the given family indices
    /// (`None` = all) and appends each visible one to the row `out` is
    /// writing, in `(family, qualifier)` order. Returns what the walk
    /// scanned. The bytes it copies from a frozen row, and the row's key,
    /// are reserved at once; a row that a projected scan merely walks over
    /// (all its cells in other families) costs no heap traffic.
    fn lend_row(
        key: Key<'_>,
        row: &RowView<'_>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        out: &mut RowBatch,
    ) -> ReadCost {
        if let RowView::Frozen(..) = row {
            let mut bytes = key.len();
            row.for_each_selected(families, |c| {
                bytes += c.qualifier.len() + c.value.map_or(0, <[u8]>::len);
            });
            out.reserve_bytes(bytes);
        }
        let mut cost = ReadCost::default();
        row.for_each_selected(families, |column| {
            // Every stored column is touched by the read path, a
            // retained tombstone included.
            cost.kvs_scanned += 1;
            if column.value.is_some() {
                cost.bytes_scanned += column.weight(key.len(), family_names);
                column.lend(family_names, out);
            }
        });
        cost
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
        let key = Key::whole(key);
        let mut cost = Self::lend_row(key, &row, family_names, families, out);
        if let Some(row) = out.open_row(key) {
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
        for (visited, (key, row)) in self.rows(next_key, stop).enumerate() {
            if visited == max_rows {
                next_key.clear();
                key.write_from(0, next_key);
                return (cost, true);
            }
            let scanned = Self::lend_row(key, &row, family_names, families, out);
            cost.kvs_scanned += scanned.kvs_scanned;
            cost.bytes_scanned += scanned.bytes_scanned;
            match out.open_row(key) {
                Some(row) if filter.is_none_or(|f| f.accept(row)) => {
                    cost.kvs_returned += row.kv_count();
                    cost.bytes_returned += row.weight();
                    out.commit_row(key);
                }
                Some(_) => out.discard_row(),
                None => {}
            }
        }
        (cost, false)
    }

    /// Lends every row with a visible cell to `visit`, in key order, each
    /// read alone into `batch`. Bills nothing (the admin walk).
    pub(crate) fn for_each_row(
        &self,
        family_names: &[Arc<str>],
        batch: &mut RowBatch,
        mut visit: impl FnMut(RowRef<'_>),
    ) {
        for (key, row) in self.rows(&[], None) {
            batch.clear();
            Self::lend_row(key, &row, family_names, None, batch);
            if let Some(row) = batch.open_row(key) {
                visit(row);
            }
        }
    }

    /// Row keys in ascending order (rebalancing support).
    pub(crate) fn row_keys(&self) -> impl Iterator<Item = Key<'_>> {
        self.rows(&[], None).map(|(key, _)| key)
    }

    /// The median row key, used as an auto-split point. `None` if the
    /// region has fewer than two rows.
    pub(crate) fn split_point(&self) -> Option<Vec<u8>> {
        if self.row_count < 2 {
            return None;
        }
        self.row_keys().nth(self.row_count / 2).map(Key::to_vec)
    }

    /// Stored rows, live KV count and stored bytes by a full walk: what
    /// the incrementally maintained `row_count`, `kv_count` and
    /// `byte_size` must equal.
    pub(crate) fn recount(&self, family_names: &[Arc<str>]) -> (usize, u64, u64) {
        let (mut rows, mut kvs, mut bytes) = (0, 0, 0);
        for (key, row) in self.rows(&[], None) {
            rows += 1;
            row.for_each_selected(None, |column| {
                kvs += u64::from(column.value.is_some());
                bytes += column.weight(key.len(), family_names);
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
#[path = "segment_tests.rs"]
mod segment_tests;

#[cfg(test)]
mod tests {
    use super::*;

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
        let (row, cost) = r.get_owned(b"k1", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap(), b"v1");
        assert_eq!(cost.kvs_scanned, 1);
        assert_eq!(r.kv_count(), 1);
    }

    #[test]
    fn newer_put_wins() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"old", 1);
        put(&mut r, b"k", 0, b"q", b"new", 5);
        let (row, _) = r.get_owned(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap(), b"new");
        assert_eq!(r.kv_count(), 1, "overwrite does not grow live count");
    }

    #[test]
    fn tombstone_hides_older_and_equal() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v", 5);
        let d = Mutation::delete_at("a", b"q", 5);
        r.mutate_row(b"k", [(0, &d)], 0, &fams());
        let (row, _) = r.get_owned(b"k", &fams(), None);
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
        let (row, _) = r.get_owned(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap(), b"v2");
    }

    #[test]
    fn out_of_order_timestamps_resolve_correctly() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"newest", 10);
        put(&mut r, b"k", 0, b"q", b"stale", 3);
        let (row, _) = r.get_owned(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap(), b"newest");
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

    /// A point read is a one-row scan: on a present row, an absent one,
    /// one whose projected family is empty and one holding only a
    /// tombstone, under every projection, `get_into` bills what a scan
    /// step from the key to `key ++ [0]` bills and leaves its batch holding
    /// the rows the scan's holds.
    #[test]
    fn a_point_read_bills_and_returns_what_a_one_row_scan_does() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"both", 0, b"q1", b"va", 1);
        put(&mut r, b"both", 0, b"q2", b"vaa", 1);
        put(&mut r, b"both", 1, b"q", b"vb", 1);
        put(&mut r, b"only-a", 0, b"q", b"va", 1);
        put(&mut r, b"dead", 1, b"q", b"vb", 1);
        let tombstone = Mutation::delete_at("b", b"q", 2);
        r.mutate_row(b"dead", [(1, &tombstone)], 0, &fams());

        let (mut got, mut scanned) = (RowBatch::new(), RowBatch::new());
        let keys: [&[u8]; 4] = [b"both", b"only-a", b"dead", b"absent"];
        for key in keys {
            let stop = [key, &[0]].concat();
            for families in [None, Some(&[0usize][..]), Some(&[1][..]), Some(&[0, 1][..])] {
                let cost = r.get_into(key, &fams(), families, &mut got);
                scanned.clear();
                let mut next_key = key.to_vec();
                let (scan_cost, more) = r.scan_batch_into(
                    &mut next_key,
                    Some(&stop),
                    &fams(),
                    families,
                    None,
                    2,
                    &mut scanned,
                );
                assert!(!more);
                assert_eq!(cost, scan_cost, "{key:?} {families:?}");
                assert!(got.iter().eq(scanned.iter()), "{key:?} {families:?}");
            }
        }
        // The tombstone is touched and billed, the row is not returned.
        let dead = r.get_into(b"dead", &fams(), Some(&[1]), &mut got);
        assert_eq!((dead.kvs_scanned, dead.kvs_returned), (1, 0));
        assert!(got.is_empty());
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
        assert!(r.row_keys().all(|k| k.cmp_bytes(&split).is_lt()));
        assert!(upper.row_keys().all(|k| k.cmp_bytes(&split).is_ge()));
        assert_eq!(upper.node(), 1);
        assert_eq!(r.kv_count() + upper.kv_count(), 10);
    }

    /// Applies `m` (family `a`) to `key` with the cluster clock at `now`.
    pub(super) fn apply(region: &mut Region, key: &[u8], m: &Mutation, now: u64) {
        region.mutate_row(key, [(0, m)], now, &fams());
    }

    pub(super) fn value_of(region: &Region, key: &[u8]) -> Option<Vec<u8>> {
        let (row, _) = region.get_owned(key, &fams(), None);
        row.and_then(|r| r.value("a", b"q").map(|v| v.to_vec()))
    }

    pub(super) fn assert_accounting_matches_a_recount(region: &Region) {
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
        let (_, cost) = r.get_owned(b"k", &fams(), None);
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
        let (_, cost) = r.get_owned(b"k", &fams(), None);
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
            let (row, cost) = r.get_owned(b"wide", &fams(), None);
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
}
