//! Regions: contiguous row-key ranges of a table, each hosted on one node.
//!
//! A region stores its rows in a `BTreeMap`, mirroring HBase's sorted
//! key-value files: point reads are cheap, and scans stream rows in
//! ascending key order.
//!
//! # Row layout
//!
//! A row is one vector of `(family index, qualifier, version)` columns
//! sorted by `(family, qualifier)` — the order a read returns cells in.
//! A column is found by binary search, a family is one contiguous slice,
//! and a row created by a `mutate_row` call is allocated once, sized for
//! that call's mutations. Every table this workspace builds is narrow
//! (base rows hold 3–4 columns, an ISL index row one, a DRJN row one per
//! partition), so the shifting insert a later, wider write pays is a few
//! dozen bytes; a 2 000-column row still costs only milliseconds in total.
//! What the layout buys is the heap: a one-column index row costs one
//! 48-byte allocation here where a per-family `BTreeMap` cost a ≈ 540-byte
//! leaf per family — at TPC-H SF 0.01 with Q1's and Q2's four indices
//! built, live heap went from 8.6× the stored bytes
//! ([`Region::byte_size`]) to 3.6×, and to 3.3× once the loader shared
//! its column names and join keys (the base tables alone: 2.9× → 2.2×).
//!
//! A column stores the qualifier and value handles of the mutation that
//! wrote it, not copies, and its family as an index into the table's
//! names. So a write allocates here only a new row's key and column
//! vector, or the growth of a widened row's vector or of the tombstone
//! queue; the bytes behind a handle the writer shared across tables (a
//! §6 insert's row-key qualifier and value-score payload) are held once
//! for all of them. Billing and [`Region::byte_size`] count every
//! column's bytes as its own, however they are held.
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
//! it once empty. The window is safety, not tuning: a concurrent
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;

use crate::cell::{Cell, Mutation};
use crate::filter::ServerFilter;
use crate::row::{RowBatch, RowResult};

/// Cluster-clock ticks a tombstone outlives its own timestamp before the
/// region drops it (see the module docs). Every `mutate_row` and every
/// `Cluster::next_ts` is one tick, so a maintained insert or delete with
/// three indices attached is about six.
pub const TOMBSTONE_GRACE_TICKS: u64 = 1024;

/// The stored version of one column: a put or a tombstone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Version {
    /// A value written at a timestamp.
    Put(u64, Bytes),
    /// A delete tombstone at a timestamp; shadows versions at the same or
    /// earlier timestamps.
    Tombstone(u64),
}

impl Version {
    /// Newer wins; at equal timestamps tombstones shadow puts.
    fn order_key(&self) -> (u64, u8) {
        match self {
            Version::Tombstone(ts) => (*ts, 1),
            Version::Put(ts, _) => (*ts, 0),
        }
    }

    /// The value and its timestamp, if this version is a put.
    fn visible(&self) -> Option<(u64, &Bytes)> {
        match self {
            Version::Put(ts, v) => Some((*ts, v)),
            Version::Tombstone(_) => None,
        }
    }

    fn value_len(&self) -> u64 {
        self.visible().map_or(0, |(_, v)| v.len() as u64)
    }
}

/// Stored bytes of one column: [`Cell::weight`] for a put, the same
/// without a value for a tombstone (what [`Mutation::weight`] charged for
/// the write that stored it).
fn stored_weight(row_key: &[u8], family: &str, qualifier: &[u8], version: &Version) -> u64 {
    (row_key.len() + family.len() + qualifier.len() + 8) as u64 + version.value_len()
}

/// One stored column. Qualifiers are refcounted so reads hand them out
/// without copying.
#[derive(Clone, Debug)]
struct Column {
    /// Index into the table's family list.
    family: usize,
    qualifier: Bytes,
    /// The column's newest version.
    version: Version,
}

/// Row payload: the stored columns, sorted by `(family, qualifier)` (see
/// the module docs).
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

    /// The stored columns of one family.
    fn family(&self, family: usize) -> &[Column] {
        let start = self.columns.partition_point(|c| c.family < family);
        let len = self.columns[start..].partition_point(|c| c.family == family);
        &self.columns[start..start + len]
    }

    /// The stored columns a read of `families` touches (`None` = all), in
    /// `(family, qualifier)` order: the projection's families one slice
    /// each, or the whole row as one.
    fn selected<'a>(&'a self, families: Option<&'a [usize]>) -> impl Iterator<Item = &'a Column> {
        let projected = families.into_iter().flatten();
        let whole: &[Column] = if families.is_none() {
            &self.columns
        } else {
            &[]
        };
        projected
            .flat_map(move |&family| self.family(family))
            .chain(whole)
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
    /// Row keys are refcounted so the purge queue names a row without
    /// copying its key.
    rows: BTreeMap<Bytes, RowData>,
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
            rows: BTreeMap::new(),
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
        self.rows.len()
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

    /// Applies mutations to one row atomically, after dropping the
    /// region's tombstones whose grace window `now` has passed. Returns
    /// bytes written (every mutation's wire size, stale ones included).
    ///
    /// Each mutation comes with its schema family index (validated by the
    /// table before routing here); `now` is the timestamp of unpinned
    /// mutations.
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
        if !self.rows.contains_key(row_key) {
            // Sized for this call's mutations: every caller's iterator
            // reports how many it can yield at most, and yields them all.
            let (at_least, at_most) = muts.size_hint();
            let columns = Vec::with_capacity(at_most.unwrap_or(at_least));
            self.rows
                .insert(Bytes::copy_from_slice(row_key), RowData { columns });
        }
        let mut bytes = 0u64;
        let one_row = (Bound::Included(row_key), Bound::Included(row_key));
        if let Some((row_handle, row)) = self.rows.range_mut::<[u8], _>(one_row).next() {
            for (fam_idx, m) in muts {
                bytes += m.weight(row_key.len());
                let (qualifier, version) = match m {
                    Mutation::Put {
                        qualifier,
                        value,
                        timestamp,
                        ..
                    } => (
                        qualifier,
                        Version::Put(timestamp.unwrap_or(now), value.clone()),
                    ),
                    Mutation::Delete {
                        qualifier,
                        timestamp,
                        ..
                    } => (qualifier, Version::Tombstone(timestamp.unwrap_or(now))),
                };
                let slot = row.find(fam_idx, qualifier);
                if slot.is_ok_and(|at| version.order_key() < row.columns[at].version.order_key()) {
                    continue; // stale on arrival: the stored version is newer
                }
                if let Version::Tombstone(ts) = version {
                    self.purge_queue.push(Reverse(DeadColumn {
                        ts,
                        row: row_handle.clone(),
                        family: fam_idx,
                        qualifier: qualifier.clone(),
                    }));
                }
                let family = &family_names[fam_idx];
                let now_visible = version.visible().is_some();
                let new_weight = stored_weight(row_key, family, qualifier, &version);
                let (was_visible, old_weight) = match slot {
                    Ok(at) => {
                        let old = std::mem::replace(&mut row.columns[at].version, version);
                        let old_weight = stored_weight(row_key, family, qualifier, &old);
                        (old.visible().is_some(), old_weight)
                    }
                    Err(at) => {
                        let column = Column {
                            family: fam_idx,
                            qualifier: qualifier.clone(),
                            version,
                        };
                        row.columns.insert(at, column);
                        (false, 0)
                    }
                };
                self.kv_count = self.kv_count + u64::from(now_visible) - u64::from(was_visible);
                self.byte_size = self.byte_size + new_weight - old_weight;
            }
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
            let Some(row) = self.rows.get_mut(&dead.row) else {
                continue;
            };
            let tombstone = Version::Tombstone(dead.ts);
            let Some(at) = row
                .find(dead.family, &dead.qualifier)
                .ok()
                .filter(|&at| row.columns[at].version == tombstone)
            else {
                continue; // overwritten since; a newer tombstone has its own entry
            };
            row.columns.remove(at);
            self.byte_size -= stored_weight(
                &dead.row,
                &family_names[dead.family],
                &dead.qualifier,
                &tombstone,
            );
            if row.columns.is_empty() {
                self.rows.remove(&dead.row);
            }
        }
    }

    /// Walks the stored columns of one row in the given family indices
    /// (`None` = all) and hands each visible cell to `emit`, in
    /// `(family, qualifier)` order. Returns what the walk scanned. A cell
    /// is a set of refcounted handles, so the walk itself allocates
    /// nothing: a row that a projected scan merely walks over (all its
    /// cells in other families) costs no heap traffic.
    fn read_row(
        key: &[u8],
        data: &RowData,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        mut emit: impl FnMut(Cell),
    ) -> ReadCost {
        let mut cost = ReadCost::default();
        for column in data.selected(families) {
            // Every stored column is touched by the read path, a
            // retained tombstone included.
            cost.kvs_scanned += 1;
            if let Some((ts, value)) = column.version.visible() {
                let cell = Cell {
                    family: Arc::clone(&family_names[column.family]),
                    qualifier: column.qualifier.clone(),
                    timestamp: ts,
                    value: value.clone(),
                };
                cost.bytes_scanned += cell.weight(key.len());
                emit(cell);
            }
        }
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
        let Some(data) = self.rows.get(key) else {
            return (None, ReadCost::default());
        };
        let mut cells = Vec::new();
        let mut cost = Self::read_row(key, data, family_names, families, |cell| {
            if cells.is_empty() {
                cells.reserve_exact(data.selected(families).count());
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
        let Some(data) = self.rows.get(key) else {
            return ReadCost::default();
        };
        let mut cost = Self::read_row(key, data, family_names, families, |cell| {
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
        let range = self
            .rows
            .range::<[u8], _>((Bound::Included(&next_key[..]), Bound::Unbounded));
        for (visited, (key, data)) in range.enumerate() {
            if stop.is_some_and(|stop| &key[..] >= stop) {
                break;
            }
            if visited == max_rows {
                next_key.clear();
                next_key.extend_from_slice(key);
                return (cost, true);
            }
            let scanned = Self::read_row(key, data, family_names, families, |cell| {
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
        self.rows.keys().map(|k| &k[..])
    }

    /// The median row key, used as an auto-split point. `None` if the
    /// region has fewer than two rows.
    pub(crate) fn split_point(&self) -> Option<Vec<u8>> {
        if self.rows.len() < 2 {
            return None;
        }
        self.row_keys().nth(self.rows.len() / 2).map(<[u8]>::to_vec)
    }

    /// Live KV count and stored bytes by a full walk: what the
    /// incrementally maintained `kv_count` and `byte_size` must equal.
    pub(crate) fn recount(&self, family_names: &[Arc<str>]) -> (u64, u64) {
        let mut kvs = 0u64;
        let mut bytes = 0u64;
        for (key, data) in &self.rows {
            for column in &data.columns {
                let family = &family_names[column.family];
                kvs += u64::from(column.version.visible().is_some());
                bytes += stored_weight(key, family, &column.qualifier, &column.version);
            }
        }
        (kvs, bytes)
    }

    /// Splits off rows `>= split_key` into a new region hosted on `node`.
    pub(crate) fn split_off(
        &mut self,
        split_key: &[u8],
        node: usize,
        family_names: &[Arc<str>],
    ) -> Region {
        let mut upper = Region::new(split_key.to_vec(), node);
        upper.rows = self.rows.split_off(split_key);
        let (moved, kept) = std::mem::take(&mut self.purge_queue)
            .into_iter()
            .partition(|Reverse(dead)| &dead.row[..] >= split_key);
        upper.purge_queue = moved;
        self.purge_queue = kept;
        // Recompute accounting on both sides (splits are rare).
        (self.kv_count, self.byte_size) = self.recount(family_names);
        (upper.kv_count, upper.byte_size) = upper.recount(family_names);
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
        assert_eq!(
            (region.kv_count(), region.byte_size()),
            region.recount(&fams())
        );
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
}
