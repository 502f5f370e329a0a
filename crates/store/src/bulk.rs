//! Bulk loads: rows written straight into region segments, as HBase's
//! `HFileOutputFormat2` writes store files and `completebulkload` adopts
//! them (see [`crate::region`] for where a segment sits).
//!
//! A load has two halves. Each writer (the TPC-H loader, or one task of
//! a MapReduce job) **stages** its rows in a [`BulkLoad`] of its own
//! through [`Client::stage`], which bills each row exactly what
//! [`Client::mutate_row`] of it bills, on the same client and in the same
//! order, and copies its bytes into the load's flat buffers. Then
//! [`Cluster::bulk_load`] **applies** every load of one table at once, in
//! the order given. It takes one clock tick per staged row, in that
//! order, so a job's timestamps follow its task order whatever the pool
//! width. It places every row with its region as a counting sort does:
//! it counts the rows per region, sums the counts into starts and places
//! each row at its region's next slot, in one flat array. Each region then sorts its
//! rows by key (equal keys in arrival order) and builds one segment from
//! its old segment, its memstore and the new rows, keeping each column's
//! newest version as `mutate_row` would (see `Region::load`). The regions
//! are built by one pool batch, one task each, and nothing is billed.
//!
//! A region then reads, bills and counts exactly as if each row had gone
//! through `mutate_row` at its tick and the table had been flushed, with
//! one difference that no caller meets: a tombstone a load writes is
//! purged by the region's next write, not by a later row of the same load.
//! A region that a load leaves oversized splits at its median afterwards.

use std::ops::Range;
use std::sync::Arc;

use crate::cell::Mutation;
use crate::client::Client;
use crate::cluster::Cluster;
use crate::error::{Result, StoreError};
use crate::region::Stored;
use crate::table::Table;

/// Rows staged for a bulk load of one table: billed, not yet written
/// (see the module docs). Its bytes sit in one buffer, so staging a row
/// allocates nothing once the buffers have grown.
pub struct BulkLoad {
    table: Arc<Table>,
    /// Every row's key, then each of its columns' qualifier and value,
    /// back to back.
    bytes: Vec<u8>,
    rows: Vec<StagedRow>,
    columns: Vec<StagedColumn>,
}

/// A staged row: its key and its columns, in the order written.
struct StagedRow {
    key: Range<usize>,
    columns: Range<usize>,
}

/// A staged column: `bytes[start..split]` is its qualifier and, for a
/// put, `bytes[split..end]` its value.
struct StagedColumn {
    family: usize,
    start: usize,
    split: usize,
    end: usize,
    put: bool,
    /// Pinned timestamp; `None` takes the row's tick.
    ts: Option<u64>,
}

impl BulkLoad {
    /// An empty load into `table`.
    pub fn new(table: Arc<Table>) -> Self {
        BulkLoad {
            table,
            bytes: Vec::new(),
            rows: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Rows staged so far.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Staged row `row`'s key.
    pub(crate) fn key(&self, row: usize) -> &[u8] {
        &self.bytes[self.rows[row].key.clone()]
    }

    /// How many columns staged row `row` writes.
    pub(crate) fn width(&self, row: usize) -> usize {
        self.rows[row].columns.len()
    }

    /// Staged row `row`'s columns as stored at tick `now`, in the order
    /// written.
    pub(crate) fn columns(&self, row: usize, now: u64) -> impl Iterator<Item = Stored<'_>> {
        self.columns[self.rows[row].columns.clone()]
            .iter()
            .map(move |c| Stored {
                family: c.family,
                qualifier: &self.bytes[c.start..c.split],
                ts: c.ts.unwrap_or(now),
                value: c.put.then(|| &self.bytes[c.split..c.end]),
                column: None,
            })
    }

    /// Copies row `row`'s `mutations` in; every family is the table's.
    fn push(&mut self, row: &[u8], mutations: &[Mutation]) {
        let key = self.bytes.len()..self.bytes.len() + row.len();
        self.bytes.extend_from_slice(row);
        let first = self.columns.len();
        for m in mutations {
            let Ok(family) = self.table.family_index(m.family()) else {
                continue;
            };
            let (qualifier, value, ts) = match m {
                Mutation::Put {
                    qualifier,
                    value,
                    timestamp,
                    ..
                } => (qualifier, Some(value), timestamp),
                Mutation::Delete {
                    qualifier,
                    timestamp,
                    ..
                } => (qualifier, None, timestamp),
            };
            let start = self.bytes.len();
            self.bytes.extend_from_slice(qualifier);
            let split = self.bytes.len();
            self.bytes
                .extend_from_slice(value.map_or(&[][..], |v| &v[..]));
            self.columns.push(StagedColumn {
                family,
                start,
                split,
                end: self.bytes.len(),
                put: value.is_some(),
                ts: *ts,
            });
        }
        let columns = first..self.columns.len();
        self.rows.push(StagedRow { key, columns });
    }
}

impl Client {
    /// Stages `mutations` to row `row` in `load` (see [`crate::bulk`]),
    /// billing exactly what [`Client::mutate_row`] of them bills: one
    /// write of every mutation's weight to the node serving the row. The
    /// row is written, at a clock tick of its own, when the load is
    /// applied ([`Cluster::bulk_load`]). An empty key or an unknown
    /// family fails the call before anything is staged or billed.
    pub fn stage(&self, load: &mut BulkLoad, row: &[u8], mutations: &[Mutation]) -> Result<()> {
        if row.is_empty() {
            return Err(StoreError::InvalidArgument("empty row key"));
        }
        for m in mutations {
            load.table.family_index(m.family())?;
        }
        load.push(row, mutations);
        let bytes = mutations.iter().map(|m| m.weight(row.len())).sum();
        self.charge_write(load.table.node_of(row), mutations.len(), bytes);
        Ok(())
    }
}

impl Cluster {
    /// Applies `loads`, in order, to `table` (see [`crate::bulk`]): one
    /// clock tick per staged row, then one segment build per region, its
    /// memstore frozen with it. With no loads it freezes every memstore,
    /// as an HBase memstore flush does. An admin operation: the rows were
    /// billed when staged. Fails, applying nothing, if a load stages another table's
    /// rows.
    pub fn bulk_load(&self, table: &str, loads: &[BulkLoad]) -> Result<()> {
        let table = self.table(table)?;
        if loads.iter().any(|load| !Arc::ptr_eq(&load.table, &table)) {
            return Err(StoreError::InvalidArgument("a bulk load of another table"));
        }
        let rows: usize = loads.iter().map(BulkLoad::len).sum();
        table.load(loads, self.reserve_ticks(rows as u64));
        Ok(())
    }
}

/// A staged row placed with its region: its key, its tick and where it
/// is staged.
#[derive(Clone, Copy)]
pub(crate) struct Placed<'a> {
    pub(crate) key: &'a [u8],
    pub(crate) tick: u64,
    pub(crate) load: usize,
    pub(crate) row: usize,
}

/// Every staged row of `loads` that writes a column, the `i`th of all at
/// tick `first + i`, grouped by the region `route` names for its key: the
/// rows of region `r` are `placed[starts[r]..starts[r + 1]]`, in arrival
/// order. Counted, prefix-summed and placed (see the module docs).
pub(crate) fn place<'a>(
    loads: &'a [BulkLoad],
    first: u64,
    regions: usize,
    route: impl Fn(&[u8]) -> usize,
) -> (Vec<Placed<'a>>, Vec<usize>) {
    let rows = || {
        let mut tick = first;
        loads.iter().enumerate().flat_map(move |(load, staged)| {
            let at = tick;
            tick += staged.len() as u64;
            (0..staged.len())
                .filter(move |&row| staged.width(row) > 0)
                .map(move |row| Placed {
                    key: staged.key(row),
                    tick: at + row as u64,
                    load,
                    row,
                })
        })
    };
    // Each row's region, routed once for both passes.
    let mut homes = Vec::with_capacity(loads.iter().map(BulkLoad::len).sum());
    homes.extend(rows().map(|row| route(row.key)));
    let mut starts = vec![0; regions + 1];
    for &home in &homes {
        starts[home + 1] += 1;
    }
    for r in 0..regions {
        starts[r + 1] += starts[r];
    }
    let mut next = starts.clone();
    let empty = Placed {
        key: &[],
        tick: 0,
        load: 0,
        row: 0,
    };
    let mut placed = vec![empty; starts[regions]];
    for (row, home) in rows().zip(homes) {
        placed[next[home]] = row;
        next[home] += 1;
    }
    (placed, starts)
}

/// A loaded row as `Region::load` takes it: its key and its range of
/// the load's columns.
pub(crate) type LoadedRow<'a> = (&'a [u8], Range<usize>);

/// One region's placed rows, sorted by key with equal keys in arrival
/// order, as `Region::load` takes them: each key with its range of the
/// returned columns, stored at its tick, and the region's last tick.
pub(crate) fn region_rows<'a>(
    loads: &'a [BulkLoad],
    placed: &mut [Placed<'a>],
) -> (Vec<LoadedRow<'a>>, Vec<Stored<'a>>, u64) {
    // Ticks are distinct, so this is a stable sort by key; unstable
    // sorting measured faster on ISL builds' rows.
    placed.sort_unstable_by(|a, b| a.key.cmp(b.key).then(a.tick.cmp(&b.tick)));
    let width = placed.iter().map(|p| loads[p.load].width(p.row)).sum();
    let mut columns = Vec::with_capacity(width);
    let mut rows = Vec::with_capacity(placed.len());
    for p in placed.iter() {
        let start = columns.len();
        columns.extend(loads[p.load].columns(p.row, p.tick));
        rows.push((p.key, start..columns.len()));
    }
    let now = placed.iter().map(|p| p.tick).max().unwrap_or(0);
    (rows, columns, now)
}
