//! Tables: named, schema'd (column families), split into regions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::bulk::{self, BulkLoad};
use crate::cell::Mutation;
use crate::error::{Result, StoreError};
use crate::filter::ServerFilter;
use crate::pool::WorkStealingPool;
use crate::region::{Checked, ReadCost, Region};
use crate::row::{RowBatch, RowRef, RowResult};

/// Metadata about one region, as exposed to the MapReduce engine for
/// locality-aware task placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// Inclusive start key (empty = table start).
    pub start: Vec<u8>,
    /// Exclusive end key (`None` = table end).
    pub end: Option<Vec<u8>>,
    /// Hosting node.
    pub node: usize,
    /// Row count at snapshot time.
    pub rows: usize,
    /// Live KV count at snapshot time.
    pub kvs: u64,
    /// Approximate stored bytes at snapshot time.
    pub bytes: u64,
}

/// What one table-level scan step did, beside filling the caller's
/// [`RowBatch`].
pub(crate) struct ScanStep {
    /// Server-side accounting.
    pub cost: ReadCost,
    /// Node that served the step.
    pub node: usize,
    /// Whether the scan continues (the caller's key then holds the resume
    /// position).
    pub more: bool,
}

/// A family projection resolved to schema indices, sorted and distinct
/// ([`Table::resolve_families`]). One family — what every index read and
/// index scan projects — is held inline, so resolving it allocates
/// nothing.
#[derive(Clone)]
pub(crate) enum Families {
    All,
    One([usize; 1]),
    Many(Vec<usize>),
}

impl Families {
    /// The projected schema indices, `None` for every family.
    pub(crate) fn indices(&self) -> Option<&[usize]> {
        match self {
            Families::All => None,
            Families::One(one) => Some(one),
            Families::Many(many) => Some(many),
        }
    }
}

/// An ordered, sharded collection of rows.
pub struct Table {
    /// Shared by handle with every detached [`crate::client::ScannerState`].
    name: Arc<str>,
    /// Family names, shared by handle with every [`crate::cell::Cell`]
    /// read from this table.
    families: Vec<Arc<str>>,
    regions: RwLock<Vec<RwLock<Region>>>,
    /// Rows per region before an auto-split triggers.
    split_threshold: AtomicUsize,
    num_nodes: usize,
    /// Round-robin cursor for placing split-off regions.
    next_node: AtomicUsize,
}

impl Table {
    pub(crate) fn new(
        name: &str,
        families: &[&str],
        split_keys: &[Vec<u8>],
        num_nodes: usize,
    ) -> Self {
        let mut starts: Vec<Vec<u8>> = Vec::with_capacity(split_keys.len() + 1);
        starts.push(Vec::new());
        let mut sorted: Vec<Vec<u8>> = split_keys.to_vec();
        sorted.sort();
        sorted.dedup();
        starts.extend(sorted.into_iter().filter(|k| !k.is_empty()));
        let regions = starts
            .into_iter()
            .enumerate()
            .map(|(i, start)| RwLock::new(Region::new(start, i % num_nodes)))
            .collect();
        Table {
            name: Arc::from(name),
            families: families.iter().map(|f| Arc::from(*f)).collect(),
            regions: RwLock::new(regions),
            split_threshold: AtomicUsize::new(1 << 20),
            num_nodes,
            next_node: AtomicUsize::new(split_keys.len() + 1),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table name's shared handle (a detached scanner position or a
    /// parked query names its table without copying it).
    pub fn name_handle(&self) -> Arc<str> {
        self.name.clone()
    }

    /// Column family names, in schema order.
    pub fn families(&self) -> &[Arc<str>] {
        &self.families
    }

    /// Rows-per-region limit beyond which regions auto-split (HBase's
    /// size-based split policy, keyed on rows here). Builders that know
    /// their key distribution should pre-split instead for determinism.
    pub fn set_split_threshold(&self, rows: usize) {
        self.split_threshold.store(rows.max(2), Ordering::Relaxed);
    }

    /// Schema index of a family.
    pub fn family_index(&self, family: &str) -> Result<usize> {
        self.families
            .iter()
            .position(|f| **f == *family)
            .ok_or_else(|| StoreError::FamilyNotFound {
                table: self.name.to_string(),
                family: family.to_owned(),
            })
    }

    /// A family projection (`None` = every family) resolved against this
    /// table's schema.
    pub(crate) fn resolve_families(&self, names: Option<&[String]>) -> Result<Families> {
        match names {
            None => Ok(Families::All),
            Some([one]) => Ok(Families::One([self.family_index(one)?])),
            Some(ns) => {
                let mut ids = ns
                    .iter()
                    .map(|n| self.family_index(n))
                    .collect::<Result<Vec<_>>>()?;
                // Dedup: projections often name the same family for several
                // columns (join + score in one family); reading it twice
                // would double both results and billing.
                ids.sort_unstable();
                ids.dedup();
                Ok(Families::Many(ids))
            }
        }
    }

    /// Index of the region serving `key`.
    fn region_index(regions: &[RwLock<Region>], key: &[u8]) -> usize {
        // Regions are sorted by start key; find the last start <= key.
        let mut lo = 0usize;
        let mut hi = regions.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if regions[mid].read().start_key() <= key {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Region metadata snapshot, in key order.
    pub fn region_infos(&self) -> Vec<RegionInfo> {
        let regions = self.regions.read();
        let mut infos = Vec::with_capacity(regions.len());
        for (i, r) in regions.iter().enumerate() {
            let r = r.read();
            let end = regions.get(i + 1).map(|n| n.read().start_key().to_vec());
            infos.push(RegionInfo {
                start: r.start_key().to_vec(),
                end,
                node: r.node(),
                rows: r.row_count(),
                kvs: r.kv_count(),
                bytes: r.byte_size(),
            });
        }
        infos
    }

    /// The encodings each region's segment chose, by name, one line per
    /// region in key order (see `crate::segment`): what shows that two
    /// builds of one table froze it alike.
    pub fn segment_encodings(&self) -> Vec<String> {
        let regions = self.regions.read();
        regions.iter().map(|r| r.read().encodings()).collect()
    }

    /// Total stored bytes — live cells plus tombstones still inside their
    /// grace window (the index-size experiment metric).
    pub fn disk_size(&self) -> u64 {
        self.regions
            .read()
            .iter()
            .map(|r| r.read().byte_size())
            .sum()
    }

    /// Total live KV count.
    pub fn kv_count(&self) -> u64 {
        self.regions
            .read()
            .iter()
            .map(|r| r.read().kv_count())
            .sum()
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.regions
            .read()
            .iter()
            .map(|r| r.read().row_count())
            .sum()
    }

    /// Applies mutations to one row atomically (HBase row-level atomicity,
    /// §6). Returns `(bytes written, serving node)`.
    pub(crate) fn mutate_row(
        &self,
        key: &[u8],
        muts: &[Mutation],
        default_ts: u64,
    ) -> Result<(u64, usize)> {
        let (_, bytes, node) = self.write_row(key, default_ts, |_| muts)?;
        Ok((bytes, node))
    }

    /// Applies `then` to one row atomically if every `check` column of
    /// `family` holds a visible value in it, `otherwise` if not (HBase's
    /// `checkAndMutate`): the check, the branch's building and its write
    /// run under one hold of the row's region lock. `then` is handed the
    /// row it checked. Returns whether the check held, the mutations
    /// applied, bytes written and the serving node.
    pub(crate) fn check_and_mutate_row<Q: AsRef<[u8]>, M: AsRef<[Mutation]>>(
        &self,
        key: &[u8],
        (family, check): (&str, &[Q]),
        then: impl FnOnce(&Checked<'_>) -> M,
        otherwise: impl FnOnce() -> M,
        default_ts: u64,
    ) -> Result<(bool, M, u64, usize)> {
        let family = self.family_index(family)?;
        let mut held = false;
        let (muts, bytes, node) = self.write_row(key, default_ts, |region| {
            match region.check(key, family, check) {
                Some(row) => {
                    held = true;
                    then(&row)
                }
                None => otherwise(),
            }
        })?;
        Ok((held, muts, bytes, node))
    }

    /// Applies the mutations `decide` picks, under the write lock of the
    /// region serving `key`, to that row atomically. Returns them, bytes
    /// written and the serving node.
    fn write_row<M: AsRef<[Mutation]>>(
        &self,
        key: &[u8],
        default_ts: u64,
        decide: impl FnOnce(&Region) -> M,
    ) -> Result<(M, u64, usize)> {
        if key.is_empty() {
            return Err(StoreError::InvalidArgument("empty row key"));
        }
        let (muts, bytes, node, needs_split) = {
            let regions = self.regions.read();
            let idx = Self::region_index(&regions, key);
            let mut region = regions[idx].write();
            let muts = decide(&region);
            // All or nothing: an unknown family fails the call before any
            // mutation is applied, so the second resolution below cannot
            // miss.
            for m in muts.as_ref() {
                self.family_index(m.family())?;
            }
            let resolved = muts
                .as_ref()
                .iter()
                .filter_map(|m| Some((self.family_index(m.family()).ok()?, m)));
            let bytes = region.mutate_row(key, resolved, default_ts, &self.families);
            let needs_split = region.row_count() > self.split_threshold.load(Ordering::Relaxed);
            (muts, bytes, region.node(), needs_split)
        };
        if needs_split {
            self.try_split(key);
        }
        Ok((muts, bytes, node))
    }

    /// Freezes every region's memstore into its segment, as an HBase
    /// memstore flush does (see [`crate::region`]): what reads return and
    /// bill is unchanged, and the rows take a fraction of the heap. A bulk
    /// load of nothing ([`crate::cluster::Cluster::bulk_load`]); loads and
    /// index builds write their segments directly, so only tests flush.
    #[cfg(test)]
    pub(crate) fn flush(&self) {
        self.load(&[], 0);
    }

    /// Writes the staged rows of `loads`, the `i`th of all at tick
    /// `first + i`, into the segments of the regions serving them, each
    /// region's memstore frozen with them (see [`crate::bulk`]). An admin
    /// operation: no cost is charged. Regions are independent, so each is
    /// built by its own task of one pool batch
    /// ([`WorkStealingPool::run_batch`]), and the segments are the same at
    /// every pool width.
    pub(crate) fn load(&self, loads: &[BulkLoad], first: u64) {
        {
            let regions = self.regions.read();
            let starts: Vec<Vec<u8>> = regions
                .iter()
                .map(|r| r.read().start_key().to_vec())
                .collect();
            let route = |key: &[u8]| starts.partition_point(|start| start[..] <= *key) - 1;
            let (mut placed, bounds) = bulk::place(loads, first, regions.len(), route);
            let mut rest = &mut placed[..];
            let mut tasks = Vec::with_capacity(regions.len());
            for (region, count) in regions.iter().zip(bounds.windows(2).map(|w| w[1] - w[0])) {
                let (mine, others) = std::mem::take(&mut rest).split_at_mut(count);
                rest = others;
                let task = move || {
                    let (rows, columns, now) = bulk::region_rows(loads, mine);
                    region.write().load(&rows, &columns, now, &self.families);
                };
                tasks.push(Box::new(task) as Box<dyn FnOnce() + Send + '_>);
            }
            WorkStealingPool::global().run_batch(tasks);
        }
        self.split_oversized();
    }

    /// Splits every region holding more rows than the split threshold at
    /// its median until none does: a load fills a region at once, where
    /// writes one by one would have split it as it grew.
    fn split_oversized(&self) {
        let threshold = self.split_threshold.load(Ordering::Relaxed);
        loop {
            let oversized = {
                let regions = self.regions.read();
                let region = regions.iter().find(|r| r.read().row_count() > threshold);
                region.map(|r| r.read().start_key().to_vec())
            };
            let Some(key) = oversized else { return };
            self.try_split(&key);
        }
    }

    /// Re-shards the table into up to `pieces` regions holding roughly
    /// equal row counts, splitting at row-count quantiles and placing
    /// split-off regions round-robin across nodes. Existing boundaries
    /// are kept (the operation only splits, never merges).
    ///
    /// An admin operation: no cost is charged. On a table whose layout
    /// hasn't been perturbed by order-dependent auto-splits (e.g. a
    /// scratch table with auto-splitting disabled via a huge
    /// [`Table::set_split_threshold`]), the resulting layout depends only
    /// on the table's content — not on the write order that produced it —
    /// so builders can obtain a deterministic balanced layout after a
    /// parallel load.
    pub fn rebalance(&self, pieces: usize) {
        let pieces = pieces.max(1);
        let mut regions = self.regions.write();
        // Locate the quantile keys without materializing the key set:
        // walk per-region row counts to the region holding each global
        // quantile index, then pick its nth key.
        let counts: Vec<usize> = regions.iter().map(|r| r.read().row_count()).collect();
        let total: usize = counts.iter().sum();
        if total < 2 {
            return;
        }
        let mut split_keys: Vec<Vec<u8>> = Vec::with_capacity(pieces - 1);
        for i in 1..pieces {
            let mut offset = i * total / pieces;
            let mut idx = 0usize;
            while offset >= counts[idx] {
                offset -= counts[idx];
                idx += 1;
            }
            if let Some(key) = regions[idx].read().row_keys().nth(offset) {
                split_keys.push(key.to_vec());
            }
        }
        split_keys.sort();
        split_keys.dedup();
        for split_key in split_keys {
            let idx = Self::region_index(&regions, &split_key);
            if regions[idx].read().start_key() == split_key.as_slice() {
                continue; // already a boundary
            }
            let node = self.next_node.fetch_add(1, Ordering::Relaxed) % self.num_nodes;
            let new_region = regions[idx]
                .write()
                .split_off(&split_key, node, &self.families);
            regions.insert(idx + 1, RwLock::new(new_region));
        }
    }

    /// Splits the region containing `key` at its median, if still oversized.
    fn try_split(&self, key: &[u8]) {
        let mut regions = self.regions.write();
        let idx = Self::region_index(&regions, key);
        let split = {
            let region = regions[idx].read();
            if region.row_count() <= self.split_threshold.load(Ordering::Relaxed) {
                return; // lost the race; someone else split already
            }
            region.split_point()
        };
        let Some(split_key) = split else { return };
        let node = self.next_node.fetch_add(1, Ordering::Relaxed) % self.num_nodes;
        let new_region = regions[idx]
            .write()
            .split_off(&split_key, node, &self.families);
        regions.insert(idx + 1, RwLock::new(new_region));
    }

    /// The node serving `key`.
    pub(crate) fn node_of(&self, key: &[u8]) -> usize {
        self.read_region(key, |_| ()).1
    }

    /// Runs `read` on the region serving `key`; returns what it returned
    /// and the serving node.
    fn read_region<T>(&self, key: &[u8], read: impl FnOnce(&Region) -> T) -> (T, usize) {
        let regions = self.regions.read();
        let region = regions[Self::region_index(&regions, key)].read();
        (read(&region), region.node())
    }

    /// Point read into the caller's batch (cleared first; the row is its
    /// only row afterwards, if it has a visible selected cell). `families`
    /// is a projection resolved by [`Table::resolve_families`]. Returns
    /// `(cost, serving node)`.
    pub(crate) fn get_into(
        &self,
        key: &[u8],
        families: Option<&[usize]>,
        out: &mut RowBatch,
    ) -> (ReadCost, usize) {
        self.read_region(key, |region| {
            region.get_into(key, &self.families, families, out)
        })
    }

    /// One scan step: visits up to `max_rows` rows of the region serving
    /// `*next_key`, bounded by `stop`, and appends the rows it returns to
    /// `out`. When the scan continues, `next_key` is overwritten with the
    /// resume position (which may be the start of the next region).
    /// `families` is a projection resolved by [`Table::resolve_families`].
    pub(crate) fn scan_batch_into(
        &self,
        next_key: &mut Vec<u8>,
        stop: Option<&[u8]>,
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
        out: &mut RowBatch,
    ) -> Result<ScanStep> {
        if max_rows == 0 {
            return Err(StoreError::InvalidArgument("scan batch size must be > 0"));
        }
        let regions = self.regions.read();
        let idx = Self::region_index(&regions, next_key);
        let region = regions[idx].read();
        // The next region stays read-locked for the step, so its start key
        // (this region's end) is compared in place, not copied. Locked
        // after this one: every holder of two region locks takes them in
        // ascending order.
        let next_region = regions.get(idx + 1).map(|r| r.read());
        let edge = next_region.as_deref().map(Region::start_key);

        // Bound the region scan by both the caller's stop key and the
        // region's end.
        let edge_first = edge.filter(|edge| stop.is_none_or(|s| *edge < s));
        let (cost, mut more) = region.scan_batch_into(
            next_key,
            edge_first.or(stop),
            &self.families,
            families,
            filter,
            max_rows,
            out,
        );
        // If the region is exhausted, continue into the next region (unless
        // the caller's stop bound ends the scan first).
        if let (false, Some(edge)) = (more, edge_first) {
            next_key.clear();
            next_key.extend_from_slice(edge);
            more = true;
        }
        Ok(ScanStep {
            cost,
            node: region.node(),
            more,
        })
    }

    /// The regions, in key order (tests compare two tables' regions).
    #[cfg(test)]
    pub(crate) fn regions(&self) -> parking_lot::RwLockReadGuard<'_, Vec<RwLock<Region>>> {
        self.regions.read()
    }

    #[cfg(test)]
    pub(crate) fn region_count(&self) -> usize {
        self.regions.read().len()
    }

    /// Visits every visible row in key order without any cost accounting
    /// — the admin walk behind a statistics pass (the "omniscient" view no
    /// real client has). Regions are disjoint and ordered, so walking them
    /// in turn is key order; each row is read alone into one reused batch,
    /// so the walk's heap use is its widest row's, whatever the table's
    /// size. `visit` runs under the read lock of the region it is shown a
    /// row of, so it must not write to this table.
    pub fn for_each_row(&self, mut visit: impl FnMut(RowRef<'_>)) {
        let mut batch = RowBatch::new();
        for region in self.regions.read().iter() {
            region
                .read()
                .for_each_row(&self.families, &mut batch, &mut visit);
        }
    }

    /// Every visible row, owned — test and verification use only; a
    /// production pass streams through [`Table::for_each_row`].
    pub fn debug_all_rows(&self) -> Vec<RowResult> {
        let mut rows = Vec::new();
        self.for_each_row(|row| rows.push(row.to_owned()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new("t", &["cf"], &[], 3)
    }

    /// One unprojected, unfiltered scan step from `start`:
    /// `(rows returned, cost, resume key)`.
    fn scan_step(
        t: &Table,
        start: &[u8],
        stop: Option<&[u8]>,
        max_rows: usize,
    ) -> (usize, ReadCost, Option<Vec<u8>>) {
        let mut next_key = start.to_vec();
        let mut batch = RowBatch::new();
        let step = t
            .scan_batch_into(&mut next_key, stop, None, None, max_rows, &mut batch)
            .unwrap();
        (batch.len(), step.cost, step.more.then_some(next_key))
    }

    /// A point read of every family, copied out.
    fn get(t: &Table, key: &[u8]) -> Option<RowResult> {
        let mut batch = RowBatch::new();
        t.get_into(key, None, &mut batch);
        batch.get(0).map(RowRef::to_owned)
    }

    #[test]
    fn mutate_and_get_roundtrip() {
        let t = table();
        let m = Mutation::put("cf", b"q", b"v".to_vec());
        t.mutate_row(b"row", &[m], 7).unwrap();
        let row = get(&t, b"row");
        assert_eq!(row.unwrap().value("cf", b"q").unwrap(), b"v");
    }

    #[test]
    fn unknown_family_rejected() {
        let t = table();
        let m = Mutation::put("nope", b"q", b"v".to_vec());
        assert!(matches!(
            t.mutate_row(b"row", &[m], 1),
            Err(StoreError::FamilyNotFound { .. })
        ));
    }

    #[test]
    fn empty_key_rejected() {
        let t = table();
        let m = Mutation::put("cf", b"q", b"v".to_vec());
        assert!(matches!(
            t.mutate_row(b"", &[m], 1),
            Err(StoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn presplit_regions_route_by_key() {
        let t = Table::new("t", &["cf"], &[b"m".to_vec()], 2);
        assert_eq!(t.region_infos().len(), 2);
        t.mutate_row(b"a", &[Mutation::put("cf", b"q", b"1".to_vec())], 1)
            .unwrap();
        t.mutate_row(b"z", &[Mutation::put("cf", b"q", b"2".to_vec())], 2)
            .unwrap();
        let infos = t.region_infos();
        assert_eq!(infos[0].rows, 1);
        assert_eq!(infos[1].rows, 1);
        assert_eq!(infos[0].end.as_deref(), Some(b"m".as_slice()));
        assert_eq!(infos[1].end, None);
        // Round-robin placement across nodes.
        assert_ne!(infos[0].node, infos[1].node);
    }

    #[test]
    fn auto_split_triggers_and_preserves_data() {
        let t = table();
        t.set_split_threshold(10);
        for i in 0..40u32 {
            t.mutate_row(
                &i.to_be_bytes(),
                &[Mutation::put("cf", b"q", b"v".to_vec())],
                u64::from(i),
            )
            .unwrap();
        }
        assert!(t.region_count() > 1, "expected auto-splits");
        assert_eq!(t.row_count(), 40);
        // Every row still reachable.
        for i in 0..40u32 {
            assert!(
                get(&t, &i.to_be_bytes()).is_some(),
                "row {i} lost after split"
            );
        }
    }

    #[test]
    fn rebalance_splits_evenly_and_keeps_data() {
        let t = table();
        for i in 0..40u32 {
            t.mutate_row(
                &i.to_be_bytes(),
                &[Mutation::put("cf", b"q", b"v".to_vec())],
                u64::from(i),
            )
            .unwrap();
        }
        assert_eq!(t.region_count(), 1);
        t.rebalance(4);
        assert_eq!(t.region_count(), 4);
        let infos = t.region_infos();
        assert!(infos.iter().all(|r| r.rows == 10), "{infos:?}");
        assert_eq!(t.row_count(), 40);
        for i in 0..40u32 {
            assert!(
                get(&t, &i.to_be_bytes()).is_some(),
                "row {i} lost after rebalance"
            );
        }
        // Idempotent: quantile boundaries already exist.
        t.rebalance(4);
        assert_eq!(t.region_count(), 4);
        // Degenerate inputs are no-ops.
        let empty = table();
        empty.rebalance(4);
        assert_eq!(empty.region_count(), 1);
    }

    #[test]
    fn scan_crosses_region_boundaries() {
        let t = Table::new("t", &["cf"], &[vec![5u8]], 2);
        for i in 0..10u8 {
            t.mutate_row(&[i], &[Mutation::put("cf", b"q", vec![i])], 1)
                .unwrap();
        }
        // First batch in region 0 exhausts it; resume key is region 1 start.
        let (rows, _, resume_key) = scan_step(&t, &[], None, 100);
        assert_eq!(rows, 5);
        assert_eq!(resume_key, Some(vec![5u8]));
        let (rows, _, resume_key) = scan_step(&t, &[5], None, 100);
        assert_eq!(rows, 5);
        assert_eq!(resume_key, None);
    }

    #[test]
    fn scan_stop_bound_ends_before_next_region() {
        let t = Table::new("t", &["cf"], &[vec![5u8]], 2);
        for i in 0..10u8 {
            t.mutate_row(&[i], &[Mutation::put("cf", b"q", vec![i])], 1)
                .unwrap();
        }
        let (rows, _, resume_key) = scan_step(&t, &[], Some(&[4u8]), 100);
        assert_eq!(rows, 4);
        assert_eq!(resume_key, None, "stop before region edge ends scan");
    }

    #[test]
    fn duplicate_family_projection_reads_once() {
        let t = table();
        t.mutate_row(b"k", &[Mutation::put("cf", b"q", b"v".to_vec())], 1)
            .unwrap();
        let fams = t
            .resolve_families(Some(&["cf".to_string(), "cf".to_string()]))
            .unwrap();
        let mut batch = RowBatch::new();
        let (cost, _) = t.get_into(b"k", fams.indices(), &mut batch);
        assert_eq!(batch.get(0).unwrap().kv_count(), 1, "no duplicate cells");
        assert_eq!(cost.kvs_scanned, 1, "no duplicate billing");
    }

    #[test]
    fn disk_size_grows_with_writes() {
        let t = table();
        let before = t.disk_size();
        t.mutate_row(b"k", &[Mutation::put("cf", b"q", vec![0u8; 100])], 1)
            .unwrap();
        assert!(t.disk_size() > before + 100);
    }

    #[test]
    fn debug_all_rows_sees_everything() {
        let t = Table::new("t", &["cf"], &[vec![3u8]], 2);
        for i in 0..6u8 {
            t.mutate_row(&[i], &[Mutation::put("cf", b"q", vec![i])], 1)
                .unwrap();
        }
        assert_eq!(t.debug_all_rows().len(), 6);
    }

    /// `disk_size` (the §7 index-size metric) and `row_count` (the
    /// auto-split trigger) describe what is stored, not what was ever
    /// written: deleted rows leave no trace once their tombstones' grace
    /// window has passed.
    #[test]
    fn deleted_rows_leave_no_trace_in_the_accounting_past_the_window() {
        use crate::region::TOMBSTONE_GRACE_TICKS;
        let t = table();
        let scan_kvs = |t: &Table| scan_step(t, &[], None, 1000).1;
        let anchor = || [Mutation::put("cf", b"q", b"v".to_vec())];
        t.mutate_row(b"anchor", &anchor(), 1).unwrap();
        let before = (
            t.row_count(),
            t.kv_count(),
            t.disk_size(),
            scan_kvs(&t).kvs_scanned,
        );

        let mut now = 1;
        for i in 0..50u32 {
            now += 1;
            let put = [Mutation::put("cf", b"q", vec![0u8; 20])];
            t.mutate_row(&i.to_be_bytes(), &put, now).unwrap();
        }
        for i in 0..50u32 {
            now += 1;
            let delete = [Mutation::delete("cf", b"q")];
            t.mutate_row(&i.to_be_bytes(), &delete, now).unwrap();
        }
        assert_eq!(t.kv_count(), 1);
        assert_eq!(
            t.row_count(),
            51,
            "inside the window the dead rows are stored"
        );
        assert!(t.disk_size() > before.2, "and so are their tombstones");
        assert_eq!(
            scan_kvs(&t).kvs_scanned,
            51,
            "which a scan touches and bills"
        );

        // The clock moves past the last tombstone's window; the next write
        // to the region (an overwrite, itself size-neutral) collects them.
        now += TOMBSTONE_GRACE_TICKS + 1;
        t.mutate_row(b"anchor", &anchor(), now).unwrap();
        let after = (
            t.row_count(),
            t.kv_count(),
            t.disk_size(),
            scan_kvs(&t).kvs_scanned,
        );
        assert_eq!(after, before);
    }

    #[test]
    fn disk_size_does_not_depend_on_whether_a_split_happened() {
        let load = |t: &Table| {
            for i in 0..40u32 {
                let put = [Mutation::put("cf", b"q", vec![0u8; 20])];
                t.mutate_row(&i.to_be_bytes(), &put, u64::from(i) + 1)
                    .unwrap();
                // Overwrite and delete some: history the size must forget.
                if i % 4 == 0 {
                    let put = [Mutation::put("cf", b"q", vec![0u8; 5])];
                    t.mutate_row(&i.to_be_bytes(), &put, u64::from(i) + 100)
                        .unwrap();
                }
                if i % 5 == 0 {
                    let delete = [Mutation::delete("cf", b"q")];
                    t.mutate_row(&i.to_be_bytes(), &delete, u64::from(i) + 200)
                        .unwrap();
                }
            }
        };
        let (whole, split) = (table(), table());
        load(&whole);
        load(&split);
        split.rebalance(4);
        assert_eq!(split.region_count(), 4);
        assert_eq!(split.disk_size(), whole.disk_size());
        assert_eq!(split.kv_count(), whole.kv_count());
        assert_eq!(split.row_count(), whole.row_count());
    }
}
