//! Regions: contiguous row-key ranges of a table, each hosted on one node.
//!
//! A region stores its rows in a `BTreeMap`, mirroring HBase's sorted
//! key-value files: point reads are cheap, and scans stream rows in
//! ascending key order. Cells are multi-versioned with tombstone deletes,
//! newest-first, which the §6 update machinery relies on to "replay all row
//! mutations in timestamp order".

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;

use crate::cell::{Cell, Mutation};
use crate::filter::ServerFilter;
use crate::row::RowResult;

/// One version of one column: a put or a tombstone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Version {
    /// A value written at a timestamp.
    Put(u64, Bytes),
    /// A delete tombstone at a timestamp; shadows versions at the same or
    /// earlier timestamps.
    Tombstone(u64),
}

impl Version {
    /// Sort key: newer first; at equal timestamps tombstones shadow puts.
    fn order_key(&self) -> (u64, u8) {
        match self {
            Version::Tombstone(ts) => (*ts, 1),
            Version::Put(ts, _) => (*ts, 0),
        }
    }
}

/// All versions of one column, ordered newest-first.
#[derive(Clone, Debug, Default)]
pub(crate) struct Versions(Vec<Version>);

impl Versions {
    fn insert(&mut self, v: Version) {
        let key = v.order_key();
        // Newest first ⇒ descending order_key.
        let pos = self
            .0
            .binary_search_by(|e| key.cmp(&e.order_key()))
            .unwrap_or_else(|p| p);
        self.0.insert(pos, v);
    }

    /// The latest visible value, if the column is live.
    fn visible(&self) -> Option<(u64, &Bytes)> {
        match self.0.first() {
            Some(Version::Put(ts, v)) => Some((*ts, v)),
            _ => None,
        }
    }
}

/// Row payload: per-family column maps, indexed by the table's family ids.
/// Qualifiers are refcounted so reads hand them out without copying.
#[derive(Clone, Debug)]
pub(crate) struct RowData {
    families: Vec<BTreeMap<Bytes, Versions>>,
}

impl RowData {
    fn new(num_families: usize) -> Self {
        RowData {
            families: vec![BTreeMap::new(); num_families],
        }
    }

    fn is_empty(&self) -> bool {
        self.families.iter().all(BTreeMap::is_empty)
    }

    /// Adds one version to a column, returning whether the column was
    /// visible before and is visible after. Only a column's first version
    /// copies the qualifier.
    fn apply(&mut self, fam_idx: usize, qualifier: &[u8], version: Version) -> (bool, bool) {
        let columns = &mut self.families[fam_idx];
        let add = |versions: &mut Versions| {
            let was_visible = versions.visible().is_some();
            versions.insert(version);
            (was_visible, versions.visible().is_some())
        };
        match columns.get_mut(qualifier) {
            Some(versions) => add(versions),
            None => add(columns
                .entry(Bytes::copy_from_slice(qualifier))
                .or_default()),
        }
    }
}

/// The family indices a read touches: the projection, or all `n`.
fn selected(families: Option<&[usize]>, n: usize) -> impl Iterator<Item = usize> + '_ {
    let all = if families.is_none() { 0..n } else { 0..0 };
    families.into_iter().flatten().copied().chain(all)
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

/// A batch of scan output plus its costs and resume position.
pub struct ScanBatch {
    /// Rows produced by this batch (may be empty if the filter dropped all).
    pub rows: Vec<RowResult>,
    /// Accounting for the batch.
    pub cost: ReadCost,
    /// Key to resume from (exclusive of everything already visited), or
    /// `None` when the region is exhausted.
    pub resume_key: Option<Vec<u8>>,
}

/// One shard of a table: rows in `[start, end)` hosted on `node`.
#[derive(Debug)]
pub struct Region {
    /// First key served (inclusive); empty = table start.
    pub(crate) start: Vec<u8>,
    /// Hosting node index.
    pub(crate) node: usize,
    pub(crate) rows: BTreeMap<Vec<u8>, RowData>,
    /// Live KV count (visible puts).
    pub(crate) kv_count: u64,
    /// Approximate stored bytes, including shadowed versions.
    pub(crate) byte_size: u64,
}

impl Region {
    pub(crate) fn new(start: Vec<u8>, node: usize) -> Self {
        Region {
            start,
            node,
            rows: BTreeMap::new(),
            kv_count: 0,
            byte_size: 0,
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

    /// Approximate bytes stored.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }

    /// Live KV count.
    pub fn kv_count(&self) -> u64 {
        self.kv_count
    }

    /// Applies mutations to one row atomically. Returns bytes written.
    ///
    /// `family_ids` maps each mutation to its schema family index (resolved
    /// by the table before routing here).
    pub(crate) fn mutate_row(
        &mut self,
        row_key: &[u8],
        muts: &[(usize, &Mutation)],
        default_ts: u64,
        num_families: usize,
    ) -> u64 {
        let row = self
            .rows
            .entry(row_key.to_vec())
            .or_insert_with(|| RowData::new(num_families));
        let mut bytes = 0u64;
        for &(fam_idx, m) in muts {
            let (qualifier, version) = match m {
                Mutation::Put {
                    qualifier,
                    value,
                    timestamp,
                    ..
                } => (
                    qualifier,
                    Version::Put(timestamp.unwrap_or(default_ts), value.clone()),
                ),
                Mutation::Delete {
                    qualifier,
                    timestamp,
                    ..
                } => (
                    qualifier,
                    Version::Tombstone(timestamp.unwrap_or(default_ts)),
                ),
            };
            let (was_visible, now_visible) = row.apply(fam_idx, qualifier, version);
            if !was_visible && now_visible {
                self.kv_count += 1;
            } else if was_visible && !now_visible {
                self.kv_count = self.kv_count.saturating_sub(1);
            }
            bytes += m.weight(row_key.len());
        }
        if row.is_empty() {
            self.rows.remove(row_key);
        }
        self.byte_size += bytes;
        bytes
    }

    /// Materializes the visible cells of one row, restricted to the given
    /// family indices (`None` = all). The row is `None` when no selected
    /// column is visible, and nothing is allocated until the first visible
    /// cell: a row that a projected scan merely walks over (all its cells
    /// in other families) costs no heap traffic, a returned row costs its
    /// key and its `cells` vector.
    fn materialize(
        key: &[u8],
        data: &RowData,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        let mut cells = Vec::new();
        let mut cost = ReadCost::default();
        // Stored columns in the selection: an upper bound on visible cells.
        let columns: usize = selected(families, data.families.len())
            .map(|fam_idx| data.families[fam_idx].len())
            .sum();
        for fam_idx in selected(families, data.families.len()) {
            for (qualifier, versions) in &data.families[fam_idx] {
                // Every stored version is touched by the read path.
                cost.kvs_scanned += 1;
                if let Some((ts, value)) = versions.visible() {
                    let cell = Cell {
                        family: Arc::clone(&family_names[fam_idx]),
                        qualifier: qualifier.clone(),
                        timestamp: ts,
                        value: value.clone(),
                    };
                    cost.bytes_scanned += cell.weight(key.len());
                    if cells.is_empty() {
                        cells.reserve_exact(columns);
                    }
                    cells.push(cell);
                }
            }
        }
        let row = (!cells.is_empty()).then(|| RowResult {
            key: key.to_vec(),
            cells,
        });
        (row, cost)
    }

    /// Point read of one row.
    pub(crate) fn get(
        &self,
        key: &[u8],
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        match self.rows.get(key) {
            None => (None, ReadCost::default()),
            Some(data) => {
                let (row, mut cost) = Self::materialize(key, data, family_names, families);
                if let Some(row) = &row {
                    cost.kvs_returned = row.kv_count();
                    cost.bytes_returned = row.weight();
                }
                (row, cost)
            }
        }
    }

    /// Scans up to `max_rows` rows starting at `start` (inclusive), stopping
    /// before `stop` (exclusive) and before the region end.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_batch(
        &self,
        start: &[u8],
        stop: Option<&[u8]>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> ScanBatch {
        let mut rows = Vec::new();
        let mut cost = ReadCost::default();
        let mut resume_key = None;

        let range = self
            .rows
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded));
        for (visited, (key, data)) in range.enumerate() {
            if let Some(stop) = stop {
                if key.as_slice() >= stop {
                    return ScanBatch {
                        rows,
                        cost,
                        resume_key: None,
                    };
                }
            }
            if visited == max_rows {
                resume_key = Some(key.clone());
                break;
            }
            let (row, c) = Self::materialize(key, data, family_names, families);
            cost.kvs_scanned += c.kvs_scanned;
            cost.bytes_scanned += c.bytes_scanned;
            let Some(row) = row else { continue };
            if filter.is_none_or(|f| f.accept(&row)) {
                cost.kvs_returned += row.kv_count();
                cost.bytes_returned += row.weight();
                rows.push(row);
            }
        }
        ScanBatch {
            rows,
            cost,
            resume_key,
        }
    }

    /// Row keys in ascending order (rebalancing support).
    pub(crate) fn row_keys(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.rows.keys()
    }

    /// The median row key, used as an auto-split point. `None` if the
    /// region has fewer than two rows.
    pub(crate) fn split_point(&self) -> Option<Vec<u8>> {
        if self.rows.len() < 2 {
            return None;
        }
        self.rows.keys().nth(self.rows.len() / 2).cloned()
    }

    /// Splits off rows `>= split_key` into a new region hosted on `node`.
    pub(crate) fn split_off(&mut self, split_key: &[u8], node: usize) -> Region {
        let upper = self.rows.split_off(split_key);
        let mut new_region = Region::new(split_key.to_vec(), node);
        new_region.rows = upper;
        // Recompute accounting on both sides (splits are rare).
        let recount = |rows: &BTreeMap<Vec<u8>, RowData>| -> (u64, u64) {
            let mut kvs = 0u64;
            let mut bytes = 0u64;
            for (key, data) in rows {
                for fam in &data.families {
                    for (q, versions) in fam {
                        if let Some((_, v)) = versions.visible() {
                            kvs += 1;
                            bytes += (key.len() + q.len() + 8 + v.len()) as u64;
                        }
                    }
                }
            }
            (kvs, bytes)
        };
        let (kvs, bytes) = recount(&self.rows);
        self.kv_count = kvs;
        self.byte_size = bytes;
        let (kvs, bytes) = recount(&new_region.rows);
        new_region.kv_count = kvs;
        new_region.byte_size = bytes;
        new_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fams() -> Vec<Arc<str>> {
        vec!["a".into(), "b".into()]
    }

    fn put(region: &mut Region, key: &[u8], fam: usize, q: &[u8], v: &[u8], ts: u64) {
        let m = Mutation::put_at(if fam == 0 { "a" } else { "b" }, q, v.to_vec(), ts);
        region.mutate_row(key, &[(fam, &m)], 0, 2);
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
        r.mutate_row(b"k", &[(0, &d)], 0, 2);
        let (row, _) = r.get(b"k", &fams(), None);
        assert!(row.is_none(), "equal-timestamp delete shadows the put");
        assert_eq!(r.kv_count(), 0);
    }

    #[test]
    fn put_after_tombstone_resurrects() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v1", 1);
        let d = Mutation::delete_at("a", b"q", 2);
        r.mutate_row(b"k", &[(0, &d)], 0, 2);
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
        let batch = r.scan_batch(&[2], Some(&[8]), &fams(), None, None, 3);
        let keys: Vec<u8> = batch.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![2, 3, 4]);
        assert_eq!(batch.resume_key, Some(vec![5]));
        let batch2 = r.scan_batch(&[5], Some(&[8]), &fams(), None, None, 100);
        let keys2: Vec<u8> = batch2.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys2, vec![5, 6, 7]);
        assert_eq!(batch2.resume_key, None);
    }

    #[test]
    fn scan_family_projection() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"va", 1);
        put(&mut r, b"k", 1, b"q", b"vb", 1);
        let batch = r.scan_batch(b"", None, &fams(), Some(&[1]), None, 10);
        assert_eq!(batch.rows.len(), 1);
        assert_eq!(batch.rows[0].cells.len(), 1);
        assert_eq!(&*batch.rows[0].cells[0].family, "b");
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
        r.mutate_row(&[2], &[(1, &tombstone)], 0, 2);

        let batch = r.scan_batch(&[0], None, &fams(), Some(&[1]), None, 4);
        let keys: Vec<u8> = batch.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![1, 3], "two of the four visited rows return");
        assert_eq!(
            batch.resume_key,
            Some(vec![4]),
            "all four visited rows count"
        );
        // One visible cell: key 1 + family 1 + qualifier 1 + ts 8 + value 2.
        assert_eq!(
            batch.cost,
            ReadCost {
                kvs_scanned: 3,
                bytes_scanned: 26,
                kvs_returned: 2,
                bytes_returned: 26,
            }
        );

        let rest = r.scan_batch(&[4], None, &fams(), Some(&[1]), None, 100);
        let keys: Vec<u8> = rest.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![5, 7, 9]);
        assert_eq!(rest.resume_key, None);
        assert_eq!(
            rest.cost,
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
            fn accept(&self, _row: &RowResult) -> bool {
                false
            }
        }
        let mut r = Region::new(vec![], 0);
        for i in 0..5u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let batch = r.scan_batch(b"", None, &fams(), None, Some(&RejectAll), 10);
        assert!(batch.rows.is_empty());
        assert_eq!(batch.cost.kvs_scanned, 5);
        assert_eq!(batch.cost.kvs_returned, 0);
        assert_eq!(batch.cost.bytes_returned, 0);
        assert!(batch.cost.bytes_scanned > 0);
    }

    #[test]
    fn split_partitions_rows() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let split = r.split_point().unwrap();
        let upper = r.split_off(&split, 1);
        assert_eq!(r.row_count() + upper.row_count(), 10);
        assert!(r.rows.keys().all(|k| k.as_slice() < split.as_slice()));
        assert!(upper.rows.keys().all(|k| k.as_slice() >= split.as_slice()));
        assert_eq!(upper.node(), 1);
        assert_eq!(r.kv_count() + upper.kv_count(), 10);
    }
}
