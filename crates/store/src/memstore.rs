//! A region's memstore: the rows its maintained writes (`mutate_row`)
//! wrote since a bulk load last froze it, as one vector sorted by key.
//!
//! Loads and index builds write region segments directly
//! (`crate::bulk`), so the memstore takes the serving writes alone: a
//! few dozen rows per region, inserted at scattered keys and removed
//! again when their tombstones are purged. A `BTreeMap` that small
//! allocates or frees a 450–550-byte node each time it crosses a node
//! boundary — a root split at its twelfth row, a merge on the way back.
//! A sorted vector moves 40-byte entries instead, and a removal keeps the
//! capacity the next insert needs. A load that freezes a memstore starts
//! the next as an empty vector again.
//!
//! Measured on the benchmark's `update_stream` (seed 1), whose memstores
//! hold at most 45 rows: with a `BTreeMap` memstore 14.16 allocations and
//! 1 449.9 bytes per operation, as a sorted vector 13.97 and 1 355.7 — a
//! store whose every row was a B-tree entry made 13.96 and 1 371.5. The
//! paper's `updates` and `updates-planner` experiments (`--sf-lab 0.002`)
//! grow one region's memstore past 256 rows, where an insert moves every
//! later entry: they ran in a median 0.338 s and 0.309 s over 11 runs on a
//! 2-vCPU VM, against 0.353 s and 0.314 s with a `BTreeMap` past 256 rows.

use std::slice::Iter;

use bytes::Bytes;

use crate::region::Stored;

/// Rows by key, sorted (see the module docs).
#[derive(Debug)]
pub(crate) struct Memstore<V> {
    rows: Vec<(Bytes, V)>,
}

impl<V> Default for Memstore<V> {
    fn default() -> Self {
        Memstore { rows: Vec::new() }
    }
}

impl<V> Memstore<V> {
    /// Where `key` sits among the rows: `Ok` at it, `Err` where it would
    /// be inserted.
    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        self.rows.binary_search_by(|(k, _)| k[..].cmp(key))
    }

    fn at_or_after(&self, key: &[u8]) -> usize {
        self.search(key).unwrap_or_else(|at| at)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub(crate) fn contains_key(&self, key: &[u8]) -> bool {
        self.search(key).is_ok()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&V> {
        self.search(key).ok().map(|at| &self.rows[at].1)
    }

    pub(crate) fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.get_key_value_mut(key).map(|(_, value)| value)
    }

    /// The row `key` and the handle it is stored under.
    pub(crate) fn get_key_value_mut(&mut self, key: &[u8]) -> Option<(&Bytes, &mut V)> {
        let at = self.search(key).ok()?;
        let (key, value) = &mut self.rows[at];
        Some((&*key, value))
    }

    /// Stores a row under a key the memstore does not hold.
    pub(crate) fn insert(&mut self, key: Bytes, value: V) -> &mut V {
        let at = self.at_or_after(&key);
        self.rows.insert(at, (key, value));
        &mut self.rows[at].1
    }

    pub(crate) fn remove(&mut self, key: &[u8]) {
        if let Ok(at) = self.search(key) {
            self.rows.remove(at);
        }
    }

    /// The rows from `from` (inclusive) on and before `stop` (exclusive),
    /// if there is one, in key order.
    pub(crate) fn range(&self, from: &[u8], stop: Option<&[u8]>) -> Iter<'_, (Bytes, V)> {
        // A stop at or before `from` leaves no row.
        let start = self.at_or_after(from);
        let end = stop.map_or(self.rows.len(), |stop| self.at_or_after(stop.max(from)));
        self.rows[start..end].iter()
    }

    /// Every row, in key order.
    pub(crate) fn iter(&self) -> Iter<'_, (Bytes, V)> {
        self.rows.iter()
    }

    /// Moves the rows from `key` (inclusive) on into a new memstore.
    pub(crate) fn split_off(&mut self, key: &[u8]) -> Memstore<V> {
        let at = self.at_or_after(key);
        Memstore {
            rows: self.rows.split_off(at),
        }
    }
}

/// One memstore column: its newest version.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    /// Index into the table's family list.
    pub(crate) family: usize,
    pub(crate) qualifier: Bytes,
    pub(crate) ts: u64,
    /// The value of a put; `None` for a tombstone.
    pub(crate) value: Option<Bytes>,
}

impl Column {
    pub(crate) fn stored(&self) -> Stored<'_> {
        Stored {
            family: self.family,
            qualifier: &self.qualifier,
            ts: self.ts,
            value: self.value.as_deref(),
            column: Some(self),
        }
    }
}

/// The columns of one family in a row's sorted columns.
pub(crate) fn family_columns(columns: &[Column], family: usize) -> &[Column] {
    let start = columns.partition_point(|c| c.family < family);
    let len = columns[start..].partition_point(|c| c.family == family);
    &columns[start..start + len]
}

/// A memstore row: its columns, sorted by `(family, qualifier)` (see
/// [`crate::region`]).
#[derive(Clone, Debug)]
pub(crate) struct RowData {
    pub(crate) columns: Vec<Column>,
}

impl RowData {
    /// Where `family:qualifier` is stored (`Ok`), or where it would be
    /// inserted (`Err`).
    pub(crate) fn find(
        &self,
        family: usize,
        qualifier: &[u8],
    ) -> std::result::Result<usize, usize> {
        self.columns
            .binary_search_by(|c| (c.family, &c.qualifier[..]).cmp(&(family, qualifier)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(memstore: &Memstore<u32>) -> Vec<u32> {
        memstore.iter().map(|&(_, value)| value).collect()
    }

    /// Rows inserted in scattered order read back sorted, and removals,
    /// splits and ranges keep them so.
    #[test]
    fn rows_stay_sorted_as_the_vector_grows() {
        let mut memstore = Memstore::default();
        let total = 3 * 256u32;
        // 37 is prime to `total`: a permutation of 0..total.
        for i in 0..total {
            let value = i * 37 % total;
            memstore.insert(Bytes::from(value.to_be_bytes().to_vec()), value);
        }
        assert_eq!(keys(&memstore), (0..total).collect::<Vec<_>>());
        for value in (0..total).step_by(2) {
            memstore.remove(&value.to_be_bytes());
        }
        let odd: Vec<u32> = (1..total).step_by(2).collect();
        assert_eq!(keys(&memstore), odd);
        let upper = memstore.split_off(&100u32.to_be_bytes());
        assert!(keys(&memstore).iter().all(|&v| v < 100));
        assert!(keys(&upper).iter().all(|&v| v >= 100));
        let from: Vec<u32> = upper
            .range(&150u32.to_be_bytes(), None)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(from, (151..total).step_by(2).collect::<Vec<_>>());
        let between = |stop: u32| -> Vec<u32> {
            let range = upper.range(&150u32.to_be_bytes(), Some(&stop.to_be_bytes()));
            range.map(|&(_, v)| v).collect()
        };
        assert_eq!(between(156), [151, 153, 155]);
        assert_eq!(between(140), [], "a stop before the start");
    }

    /// A removal keeps the vector's room, so refilling it allocates
    /// nothing.
    #[test]
    fn a_small_memstore_keeps_its_room_across_removals() {
        let mut memstore = Memstore::default();
        for value in 0..256u32 {
            memstore.insert(Bytes::from(value.to_be_bytes().to_vec()), value);
        }
        for value in 0..256u32 {
            memstore.remove(&value.to_be_bytes());
        }
        assert!(memstore.is_empty() && memstore.rows.capacity() >= 256);
        assert_eq!(memstore.get(&0u32.to_be_bytes()), None);
    }
}
