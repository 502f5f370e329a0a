//! A region's memstore: the rows its maintained writes (`mutate_row`)
//! wrote since a bulk load last froze it, by key.
//!
//! Loads and index builds write region segments directly
//! (`crate::bulk`), so the memstore takes the serving writes alone: a
//! few dozen rows per region, inserted at scattered keys and removed
//! again when their tombstones are purged. A `BTreeMap` that small
//! allocates or frees a 450–550-byte node each time it crosses a node
//! boundary — a root split at its twelfth row, a merge on the way back —
//! where a loaded tree's half-full leaves absorbed the same traffic. So a memstore is a sorted
//! vector while it holds at most [`SMALL_ROWS`] rows: an insert or removal
//! moves at most that many 40-byte entries (10 KiB), and a removal keeps
//! the capacity the next insert needs. A write that would outgrow it turns it
//! into a `BTreeMap`. No region of the benchmark's five workloads grows
//! one (seed 1, 18 s each); the paper's `updates` and `updates-planner`
//! experiments grow one each. A load that freezes a memstore starts the
//! next as an empty vector again.
//!
//! Measured on the benchmark's `update_stream` (seed 1), whose memstores
//! hold at most 45 rows: with a `BTreeMap` memstore 14.16 allocations and
//! 1 449.9 bytes per operation, as a sorted vector 13.97 and 1 355.7 — a
//! store whose every row was a B-tree entry made 13.96 and 1 371.5. The
//! limit leaves room for a region taking a few hundred rows of inserts
//! and deletes inside one tombstone grace window.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use bytes::Bytes;

use crate::region::Stored;

/// The most rows a memstore holds as a sorted vector.
pub(crate) const SMALL_ROWS: usize = 256;

/// Rows by key (see the module docs).
#[derive(Debug)]
pub(crate) enum Memstore<V> {
    /// At most [`SMALL_ROWS`] rows, sorted by key.
    Small(Vec<(Bytes, V)>),
    Large(BTreeMap<Bytes, V>),
}

impl<V> Default for Memstore<V> {
    fn default() -> Self {
        Memstore::Small(Vec::new())
    }
}

/// Where `key` sits among sorted `rows`: `Ok` at it, `Err` where it would
/// be inserted.
fn search<V>(rows: &[(Bytes, V)], key: &[u8]) -> Result<usize, usize> {
    rows.binary_search_by(|(k, _)| k[..].cmp(key))
}

fn one_row(key: &[u8]) -> (Bound<&[u8]>, Bound<&[u8]>) {
    (Bound::Included(key), Bound::Included(key))
}

impl<V> Memstore<V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Memstore::Small(rows) => rows.len(),
            Memstore::Large(rows) => rows.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&V> {
        match self {
            Memstore::Small(rows) => search(rows, key).ok().map(|at| &rows[at].1),
            Memstore::Large(rows) => rows.get(key),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.get_key_value_mut(key).map(|(_, value)| value)
    }

    /// The row `key` and the handle it is stored under.
    pub(crate) fn get_key_value_mut(&mut self, key: &[u8]) -> Option<(&Bytes, &mut V)> {
        match self {
            Memstore::Small(rows) => {
                let at = search(rows, key).ok()?;
                let (key, value) = &mut rows[at];
                Some((&*key, value))
            }
            Memstore::Large(rows) => rows.range_mut::<[u8], _>(one_row(key)).next(),
        }
    }

    /// Stores a row under a key the memstore does not hold.
    pub(crate) fn insert(&mut self, key: Bytes, value: V) -> &mut V {
        if let Memstore::Small(rows) = self {
            if rows.len() == SMALL_ROWS {
                *self = Memstore::Large(std::mem::take(rows).into_iter().collect());
            }
        }
        match self {
            Memstore::Small(rows) => {
                let at = search(rows, &key).unwrap_or_else(|at| at);
                rows.insert(at, (key, value));
                &mut rows[at].1
            }
            Memstore::Large(rows) => rows.entry(key).or_insert(value),
        }
    }

    pub(crate) fn remove(&mut self, key: &[u8]) {
        match self {
            Memstore::Small(rows) => {
                if let Ok(at) = search(rows, key) {
                    rows.remove(at);
                }
            }
            Memstore::Large(rows) => {
                rows.remove(key);
            }
        }
    }

    /// The rows from `from` (inclusive) on and before `stop` (exclusive),
    /// if there is one, in key order.
    pub(crate) fn range(&self, from: &[u8], stop: Option<&[u8]>) -> Iter<'_, V> {
        // A stop at or before `from` leaves no row.
        let stop = stop.map(|stop| stop.max(from));
        match self {
            Memstore::Small(rows) => {
                let at = |key| search(rows, key).unwrap_or_else(|at| at);
                Iter::Small(rows[at(from)..stop.map_or(rows.len(), at)].iter())
            }
            Memstore::Large(rows) => {
                let end = stop.map_or(Bound::Unbounded, Bound::Excluded);
                Iter::Large(rows.range::<[u8], _>((Bound::Included(from), end)))
            }
        }
    }

    /// Every row, in key order.
    pub(crate) fn iter(&self) -> Iter<'_, V> {
        self.range(&[], None)
    }

    /// Moves the rows from `key` (inclusive) on into a new memstore.
    pub(crate) fn split_off(&mut self, key: &[u8]) -> Memstore<V> {
        match self {
            Memstore::Small(rows) => {
                let at = search(rows, key).unwrap_or_else(|at| at);
                Memstore::Small(rows.split_off(at))
            }
            Memstore::Large(rows) => Memstore::Large(rows.split_off(key)),
        }
    }
}

/// A memstore's rows in key order, borrowed.
pub(crate) enum Iter<'a, V> {
    Small(std::slice::Iter<'a, (Bytes, V)>),
    Large(btree_map::Range<'a, Bytes, V>),
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (&'a Bytes, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Iter::Small(rows) => rows.next().map(|(key, value)| (key, value)),
            Iter::Large(rows) => rows.next(),
        }
    }
}

/// A memstore's rows in key order, moved out.
pub(crate) enum IntoIter<V> {
    Small(std::vec::IntoIter<(Bytes, V)>),
    Large(btree_map::IntoIter<Bytes, V>),
}

impl<V> Iterator for IntoIter<V> {
    type Item = (Bytes, V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            IntoIter::Small(rows) => rows.next(),
            IntoIter::Large(rows) => rows.next(),
        }
    }
}

impl<V> IntoIterator for Memstore<V> {
    type Item = (Bytes, V);
    type IntoIter = IntoIter<V>;

    fn into_iter(self) -> IntoIter<V> {
        match self {
            Memstore::Small(rows) => IntoIter::Small(rows.into_iter()),
            Memstore::Large(rows) => IntoIter::Large(rows.into_iter()),
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
        memstore.iter().map(|(_, &value)| value).collect()
    }

    /// Rows inserted in scattered order read back sorted, through the
    /// vector and across its turn into a B-tree, and removals and splits
    /// keep them so.
    #[test]
    fn rows_stay_sorted_as_the_vector_grows_into_a_tree() {
        let mut memstore = Memstore::default();
        let total = 3 * SMALL_ROWS as u32;
        // 37 is prime to `total`: a permutation of 0..total.
        for i in 0..total {
            let value = i * 37 % total;
            memstore.insert(Bytes::from(value.to_be_bytes().to_vec()), value);
            let large = matches!(memstore, Memstore::Large(_));
            assert_eq!(large, memstore.len() > SMALL_ROWS);
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
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(from, (151..total).step_by(2).collect::<Vec<_>>());
        let between = |stop: u32| -> Vec<u32> {
            let range = upper.range(&150u32.to_be_bytes(), Some(&stop.to_be_bytes()));
            range.map(|(_, &v)| v).collect()
        };
        assert_eq!(between(156), [151, 153, 155]);
        assert_eq!(between(140), [], "a stop before the start");
    }

    /// Below the limit a removal keeps the vector's room, so refilling it
    /// allocates nothing.
    #[test]
    fn a_small_memstore_keeps_its_room_across_removals() {
        let mut memstore = Memstore::default();
        for value in 0..SMALL_ROWS as u32 {
            memstore.insert(Bytes::from(value.to_be_bytes().to_vec()), value);
        }
        for value in 0..SMALL_ROWS as u32 {
            memstore.remove(&value.to_be_bytes());
        }
        let Memstore::Small(rows) = &memstore else {
            panic!("at most SMALL_ROWS rows stay a vector");
        };
        assert!(rows.is_empty() && rows.capacity() >= SMALL_ROWS);
        assert_eq!(memstore.get(&0u32.to_be_bytes()), None);
    }
}
