//! Cells (key-value pairs) and mutations.
//!
//! The paper's data model (§1): a key-value pair is the quadruplet
//! `{key, column name, column value, timestamp}`, where the column name is
//! a `(family, qualifier)` pair in BigTable/HBase terms. Deletes are
//! tombstones carrying the deletion timestamp, and the rank-join update
//! machinery (§6) leans on timestamp ordering to discern fresh from stale
//! tuples: whichever of two writes to a column carries the newer timestamp
//! wins, in either arrival order. The store keeps exactly that — a column's
//! newest version — and a tombstone only for a grace window after its
//! timestamp (the retention rule is stated in [`crate::region`]).

use std::sync::Arc;

use bytes::Bytes;

/// A single key-value pair, owned: what an owned row
/// ([`crate::row::RowResult`]) holds. The row key lives once on the
/// enclosing row; family name, qualifier and value are refcounted
/// handles. A memstore cell's are the handles its writer gave the region,
/// so owning it copies no bytes; a frozen cell's bytes live in its
/// segment's arena, so owning it copies them into two new handles. A
/// read that lends its row instead ([`crate::row::CellRef`]) copies
/// nothing into handles either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Column family name (shared with the table schema).
    pub family: Arc<str>,
    /// Column qualifier.
    pub qualifier: Bytes,
    /// Write timestamp (logical; assigned by the cluster clock unless the
    /// mutation pinned one).
    pub timestamp: u64,
    /// Cell payload.
    pub value: Bytes,
}

impl Cell {
    /// Approximate on-disk/on-wire footprint of the cell in bytes: the
    /// row's key, family, qualifier, timestamp and value. Used for
    /// disk-size accounting (index-size experiment) and network billing.
    pub fn weight(&self, row_key_len: usize) -> u64 {
        (row_key_len + self.family.len() + self.qualifier.len() + 8 + self.value.len()) as u64
    }
}

/// A single-column mutation applied to some row.
///
/// Every field is a refcounted handle, and the region's memstore keeps
/// the qualifier and value handles it is given, not copies: a writer that
/// puts the same family, qualifier or value into several tables (§6's base
/// write and its index writes) builds each once and clones the handle, and
/// a delete can tombstone a column with the handles its read of a memstore
/// row handed out. A bulk load that freezes the memstore copies the bytes
/// into its segment's arena and frees the handles. How the bytes are held moves neither
/// [`Mutation::weight`] nor what the store bills.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert/overwrite one cell.
    Put {
        /// Column family (shared, like [`Cell::family`]).
        family: Arc<str>,
        /// Column qualifier.
        qualifier: Bytes,
        /// Payload.
        value: Bytes,
        /// Pinned timestamp; `None` draws from the cluster's logical clock.
        /// §6 pins the *same* timestamp on a base put and its index put so
        /// the two converge.
        timestamp: Option<u64>,
    },
    /// Tombstone one cell (versions at or before the tombstone's timestamp
    /// become invisible).
    Delete {
        /// Column family.
        family: Arc<str>,
        /// Column qualifier.
        qualifier: Bytes,
        /// Pinned timestamp; `None` draws from the cluster clock.
        timestamp: Option<u64>,
    },
}

impl Mutation {
    /// Convenience constructor for a clock-timestamped put.
    pub fn put(family: &str, qualifier: &[u8], value: impl Into<Bytes>) -> Self {
        Self::put_shared(family.into(), qualifier.into(), value.into(), None)
    }

    /// Convenience constructor for a put with a pinned timestamp.
    pub fn put_at(family: &str, qualifier: &[u8], value: impl Into<Bytes>, ts: u64) -> Self {
        Self::put_shared(family.into(), qualifier.into(), value.into(), Some(ts))
    }

    /// Convenience constructor for a clock-timestamped delete.
    pub fn delete(family: &str, qualifier: &[u8]) -> Self {
        Self::delete_shared(family.into(), qualifier.into(), None)
    }

    /// Convenience constructor for a delete with a pinned timestamp.
    pub fn delete_at(family: &str, qualifier: &[u8], ts: u64) -> Self {
        Self::delete_shared(family.into(), qualifier.into(), Some(ts))
    }

    /// A put of handles the caller already holds: nothing is copied.
    /// `ts` pins a timestamp; `None` draws from the cluster clock.
    pub fn put_shared(family: Arc<str>, qualifier: Bytes, value: Bytes, ts: Option<u64>) -> Self {
        Mutation::Put {
            family,
            qualifier,
            value,
            timestamp: ts,
        }
    }

    /// A delete of handles the caller already holds (`ts` as for
    /// [`Mutation::put_shared`]).
    pub fn delete_shared(family: Arc<str>, qualifier: Bytes, ts: Option<u64>) -> Self {
        Mutation::Delete {
            family,
            qualifier,
            timestamp: ts,
        }
    }

    /// The column family this mutation touches.
    pub fn family(&self) -> &str {
        match self {
            Mutation::Put { family, .. } | Mutation::Delete { family, .. } => family,
        }
    }

    /// Approximate wire size of the mutation.
    pub fn weight(&self, row_key_len: usize) -> u64 {
        match self {
            Mutation::Put {
                family,
                qualifier,
                value,
                ..
            } => (row_key_len + family.len() + qualifier.len() + 8 + value.len()) as u64,
            Mutation::Delete {
                family, qualifier, ..
            } => (row_key_len + family.len() + qualifier.len() + 8) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_weight_counts_all_parts() {
        let c = Cell {
            family: "cf".into(),
            qualifier: Bytes::from(vec![0; 3]),
            timestamp: 1,
            value: Bytes::from(vec![0; 5]),
        };
        assert_eq!(c.weight(10), 10 + 2 + 3 + 8 + 5);
    }

    #[test]
    fn mutation_constructors() {
        let p = Mutation::put("cf", b"q", b"v".to_vec());
        assert_eq!(p.family(), "cf");
        assert!(matches!(
            p,
            Mutation::Put {
                timestamp: None,
                ..
            }
        ));
        let d = Mutation::delete_at("cf", b"q", 42);
        assert!(matches!(
            d,
            Mutation::Delete {
                timestamp: Some(42),
                ..
            }
        ));
    }

    #[test]
    fn delete_weight_has_no_value() {
        let p = Mutation::put("cf", b"q", vec![0u8; 100]).weight(4);
        let d = Mutation::delete("cf", b"q").weight(4);
        assert_eq!(p - d, 100);
    }

    /// The handle a memstore keeps and an owned cell holds is one pointer
    /// and one length: `Bytes` is 16 bytes and a `Cell` 56. A frozen
    /// segment holds no handle at all, so a zero-copy slice of its arena
    /// (offset and length beside the pointer, 24 bytes) would be wider
    /// than every handle the memstores, owned rows and batches hold. When
    /// every stored cell held handles, widening `Bytes` to 24 bytes alone
    /// raised `peak_live_mb` on every benchmark workload at TPC-H SF 0.01
    /// and seed 1 (`isl_deep` 74.43 → 84.00, `bfhm_auto` 75.16 → 84.98,
    /// `multiway_path` 11.73 → 13.31, `serve_shared` 80.47 → 90.16,
    /// `update_stream` 138.45 → 155.40), and `alloc_bytes_per_op` rose
    /// 15.3 % on `update_stream` and 0.65 % on `serve_shared`. A read
    /// lends a frozen cell by copying its bytes into the reader's batch
    /// instead ([`crate::row::RowBatch`]). A change that widens the handle
    /// fails here first.
    #[test]
    fn the_stored_handle_is_sixteen_bytes_and_a_cell_fifty_six() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
        assert_eq!(std::mem::size_of::<Cell>(), 56);
    }
}
