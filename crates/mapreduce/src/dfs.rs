//! A simulated distributed filesystem for MapReduce intermediates.
//!
//! Hive materializes the full join result into HDFS between its two jobs
//! (§3.1) — the dominant cost in the paper's Hive numbers — so the
//! simulation needs a DFS with byte-accurate accounting. Files are ordered
//! lists of `(key, value)` records grouped into **parts**; each part lives
//! on the node of the task that wrote it (HDFS writes the first replica
//! locally). Replication traffic for the remaining replicas is billed by
//! the engine when parts are written.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// One record: an opaque key/value pair.
pub type Record = (Vec<u8>, Vec<u8>);

/// A contiguous part of a file, resident on one node.
#[derive(Clone, Debug, Default)]
pub struct DfsPart {
    /// Node holding the primary replica.
    pub node: usize,
    /// Records in write order.
    pub records: Vec<Record>,
    /// Total bytes.
    pub bytes: u64,
}

/// A file: ordered parts.
#[derive(Clone, Debug, Default)]
pub struct DfsFile {
    /// Parts in part-number order (reducer 0's output first, etc.).
    pub parts: Vec<DfsPart>,
}

impl DfsFile {
    /// Total records across parts.
    pub fn record_count(&self) -> usize {
        self.parts.iter().map(|p| p.records.len()).sum()
    }

    /// Total bytes across parts.
    pub fn byte_size(&self) -> u64 {
        self.parts.iter().map(|p| p.bytes).sum()
    }

    /// Iterates records in (part, offset) order.
    pub fn iter_records(&self) -> impl Iterator<Item = &Record> {
        self.parts.iter().flat_map(|p| p.records.iter())
    }
}

/// The namespace: file name → file.
#[derive(Clone, Default)]
pub struct Dfs {
    files: Arc<RwLock<HashMap<String, DfsFile>>>,
}

impl Dfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Writes (or replaces) a file.
    pub fn write(&self, name: &str, file: DfsFile) {
        self.files.write().insert(name.to_owned(), file);
    }

    /// Reads a file (cheap clone of `Arc`-less data — used by map tasks,
    /// which are billed by the engine).
    pub fn read(&self, name: &str) -> Option<DfsFile> {
        self.files.read().get(name).cloned()
    }

    /// Deletes a file, returning whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.files.write().remove(name).is_some()
    }

    /// Total bytes stored (all files).
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(DfsFile::byte_size).sum()
    }
}

/// Computes the byte size of a record as stored/shipped.
pub fn record_weight(key: &[u8], value: &[u8]) -> u64 {
    (key.len() + value.len() + 8) as u64 // 8 bytes framing overhead
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(node: usize, n: usize) -> DfsPart {
        let records: Vec<Record> = (0..n).map(|i| (vec![i as u8], vec![i as u8; 2])).collect();
        let bytes = records.iter().map(|(k, v)| record_weight(k, v)).sum();
        DfsPart {
            node,
            records,
            bytes,
        }
    }

    #[test]
    fn write_read_remove() {
        let dfs = Dfs::new();
        dfs.write(
            "f",
            DfsFile {
                parts: vec![part(0, 3), part(1, 2)],
            },
        );
        let f = dfs.read("f").unwrap();
        assert_eq!(f.record_count(), 5);
        assert!(f.byte_size() > 0);
        assert!(dfs.remove("f"));
        assert!(dfs.read("f").is_none());
        assert!(!dfs.remove("f"));
    }

    #[test]
    fn iter_records_preserves_part_order() {
        let f = DfsFile {
            parts: vec![part(0, 2), part(1, 1)],
        };
        let keys: Vec<u8> = f.iter_records().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![0, 1, 0]);
    }

    #[test]
    fn total_bytes_sums_files() {
        let dfs = Dfs::new();
        dfs.write(
            "a",
            DfsFile {
                parts: vec![part(0, 1)],
            },
        );
        dfs.write(
            "b",
            DfsFile {
                parts: vec![part(0, 2)],
            },
        );
        assert_eq!(
            dfs.total_bytes(),
            dfs.read("a").unwrap().byte_size() + dfs.read("b").unwrap().byte_size()
        );
    }
}
