//! The cluster: nodes, tables, the logical clock, and client factories.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::client::Client;
use crate::costmodel::CostModel;
use crate::error::{Result, StoreError};
use crate::metrics::Metrics;
use crate::table::Table;

pub(crate) struct Shared {
    pub(crate) num_nodes: usize,
    pub(crate) cost: CostModel,
    pub(crate) tables: RwLock<HashMap<String, Arc<Table>>>,
    /// Logical timestamp source — deterministic, monotone, shared by base
    /// and index writes (§6's "original mutation timestamp for both").
    pub(crate) clock: AtomicU64,
}

/// A shared-nothing NoSQL cluster of `num_nodes` region servers.
///
/// Cheap to clone (an `Arc` handle). Data (tables, clock, cost model) is
/// shared between clones; the metric *ledger* belongs to the handle, so
/// [`Cluster::fork_metrics`] can give concurrent actors isolated accounting
/// over the same data.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) shared: Arc<Shared>,
    metrics: Arc<Metrics>,
}

impl Cluster {
    /// Creates a cluster with `num_nodes` region servers and a cost model.
    pub fn new(num_nodes: usize, cost: CostModel) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one node");
        Cluster {
            shared: Arc::new(Shared {
                num_nodes,
                cost,
                tables: RwLock::new(HashMap::new()),
                clock: AtomicU64::new(1),
            }),
            metrics: Metrics::new(),
        }
    }

    /// Creates a cluster whose node count follows the cost model profile.
    pub fn with_profile(cost: CostModel) -> Self {
        let nodes = cost.worker_nodes;
        Self::new(nodes, cost)
    }

    /// Number of region-server nodes.
    pub fn num_nodes(&self) -> usize {
        self.shared.num_nodes
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    /// The metric ledger of this handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }

    /// A handle over the same data (tables, clock, cost model) but with a
    /// **fresh, isolated metric ledger**. Concurrent query runners each
    /// fork a handle so per-query meters measure only their own work; the
    /// run's aggregate is the sum of the forked ledgers' snapshots.
    pub fn fork_metrics(&self) -> Cluster {
        Cluster {
            shared: self.shared.clone(),
            metrics: Metrics::new(),
        }
    }

    /// Draws the next logical timestamp.
    pub fn next_ts(&self) -> u64 {
        self.shared.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Draws `n` consecutive logical timestamps; returns the first.
    pub(crate) fn reserve_ticks(&self, n: u64) -> u64 {
        self.shared.clock.fetch_add(n, Ordering::Relaxed)
    }

    /// Creates a table with the given column families and a single region.
    pub fn create_table(&self, name: &str, families: &[&str]) -> Result<Arc<Table>> {
        self.create_table_with_splits(name, families, &[])
    }

    /// Creates a table pre-split at the given keys (regions are assigned to
    /// nodes round-robin). Pre-splitting is how index builders obtain
    /// deterministic, balanced layouts.
    pub fn create_table_with_splits(
        &self,
        name: &str,
        families: &[&str],
        split_keys: &[Vec<u8>],
    ) -> Result<Arc<Table>> {
        if families.is_empty() {
            return Err(StoreError::InvalidArgument("table needs >= 1 family"));
        }
        if families.len() > 256 {
            // A region's segment stores a column's family index as a byte.
            return Err(StoreError::InvalidArgument("table has > 256 families"));
        }
        let mut tables = self.shared.tables.write();
        if tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_owned()));
        }
        let table = Arc::new(Table::new(
            name,
            families,
            split_keys,
            self.shared.num_nodes,
        ));
        tables.insert(name.to_owned(), table.clone());
        Ok(table)
    }

    /// Drops a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.shared
            .tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::TableNotFound(name.to_owned()))
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.shared
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::TableNotFound(name.to_owned()))
    }

    /// Names of all tables (sorted, for deterministic iteration).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// A coordinator client: located *outside* the cluster (every region
    /// access is remote) and charging simulated time to the global ledger —
    /// this is "the querying node" of the paper's coordinator algorithms.
    pub fn client(&self) -> Client {
        Client::new(self.shared.clone(), self.metrics.clone(), None)
    }

    /// A client pinned to a node, e.g. a MapReduce task reading its local
    /// region. Does not charge global simulated time — the MR engine
    /// accounts critical-path job time itself.
    pub fn task_client(&self, node: usize) -> Client {
        assert!(node < self.shared.num_nodes, "no such node: {node}");
        Client::new(self.shared.clone(), self.metrics.clone(), Some(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A region's segment stores a column's family index as a byte.
    #[test]
    fn a_table_holds_at_most_256_families() {
        let c = Cluster::new(1, CostModel::test());
        let names: Vec<String> = (0..257).map(|i| format!("f{i}")).collect();
        let families: Vec<&str> = names.iter().map(String::as_str).collect();
        assert!(c.create_table("widest", &families[..256]).is_ok());
        assert!(matches!(
            c.create_table("too_wide", &families),
            Err(StoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn create_and_lookup_tables() {
        let c = Cluster::new(3, CostModel::test());
        c.create_table("t1", &["a"]).unwrap();
        c.create_table("t2", &["a", "b"]).unwrap();
        assert!(c.table("t1").is_ok());
        assert_eq!(c.table_names(), vec!["t1".to_string(), "t2".to_string()]);
        assert!(matches!(
            c.create_table("t1", &["a"]),
            Err(StoreError::TableExists(_))
        ));
        assert!(matches!(c.table("nope"), Err(StoreError::TableNotFound(_))));
    }

    #[test]
    fn drop_table_removes() {
        let c = Cluster::new(1, CostModel::test());
        c.create_table("t", &["a"]).unwrap();
        c.drop_table("t").unwrap();
        assert!(c.table("t").is_err());
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn empty_schema_rejected() {
        let c = Cluster::new(1, CostModel::test());
        assert!(matches!(
            c.create_table("t", &[]),
            Err(StoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn forked_handles_share_data_but_not_ledgers() {
        let c = Cluster::new(2, CostModel::test());
        c.create_table("t", &["cf"]).unwrap();
        let fork = c.fork_metrics();
        // Data written through one handle is visible through the other...
        c.client()
            .put(
                "t",
                b"r",
                crate::cell::Mutation::put("cf", b"q", b"v".to_vec()),
            )
            .unwrap();
        assert!(fork.client().get("t", b"r").unwrap().is_some());
        // ...but the fork's read was billed to the fork's ledger only.
        assert_eq!(fork.metrics().snapshot().kv_reads, 1);
        assert_eq!(c.metrics().snapshot().kv_reads, 0);
        assert_eq!(c.metrics().snapshot().kv_writes, 1);
        assert_eq!(fork.metrics().snapshot().kv_writes, 0);
    }

    #[test]
    fn clock_is_monotone() {
        let c = Cluster::new(1, CostModel::test());
        let a = c.next_ts();
        let b = c.next_ts();
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "no such node")]
    fn task_client_validates_node() {
        let c = Cluster::new(2, CostModel::test());
        let _ = c.task_client(5);
    }
}
