//! Clients: the only way queries touch data, and where costs are charged.
//!
//! A client is "located" either outside the cluster (the coordinator /
//! querying node — every access is remote) or on a node (a MapReduce task —
//! accesses to that node's regions are local: no network bytes, negligible
//! RPC latency). Every operation updates the cluster's metric ledger
//! (RPCs, KV read units, cross-node bytes) and accumulates modelled time in
//! the client's own elapsed-time cell; coordinator clients also charge that
//! time to the global simulated clock.

use std::cell::Cell as StdCell;
use std::sync::Arc;

use crate::cell::Mutation;
use crate::cluster::Shared;
use crate::error::Result;
use crate::metrics::Metrics;
use crate::region::ReadCost;
use crate::row::RowResult;
use crate::scan::Scan;

/// Fraction of the remote RPC latency charged for a node-local call.
const LOCAL_CALL_FACTOR: f64 = 0.05;

/// A client handle. Not `Sync`: create one per logical actor (coordinator,
/// MR task, parallel-round worker).
pub struct Client {
    shared: Arc<Shared>,
    /// The ledger this client charges (the creating handle's ledger).
    metrics: Arc<Metrics>,
    /// `None` = external coordinator; `Some(n)` = pinned to node `n`.
    location: Option<usize>,
    /// Modelled seconds spent in this client's operations.
    elapsed: StdCell<f64>,
    /// The node-serialized share of `elapsed`: server disk/CPU work and
    /// network transfer, excluding RPC round-trip latency (which overlaps
    /// across concurrent in-flight requests).
    node_busy: StdCell<f64>,
    /// Whether ops immediately advance the cluster's simulated clock.
    charge_global_time: bool,
}

impl Client {
    pub(crate) fn new(
        shared: Arc<Shared>,
        metrics: Arc<Metrics>,
        location: Option<usize>,
        charge_global_time: bool,
    ) -> Self {
        Client {
            shared,
            metrics,
            location,
            elapsed: StdCell::new(0.0),
            node_busy: StdCell::new(0.0),
            charge_global_time,
        }
    }

    /// Where this client runs (`None` = outside the cluster).
    pub fn location(&self) -> Option<usize> {
        self.location
    }

    /// Modelled seconds consumed by this client so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed.get()
    }

    /// The node-serialized share of [`Client::elapsed_seconds`]: server
    /// read/write work plus network transfer, excluding RPC round-trip
    /// latency. Parallel rounds serialize this share per node lane.
    pub fn node_busy_seconds(&self) -> f64 {
        self.node_busy.get()
    }

    /// Resets the elapsed-time accumulators (MR engine / round-worker reuse).
    pub fn reset_elapsed(&self) {
        self.elapsed.set(0.0);
        self.node_busy.set(0.0);
    }

    fn is_local(&self, node: usize) -> bool {
        self.location == Some(node)
    }

    fn charge(&self, node: usize, server_time: f64, shipped_bytes: u64) {
        let m = &self.shared.cost;
        let local = self.is_local(node);
        let rpc = if local {
            m.rpc_latency * LOCAL_CALL_FACTOR
        } else {
            m.rpc_latency
        };
        let transfer = if local {
            0.0
        } else {
            m.transfer_time(shipped_bytes)
        };
        let total = rpc + server_time + transfer;
        self.elapsed.set(self.elapsed.get() + total);
        self.node_busy
            .set(self.node_busy.get() + server_time + transfer);
        self.metrics.add_rpc();
        if !local {
            self.metrics.add_network_bytes(shipped_bytes);
        }
        if self.charge_global_time {
            self.metrics.add_sim_seconds(total);
        }
    }

    fn charge_read(&self, node: usize, cost: &ReadCost) {
        self.metrics.add_kv_reads(cost.kvs_scanned);
        let server_time = self
            .shared
            .cost
            .server_read_time(cost.bytes_scanned, cost.kvs_scanned);
        self.charge(node, server_time, cost.bytes_returned);
    }

    /// Applies one mutation to a row.
    pub fn put(&self, table: &str, row: &[u8], mutation: Mutation) -> Result<()> {
        self.mutate_row(table, row, vec![mutation])
    }

    /// Tombstones one column of a row.
    pub fn delete(&self, table: &str, row: &[u8], family: &str, qualifier: &[u8]) -> Result<()> {
        self.mutate_row(table, row, vec![Mutation::delete(family, qualifier)])
    }

    /// Applies a batch of mutations to one row **atomically** (HBase
    /// row-level atomicity — the §6 update algorithms depend on it).
    pub fn mutate_row(&self, table: &str, row: &[u8], mutations: Vec<Mutation>) -> Result<()> {
        let t = self.lookup(table)?;
        let ts = self.shared.clock_next();
        let (bytes, node) = t.mutate_row(row, &mutations, ts)?;
        self.metrics.add_kv_writes(mutations.len() as u64);
        // Writes pay an append (sequential) disk cost plus shipping.
        let server_time = bytes as f64 / self.shared.cost.disk_bandwidth;
        self.charge(node, server_time, bytes);
        Ok(())
    }

    /// Point read of a full row.
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>> {
        self.get_with_families(table, row, None)
    }

    /// Point read restricted to certain families.
    pub fn get_with_families(
        &self,
        table: &str,
        row: &[u8],
        families: Option<&[String]>,
    ) -> Result<Option<RowResult>> {
        let t = self.lookup(table)?;
        let (result, cost, node) = t.get(row, families)?;
        self.charge_read(node, &cost);
        Ok(result)
    }

    /// Opens a scanner. Rows stream back in ascending key order, fetched
    /// `caching` rows per RPC.
    pub fn scan(&self, table: &str, scan: Scan) -> Result<Scanner<'_>> {
        let t = self.lookup(table)?;
        // Validate family projection eagerly so errors surface here.
        if let Some(fams) = &scan.families {
            for f in fams {
                t.family_index(f)?;
            }
        }
        Ok(Scanner {
            client: self,
            table: t,
            next_key: scan.start.clone().unwrap_or_default(),
            done: false,
            returned: 0,
            buffer: std::collections::VecDeque::new(),
            spec: scan,
        })
    }

    /// Reattaches a scanner detached with [`Scanner::into_state`] to this
    /// client. The resumed scanner continues exactly where the original
    /// left off, including rows already fetched into its buffer — parallel
    /// warm-up rounds prefetch on worker clients and hand the state to the
    /// coordinator without re-reading (or re-billing) anything.
    pub fn resume_scan(&self, state: ScannerState) -> Result<Scanner<'_>> {
        let table = self.lookup(&state.table)?;
        Ok(Scanner {
            client: self,
            table,
            spec: state.spec,
            next_key: state.next_key,
            done: state.done,
            returned: state.returned,
            buffer: state.buffer,
        })
    }

    fn lookup(&self, table: &str) -> Result<Arc<crate::table::Table>> {
        self.shared
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| crate::error::StoreError::TableNotFound(table.to_owned()))
    }
}

impl Shared {
    /// Mirror of `Cluster::next_ts` without needing a `Cluster` handle.
    fn clock_next(&self) -> u64 {
        use std::sync::atomic::Ordering;
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

/// A streaming scanner over one table.
pub struct Scanner<'c> {
    client: &'c Client,
    table: Arc<crate::table::Table>,
    spec: Scan,
    next_key: Vec<u8>,
    done: bool,
    returned: usize,
    buffer: std::collections::VecDeque<RowResult>,
}

/// A detached scanner position: everything needed to resume a scan on
/// another client via [`Client::resume_scan`], including already-fetched
/// (and already-billed) buffered rows. Cloning duplicates the position
/// *and* the buffered rows — both clones resume without re-billing them.
#[derive(Clone)]
pub struct ScannerState {
    /// The table's own name handle: detaching copies no bytes, and the
    /// state stays plain data (resuming looks the table up by name).
    table: Arc<str>,
    spec: Scan,
    next_key: Vec<u8>,
    done: bool,
    returned: usize,
    buffer: std::collections::VecDeque<RowResult>,
}

impl ScannerState {
    /// Whether fetched-but-unconsumed rows are buffered.
    pub fn has_buffered_rows(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Whether the underlying scan has reached its end (no further RPCs
    /// would be issued; buffered rows may remain).
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// The key the next batch RPC would start from, or `None` if the scan
    /// is exhausted.
    pub fn resume_key(&self) -> Option<&[u8]> {
        (!self.done).then_some(self.next_key.as_slice())
    }

    /// Removes and returns the buffered (already billed) rows.
    pub fn take_buffered_rows(&mut self) -> Vec<RowResult> {
        std::mem::take(&mut self.buffer).into()
    }
}

impl Scanner<'_> {
    /// Fetches until a row is buffered or the scan is exhausted — exactly
    /// the batch RPCs the first [`Iterator::next`] call would trigger
    /// (including walking empty regions). Lets a parallel round issue the
    /// first demand of several scanners concurrently.
    pub fn prefetch(&mut self) {
        while self.buffer.is_empty() && !self.done {
            self.fetch_batch();
        }
    }

    /// Detaches this scanner's position so it can cross a thread boundary
    /// and be resumed with [`Client::resume_scan`].
    pub fn into_state(self) -> ScannerState {
        ScannerState {
            table: self.table.name_handle(),
            spec: self.spec,
            next_key: self.next_key,
            done: self.done,
            returned: self.returned,
            buffer: self.buffer,
        }
    }

    fn fetch_batch(&mut self) {
        if self.done {
            return;
        }
        let batch = match self.table.scan_batch(
            &self.next_key,
            self.spec.stop.as_deref(),
            self.spec.families.as_deref(),
            self.spec.filter.as_deref(),
            self.spec.effective_caching(),
        ) {
            Ok(b) => b,
            Err(_) => {
                self.done = true;
                return;
            }
        };
        self.client.charge_read(batch.node, &batch.cost);
        self.buffer.extend(batch.rows);
        match batch.resume_key {
            Some(k) => self.next_key = k,
            None => self.done = true,
        }
    }
}

impl Iterator for Scanner<'_> {
    type Item = RowResult;

    fn next(&mut self) -> Option<RowResult> {
        if let Some(limit) = self.spec.limit {
            if self.returned >= limit {
                return None;
            }
        }
        while self.buffer.is_empty() && !self.done {
            self.fetch_batch();
        }
        let row = self.buffer.pop_front()?;
        self.returned += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::costmodel::CostModel;
    use crate::keys;

    fn small_cluster() -> Cluster {
        let c = Cluster::new(2, CostModel::test());
        c.create_table("t", &["cf", "idx"]).unwrap();
        c
    }

    #[test]
    fn put_get_delete_cycle() {
        let c = small_cluster();
        let cl = c.client();
        cl.put("t", b"r", Mutation::put("cf", b"q", b"v".to_vec()))
            .unwrap();
        assert!(cl.get("t", b"r").unwrap().is_some());
        cl.delete("t", b"r", "cf", b"q").unwrap();
        assert!(cl.get("t", b"r").unwrap().is_none());
    }

    #[test]
    fn scan_streams_in_key_order() {
        let c = small_cluster();
        let cl = c.client();
        for i in [5u64, 1, 9, 3, 7] {
            cl.put(
                "t",
                &keys::encode_u64(i),
                Mutation::put("cf", b"q", i.to_string().into_bytes()),
            )
            .unwrap();
        }
        let got: Vec<u64> = cl
            .scan("t", Scan::new().caching(2))
            .unwrap()
            .map(|r| keys::decode_u64(&r.key).unwrap())
            .collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn scan_limit_short_circuits() {
        let c = small_cluster();
        let cl = c.client();
        for i in 0..20u64 {
            cl.put(
                "t",
                &keys::encode_u64(i),
                Mutation::put("cf", b"q", b"v".to_vec()),
            )
            .unwrap();
        }
        let before = c.metrics().snapshot();
        let got: Vec<_> = cl
            .scan("t", Scan::new().caching(5).limit(5))
            .unwrap()
            .collect();
        assert_eq!(got.len(), 5);
        let delta = c.metrics().snapshot().delta_since(&before);
        // With caching=5 and limit=5, one batch suffices.
        assert_eq!(delta.kv_reads, 5, "limit should avoid scanning everything");
    }

    #[test]
    fn metrics_account_reads_and_network() {
        let c = small_cluster();
        let cl = c.client();
        cl.put("t", b"r1", Mutation::put("cf", b"q", vec![0u8; 64]))
            .unwrap();
        let before = c.metrics().snapshot();
        cl.get("t", b"r1").unwrap();
        let d = c.metrics().snapshot().delta_since(&before);
        assert_eq!(d.kv_reads, 1);
        assert!(d.network_bytes >= 64, "coordinator reads are remote");
        assert_eq!(d.rpc_calls, 1);
        assert!(d.sim_seconds > 0.0);
    }

    #[test]
    fn local_task_client_ships_no_bytes() {
        let c = small_cluster();
        let coordinator = c.client();
        // Find which node hosts the (single-region) table.
        let node = c.table("t").unwrap().region_infos()[0].node;
        coordinator
            .put("t", b"r1", Mutation::put("cf", b"q", vec![0u8; 64]))
            .unwrap();

        let local = c.task_client(node);
        let before = c.metrics().snapshot();
        local.get("t", b"r1").unwrap();
        let d = c.metrics().snapshot().delta_since(&before);
        assert_eq!(d.network_bytes, 0, "local read crosses no node boundary");
        assert_eq!(d.kv_reads, 1, "but is still billed as a read unit");
        assert_eq!(d.sim_seconds, 0.0, "task clients do not charge the clock");
        assert!(local.elapsed_seconds() > 0.0);

        let other = c.task_client((node + 1) % 2);
        let before = c.metrics().snapshot();
        other.get("t", b"r1").unwrap();
        let d = c.metrics().snapshot().delta_since(&before);
        assert!(d.network_bytes > 0, "cross-node read ships bytes");
    }

    #[test]
    fn atomic_mutate_row_applies_all() {
        let c = small_cluster();
        let cl = c.client();
        cl.mutate_row(
            "t",
            b"r",
            vec![
                Mutation::put("cf", b"q1", b"a".to_vec()),
                Mutation::put("idx", b"q2", b"b".to_vec()),
            ],
        )
        .unwrap();
        let row = cl.get("t", b"r").unwrap().unwrap();
        assert!(row.value("cf", b"q1").is_some());
        assert!(row.value("idx", b"q2").is_some());
    }

    #[test]
    fn scan_with_filter_bills_scanned_not_shipped() {
        use crate::filter::KeyPrefix;
        let c = small_cluster();
        let cl = c.client();
        for i in 0..10u64 {
            cl.put(
                "t",
                &keys::encode_u64(i),
                Mutation::put("cf", b"q", vec![0u8; 32]),
            )
            .unwrap();
        }
        let before = c.metrics().snapshot();
        let rows: Vec<_> = cl
            .scan(
                "t",
                Scan::new().filter(std::sync::Arc::new(KeyPrefix(keys::encode_u64(3).to_vec()))),
            )
            .unwrap()
            .collect();
        assert_eq!(rows.len(), 1);
        let d = c.metrics().snapshot().delta_since(&before);
        assert_eq!(d.kv_reads, 10, "every row read at the server is billed");
        assert!(
            d.network_bytes < 10 * 32,
            "only the matching row is shipped"
        );
    }

    #[test]
    fn scan_unknown_family_errors_eagerly() {
        let c = small_cluster();
        let cl = c.client();
        assert!(cl.scan("t", Scan::new().families(&["nope"])).is_err());
    }
}
