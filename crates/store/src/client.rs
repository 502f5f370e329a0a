//! Clients: the only way queries touch data, and where costs are charged.
//!
//! A client is "located" either outside the cluster (the coordinator /
//! querying node — every access is remote) or on a node (a MapReduce task —
//! accesses to that node's regions are local: no network bytes, negligible
//! RPC latency). Every operation updates the cluster's metric ledger
//! (RPCs, KV read units, cross-node bytes) and accumulates modelled time in
//! the client's own elapsed-time cell; coordinator clients also charge that
//! time to the global simulated clock.
//!
//! # Scanners
//!
//! A [`Scanner`] owns one [`RowBatch`] and refills it per RPC, so what a
//! scan allocates does not depend on how many rows it returns: the batch
//! buffers and the resume key grow to the largest step seen and are then
//! reused. A caller that runs many scans can open each on the batch the
//! last one grew ([`Client::scan_with_batch`], [`ScannerState::into_batch`]).
//! The family projection is resolved when the scanner opens and,
//! a detached state being plain data, again at the first RPC after every
//! [`Client::resume_scan`] — against whatever schema the table's name has
//! by then; the one-family projection every index scan uses is held
//! inline, so neither resolution allocates.
//! [`Scanner::next_row`] lends each row out of the batch as a
//! [`RowRef`]; the `Iterator` implementation is the owned adaptor over it
//! for consumers that keep rows. A detached [`ScannerState`] carries the
//! batch's unread rows (already billed) and nothing it has handed out.
//!
//! # Point reads
//!
//! One walk. [`Client::get_into`] is `next_row`'s counterpart: the caller
//! owns one [`RowBatch`] and a [`Projection`] resolved once
//! ([`Client::projection`]), every read refills the batch and lends the
//! row out as a [`RowRef`], and a run of gets — BFHM's bucket and
//! reverse-mapping reads, a maintained delete's read of its base row —
//! allocates nothing once the batch has grown to its widest row.
//! [`Client::get`] is `get_into` on a batch of its own, copied out with
//! [`RowRef::to_owned`], for a test or tool that keeps one full row.

use std::cell::Cell as StdCell;
use std::sync::Arc;

use crate::cell::Mutation;
use crate::cluster::Shared;
use crate::error::{Result, StoreError};
use crate::metrics::Metrics;
use crate::region::{Checked, ReadCost};
use crate::row::{RowBatch, RowRef, RowResult};
use crate::scan::Scan;
use crate::table::{Families, Table};

/// Fraction of the remote RPC latency charged for a node-local call.
const LOCAL_CALL_FACTOR: f64 = 0.05;

/// A client handle. Not `Sync`: create one per logical actor (coordinator
/// or MR task).
pub struct Client {
    shared: Arc<Shared>,
    /// The ledger this client charges (the creating handle's ledger).
    metrics: Arc<Metrics>,
    /// `None` = external coordinator, whose ops immediately advance the
    /// cluster's simulated clock; `Some(n)` = pinned to node `n`.
    location: Option<usize>,
    /// Modelled seconds spent in this client's operations.
    elapsed: StdCell<f64>,
}

impl Client {
    pub(crate) fn new(shared: Arc<Shared>, metrics: Arc<Metrics>, location: Option<usize>) -> Self {
        Client {
            shared,
            metrics,
            location,
            elapsed: StdCell::new(0.0),
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
        self.metrics.add_rpc();
        if !local {
            self.metrics.add_network_bytes(shipped_bytes);
        }
        if self.location.is_none() {
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
        self.mutate_row(table, row, [mutation])
    }

    /// Tombstones one column of a row.
    pub fn delete(&self, table: &str, row: &[u8], family: &str, qualifier: &[u8]) -> Result<()> {
        self.mutate_row(table, row, [Mutation::delete(family, qualifier)])
    }

    /// Applies a batch of mutations to one row **atomically** (HBase
    /// row-level atomicity — the §6 update algorithms depend on it).
    ///
    /// `mutations` is anything that lends a slice: a `Vec`, or an array
    /// for a one-mutation write, which then allocates no vector. The region
    /// keeps the qualifier and value handles of each mutation it stores
    /// (clones, not copies) and copies only a new row's key.
    pub fn mutate_row(
        &self,
        table: &str,
        row: &[u8],
        mutations: impl AsRef<[Mutation]>,
    ) -> Result<()> {
        let mutations = mutations.as_ref();
        let t = self.lookup(table)?;
        let ts = self.shared.clock_next();
        let (bytes, node) = t.mutate_row(row, mutations, ts)?;
        self.charge_write(node, mutations.len(), bytes);
        Ok(())
    }

    /// HBase's `checkAndMutate`, in one RPC: applies `then` to one row
    /// atomically if every `check` column (one family's qualifiers) holds
    /// a visible value in it, and `otherwise` if not. Returns whether the
    /// check held.
    ///
    /// The check and the write run under one hold of the row's region
    /// lock, so no other write lands between them. Only the branch applied
    /// is built, so the other allocates nothing. `then` is handed the row
    /// it checked, whose [`Checked::qualifier`] lends the handle the
    /// memstore stores for a checked column. The call bills exactly what
    /// [`Client::mutate_row`] of the applied branch bills; the check itself
    /// is not a billed read.
    pub fn check_and_mutate_row<Q: AsRef<[u8]>, M: AsRef<[Mutation]>>(
        &self,
        table: &str,
        row: &[u8],
        check: (&str, &[Q]),
        then: impl FnOnce(&Checked<'_>) -> M,
        otherwise: impl FnOnce() -> M,
    ) -> Result<bool> {
        let t = self.lookup(table)?;
        let ts = self.shared.clock_next();
        let (held, mutations, bytes, node) =
            t.check_and_mutate_row(row, check, then, otherwise, ts)?;
        self.charge_write(node, mutations.as_ref().len(), bytes);
        Ok(held)
    }

    /// Bills a write of `mutations` mutations and `bytes` bytes: an append
    /// (sequential) disk cost plus shipping.
    fn charge_write(&self, node: usize, mutations: usize, bytes: u64) {
        self.metrics.add_kv_writes(mutations as u64);
        let server_time = bytes as f64 / self.shared.cost.disk_bandwidth;
        self.charge(node, server_time, bytes);
    }

    /// Point read of a full row, owned: [`Client::get_into`] under every
    /// family into a batch of its own, copied out with
    /// [`RowRef::to_owned`]. It bills what that read bills.
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>> {
        let projection = self.projection(table, None)?;
        let mut batch = RowBatch::new();
        Ok(self
            .get_into(&mut batch, &projection, row)
            .map(RowRef::to_owned))
    }

    /// Resolves a family projection (`None` = every family) against
    /// `table` once, for any number of [`Client::get_into`] reads. An
    /// unknown table or family surfaces here.
    pub fn projection(&self, table: &str, families: Option<&[String]>) -> Result<Projection> {
        let table = self.lookup(table)?;
        let families = table.resolve_families(families)?;
        Ok(Projection { table, families })
    }

    /// The point read: fills the caller's `batch` (cleared first) with
    /// the projected row and lends it out, `None` when the row has no
    /// visible projected cell. Bills what a one-row scan of the same
    /// projection bills, and allocates nothing once `batch` has grown to
    /// the widest row read into it.
    pub fn get_into<'b>(
        &self,
        batch: &'b mut RowBatch,
        projection: &Projection,
        row: &[u8],
    ) -> Option<RowRef<'b>> {
        let (cost, node) = projection
            .table
            .get_into(row, projection.families.indices(), batch);
        self.charge_read(node, &cost);
        batch.get(0)
    }

    /// Opens a scanner. Rows stream back in ascending key order, fetched
    /// `caching` rows per RPC.
    pub fn scan(&self, table: &str, scan: Scan) -> Result<Scanner<'_>> {
        self.scan_with_batch(table, scan, RowBatch::new())
    }

    /// [`Client::scan`] refilling `batch` per RPC instead of a new one:
    /// a batch a finished scan grew ([`ScannerState::into_batch`]) starts
    /// the next at the capacity it reached. Its rows are dropped first.
    pub fn scan_with_batch(
        &self,
        table: &str,
        scan: Scan,
        mut batch: RowBatch,
    ) -> Result<Scanner<'_>> {
        batch.clear();
        let t = self.lookup(table)?;
        // Resolved eagerly so an unknown family surfaces here.
        let projection = t.resolve_families(scan.families.as_deref())?;
        Ok(Scanner {
            client: self,
            table: t,
            projection: Some(projection),
            next_key: scan.start.clone().unwrap_or_default(),
            done: false,
            returned: 0,
            batch,
            pos: 0,
            error: None,
            spec: scan,
        })
    }

    /// Reattaches a scanner detached with [`Scanner::into_state`] to this
    /// client. The resumed scanner continues exactly where the original
    /// left off, including rows already fetched into its buffer, without
    /// re-reading (or re-billing) anything.
    pub fn resume_scan(&self, state: ScannerState) -> Result<Scanner<'_>> {
        let table = self.lookup(&state.table)?;
        Ok(Scanner {
            client: self,
            table,
            // The table is looked up by name, so the projection is
            // resolved against whatever schema that name has now — by the
            // first RPC, where a failure is that RPC's error.
            projection: None,
            spec: state.spec,
            next_key: state.next_key,
            done: state.done,
            returned: state.returned,
            batch: state.batch,
            pos: 0,
            error: None,
        })
    }

    fn lookup(&self, table: &str) -> Result<Arc<Table>> {
        self.shared
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| StoreError::TableNotFound(table.to_owned()))
    }
}

impl Shared {
    /// Mirror of `Cluster::next_ts` without needing a `Cluster` handle.
    fn clock_next(&self) -> u64 {
        use std::sync::atomic::Ordering;
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

/// A table and a family projection resolved against its schema
/// ([`Client::projection`]): what a run of [`Client::get_into`] reads
/// resolves once instead of once per read, as a [`Scanner`] does for its
/// scan. It keeps the table it was resolved against: reads through it
/// see that table even if its name is dropped and re-created meanwhile.
#[derive(Clone)]
pub struct Projection {
    table: Arc<Table>,
    families: Families,
}

impl Projection {
    /// Name of the table the projection reads.
    pub fn table_name(&self) -> &str {
        self.table.name()
    }
}

/// A streaming scanner over one table (see the module docs).
pub struct Scanner<'c> {
    client: &'c Client,
    table: Arc<Table>,
    spec: Scan,
    /// `spec.families` resolved against `table`; `None` until a resumed
    /// scanner's first RPC.
    projection: Option<Families>,
    /// Where the next RPC starts; each RPC overwrites it in place.
    next_key: Vec<u8>,
    done: bool,
    returned: usize,
    /// The rows of the last RPC; those before `pos` have been handed out.
    batch: RowBatch,
    pos: usize,
    /// The RPC failure that ended the owned [`Iterator`] adaptor early.
    error: Option<StoreError>,
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
    /// Fetched rows not handed out yet.
    batch: RowBatch,
}

impl ScannerState {
    /// Whether the underlying scan has reached its end (no further RPCs
    /// would be issued; buffered rows may remain).
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// Ends the scan and hands back its row batch, unread rows included,
    /// for [`Client::scan_with_batch`] to refill.
    pub fn into_batch(self) -> RowBatch {
        self.batch
    }
}

impl Scanner<'_> {
    /// The next row, lent out of the scanner's batch: `Ok(None)` when the
    /// scan is complete (or its row limit reached), `Err` when the RPC
    /// that would have fetched the row failed — a truncated scan is never
    /// reported as a complete one. A failed call changes nothing: the
    /// position stands, and calling again retries the RPC.
    pub fn next_row(&mut self) -> Result<Option<RowRef<'_>>> {
        if self.spec.limit.is_some_and(|limit| self.returned >= limit) {
            return Ok(None);
        }
        self.prefetch()?;
        let row = self.batch.get(self.pos);
        if row.is_some() {
            self.pos += 1;
            self.returned += 1;
        }
        Ok(row)
    }

    /// Hands back the row the last [`Scanner::next_row`] lent: the next
    /// call, or the scanner resumed from [`Scanner::into_state`], lends it
    /// again, already read and billed. A consumer that stops part-way
    /// through a row keeps its place this way instead of copying the row
    /// out. Does nothing if no row was lent since the last fetch or resume.
    pub fn unread(&mut self) {
        if self.pos > 0 {
            self.pos -= 1;
            self.returned -= 1;
        }
    }

    /// The RPC failure that ended iteration through the owned
    /// [`Iterator`] adaptor, if one did.
    pub fn error(&self) -> Option<&StoreError> {
        self.error.as_ref()
    }

    /// Fetches until a row is buffered or the scan is exhausted — the
    /// batch RPCs [`Scanner::next_row`] triggers (including walking empty
    /// regions).
    fn prefetch(&mut self) -> Result<()> {
        while self.pos == self.batch.len() && !self.done {
            self.fetch_batch()?;
        }
        Ok(())
    }

    /// Detaches this scanner's position so it can cross a thread boundary
    /// and be resumed with [`Client::resume_scan`]. The state holds the
    /// fetched rows not handed out yet, and none that were.
    pub fn into_state(mut self) -> ScannerState {
        self.batch.drop_front(self.pos);
        ScannerState {
            table: self.table.name_handle(),
            spec: self.spec,
            next_key: self.next_key,
            done: self.done,
            returned: self.returned,
            batch: self.batch,
        }
    }

    /// One RPC: refills the (fully consumed) batch from `next_key` on.
    /// Nothing is charged and nothing moves unless the step succeeds.
    fn fetch_batch(&mut self) -> Result<()> {
        let projection = match &self.projection {
            Some(projection) => projection,
            None => {
                let resolved = self.table.resolve_families(self.spec.families.as_deref())?;
                self.projection.insert(resolved)
            }
        };
        self.batch.clear();
        self.pos = 0;
        let step = self.table.scan_batch_into(
            &mut self.next_key,
            self.spec.stop.as_deref(),
            projection.indices(),
            self.spec.filter.as_deref(),
            self.spec.effective_caching(),
            &mut self.batch,
        )?;
        self.client.charge_read(step.node, &step.cost);
        self.done = !step.more;
        Ok(())
    }
}

/// The owned adaptor over [`Scanner::next_row`]: two allocations per row.
/// An iterator can only end, so an RPC failure ends the scan here as
/// exhaustion would — check [`Scanner::error`] after the loop (or use
/// [`Scanner::next_row`]) where a truncated scan must not pass for a
/// complete one.
impl Iterator for Scanner<'_> {
    type Item = RowResult;

    fn next(&mut self) -> Option<RowResult> {
        if self.error.is_some() {
            return None;
        }
        match self.next_row() {
            Ok(row) => row.map(RowRef::to_owned),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::costmodel::CostModel;
    use crate::keys;
    use bytes::Bytes;

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

    /// Ten `cf` rows in `t`, keys `encode_u64(0..10)`.
    fn ten_rows(cl: &Client) {
        for i in 0..10u64 {
            cl.put(
                "t",
                &keys::encode_u64(i),
                Mutation::put("cf", b"q", b"v".to_vec()),
            )
            .unwrap();
        }
    }

    #[test]
    fn detached_state_holds_the_unread_rows_only() {
        let c = small_cluster();
        let cl = c.client();
        ten_rows(&cl);
        let mut scan = cl.scan("t", Scan::new().caching(4)).unwrap();
        let first = scan.next_row().unwrap().unwrap().to_owned();
        assert_eq!(first.key, keys::encode_u64(0));
        let before = c.metrics().snapshot();
        let state = scan.into_state();
        // It resumes on the three rows it buffered, then fetches the rest.
        let mut rest = cl.resume_scan(state).unwrap();
        let mut resumed = Vec::new();
        while let Some(row) = rest.next_row().unwrap() {
            resumed.push(keys::decode_u64(row.key).unwrap());
        }
        assert_eq!(resumed, (1..10).collect::<Vec<_>>());
        let d = c.metrics().snapshot().delta_since(&before);
        assert_eq!(d.kv_reads, 6, "the buffered rows are not read again");
    }

    /// The table a detached scanner names is dropped and re-created
    /// without the scanner's family: the resumed scanner serves what it
    /// had buffered (and billed), and the RPC for the next row fails —
    /// as an error, every time, never as the end of the scan.
    #[test]
    fn a_failed_rpc_is_an_error_not_an_exhausted_scan() {
        let c = small_cluster();
        let cl = c.client();
        ten_rows(&cl);
        let mut scan = cl
            .scan("t", Scan::new().families(&["cf"]).caching(4))
            .unwrap();
        for _ in 0..2 {
            assert!(scan.next_row().unwrap().is_some());
        }
        let state = scan.into_state();
        c.drop_table("t").unwrap();
        c.create_table("t", &["idx"]).unwrap();

        let mut resumed = cl.resume_scan(state.clone()).unwrap();
        for _ in 0..2 {
            assert!(resumed.next_row().unwrap().is_some());
        }
        for _ in 0..2 {
            assert!(matches!(
                resumed.next_row(),
                Err(StoreError::FamilyNotFound { .. })
            ));
        }

        // The owned adaptor can only end; it keeps the reason.
        let mut owned = cl.resume_scan(state).unwrap();
        assert!(owned.error().is_none());
        assert_eq!(owned.by_ref().count(), 2);
        assert!(matches!(
            owned.error(),
            Some(StoreError::FamilyNotFound { .. })
        ));
        assert!(owned.next().is_none());
    }

    /// `check_and_mutate_row` applies `then` while every checked column
    /// holds a visible value — in the memstore or frozen — and `otherwise`
    /// once one is absent or tombstoned, billing what `mutate_row` of the
    /// applied branch bills.
    #[test]
    fn a_conditional_write_applies_one_branch_and_bills_it_alone() {
        let c = small_cluster();
        let cl = c.client();
        cl.mutate_row(
            "t",
            b"r",
            [
                Mutation::put("cf", b"a", b"1".to_vec()),
                Mutation::put("cf", b"b", b"2".to_vec()),
            ],
        )
        .unwrap();
        let branch = |q: &[u8]| [Mutation::put("idx", q, b"x".to_vec())];
        let conditional = |check: &[&[u8]]| {
            let before = c.metrics().snapshot();
            let held = cl
                .check_and_mutate_row(
                    "t",
                    b"r",
                    ("cf", check),
                    |_| branch(b"then"),
                    || branch(b"else"),
                )
                .unwrap();
            (held, c.metrics().snapshot().delta_since(&before))
        };
        let before = c.metrics().snapshot();
        cl.mutate_row("t", b"r", branch(b"then")).unwrap();
        let plain = c.metrics().snapshot().delta_since(&before);

        assert_eq!(conditional(&[b"a", b"b"]), (true, plain));
        assert_eq!(conditional(&[]), (true, plain), "nothing to check holds");
        assert!(!conditional(&[b"a", b"zz"]).0, "an absent column");
        assert!(cl
            .get("t", b"r")
            .unwrap()
            .unwrap()
            .value("idx", b"else")
            .is_some());
        cl.delete("t", b"r", "cf", b"b").unwrap();
        assert!(!conditional(&[b"b"]).0, "a tombstoned column");
        c.table("t").unwrap().flush();
        assert!(conditional(&[b"a"]).0, "a frozen column");
        assert!(!conditional(&[b"b"]).0, "a frozen tombstone");
        assert!(matches!(
            cl.check_and_mutate_row(
                "t",
                b"r",
                ("nope", &[b"a"]),
                |_| branch(b"q"),
                || branch(b"q")
            ),
            Err(StoreError::FamilyNotFound { .. })
        ));
    }

    /// `then` may store the handle the memstore keeps for a checked
    /// column instead of a copy; a frozen column lends none.
    #[test]
    fn a_checked_memstore_column_lends_its_qualifier_handle() {
        let c = small_cluster();
        let cl = c.client();
        let qualifier = Bytes::from_static(b"q");
        let put = Mutation::put_shared(
            "cf".into(),
            qualifier.clone(),
            Bytes::from_static(b"v"),
            None,
        );
        cl.mutate_row("t", b"r", [put]).unwrap();
        let lent = || {
            let mut lent = None;
            cl.check_and_mutate_row(
                "t",
                b"r",
                ("cf", &[b"q"]),
                |row| {
                    lent = row.qualifier(b"q");
                    Vec::new()
                },
                Vec::new,
            )
            .unwrap();
            lent
        };
        let handle = lent().unwrap();
        assert_eq!(handle.as_ptr(), qualifier.as_ptr(), "the writer's handle");
        c.table("t").unwrap().flush();
        assert_eq!(lent(), None, "a frozen column's bytes are the segment's");
    }

    #[test]
    fn scan_unknown_family_errors_eagerly() {
        let c = small_cluster();
        let cl = c.client();
        assert!(cl.scan("t", Scan::new().families(&["nope"])).is_err());
    }
}
