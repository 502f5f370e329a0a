//! ISL query processing (paper Algorithm 4): the batched descent over
//! the score lists [`crate::isl::build`] wrote, at any number of sides, as
//! the step machine the crate's one cursor pumps ([`crate::cursor`]). A
//! run goes through the executor: a one-shot run is its cursor drained in
//! one pull.

use std::ops::Range;
use std::sync::Arc;

use rj_store::client::{Client, ScannerState};
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::row::{CellRef, RowBatch, RowRef};
use rj_store::scan::Scan;

use crate::codec;
use crate::cursor::{CursorMeta, SideAccess, StateInner, Step};
use crate::error::{RankJoinError, Result};
use crate::hrjn::HrjnState;
use crate::query::JoinSpec;
use crate::result::JoinTuple;
use crate::stats::Extras;

/// What opening an ISL cursor with the wrong number of per-side
/// arguments answers.
const ONE_PER_SIDE: RankJoinError =
    RankJoinError::InvalidSpec("one batch size and one SideAccess per side required");

/// One side of the descent: how it is consumed and where its scanner
/// stands (its tuples live under the side's label, read through the
/// shared spec). Its scans refill a row batch taken from the run's
/// spares when the cursor opens, and given back when the cursor drops
/// ([`crate::spare`]).
#[derive(Clone)]
pub(crate) struct SideScan {
    /// Index rows pulled per turn (the paper's `C_i`, §4.2.3).
    pub batch: usize,
    pub access: SideAccess,
    scan: SideRows,
}

/// Where one side's scan stands.
#[derive(Clone)]
enum SideRows {
    /// Not opened yet (always, for a materialized side): the batch its
    /// scan will open on.
    Unopened(RowBatch),
    /// Detached scanner position, its batch inside.
    Open(ScannerState),
}

impl Default for SideRows {
    fn default() -> Self {
        SideRows::Unopened(RowBatch::new())
    }
}

impl SideRows {
    fn into_batch(self) -> RowBatch {
        match self {
            SideRows::Unopened(rows) => rows,
            SideRows::Open(scan) => scan.into_batch(),
        }
    }
}

/// Detached state of an ISL cursor: the exact position of the batched
/// descent, plus the HRJN operator itself. Resuming attaches a cluster
/// handle and does no other work, however deep the descent has gone.
#[derive(Clone)]
pub(crate) struct IslCore {
    /// Bookkeeping, with `meta.k == state.k()`.
    pub meta: CursorMeta,
    /// The spec the descent serves, shared with whoever opened it: each
    /// side's label is its column family in the index table.
    pub spec: Arc<JoinSpec>,
    /// Index table name, the table's own handle.
    pub table: Arc<str>,
    /// Per-side scan state, in spec side order.
    pub sides: Vec<SideScan>,
    /// Which side the current batch pulls from, picked at its start (see
    /// its `Step::step`).
    pub turn: usize,
    /// Batches this run completed or started: a re-target starts a run,
    /// counting only the part-way batch it continues.
    pub batches: u64,
    /// A batch is part-way through (paused by early HRJN termination —
    /// a deeper re-target continues it mid-row).
    pub in_batch: bool,
    /// Rows consumed within the current batch.
    pub rows_taken: usize,
    /// The position of the first cell not yet pushed of the row HRJN
    /// terminated inside (the one-shot loop stops pushing the instant HRJN
    /// terminates; a deeper re-target must push the remainder before
    /// reading on). The row itself stays unread at the head of its side's
    /// scanner ([`rj_store::client::Scanner::unread`]), so nothing is
    /// copied out.
    pub pending: Option<usize>,
    /// The HRJN operator: seen tuples of every side, bounds, exhaustion
    /// flags (the only copy of them) and the top-k buffer.
    pub state: HrjnState,
}

impl Drop for IslCore {
    /// Gives each side's row batch and the operator's buffers back.
    fn drop(&mut self) {
        let spares = &self.meta.spares;
        for (position, side) in self.sides.iter_mut().enumerate() {
            spares.give_batch(position, std::mem::take(&mut side.scan).into_batch());
        }
        self.state.give_back(spares);
    }
}

/// Decodes one index cell — qualifier = base row key, value = the cell
/// layout of [`codec::encode_values_score`] — against `side`'s edge count
/// and feeds it to HRJN as a tuple of `side`, copying nothing. A cell that
/// does not decode (written for a different spec, or corrupt) is a typed
/// error: joining on it, skipping it or guessing its score would all
/// return a wrong answer silently.
fn push_index_cell(state: &mut HrjnState, side: usize, cell: CellRef<'_>) -> Result<()> {
    let (join_values, score) = codec::decode_values_score(cell.value, state.edges(side))?;
    state.push_borrowed(side, cell.qualifier, join_values, score)
}

/// Feeds every cell of `side`'s index family in `row` to HRJN. Row key =
/// negated score (cells carry it exactly); each cell of the side's family
/// = one indexed tuple.
fn ingest_row(state: &mut HrjnState, side: usize, family: &str, row: RowRef<'_>) -> Result<()> {
    if keys::decode_score_desc(row.key).is_none() {
        return Ok(());
    }
    for cell in row.family_cells(family) {
        push_index_cell(state, side, cell)?;
    }
    Ok(())
}

/// [`ingest_row`] from cell position `first_cell` on, stopping the
/// instant HRJN terminates (Algorithm 4 tests inside the tuple loop):
/// `Some(next)` when it did, `next` being the position of the first cell
/// not looked at.
fn descend_row(
    state: &mut HrjnState,
    side: usize,
    family: &str,
    row: RowRef<'_>,
    first_cell: usize,
) -> Result<Option<usize>> {
    if keys::decode_score_desc(row.key).is_none() {
        return Ok(None);
    }
    for (at, cell) in row.cells().enumerate().skip(first_cell) {
        if cell.family != family {
            continue;
        }
        push_index_cell(state, side, cell)?;
        if state.is_done() {
            return Ok(Some(at + 1));
        }
    }
    Ok(None)
}

impl IslCore {
    /// The descent for the top `meta.k` of `spec`, side `i` pulling
    /// `batch(i)` rows per turn: the operator and the scans take their
    /// buffers from `meta.spares`, and give them back there.
    pub(crate) fn open(
        cluster: &Cluster,
        spec: &Arc<JoinSpec>,
        meta: CursorMeta,
        index_table: &str,
        batch: impl Fn(usize) -> usize,
        access: &[SideAccess],
    ) -> Result<Self> {
        if access.len() != spec.n() {
            return Err(ONE_PER_SIDE);
        }
        let table = cluster
            .table(index_table)
            .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?
            .name_handle();
        Ok(IslCore {
            sides: access
                .iter()
                .enumerate()
                .map(|(position, &access)| SideScan {
                    batch: batch(position),
                    access,
                    scan: SideRows::Unopened(meta.spares.batch(position)),
                })
                .collect(),
            state: HrjnState::from_spares(&meta.spares, spec, meta.k),
            meta,
            spec: spec.clone(),
            table,
            turn: 0,
            batches: 0,
            in_batch: false,
            rows_taken: 0,
            pending: None,
        })
    }

    pub(crate) fn retarget(&mut self, new_k: usize) {
        let spares = std::mem::take(&mut self.meta.spares);
        self.meta = CursorMeta::new(new_k, self.meta.pinned_version, spares);
        self.batches = u64::from(self.in_batch);
        self.state.retarget(new_k);
    }

    /// Bulk-ingests every [`SideAccess::Materialize`] side not ingested
    /// yet: a full descending-score scan of its index family, all tuples
    /// pushed and the side exhausted (which is the record that it ran).
    /// Reads are charged like any scan — materialization is paid once, on
    /// whichever pull triggers it.
    fn materialize_sides(&mut self, client: &Client) -> Result<()> {
        let IslCore {
            spec,
            table,
            sides,
            state,
            ..
        } = self;
        for (i, side) in sides.iter_mut().enumerate() {
            if side.access != SideAccess::Materialize || state.is_exhausted(i) {
                continue;
            }
            let family = spec.sides[i].label.as_str();
            let spec = Scan::new().families(&[family]).caching(side.batch);
            let rows = std::mem::take(&mut side.scan).into_batch();
            let mut scan = client.scan_with_batch(table, spec, rows)?;
            while let Some(row) = scan.next_row()? {
                ingest_row(state, i, family, row)?;
            }
            side.scan = SideRows::Unopened(scan.into_state().into_batch());
            state.exhaust(i);
        }
        Ok(())
    }
}

impl Step for IslCore {
    /// Runs exactly one batch of the descent (after the materialization
    /// pass on the first call), or finishes a part-way batch left by an
    /// earlier re-target — the body of the paper's Algorithm 4 loop.
    /// Returns whether a batch completed at its boundary with input left;
    /// `false` when nothing is left to do (HRJN terminated or every input
    /// exhausted, possibly mid-batch): a batch that exhausts every side is
    /// the last, so no policy is evaluated after it.
    fn step(&mut self, cluster: &Cluster) -> Result<bool> {
        if self.drained() {
            return Ok(false);
        }
        let client = cluster.client();
        self.materialize_sides(&client)?;
        if self.drained() {
            return Ok(false);
        }
        let n = self.sides.len();
        if !self.in_batch {
            // Three or more sides pull the side that sets the threshold,
            // two alternate (Algorithm 4); materialized sides are exhausted,
            // and all-exhausted is `drained`, so a side with input exists.
            // Two sides pulled by the threshold would read about 40 % less
            // but put ISL ahead of BFHM where the paper's Figure 7 has
            // BFHM lead, so the binary descent keeps the paper's order.
            match self.state.pull_side() {
                Some(side) if n > 2 => self.turn = side,
                _ => {
                    while self.state.is_exhausted(self.turn) {
                        self.turn = (self.turn + 1) % n;
                    }
                }
            }
            self.batches += 1;
            self.rows_taken = 0;
            self.in_batch = true;
        }
        let turn = self.turn;
        let side = &mut self.sides[turn];
        let family = self.spec.sides[turn].label.as_str();
        // The scanner is reattached at its detached position only when a
        // further row is demanded, and detached again whether or not the
        // rows failed: a failed RPC leaves the descent after the last row
        // it consumed, and the next call continues the batch from there.
        let mut scan = None;
        let rows = (|| -> Result<bool> {
            while self.rows_taken < side.batch || self.pending.is_some() {
                let scan = match &mut scan {
                    Some(scan) => scan,
                    none => none.insert(match std::mem::take(&mut side.scan) {
                        SideRows::Open(position) => client.resume_scan(position)?,
                        SideRows::Unopened(rows) => {
                            let spec = Scan::new().families(&[family]).caching(side.batch);
                            client.scan_with_batch(&self.table, spec, rows)?
                        }
                    }),
                };
                let Some(row) = scan.next_row()? else {
                    self.state.exhaust(turn);
                    break;
                };
                // The row a previous (shallower) target stopped inside
                // comes back first, its remaining cells already read and
                // billed; any other row was fetched in this batch, so is
                // paid for whatever comes of it.
                let first_cell = self.pending.take().unwrap_or_else(|| {
                    self.rows_taken += 1;
                    0
                });
                let cells = row.cells().len();
                if let Some(next) = descend_row(&mut self.state, turn, family, row, first_cell)? {
                    if next < cells {
                        self.pending = Some(next);
                        scan.unread();
                    }
                    return Ok(false);
                }
            }
            Ok(true)
        })();
        if let Some(scan) = scan {
            side.scan = SideRows::Open(scan.into_state());
        }
        let completed = rows?;
        if completed {
            self.in_batch = false;
            self.turn = (turn + 1) % n;
        }
        Ok(completed && !self.state.all_exhausted())
    }

    fn drained(&self) -> bool {
        self.meta.k == 0 || self.state.is_done() || self.state.all_exhausted()
    }

    /// While the descent runs, the buffered prefix **strictly** above the
    /// HRJN threshold; once drained, everything (see the module docs for
    /// why strictness is what makes emitted prefixes exact under score
    /// ties).
    fn certified(&self) -> usize {
        if self.drained() {
            return self.state.result_count();
        }
        let Some(threshold) = self.state.threshold() else {
            return 0;
        };
        self.state.results_above(threshold)
    }

    fn results(&mut self, ranks: Range<usize>) -> Vec<JoinTuple> {
        self.state.results(ranks)
    }

    /// Tuples consumed from the score lists.
    fn consumed_depth(&self) -> u64 {
        self.state.tuples_consumed() as u64
    }

    fn boundaries(&self) -> u64 {
        self.batches
    }

    fn meta(&self) -> &CursorMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut CursorMeta {
        &mut self.meta
    }

    fn paused(self) -> StateInner {
        StateInner::Isl(Box::new(self))
    }

    /// The paper's binary algorithm keeps its name; more sides report
    /// the multiway join.
    fn algorithm(&self) -> &'static str {
        if self.sides.len() == 2 {
            "ISL"
        } else {
            "MULTIWAY"
        }
    }

    /// The paper's binary ISL reports the tuples it consumed and the
    /// batches it fetched; more sides report none.
    fn extras(&self) -> Extras {
        if self.sides.len() != 2 {
            return Extras::None;
        }
        Extras::Isl {
            tuples_consumed: self.consumed_depth(),
            batches: self.batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::isl::{index_table_name, IslConfig};
    use crate::oracle;
    use crate::query::RankJoinQuery;
    use crate::stats::{Extras, QueryOutcome};
    use crate::testsupport::running_example_cluster;
    use rj_store::cluster::Cluster;

    /// An executor for `query` with its score index built.
    fn prepared(c: &Cluster, query: &RankJoinQuery) -> RankJoinExecutor {
        let mut ex = RankJoinExecutor::new(c, query.clone());
        ex.prepare_isl().unwrap();
        ex
    }

    /// Runs ISL for the top `k` at `batch` rows per turn.
    fn run(ex: &mut RankJoinExecutor, k: usize, batch: usize) -> QueryOutcome {
        ex.isl_config = IslConfig::uniform(batch);
        ex.execute_with_k(Algorithm::Isl, k).unwrap()
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let got = run(&mut prepared(&c, &q), 3, 2);
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
    }

    #[test]
    fn matches_oracle_for_all_k_and_batches() {
        let (c, q) = running_example_cluster();
        let mut ex = prepared(&c, &q);
        for k in [1, 2, 3, 7, 40] {
            for batch in [1, 3, 16] {
                assert_eq!(
                    run(&mut ex, k, batch).results,
                    oracle::topk(&c, &q.with_k(k)).unwrap(),
                    "k={k} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn early_termination_reads_less_than_everything() {
        let (c, q) = running_example_cluster();
        let got = run(&mut prepared(&c, &q), 1, 1);
        // 22 tuples exist; top-1 must terminate well before consuming all.
        let shallow = matches!(
            got.extras,
            Extras::Isl {
                tuples_consumed: ..15,
                ..
            }
        );
        assert!(shallow, "{:?}", got.extras);
    }

    #[test]
    fn larger_batches_fewer_rpcs_more_reads() {
        let (c, q) = running_example_cluster();
        let mut ex = prepared(&c, &q);
        let small = run(&mut ex, q.k, 1);
        let large = run(&mut ex, q.k, 50);
        assert!(large.metrics.rpc_calls < small.metrics.rpc_calls);
        assert!(large.metrics.kv_reads >= small.metrics.kv_reads);
        assert_eq!(small.results, large.results);
    }

    /// An index table dropped under the executor that built it is
    /// reported when a run opens.
    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let ex = prepared(&c, &q);
        c.drop_table(&index_table_name(&q)).unwrap();
        assert!(matches!(
            ex.execute(Algorithm::Isl).unwrap_err(),
            crate::error::RankJoinError::MissingIndex(_)
        ));
    }
}
