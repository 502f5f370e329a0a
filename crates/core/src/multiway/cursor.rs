//! The N-ary rank join as a [`RankedCursor`]: batched round-robin
//! descent over every [`SideAccess::Descend`] side of the multiway index,
//! with [`SideAccess::Materialize`] sides bulk-ingested up front —
//! per-side *materialize-then-join* inside one threshold-terminated
//! operator. Suspend/resume works exactly like the binary
//! [`crate::cursor::IslCursor`]: the detached state carries scan
//! positions plus the consumed-tuple log the [`NaryHrjn`] accumulator is
//! replayed from, and any `next_batch`/pause/resume schedule emits the
//! one-shot result sequence with the one-shot counted metrics.

use std::collections::VecDeque;

use rj_store::client::ScannerState;
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::metrics::MetricsSnapshot;
use rj_store::scan::Scan;

use crate::cancel::{StopPolicy, StopReason};
use crate::codec;
use crate::cursor::{
    clone_ranks, policy_stop, snap_add, BatchStep, CursorBatch, CursorMeta, CursorState,
    RankedCursor, StateInner,
};
use crate::error::{RankJoinError, Result};
use crate::multiway::hrjn::{NaryHrjn, NaryTuple};
use crate::query::JoinSpec;

/// How one side of a multiway execution is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideAccess {
    /// Batched descending-score index descent — the side participates in
    /// the round-robin threshold race (ISL-style).
    Descend,
    /// The side's full index family is scanned and ingested before the
    /// descent starts — materialize-then-join, the right call for a small
    /// side whose exhaustion tightens the threshold immediately.
    Materialize,
}

/// Knobs of the multiway descent.
#[derive(Clone, Copy, Debug)]
pub struct MultiwayConfig {
    /// Rows fetched per batch from each descending side.
    pub batch: usize,
}

impl Default for MultiwayConfig {
    fn default() -> Self {
        MultiwayConfig { batch: 64 }
    }
}

/// Detached state of a [`MultiwayCursor`] — the N-ary sibling of
/// [`crate::cursor::IslCore`].
#[derive(Clone)]
pub(crate) struct MultiwayCore {
    pub meta: CursorMeta,
    /// The spec, with `spec.k == meta.k`.
    pub spec: JoinSpec,
    /// Multiway index table name.
    pub table: String,
    pub config: MultiwayConfig,
    /// Per-side access choice (the planner's assignment).
    pub access: Vec<SideAccess>,
    /// Detached per-side scanner positions (`None` until first demand;
    /// always `None` for materialized sides).
    pub scans: Vec<Option<ScannerState>>,
    pub exhausted: Vec<bool>,
    /// Whether the up-front materialization pass already ran.
    pub materialized: bool,
    /// Which side the current/next batch descends.
    pub turn: usize,
    /// Batches completed or started.
    pub batches: u64,
    /// A batch is part-way through (paused by early termination).
    pub in_batch: bool,
    /// Rows consumed within the current batch.
    pub rows_taken: usize,
    /// Decoded tuples of a partially-consumed row, not yet pushed.
    pub pending: VecDeque<(usize, NaryTuple)>,
    /// Every tuple pushed, in push order — replayed on resume to rebuild
    /// the accumulator without touching the store.
    pub log: Vec<(usize, NaryTuple)>,
}

impl MultiwayCore {
    pub(crate) fn retarget(&mut self, new_k: usize) {
        self.spec = self.spec.with_k(new_k);
        self.meta = CursorMeta::new(new_k, self.meta.pinned_version);
    }
}

/// The multiway rank join as a [`RankedCursor`] (see the module docs).
pub struct MultiwayCursor {
    cluster: Cluster,
    core: MultiwayCore,
    state: NaryHrjn,
}

impl MultiwayCursor {
    /// Opens a cursor over a previously built multiway index
    /// ([`crate::multiway::index::build`]), consuming each side per
    /// `access`.
    pub fn open(
        cluster: &Cluster,
        spec: &JoinSpec,
        index_table: &str,
        config: MultiwayConfig,
        access: Vec<SideAccess>,
    ) -> Result<Self> {
        MultiwayCursor::open_pinned(cluster, spec, index_table, config, access, None)
    }

    pub(crate) fn open_pinned(
        cluster: &Cluster,
        spec: &JoinSpec,
        index_table: &str,
        config: MultiwayConfig,
        access: Vec<SideAccess>,
        pinned_version: Option<u64>,
    ) -> Result<Self> {
        if access.len() != spec.n() {
            return Err(RankJoinError::InvalidSpec(
                "one SideAccess per side required",
            ));
        }
        cluster
            .table(index_table)
            .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?;
        Ok(MultiwayCursor {
            cluster: cluster.clone(),
            state: NaryHrjn::new(spec),
            core: MultiwayCore {
                meta: CursorMeta::new(spec.k, pinned_version),
                spec: spec.clone(),
                table: index_table.to_owned(),
                config,
                scans: vec![None; access.len()],
                exhausted: vec![false; access.len()],
                access,
                materialized: false,
                turn: 0,
                batches: 0,
                in_batch: false,
                rows_taken: 0,
                pending: VecDeque::new(),
                log: Vec::new(),
            },
        })
    }

    /// Reattaches a detached state, replaying the consumed-tuple log into
    /// a fresh accumulator (pure in-memory — nothing re-read or
    /// re-billed).
    pub(crate) fn resume(cluster: &Cluster, core: MultiwayCore) -> Self {
        let mut state = NaryHrjn::new(&core.spec);
        for (side, tuple) in &core.log {
            state.push(*side, tuple.clone());
        }
        for (i, &done) in core.exhausted.iter().enumerate() {
            if done {
                state.exhaust(i);
            }
        }
        MultiwayCursor {
            cluster: cluster.clone(),
            state,
            core,
        }
    }

    fn drained(&self) -> bool {
        self.core.meta.k == 0 || self.state.is_done() || self.core.exhausted.iter().all(|&e| e)
    }

    /// Results certain to be final: strictly above the threshold while
    /// running, everything once drained (the same strict-emission rule as
    /// every other cursor — see [`crate::cursor`]'s contract).
    fn certified(&self) -> usize {
        if self.drained() {
            return self.state.result_count();
        }
        let Some(threshold) = self.state.threshold() else {
            return 0;
        };
        self.state
            .results()
            .take_while(|t| t.score > threshold)
            .count()
    }

    fn push_logged(&mut self, side: usize, tuple: NaryTuple) {
        self.core.log.push((side, tuple.clone()));
        self.state.push(side, tuple);
    }

    /// Bulk-ingests every `Materialize` side: full descending-score scan
    /// of its index family, all tuples pushed and the side exhausted.
    /// Reads are charged like any scan — materialization is paid once,
    /// on whichever pull triggers it.
    fn materialize_sides(&mut self) -> Result<()> {
        let client = self.cluster.client();
        for i in 0..self.core.access.len() {
            if self.core.access[i] != SideAccess::Materialize || self.core.exhausted[i] {
                continue;
            }
            let family = self.core.spec.sides[i].label.clone();
            let scan = client.scan(
                &self.core.table,
                Scan::new()
                    .families(&[family.as_str()])
                    .caching(self.core.config.batch),
            )?;
            for row in scan {
                if keys::decode_score_desc(&row.key).is_none() {
                    continue;
                }
                for cell in row.family_cells(&family) {
                    let Ok((edge_values, exact_score)) =
                        codec::decode_multi_value_score(&cell.value)
                    else {
                        continue;
                    };
                    self.push_logged(
                        i,
                        NaryTuple {
                            key: cell.qualifier.to_vec(),
                            edge_values,
                            score: exact_score,
                        },
                    );
                }
            }
            self.core.exhausted[i] = true;
            self.state.exhaust(i);
        }
        self.core.materialized = true;
        Ok(())
    }

    /// Runs one batch of the round-robin descent (after materializing on
    /// the first call) — the N-ary mirror of
    /// [`crate::cursor::IslCursor::advance_one_batch`].
    fn advance_one_batch(&mut self) -> Result<BatchStep> {
        if self.drained() {
            return Ok(BatchStep::Drained);
        }
        if !self.core.materialized {
            self.materialize_sides()?;
            if self.drained() {
                return Ok(BatchStep::Drained);
            }
        }
        let client = self.cluster.client();
        let n = self.core.spec.n();
        if !self.core.in_batch {
            // Advance to the next descendable side. At least one exists:
            // materialized sides are all exhausted, and all-exhausted is
            // `drained`.
            while self.core.access[self.core.turn] != SideAccess::Descend
                || self.core.exhausted[self.core.turn]
            {
                self.core.turn = (self.core.turn + 1) % n;
            }
            self.core.batches += 1;
            self.core.rows_taken = 0;
            self.core.in_batch = true;
        }
        let turn = self.core.turn;
        let family = self.core.spec.sides[turn].label.clone();
        let batch_size = self.core.config.batch;

        // Leftover cells of a row a previous (shallower) target stopped
        // inside — already read and billed, never re-fetched.
        while let Some((side, tuple)) = self.core.pending.pop_front() {
            self.push_logged(side, tuple);
            if self.state.is_done() {
                return Ok(BatchStep::Drained);
            }
        }

        let mut scan = match self.core.scans[turn].take() {
            Some(state) => client.resume_scan(state)?,
            None => {
                let spec = Scan::new().families(&[family.as_str()]).caching(batch_size);
                client.scan(&self.core.table, spec)?
            }
        };

        let mut step = BatchStep::Completed;
        'rows: while self.core.rows_taken < batch_size {
            let Some(row) = scan.next() else {
                self.core.exhausted[turn] = true;
                self.state.exhaust(turn);
                break;
            };
            self.core.rows_taken += 1;
            if keys::decode_score_desc(&row.key).is_none() {
                continue;
            }
            let mut cells: VecDeque<NaryTuple> = row
                .family_cells(&family)
                .filter_map(|cell| {
                    let (edge_values, score) = codec::decode_multi_value_score(&cell.value).ok()?;
                    Some(NaryTuple {
                        key: cell.qualifier.to_vec(),
                        edge_values,
                        score,
                    })
                })
                .collect();
            while let Some(tuple) = cells.pop_front() {
                self.push_logged(turn, tuple);
                if self.state.is_done() {
                    self.core.pending = cells.into_iter().map(|t| (turn, t)).collect();
                    step = BatchStep::Drained;
                    break 'rows;
                }
            }
        }
        self.core.scans[turn] = Some(scan.into_state());
        if step == BatchStep::Completed {
            self.core.in_batch = false;
            self.core.turn = (turn + 1) % n;
        }
        Ok(step)
    }

    /// Advances batches until `want` results are certified, the cursor
    /// drains, or the policy fires at a batch boundary.
    fn pump(
        &mut self,
        want: usize,
        policy: &StopPolicy,
    ) -> Result<(Option<StopReason>, MetricsSnapshot)> {
        let ledger = self.cluster.metrics();
        let before = ledger.snapshot();
        let mut stopped = None;
        loop {
            if self.drained() || self.certified() >= want {
                break;
            }
            match self.advance_one_batch()? {
                BatchStep::Drained => break,
                BatchStep::Completed => {
                    if self.core.exhausted.iter().all(|&e| e) {
                        continue;
                    }
                    let sim_so_far = self.core.meta.charged.sim_seconds
                        + ledger.snapshot().delta_since(&before).sim_seconds;
                    if let Some(reason) = policy_stop(policy, self.core.batches, sim_so_far) {
                        stopped = Some(reason);
                        break;
                    }
                }
            }
        }
        let delta = ledger.snapshot().delta_since(&before);
        self.core.meta.charged = snap_add(self.core.meta.charged, delta);
        Ok((stopped, delta))
    }
}

impl RankedCursor for MultiwayCursor {
    fn next_batch(&mut self, n: usize, policy: &StopPolicy) -> Result<CursorBatch> {
        let want = self
            .core
            .meta
            .emitted
            .saturating_add(n)
            .min(self.core.meta.k);
        let (stopped, metrics) = self.pump(want, policy)?;
        let emitted = self.core.meta.emitted;
        let emit_to = self.certified().min(want).max(emitted);
        let results = clone_ranks(self.state.results(), emitted, emit_to);
        self.core.meta.emitted = emit_to;
        Ok(CursorBatch {
            results,
            done: self.is_done(),
            stopped,
            metrics,
        })
    }

    fn pause(self: Box<Self>) -> CursorState {
        CursorState {
            inner: StateInner::Multiway(Box::new(self.core)),
        }
    }

    fn emitted(&self) -> usize {
        self.core.meta.emitted
    }

    fn consumed_depth(&self) -> u64 {
        self.core.log.len() as u64
    }

    fn charged(&self) -> MetricsSnapshot {
        self.core.meta.charged
    }

    fn is_done(&self) -> bool {
        self.drained() && self.core.meta.emitted == self.state.result_count()
    }

    fn algorithm(&self) -> &'static str {
        "MULTIWAY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiway::index;
    use crate::oracle;
    use crate::testsupport::three_way_path_cluster;
    use rj_mapreduce::MapReduceEngine;

    fn built(k: usize) -> (Cluster, JoinSpec, String) {
        let (c, spec) = three_way_path_cluster(k);
        let engine = MapReduceEngine::new(c.clone());
        let table = index::index_table_name(&spec);
        index::build(&engine, &spec, &table).unwrap();
        (c, spec, table)
    }

    fn drain(cursor: &mut MultiwayCursor, page: usize) -> Vec<crate::result::JoinTuple> {
        let mut out = Vec::new();
        loop {
            let batch = cursor.next_batch(page, &StopPolicy::default()).unwrap();
            out.extend(batch.results);
            if batch.done {
                return out;
            }
        }
    }

    #[test]
    fn all_descend_matches_oracle() {
        let (c, spec, table) = built(5);
        let mut cursor = MultiwayCursor::open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
        )
        .unwrap();
        let got = drain(&mut cursor, 2);
        let want = oracle::topk_spec(&c, &spec).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn every_access_mix_matches_oracle() {
        use SideAccess::{Descend, Materialize};
        let want = {
            let (c, spec, _) = built(6);
            oracle::topk_spec(&c, &spec).unwrap()
        };
        for mask in 0..8u8 {
            let (c, spec, table) = built(6);
            let access: Vec<SideAccess> = (0..3)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Materialize
                    } else {
                        Descend
                    }
                })
                .collect();
            let mut cursor =
                MultiwayCursor::open(&c, &spec, &table, MultiwayConfig { batch: 3 }, access)
                    .unwrap();
            let got = drain(&mut cursor, 4);
            assert_eq!(got, want, "access mask {mask:03b}");
        }
    }

    #[test]
    fn pause_resume_preserves_sequence_and_charge() {
        let (c, spec, table) = built(6);
        let one_shot = {
            let before = c.metrics().snapshot();
            let mut cursor = MultiwayCursor::open(
                &c,
                &spec,
                &table,
                MultiwayConfig { batch: 2 },
                vec![SideAccess::Descend; 3],
            )
            .unwrap();
            let results = drain(&mut cursor, 100);
            (results, c.metrics().snapshot().delta_since(&before))
        };

        let (c2, spec2, table2) = built(6);
        let before = c2.metrics().snapshot();
        let mut cursor: Box<dyn RankedCursor> = Box::new(
            MultiwayCursor::open(
                &c2,
                &spec2,
                &table2,
                MultiwayConfig { batch: 2 },
                vec![SideAccess::Descend; 3],
            )
            .unwrap(),
        );
        let mut paged = Vec::new();
        loop {
            let batch = cursor.next_batch(1, &StopPolicy::default()).unwrap();
            paged.extend(batch.results);
            if batch.done {
                break;
            }
            let state = cursor.pause();
            assert_eq!(state.algorithm(), "MULTIWAY");
            cursor = state.resume_on(&c2).unwrap();
        }
        assert_eq!(paged, one_shot.0);
        let charged = c2.metrics().snapshot().delta_since(&before);
        assert_eq!(charged.kv_reads, one_shot.1.kv_reads);
        assert_eq!(charged.rpc_calls, one_shot.1.rpc_calls);
        assert_eq!(charged.network_bytes, one_shot.1.network_bytes);
    }

    #[test]
    fn retarget_deepens_without_rereads() {
        let (c, spec, table) = built(2);
        let mut cursor = MultiwayCursor::open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
        )
        .unwrap();
        let top2 = drain(&mut cursor, 100);
        assert_eq!(
            top2.len(),
            2.min(oracle::topk_spec(&c, &spec).unwrap().len())
        );
        let state = Box::new(cursor).pause();
        assert!(state.supports_retarget());
        let mut deeper = state.resume_retargeted(&c, 6).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = deeper.next_batch(10, &StopPolicy::default()).unwrap();
            got.extend(batch.results);
            if batch.done {
                break;
            }
        }
        let want = oracle::topk_spec(&c, &spec.with_k(6)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn k_zero_is_empty_and_free() {
        let (c, spec, table) = built(0);
        let before = c.metrics().snapshot();
        let mut cursor = MultiwayCursor::open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
        )
        .unwrap();
        let batch = cursor.next_batch(5, &StopPolicy::default()).unwrap();
        assert!(batch.results.is_empty());
        assert!(batch.done);
        let after = c.metrics().snapshot();
        assert_eq!(before.kv_reads, after.kv_reads);
    }
}
