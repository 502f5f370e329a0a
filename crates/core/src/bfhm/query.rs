//! BFHM query processing (paper §5.2, Algorithms 6–7) with the §5.3
//! recall-guarantee loop.
//!
//! The driver is an owned *step machine* ([`BfhmCore`]): every step
//! (its `Step::step`) performs one bounded unit of work — one bucket
//! probe + estimate join, one materialization sweep, one re-examination
//! iteration — and the machine's whole position is plain data. It runs
//! behind the crate's one cursor ([`crate::cursor`]'s `StepCursor`),
//! which pumps the steps on demand, one step per stop-policy boundary;
//! the one-shot run is that cursor drained in one pull, stopping as soon
//! as all `k` results are certified. That is what makes any pause/resume
//! schedule result- and metric-equivalent to the one-shot run by
//! construction.
//!
//! A run keeps ids, not copies. Every fetched tuple is held once, in the
//! reverse-row cache's columns ([`ReverseStore`]); an [`Estimate`] is a
//! bucket pair and its numbers, and materializing it re-derives the
//! positions the pair shares from the two blobs the run holds; the running
//! top-k is the shared id buffer ([`TopIds`]) over the cache's tuple ids,
//! and a [`JoinTuple`] is built only for a result leaving the run.

use std::sync::Arc;

use rj_sketch::blob::BfhmBlob;
use rj_sketch::histogram::ScoreHistogram;
use rj_sketch::FlatMultiMap;
use rj_store::client::{Client, Projection};
use rj_store::cluster::Cluster;
use rj_store::metrics::QueryMeter;
use rj_store::row::RowBatch;

use crate::codec;
use crate::cursor::{CursorMeta, StateInner, Step};
use crate::error::{RankJoinError, Result};
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopIds};
use crate::stats::Extras;

use super::index::{blob_row_key, meta_of, reverse_row_key, META_ROW};
use super::maintenance::{refresh_bucket, resolve_bucket_row, write_back_bucket, WriteBackPolicy};
use super::{BfhmConfig, BoundMode};

/// Flat reverse-row cache: cell keys pack to 9 bytes (`side ‖ bucket ‖
/// pos`, big-endian) interned in a [`FlatMultiMap`], and the cached tuples
/// live in three **columnar** flat arrays — every tuple's base key and
/// join value back to back in one byte arena, where each of them ends,
/// and the scores in one `f64` column — so the materialization
/// cross-product walks sequential memory. A tuple's id is its position in
/// the map (one value per tuple, pushed in tuple order); the run's top-k
/// holds these ids. A cell interned with an empty group means "fetched, no
/// tuples".
#[derive(Clone, Default)]
struct ReverseStore {
    /// Packed cell key → group of tuple ids (the group's positions).
    index: FlatMultiMap<()>,
    /// Per tuple, its base key and then its join value.
    arena: Vec<u8>,
    /// Per tuple, where its key and where its join value end in `arena`
    /// (its key starts where the previous tuple's join value ends).
    ends: Vec<u32>,
    /// Per-tuple scores, one flat column.
    scores: Vec<f64>,
}

/// The 9-byte packed cache key of one reverse-mapping cell.
fn packed_cell(side: usize, bucket: u32, pos: u32) -> [u8; 9] {
    let mut k = [0u8; 9];
    k[0] = side as u8;
    k[1..5].copy_from_slice(&bucket.to_be_bytes());
    k[5..9].copy_from_slice(&pos.to_be_bytes());
    k
}

/// The buffers of one BFHM run that its executor's spares keep
/// ([`crate::spare`]): the reverse-row cache, the estimates, each side's
/// fetched buckets, the arrays of the filters they were decoded into and
/// the batch its gets refill.
#[derive(Default)]
pub(crate) struct BfhmBuffers {
    reverse: ReverseStore,
    pub(crate) estimates: Vec<Estimate>,
    pub(crate) fetched: [Vec<(u32, BfhmBlob)>; 2],
    pub(crate) arrays: Arrays,
    pub(crate) batch: RowBatch,
}

impl BfhmBuffers {
    /// Empties every buffer, keeping its capacity; a fetched bucket's
    /// decoded filter leaves its array to the next run's decodes.
    pub(crate) fn clear(&mut self) {
        let reverse = &mut self.reverse;
        reverse.index.clear();
        reverse.arena.clear();
        reverse.ends.clear();
        reverse.scores.clear();
        self.estimates.clear();
        for (_, blob) in self.fetched.iter_mut().flat_map(|f| f.drain(..)) {
            self.arrays.0.push(blob.filter.into_words());
        }
        self.batch.clear();
    }
}

/// Filter arrays a run's blobs may decode into ([`BfhmBlob::decode_into`]):
/// those of the blobs earlier runs fetched. A clone is empty — a clone of
/// a parked run is a fresh copy, and takes nothing from its original's
/// spares.
#[derive(Default)]
pub(crate) struct Arrays(pub(crate) Vec<Vec<u32>>);

impl Clone for Arrays {
    fn clone(&self) -> Self {
        Arrays::default()
    }
}

impl Arrays {
    /// The smallest kept array with room for `words`, else a new one. So
    /// a run that fetched a set of blobs before leaves arrays enough for
    /// all of them, whatever order it fetches them in, and fetching them
    /// again allocates none.
    fn take(&mut self, words: usize) -> Vec<u32> {
        let room = |at: &usize| self.0[*at].capacity() >= words;
        let best = (0..self.0.len())
            .filter(room)
            .min_by_key(|&at| self.0[at].capacity());
        best.map_or_else(|| Vec::with_capacity(words), |at| self.0.swap_remove(at))
    }
}

impl ReverseStore {
    /// Cells fetched so far (empty ones included): every reverse-row get
    /// the run has made.
    fn cells_fetched(&self) -> u64 {
        self.index.num_keys() as u64
    }

    /// Makes room for `cells` more cells holding at least a tuple each —
    /// a materialization sweep knows how many positions it is about to
    /// fetch, so the columns grow once per sweep, not by doublings inside
    /// it. (The byte arena is sized by its content, which it does not
    /// know.)
    fn reserve(&mut self, cells: usize) {
        self.index.reserve(cells, cells * 9, cells);
        self.ends.reserve(2 * cells);
        self.scores.reserve(cells);
    }

    /// Ensures one `(side, bucket, position)` reverse-mapping cell is
    /// cached, reading its row into `batch` on demand. A value that does
    /// not decode is an error, and the cell is then not marked fetched:
    /// joining around a tuple would return a wrong top-k silently, now or
    /// on a retry.
    fn ensure(
        &mut self,
        client: &Client,
        batch: &mut RowBatch,
        projection: &Projection,
        label: &str,
        (side, bucket, pos): (usize, u32, u32),
    ) -> Result<()> {
        let key = packed_cell(side, bucket, pos);
        if self.index.contains_key(&key) {
            return Ok(());
        }
        let row = client.get_into(batch, projection, &reverse_row_key(bucket, pos));
        let cells = || row.into_iter().flat_map(|row| row.family_cells(label));
        for cell in cells() {
            codec::decode_one_value_score(cell.value)?;
        }
        let entry = self.index.ensure(&key);
        for cell in cells() {
            let (join, score) = codec::decode_one_value_score(cell.value)?;
            self.push(entry, cell.qualifier, join, score);
        }
        Ok(())
    }

    /// Appends one `(base key, join value, score)` tuple to the group of
    /// the interned key `entry` and returns its id.
    fn push(&mut self, entry: u32, key: &[u8], join: &[u8], score: f64) -> u32 {
        // Checked narrowing: a cache past 4 GiB of arena bytes must panic,
        // not silently alias tuples (the map checks the tuple count).
        for bytes in [key, join] {
            self.arena.extend_from_slice(bytes);
            let end = u32::try_from(self.arena.len()).expect("ReverseStore arena overflows u32");
            self.ends.push(end);
        }
        self.scores.push(score);
        self.index.push_to_entry(entry, ())
    }

    /// Tuple `id`: `(base key, join value, score)`.
    fn tuple(&self, id: u32) -> (&[u8], &[u8], f64) {
        let i = id as usize;
        let start = match i {
            0 => 0,
            _ => self.ends[2 * i - 1] as usize,
        };
        let (key_end, end) = (self.ends[2 * i] as usize, self.ends[2 * i + 1] as usize);
        (
            &self.arena[start..key_end],
            &self.arena[key_end..end],
            self.scores[i],
        )
    }

    /// Ids of one cell's cached tuples, in decode order. Empty for
    /// unfetched cells.
    fn ids(&self, side: usize, bucket: u32, pos: u32) -> impl Iterator<Item = u32> + '_ {
        self.index.positions(&packed_cell(side, bucket, pos))
    }
}

/// One estimated bucket-join result (a row of Fig. 6(c)): a bucket pair
/// and its numbers. Every pair of fetched buckets whose filters share a
/// set bit has exactly one; the shared positions themselves are
/// re-derived from the two blobs when it is materialized.
#[derive(Clone, Debug)]
pub(crate) struct Estimate {
    pub left_bucket: u32,
    pub right_bucket: u32,
    /// How many set-bit positions the two bucket filters share.
    pub common: usize,
    /// α-compensated cardinality estimate.
    pub cardinality: f64,
    /// Lower bound on any represented join tuple's score.
    pub min_score: f64,
    /// Upper bound on any represented join tuple's score.
    pub max_score: f64,
    /// Whether phase 2 has joined its tuples.
    pub materialized: bool,
}

impl Estimate {
    /// Whether phase 2 still owes this estimate's tuples at `cutoff`.
    fn owed(&self, cutoff: f64) -> bool {
        self.max_score >= cutoff && !self.materialized
    }
}

/// Per-side estimation cursor state.
#[derive(Clone, Default)]
struct SideState {
    /// Fetched non-empty buckets, in fetch (descending-score) order.
    fetched: Vec<(u32, BfhmBlob)>,
    /// Next bucket number to probe.
    cursor: u32,
    exhausted: bool,
    /// Gets issued while probing buckets.
    bucket_gets: u64,
}

impl SideState {
    fn actual_max(&self) -> f64 {
        self.fetched
            .iter()
            .map(|(_, b)| b.max_score)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Upper bound (bucket boundary) of the best fetched bucket.
    fn best_fetched_boundary(&self, hist: &ScoreHistogram) -> f64 {
        self.fetched
            .first()
            .map(|(b, _)| hist.upper_bound(*b))
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// The fetched blob of `bucket` (buckets are fetched in increasing
    /// order).
    fn blob(&self, bucket: u32) -> Result<&BfhmBlob> {
        let at = self.fetched.binary_search_by_key(&bucket, |(b, _)| *b);
        at.map(|at| &self.fetched[at].1)
            .map_err(|_| RankJoinError::Internal("an estimate's bucket blob is not held"))
    }
}

/// Where the §5.3 guarantee loop's machine currently stands. Transitions
/// mirror the original nested loops exactly: every `RoundStart →
/// Estimation* → Cutoff → (Reexamine* | FillInit → Fill*)` trace performs
/// the same fetches in the same order the run-to-completion code did.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Top of a guarantee round (bumps the round counter).
    RoundStart,
    /// Algorithm 6 estimation: one bucket probe + estimate join per step.
    Estimation,
    /// Estimation converged: materialize down to the k-th estimate bound,
    /// then branch on whether k results exist.
    Cutoff,
    /// ≥ k results: one re-examination iteration per step (materialize
    /// above the actual k-th score, extend the frontier).
    Reexamine,
    /// < k results: set the widened fill target (paper: "top-k + (k-k')").
    FillInit,
    /// One best-first fill iteration per step; back to `RoundStart` once
    /// k results exist.
    Fill,
    /// Terminated: `results` is the exact top-k.
    Done,
}

/// The full position of a BFHM execution between two steps — plain
/// owned data (blobs, estimates, the reverse-row cache, the running
/// top-k of its ids, phase + counters), detachable into a
/// [`crate::cursor::CursorState`] and resumable on any cluster handle
/// over the same index. Its buffers come from its executor's spares and
/// go back there when it drops ([`crate::spare`]).
#[derive(Clone)]
pub(crate) struct BfhmCore {
    /// Cursor bookkeeping (target k, emitted count, cumulative charge,
    /// spares) — the run's `k` lives here, not in the query.
    pub(crate) meta: CursorMeta,
    /// The executor's query, shared: the sides' labels (their index
    /// families) and the score function.
    query: Arc<RankJoinQuery>,
    /// Each side's family of the index table, resolved once for every
    /// bucket and reverse-row get of the run.
    projections: [Projection; 2],
    /// The row buffer every one of those gets refills.
    batch: RowBatch,
    config: BfhmConfig,
    hist: ScoreHistogram,
    /// Filter size, from the index metadata (needed to replay mutation
    /// records into buckets that have no blob yet).
    m: usize,
    sides: [SideState; 2],
    /// One per bucket pair that shares a set bit, in the order made.
    pub(crate) estimates: Vec<Estimate>,
    /// Arrays the run's blobs decode into.
    arrays: Arrays,
    total_estimated: f64,
    /// Reverse-row cache in flat columnar storage.
    reverse: ReverseStore,
    /// The running top-k: a cache tuple id per side.
    results: TopIds,
    rounds: u64,
    write_back: WriteBackPolicy,
    /// `(side, bucket)` pairs the lazy policy still owes a write-back.
    pending_write_backs: Vec<(usize, u32)>,
    phase: Phase,
    /// The guarantee loop's (monotone) estimation target.
    target: usize,
    /// Machine steps taken (the cursor's stop-policy boundary counter).
    steps: u64,
}

impl Drop for BfhmCore {
    /// Gives the run's buffers and top-k back to its spares.
    fn drop(&mut self) {
        let spares = &self.meta.spares;
        spares.give_bfhm(BfhmBuffers {
            reverse: std::mem::take(&mut self.reverse),
            estimates: std::mem::take(&mut self.estimates),
            fetched: self
                .sides
                .each_mut()
                .map(|side| std::mem::take(&mut side.fetched)),
            arrays: std::mem::take(&mut self.arrays),
            batch: std::mem::take(&mut self.batch),
        });
        spares.give_top(std::mem::replace(&mut self.results, TopIds::new(0, 0)));
    }
}

/// The index family of one side (0 = left), as the `String` it is: a
/// one-family projection is `std::slice::from_ref` of it, not a copy.
fn side_label(query: &RankJoinQuery, side: usize) -> &String {
    [&query.left.label, &query.right.label][side.min(1)]
}

impl BfhmCore {
    /// A machine for the top `meta.k` of `query` (whose own `k` is not
    /// read) over a previously built BFHM index pair, its buffers taken
    /// from and given back to `meta.spares`. The index metadata read is
    /// charged to `meta.charged`, so the run bills it with its steps.
    pub(crate) fn open(
        cluster: &Cluster,
        query: &Arc<RankJoinQuery>,
        mut meta: CursorMeta,
        table: &str,
        config: &BfhmConfig,
        write_back: WriteBackPolicy,
    ) -> Result<Self> {
        let meter = QueryMeter::start(cluster.metrics());
        let client = cluster.client();
        let all = client
            .projection(table, None)
            .map_err(|_| RankJoinError::MissingIndex(table.to_owned()))?;
        let BfhmBuffers {
            reverse,
            estimates,
            fetched: [left, right],
            arrays,
            mut batch,
        } = meta.spares.bfhm();
        // The metadata row, into the batch every later get refills.
        let meta_row = client.get_into(&mut batch, &all, META_ROW);
        let (m, num_buckets) = meta_of(meta_row, &query.left.label)?;
        if num_buckets != config.num_buckets {
            return Err(RankJoinError::Internal(
                "config bucket count disagrees with the built index",
            ));
        }
        let family = |side| {
            let label = std::slice::from_ref(side_label(query, side));
            client.projection(table, Some(label))
        };
        meta.charged = meter.finish();
        Ok(BfhmCore {
            results: meta.spares.top(meta.k, 2),
            target: meta.k,
            meta,
            query: query.clone(),
            projections: [family(0)?, family(1)?],
            batch,
            config: config.clone(),
            hist: ScoreHistogram::new(num_buckets),
            m,
            sides: [left, right].map(|fetched| SideState {
                fetched,
                ..SideState::default()
            }),
            estimates,
            arrays,
            total_estimated: 0.0,
            reverse,
            rounds: 0,
            write_back,
            pending_write_backs: Vec::new(),
            phase: Phase::RoundStart,
            steps: 0,
        })
    }

    /// Name of the index table.
    fn table(&self) -> &str {
        self.projections[0].table_name()
    }

    /// Fetches the next non-empty bucket of `side`, resolving pending §6
    /// mutation records into the blob. Returns `false` when exhausted.
    /// The cursor moves past a bucket once it has been read, replayed and
    /// (under the eager policy) written back: a probe that fails is made
    /// again by the next call, not skipped.
    fn fetch_next_bucket(&mut self, cluster: &Cluster, side: usize) -> Result<bool> {
        let client = cluster.client();
        let label = side_label(&self.query, side);
        loop {
            let state = &mut self.sides[side];
            if state.cursor >= self.hist.num_buckets() {
                state.exhausted = true;
                return Ok(false);
            }
            let bucket = state.cursor;
            let row = client.get_into(
                &mut self.batch,
                &self.projections[side],
                &blob_row_key(bucket),
            );
            let resolved = row
                .map(|row| resolve_bucket_row(row, label, self.m, |n| self.arrays.take(n)))
                .transpose()?;
            // Before the empty-bucket skip: a bucket its replay emptied is
            // compacted like any other.
            if let Some(resolved) = resolved.as_ref().filter(|r| r.had_mutations) {
                match self.write_back {
                    WriteBackPolicy::Eager => {
                        write_back_bucket(
                            cluster,
                            self.table(),
                            label,
                            &blob_row_key(bucket),
                            resolved,
                            self.config.codec,
                        )?;
                    }
                    // Once per `(side, bucket)`: the cursor moves past it.
                    WriteBackPolicy::Lazy => self.pending_write_backs.push((side, bucket)),
                    WriteBackPolicy::Off => {}
                }
            }
            let state = &mut self.sides[side];
            state.cursor += 1;
            state.bucket_gets += 1;
            if let Some(blob) = resolved.and_then(|r| r.blob) {
                state.fetched.push((bucket, blob));
                return Ok(true);
            }
        }
    }

    /// Algorithm 7: joins the newly fetched bucket of `side` — the last
    /// one [`BfhmCore::fetch_next_bucket`] pushed — against every fetched
    /// bucket of the other side, appending estimates.
    fn join_new_bucket(&mut self, side: usize) {
        let Some((new_bucket, new_blob)) = self.sides[side].fetched.last() else {
            return;
        };
        for (other_bucket, other_blob) in &self.sides[1 - side].fetched {
            let (lb, lblob, rb, rblob) = if side == 0 {
                (*new_bucket, new_blob, *other_bucket, other_blob)
            } else {
                (*other_bucket, other_blob, *new_bucket, new_blob)
            };
            let (common, cardinality) =
                lblob.filter.join_estimate(&rblob.filter, self.config.alpha);
            if common == 0 {
                continue; // Algorithm 7 line 5: empty AND → null
            }
            let score_fn = self.query.score_fn;
            self.total_estimated += cardinality;
            self.estimates.push(Estimate {
                left_bucket: lb,
                right_bucket: rb,
                common,
                cardinality,
                min_score: score_fn.combine(lblob.min_score, rblob.min_score),
                max_score: score_fn.combine(lblob.max_score, rblob.max_score),
                materialized: false,
            });
        }
    }

    /// The k-th estimated result's score bound: walks the estimates in
    /// descending max-score order — equal max scores in the order they
    /// were made, as a stable sort leaves them — accumulating
    /// cardinalities. Each step finds the next estimate in that order with
    /// one sweep, so the walk allocates nothing; it stops at the target,
    /// usually a few estimates in.
    fn kth_estimate_bound(&self, target: usize) -> Option<f64> {
        if self.total_estimated < target as f64 {
            return None;
        }
        let estimates = &self.estimates;
        let order = |a: usize, b: usize| {
            let (ea, eb) = (&estimates[a], &estimates[b]);
            eb.max_score.total_cmp(&ea.max_score).then(a.cmp(&b))
        };
        let mut cum = 0.0;
        let mut last = None;
        while let Some(i) = (0..estimates.len())
            .filter(|&i| last.is_none_or(|last| order(last, i).is_lt()))
            .min_by(|&a, &b| order(a, b))
        {
            let e = &estimates[i];
            last = Some(i);
            cum += e.cardinality;
            if cum >= target as f64 {
                return Some(match self.config.bound_mode {
                    BoundMode::PaperFigure => e.max_score,
                    BoundMode::Conservative => e.min_score,
                });
            }
        }
        None
    }

    /// Upper bound on the score of any join tuple from bucket pairs not
    /// yet *examined* (at least one side unfetched).
    fn unexamined_bound(&self, conservative: bool) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for s in 0..2 {
            let state = &self.sides[s];
            if state.exhausted || state.cursor >= self.hist.num_buckets() {
                continue;
            }
            let my_upper = self.hist.upper_bound(state.cursor);
            let other = &self.sides[1 - s];
            let other_unfetched = if !other.exhausted && other.cursor < self.hist.num_buckets() {
                self.hist.upper_bound(other.cursor)
            } else {
                f64::NEG_INFINITY
            };
            let other_fetched = if conservative {
                other.actual_max()
            } else {
                other.best_fetched_boundary(&self.hist)
            };
            let other_best = other_fetched.max(other_unfetched);
            if other_best == f64::NEG_INFINITY {
                continue;
            }
            let bound = if s == 0 {
                self.query.score_fn.combine(my_upper, other_best)
            } else {
                self.query.score_fn.combine(other_best, my_upper)
            };
            best = best.max(bound);
        }
        best
    }

    /// One iteration of the phase-1 (Algorithm 6) estimation loop: checks
    /// the exit conditions, then probes one bucket and joins it. Returns
    /// `false` when estimation for `target` has converged.
    fn estimation_step(&mut self, cluster: &Cluster, target: usize) -> Result<bool> {
        if self.sides[0].exhausted && self.sides[1].exhausted {
            return Ok(false);
        }
        if self.total_estimated >= target as f64 {
            if let Some(bound) = self.kth_estimate_bound(target) {
                let unexamined =
                    self.unexamined_bound(self.config.bound_mode == BoundMode::Conservative);
                if unexamined < bound {
                    return Ok(false);
                }
            }
        }
        // Resume alternation from whichever side has fetched fewer buckets.
        let side = match (
            self.sides[0].exhausted,
            self.sides[1].exhausted,
            self.sides[0].fetched.len() + (self.sides[0].cursor as usize),
            self.sides[1].fetched.len() + (self.sides[1].cursor as usize),
        ) {
            (true, false, _, _) => 1,
            (false, true, _, _) => 0,
            (_, _, a, b) if a <= b => 0,
            _ => 1,
        };
        if self.fetch_next_bucket(cluster, side)? {
            self.join_new_bucket(side);
        }
        Ok(true)
    }

    /// Phase 1 (Algorithm 6): fetch and join buckets until no unexamined
    /// combination can beat the estimated `target`-th result — the
    /// estimation-accuracy harness (Fig. 6c) drives phase 1 in isolation
    /// through this.
    #[cfg(test)]
    pub(crate) fn run_estimation(&mut self, cluster: &Cluster, target: usize) -> Result<()> {
        while self.estimation_step(cluster, target)? {}
        Ok(())
    }

    /// Phase 2: materializes every estimate with `max_score >= cutoff`
    /// not yet materialized — fetch the reverse rows at the positions its
    /// two blobs share (one merge, in increasing order), join actual
    /// tuples (re-checking join values) and offer their ids into the
    /// running top-k. Returns whether there was any.
    fn materialize(&mut self, cluster: &Cluster, cutoff: f64) -> Result<bool> {
        let client = cluster.client();
        let BfhmCore {
            query,
            projections,
            batch,
            sides,
            estimates,
            reverse,
            results,
            ..
        } = self;
        let owed = estimates.iter().filter(|e| e.owed(cutoff));
        reverse.reserve(2 * owed.map(|e| e.common).sum::<usize>());
        let mut progressed = false;
        for e in estimates.iter_mut().filter(|e| e.owed(cutoff)) {
            progressed = true;
            let buckets = [e.left_bucket, e.right_bucket];
            let (left, right) = (sides[0].blob(buckets[0])?, sides[1].blob(buckets[1])?);
            for (pos, ..) in left.filter.common(&right.filter) {
                // Demand-fetch both cells first, then join over the cache;
                // a match enters the top-k as its two ids.
                for side in 0..2 {
                    let label = side_label(query, side);
                    let cell = (side, buckets[side], pos);
                    reverse.ensure(&client, batch, &projections[side], label, cell)?;
                }
                for l in reverse.ids(0, buckets[0], pos) {
                    let (_, lj, ls) = reverse.tuple(l);
                    for r in reverse.ids(1, buckets[1], pos) {
                        let (_, rj, rs) = reverse.tuple(r);
                        if lj != rj {
                            continue; // Bloom collision on this bit
                        }
                        let score = query.score_fn.combine(ls, rs);
                        results.offer(score, &[l, r], |_, id| reverse.tuple(id).0);
                    }
                }
            }
            // Once every position is joined: a sweep that failed half-way
            // is made again, not skipped.
            e.materialized = true;
        }
        Ok(progressed)
    }

    /// Conservative bound on anything not yet in `results`: the best
    /// non-materialized estimate and any unexamined bucket combination.
    /// Non-increasing across steps — new estimates are bounded by the
    /// prior unexamined bound — which is what lets a cursor emit
    /// everything strictly above it as final.
    fn threat_bound(&self) -> f64 {
        let est = self
            .estimates
            .iter()
            .filter(|e| !e.materialized)
            .map(|e| e.max_score)
            .fold(f64::NEG_INFINITY, f64::max);
        est.max(self.unexamined_bound(true))
    }

    /// Flushes pending lazy write-backs (idempotent): each `(side,
    /// bucket)` the run resolved is re-read into the run's batch and
    /// compacted once, with the run's `m`. A write-back that fails stays
    /// pending, with every one after it.
    fn flush_lazy_write_backs(&mut self, cluster: &Cluster) -> Result<()> {
        let client = cluster.client();
        while let Some(&(side, bucket)) = self.pending_write_backs.first() {
            let family = &self.projections[side];
            if let Some(row) = client.get_into(&mut self.batch, family, &blob_row_key(bucket)) {
                let (table, label) = (family.table_name(), side_label(&self.query, side));
                refresh_bucket(cluster, table, label, row, self.m, self.config.codec, 1)?;
            }
            self.pending_write_backs.remove(0);
        }
        Ok(())
    }
}

/// The guarantee loop behind the one cursor: it emits only results
/// strictly above the machine's threat bound, which is non-increasing
/// across steps, so an emitted result can never be displaced or preceded
/// by later work.
impl Step for BfhmCore {
    /// Performs one bounded step of the §5.3 guarantee loop and returns
    /// whether the machine still has work. Stringing steps together
    /// performs the fetches of the nested run-to-completion loops, in the
    /// same order — the phases are their loop structure made explicit.
    fn step(&mut self, cluster: &Cluster) -> Result<bool> {
        let k = self.meta.k;
        self.steps += 1;
        match self.phase {
            Phase::RoundStart => {
                self.rounds += 1;
                self.phase = Phase::Estimation;
            }
            Phase::Estimation => {
                if !self.estimation_step(cluster, self.target)? {
                    self.phase = Phase::Cutoff;
                }
            }
            Phase::Cutoff => {
                let cutoff = self
                    .kth_estimate_bound(self.target)
                    .unwrap_or(f64::NEG_INFINITY);
                self.materialize(cluster, cutoff)?;
                self.phase = if self.results.len() >= k {
                    Phase::Reexamine
                } else {
                    Phase::FillInit
                };
            }
            Phase::Reexamine => 'step: {
                // Re-examine: anything (purged estimate or unexamined
                // combination) that could still reach the top-k? The k-th
                // score is recomputed every step — materialization can
                // only raise it, tightening the loop. `Cutoff` came here
                // with k results, so it exists; without it, fill.
                let Some(kth) = self.results.kth_score() else {
                    self.phase = Phase::FillInit;
                    break 'step;
                };
                if self.threat_bound() < kth {
                    self.phase = Phase::Done;
                } else {
                    let mut stepped = false;
                    // Phase 2 on the estimates above the actual kth score.
                    if self.materialize(cluster, kth)? {
                        stepped = true;
                    }
                    // Extend the frontier one bucket on the side bounding
                    // the threat.
                    for s in 0..2 {
                        if self.unexamined_bound(true) >= kth
                            && !self.sides[s].exhausted
                            && self.fetch_next_bucket(cluster, s)?
                        {
                            self.join_new_bucket(s);
                            stepped = true;
                        }
                    }
                    if !stepped {
                        // Nothing left to examine: the threat is only
                        // tied estimates that cannot materialize further.
                        self.phase = Phase::Done;
                    }
                }
            }
            Phase::FillInit => {
                // Fewer than k results (k' < k): "resume the query
                // processing algorithm ... looking for the top-k + (k -
                // k') results".
                let missing = k - self.results.len();
                self.target = self.target.max(k + missing);
                self.phase = Phase::Fill;
            }
            Phase::Fill => {
                if self.results.len() >= k {
                    self.phase = Phase::RoundStart;
                } else {
                    // Estimated cardinalities overcount (Bloom collisions,
                    // bucket pairs without true joins), so drive the fill
                    // by *actual* results: convert the highest-potential
                    // remaining bucket pair into real tuples, best-first,
                    // fetching new buckets only when unexamined
                    // combinations could outscore every known estimate.
                    let best_estimate = self
                        .estimates
                        .iter()
                        .filter(|e| !e.materialized)
                        .map(|e| e.max_score)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let unexamined = self.unexamined_bound(true);
                    if best_estimate == f64::NEG_INFINITY && unexamined == f64::NEG_INFINITY {
                        self.phase = Phase::Done; // the whole join has < k results
                    } else if best_estimate >= unexamined {
                        self.materialize(cluster, best_estimate)?;
                    } else {
                        for s in 0..2 {
                            if !self.sides[s].exhausted && self.fetch_next_bucket(cluster, s)? {
                                self.join_new_bucket(s);
                            }
                        }
                    }
                }
            }
            Phase::Done => {}
        }
        let done = self.phase == Phase::Done;
        if done {
            // Lazy write-backs happen once the result is ready (§6),
            // whether the machine was drained in one call or paged.
            self.flush_lazy_write_backs(cluster)?;
        }
        Ok(!done)
    }

    fn drained(&self) -> bool {
        self.meta.k == 0 || self.phase == Phase::Done
    }

    /// Strictly above the threat bound; everything once the guarantee
    /// loop terminates.
    fn certified(&self) -> usize {
        if self.drained() {
            return self.results.len();
        }
        self.results.count_above(self.threat_bound())
    }

    /// Keys and join values copied out of the cache for results leaving
    /// the run.
    fn results(&mut self, ranks: std::ops::Range<usize>) -> Vec<JoinTuple> {
        let reverse = &self.reverse;
        self.results
            .binary_results(ranks, |_, id| reverse.tuple(id))
    }

    /// Every store fetch the machine has made: bucket and reverse-row
    /// gets.
    fn consumed_depth(&self) -> u64 {
        self.sides[0].bucket_gets + self.sides[1].bucket_gets + self.reverse.cells_fetched()
    }

    fn boundaries(&self) -> u64 {
        self.steps
    }

    fn meta(&self) -> &CursorMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut CursorMeta {
        &mut self.meta
    }

    fn paused(self) -> StateInner {
        StateInner::Bfhm(Box::new(self))
    }

    fn algorithm(&self) -> &'static str {
        "BFHM"
    }

    /// The result is ready: lazy write-backs happen now (§6), as they do
    /// when the guarantee loop ends.
    fn ready(&mut self, cluster: &Cluster) -> Result<()> {
        self.flush_lazy_write_backs(cluster)
    }

    fn extras(&self) -> Extras {
        let [left, right] = &self.sides;
        Extras::Bfhm {
            buckets_fetched: (left.fetched.len() + right.fetched.len()) as u64,
            bucket_gets: left.bucket_gets + right.bucket_gets,
            estimates: self.estimates.len() as u64,
            reverse_rows_fetched: self.reverse.cells_fetched(),
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfhm;
    use crate::cancel::StopPolicy;
    use crate::executor::Algorithm;
    use crate::oracle;
    use crate::spare::Spares;
    use crate::stats::QueryOutcome;
    use crate::testsupport::{bfhm_executor, bfhm_run, running_example_cluster};
    use rj_mapreduce::MapReduceEngine;
    use rj_sketch::hybrid::AlphaMode;

    fn build(c: &Cluster, q: &RankJoinQuery, config: &BfhmConfig) {
        let engine = MapReduceEngine::new(c.clone());
        bfhm::build_pair(&engine, q, "bfhm_idx", config).unwrap();
    }

    fn example_config() -> BfhmConfig {
        BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14), // collision-free at this scale
            ..Default::default()
        }
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
    }

    #[test]
    fn matches_oracle_for_all_k_and_modes() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        for bound_mode in [BoundMode::PaperFigure, BoundMode::Conservative] {
            for alpha in [AlphaMode::Compensated, AlphaMode::Off] {
                for k in [1, 2, 3, 5, 10, 38, 50] {
                    let cfg = BfhmConfig {
                        bound_mode,
                        alpha,
                        ..example_config()
                    };
                    let qk = q.with_k(k);
                    let got = bfhm_run(&c, &qk, "bfhm_idx", &cfg, WriteBackPolicy::Off).unwrap();
                    assert_eq!(
                        got.results,
                        oracle::topk(&c, &qk).unwrap(),
                        "k={k} {bound_mode:?} {alpha:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hundred_percent_recall_with_tiny_filters() {
        // Adversarial: 16-bit filters force heavy Bloom collisions; the
        // guarantee loop must still deliver the exact answer (Theorem 1).
        let (c, q) = running_example_cluster();
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(16),
            ..Default::default()
        };
        build(&c, &q, &config);
        for k in [1, 3, 8, 38] {
            let qk = q.with_k(k);
            let got = bfhm_run(&c, &qk, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
            assert_eq!(got.results, oracle::topk(&c, &qk).unwrap(), "k={k}");
        }
    }

    #[test]
    fn estimation_is_surgical() {
        // For k=3 the walk-through fetches 3 R1 buckets and 2 R2 buckets
        // and reads only the reverse rows of the surviving pairs — far
        // fewer KV reads than the 22-tuple full scan.
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
        let fetched = matches!(
            got.extras,
            Extras::Bfhm {
                buckets_fetched: ..=8,
                ..
            }
        );
        assert!(fetched, "{:?}", got.extras);
        assert!(
            got.metrics.kv_reads <= 22,
            "read {} KVs — should be surgical",
            got.metrics.kv_reads
        );
    }

    /// Reproduces Fig. 6(c): running estimation to exhaustion must produce
    /// exactly the paper's 17 estimated results.
    #[test]
    fn figure_6c_estimated_results() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        let mut run_state = BfhmCore::open(
            &c,
            &Arc::new(q),
            CursorMeta::new(1000, 0, Spares::default()), // force exhaustion
            "bfhm_idx",
            &config,
            WriteBackPolicy::Off,
        )
        .unwrap();
        run_state.run_estimation(&c, 1000).unwrap();
        let mut got: Vec<(u32, u32, u64, f64, f64)> = run_state
            .estimates
            .iter()
            .map(|e| {
                (
                    e.left_bucket,
                    e.right_bucket,
                    e.cardinality.round() as u64,
                    (e.min_score * 100.0).round() / 100.0,
                    (e.max_score * 100.0).round() / 100.0,
                )
            })
            .collect();
        // Fig. 6(c) lists estimates in descending *min*-score order.
        got.sort_by(|a, b| {
            b.3.total_cmp(&a.3)
                .then(b.4.total_cmp(&a.4))
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        // Fig. 6(c), columns: R1 bucket, R2 bucket, cardinality, min, max.
        // Bucket numbers: score range (1-10b/10, 1-b/10).
        let want: Vec<(u32, u32, u64, f64, f64)> = vec![
            (1, 0, 2, 1.73, 1.74), // row 1: h(b)
            (2, 0, 2, 1.61, 1.71), // row 2: h(b)
            (0, 3, 1, 1.57, 1.64), // row 3: h(c)
            (3, 0, 2, 1.55, 1.60), // row 4: h(b)
            (0, 4, 1, 1.43, 1.53), // row 5: h(a)
            (2, 3, 1, 1.34, 1.43), // row 6: h(c)
            (1, 4, 4, 1.32, 1.35), // row 7: h(d)
            (3, 3, 1, 1.28, 1.32), // row 8: h(c)
            (0, 6, 4, 1.24, 1.38), // rows 9+10: h(a) card 3 + h(c) card 1
            (1, 5, 2, 1.23, 1.23), // row 11: h(d)
            (2, 4, 1, 1.20, 1.32), // row 12: h(a)
            (3, 4, 2, 1.14, 1.21), // row 13: h(d)
            (3, 5, 1, 1.05, 1.09), // row 14: h(d)
            (2, 6, 4, 1.01, 1.17), // rows 15+16: h(a) card 3 + h(c) card 1
            (3, 6, 1, 0.95, 1.06), // row 17: h(c)
        ];
        // Note: the paper's Fig. 6(c) lists bucket-pair joins *per bit
        // position* (rows 9/10 and 15/16 share a bucket pair); our
        // Estimate is per bucket pair, so those rows merge with summed
        // cardinalities.
        assert_eq!(got, want);
    }

    /// The query fails with the typed codec error: one-shot, and through
    /// a cursor on every pull — the failed step is made again, not
    /// skipped, so the error cannot decay into a silently shorter answer.
    fn assert_codec_error(c: &Cluster, q: &RankJoinQuery, config: &BfhmConfig) {
        let is_codec = |e: RankJoinError| matches!(e, RankJoinError::Codec(_));
        let ex = bfhm_executor(c, q, "bfhm_idx", config, WriteBackPolicy::Off).unwrap();
        assert!(is_codec(ex.execute(Algorithm::Bfhm).unwrap_err()));
        let mut cursor = ex.open_cursor(Algorithm::Bfhm, q.k).unwrap();
        for pull in 0..2 {
            let batch = cursor.next_batch(q.k, &StopPolicy::never());
            assert!(is_codec(batch.unwrap_err()), "pull {pull}");
        }
    }

    /// A reverse-mapping cell that does not decode used to be dropped,
    /// and the top-k built without its tuple.
    #[test]
    fn an_undecodable_reverse_cell_is_an_error_not_a_missing_result() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        // R2 bucket 0 holds r2_02 and r2_11, both `b`: the top-1's right
        // tuple among them.
        let pos = rj_sketch::SingleHashBloom::position_in(1 << 14, b"b") as u32;
        let garbage = rj_store::Mutation::put("R2", b"r2_11", b"garbage".to_vec());
        c.client()
            .put("bfhm_idx", &reverse_row_key(0, pos), garbage)
            .unwrap();
        assert_codec_error(&c, &q, &config);
    }

    /// A §6 mutation record that does not decode used to be skipped, the
    /// blob replayed without it, and — under a write-back policy — the
    /// write lost for good.
    #[test]
    fn an_undecodable_mutation_record_is_an_error_not_a_lost_write() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        build(&c, &q, &config);
        let maintainer = bfhm::maintenance::BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        let key = rj_store::Bytes::from_static(b"r2_99");
        let entry = codec::encode_value_score(b"b", 0.99);
        maintainer
            .record_insert(&key, b"b", 0.99, &entry, c.next_ts())
            .unwrap();
        // Overwrite the record's value under its own qualifier.
        let client = c.client();
        let row = client.get("bfhm_idx", &blob_row_key(0)).unwrap().unwrap();
        let record = row
            .family_cells("R2")
            .find(|cell| cell.qualifier.ends_with(b"r2_99"))
            .expect("the insertion record");
        let garbage = rj_store::Mutation::put("R2", record.qualifier, b"garbage".to_vec());
        client.put("bfhm_idx", &blob_row_key(0), garbage).unwrap();
        assert_codec_error(&c, &q, &config);
    }

    /// An index table dropped under an executor that attached it is
    /// reported when a run opens, as is one never built.
    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let config = example_config();
        let missing = |r: Result<QueryOutcome>| matches!(r, Err(RankJoinError::MissingIndex(_)));
        assert!(missing(bfhm_run(
            &c,
            &q,
            "absent",
            &config,
            WriteBackPolicy::Off
        )));
        build(&c, &q, &config);
        let ex = bfhm_executor(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
        c.drop_table("bfhm_idx").unwrap();
        assert!(missing(ex.execute(Algorithm::Bfhm)));
    }
}
