//! Per-executor recycling of the buffers a run grows: the seen-tuple
//! stores of HRJN and DRJN ([`SeenSide`]), the id top-k of HRJN, BFHM and
//! DRJN ([`TopIds`]), the row batches an ISL cursor's index scans refill
//! ([`SideScan`]) and the buffers of a BFHM run ([`BfhmCore`]).
//!
//! A run keeps every tuple it pulls, one id per side for each result it
//! buffers (the ranked-enumeration view of an answer as a tuple of ids
//! into the inputs), and the rows its last RPC returned, and grew all of
//! them from empty every time. Instead, a run gives its buffers back to
//! its executor's spare list ([`Spares`]) when it drops — a one-shot run
//! ending, a drained or abandoned cursor, a parked state the serving
//! layer lets go of — and the executor's next run starts from them, so it
//! reuses the capacity its executor's last run actually grew. Nothing is
//! sized from a guess and there is nothing to set.
//!
//! **Retention contract.**
//! - The owner is the executor. Each [`RankJoinExecutor`] made by `new` (a
//!   [`SpecExecutor`] is one) owns one list, and its `fork_onto` forks
//!   share it: a fork is the same executor over another ledger. A run or
//!   cursor holds its executor's list in its bookkeeping, so what it
//!   allocates depends on what that executor and its forks ran before,
//!   never on which thread runs it. Forks that run at the same time on
//!   different threads draw from one list in whichever order they reach it.
//! - Every run opens through an executor. Only the
//!   bare buffers (`HrjnState::new`, `TopIds::new`) have none: they take
//!   nothing and keep nothing, like an executor's first run.
//! - A list holds at most [`MAX_SPARES`] spares of each of four kinds —
//!   seen-tuple stores (one per side of a run), top-k buffers (one per
//!   run), scanner row batches (one per side an ISL cursor descends; a
//!   MapReduce task's map scan and the index builds open their own) and
//!   BFHM run buffers (the reverse-row cache, the estimates, both sides'
//!   fetched-bucket lists and the row batch of its gets; a fetched
//!   bucket's decoded filter is kept too, as an array a later run's blob
//!   decodes into: the smallest kept one with room, else a new one, so a
//!   run over blobs its set has decoded before allocates no array). One
//!   given back past that is freed.
//! - A spare keeps the capacity of the run that gave it back; nothing
//!   trims it. A fork or a parked [`CursorState`] holds its list, so it
//!   keeps the list — at most 4 of each kind — alive after its executor
//!   drops; the list is freed with the last of them.
//! - A spare is cleared when it is kept. A store taken from here is a new
//!   store to every reader — entry ids dense from 0, every group in
//!   insertion order, no old key found — and is the oldest spare with the
//!   edge count asked for, else a new store. A cursor takes, for each
//!   side, the newest batch that side's position gave back, else the
//!   newest one, when it opens. A BFHM run takes the newest set. So equal
//!   runs in a row find equal buffers, and allocate equally.
//! - Clones never come from here: a clone is a fresh, exact-size copy
//!   that gives its buffers back to its original's list. A clone of a
//!   BFHM run copies none of the arrays its set keeps for later decodes.
//! - The list sits behind a [`Mutex`] taken only when a run opens and
//!   when it drops. Nothing here panics: a list whose lock a panic
//!   poisoned is used as it stands (every update leaves it whole).
//!
//! [`SeenSide`]: crate::hrjn::SeenSide
//! [`TopIds`]: crate::result::TopIds
//! [`SideScan`]: crate::isl::query::SideScan
//! [`BfhmCore`]: crate::bfhm::BfhmCore
//! [`RankJoinExecutor`]: crate::RankJoinExecutor
//! [`SpecExecutor`]: crate::SpecExecutor
//! [`CursorState`]: crate::CursorState

use std::sync::{Arc, Mutex, PoisonError};

use rj_store::row::RowBatch;

use crate::bfhm::BfhmBuffers;
use crate::hrjn::SeenSide;
use crate::result::TopIds;

/// Spares of each kind a list keeps at most: a 3-way run's seen sides
/// (or scanner batches) and one more.
const MAX_SPARES: usize = 4;

/// One executor's spares, oldest first.
#[derive(Default)]
struct List {
    sides: Vec<SeenSide>,
    tops: Vec<TopIds>,
    /// Each with the side position that gave it back.
    batches: Vec<(usize, RowBatch)>,
    bfhm: Vec<BfhmBuffers>,
}

/// Keeps `spare`, cleared by `clear`, unless `kept` holds [`MAX_SPARES`]
/// already; then it is freed.
fn keep<T>(kept: &mut Vec<T>, mut spare: T, clear: impl FnOnce(&mut T)) {
    if kept.len() < MAX_SPARES {
        clear(&mut spare);
        kept.push(spare);
    }
}

/// A handle to one executor's spare list. The default handle has no list:
/// a run holding it takes nothing and keeps nothing.
#[derive(Clone, Default)]
pub(crate) struct Spares(Option<Arc<Mutex<List>>>);

impl Spares {
    /// A new, empty list — a new executor's.
    pub(crate) fn new() -> Self {
        Spares(Some(Arc::default()))
    }

    /// Runs `f` on the list; `None` without one.
    fn with<R>(&self, f: impl FnOnce(&mut List) -> R) -> Option<R> {
        let list = self.0.as_ref()?;
        Some(f(&mut list.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// A store for a side with `edges` incident edges: the oldest spare
    /// with that many, else a new one.
    pub(crate) fn side(&self, edges: usize) -> SeenSide {
        let spare = self.with(|s| {
            let at = s.sides.iter().position(|side| side.edges() == edges)?;
            Some(s.sides.remove(at))
        });
        spare.flatten().unwrap_or_else(|| SeenSide::new(edges))
    }

    /// Takes back a dropped run's store.
    pub(crate) fn give_side(&self, side: SeenSide) {
        self.with(|s| keep(&mut s.sides, side, SeenSide::clear));
    }

    /// An id top-k of the best `k` results over `sides` sides: the oldest
    /// spare, else a new one.
    pub(crate) fn top(&self, k: usize, sides: usize) -> TopIds {
        let spare = self.with(|s| (!s.tops.is_empty()).then(|| s.tops.remove(0)));
        let mut top = spare.flatten().unwrap_or_else(|| TopIds::new(k, sides));
        top.reset(k, sides);
        top
    }

    /// Takes back a dropped run's top-k.
    pub(crate) fn give_top(&self, top: TopIds) {
        self.with(|s| keep(&mut s.tops, top, |top| top.reset(0, 0)));
    }

    /// A row batch for the scans of side position `side` of a cursor: the
    /// newest spare that position gave back, else the newest, else a new
    /// one.
    pub(crate) fn batch(&self, side: usize) -> RowBatch {
        let spare = self.with(|s| {
            let same = s.batches.iter().rposition(|(at, _)| *at == side);
            let at = same.or(s.batches.len().checked_sub(1))?;
            Some(s.batches.remove(at).1)
        });
        spare.flatten().unwrap_or_default()
    }

    /// Takes back the row batch of side position `side` of a dropped
    /// cursor.
    pub(crate) fn give_batch(&self, side: usize, batch: RowBatch) {
        self.with(|s| keep(&mut s.batches, (side, batch), |(_, batch)| batch.clear()));
    }

    /// Buffers for a new BFHM run: the newest spare set, else empty ones.
    pub(crate) fn bfhm(&self) -> BfhmBuffers {
        self.with(|s| s.bfhm.pop()).flatten().unwrap_or_default()
    }

    /// Takes back a dropped BFHM run's buffers.
    pub(crate) fn give_bfhm(&self, buffers: BfhmBuffers) {
        self.with(|s| keep(&mut s.bfhm, buffers, BfhmBuffers::clear));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfhm::BfhmConfig;
    use crate::cursor::RankedCursor;
    use crate::testsupport::running_example_cluster;
    use crate::{Algorithm, RankJoinExecutor, StopPolicy};

    /// How many spares of each kind a list holds: seen stores, top-k
    /// buffers, cursor row batches, BFHM runs.
    fn held(spares: &Spares) -> [usize; 4] {
        spares
            .with(|s| [s.sides.len(), s.tops.len(), s.batches.len(), s.bfhm.len()])
            .unwrap()
    }

    /// The running example with its ISL and BFHM indices built.
    fn executor() -> RankJoinExecutor {
        let (cluster, query) = running_example_cluster();
        let mut ex = RankJoinExecutor::new(&cluster, query);
        ex.prepare_isl().unwrap();
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        };
        ex.prepare_bfhm(config).unwrap();
        ex
    }

    /// A cursor of `algorithm` for the top 3, its first result pulled.
    fn pulled(ex: &RankJoinExecutor, algorithm: Algorithm) -> Box<dyn RankedCursor> {
        let mut cursor = ex.open_cursor(algorithm, 3).unwrap();
        let page = cursor.next_batch(1, &StopPolicy::default()).unwrap();
        assert_eq!(page.results.len(), 1);
        cursor
    }

    #[test]
    fn a_thread_never_holds_more_spares_than_the_bound() {
        // Threads giving back to one list at once: it keeps the bound.
        let spares = Spares::new();
        assert_eq!(held(&spares), [0; 4]);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let spares = &spares;
                scope.spawn(move || {
                    for i in 0..MAX_SPARES {
                        let mut side = SeenSide::new(1 + i % 2);
                        let values = [&b"v"[..], b"w"];
                        side.insert(values.into_iter().take(1 + i % 2), b"key", 0.5);
                        spares.give_side(side);
                        let mut top = TopIds::new(4, 2);
                        top.offer(0.5, &[0, 0], |_, _| &b"key"[..]);
                        spares.give_top(top);
                    }
                });
            }
        });
        assert_eq!(held(&spares), [MAX_SPARES, MAX_SPARES, 0, 0]);

        // A taken spare is cleared and shaped as asked: no old key found.
        let two = spares.side(2);
        assert_eq!((two.edges(), two.len()), (2, 0));
        assert_eq!(two.matches(0, b"v").count(), 0);
        // No spare has three edges: a new store.
        let three = spares.side(3);
        assert_eq!((three.edges(), three.len()), (3, 0));
        let ids = spares.top(5, 3);
        assert_eq!((ids.k(), ids.len()), (5, 0));
        assert_eq!(held(&spares), [MAX_SPARES - 1, MAX_SPARES - 1, 0, 0]);
        spares.give_side(two);
        spares.give_side(three);
        spares.give_top(ids);
        assert_eq!(held(&spares), [MAX_SPARES, MAX_SPARES, 0, 0]);

        // The default handle has no list: it takes and keeps nothing.
        let none = Spares::default();
        none.give_side(SeenSide::new(1));
        assert!(none.with(|_| ()).is_none());
    }

    #[test]
    fn a_thread_never_holds_more_cursor_batches_or_bfhm_runs_than_the_bound() {
        let ex = executor();
        assert_eq!(held(&ex.spares), [0; 4]);
        let cursors: Vec<_> = (0..3 * MAX_SPARES)
            .flat_map(|_| [Algorithm::Isl, Algorithm::Bfhm])
            .map(|algorithm| pulled(&ex, algorithm))
            .collect();
        assert_eq!(held(&ex.spares), [0; 4]);
        drop(cursors);
        assert_eq!(held(&ex.spares), [MAX_SPARES; 4]);

        // An ISL cursor takes a batch a side when it opens, a BFHM
        // cursor one set of run buffers.
        let isl = ex.open_cursor(Algorithm::Isl, 3).unwrap();
        let bfhm_cursor = ex.open_cursor(Algorithm::Bfhm, 3).unwrap();
        assert_eq!(held(&ex.spares)[2..], [MAX_SPARES - 2, MAX_SPARES - 1]);
        drop((isl, bfhm_cursor));
        assert_eq!(held(&ex.spares)[2..], [MAX_SPARES; 2]);

        // A taken set is cleared and still grown, and keeps its fetched
        // blobs' arrays.
        let run = ex.spares.bfhm();
        assert!(run.estimates.is_empty() && run.estimates.capacity() > 0);
        assert!(run.fetched.iter().all(|f| f.is_empty() && f.capacity() > 0));
        assert!(!run.arrays.0.is_empty());
        assert!(run.batch.is_empty());
        ex.spares.give_bfhm(run);
        assert_eq!(held(&ex.spares)[3], MAX_SPARES);
    }
}
