//! Per-thread recycling of the buffers a run grows: the seen-tuple stores
//! of HRJN and DRJN ([`SeenSide`]), the id top-k of HRJN, BFHM and DRJN
//! ([`TopIds`]), the row batches an ISL cursor's index scans refill
//! ([`SideScan`]) and the buffers of a BFHM run ([`BfhmCore`]).
//!
//! A run keeps every tuple it pulls, one id per side for each result it
//! buffers (the ranked-enumeration view of an answer as a tuple of ids
//! into the inputs), and the rows its last RPC returned, and grew all of
//! them from empty every time. Instead, a buffer is given back here when
//! its owner drops it — a one-shot run ending, a drained or abandoned
//! cursor, a parked state the serving layer lets go of — and the thread's
//! next run starts from it, so it reuses the capacity its last run
//! actually grew. Nothing is sized from a guess and there is nothing to
//! set.
//!
//! **Retention contract.**
//! - A thread holds at most [`MAX_SPARES`] spares of each of four kinds;
//!   one given back past that is freed:
//!   - seen-tuple stores, one per side of a run;
//!   - top-k buffers, one per run;
//!   - scanner row batches, one per side an ISL cursor descends. Only a
//!     cursor's scans take part: a MapReduce task's map scan and the
//!     index builds open their own;
//!   - BFHM run buffers — the reverse-row cache, the estimates, both
//!     sides' fetched-bucket lists and the row batch of its gets — one
//!     set per run. A fetched bucket's decoded filter is freed, not kept.
//! - A spare keeps the capacity of the run that gave it back, for as long
//!   as the thread keeps it. Nothing trims it.
//! - A spare is cleared when it is kept. A store taken from here is a new
//!   store to every reader — entry ids dense from 0, every group in
//!   insertion order, no old key found — with `by_edge` reshaped to the
//!   edge count asked for, preferring the oldest spare with that count.
//!   A row batch goes to the side that gave it back: a cursor takes, for
//!   each side, the newest batch that side's position gave back, else the
//!   newest one. A BFHM run takes the newest set. So equal runs in a row
//!   find equal buffers, and allocate equally.
//! - A cursor takes its batches when it opens, not at its first scan: a
//!   cursor opened inside [`without_spares`] and pulled outside it takes
//!   none.
//! - Clones never come from here: a clone is a fresh, exact-size copy.
//! - Nothing here panics. A give-back during thread teardown, or while the
//!   list is borrowed, frees the buffers instead.
//! - Inside [`without_spares`] a thread neither takes nor keeps: a buffer
//!   made in there starts empty, and one dropped in there is freed. A task
//!   a pool may run on any thread — `rj_serve`'s round groups — runs in
//!   there, so what it allocates does not depend on which thread ran it
//!   or what that thread ran before.
//!
//! This module is the only per-thread state of the library crates
//! (rjlint's `thread-local` rule).
//!
//! [`SeenSide`]: crate::hrjn::SeenSide
//! [`TopIds`]: crate::result::TopIds
//! [`SideScan`]: crate::cursor::SideScan
//! [`BfhmCore`]: crate::bfhm::BfhmCore

use std::cell::RefCell;

use rj_sketch::blob::BfhmBlob;
use rj_sketch::FlatMultiMap;
use rj_store::row::RowBatch;

use crate::bfhm::Estimate;

/// Spares of each kind a thread keeps at most: a 3-way run's seen sides
/// (or scanner batches) and one more.
const MAX_SPARES: usize = 4;

/// The columns of one seen-tuple store ([`crate::hrjn::SeenSide`]).
#[derive(Default)]
pub(crate) struct SideColumns {
    pub(crate) by_edge: Vec<FlatMultiMap<()>>,
    pub(crate) key_arena: Vec<u8>,
    pub(crate) rows: Vec<u32>,
    pub(crate) scores: Vec<f64>,
}

/// The columns of one id top-k ([`crate::result::TopIds`]).
#[derive(Default)]
pub(crate) struct TopColumns {
    pub(crate) entries: Vec<u64>,
    pub(crate) ranked: Vec<u32>,
}

/// The buffers of one BFHM run ([`crate::bfhm::BfhmCore`]): its
/// reverse-row cache's columns, its estimates, each side's fetched
/// buckets and the batch its gets refill.
#[derive(Default)]
pub(crate) struct BfhmColumns {
    pub(crate) index: FlatMultiMap<()>,
    pub(crate) arena: Vec<u8>,
    pub(crate) ends: Vec<u32>,
    pub(crate) scores: Vec<f64>,
    pub(crate) estimates: Vec<Estimate>,
    pub(crate) fetched: [Vec<(u32, BfhmBlob)>; 2],
    pub(crate) batch: RowBatch,
}

/// One thread's spares, oldest first.
struct Spares {
    sides: Vec<SideColumns>,
    tops: Vec<TopColumns>,
    /// Each with the side position that gave it back.
    batches: Vec<(usize, RowBatch)>,
    bfhm: Vec<BfhmColumns>,
    /// Inside [`without_spares`]: take none, keep none.
    off: bool,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            sides: Vec::new(),
            tops: Vec::new(),
            batches: Vec::new(),
            bfhm: Vec::new(),
            off: false,
        })
    };
}

/// Runs `f` on this thread's spares; `None` while the thread tears down
/// or the list is borrowed already.
fn with_spares<R>(f: impl FnOnce(&mut Spares) -> R) -> Option<R> {
    SPARES
        .try_with(|spares| spares.try_borrow_mut().ok().map(|mut s| f(&mut s)))
        .ok()
        .flatten()
}

/// Runs `f` with this thread's recycling off: every seen-tuple store, id
/// top-k, cursor row batch and BFHM run made inside starts empty, and one
/// dropped inside is freed.
/// The thread's spares wait untouched until `f` returns or unwinds. One
/// that `f` returns or parks elsewhere is given back by whoever drops it
/// later, outside.
///
/// Wrap a task a pool may run on any thread in this, so what the task
/// allocates is a function of the task alone. Calls nest.
pub fn without_spares<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the thread's setting back.
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(off) = self.0 {
                with_spares(|s| s.off = off);
            }
        }
    }
    let _restore = Restore(with_spares(|s| std::mem::replace(&mut s.off, true)));
    f()
}

/// Columns for a new store of a side with `edges` incident edges: a
/// spare's when the thread has one, else empty ones.
pub(crate) fn side(edges: usize) -> SideColumns {
    let spare = with_spares(|s| {
        let same = s.sides.iter().position(|c| c.by_edge.len() == edges);
        let at = same.unwrap_or(0);
        (!s.off && at < s.sides.len()).then(|| s.sides.remove(at))
    });
    let mut columns = spare.flatten().unwrap_or_default();
    // Reserved exactly: `resize_with` alone would round a fresh table up
    // to four maps.
    columns.by_edge.truncate(edges);
    columns.by_edge.reserve_exact(edges - columns.by_edge.len());
    columns.by_edge.resize_with(edges, FlatMultiMap::new);
    columns
}

/// Takes back a dropped store's columns.
pub(crate) fn give_side(mut columns: SideColumns) {
    with_spares(|s| {
        if !s.off && s.sides.len() < MAX_SPARES {
            columns.by_edge.iter_mut().for_each(FlatMultiMap::clear);
            columns.key_arena.clear();
            columns.rows.clear();
            columns.scores.clear();
            s.sides.push(columns);
        }
    });
}

/// Columns for a new id top-k: a spare's when the thread has one, else
/// empty ones.
pub(crate) fn top() -> TopColumns {
    let spare = with_spares(|s| (!s.off && !s.tops.is_empty()).then(|| s.tops.remove(0)));
    spare.flatten().unwrap_or_default()
}

/// Takes back a dropped top-k's columns.
pub(crate) fn give_top(mut columns: TopColumns) {
    with_spares(|s| {
        if !s.off && s.tops.len() < MAX_SPARES {
            columns.entries.clear();
            columns.ranked.clear();
            s.tops.push(columns);
        }
    });
}

/// A row batch for the scans of side position `side` of a cursor: the
/// newest spare that position gave back, else the newest, else a new one.
pub(crate) fn batch(side: usize) -> RowBatch {
    let spare = with_spares(|s| {
        let same = s.batches.iter().rposition(|(at, _)| *at == side);
        let at = same.or(s.batches.len().checked_sub(1));
        at.filter(|_| !s.off).map(|at| s.batches.remove(at).1)
    });
    spare.flatten().unwrap_or_default()
}

/// Takes back the row batch of side position `side` of a dropped cursor.
pub(crate) fn give_batch(side: usize, mut batch: RowBatch) {
    with_spares(|s| {
        if !s.off && s.batches.len() < MAX_SPARES {
            batch.clear();
            s.batches.push((side, batch));
        }
    });
}

/// Buffers for a new BFHM run: the newest spare set, else empty ones.
pub(crate) fn bfhm() -> BfhmColumns {
    let spare = with_spares(|s| if s.off { None } else { s.bfhm.pop() });
    spare.flatten().unwrap_or_default()
}

/// Takes back a dropped BFHM run's buffers.
pub(crate) fn give_bfhm(mut columns: BfhmColumns) {
    with_spares(|s| {
        if !s.off && s.bfhm.len() < MAX_SPARES {
            columns.index.clear();
            columns.arena.clear();
            columns.ends.clear();
            columns.scores.clear();
            columns.estimates.clear();
            columns.fetched.iter_mut().for_each(Vec::clear);
            columns.batch.clear();
            s.bfhm.push(columns);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfhm::BfhmConfig;
    use crate::cursor::RankedCursor;
    use crate::hrjn::SeenSide;
    use crate::result::TopIds;
    use crate::testsupport::running_example_cluster;
    use crate::{Algorithm, RankJoinExecutor, StopPolicy};

    /// How many spares of each kind this thread holds: seen stores, top-k
    /// buffers, cursor row batches, BFHM runs.
    fn held() -> [usize; 4] {
        with_spares(|s| [s.sides.len(), s.tops.len(), s.batches.len(), s.bfhm.len()]).unwrap()
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
        // A thread of its own: the test harness may run tests one after
        // another on one thread.
        std::thread::spawn(|| {
            assert_eq!(held(), [0; 4]);
            let sides: Vec<SeenSide> = (0..3 * MAX_SPARES)
                .map(|i| {
                    let mut side = SeenSide::new(1 + i % 2);
                    let values = [&b"v"[..], b"w"];
                    side.insert(values.into_iter().take(1 + i % 2), b"key", 0.5);
                    side
                })
                .collect();
            let tops: Vec<TopIds> = (0..3 * MAX_SPARES)
                .map(|_| {
                    let mut top = TopIds::new(4, 2);
                    top.offer(0.5, &[0, 0], |_, _| &b"key"[..]);
                    top
                })
                .collect();
            drop((sides, tops));
            assert_eq!(held(), [MAX_SPARES, MAX_SPARES, 0, 0]);

            // A taken spare is cleared, reshaped and still grown.
            let three = side(3);
            assert_eq!(three.by_edge.len(), 3);
            assert!(three
                .by_edge
                .iter()
                .all(|m| m.is_empty() && m.num_keys() == 0));
            assert!(three.rows.is_empty() && three.scores.is_empty());
            assert!(three.key_arena.is_empty() && three.key_arena.capacity() > 0);
            let ids = top();
            assert!(ids.ranked.is_empty() && ids.entries.is_empty());
            assert!(ids.entries.capacity() > 0);
            assert_eq!(held(), [MAX_SPARES - 1, MAX_SPARES - 1, 0, 0]);
            give_side(three);
            give_top(ids);
            assert_eq!(held(), [MAX_SPARES, MAX_SPARES, 0, 0]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn without_spares_takes_none_keeps_none_and_switches_back() {
        std::thread::spawn(|| {
            let mut grown = SeenSide::new(1);
            grown.insert([&b"v"[..]], b"key", 0.5);
            drop((grown, TopIds::new(4, 2)));
            assert_eq!(held(), [1, 1, 0, 0]);

            let inside = without_spares(|| {
                let (fresh, ids) = (side(1), top());
                assert_eq!(fresh.key_arena.capacity(), 0);
                assert_eq!(ids.entries.capacity(), 0);
                give_side(fresh);
                give_top(ids);
                // Nested: the inner call's return leaves recycling off.
                without_spares(|| ());
                drop((SeenSide::new(2), TopIds::new(1, 2)));
                assert_eq!(held(), [1, 1, 0, 0]);
                SeenSide::new(1)
            });
            assert_eq!(held(), [1, 1, 0, 0]);
            // Dropped outside, a store made inside is kept.
            drop(inside);
            assert_eq!(held(), [2, 1, 0, 0]);

            // Unwinding out of the call switches recycling back on too.
            let unwound = std::panic::catch_unwind(|| without_spares(|| panic!("task failed")));
            assert!(unwound.is_err());
            assert!(side(1).key_arena.capacity() > 0);
            assert_eq!(held(), [1, 1, 0, 0]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_thread_never_holds_more_cursor_batches_or_bfhm_runs_than_the_bound() {
        std::thread::spawn(|| {
            let ex = executor();
            assert_eq!(held(), [0; 4]);
            let cursors: Vec<_> = (0..3 * MAX_SPARES)
                .flat_map(|_| [Algorithm::Isl, Algorithm::Bfhm])
                .map(|algorithm| pulled(&ex, algorithm))
                .collect();
            assert_eq!(held(), [0; 4]);
            drop(cursors);
            assert_eq!(held(), [MAX_SPARES; 4]);

            // An ISL cursor takes a batch a side when it opens, a BFHM
            // cursor one set of run buffers.
            let isl = ex.open_cursor(Algorithm::Isl, 3).unwrap();
            let bfhm_cursor = ex.open_cursor(Algorithm::Bfhm, 3).unwrap();
            assert_eq!(held()[2..], [MAX_SPARES - 2, MAX_SPARES - 1]);
            drop((isl, bfhm_cursor));
            assert_eq!(held()[2..], [MAX_SPARES; 2]);

            // A taken set is cleared and still grown.
            let run = bfhm();
            assert!(run.index.is_empty() && run.index.num_keys() == 0);
            assert!(run.arena.is_empty() && run.arena.capacity() > 0);
            assert!(run.ends.is_empty() && run.scores.is_empty());
            assert!(run.estimates.is_empty() && run.estimates.capacity() > 0);
            assert!(run.fetched.iter().all(|f| f.is_empty() && f.capacity() > 0));
            assert!(run.batch.is_empty());
            give_bfhm(run);
            assert_eq!(held()[3], MAX_SPARES);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn without_spares_takes_and_keeps_no_cursor_batch_or_bfhm_run() {
        std::thread::spawn(|| {
            let ex = executor();
            drop((pulled(&ex, Algorithm::Isl), pulled(&ex, Algorithm::Bfhm)));
            assert_eq!(held()[2..], [2, 1]);

            let opened_inside = without_spares(|| {
                let inside = (pulled(&ex, Algorithm::Isl), pulled(&ex, Algorithm::Bfhm));
                assert_eq!(held()[2..], [2, 1]);
                drop(inside);
                assert_eq!(held()[2..], [2, 1]);
                ex.open_cursor(Algorithm::Isl, 3).unwrap()
            });
            // Pulled outside, a cursor opened inside takes nothing: its
            // scans open on the batches it opened with.
            let mut cursor = opened_inside;
            let page = cursor.next_batch(3, &StopPolicy::default()).unwrap();
            assert_eq!(page.results.len(), 3);
            assert_eq!(held()[2..], [2, 1]);
            // Dropped outside, it gives them back.
            drop(cursor);
            assert_eq!(held()[2..], [4, 1]);
        })
        .join()
        .unwrap();
    }
}
