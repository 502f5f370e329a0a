//! Per-thread recycling of the buffers a run grows: the seen-tuple stores
//! of HRJN and DRJN ([`SeenSide`]) and the id top-k of HRJN, BFHM and DRJN
//! ([`TopIds`]).
//!
//! A run keeps every tuple it pulls, one id per side for each result it
//! buffers (the ranked-enumeration view of an answer as a tuple of ids
//! into the inputs), and grew both from empty every time. Instead, a store
//! or buffer is given back here when its owner drops it — a one-shot run
//! ending, a drained or abandoned cursor, a parked state the serving layer
//! lets go of — and the thread's next
//! run starts from it, so it reuses the capacity its last run actually
//! grew. Nothing is sized from a guess and there is nothing to set.
//!
//! **Retention contract.**
//! - A thread holds at most [`MAX_SPARES`] spare stores and as many spare
//!   top-k buffers; one given back past that is freed.
//! - A spare keeps the capacity of the run that gave it back, for as long
//!   as the thread keeps it. Nothing trims it.
//! - A spare is cleared when it is kept. A store taken from here is a new
//!   store to every reader — entry ids dense from 0, every group in
//!   insertion order, no old key found — with `by_edge` reshaped to the
//!   edge count asked for, preferring the oldest spare with that count.
//! - Clones never come from here: a clone is a fresh, exact-size copy.
//! - Nothing here panics. A give-back during thread teardown, or while the
//!   list is borrowed, frees the buffers instead.
//! - Inside [`without_spares`] a thread neither takes nor keeps: a store
//!   or buffer made in there starts empty, and one dropped in there is
//!   freed. A task a pool may run on any thread — `rj_serve`'s round
//!   groups — runs in there, so what it allocates does not depend on
//!   which thread ran it or what that thread ran before.
//!
//! This module is the only per-thread state of the library crates
//! (rjlint's `thread-local` rule).
//!
//! [`SeenSide`]: crate::hrjn::SeenSide
//! [`TopIds`]: crate::result::TopIds

use std::cell::RefCell;

use rj_sketch::FlatMultiMap;

/// Spare stores, and spare top-k buffers, a thread keeps at most: a 3-way
/// run's seen sides and one more.
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

/// One thread's spares, oldest first.
struct Spares {
    sides: Vec<SideColumns>,
    tops: Vec<TopColumns>,
    /// Inside [`without_spares`]: take none, keep none.
    off: bool,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            sides: Vec::new(),
            tops: Vec::new(),
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

/// Runs `f` with this thread's recycling off: every seen-tuple store and
/// id top-k made inside starts empty, and one dropped inside is freed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrjn::SeenSide;
    use crate::result::TopIds;

    /// How many spare stores and top-k buffers this thread holds.
    fn held() -> (usize, usize) {
        with_spares(|s| (s.sides.len(), s.tops.len())).unwrap()
    }

    #[test]
    fn a_thread_never_holds_more_spares_than_the_bound() {
        // A thread of its own: the test harness may run tests one after
        // another on one thread.
        std::thread::spawn(|| {
            assert_eq!(held(), (0, 0));
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
            assert_eq!(held(), (MAX_SPARES, MAX_SPARES));

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
            assert_eq!(held(), (MAX_SPARES - 1, MAX_SPARES - 1));
            give_side(three);
            give_top(ids);
            assert_eq!(held(), (MAX_SPARES, MAX_SPARES));
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
            assert_eq!(held(), (1, 1));

            let inside = without_spares(|| {
                let (fresh, ids) = (side(1), top());
                assert_eq!(fresh.key_arena.capacity(), 0);
                assert_eq!(ids.entries.capacity(), 0);
                give_side(fresh);
                give_top(ids);
                // Nested: the inner call's return leaves recycling off.
                without_spares(|| ());
                drop((SeenSide::new(2), TopIds::new(1, 2)));
                assert_eq!(held(), (1, 1));
                SeenSide::new(1)
            });
            assert_eq!(held(), (1, 1));
            // Dropped outside, a store made inside is kept.
            drop(inside);
            assert_eq!(held(), (2, 1));

            // Unwinding out of the call switches recycling back on too.
            let unwound = std::panic::catch_unwind(|| without_spares(|| panic!("task failed")));
            assert!(unwound.is_err());
            assert!(side(1).key_arena.capacity() > 0);
            assert_eq!(held(), (1, 1));
        })
        .join()
        .unwrap();
    }
}
