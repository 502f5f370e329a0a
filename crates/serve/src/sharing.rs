//! Cross-query work sharing: one versioned work entry per backend.
//!
//! Every rank-join algorithm in this workspace returns its answer in one
//! deterministic total order — score descending, then `(left_key,
//! right_key)` ascending ([`JoinTuple::rank_cmp`]). Top-k is therefore
//! *prefix-monotone*: the top-`k` answer is exactly the first `k` rows of
//! any completed top-`k'` answer with `k' ≥ k`. An answer is a certified
//! prefix that only grows, and that is the whole sharing theorem; the
//! rest is bookkeeping.
//!
//! A `WorkEntry` holds everything one backend can reuse, all of it
//! computed at one statistics version:
//!
//! * the deepest *completed* answer, with its `k`, whether it enumerated
//!   the whole join (`exhausted`: fewer than `k` rows, so it serves any
//!   depth) and the cuts it has handed out (see *How long a cut lives*).
//!   It is built only from complete executions: a cancelled or
//!   deadline-stopped run holds unverified candidates (HRJN has not
//!   proven them against the threshold), so stopped *results* never
//!   enter;
//! * the deepest *donated* descent, a paused [`CursorState`] shared
//!   behind an `Arc`, with the input depth it consumed. A stopped run's
//!   results are unverified, but its *work* is not wasted: the tuples it
//!   consumed can be re-targeted to any deeper `k'`
//!   ([`CursorState::resume_retargeted`], on a copy, so no run changes
//!   the donor), and the warmed execution is billed only what it reads
//!   beyond the donor's prefix. Completed executions donate too — that is
//!   what lets a later `k' > k` query warm-start.
//!
//! Work enters through one rule, `WorkEntry::offer`: work computed
//! under a version other than the backend's current one is refused, the
//! first current-version offer drops everything older, and within a
//! version a deeper (or exhausted) answer and a deeper donor win. Three
//! readers take from the entry: a queued session's cache hit and a
//! coalesced follower both cut the answer through `WorkEntry::hit` (a
//! group cuts its followers from its own entry, which the backend's then
//! absorbs, cuts and all), and a dispatched group starts from the donor
//! (`WorkEntry::donor_only`).
//!
//! Coherence rides on the backend's one statistics handle
//! ([`rj_core::SharedTableStats`], the same for a binary pair and a
//! multi-way spec): every maintained write, every index (re-)preparation
//! and every statistics pass bumps its version, and an execution's work
//! is offered under the version its cursor was pinned to, so work
//! computed before a write is never reused after it — and is released by
//! the first offer after it.
//!
//! # How long a cut lives
//!
//! A session's result is an `Arc<Vec<JoinTuple>>`, so a hit at a `k`
//! below the cached depth needs the first `k` rows as a vector of their
//! own — a *cut*. The answer builds a cut once and remembers it by a
//! [`Weak`], one slot per `k` it has cut: the next hit at that `k`
//! upgrades the slot and shares the allocation. The `Weak` is the whole
//! lifetime rule. The entry keeps no cut alive on its own account, so a
//! cut lives exactly as long as something shows it — a finished session's
//! record (at most [`crate::FINISHED_GRACE_ROUNDS`] after the last hit
//! that took it) or a client holding the `SessionResult` — and the hit
//! after that builds it again. There is nothing to evict and no size to
//! tune: a slot whose cut is gone holds one dangling pointer (and the
//! emptied 40-byte block behind it, until the slot is cut again), there
//! are never more slots than the answer has rows, and the slots go when
//! the answer is replaced.

use std::sync::{Arc, Weak};

use rj_core::cursor::CursorState;
use rj_core::result::JoinTuple;

/// A completed answer at depth `k`, with the cuts handed out of it.
#[derive(Debug)]
pub(crate) struct Answer {
    /// The `k` the execution was asked for.
    k: usize,
    /// The execution returned fewer than `k` rows, i.e. it enumerated the
    /// *entire* join — the answer then serves any `k`.
    exhausted: bool,
    /// The rows, rank-ordered.
    results: Arc<Vec<JoinTuple>>,
    /// The cuts handed out, by `k` ascending, each only as alive as its
    /// last holder (see the module docs). Every `k` here is below
    /// `results.len()`.
    cuts: Vec<(usize, Weak<Vec<JoinTuple>>)>,
}

impl Answer {
    /// The answer of a completed execution at depth `k`.
    pub fn completed(k: usize, results: Arc<Vec<JoinTuple>>) -> Self {
        Answer {
            k,
            exhausted: results.len() < k,
            results,
            cuts: Vec::new(),
        }
    }

    /// The first `k` rows (everything, if the join has fewer results),
    /// and whether this call had to copy them. Full-depth requests alias
    /// the answer's allocation; a shallower one shares the cut an earlier
    /// request at the same `k` was given while anything still holds it.
    fn cut(&mut self, k: usize) -> (Arc<Vec<JoinTuple>>, bool) {
        if k >= self.results.len() {
            return (Arc::clone(&self.results), false);
        }
        let slot = match self.cuts.binary_search_by_key(&k, |(cut_k, _)| *cut_k) {
            Ok(slot) => {
                if let Some(cut) = self.cuts[slot].1.upgrade() {
                    return (cut, false);
                }
                slot
            }
            Err(slot) => {
                self.cuts.insert(slot, (k, Weak::new()));
                slot
            }
        };
        let cut = Arc::new(self.results[..k].to_vec());
        self.cuts[slot].1 = Arc::downgrade(&cut);
        (cut, true)
    }
}

/// A donated descent state and the input depth it consumed.
pub(crate) type Donor<D> = (Arc<D>, u64);

/// The donor a paused state makes, if it can be re-targeted.
pub(crate) fn donation(state: CursorState) -> Option<Donor<CursorState>> {
    let depth = state.consumed_depth();
    state.supports_retarget().then(|| (Arc::new(state), depth))
}

/// One backend's reusable work at one statistics version: the deepest
/// completed answer and the deepest donated descent (the donor type is a
/// parameter only so the rule can be tested without a store).
#[derive(Debug)]
pub(crate) struct WorkEntry<D = CursorState> {
    /// The [`rj_core::SharedTableStats::version`] everything here was
    /// computed at.
    version: u64,
    answer: Option<Answer>,
    donor: Option<Donor<D>>,
}

impl<D> Default for WorkEntry<D> {
    fn default() -> Self {
        WorkEntry {
            version: 0,
            answer: None,
            donor: None,
        }
    }
}

impl<D> WorkEntry<D> {
    /// The statistics version the entry holds work for.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Offers work computed under statistics `version` while `current`
    /// is the backend's: refused unless the two agree; the first offer at
    /// a new version drops everything older; within a version a deeper
    /// or exhausted answer and a deeper donor replace what is held.
    pub fn offer(
        &mut self,
        current: u64,
        version: u64,
        answer: Option<Answer>,
        donor: Option<Donor<D>>,
    ) {
        if version != current {
            return;
        }
        if version != self.version {
            *self = WorkEntry {
                version,
                ..WorkEntry::default()
            };
        }
        if let Some(answer) = answer {
            if self
                .answer
                .as_ref()
                .is_none_or(|held| answer.k > held.k || answer.exhausted)
            {
                self.answer = Some(answer);
            }
        }
        if let Some(donor) = donor {
            if self.donor.as_ref().is_none_or(|held| donor.1 > held.1) {
                self.donor = Some(donor);
            }
        }
    }

    /// Offers everything `other` holds, cuts included — how a group's
    /// work reaches its backend's entry.
    pub fn absorb(&mut self, current: u64, other: WorkEntry<D>) {
        self.offer(current, other.version, other.answer, other.donor);
    }

    /// The first `k` rows of the held answer and whether they had to be
    /// copied, if it answers depth `k` under statistics version
    /// `current`.
    pub fn hit(&mut self, k: usize, current: u64) -> Option<(Arc<Vec<JoinTuple>>, bool)> {
        let fresh = self.version == current;
        let answer = self
            .answer
            .as_mut()
            .filter(|a| fresh && (k <= a.k || a.exhausted))?;
        Some(answer.cut(k))
    }

    /// The held donor, if it can warm a query under version `current`.
    pub fn donor(&self, current: u64) -> Option<&Arc<D>> {
        let fresh = self.version == current;
        self.donor
            .as_ref()
            .filter(|_| fresh)
            .map(|(state, _)| state)
    }

    /// A new entry at `current` that shares this one's donor (the `Arc`,
    /// not the state) when it is current: what a dispatched group starts
    /// from.
    pub fn donor_only(&self, current: u64) -> Self {
        WorkEntry {
            version: current,
            answer: None,
            donor: self.donor.clone().filter(|_| self.version == current),
        }
    }

    /// The held donor's `(consumed depth, version)`.
    pub fn donor_depth(&self) -> Option<(u64, u64)> {
        self.donor.as_ref().map(|(_, depth)| (*depth, self.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(score: f64, tag: u8) -> JoinTuple {
        JoinTuple {
            left_key: vec![tag],
            right_key: vec![tag],
            join_value: vec![tag],
            left_score: score,
            right_score: score,
            inner: Vec::new(),
            score,
        }
    }

    /// The first `rows` rows of one rank-ordered join.
    fn rows(rows: usize) -> Vec<JoinTuple> {
        (0..rows)
            .map(|i| tuple(1.0 - i as f64 * 0.01, i as u8))
            .collect()
    }

    fn answer(k: usize, n: usize) -> Answer {
        Answer::completed(k, Arc::new(rows(n)))
    }

    fn entry(k: usize, n: usize, version: u64) -> WorkEntry<()> {
        let mut work = WorkEntry::default();
        work.offer(version, version, Some(answer(k, n)), None);
        work
    }

    #[test]
    fn serves_shallower_k_at_same_version_only() {
        let mut e = entry(10, 10, 3);
        assert!(e.hit(10, 3).is_some());
        assert!(e.hit(1, 3).is_some());
        assert!(e.hit(11, 3).is_none(), "deeper than cached");
        assert!(e.hit(5, 4).is_none(), "version moved — never serve stale");
    }

    #[test]
    fn exhausted_answer_serves_any_depth() {
        // Asked for 100, got 7: the whole join is 7 rows.
        let mut e = answer(100, 7);
        assert!(e.exhausted);
        assert_eq!(e.cut(5000).0.len(), 7);
        assert!(entry(100, 7, 0).hit(5000, 0).is_some());
    }

    #[test]
    fn prefix_is_the_leading_rows() {
        let mut e = answer(10, 10);
        let (p, built) = e.cut(3);
        assert!(built);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], e.results[0]);
        assert_eq!(p[2], e.results[2]);
        // Full-depth requests share the allocation instead of copying.
        let (full, built) = e.cut(10);
        assert!(Arc::ptr_eq(&full, &e.results) && !built);
        assert_eq!(e.cuts.len(), 1, "a full-depth request takes no slot");
    }

    #[test]
    fn a_cut_is_shared_while_held_and_rebuilt_once_dropped() {
        let mut e = answer(10, 10);
        let (first, built) = e.cut(4);
        assert!(built);
        let (second, built) = e.cut(4);
        assert!(!built, "the first holder keeps the cut alive");
        assert!(Arc::ptr_eq(&first, &second));
        // The answer holds nothing on its own account: the last holder
        // gone, the rows are gone, and the next request builds again —
        // into the slot it already had.
        let gone = Arc::downgrade(&first);
        drop((first, second));
        assert!(gone.upgrade().is_none());
        let (third, built) = e.cut(4);
        assert!(built);
        assert_eq!(*third, e.results[..4]);
        assert_eq!(e.cuts.len(), 1);
    }

    #[test]
    fn slots_are_sorted_distinct_and_never_outnumber_the_rows() {
        let mut e = answer(12, 12);
        let mut held = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 20) as usize;
            let (cut, _) = e.cut(k);
            assert_eq!(*cut, e.results[..k.min(12)], "k = {k}");
            if step % 3 == 0 {
                held.push(cut);
            }
            if step % 7 == 0 {
                held.clear();
            }
            assert!(e.cuts.len() <= e.results.len());
            assert!(e.cuts.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn a_replacement_entry_starts_with_no_cuts() {
        let mut work = entry(5, 5, 1);
        let (held, _) = work.hit(2, 1).unwrap();
        work.offer(1, 1, Some(answer(9, 9)), None);
        let deep = work.answer.as_ref().unwrap();
        assert_eq!(deep.k, 9);
        assert!(deep.cuts.is_empty());
        let (again, built) = work.hit(2, 1).unwrap();
        assert!(built && !Arc::ptr_eq(&held, &again));
    }

    /// A few hundred seeded offers and reads against a brute-force model
    /// of the offer history: a hit at `k` is served iff some offer taken
    /// at the current version had `k' ≥ k` or was exhausted, and the
    /// donor is the first of the deepest donations taken at the current
    /// version. The script opens with fixed inputs: a deeper answer
    /// replaces a shallower one and not the reverse, a fresh answer
    /// replaces a stale one, a stale offer never enters, and a donor as
    /// deep as the held one does not replace it.
    #[test]
    fn offers_and_reads_match_a_model_of_the_offer_history() {
        // Every answer is a prefix of one join of `JOIN` rows; a `k`
        // above it is an exhausted answer.
        const JOIN: usize = 24;
        let join = rows(JOIN);
        // (statistics version moves to, offer lag behind it, k, donor depth)
        let mut script: Vec<(u64, i64, Option<usize>, Option<u64>)> = vec![
            (0, 0, Some(50), Some(9)),
            (1, 0, Some(5), None),
            (1, 0, Some(9), None),
            (1, 0, Some(5), Some(3)),
            (1, 1, Some(50), Some(30)),
            (1, -1, Some(50), Some(30)),
            (1, 0, None, Some(2)),
            (1, 0, None, Some(7)),
            (1, 0, None, Some(7)),
        ];
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut current = 1;
        for _ in 0..400 {
            current += u64::from(next(8) == 0);
            let lag = [0, 0, 0, 0, 1, -1][next(6) as usize];
            let k = (next(3) > 0).then(|| 1 + next(JOIN as u64 + 6) as usize);
            let depth = (next(3) > 0).then(|| next(12));
            script.push((current, lag, k, depth));
        }

        let mut work: WorkEntry<()> = WorkEntry::default();
        // Every offer made: (version, k, donor).
        let mut history: Vec<(u64, Option<usize>, Option<Donor<()>>)> = Vec::new();
        for (step, &(current, lag, k, depth)) in script.iter().enumerate() {
            let version = current.wrapping_add_signed(-lag);
            let donor = depth.map(|d| (Arc::new(()), d));
            let rows = k.map(|k| Arc::new(join[..k.min(JOIN)].to_vec()));
            let answer = k.zip(rows).map(|(k, rows)| Answer::completed(k, rows));
            work.offer(current, version, answer, donor.clone());
            if version == current {
                history.push((version, k, donor));
            }
            let taken = || history.iter().filter(|(v, ..)| *v == current);
            for read in 1..=JOIN + 8 {
                let served = taken().any(|(_, k, _)| k.is_some_and(|k| k >= read || k > JOIN));
                let got = work.hit(read, current);
                assert_eq!(got.is_some(), served, "step {step}, hit at k = {read}");
                if let Some((cut, _)) = got {
                    assert_eq!(*cut, join[..read.min(JOIN)], "step {step}, k = {read}");
                }
            }
            assert!(work.hit(1, current + 1).is_none(), "step {step}");
            // `max_by_key` keeps the last of equals: reversed, the first.
            let donations = taken().filter_map(|(.., donor)| donor.as_ref());
            let deepest = donations.rev().max_by_key(|(_, depth)| *depth);
            match (work.donor(current), deepest) {
                (Some(got), Some(want)) => assert!(Arc::ptr_eq(got, &want.0), "step {step}"),
                (got, want) => assert_eq!(got.is_some(), want.is_some(), "step {step}"),
            }
            let held = work.donor_depth().filter(|&(_, v)| v == current);
            assert_eq!(held.map(|(d, _)| d), deepest.map(|d| d.1), "step {step}");
        }
        assert!(history.len() > 200, "the script took too few offers");
    }
}
