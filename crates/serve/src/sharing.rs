//! Cross-query work sharing: the partial-work cache.
//!
//! Every rank-join algorithm in this workspace returns its answer in one
//! deterministic total order — score descending, then `(left_key,
//! right_key)` ascending ([`JoinTuple::rank_cmp`]). Top-k is therefore
//! *prefix-monotone*: the top-`k` answer is exactly the first `k` rows of
//! any completed top-`k'` answer with `k' ≥ k`. That is the whole sharing
//! theorem the **completed side** of the cache relies on; everything else
//! is cache bookkeeping.
//!
//! Since PR 8 the cache holds two kinds of reusable work per backend:
//!
//! * `PrefixEntry` — a *completed* answer at depth `k`. Serves any
//!   later `k' ≤ k` query for free (see *How long a cut lives* below).
//!   Built only from complete executions:
//!   a cancelled or deadline-stopped run holds unverified candidates
//!   (HRJN has not proven them against the threshold), so stopped
//!   *results* are never served from the cache.
//! * `WarmEntry` — a paused [`CursorState`] at descent depth `d`, shared
//!   behind an `Arc`. A stopped run's results are unverified, but its
//!   *work* is not wasted: the tuples it consumed can be re-targeted to
//!   any deeper `k'` ([`CursorState::resume_retargeted`], on a copy, so no
//!   run changes the cached state) and the warmed execution is billed only
//!   what it reads beyond the donor's prefix. Completed ISL executions
//!   donate their final state too — that is what lets a later `k' > k`
//!   query warm-start instead of descending from scratch.
//!
//! Coherence rides on the backend's one statistics handle
//! ([`rj_core::SharedTableStats`], the same for a binary pair and a
//! multi-way spec): every maintained write, every index (re-)preparation
//! and every statistics pass bumps its version, and both entry kinds
//! store the version their execution's cursor was pinned to — a version
//! mismatch refuses the entry, so work computed before a write is never
//! reused after it.
//!
//! # How long a cut lives
//!
//! A session's result is an `Arc<Vec<JoinTuple>>`, so a hit at a `k`
//! below the cached depth needs the first `k` rows as a vector of their
//! own — a *cut*. The entry builds a cut once and remembers it by a
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
//! the entry is replaced.

use std::sync::{Arc, Weak};

use rj_core::cursor::CursorState;
use rj_core::result::JoinTuple;

/// One backend's cached deepest completed answer.
#[derive(Clone, Debug)]
pub(crate) struct PrefixEntry {
    /// The `k` the cached execution was asked for.
    pub k: usize,
    /// The cached execution returned fewer than `k` rows, i.e. it
    /// enumerated the *entire* join — the answer then serves any `k`.
    pub exhausted: bool,
    /// The completed answer, rank-ordered.
    pub results: Arc<Vec<JoinTuple>>,
    /// The [`rj_core::SharedTableStats::version`] the execution read at.
    pub version: u64,
    /// The cuts handed out, by `k` ascending, each only as alive as its
    /// last holder (see the module docs). Every `k` here is below
    /// `results.len()`.
    cuts: Vec<(usize, Weak<Vec<JoinTuple>>)>,
}

impl PrefixEntry {
    /// Builds an entry from a completed execution at depth `k`.
    pub fn from_completed(k: usize, results: Arc<Vec<JoinTuple>>, version: u64) -> Self {
        PrefixEntry {
            k,
            exhausted: results.len() < k,
            results,
            version,
            cuts: Vec::new(),
        }
    }

    /// Whether this entry answers a fresh query at depth `k` under the
    /// backend's *current* statistics version.
    pub fn serves(&self, k: usize, current_version: u64) -> bool {
        self.version == current_version && (k <= self.k || self.exhausted)
    }

    /// The first `k` rows (everything, if the join has fewer results),
    /// and whether this call had to copy them. Full-depth requests alias
    /// the cached allocation; a shallower one shares the cut an earlier
    /// request at the same `k` was given while anything still holds it.
    pub fn prefix(&mut self, k: usize) -> (Arc<Vec<JoinTuple>>, bool) {
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

    /// Whether `candidate` should replace `current` as the cached entry:
    /// anything beats nothing, a current-version entry beats a stale one,
    /// and within the same version deeper answers win.
    pub fn improves_on(&self, current: Option<&PrefixEntry>, current_version: u64) -> bool {
        if self.version != current_version {
            return false;
        }
        match current {
            None => true,
            Some(entry) => entry.version != current_version || self.k > entry.k || self.exhausted,
        }
    }
}

/// A paused execution donated to the cache: the cursor state of an ISL
/// descent (stopped mid-flight, or completed at its target `k`), reusable
/// as a warm start for any later query on the same backend. It is shared,
/// never changed: a warm start re-targets its own copy.
#[derive(Clone, Debug)]
pub(crate) struct WarmEntry {
    /// The donated descent state; always [`CursorState::supports_retarget`].
    pub state: Arc<CursorState>,
    /// The [`rj_core::SharedTableStats::version`] the state is pinned to.
    pub version: u64,
    /// Input depth the donor consumed — deeper donors warm more.
    pub depth: u64,
}

impl WarmEntry {
    /// The entry a paused state donates under statistics `version`, if it
    /// can be re-targeted.
    pub fn donated(state: CursorState, version: u64) -> Option<Self> {
        state.supports_retarget().then(|| WarmEntry {
            depth: state.consumed_depth(),
            version,
            state: Arc::new(state),
        })
    }

    /// Whether `self` should replace `current`: same freshness rules as
    /// the completed side, and within the same version deeper descents
    /// win (they warm strictly more).
    pub fn improves_on(&self, current: Option<&WarmEntry>, current_version: u64) -> bool {
        if self.version != current_version {
            return false;
        }
        match current {
            None => true,
            Some(entry) => entry.version != current_version || self.depth > entry.depth,
        }
    }
}

/// One backend's cached reusable work: the deepest completed answer and
/// the deepest donated descent state. Either side may be empty; both are
/// version-guarded independently.
#[derive(Debug, Default)]
pub(crate) struct PartialWork {
    /// Deepest completed answer (serves shallower queries outright).
    pub completed: Option<PrefixEntry>,
    /// Deepest donated cursor state (warm-starts deeper queries).
    pub warm: Option<WarmEntry>,
}

impl PartialWork {
    /// Installs `entry` on the completed side if it improves the cache.
    pub fn offer_completed(&mut self, entry: PrefixEntry, current_version: u64) {
        if entry.improves_on(self.completed.as_ref(), current_version) {
            self.completed = Some(entry);
        }
    }

    /// Installs `entry` on the warm side if it improves the cache.
    pub fn offer_warm(&mut self, entry: WarmEntry, current_version: u64) {
        if entry.improves_on(self.warm.as_ref(), current_version) {
            self.warm = Some(entry);
        }
    }

    /// The warm entry, if it can warm a fresh query under the backend's
    /// current statistics version.
    pub fn usable_warm(&self, current_version: u64) -> Option<&WarmEntry> {
        self.warm.as_ref().filter(|w| w.version == current_version)
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

    fn entry(k: usize, rows: usize, version: u64) -> PrefixEntry {
        let results: Vec<JoinTuple> = (0..rows)
            .map(|i| tuple(1.0 - i as f64 * 0.01, i as u8))
            .collect();
        PrefixEntry::from_completed(k, Arc::new(results), version)
    }

    #[test]
    fn serves_shallower_k_at_same_version_only() {
        let e = entry(10, 10, 3);
        assert!(e.serves(10, 3));
        assert!(e.serves(1, 3));
        assert!(!e.serves(11, 3), "deeper than cached");
        assert!(!e.serves(5, 4), "version moved — never serve stale");
    }

    #[test]
    fn exhausted_answer_serves_any_depth() {
        // Asked for 100, got 7: the whole join is 7 rows.
        let mut e = entry(100, 7, 0);
        assert!(e.exhausted);
        assert!(e.serves(5000, 0));
        assert_eq!(e.prefix(5000).0.len(), 7);
    }

    #[test]
    fn prefix_is_the_leading_rows() {
        let mut e = entry(10, 10, 0);
        let (p, built) = e.prefix(3);
        assert!(built);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], e.results[0]);
        assert_eq!(p[2], e.results[2]);
        // Full-depth requests share the allocation instead of copying.
        let (full, built) = e.prefix(10);
        assert!(Arc::ptr_eq(&full, &e.results) && !built);
        assert_eq!(e.cuts.len(), 1, "a full-depth request takes no slot");
    }

    #[test]
    fn a_cut_is_shared_while_held_and_rebuilt_once_dropped() {
        let mut e = entry(10, 10, 0);
        let (first, built) = e.prefix(4);
        assert!(built);
        let (second, built) = e.prefix(4);
        assert!(!built, "the first holder keeps the cut alive");
        assert!(Arc::ptr_eq(&first, &second));
        // The entry holds nothing on its own account: the last holder
        // gone, the rows are gone, and the next request builds again —
        // into the slot it already had.
        let gone = Arc::downgrade(&first);
        drop((first, second));
        assert!(gone.upgrade().is_none());
        let (third, built) = e.prefix(4);
        assert!(built);
        assert_eq!(*third, e.results[..4]);
        assert_eq!(e.cuts.len(), 1);
    }

    #[test]
    fn slots_are_sorted_distinct_and_never_outnumber_the_rows() {
        let mut e = entry(12, 12, 0);
        let mut held = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 20) as usize;
            let (cut, _) = e.prefix(k);
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
        let mut work = PartialWork::default();
        work.offer_completed(entry(5, 5, 1), 1);
        let shallow = work.completed.as_mut().unwrap();
        let (held, _) = shallow.prefix(2);
        work.offer_completed(entry(9, 9, 1), 1);
        let deep = work.completed.as_mut().unwrap();
        assert_eq!(deep.k, 9);
        assert!(deep.cuts.is_empty());
        let (again, built) = deep.prefix(2);
        assert!(built && !Arc::ptr_eq(&held, &again));
    }

    #[test]
    fn replacement_prefers_fresh_then_deeper() {
        let shallow = entry(5, 5, 1);
        let deep = entry(9, 9, 1);
        let stale = entry(50, 50, 0);
        assert!(deep.improves_on(Some(&shallow), 1));
        assert!(!shallow.improves_on(Some(&deep), 1));
        assert!(shallow.improves_on(Some(&stale), 1), "fresh beats stale");
        assert!(!stale.improves_on(Some(&shallow), 1), "stale never enters");
        assert!(deep.improves_on(None, 1));
    }
}
