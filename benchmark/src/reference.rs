//! The benchmark's own reference join and the per-op answer check.
//!
//! Expected answers are built during set-up by scanning the base tables
//! through `Client`, hash-joining them here, and sorting by
//! `JoinTuple::rank_cmp` — independent of every index and algorithm
//! under test. A top-`k` answer is a prefix of the top-`k′` answer, so
//! one sorted list per query serves every `k`.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use crate::seam::{self, Base, BaseRow, JoinTuple, Res, Store, Q};

/// A result tuple under the workspace's total rank order.
#[derive(Clone, Debug)]
pub struct Ranked(pub JoinTuple);

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        seam::rank_cmp(&self.0, &other.0)
    }
}

fn pair(q: Q, left: &BaseRow, right: &BaseRow, join_value: &[u8]) -> JoinTuple {
    JoinTuple {
        left_key: left.key.clone(),
        right_key: right.key.clone(),
        join_value: join_value.to_vec(),
        left_score: left.score,
        right_score: right.score,
        inner: Vec::new(),
        score: q.combine(left.score, right.score),
    }
}

fn by_join(rows: &[BaseRow], col: usize) -> HashMap<&[u8], Vec<&BaseRow>> {
    let mut map: HashMap<&[u8], Vec<&BaseRow>> = HashMap::new();
    for r in rows {
        map.entry(r.joins[col].as_slice()).or_default().push(r);
    }
    map
}

/// Sorts by rank and keeps the top `max_k` plus everything tied with the
/// `max_k`-th score (any of those may legitimately fill the last ranks).
fn keep_top(mut all: Vec<JoinTuple>, max_k: usize) -> Vec<JoinTuple> {
    all.sort_unstable_by(seam::rank_cmp);
    if let Some(boundary) = all.get(max_k.saturating_sub(1)).map(|t| t.score) {
        let keep = all.partition_point(|t| t.score >= boundary);
        all.truncate(keep);
    }
    all
}

/// The expected answer of a query over data that does not change: the
/// rank-ordered join results down to the deepest `k` any op asks for.
pub struct Expected {
    sorted: Vec<JoinTuple>,
}

impl Expected {
    /// Reference answer of binary query `q`.
    pub fn binary(store: &Store, q: Q, max_k: usize) -> Res<Expected> {
        let left = store.scan_base(sides(q).0)?;
        let right = store.scan_base(Base::Lineitem)?;
        Ok(Expected {
            sorted: keep_top(join(q, &left, &right), max_k),
        })
    }

    /// Reference answer of the 3-way path Part ⋈ Lineitem ⋈ Orders, sum
    /// of the three scores.
    pub fn multiway(store: &Store, max_k: usize) -> Res<Expected> {
        let parts = store.scan_base(Base::Part)?;
        let orders = store.scan_base(Base::Orders)?;
        let lineitems = store.scan_base(Base::Lineitem)?;
        let part_by_key = by_join(&parts, 0);
        let order_by_key = by_join(&orders, 0);
        let mut all = Vec::new();
        for l in &lineitems {
            let ps = part_by_key.get(l.joins[0].as_slice());
            let os = order_by_key.get(l.joins[1].as_slice());
            for p in ps.into_iter().flatten() {
                for o in os.into_iter().flatten() {
                    all.push(JoinTuple {
                        left_key: p.key.clone(),
                        right_key: o.key.clone(),
                        join_value: l.joins[0].clone(),
                        left_score: p.score,
                        right_score: o.score,
                        inner: vec![(l.key.clone(), l.score)],
                        // Sum folds left to right over the sides.
                        score: (p.score + l.score) + o.score,
                    });
                }
            }
        }
        Ok(Expected {
            sorted: keep_top(all, max_k),
        })
    }

    /// Checks a top-`k` answer.
    pub fn check(&self, got: &[JoinTuple], k: usize) -> bool {
        check(got, k, self.sorted.iter())
    }
}

/// Which base table is `q`'s left side, and which of Lineitem's join
/// columns meets it.
fn sides(q: Q) -> (Base, usize) {
    match q {
        Q::Q1 => (Base::Part, 0),
        Q::Q2 => (Base::Orders, 1),
    }
}

/// Every result of `q` over the given base rows (`right` is Lineitem).
fn join(q: Q, left: &[BaseRow], right: &[BaseRow]) -> Vec<JoinTuple> {
    let (_, right_col) = sides(q);
    let left_by_key = by_join(left, 0);
    let mut all = Vec::with_capacity(right.len());
    for r in right {
        let jv = r.joins[right_col].as_slice();
        for l in left_by_key.get(jv).into_iter().flatten() {
            all.push(pair(q, l, r, jv));
        }
    }
    all
}

/// The expected answer of Q2 while `update_stream` mutates both of its
/// sides: the full result set, refreshed incrementally from the writes
/// the workload applies.
pub struct LiveExpected {
    orders: HashMap<Vec<u8>, BaseRow>,
    lineitems_of: HashMap<Vec<u8>, Vec<BaseRow>>,
    results: BTreeSet<Ranked>,
}

impl LiveExpected {
    /// Builds the full Q2 result set from the base tables.
    pub fn q2(store: &Store) -> Res<LiveExpected> {
        let orders = store.scan_base(Base::Orders)?;
        let lineitems = store.scan_base(Base::Lineitem)?;
        let results = join(Q::Q2, &orders, &lineitems)
            .into_iter()
            .map(Ranked)
            .collect();
        let mut lineitems_of: HashMap<Vec<u8>, Vec<BaseRow>> = HashMap::new();
        for l in lineitems {
            lineitems_of.entry(l.joins[1].clone()).or_default().push(l);
        }
        Ok(LiveExpected {
            orders: orders.into_iter().map(|o| (o.key.clone(), o)).collect(),
            lineitems_of,
            results,
        })
    }

    /// Applies an Orders insert.
    pub fn insert_order(&mut self, key: Vec<u8>, score: f64) {
        let order = BaseRow {
            key: key.clone(),
            joins: vec![key.clone()],
            score,
        };
        for l in self.lineitems_of.get(&key).into_iter().flatten() {
            self.results.insert(Ranked(pair(Q::Q2, &order, l, &key)));
        }
        self.orders.insert(key, order);
    }

    /// Applies an Orders delete.
    pub fn delete_order(&mut self, key: &[u8]) {
        if let Some(order) = self.orders.remove(key) {
            for l in self.lineitems_of.get(key).into_iter().flatten() {
                self.results.remove(&Ranked(pair(Q::Q2, &order, l, key)));
            }
        }
    }

    /// Applies a Lineitem insert under `order_key`.
    pub fn insert_lineitem(&mut self, key: Vec<u8>, order_key: Vec<u8>, score: f64) {
        let line = BaseRow {
            key,
            joins: vec![Vec::new(), order_key.clone()],
            score,
        };
        if let Some(order) = self.orders.get(&order_key) {
            self.results
                .insert(Ranked(pair(Q::Q2, order, &line, &order_key)));
        }
        self.lineitems_of.entry(order_key).or_default().push(line);
    }

    /// Applies a Lineitem delete.
    pub fn delete_lineitem(&mut self, key: &[u8], order_key: &[u8]) {
        let Some(lines) = self.lineitems_of.get_mut(order_key) else {
            return;
        };
        let Some(at) = lines.iter().position(|l| l.key == key) else {
            return;
        };
        let line = lines.swap_remove(at);
        if let Some(order) = self.orders.get(order_key) {
            self.results
                .remove(&Ranked(pair(Q::Q2, order, &line, order_key)));
        }
    }

    /// Checks a top-`k` answer against the current result set.
    pub fn check(&self, got: &[JoinTuple], k: usize) -> bool {
        check(got, k, self.results.iter().map(|r| &r.0))
    }
}

fn same_tuple(a: &JoinTuple, b: &JoinTuple) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.left_key == b.left_key
        && a.right_key == b.right_key
        && a.inner.len() == b.inner.len()
        && a.inner.iter().zip(&b.inner).all(|(x, y)| x.0 == y.0)
}

/// Rank-equivalence, as `tests/cross_algorithm.rs` defines it: the score
/// sequence must match the reference exactly; tuples above the `k`-th
/// score must be the reference's tuples; tuples *at* the `k`-th score
/// are interchangeable, but each must be a genuine join result and none
/// may repeat. `expected` yields the reference in rank order.
pub fn check<'a>(
    got: &[JoinTuple],
    k: usize,
    expected: impl Iterator<Item = &'a JoinTuple> + Clone,
) -> bool {
    let want = expected.clone().take(k);
    if got.len() != want.clone().count() {
        return false;
    }
    let Some(boundary) = want.clone().last().map(|t| t.score) else {
        return true;
    };
    // Strictly increasing in rank order: sorted, and no tuple twice.
    if got
        .windows(2)
        .any(|w| seam::rank_cmp(&w[0], &w[1]) != Ordering::Less)
    {
        return false;
    }
    got.iter().zip(want).all(|(g, w)| {
        if g.score.to_bits() != w.score.to_bits() {
            false
        } else if w.score > boundary {
            same_tuple(g, w)
        } else {
            expected
                .clone()
                .skip_while(|t| t.score > boundary)
                .take_while(|t| t.score == boundary)
                .any(|t| same_tuple(g, t))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(left: u8, right: u8, score: f64) -> JoinTuple {
        JoinTuple {
            left_key: vec![left],
            right_key: vec![right],
            join_value: vec![0],
            left_score: score,
            right_score: 0.0,
            inner: Vec::new(),
            score,
        }
    }

    #[test]
    fn exact_prefix_passes_and_wrong_answers_fail() {
        let reference = keep_top(
            vec![t(1, 1, 0.9), t(2, 2, 0.8), t(3, 3, 0.7), t(4, 4, 0.6)],
            3,
        );
        assert_eq!(reference.len(), 3);
        let ok = |got: &[JoinTuple], k| check(got, k, reference.iter());
        assert!(ok(&reference[..2], 2));
        assert!(ok(&reference, 3));
        assert!(ok(&reference, 5), "fewer results than k is the full answer");
        assert!(!ok(&reference[..1], 2), "short answer");
        assert!(!ok(&[t(1, 1, 0.9), t(3, 3, 0.7)], 2), "wrong score");
        assert!(
            !ok(&[t(1, 1, 0.9), t(9, 9, 0.8)], 2),
            "boundary tuple not a join result"
        );
        assert!(!ok(&[t(2, 2, 0.8), t(1, 1, 0.9)], 2), "out of order");
        assert!(ok(&[], 0));
    }

    #[test]
    fn ties_at_the_boundary_are_interchangeable() {
        let reference = keep_top(
            vec![
                t(1, 1, 0.9),
                t(2, 2, 0.5),
                t(3, 3, 0.5),
                t(4, 4, 0.5),
                t(5, 5, 0.1),
            ],
            2,
        );
        assert_eq!(reference.len(), 4, "the whole tie group is kept");
        let ok = |got: &[JoinTuple], k| check(got, k, reference.iter());
        assert!(ok(&[t(1, 1, 0.9), t(2, 2, 0.5)], 2));
        assert!(
            ok(&[t(1, 1, 0.9), t(4, 4, 0.5)], 2),
            "another member of the tie"
        );
        assert!(!ok(&[t(1, 1, 0.9), t(5, 5, 0.5)], 2), "not a member");
        assert!(!ok(&[t(4, 4, 0.5), t(4, 4, 0.5)], 2), "repeats");
        assert!(
            !ok(&[t(7, 7, 0.9), t(2, 2, 0.5)], 2),
            "above-boundary tuple must match"
        );
    }
}
