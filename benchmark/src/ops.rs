//! The five workloads and their seed-generated op sequences.
//!
//! A *trial* is one fixed op sequence. Its composition (how many ops of
//! each kind) is a constant of the code; `--seed` decides order, tenants
//! and keys. The run repeats the same trial until `--seconds` is up, so
//! both sides of any comparison do identical work and counters repeat
//! exactly for a given seed.

use std::hash::{Hash, Hasher};

use crate::rng::{Rng, Zipf};
use crate::seam::Q;

/// The workloads, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Deep ISL descents, a third of them paged through a cursor.
    IslDeep,
    /// `Auto`, which picks BFHM at these depths.
    BfhmAuto,
    /// The 3-way path on the N-ary spine.
    MultiwayPath,
    /// The serving layer with cross-query sharing.
    ServeShared,
    /// Maintained writes beside `Auto` reads.
    UpdateStream,
}

impl Workload {
    /// All five.
    pub const ALL: [Workload; 5] = [
        Workload::IslDeep,
        Workload::BfhmAuto,
        Workload::MultiwayPath,
        Workload::ServeShared,
        Workload::UpdateStream,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IslDeep => "isl_deep",
            Workload::BfhmAuto => "bfhm_auto",
            Workload::MultiwayPath => "multiway_path",
            Workload::ServeShared => "serve_shared",
            Workload::UpdateStream => "update_stream",
        }
    }

    /// Why the workload exists: which layer does the work, which do not.
    /// `BENCHMARK.json` carries the same line (a unit test compares them).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn why(self) -> &'static str {
        match self {
            Workload::IslDeep => {
                "ISL Q1/Q2 at k=10/50/200, a third paged: range scans, codec, HRJN/TopK and cursor replay do the work; sketches, planner and rj_serve idle"
            }
            Workload::BfhmAuto => {
                "Auto (picks BFHM) Q1/Q2 at k=1/10/50: point gets, blob decode, filter intersection and plan-cache lookups dominate; scans and HRJN near zero"
            }
            Workload::MultiwayPath => {
                "3-way path Part-Lineitem-Orders at k=1/10/25: only the N-ary spine runs, the pair the one-spine refactor must compare against isl_deep"
            }
            Workload::ServeShared => {
                "RankJoinService, 4 Zipf tenants in waves of 8, 99.9% prefix-cache hits or coalesced: rj_serve's lock, round and never-reaped session table are about half the time"
            }
            Workload::UpdateStream => {
                "bursts of 32 maintained inserts + 32 deletes then one Auto k=10 read on Q2: puts, index fan-out, stats deltas, re-collections, reads that pay for pending BFHM records"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One binary rank-join query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryOp {
    /// Which query.
    pub q: Q,
    /// Result size.
    pub k: usize,
    /// Page through a cursor (`next_batch(PAGE)` → `pause` → `resume`)
    /// instead of one `execute_with_k`.
    pub paged: bool,
}

/// One serving session of a wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionOp {
    /// Tenant index.
    pub tenant: usize,
    /// Backend.
    pub q: Q,
    /// Result size.
    pub k: usize,
    /// Submit as a paged session (page size [`PAGE`]).
    pub paged: bool,
}

/// One wave of eight virtual clients.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Wave {
    /// A maintained insert on this backend's lineitem side lands before
    /// the wave (bumping its statistics version, which invalidates the
    /// backend's prefix and warm caches).
    pub write_before: Option<Q>,
    /// The sessions, in submit order.
    pub sessions: [SessionOp; WAVE],
}

/// One op of the update stream. Scores travel as bits so ops hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamOp {
    /// Insert a new Orders row.
    InsertOrder {
        /// Order key (beyond the loaded range).
        key: u64,
        /// `f64::to_bits` of the score.
        score_bits: u64,
    },
    /// Insert a new Lineitem row.
    InsertLineitem {
        /// Order it belongs to.
        order: u64,
        /// Line number (beyond the loaded range).
        line: u32,
        /// Part it references.
        part: u64,
        /// `f64::to_bits` of the score.
        score_bits: u64,
    },
    /// Delete an Orders row inserted earlier in the trial.
    DeleteOrder {
        /// Order key.
        key: u64,
    },
    /// Delete a Lineitem row inserted earlier in the trial.
    DeleteLineitem {
        /// Order key.
        order: u64,
        /// Line number.
        line: u32,
    },
    /// An `Auto` read.
    Read {
        /// Result size.
        k: usize,
    },
}

/// A trial's op sequence.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Trial {
    /// `isl_deep` and `bfhm_auto`.
    Queries(Vec<QueryOp>),
    /// `multiway_path`: the `k` of each query.
    Multiway(Vec<usize>),
    /// `serve_shared`.
    Waves(Vec<Wave>),
    /// `update_stream`.
    Stream(Vec<StreamOp>),
}

/// Page size of paged queries and sessions.
pub const PAGE: usize = 10;
/// Virtual clients per serving wave.
pub const WAVE: usize = 8;
/// Serving tenants.
pub const TENANTS: usize = 4;
/// Waves between maintained inserts in `serve_shared`.
pub const WAVES_PER_WRITE: usize = 1000;
/// Inserts (and deletes) per `update_stream` burst.
pub const BURST: usize = 32;
/// New orders among a burst's inserts; each gets one of the burst's new
/// lineitems, the other lineitems join orders already loaded.
pub const BURST_ORDERS: usize = 4;
/// Result size of `update_stream` reads.
pub const STREAM_READ_K: usize = 10;

// Trial sizes: constants, not auto-calibrated. Sized on the reference
// machine (see README.md) so a trial takes 1–2 s.
const ISL_UNITS: usize = 3;
const BFHM_UNITS: usize = 600;
const MULTIWAY_UNITS: usize = 30;
const SERVE_WAVES: usize = 4000;
const STREAM_BURSTS: usize = 432;

/// `(k, copies per unit)` of `isl_deep`: the deep descents are the
/// point, the shallow ones keep a trial inside its time box.
const ISL_KS: [(usize, usize); 3] = [(10, 4), (50, 2), (200, 1)];
const BFHM_KS: [usize; 3] = [1, 10, 50];
const MULTIWAY_KS: [usize; 3] = [1, 10, 25];
const SERVE_KS: [usize; WAVE] = [1, 5, 10, 10, 20, 20, 50, 100];
/// One session in two thousand is paged (`k` = 20, page 10).
const SERVE_PAGED_EVERY: usize = 2000;
const SERVE_PAGED_K: usize = 20;

/// The largest `k` any op of `workload` asks for — how deep the
/// reference answers must go.
pub fn max_k(workload: Workload) -> usize {
    let max = |ks: &[usize]| ks.iter().copied().max().unwrap_or(1);
    match workload {
        Workload::IslDeep => ISL_KS.iter().map(|(k, _)| *k).max().unwrap_or(1),
        Workload::BfhmAuto => max(&BFHM_KS),
        Workload::MultiwayPath => max(&MULTIWAY_KS),
        Workload::ServeShared => max(&SERVE_KS),
        Workload::UpdateStream => STREAM_READ_K,
    }
}

/// Key ranges of the loaded data the generators draw from.
#[derive(Clone, Copy, Debug)]
pub struct DataShape {
    /// Loaded Part rows (keys `1..=parts`).
    pub parts: u64,
    /// Loaded Orders rows (keys `1..=orders`).
    pub orders: u64,
}

/// First line number the stream gives its own lineitems (loaded orders
/// carry lines 1–7).
const STREAM_FIRST_LINE: u32 = 1000;

/// `n` scores on an even grid over `(0.01, 1.0)`, in seeded order. Every
/// seed inserts the same *set* of scores — so the same number of update
/// records lands in every BFHM bucket over a trial — and only the order
/// (and which rows they pair with) changes.
fn score_grid(n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut scores: Vec<u64> = (0..n)
        .map(|i| (0.01 + 0.99 * (i as f64 + 0.5) / n as f64).to_bits())
        .collect();
    rng.shuffle(&mut scores);
    scores
}

/// Generates `workload`'s trial for `seed`.
pub fn generate(workload: Workload, seed: u64, shape: DataShape) -> Trial {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    match workload {
        Workload::IslDeep => {
            // Every (query, k) cell appears paged once in three, so the
            // trial's composition does not depend on the seed.
            let mut ops = Vec::new();
            for _ in 0..ISL_UNITS {
                for q in Q::BOTH {
                    for (k, copies) in ISL_KS {
                        for c in 0..copies * 3 {
                            ops.push(QueryOp {
                                q,
                                k,
                                paged: c % 3 == 2,
                            });
                        }
                    }
                }
            }
            rng.shuffle(&mut ops);
            Trial::Queries(ops)
        }
        Workload::BfhmAuto => {
            let mut ops = Vec::new();
            for _ in 0..BFHM_UNITS {
                for q in Q::BOTH {
                    for k in BFHM_KS {
                        ops.push(QueryOp { q, k, paged: false });
                    }
                }
            }
            rng.shuffle(&mut ops);
            Trial::Queries(ops)
        }
        Workload::MultiwayPath => {
            let mut ks: Vec<usize> = (0..MULTIWAY_UNITS).flat_map(|_| MULTIWAY_KS).collect();
            rng.shuffle(&mut ks);
            Trial::Multiway(ks)
        }
        Workload::ServeShared => {
            let zipf = Zipf::new(TENANTS, 1.1);
            let sessions = SERVE_WAVES * WAVE;
            // A fixed number of sessions page: pick their waves.
            let mut paged_waves: Vec<usize> = (0..SERVE_WAVES).collect();
            rng.shuffle(&mut paged_waves);
            paged_waves.truncate(sessions / SERVE_PAGED_EVERY);
            paged_waves.sort_unstable();
            let mut writes = 0usize;
            let mut paged_so_far = 0usize;
            let waves = (0..SERVE_WAVES)
                .map(|w| {
                    // Which (backend, k) pairs a wave holds is fixed —
                    // the k's alternate between the backends and swap
                    // sides every wave — so how deep each backend must
                    // execute after an invalidation does not depend on
                    // the seed. The seed picks tenants, submit order and
                    // which waves carry a paged session.
                    let mut sessions: [SessionOp; WAVE] = std::array::from_fn(|i| SessionOp {
                        tenant: zipf.sample(&mut rng),
                        q: Q::BOTH[(i + w) % 2],
                        k: SERVE_KS[i],
                        paged: false,
                    });
                    if paged_waves.binary_search(&w).is_ok() {
                        let q = Q::BOTH[paged_so_far % 2];
                        paged_so_far += 1;
                        if let Some(s) = sessions
                            .iter_mut()
                            .find(|s| s.k == SERVE_PAGED_K && s.q == q)
                        {
                            s.paged = true;
                        }
                    }
                    rng.shuffle(&mut sessions);
                    let write_before = (w % WAVES_PER_WRITE == WAVES_PER_WRITE / 2).then(|| {
                        writes += 1;
                        Q::BOTH[writes % 2]
                    });
                    Wave {
                        write_before,
                        sessions,
                    }
                })
                .collect();
            Trial::Waves(waves)
        }
        Workload::UpdateStream => {
            let mut ops = Vec::new();
            let mut next_order = shape.orders + 1;
            let mut next_line = STREAM_FIRST_LINE;
            let mut live: Vec<StreamOp> = Vec::new();
            let mut order_scores = score_grid(STREAM_BURSTS * BURST_ORDERS, &mut rng);
            let mut line_scores = score_grid(STREAM_BURSTS * (BURST - BURST_ORDERS), &mut rng);
            let next_score = |scores: &mut Vec<u64>| scores.pop().unwrap_or(0.5f64.to_bits());
            for _ in 0..STREAM_BURSTS {
                let mut burst = Vec::with_capacity(BURST);
                for i in 0..BURST {
                    if i < BURST_ORDERS {
                        burst.push(StreamOp::InsertOrder {
                            key: next_order + i as u64,
                            score_bits: next_score(&mut order_scores),
                        });
                    } else {
                        // The first few lineitems join this burst's new
                        // orders, the rest join loaded ones.
                        let order = if i < 2 * BURST_ORDERS {
                            next_order + (i - BURST_ORDERS) as u64
                        } else {
                            1 + rng.below(shape.orders)
                        };
                        burst.push(StreamOp::InsertLineitem {
                            order,
                            line: next_line,
                            part: 1 + rng.below(shape.parts),
                            score_bits: next_score(&mut line_scores),
                        });
                        next_line += 1;
                    }
                }
                next_order += BURST_ORDERS as u64;
                // Orders first, so their lineitems find them; the read
                // then sees this burst's rows live and the previous
                // burst's freshly deleted.
                ops.extend(burst.iter().copied());
                ops.extend(live.drain(..).map(delete_of));
                ops.push(StreamOp::Read { k: STREAM_READ_K });
                live = burst;
            }
            // Every inserted row is deleted within the trial, so trials
            // are exchangeable.
            ops.extend(live.drain(..).map(delete_of));
            ops.push(StreamOp::Read { k: STREAM_READ_K });
            Trial::Stream(ops)
        }
    }
}

fn delete_of(insert: StreamOp) -> StreamOp {
    match insert {
        StreamOp::InsertOrder { key, .. } => StreamOp::DeleteOrder { key },
        StreamOp::InsertLineitem { order, line, .. } => StreamOp::DeleteLineitem { order, line },
        other => other,
    }
}

impl Trial {
    /// Client operations in the trial (a serving session is one op).
    pub fn ops(&self) -> usize {
        match self {
            Trial::Queries(ops) => ops.len(),
            Trial::Multiway(ks) => ks.len(),
            Trial::Waves(waves) => waves.len() * WAVE,
            Trial::Stream(ops) => ops.len(),
        }
    }

    /// FNV-1a over the op sequence: equal seeds give equal fingerprints,
    /// and it is recorded in every result so a comparison can tell that
    /// both sides ran the same ops.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        self.hash(&mut h);
        h.finish()
    }

    /// The first `n` ops (whole waves / whole bursts, so the prefix is a
    /// well-formed trial of its own). Used by the traced layer tour.
    pub fn prefix(&self, n: usize) -> Trial {
        match self {
            Trial::Queries(ops) => Trial::Queries(ops[..n.min(ops.len())].to_vec()),
            Trial::Multiway(ks) => Trial::Multiway(ks[..n.min(ks.len())].to_vec()),
            Trial::Waves(waves) => {
                let mut waves = waves[..n.div_ceil(WAVE).min(waves.len())].to_vec();
                // So few sessions rarely include a paged one; the tour
                // needs `next_page` exercised, so page the first that can.
                let paged = waves.iter().flat_map(|w| &w.sessions).any(|s| s.paged);
                if let (false, Some(s)) = (
                    paged,
                    waves
                        .iter_mut()
                        .flat_map(|w| &mut w.sessions)
                        .find(|s| s.k == SERVE_PAGED_K),
                ) {
                    s.paged = true;
                }
                Trial::Waves(waves)
            }
            Trial::Stream(ops) => {
                // Cut after a read, then delete what is still live.
                let cut = ops
                    .iter()
                    .enumerate()
                    .find(|(i, op)| *i + 1 >= n && matches!(op, StreamOp::Read { .. }))
                    .map_or(ops.len(), |(i, _)| i + 1);
                let mut out = ops[..cut].to_vec();
                let deleted: Vec<StreamOp> = out
                    .iter()
                    .filter(|op| **op == delete_of(**op))
                    .copied()
                    .collect();
                let live: Vec<StreamOp> = out
                    .iter()
                    .map(|op| delete_of(*op))
                    .filter(|d| !matches!(d, StreamOp::Read { .. }) && !deleted.contains(d))
                    .collect();
                if !live.is_empty() {
                    out.extend(live);
                    out.push(StreamOp::Read { k: STREAM_READ_K });
                }
                Trial::Stream(out)
            }
        }
    }
}

struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: DataShape = DataShape {
        parts: 2000,
        orders: 15_000,
    };

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in Workload::ALL {
            let a = generate(w, 1, SHAPE);
            let b = generate(w, 1, SHAPE);
            let c = generate(w, 2, SHAPE);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
            assert_eq!(
                a.ops(),
                c.ops(),
                "{}: op count is seed-independent",
                w.name()
            );
        }
    }

    #[test]
    fn isl_trial_composition_is_fixed() {
        let Trial::Queries(ops) = generate(Workload::IslDeep, 5, SHAPE) else {
            panic!("isl_deep is a query trial");
        };
        assert_eq!(ops.iter().filter(|o| o.paged).count() * 3, ops.len());
        for q in Q::BOTH {
            for (k, copies) in ISL_KS {
                let n = ops.iter().filter(|o| o.q == q && o.k == k).count();
                assert_eq!(n, copies * 3 * ISL_UNITS);
            }
        }
    }

    #[test]
    fn serve_pages_and_writes_at_their_fixed_rates() {
        let Trial::Waves(waves) = generate(Workload::ServeShared, 9, SHAPE) else {
            panic!("serve_shared is a wave trial");
        };
        let paged: Vec<&SessionOp> = waves
            .iter()
            .flat_map(|w| &w.sessions)
            .filter(|s| s.paged)
            .collect();
        assert_eq!(paged.len(), SERVE_WAVES * WAVE / SERVE_PAGED_EVERY);
        assert!(paged.iter().all(|s| s.k == SERVE_PAGED_K));
        let writes = waves.iter().filter(|w| w.write_before.is_some()).count();
        assert_eq!(writes, SERVE_WAVES / WAVES_PER_WRITE);
        for w in &waves {
            let mut ks = w.sessions.map(|s| s.k);
            ks.sort_unstable();
            assert_eq!(ks, SERVE_KS);
        }
    }

    #[test]
    fn stream_deletes_everything_it_inserts() {
        let trial = generate(Workload::UpdateStream, 3, SHAPE);
        for t in [trial.prefix(150), trial] {
            let Trial::Stream(ops) = t else {
                panic!("update_stream is a stream trial");
            };
            let mut live = std::collections::BTreeSet::new();
            for op in &ops {
                match *op {
                    StreamOp::InsertOrder { key, .. } => assert!(live.insert((key, 0))),
                    StreamOp::InsertLineitem { order, line, .. } => {
                        assert!(live.insert((order, line)))
                    }
                    StreamOp::DeleteOrder { key } => assert!(live.remove(&(key, 0))),
                    StreamOp::DeleteLineitem { order, line } => {
                        assert!(live.remove(&(order, line)))
                    }
                    StreamOp::Read { .. } => {}
                }
            }
            assert!(live.is_empty());
            assert!(matches!(ops.last(), Some(StreamOp::Read { .. })));
        }
    }
}
