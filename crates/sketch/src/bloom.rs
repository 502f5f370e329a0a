//! Bloom filters: the single-hash variant the BFHM is built on, and a
//! classic k-hash variant kept for ablation studies.
//!
//! The paper deliberately uses **one** hash function per BFHM bucket filter
//! (§5.1): with a single function, each inserted join value owns exactly one
//! bit position, so set positions can be reverse-mapped to join values via
//! the `bucket|bitpos` rows — impossible with k > 1 where positions are
//! shared between functions. The price is a higher false-positive rate at
//! equal `m`, which the paper counters by (a) sizing `m` for the most
//! populated bucket at a target FPP and (b) Golomb-compressing the sparse
//! bitmap so large `m` stays cheap.

use crate::bitvec::BitVec;
use crate::hash::{hash_bytes, reduce};

/// Seed namespace for the single BFHM hash function. Fixed: bit positions
/// are part of the persisted index layout.
const BFHM_SEED: u64 = 0x5eed_0001;

/// A Bloom filter with a single hash function.
#[derive(Clone, Debug, PartialEq)]
pub struct SingleHashBloom {
    bits: BitVec,
    /// Number of insert operations (not distinct items).
    n_inserted: u64,
}

impl SingleHashBloom {
    /// Creates a filter with `m` bits.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "Bloom filter needs at least one bit");
        SingleHashBloom {
            bits: BitVec::new(m),
            n_inserted: 0,
        }
    }

    /// Sizes `m` so that after `n` insertions the false-positive probability
    /// is at most `fpp`. For a single hash function `FPP = 1 - (1 - 1/m)^n ≈
    /// n/m` for small FPP, so `m = ceil(n / fpp)`.
    ///
    /// This mirrors the paper's configuration: "All Bloom filters were
    /// configured to contain the most heavily populated of the buckets with
    /// a false positive probability of 5%" (§7.1).
    pub fn with_capacity_fpp(n: usize, fpp: f64) -> Self {
        assert!(fpp > 0.0 && fpp < 1.0, "fpp must be in (0,1)");
        let m = ((n.max(1) as f64) / fpp).ceil() as usize;
        Self::new(m.max(8))
    }

    /// The bit position `h(item)` this filter assigns to `item`.
    #[inline]
    pub fn position(&self, item: &[u8]) -> usize {
        Self::position_in(self.bits.len(), item)
    }

    /// The bit position an `m`-bit single-hash filter assigns to `item` —
    /// the persisted-layout mapping, usable without a filter instance
    /// (the §6 online maintainers compute reverse-row keys this way).
    #[inline]
    pub fn position_in(m: usize, item: &[u8]) -> usize {
        reduce(hash_bytes(BFHM_SEED, item), m)
    }

    /// Inserts `item`, returning its bit position (Algorithm 5 line 12
    /// records this to emit the reverse-mapping row).
    pub fn insert(&mut self, item: &[u8]) -> usize {
        let pos = self.position(item);
        self.bits.set(pos);
        self.n_inserted += 1;
        pos
    }

    /// Membership test (no false negatives).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.bits.get(self.position(item))
    }

    /// Filter size in bits (`m`).
    pub fn m(&self) -> usize {
        self.bits.len()
    }

    /// Number of insertions performed (`n` in the paper's `PT` formula).
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// The probability that a given bit is set after `n` insertions:
    /// `PT = 1 - (1 - 1/m)^n ≈ 1 - e^(-n/m)` (paper §5.3, k = 1).
    ///
    /// Used to compute the α join-size compensation factor.
    pub fn pt(&self) -> f64 {
        let m = self.bits.len() as f64;
        1.0 - (-(self.n_inserted as f64) / m).exp()
    }
}

/// A conventional Bloom filter with `k` hash functions.
///
/// Not used by the BFHM (its positions cannot be reverse-mapped); retained
/// to quantify, in the ablation benches, what the single-hash choice costs
/// in false-positive rate at equal space.
#[derive(Clone, Debug)]
pub struct ClassicBloom {
    bits: BitVec,
    k: u32,
    n_inserted: u64,
}

impl ClassicBloom {
    /// Creates a filter with `m` bits and `k` hash functions.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0);
        ClassicBloom {
            bits: BitVec::new(m),
            k,
            n_inserted: 0,
        }
    }

    /// Sizes the filter optimally for `n` items at false-positive rate
    /// `fpp`: `m = -n ln fpp / (ln 2)^2`, `k = (m/n) ln 2`.
    pub fn with_capacity_fpp(n: usize, fpp: f64) -> Self {
        assert!(fpp > 0.0 && fpp < 1.0);
        let n = n.max(1) as f64;
        let m = (-n * fpp.ln() / (std::f64::consts::LN_2.powi(2))).ceil() as usize;
        let k = ((m as f64 / n) * std::f64::consts::LN_2).round().max(1.0) as u32;
        Self::new(m.max(8), k)
    }

    fn positions<'a>(&'a self, item: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
        // Kirsch-Mitzenmacher double hashing: h_i = h1 + i*h2.
        let h1 = hash_bytes(0x5eed_1001, item);
        let h2 = hash_bytes(0x5eed_1002, item) | 1;
        let m = self.bits.len();
        (0..self.k as u64).map(move |i| reduce(h1.wrapping_add(i.wrapping_mul(h2)), m))
    }

    /// Inserts `item`.
    pub fn insert(&mut self, item: &[u8]) {
        let m = self.bits.len();
        let _ = m;
        let positions: Vec<usize> = self.positions(item).collect();
        for p in positions {
            self.bits.set(p);
        }
        self.n_inserted += 1;
    }

    /// Membership test (no false negatives).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.positions(item).all(|p| self.bits.get(p))
    }

    /// Filter size in bits.
    pub fn m(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hash_no_false_negatives() {
        let mut f = SingleHashBloom::new(1024);
        for i in 0..100u64 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..100u64 {
            assert!(f.contains(&i.to_be_bytes()));
        }
    }

    #[test]
    fn insert_returns_stable_position() {
        let mut f = SingleHashBloom::new(4096);
        let p1 = f.insert(b"join-value-a");
        let p2 = f.position(b"join-value-a");
        assert_eq!(p1, p2);
        let g = SingleHashBloom::new(4096);
        assert_eq!(g.position(b"join-value-a"), p1, "position is per-m stable");
    }

    #[test]
    fn capacity_sizing_hits_target_fpp() {
        let n = 1000;
        let mut f = SingleHashBloom::with_capacity_fpp(n, 0.05);
        for i in 0..n as u64 {
            f.insert(&i.to_be_bytes());
        }
        // Probe 10_000 absent items; FPP should be near 5%.
        let fp = (0..10_000u64)
            .filter(|i| f.contains(&(i + 1_000_000).to_be_bytes()))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.08, "observed FPP {rate} exceeds budget");
    }

    #[test]
    fn pt_matches_closed_form() {
        let mut f = SingleHashBloom::new(1000);
        for i in 0..500u64 {
            f.insert(&i.to_be_bytes());
        }
        let expected = 1.0 - (-0.5f64).exp();
        assert!((f.pt() - expected).abs() < 1e-12);
    }

    #[test]
    fn pt_is_zero_when_empty() {
        assert_eq!(SingleHashBloom::new(64).pt(), 0.0);
    }

    #[test]
    fn classic_no_false_negatives() {
        let mut f = ClassicBloom::with_capacity_fpp(500, 0.01);
        for i in 0..500u64 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..500u64 {
            assert!(f.contains(&i.to_be_bytes()));
        }
    }

    #[test]
    fn classic_fpp_near_target() {
        let mut f = ClassicBloom::with_capacity_fpp(2000, 0.01);
        for i in 0..2000u64 {
            f.insert(&i.to_be_bytes());
        }
        let fp = (0..20_000u64)
            .filter(|i| f.contains(&(i + 10_000_000).to_be_bytes()))
            .count();
        let rate = fp as f64 / 20_000.0;
        assert!(rate < 0.03, "observed FPP {rate} far above 1% target");
    }

    #[test]
    fn classic_beats_single_hash_at_equal_space() {
        // The ablation claim: at equal m/n, k-hash filters have lower FPP;
        // the BFHM pays this premium to keep positions reverse-mappable.
        let n = 1000u64;
        let m = 8000;
        let mut single = SingleHashBloom::new(m);
        let mut classic = ClassicBloom::new(m, 6);
        for i in 0..n {
            single.insert(&i.to_be_bytes());
            classic.insert(&i.to_be_bytes());
        }
        let probe = |f: &dyn Fn(&[u8]) -> bool| {
            (0..20_000u64)
                .filter(|i| f(&((i + 1) << 40).to_be_bytes()))
                .count()
        };
        let fp_single = probe(&|b| single.contains(b));
        let fp_classic = probe(&|b| classic.contains(b));
        assert!(
            fp_classic < fp_single,
            "classic ({fp_classic}) should beat single-hash ({fp_single})"
        );
    }
}
