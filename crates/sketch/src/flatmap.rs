//! A flat, cache-friendly multimap from byte-string keys to value groups.
//!
//! The rank-join hot loops — HRJN's seen-tuple join (every pulled tuple
//! probes the other side's seen set) and BFHM's reverse-row cache — were
//! built on `HashMap<Vec<u8>, Vec<V>>`: every key a separate heap
//! allocation, every value group another, and SipHash on top. This module
//! replaces that with the layout of SNIPPETS.md's cluster map (and of
//! classic open-addressing literature): **one contiguous allocation per
//! column**, an open-addressed slot table using the Knuth multiplicative
//! hash, keys interned into a shared byte arena, and values in one flat
//! array grouped per key.
//!
//! Two construction regimes share the same probe and iteration code:
//!
//! * **incremental** ([`FlatMultiMap::push`]) — value groups are linked
//!   lists threaded through the flat value array (`next` indices), append
//!   order preserved. This is what a streaming consumer like HRJN needs.
//! * **two-pass** ([`FlatMultiMap::from_pairs`]) — count group sizes,
//!   prefix-sum them into offsets, then place every value into its final
//!   position: each group ends up *contiguous* in the value array (the
//!   `next` links simply point one step right), so bulk probes walk
//!   sequential memory.
//!
//! Determinism: hashing is [`crate::hash::hash_bytes`] (stable across
//! platforms and releases) finished with Knuth's multiplicative constant;
//! iteration order of a group is insertion order; [`FlatMultiMap::values`]
//! exposes the backing array directly so whole-map sweeps (histograms,
//! spills) are a linear scan.

use crate::hash::hash_bytes;

/// Sentinel for "no entry" in the slot table and "end of group" in links.
const NIL: u32 = u32::MAX;

/// Fixed seed: the map is in-memory only, so the seed needs determinism,
/// not unpredictability.
const SEED: u64 = 0x666c_6174_6d61_7000; // "flatmap\0"

/// Knuth's multiplicative hashing constant (⌊2^32/φ⌋, odd).
const KNUTH: u32 = 2_654_435_761;

/// Narrows a length/count to the map's `u32` index width, panicking on
/// overflow ([`NIL`] is reserved as a sentinel) instead of silently
/// truncating into a corrupted map (wrong group membership).
#[inline]
fn idx32(n: usize, what: &str) -> u32 {
    assert!(n < NIL as usize, "FlatMultiMap {what} overflows u32: {n}");
    n as u32
}

/// A multimap `[u8] → group of V` in flat storage. See the module docs.
///
/// `V` is expected to be small and `Copy` (indices, packed ids, scores);
/// groups preserve insertion order.
#[derive(Clone, Debug)]
pub struct FlatMultiMap<V> {
    /// Open-addressed table: slot → entry index, [`NIL`] when empty.
    /// Length is a power of two, load factor kept ≤ 1/2.
    slots: Vec<u32>,
    /// `32 - log2(slots.len())`: the Knuth multiplicative shift.
    shift: u32,
    /// Per-entry cached digest (avoids re-hashing keys on growth and
    /// short-circuits probe comparisons).
    hashes: Vec<u64>,
    /// Per-entry key span: `key_offsets[e]..key_offsets[e+1]` in the arena.
    key_offsets: Vec<u32>,
    /// All keys, back to back.
    key_arena: Vec<u8>,
    /// Per-entry first/last value index into `values`, [`NIL`] when empty.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// All values, in one flat array.
    values: Vec<V>,
    /// Successor of `values[i]` within its group, [`NIL`] at group end.
    next: Vec<u32>,
}

impl<V> Default for FlatMultiMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatMultiMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty map pre-sized for `keys` distinct keys and `values` total
    /// values.
    pub fn with_capacity(keys: usize, values: usize) -> Self {
        // Smallest power of two holding `keys` at ≤ 1/2 load, minimum 8.
        let table = (keys.max(1) * 2).next_power_of_two().max(8);
        FlatMultiMap {
            slots: vec![NIL; table],
            shift: 32 - table.trailing_zeros(),
            hashes: Vec::with_capacity(keys),
            key_offsets: vec![0],
            key_arena: Vec::new(),
            heads: Vec::with_capacity(keys),
            tails: Vec::with_capacity(keys),
            values: Vec::with_capacity(values),
            next: Vec::with_capacity(values),
        }
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.heads.len()
    }

    /// Total number of values across all groups.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The flat value array, all groups back to back (grouped contiguously
    /// after [`FlatMultiMap::from_pairs`], insertion-interleaved under
    /// incremental construction). Whole-map sweeps should scan this.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The key bytes of entry `e`.
    fn key_of(&self, e: usize) -> &[u8] {
        let lo = self.key_offsets[e] as usize;
        let hi = self.key_offsets[e + 1] as usize;
        &self.key_arena[lo..hi]
    }

    /// The key of entry id `entry` (ids are dense: `0..num_keys()`), so a
    /// whole-map sweep can pair every key with its [`FlatMultiMap::group`].
    pub fn key(&self, entry: u32) -> &[u8] {
        self.key_of(entry as usize)
    }

    /// Knuth multiplicative slot for a digest in a table of `1 << (32 -
    /// shift)` slots.
    #[inline]
    fn slot_for(hash: u64, shift: u32) -> usize {
        // Fold the stable 64-bit digest to 32 bits, then Knuth-multiply;
        // the top bits index the table.
        let h32 = (hash ^ (hash >> 32)) as u32;
        (h32.wrapping_mul(KNUTH) >> shift) as usize
    }

    /// Finds the entry for `key`, if present.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_for(hash, self.shift);
        loop {
            match self.slots[slot] {
                NIL => return None,
                e => {
                    let e = e as usize;
                    if self.hashes[e] == hash && self.key_of(e) == key {
                        return Some(e);
                    }
                }
            }
            slot = (slot + 1) & mask; // linear probe
        }
    }

    /// Re-places every entry in a slot table of `table` slots (a power of
    /// two; keys are *not* re-hashed — digests are cached).
    fn rebuild_slots(&mut self, table: usize) {
        self.shift = 32 - table.trailing_zeros();
        self.slots = vec![NIL; table];
        let mask = table - 1;
        for (e, &hash) in self.hashes.iter().enumerate() {
            let mut slot = Self::slot_for(hash, self.shift);
            while self.slots[slot] != NIL {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = e as u32;
        }
    }

    /// Makes room for `keys` more distinct keys (`key_bytes` bytes in all)
    /// and `values` more values: each column grows at most once now and
    /// not again while the room lasts.
    pub fn reserve(&mut self, keys: usize, key_bytes: usize, values: usize) {
        self.hashes.reserve(keys);
        self.key_offsets.reserve(keys);
        self.key_arena.reserve(key_bytes);
        self.heads.reserve(keys);
        self.tails.reserve(keys);
        self.values.reserve(values);
        self.next.reserve(values);
        let table = ((self.heads.len() + keys) * 2).next_power_of_two();
        if table > self.slots.len() {
            self.rebuild_slots(table);
        }
    }

    /// The entry index for `key`, interning it if new. Stable for the
    /// map's lifetime — callers may use it as a dense key id.
    pub fn ensure(&mut self, key: &[u8]) -> u32 {
        let hash = hash_bytes(SEED, key);
        if let Some(e) = self.find(hash, key) {
            return e as u32;
        }
        // ≤ 1/2 load *before* insertion keeps probe chains short.
        if (self.heads.len() + 1) * 2 > self.slots.len() {
            self.rebuild_slots(self.slots.len() * 2);
        }
        let e = idx32(self.heads.len(), "entry count");
        self.hashes.push(hash);
        self.key_arena.extend_from_slice(key);
        self.key_offsets
            .push(idx32(self.key_arena.len(), "key arena size"));
        self.heads.push(NIL);
        self.tails.push(NIL);
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_for(hash, self.shift);
        while self.slots[slot] != NIL {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = e;
        e
    }

    /// Appends `value` to `key`'s group (interning the key if new) and
    /// returns the value's index in the flat array.
    pub fn push(&mut self, key: &[u8], value: V) -> u32 {
        let e = self.ensure(key);
        self.push_to_entry(e, value)
    }

    /// Appends `value` to the group of an entry id previously returned by
    /// [`FlatMultiMap::ensure`] / [`FlatMultiMap::push`].
    pub fn push_to_entry(&mut self, entry: u32, value: V) -> u32 {
        let e = entry as usize;
        let v = idx32(self.values.len(), "value count");
        self.values.push(value);
        self.next.push(NIL);
        if self.tails[e] == NIL {
            self.heads[e] = v;
        } else {
            self.next[self.tails[e] as usize] = v;
        }
        self.tails[e] = v;
        v
    }

    /// Whether `key` has been interned — `true` even when its group is
    /// empty, which is how a cache distinguishes "fetched, no tuples"
    /// from "never fetched".
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.find(hash_bytes(SEED, key), key).is_some()
    }

    /// Iterates `key`'s group in insertion order (empty if absent).
    pub fn get<'a>(&'a self, key: &[u8]) -> GroupIter<'a, V> {
        let head = self
            .find(hash_bytes(SEED, key), key)
            .map_or(NIL, |e| self.heads[e]);
        GroupIter {
            map: self,
            at: head,
        }
    }

    /// Iterates the group of entry id `entry` in insertion order.
    pub fn group(&self, entry: u32) -> GroupIter<'_, V> {
        GroupIter {
            map: self,
            at: self.heads[entry as usize],
        }
    }
}

impl<V: Copy> FlatMultiMap<V> {
    /// Builds the map in two passes from `(key, value)` pairs, following
    /// SNIPPETS.md's cluster-map recipe: first count each key's group
    /// size, prefix-sum the counts into placement offsets, then write
    /// every value into its final position — each group lands
    /// **contiguous** in the value array (in pair order), so probes walk
    /// sequential memory.
    ///
    /// `pairs` is cloned and consumed **three times** (count, placeholder
    /// fill, placement), so every clone must yield the same sequence — as
    /// any pure iterator over stored data does. An impure iterator (side
    /// effects, interior mutability) whose passes disagree would corrupt
    /// the map silently, so the passes are cross-checked: any divergence
    /// in item count or per-group size panics.
    pub fn from_pairs<'a, I>(pairs: I) -> Self
    where
        I: Iterator<Item = (&'a [u8], V)> + Clone,
        V: 'a,
    {
        // Pass 1: intern keys and count group sizes.
        let mut map = Self::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut total = 0usize;
        for (key, _) in pairs.clone() {
            let e = map.ensure(key) as usize;
            if e == counts.len() {
                counts.push(0);
            }
            counts[e] += 1;
            total += 1;
        }
        let total = idx32(total, "value count");
        // Prefix-sum: counts[e] becomes the group's next write cursor.
        let mut acc = 0u32;
        let mut starts = vec![0u32; counts.len()];
        for (e, c) in counts.iter_mut().enumerate() {
            starts[e] = acc;
            let n = *c;
            *c = acc;
            acc += n;
        }
        // Pass 2: place values; groups are contiguous, links point right.
        let nil_v = NIL;
        map.values.reserve_exact(total as usize);
        // SAFETY-free placement: pre-fill then overwrite via cursors.
        map.values.extend(pairs.clone().map(|(_, v)| v)); // placeholder fill
        assert_eq!(
            map.values.len(),
            total as usize,
            "from_pairs: placeholder pass disagrees with the count pass"
        );
        map.next = vec![nil_v; total as usize];
        let mut placed = 0usize;
        for (key, value) in pairs {
            let e = map.ensure(key) as usize; // already interned: lookup only
            assert!(
                e < counts.len(),
                "from_pairs: placement pass yielded a key absent from the count pass"
            );
            let at = counts[e];
            counts[e] += 1;
            map.values[at as usize] = value;
            placed += 1;
        }
        assert_eq!(
            placed, total as usize,
            "from_pairs: placement pass disagrees with the count pass"
        );
        for (e, &start) in starts.iter().enumerate() {
            let end = counts[e]; // one past the group's last element
                                 // Each cursor must land exactly on its group's end (the next
                                 // group's start) — anything else means the clone passes
                                 // yielded different key sequences.
            let expected_end = starts.get(e + 1).copied().unwrap_or(total);
            assert_eq!(
                end, expected_end,
                "from_pairs: group {e} placement cursor off its group end"
            );
            if end == start {
                map.heads[e] = NIL;
                map.tails[e] = NIL;
                continue;
            }
            map.heads[e] = start;
            map.tails[e] = end - 1;
            for v in start..end - 1 {
                map.next[v as usize] = v + 1;
            }
        }
        map
    }
}

/// Iterator over one key's value group, in insertion order.
pub struct GroupIter<'a, V> {
    map: &'a FlatMultiMap<V>,
    at: u32,
}

impl<'a, V> Iterator for GroupIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        if self.at == NIL {
            return None;
        }
        let v = &self.map.values[self.at as usize];
        self.at = self.map.next[self.at as usize];
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn empty_map_probes_cleanly() {
        let m: FlatMultiMap<u32> = FlatMultiMap::new();
        assert!(m.is_empty());
        assert_eq!(m.num_keys(), 0);
        assert_eq!(m.get(b"anything").count(), 0);
    }

    #[test]
    fn groups_preserve_insertion_order() {
        let mut m = FlatMultiMap::new();
        m.push(b"a", 1u32);
        m.push(b"b", 10);
        m.push(b"a", 2);
        m.push(b"b", 20);
        m.push(b"a", 3);
        assert_eq!(m.get(b"a").copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(m.get(b"b").copied().collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(m.get(b"c").count(), 0);
        assert_eq!(m.len(), 5);
        assert_eq!(m.num_keys(), 2);
    }

    #[test]
    fn contains_distinguishes_empty_groups_from_absent_keys() {
        let mut m: FlatMultiMap<u32> = FlatMultiMap::new();
        m.ensure(b"fetched-empty");
        assert!(m.contains_key(b"fetched-empty"));
        assert_eq!(m.get(b"fetched-empty").count(), 0);
        assert!(!m.contains_key(b"never-fetched"));
    }

    #[test]
    fn entry_ids_are_dense_and_stable() {
        let mut m: FlatMultiMap<u8> = FlatMultiMap::new();
        let a = m.ensure(b"a");
        let b = m.ensure(b"b");
        assert_eq!((a, b), (0, 1));
        for _ in 0..100 {
            m.ensure(format!("k{}", m.num_keys()).as_bytes());
        }
        assert_eq!(m.ensure(b"a"), 0, "growth must not move entries");
        assert_eq!(m.ensure(b"b"), 1);
    }

    #[test]
    fn survives_growth_with_many_keys() {
        let mut m = FlatMultiMap::new();
        for i in 0..5_000u32 {
            let key = format!("key-{i}");
            m.push(key.as_bytes(), i);
            m.push(key.as_bytes(), i * 2);
        }
        for i in (0..5_000u32).step_by(97) {
            let key = format!("key-{i}");
            assert_eq!(
                m.get(key.as_bytes()).copied().collect::<Vec<_>>(),
                vec![i, i * 2]
            );
        }
        assert_eq!(m.num_keys(), 5_000);
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn empty_and_binary_keys_are_distinct() {
        let mut m = FlatMultiMap::new();
        m.push(b"".as_slice(), 0u8);
        m.push(b"\0".as_slice(), 1);
        m.push(b"\0\0".as_slice(), 2);
        assert_eq!(m.get(b"").copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.get(b"\0").copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(m.get(b"\0\0").copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn from_pairs_matches_incremental_and_is_contiguous() {
        let pairs: Vec<(Vec<u8>, u32)> = (0..300u32)
            .map(|i| (format!("k{}", i % 37).into_bytes(), i))
            .collect();
        let two_pass = FlatMultiMap::from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
        let mut incremental = FlatMultiMap::new();
        for (k, v) in &pairs {
            incremental.push(k, *v);
        }
        for g in 0..37u32 {
            let key = format!("k{g}").into_bytes();
            let a: Vec<u32> = two_pass.get(&key).copied().collect();
            let b: Vec<u32> = incremental.get(&key).copied().collect();
            assert_eq!(a, b, "group {g} differs between construction modes");
        }
        // Contiguity: in the two-pass map, each group occupies one dense
        // run of the flat value array, so group values appear in a single
        // ascending index run. Verify via the values() layout: group k0 is
        // values[0..len0], k1 follows, etc.
        let mut offset = 0usize;
        for g in 0..37u32 {
            let key = format!("k{g}").into_bytes();
            let group: Vec<u32> = two_pass.get(&key).copied().collect();
            assert_eq!(
                &two_pass.values()[offset..offset + group.len()],
                group.as_slice(),
                "group {g} not contiguous at offset {offset}"
            );
            offset += group.len();
        }
        assert_eq!(offset, two_pass.len());
    }

    #[test]
    fn agrees_with_hashmap_reference_on_random_ops() {
        // Deterministic pseudo-random workload (no RNG dependency).
        let mut m = FlatMultiMap::new();
        let mut reference: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
        let mut x = 0x1234_5678_u64;
        for _ in 0..20_000 {
            x = crate::hash::mix64(x);
            let key = format!("k{}", x % 512).into_bytes();
            m.push(&key, x);
            reference.entry(key).or_default().push(x);
        }
        for (key, want) in &reference {
            let got: Vec<u64> = m.get(key).copied().collect();
            assert_eq!(&got, want);
        }
        assert_eq!(m.len(), 20_000);
        assert_eq!(m.num_keys(), reference.len());
    }
}
