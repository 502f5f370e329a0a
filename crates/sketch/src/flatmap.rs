//! A flat, cache-friendly multimap from byte-string keys to value groups.
//!
//! The rank-join hot loops — HRJN's seen-tuple join (every pulled tuple
//! probes the other side's seen set) and BFHM's reverse-row cache — were
//! built on `HashMap<Vec<u8>, Vec<V>>`: every key a separate heap
//! allocation, every value group another, and SipHash on top. This module
//! replaces that with the layout of SNIPPETS.md's cluster map (and of
//! classic open-addressing literature): an open-addressed slot table using
//! the Knuth multiplicative hash, keys interned back to back into one byte
//! arena, **one 16-byte entry per key** (its folded digest, where its key
//! ends, its group's head and tail), and values in one flat array, each
//! group a linked list threaded through it (`next` indices) in insertion
//! order.
//!
//! A value's position in the flat array is the number of values pushed
//! before it. A caller that pushes one value per record, in record order,
//! can therefore read a group's positions ([`FlatMultiMap::positions`]) as
//! record ids and store `V = ()`, a column that costs nothing — HRJN's and
//! DRJN's seen sides and BFHM's reverse-row cache do.
//!
//! Determinism: hashing is [`crate::hash::hash_bytes`] (stable across
//! platforms and releases) folded to 32 bits and finished with Knuth's
//! multiplicative constant; iteration order of a group is insertion order.
//! An empty map allocates nothing, and a cleared one
//! ([`FlatMultiMap::clear`]) keeps what it grew.

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

/// The stable 64-bit digest of `key`, folded to the 32 bits slot
/// placement reads.
fn digest(key: &[u8]) -> u32 {
    let hash = hash_bytes(SEED, key);
    (hash ^ (hash >> 32)) as u32
}

/// One interned key: all a probe, a growth or a group walk reads of it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The key's folded digest: growth re-places entries without
    /// re-hashing keys, and a probe compares key bytes only on a match.
    digest: u32,
    /// End of the key in the arena (it starts where the previous entry's
    /// key ends).
    key_end: u32,
    /// First and last value position of the group, [`NIL`] when empty.
    head: u32,
    tail: u32,
}

/// A multimap `[u8] → group of V` in flat storage. See the module docs.
///
/// `V` is expected to be small and `Copy` (indices, packed ids, scores —
/// or `()` when the position is the id); groups preserve insertion order.
#[derive(Clone, Debug)]
pub struct FlatMultiMap<V> {
    /// Open-addressed table: slot → entry index, [`NIL`] when empty.
    /// Empty until the first key, then a power of two at ≤ 1/2 load.
    slots: Vec<u32>,
    /// `32 - log2(slots.len())`: the Knuth multiplicative shift.
    shift: u32,
    /// Per key, in interning order (entry ids are dense).
    entries: Vec<Entry>,
    /// All keys, back to back.
    key_arena: Vec<u8>,
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
    /// An empty map; it allocates nothing until the first key.
    pub fn new() -> Self {
        FlatMultiMap {
            slots: Vec::new(),
            shift: 32,
            entries: Vec::new(),
            key_arena: Vec::new(),
            values: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Empties the map but keeps its capacity: every slot is reset to
    /// empty (the table keeps its size) and every column is cleared. The
    /// map then answers exactly as a [`FlatMultiMap::new`] one does —
    /// entry ids dense from 0, groups in insertion order, no old key
    /// present — and grows nothing until it outgrows what it held.
    pub fn clear(&mut self) {
        self.slots.fill(NIL);
        self.entries.clear();
        self.key_arena.clear();
        self.values.clear();
        self.next.clear();
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.entries.len()
    }

    /// Total number of values across all groups.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The key of entry id `entry` (ids are dense: `0..num_keys()`, in
    /// interning order).
    pub fn key(&self, entry: u32) -> &[u8] {
        let e = entry as usize;
        let start = match e {
            0 => 0,
            _ => self.entries[e - 1].key_end as usize,
        };
        &self.key_arena[start..self.entries[e].key_end as usize]
    }

    /// Knuth multiplicative slot for a digest in a table of `1 << (32 -
    /// shift)` slots.
    #[inline]
    fn slot_for(digest: u32, shift: u32) -> usize {
        (digest.wrapping_mul(KNUTH) >> shift) as usize
    }

    /// Finds the entry for `key`, if present.
    fn find(&self, digest: u32, key: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_for(digest, self.shift);
        loop {
            match self.slots[slot] {
                NIL => return None,
                e if self.entries[e as usize].digest == digest && self.key(e) == key => {
                    return Some(e)
                }
                _ => slot = (slot + 1) & mask, // linear probe
            }
        }
    }

    /// Puts entry `e` into the first free slot of its probe sequence.
    fn place(&mut self, digest: u32, e: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_for(digest, self.shift);
        while self.slots[slot] != NIL {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = e;
    }

    /// Re-places every entry in a slot table of `table` slots (a power of
    /// two; keys are *not* re-hashed — digests are kept).
    fn rebuild_slots(&mut self, table: usize) {
        self.shift = 32 - table.trailing_zeros();
        self.slots = vec![NIL; table];
        for e in 0..self.entries.len() {
            self.place(self.entries[e].digest, e as u32);
        }
    }

    /// Makes room for `keys` more distinct keys (`key_bytes` bytes in all)
    /// and `values` more values: each column grows at most once now and
    /// not again while the room lasts.
    pub fn reserve(&mut self, keys: usize, key_bytes: usize, values: usize) {
        self.entries.reserve(keys);
        self.key_arena.reserve(key_bytes);
        self.values.reserve(values);
        self.next.reserve(values);
        // ≤ 1/2 load keeps probe chains short; the first table has 8 slots.
        let table = ((self.entries.len() + keys) * 2).next_power_of_two().max(8);
        if table > self.slots.len() {
            self.rebuild_slots(table);
        }
    }

    /// The entry index for `key`, interning it if new. Stable for the
    /// map's lifetime — callers may use it as a dense key id.
    pub fn ensure(&mut self, key: &[u8]) -> u32 {
        let digest = digest(key);
        if let Some(e) = self.find(digest, key) {
            return e;
        }
        // Room *before* insertion, growing as pushes would.
        self.reserve(1, key.len(), 0);
        let e = idx32(self.entries.len(), "entry count");
        self.key_arena.extend_from_slice(key);
        self.entries.push(Entry {
            digest,
            key_end: idx32(self.key_arena.len(), "key arena size"),
            head: NIL,
            tail: NIL,
        });
        self.place(digest, e);
        e
    }

    /// Appends `value` to `key`'s group (interning the key if new) and
    /// returns the value's position in the flat array.
    pub fn push(&mut self, key: &[u8], value: V) -> u32 {
        let e = self.ensure(key);
        self.push_to_entry(e, value)
    }

    /// Appends `value` to the group of an entry id previously returned by
    /// [`FlatMultiMap::ensure`] and returns the value's position in the
    /// flat array: the number of values pushed before it.
    pub fn push_to_entry(&mut self, entry: u32, value: V) -> u32 {
        let v = idx32(self.values.len(), "value count");
        self.values.push(value);
        self.next.push(NIL);
        let group = &mut self.entries[entry as usize];
        match group.tail {
            NIL => group.head = v,
            tail => self.next[tail as usize] = v,
        }
        group.tail = v;
        v
    }

    /// Whether `key` has been interned — `true` even when its group is
    /// empty, which is how a cache distinguishes "fetched, no tuples"
    /// from "never fetched".
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.find(digest(key), key).is_some()
    }

    /// The flat-array positions of `key`'s group, in insertion order
    /// (empty if absent).
    pub fn positions<'a>(&'a self, key: &[u8]) -> Positions<'a> {
        let at = self
            .find(digest(key), key)
            .map_or(NIL, |e| self.entries[e as usize].head);
        Positions {
            next: &self.next,
            at,
        }
    }

    /// Iterates `key`'s group in insertion order (empty if absent).
    pub fn get<'a>(&'a self, key: &[u8]) -> GroupIter<'a, V> {
        GroupIter {
            values: &self.values,
            positions: self.positions(key),
        }
    }
}

/// Iterator over the flat-array positions of one key's group, in
/// insertion order.
pub struct Positions<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Positions<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let at = self.at;
        if at == NIL {
            return None;
        }
        self.at = self.next[at as usize];
        Some(at)
    }
}

/// Iterator over one key's value group, in insertion order.
pub struct GroupIter<'a, V> {
    values: &'a [V],
    positions: Positions<'a>,
}

impl<'a, V> Iterator for GroupIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        self.positions.next().map(|at| &self.values[at as usize])
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
        assert_eq!(m.positions(b"anything").count(), 0);
        assert!(!m.contains_key(b""));
    }

    #[test]
    fn an_empty_map_allocates_nothing() {
        let m: FlatMultiMap<u32> = FlatMultiMap::new();
        let capacities = [
            m.slots.capacity(),
            m.entries.capacity(),
            m.key_arena.capacity(),
            m.values.capacity(),
            m.next.capacity(),
        ];
        assert_eq!(capacities, [0; 5]);
        // A reservation for nothing still yields a table a probe can use.
        let mut m: FlatMultiMap<u32> = FlatMultiMap::new();
        m.reserve(0, 0, 0);
        assert_eq!(m.slots.len(), 8);
        m.push(b"k", 1);
        assert_eq!(m.get(b"k").copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
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

    /// Pushing `0..n` in order makes every value its own position, so a
    /// group's positions are its values — what lets a caller store `()`.
    #[test]
    fn positions_are_get_order_for_identity_pushes() {
        let mut m = FlatMultiMap::new();
        let mut ids: FlatMultiMap<()> = FlatMultiMap::new();
        let key = |i: u32| format!("k{}", (i * 7) % 23).into_bytes();
        for i in 0..500u32 {
            assert_eq!(m.push(&key(i), i), i);
            assert_eq!(ids.push(&key(i), ()), i);
        }
        for g in 0..23u32 {
            let want: Vec<u32> = m.get(&key(g)).copied().collect();
            assert!(!want.is_empty());
            assert_eq!(m.positions(&key(g)).collect::<Vec<_>>(), want);
            assert_eq!(ids.positions(&key(g)).collect::<Vec<_>>(), want);
        }
        assert_eq!(ids.len(), 500);
        assert_eq!(ids.positions(b"absent").count(), 0);
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
        assert_eq!(m.key(0), b"a");
        assert_eq!(m.key(101), b"k101");
    }

    /// A cleared map keeps its table and columns but answers as a new one:
    /// the same entry ids, keys and positions for the same pushes, and no
    /// old key found — a slot left pointing at an old entry would alias
    /// whatever key took that entry id next.
    #[test]
    fn a_cleared_map_answers_as_a_new_one() {
        let old = |i: u32| format!("old-{i}").into_bytes();
        let key = |i: u32| format!("k{}", (i * 7) % 31).into_bytes();
        let mut cleared: FlatMultiMap<()> = FlatMultiMap::new();
        for i in 0..3_000u32 {
            cleared.push(&old(i), ());
        }
        let (slots, entries) = (cleared.slots.len(), cleared.entries.capacity());
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared.num_keys(), 0);
        assert_eq!(cleared.positions(&old(0)).count(), 0);

        let mut fresh: FlatMultiMap<()> = FlatMultiMap::new();
        for i in 0..400u32 {
            let (a, b) = (cleared.ensure(&key(i)), fresh.ensure(&key(i)));
            assert_eq!(a, b, "entry id of push {i}");
            assert_eq!(cleared.push_to_entry(a, ()), fresh.push_to_entry(b, ()));
        }
        assert_eq!((cleared.num_keys(), cleared.len()), (31, 400));
        for g in 0..31u32 {
            assert_eq!(cleared.key(g), fresh.key(g));
            let want: Vec<u32> = fresh.positions(&key(g)).collect();
            assert_eq!(cleared.positions(&key(g)).collect::<Vec<_>>(), want);
        }
        for i in (0..3_000u32).step_by(7) {
            assert!(!cleared.contains_key(&old(i)), "old key {i} still found");
            assert_eq!(cleared.positions(&old(i)).count(), 0);
        }
        // Nothing was given back: the table and columns kept their size.
        assert_eq!(cleared.slots.len(), slots);
        assert_eq!(cleared.entries.capacity(), entries);
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
