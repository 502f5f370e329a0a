//! Property tests for the sketch substrate: every invariant the BFHM's
//! correctness argument leans on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rj_sketch::blob::{BfhmBlob, BlobCodec};
use rj_sketch::bloom::SingleHashBloom;
use rj_sketch::golomb::{decode_values, encode_sorted_positions, BitReader};
use rj_sketch::histogram::ScoreHistogram;
use rj_sketch::hybrid::{AlphaMode, HybridFilter};

proptest! {
    /// Golomb gap coding is lossless for any strictly increasing list.
    #[test]
    fn golomb_positions_roundtrip(position_set in prop::collection::btree_set(0u64..1_000_000, 0..300)) {
        let positions: Vec<u64> = position_set.into_iter().collect();
        let (k, bytes) = encode_sorted_positions(positions.iter().copied());
        let mut decoded: Vec<u64> = Vec::new();
        decode_values(&mut BitReader::new(&bytes), positions.len(), k, &mut decoded).unwrap();
        let mut next = 0; // gaps back to positions
        for p in &mut decoded {
            *p += next;
            next = *p + 1;
        }
        prop_assert_eq!(decoded, positions);
    }

    /// Blob serialization is lossless under both codecs.
    #[test]
    fn blob_roundtrip(
        items in prop::collection::vec(0u64..500, 0..200),
        m_exp in 6u32..16,
        golomb in any::<bool>(),
    ) {
        let m = 1usize << m_exp;
        let mut filter = HybridFilter::new(m);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, item) in items.iter().enumerate() {
            filter.insert(&item.to_be_bytes());
            let score = (i % 100) as f64 / 100.0;
            min = min.min(score);
            max = max.max(score);
        }
        let blob = BfhmBlob::new(filter, min, max);
        let codec = if golomb { BlobCodec::Golomb } else { BlobCodec::Raw };
        let decoded = BfhmBlob::decode(&blob.encode(codec)).unwrap();
        prop_assert_eq!(decoded, blob);
    }

    /// Decoding into a dirty array (a recycled filter's), over-sized or
    /// too small, is decoding into a new one, under both codecs: same
    /// filter, same extrema, and the array asked for is exactly the
    /// filter's.
    #[test]
    fn decode_into_a_dirty_array_equals_decode(
        items in prop::collection::vec(0u64..500, 0..200),
        m_exp in 6u32..16,
        dirt in prop::collection::vec(any::<u32>(), 0..600),
        room in 0usize..600,
    ) {
        let mut filter = HybridFilter::new(1 << m_exp);
        for item in &items {
            filter.insert(&item.to_be_bytes());
        }
        let blob = BfhmBlob::new(filter, 0.25, 0.75);
        for codec in [BlobCodec::Golomb, BlobCodec::Raw] {
            let bytes = blob.encode(codec);
            let mut asked = None;
            let into = BfhmBlob::decode_into(&bytes, |words| {
                asked = Some(words);
                let mut array = dirt.clone();
                array.reserve_exact(room);
                array
            });
            prop_assert_eq!(asked, Some(2 * blob.filter.set_bit_count()));
            prop_assert_eq!(into.unwrap(), BfhmBlob::decode(&bytes).unwrap());
        }
    }

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_no_false_negatives(
        items in prop::collection::vec(any::<u64>(), 1..300),
        m_exp in 3u32..16,
    ) {
        let mut f = SingleHashBloom::new(1 << m_exp);
        for it in &items {
            f.insert(&it.to_be_bytes());
        }
        for it in &items {
            prop_assert!(f.contains(&it.to_be_bytes()));
        }
    }

    /// Every score lands inside its bucket's bounds, and bucket indices
    /// are monotonically decreasing in score.
    #[test]
    fn histogram_bucket_contains_score(
        score in 0.0f64..=1.0,
        buckets in 1u32..500,
    ) {
        let h = ScoreHistogram::new(buckets);
        let b = h.bucket_of(score);
        prop_assert!(b < buckets);
        let (lo, hi) = h.bounds(b);
        prop_assert!(score >= lo - 1e-9 && score <= hi + 1e-9,
            "score {score} outside bucket {b} [{lo}, {hi})");
    }

    #[test]
    fn histogram_monotone(
        a in 0.0f64..=1.0,
        b in 0.0f64..=1.0,
        buckets in 1u32..200,
    ) {
        let h = ScoreHistogram::new(buckets);
        if a > b {
            prop_assert!(h.bucket_of(a) <= h.bucket_of(b));
        }
    }

    /// Lemma 1: the uncompensated bucket-join estimate is always an upper
    /// bound on the true join cardinality.
    #[test]
    fn hybrid_join_estimate_is_upper_bound(
        left in prop::collection::vec(0u64..64, 0..120),
        right in prop::collection::vec(0u64..64, 0..120),
        m_exp in 4u32..12,
    ) {
        let m = 1usize << m_exp;
        let mut fl = HybridFilter::new(m);
        let mut fr = HybridFilter::new(m);
        for v in &left {
            fl.insert(&v.to_be_bytes());
        }
        for v in &right {
            fr.insert(&v.to_be_bytes());
        }
        let truth: u64 = left
            .iter()
            .map(|l| right.iter().filter(|r| *r == l).count() as u64)
            .sum();
        let est = fl.join_estimate(&fr, AlphaMode::Off).1;
        prop_assert!(est >= truth as f64,
            "estimate {est} below true cardinality {truth}");
    }

    /// Removing everything inserted returns the filter to empty.
    #[test]
    fn hybrid_remove_inverts_insert(items in prop::collection::vec(0u64..50, 0..100)) {
        let mut f = HybridFilter::new(1 << 10);
        for v in &items {
            f.insert(&v.to_be_bytes());
        }
        for v in &items {
            prop_assert!(f.remove(&v.to_be_bytes()).is_some());
        }
        prop_assert_eq!(f.set_bit_count(), 0);
        prop_assert_eq!(f.n_inserted(), 0);
    }
    /// The flat filter against the `BTreeMap<position, counter>` it
    /// replaced, over insert / remove / over-remove sequences: every
    /// accessor agrees, a bucket join is the old two-call result bit for
    /// bit, and the filter survives both codecs.
    #[test]
    fn flat_hybrid_matches_the_btreemap_model(
        left_ops in prop::collection::vec((any::<bool>(), 0u64..48), 0..160),
        right_ops in prop::collection::vec((any::<bool>(), 0u64..48), 0..160),
        m_exp in 3u32..12,
    ) {
        let m = 1usize << m_exp;
        let (fl, model_l) = replay(m, &left_ops);
        let (fr, model_r) = replay(m, &right_ops);
        for (filter, model) in [(&fl, &model_l), (&fr, &model_r)] {
            let positions: Vec<u32> = model.keys().copied().collect();
            let counts: Vec<u32> = model.values().copied().collect();
            prop_assert_eq!(filter.set_positions(), &positions[..]);
            prop_assert_eq!(filter.counts(), &counts[..]);
            prop_assert_eq!(filter.set_bit_count(), model.len());
            let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            prop_assert_eq!(filter.total_count(), total);
            prop_assert_eq!(filter.n_inserted(), total);
            for pos in 0..m as u32 {
                prop_assert_eq!(filter.counter(pos), model.get(&pos).copied().unwrap_or(0));
            }
            for codec in [BlobCodec::Golomb, BlobCodec::Raw] {
                let blob = BfhmBlob::new((*filter).clone(), 0.25, 0.75);
                prop_assert_eq!(BfhmBlob::decode(&blob.encode(codec)).unwrap(), blob);
            }
        }
        // The old bucket join: intersect the key sets, then look both
        // counters up per common position.
        let common: Vec<u32> = model_l.keys().filter(|p| model_r.contains_key(p)).copied().collect();
        let raw: u64 = common.iter().map(|p| u64::from(model_l[p]) * u64::from(model_r[p])).sum();
        prop_assert_eq!(fl.common_positions(&fr), common.clone());
        let with_counters: Vec<(u32, u32, u32)> =
            common.iter().map(|p| (*p, model_l[p], model_r[p])).collect();
        prop_assert_eq!(fl.common(&fr).collect::<Vec<_>>(), with_counters);
        for mode in [AlphaMode::Off, AlphaMode::Compensated] {
            let alpha = match mode {
                AlphaMode::Compensated => (1.0 - fl.pt()) * (1.0 - fr.pt()),
                AlphaMode::Off => 1.0,
            };
            let (shared, cardinality) = fl.join_estimate(&fr, mode);
            prop_assert_eq!(shared, common.len());
            prop_assert_eq!(cardinality.to_bits(), (raw as f64 * alpha).to_bits());
        }
    }

    /// `BfhmBlob::decode` on bytes nobody encoded: a typed error or a
    /// filter that re-encodes to bytes that decode to the same — never a
    /// panic, never a reservation the bytes cannot back.
    #[test]
    fn blob_decode_survives_arbitrary_and_mutated_bytes(
        arbitrary in prop::collection::vec(any::<u8>(), 0..96),
        items in prop::collection::vec(0u64..500, 0..120),
        mutations in prop::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        cut in any::<u16>(),
        golomb in any::<bool>(),
    ) {
        let codec = if golomb { BlobCodec::Golomb } else { BlobCodec::Raw };
        let mut filter = HybridFilter::new(1 << 10);
        for item in &items {
            filter.insert(&item.to_be_bytes());
        }
        let valid = BfhmBlob::new(filter, 0.1, 0.9).encode(codec);
        let mut mutated = valid.clone();
        for (at, byte) in &mutations {
            let at = usize::from(*at) % mutated.len();
            mutated[at] = *byte;
        }
        let truncated = &valid[..usize::from(cut) % valid.len()];
        // A plausible header in front of arbitrary bytes gets past the tag.
        let mut headed = valid[..29.min(valid.len())].to_vec();
        headed.extend_from_slice(&arbitrary);
        for bytes in [&arbitrary[..], &mutated[..], truncated, &headed[..]] {
            if let Ok(blob) = BfhmBlob::decode(bytes) {
                let again = blob.encode(codec);
                let reread = BfhmBlob::decode(&again).unwrap();
                prop_assert_eq!(reread.encode(codec), again);
                prop_assert_eq!(reread.filter, blob.filter);
            }
        }
    }
}

/// Replays `(insert?, value)` operations into a flat filter and into the
/// `BTreeMap` model; a remove of a value whose counter is zero is ignored
/// by both.
fn replay(m: usize, ops: &[(bool, u64)]) -> (HybridFilter, BTreeMap<u32, u32>) {
    let mut filter = HybridFilter::new(m);
    let mut model = BTreeMap::new();
    for &(insert, value) in ops {
        let key = value.to_be_bytes();
        let pos = filter.position(&key);
        if insert {
            assert_eq!(filter.insert(&key), pos);
            *model.entry(pos).or_insert(0) += 1;
        } else {
            let held = model.get(&pos).copied();
            assert_eq!(filter.remove(&key), held.map(|_| pos));
            match held {
                Some(1) => drop(model.remove(&pos)),
                Some(c) => drop(model.insert(pos, c - 1)),
                None => {}
            }
        }
    }
    (filter, model)
}
