//! Order-preserving byte encodings for row keys.
//!
//! NoSQL stores order rows by raw bytes and scan ascending only. Every
//! index layout in the paper leans on that: the ISL index needs ascending
//! bytes ⇔ *descending* score (§4.2.2 stores "negated" scores), the BFHM
//! needs `bucket|bitpos` composite keys (§5.1), and the IJLMR index keys
//! rows by join value (§4.1.1). The encodings here make those layouts safe:
//! `encode_x(a) < encode_x(b)` in byte order iff `a < b` (or `a > b` for the
//! descending variants).

/// Encodes a `u64` so byte order matches numeric order.
#[inline]
pub fn encode_u64(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Inverse of [`encode_u64`]. Kept for tests: the store's, MapReduce's
/// and the loader's tests read `u64` row keys back with it.
#[inline]
pub fn decode_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(b.get(..8)?.try_into().ok()?))
}

/// Encodes a `u32` big-endian.
#[inline]
pub fn encode_u32(v: u32) -> [u8; 4] {
    v.to_be_bytes()
}

/// Inverse of [`encode_u32`].
#[inline]
pub fn decode_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(b.get(..4)?.try_into().ok()?))
}

/// Encodes an `f64` so byte order matches numeric order (total order:
/// `-inf < ... < -0.0 = 0.0 < ... < +inf`; NaN is rejected).
///
/// Standard trick: flip the sign bit for non-negatives, flip all bits for
/// negatives.
#[inline]
pub fn encode_f64(v: f64) -> [u8; 8] {
    assert!(!v.is_nan(), "NaN scores cannot be key-encoded");
    let bits = v.to_bits();
    let flipped = if bits >> 63 == 0 {
        bits | 0x8000_0000_0000_0000
    } else {
        !bits
    };
    flipped.to_be_bytes()
}

/// Inverse of [`encode_f64`].
#[inline]
pub fn decode_f64(b: &[u8]) -> Option<f64> {
    let flipped = u64::from_be_bytes(b.get(..8)?.try_into().ok()?);
    let bits = if flipped >> 63 == 1 {
        flipped & 0x7fff_ffff_ffff_ffff
    } else {
        !flipped
    };
    Some(f64::from_bits(bits))
}

/// Encodes a score so that **ascending byte order is descending score** —
/// the paper's "negated score values as the index keys" (§4.2.2, Fig. 3),
/// needed because HBase scans ascending only.
#[inline]
pub fn encode_score_desc(score: f64) -> [u8; 8] {
    let enc = encode_f64(score);
    let mut out = [0u8; 8];
    for (o, e) in out.iter_mut().zip(enc.iter()) {
        *o = !e;
    }
    out
}

/// Inverse of [`encode_score_desc`].
#[inline]
pub fn decode_score_desc(b: &[u8]) -> Option<f64> {
    let mut enc = [0u8; 8];
    for (e, &x) in enc.iter_mut().zip(b.get(..8)?) {
        *e = !x;
    }
    decode_f64(&enc)
}

/// Joins key parts with a `|` separator byte — the paper's
/// `bucketNo|bitPos` composite row keys (§5.1). Parts must not contain the
/// separator if prefix scans over the first part are needed; the fixed-width
/// numeric encodings above never do for the ranges we use, and we assert in
/// debug builds.
pub fn composite(parts: &[&[u8]]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| p.len()).sum::<usize>() + parts.len().saturating_sub(1);
    let mut out = Vec::with_capacity(total);
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            out.push(b'|');
        }
        out.extend_from_slice(p);
    }
    out
}

/// The smallest key strictly greater than every key with prefix `p`
/// (for prefix-bounded scans). Returns `None` when no such key exists
/// (prefix is all `0xff`). Kept for tests: the store's key proptests pin
/// the byte order a prefix scan's stop key relies on with it.
pub fn prefix_end(p: &[u8]) -> Option<Vec<u8>> {
    let mut end = p.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_and_order() {
        let vals = [0u64, 1, 255, 256, u64::MAX / 2, u64::MAX];
        for w in vals.windows(2) {
            assert!(encode_u64(w[0]) < encode_u64(w[1]));
        }
        for v in vals {
            assert_eq!(decode_u64(&encode_u64(v)), Some(v));
        }
        assert_eq!(decode_u64(&[1, 2]), None);
    }

    #[test]
    fn f64_roundtrip_and_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            0.0,
            1e-300,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(encode_f64(w[0]) < encode_f64(w[1]), "{} !< {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(decode_f64(&encode_f64(v)), Some(v));
        }
    }

    #[test]
    fn desc_score_order_inverts() {
        // Higher score → smaller key: the ISL layout invariant.
        assert!(encode_score_desc(1.0) < encode_score_desc(0.93));
        assert!(encode_score_desc(0.93) < encode_score_desc(0.92));
        assert!(encode_score_desc(0.5) < encode_score_desc(0.0));
        for v in [0.0, 0.31, 0.5, 0.92, 1.0] {
            assert_eq!(decode_score_desc(&encode_score_desc(v)), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        encode_f64(f64::NAN);
    }

    #[test]
    fn composite_layout() {
        let k = composite(&[&encode_u32(3), &encode_u32(17)]);
        assert_eq!(k.len(), 9);
        assert_eq!(k[4], b'|');
    }

    #[test]
    fn composite_preserves_first_part_order() {
        let a = composite(&[&encode_u32(1), &encode_u32(999)]);
        let b = composite(&[&encode_u32(2), &encode_u32(0)]);
        assert!(a < b);
    }

    #[test]
    fn prefix_end_bounds_prefix_scans() {
        let p = b"abc".to_vec();
        let end = prefix_end(&p).unwrap();
        assert_eq!(end, b"abd".to_vec());
        assert!(p.as_slice() < end.as_slice());
        assert!(b"abc\xff\xff".as_slice() < end.as_slice());
        assert_eq!(prefix_end(&[0xff, 0xff]), None);
        assert_eq!(prefix_end(&[0x01, 0xff]), Some(vec![0x02]));
    }
}
