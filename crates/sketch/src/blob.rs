//! The BFHM bucket "blob": the serialized form of one histogram bucket.
//!
//! A bucket row value holds the bucket's actual min/max scores plus the
//! Golomb-compressed hybrid filter (paper §5.1: "the row values then include
//! the min and max actual scores, plus the Golomb-compressed bitmap and
//! counters' hashtable (coined BFHM bucket 'blob')"). The compression is an
//! integral part of the design — single-hash filters need large `m` and are
//! impractical raw — but a [`BlobCodec::Raw`] escape hatch is provided so the
//! ablation benches can quantify exactly what Golomb coding buys.
//!
//! The blob is the set-bit positions (as gaps) followed by one counter per
//! set bit, and so is the decoded [`HybridFilter`]: one array, positions
//! then counters. Decoding fills that array in one allocation — or in an
//! array the caller hands it ([`BfhmBlob::decode_into`]) — and moves it
//! in, encoding reads its two halves as slices. Bytes from the store are
//! not trusted: a decode reserves (or asks for) nothing the bytes present
//! cannot fill and establishes the filter's invariant (positions strictly
//! increasing and below `m`, counters ≥ 1) or fails, typed.

use crate::golomb::{
    check_count, decode_values, encode_adaptive, encode_sorted_positions, BitReader, CodecError,
};
use crate::hybrid::HybridFilter;

/// Wire format selector for [`BfhmBlob`] serialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BlobCodec {
    /// Golomb/Rice-compressed bitmap gaps and counters (the paper's format).
    #[default]
    Golomb,
    /// Uncompressed positions/counters — ablation only.
    Raw,
}

impl BlobCodec {
    fn tag(self) -> u8 {
        match self {
            BlobCodec::Golomb => 1,
            BlobCodec::Raw => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, BlobError> {
        match t {
            1 => Ok(BlobCodec::Golomb),
            2 => Ok(BlobCodec::Raw),
            _ => Err(BlobError::BadMagic),
        }
    }
}

/// A decoded BFHM bucket: hybrid filter + actual score extrema.
#[derive(Clone, Debug, PartialEq)]
pub struct BfhmBlob {
    /// The bucket's hybrid Bloom filter over join values.
    pub filter: HybridFilter,
    /// Minimum actual score of any tuple recorded in the bucket.
    pub min_score: f64,
    /// Maximum actual score of any tuple recorded in the bucket.
    pub max_score: f64,
}

/// Blob (de)serialization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum BlobError {
    /// Unknown magic/codec byte.
    BadMagic,
    /// Structural truncation.
    Truncated,
    /// Golomb stream error.
    Codec(CodecError),
    /// The header or the decoded arrays cannot be a filter's (more set
    /// bits than bits, a position not below `m`, a counter overflow).
    Invalid(&'static str),
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::BadMagic => write!(f, "blob: unknown codec tag"),
            BlobError::Truncated => write!(f, "blob: truncated"),
            BlobError::Codec(e) => write!(f, "blob: {e}"),
            BlobError::Invalid(what) => write!(f, "blob: {what}"),
        }
    }
}

impl std::error::Error for BlobError {}

impl From<CodecError> for BlobError {
    fn from(e: CodecError) -> Self {
        BlobError::Codec(e)
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BlobError> {
        let s = self.buf[self.pos..].get(..n).ok_or(BlobError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    /// One Rice-coded stream of `count` values, `k u8 | len u32 | bytes`,
    /// checked to hold them but not yet decoded: its bits and `k`.
    fn rice_stream(&mut self, count: usize) -> Result<(BitReader<'a>, u8), BlobError> {
        let k = self.u8()?;
        let len = self.u32()? as usize;
        let bits = BitReader::new(self.take(len)?);
        check_count(&bits, count, k)?;
        Ok((bits, k))
    }

    /// `n` big-endian `u32`s, none of them read (or reserved for) unless
    /// all of them are there.
    fn u32s(&mut self, n: usize) -> Result<impl Iterator<Item = u32> + 'a, BlobError> {
        let bytes = self.take(n.checked_mul(4).ok_or(BlobError::Truncated)?)?;
        let words = bytes.chunks_exact(4);
        Ok(words.map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]])))
    }

    fn u8(&mut self) -> Result<u8, BlobError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BlobError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, BlobError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, BlobError> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }
}

impl BfhmBlob {
    /// Wraps a filter with its score extrema.
    pub fn new(filter: HybridFilter, min_score: f64, max_score: f64) -> Self {
        BfhmBlob {
            filter,
            min_score,
            max_score,
        }
    }

    /// Serializes the blob.
    ///
    /// Layout (big-endian):
    /// `tag u8 | m u32 | n u64 | min f64 | max f64 | nbits u32 |`
    /// then for Golomb: `k_pos u8 | len u32 | gap bytes | k_cnt u8 | len u32
    /// | counter bytes`; for Raw: `positions u32[nbits] | counters
    /// u32[nbits]`.
    pub fn encode(&self, codec: BlobCodec) -> Vec<u8> {
        let positions = self.filter.set_positions();
        // Counters are >= 1; c - 1 is stored.
        let stored_counts = self.filter.counts().iter().map(|&c| c - 1);

        let mut out = Vec::with_capacity(64 + positions.len() * 4);
        out.push(codec.tag());
        out.extend_from_slice(&(self.filter.m() as u32).to_be_bytes());
        out.extend_from_slice(&self.filter.n_inserted().to_be_bytes());
        out.extend_from_slice(&self.min_score.to_be_bytes());
        out.extend_from_slice(&self.max_score.to_be_bytes());
        out.extend_from_slice(&(positions.len() as u32).to_be_bytes());

        match codec {
            BlobCodec::Golomb => {
                let streams = [
                    encode_sorted_positions(positions.iter().map(|&p| u64::from(p))),
                    encode_adaptive(stored_counts.map(u64::from)),
                ];
                for (k, bytes) in streams {
                    out.push(k);
                    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                    out.extend_from_slice(&bytes);
                }
            }
            BlobCodec::Raw => {
                for word in positions.iter().copied().chain(stored_counts) {
                    out.extend_from_slice(&word.to_be_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a blob produced by [`BfhmBlob::encode`] (either codec).
    /// Any other bytes are a [`BlobError`], never a panic and never an
    /// allocation larger than the bytes account for.
    pub fn decode(bytes: &[u8]) -> Result<Self, BlobError> {
        Self::decode_into(bytes, Vec::with_capacity)
    }

    /// [`BfhmBlob::decode`] into the array `array` returns when called
    /// with the number of words the filter needs: so a caller can hand
    /// back the array of a filter it is done with. It is called at most
    /// once, and only after the bytes are checked to hold that many words,
    /// so a lying header never reaches it; what it returns is cleared
    /// before use, and grown if it is too small.
    pub fn decode_into(
        bytes: &[u8],
        array: impl FnOnce(usize) -> Vec<u32>,
    ) -> Result<Self, BlobError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let codec = BlobCodec::from_tag(c.u8()?)?;
        let m = c.u32()? as usize;
        let n = c.u64()?;
        let min_score = c.f64()?;
        let max_score = c.f64()?;
        let nbits = c.u32()? as usize;
        if m == 0 {
            return Err(BlobError::Invalid("a filter of no bits"));
        }
        if nbits > m {
            return Err(BlobError::Invalid("more set bits than bits"));
        }

        // Positions arrive as gaps (Golomb) or as they are (Raw), counters
        // as c - 1, into the filter's one array: both halves are checked
        // against the bytes before it is asked for. Arithmetic that
        // overflows lands on a value `from_parts` refuses: a position of
        // `u32::MAX` is not below `m`, a counter of 0 is not a counter.
        let array = || {
            let mut words = array(2 * nbits);
            words.clear();
            words
        };
        let mut words: Vec<u32> = match codec {
            BlobCodec::Golomb => {
                let streams = [c.rice_stream(nbits)?, c.rice_stream(nbits)?];
                let mut words = array();
                for (mut bits, k) in streams {
                    decode_values(&mut bits, nbits, k, &mut words)?;
                }
                let mut next = 0u32; // the smallest position a gap can land on
                for p in &mut words[..nbits] {
                    *p = next.saturating_add(*p);
                    next = p.saturating_add(1);
                }
                words
            }
            BlobCodec::Raw => {
                let positions = c.u32s(nbits)?;
                let counters = c.u32s(nbits)?;
                let mut words = array();
                words.extend(positions.chain(counters));
                words
            }
        };
        words[nbits..]
            .iter_mut()
            .for_each(|c| *c = c.wrapping_add(1));
        let filter = HybridFilter::from_parts(m, n, words).ok_or(BlobError::Invalid(
            "positions not increasing below m, or a counter of 0",
        ))?;
        Ok(BfhmBlob {
            filter,
            min_score,
            max_score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blob(m: usize, items: usize) -> BfhmBlob {
        let mut f = HybridFilter::new(m);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..items as u64 {
            f.insert(&(i % (items as u64 / 2 + 1)).to_be_bytes());
            let score = 0.6 + (i as f64 % 10.0) / 100.0;
            min = min.min(score);
            max = max.max(score);
        }
        BfhmBlob::new(f, min, max)
    }

    #[test]
    fn golomb_roundtrip() {
        let blob = sample_blob(4096, 100);
        let bytes = blob.encode(BlobCodec::Golomb);
        assert_eq!(BfhmBlob::decode(&bytes).unwrap(), blob);
    }

    #[test]
    fn raw_roundtrip() {
        let blob = sample_blob(4096, 100);
        let bytes = blob.encode(BlobCodec::Raw);
        assert_eq!(BfhmBlob::decode(&bytes).unwrap(), blob);
    }

    #[test]
    fn empty_filter_roundtrip() {
        let blob = BfhmBlob::new(HybridFilter::new(64), f64::INFINITY, f64::NEG_INFINITY);
        for codec in [BlobCodec::Golomb, BlobCodec::Raw] {
            let bytes = blob.encode(codec);
            assert_eq!(BfhmBlob::decode(&bytes).unwrap(), blob);
        }
    }

    #[test]
    fn golomb_is_smaller_than_raw_for_sparse_filters() {
        // The paper's claim: compression makes large-m single-hash filters
        // practical. Sparse bucket: 200 values in a 1M-bit filter.
        let mut f = HybridFilter::new(1 << 20);
        for i in 0..200u64 {
            f.insert(&i.to_be_bytes());
        }
        let blob = BfhmBlob::new(f, 0.9, 1.0);
        let golomb = blob.encode(BlobCodec::Golomb).len();
        let raw = blob.encode(BlobCodec::Raw).len();
        assert!(
            golomb * 2 < raw,
            "golomb ({golomb} B) should be well under raw ({raw} B)"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BfhmBlob::decode(&[]).is_err());
        assert!(BfhmBlob::decode(&[9, 0, 0]).is_err());
        let blob = sample_blob(256, 10);
        let mut bytes = blob.encode(BlobCodec::Golomb);
        bytes.truncate(bytes.len() - 1);
        assert!(BfhmBlob::decode(&bytes).is_err());
    }

    #[test]
    fn score_extrema_survive() {
        let blob = sample_blob(512, 30);
        let got = BfhmBlob::decode(&blob.encode(BlobCodec::Golomb)).unwrap();
        assert_eq!(got.min_score, blob.min_score);
        assert_eq!(got.max_score, blob.max_score);
    }
    fn unhex(hex: &str) -> Vec<u8> {
        let digits = hex.as_bytes().chunks(2);
        digits
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// The wire format is persisted: both encodings of one fixed filter
    /// (42 set bits, counters 1, 2 and 100, so both Rice parameters are
    /// non-trivial) equal the bytes the `BTreeMap`-and-bitmap filter
    /// produced at commit 1956bd6, the parent of the flat layout.
    #[test]
    fn encodings_equal_the_bytes_recorded_before_the_flat_layout() {
        let mut f = HybridFilter::new(4096);
        for i in 0..60u64 {
            f.insert(&(i % 37).to_be_bytes());
        }
        for key in [&b"a"[..], b"b", b"b", b"c", b"zebra"] {
            f.insert(key);
        }
        for _ in 0..100 {
            f.insert(b"hot");
        }
        let blob = BfhmBlob::new(f, 0.25, 0.75);
        let golomb = "010000100000000000000000a53fd00000000000003fe80000000000000000002a070000\
            002c3e8200ac31914362208175c0e3d27761a7c7c8484cb40825fed8436b194201294280\
            4cae77e006b5fa1350c00200000013208209241200001248209208009049ffffff64";
        let raw = "020000100000000000000000a53fd00000000000003fe80000000000000000002a000000\
            3e000000c3000000c50000011e00000182000001a500000233000002c5000002ca000002\
            d6000003b3000003c200000400000004280000049f000004ba00000537000005b4000006\
            3e00000648000006f6000006f9000007030000078300000870000008920000097e000009\
            98000009db000009dd00000a0700000a4a00000acb00000b7e00000c7200000d7100000d\
            7200000dde00000e3e00000f0100000f6c00000f85000000010000000000000001000000\
            000000000100000000000000010000000100000001000000010000000000000001000000\
            010000000000000000000000000000000000000000000000000000000100000001000000\
            010000000100000000000000010000000000000001000000010000000100000000000000\
            010000000000000000000000000000000100000001000000000000000100000001000000\
            010000006300000001";
        for (codec, hex) in [(BlobCodec::Golomb, golomb), (BlobCodec::Raw, raw)] {
            let recorded = unhex(hex);
            assert_eq!(blob.encode(codec), recorded, "{codec:?}");
            assert_eq!(BfhmBlob::decode(&recorded).unwrap(), blob, "{codec:?}");
        }
    }

    /// `tag | m | n | min | max | nbits` with nothing after it.
    fn header(codec: BlobCodec, m: u32, nbits: u32) -> Vec<u8> {
        let mut bytes = vec![codec.tag()];
        bytes.extend_from_slice(&m.to_be_bytes());
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&0.25f64.to_be_bytes());
        bytes.extend_from_slice(&0.75f64.to_be_bytes());
        bytes.extend_from_slice(&nbits.to_be_bytes());
        bytes
    }

    /// One Rice stream section: `k | len | bytes`.
    fn stream(k: u8, bytes: &[u8]) -> Vec<u8> {
        let mut section = vec![k];
        section.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        section.extend_from_slice(bytes);
        section
    }

    /// A header is bytes from the store, not a promise: a 30-byte blob
    /// announcing four billion set bits used to reserve 32 GB before
    /// reading a single one. Nor does a lying header get an array from
    /// [`BfhmBlob::decode_into`]: its picker is never called.
    #[test]
    fn decode_does_not_trust_its_header() {
        use BlobCodec::{Golomb, Raw};
        let decode = |bytes: &[u8]| {
            BfhmBlob::decode_into(bytes, |words| {
                panic!("a lying header asked for {words} words")
            })
        };
        let invalid = |bytes: &[u8]| matches!(decode(bytes), Err(BlobError::Invalid(_)));
        for codec in [Golomb, Raw] {
            let mut no_bits = header(codec, 0, 0);
            no_bits.extend([stream(0, &[]), stream(0, &[])].concat());
            assert!(invalid(&no_bits), "no bits at all");
            assert!(invalid(&header(codec, 64, 65)), "more set bits than bits");
        }
        // nbits within m, but far beyond what the bytes hold.
        let mut huge = header(Golomb, u32::MAX, u32::MAX);
        huge.extend(stream(0, &[0]));
        assert!(matches!(decode(&huge), Err(BlobError::Codec(_))));
        let mut huge = header(Raw, u32::MAX, u32::MAX);
        huge.extend_from_slice(&[0; 64]);
        assert_eq!(decode(&huge), Err(BlobError::Truncated));
        // The positions' stream holds them, the counters' does not.
        let mut half = header(Golomb, 64, 2);
        half.extend([stream(0, &[0]), stream(0, &[])].concat());
        assert!(matches!(decode(&half), Err(BlobError::Codec(_))));
        let mut half = header(Raw, 64, 2);
        half.extend_from_slice(&[0; 12]);
        assert_eq!(decode(&half), Err(BlobError::Truncated));
        // A Rice parameter no u64 has bits for.
        let mut wide = header(Golomb, 64, 1);
        wide.extend(stream(200, &[0; 40]));
        assert!(matches!(decode(&wide), Err(BlobError::Codec(_))));

        // The arrays below are all there, so they get one; what is in
        // them cannot be a filter's. Raw positions out of order,
        // repeated, or not below m.
        let invalid = |bytes: &[u8]| matches!(BfhmBlob::decode(bytes), Err(BlobError::Invalid(_)));
        for positions in [[5u32, 3], [3, 3], [3, 64]] {
            let mut bytes = header(Raw, 64, 2);
            for word in positions.into_iter().chain([0, 0]) {
                bytes.extend_from_slice(&word.to_be_bytes());
            }
            assert!(invalid(&bytes), "{positions:?}");
        }
        // A stored counter of u32::MAX is a counter of 2^32.
        let mut bytes = header(Raw, 64, 1);
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(invalid(&bytes));
        // Golomb gaps that walk past m: k = 0, gaps 62 and 1 → 62, 64.
        let mut w = crate::golomb::BitWriter::new();
        crate::golomb::encode_values(&mut w, [62, 1], 0);
        let mut bytes = header(Golomb, 64, 2);
        bytes.extend(stream(0, &w.finish()));
        bytes.extend(stream(0, &[0]));
        assert!(invalid(&bytes));
    }
}
