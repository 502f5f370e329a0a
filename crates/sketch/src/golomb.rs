//! Golomb/Rice coding of non-negative integers.
//!
//! The BFHM bucket blob compresses both its single-hash Bloom filter bitmap
//! (as gaps between consecutive set bits) and its counter table with Golomb
//! coding (paper §5.1, citing Golomb 1966). We implement the Rice special
//! case (divisor `M = 2^k`): quotient in unary, remainder in `k` bits. For
//! the near-geometric gap distributions produced by uniform hashing this is
//! within a fraction of a bit of full Golomb coding and considerably faster,
//! the "reasonable trade-off between compression ratio and processing costs"
//! the paper asks of the scheme.

/// A big-endian bit-level writer.
#[derive(Default, Debug)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the final byte (0..8).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.last_mut().expect("just ensured non-empty");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Appends the `n` low bits of `value`, most-significant first.
    pub fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        for i in (0..n).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Appends `q` one-bits followed by a terminating zero (unary code).
    pub fn push_unary(&mut self, q: u64) {
        for _ in 0..q {
            self.push_bit(true);
        }
        self.push_bit(false);
    }

    /// Finishes the stream, returning the padded byte buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A big-endian bit-level reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error returned when a bit stream ends prematurely or is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "golomb codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = self
            .buf
            .get(self.pos / 8)
            .ok_or(CodecError("unexpected end of bit stream"))?;
        let bit = byte >> (7 - (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits as a big-endian unsigned value.
    pub fn read_bits(&mut self, n: u8) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Ok(v)
    }

    /// Reads a unary-coded quotient (count of ones before the zero).
    pub fn read_unary(&mut self) -> Result<u64, CodecError> {
        let mut q = 0u64;
        while self.read_bit()? {
            q += 1;
            if q > (self.buf.len() as u64) * 8 {
                return Err(CodecError("runaway unary code"));
            }
        }
        Ok(q)
    }
}

/// Picks the Rice parameter `k` (divisor `2^k`) for values with the given
/// mean, following the classic `M ≈ 0.69 · mean` rule for geometric data.
pub fn optimal_rice_param(mean: f64) -> u8 {
    if !mean.is_finite() || mean <= 1.0 {
        return 0;
    }
    // Smallest k with 2^k >= 0.69 * mean.
    let target = 0.69 * mean;
    let mut k = 0u8;
    while k < 63 && f64::from(u32::MAX).min((1u64 << k) as f64) < target {
        k += 1;
    }
    k
}

/// Encodes `values` with Rice parameter `k` into `w`.
pub fn encode_values(w: &mut BitWriter, values: impl IntoIterator<Item = u64>, k: u8) {
    for v in values {
        w.push_unary(v >> k);
        w.push_bits(v, k);
    }
}

/// Rice-codes `values` under the parameter their mean picks
/// ([`optimal_rice_param`]), in two passes. Returns `(rice_k, bytes)`.
pub fn encode_adaptive(values: impl Iterator<Item = u64> + Clone) -> (u8, Vec<u8>) {
    let (count, sum) = values
        .clone()
        .fold((0u64, 0u64), |(count, sum), v| (count + 1, sum + v));
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };
    let k = optimal_rice_param(mean);
    let mut w = BitWriter::new();
    encode_values(&mut w, values, k);
    (k, w.finish())
}

/// Checks that `r` can hold `count` more Rice-coded values with
/// parameter `k` — a value takes at least `1 + k` bits — before anything
/// is reserved for them. `count` and `k` come from an untrusted header.
pub fn check_count(r: &BitReader<'_>, count: usize, k: u8) -> Result<(), CodecError> {
    if k > 63 {
        return Err(CodecError("rice parameter out of range"));
    }
    let unread_bits = (r.buf.len() * 8).saturating_sub(r.pos);
    if count > unread_bits / (1 + usize::from(k)) {
        return Err(CodecError("more values announced than the stream holds"));
    }
    Ok(())
}

/// Decodes `count` Rice-coded values with parameter `k` from `r` onto the
/// end of `out`, each narrowed to `T`. Nothing is reserved for a count the
/// stream is too short to hold ([`check_count`]), and a value that does
/// not fit `T` is an error.
pub fn decode_values<T: TryFrom<u64>>(
    r: &mut BitReader<'_>,
    count: usize,
    k: u8,
    out: &mut Vec<T>,
) -> Result<(), CodecError> {
    check_count(r, count, k)?;
    out.reserve(count);
    for _ in 0..count {
        let q = r.read_unary()?;
        let rem = r.read_bits(k)?;
        let value = q
            .checked_mul(1 << k)
            .map(|high| high | rem)
            .and_then(|v| T::try_from(v).ok())
            .ok_or(CodecError("value out of range"))?;
        out.push(value);
    }
    Ok(())
}

/// Compresses a sorted list of set-bit positions as first-order gaps.
///
/// Returns `(rice_k, bytes)`. Positions must be strictly increasing; the
/// first value is encoded as-is, subsequent values as `pos[i] - pos[i-1] - 1`
/// (gaps are ≥ 0).
pub fn encode_sorted_positions(positions: impl Iterator<Item = u64> + Clone) -> (u8, Vec<u8>) {
    let mut prev: Option<u64> = None;
    encode_adaptive(positions.map(move |p| {
        let gap = match prev {
            None => p,
            Some(q) => {
                debug_assert!(p > q, "positions must be strictly increasing");
                p - q - 1
            }
        };
        prev = Some(p);
        gap
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`encode_sorted_positions`]: gaps back to positions.
    fn decode_sorted_positions(bytes: &[u8], count: usize, k: u8) -> Vec<u64> {
        let mut gaps: Vec<u64> = Vec::new();
        decode_values(&mut BitReader::new(bytes), count, k, &mut gaps).unwrap();
        let positions = gaps.iter().scan(0, |next, gap| {
            let position = *next + gap;
            *next = position + 1;
            Some(position)
        });
        positions.collect()
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_unary(3);
        w.push_bits(0xdead_beef, 32);
        w.push_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_unary().unwrap(), 3);
        assert_eq!(r.read_bits(32).unwrap(), 0xdead_beef);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn reader_detects_truncation() {
        let mut w = BitWriter::new();
        w.push_bits(0xff, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert!(r.read_bits(8).is_err());
    }

    #[test]
    fn rice_values_roundtrip_all_params() {
        let values = [0u64, 1, 2, 7, 8, 100, 1023, 5000];
        for k in 0..=12u8 {
            let mut w = BitWriter::new();
            encode_values(&mut w, values, k);
            let bytes = w.finish();
            let mut decoded: Vec<u64> = Vec::new();
            decode_values(&mut BitReader::new(&bytes), values.len(), k, &mut decoded).unwrap();
            assert_eq!(decoded, values);
        }
    }

    #[test]
    fn positions_roundtrip() {
        let positions = [3u64, 4, 17, 64, 65, 1000, 1_000_000];
        let (k, bytes) = encode_sorted_positions(positions.iter().copied());
        let got = decode_sorted_positions(&bytes, positions.len(), k);
        assert_eq!(got, positions);
    }

    #[test]
    fn empty_positions_roundtrip() {
        let (k, bytes) = encode_sorted_positions(std::iter::empty());
        assert!(decode_sorted_positions(&bytes, 0, k).is_empty());
    }

    #[test]
    fn single_position_zero() {
        let (k, bytes) = encode_sorted_positions(std::iter::once(0));
        assert_eq!(decode_sorted_positions(&bytes, 1, k), vec![0]);
    }

    #[test]
    fn compression_beats_raw_bitmap_for_sparse_sets() {
        // 1000 set bits uniformly over 1M positions: a raw bitmap costs
        // 125_000 bytes; gap coding should land well under 3 bytes/position.
        let positions: Vec<u64> = (0..1000u64).map(|i| i * 997 + (i % 7)).collect();
        let (_, bytes) = encode_sorted_positions(positions.iter().copied());
        assert!(
            bytes.len() < 3000,
            "golomb stream unexpectedly large: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn optimal_param_grows_with_mean() {
        assert_eq!(optimal_rice_param(0.0), 0);
        assert_eq!(optimal_rice_param(1.0), 0);
        let k10 = optimal_rice_param(10.0);
        let k1000 = optimal_rice_param(1000.0);
        assert!((2..=4).contains(&k10), "k for mean 10: {k10}");
        assert!(k1000 > k10);
    }

    #[test]
    fn unary_rejects_runaway() {
        // All-ones buffer: unary code never terminates.
        let bytes = vec![0xffu8; 4];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_unary().is_err());
    }
}
