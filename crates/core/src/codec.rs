//! Wire encodings for records the algorithms ship between stages:
//! tagged join inputs, joined tuples, and index cell payloads.
//!
//! Simple length-prefixed framing: each field is `u32 BE length ‖ bytes`.
//! Fixed-width scalars (scores, tags) are encoded raw. The codecs are
//! deliberately byte-exact — network/byte metrics in the experiments are
//! only meaningful if record sizes are real.

use rj_store::Bytes;

use crate::result::JoinTuple;

/// Encoding/decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Appends a length-prefixed field.
pub fn put_field(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_be_bytes());
    out.extend_from_slice(field);
}

/// Appends an f64.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Reading cursor over an encoded record.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reads a length-prefixed field.
    pub fn field(&mut self) -> Result<&'a [u8], CodecError> {
        let len_bytes = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(CodecError("truncated length"))?;
        let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        self.pos += 4;
        let field = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or(CodecError("truncated field"))?;
        self.pos += len;
        Ok(field)
    }

    /// Reads an f64.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(CodecError("truncated f64"))?;
        self.pos += 8;
        Ok(f64::from_be_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError("truncated u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Whether the record is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A join input tuple tagged with its side (the Hive/Pig shuffle record).
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedTuple {
    /// 0 = left relation, 1 = right.
    pub side: u8,
    /// Base row key.
    pub row_key: Vec<u8>,
    /// Individual score.
    pub score: f64,
    /// Extra shipped payload (full-row bytes for Hive; empty for Pig's
    /// early-projected records).
    pub payload: Vec<u8>,
}

impl TaggedTuple {
    /// Encodes the tuple.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.row_key.len() + self.payload.len() + 16);
        out.push(self.side);
        put_f64(&mut out, self.score);
        put_field(&mut out, &self.row_key);
        put_field(&mut out, &self.payload);
        out
    }

    /// Decodes a tuple.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let side = r.u8()?;
        let score = r.f64()?;
        let row_key = r.field()?.to_vec();
        let payload = r.field()?.to_vec();
        Ok(TaggedTuple {
            side,
            row_key,
            score,
            payload,
        })
    }
}

/// Encodes a full [`JoinTuple`] (the joined-record files of Hive/Pig and
/// the shuffle values of IJLMR's reduce stage).
pub fn encode_join_tuple(t: &JoinTuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.left_key.len() + t.right_key.len() + 40);
    put_f64(&mut out, t.score);
    put_f64(&mut out, t.left_score);
    put_f64(&mut out, t.right_score);
    put_field(&mut out, &t.join_value);
    put_field(&mut out, &t.left_key);
    put_field(&mut out, &t.right_key);
    out
}

/// Inverse of [`encode_join_tuple`].
pub fn decode_join_tuple(buf: &[u8]) -> Result<JoinTuple, CodecError> {
    let mut r = Reader::new(buf);
    let score = r.f64()?;
    let left_score = r.f64()?;
    let right_score = r.f64()?;
    let join_value = r.field()?.to_vec();
    let left_key = r.field()?.to_vec();
    let right_key = r.field()?.to_vec();
    Ok(JoinTuple {
        left_key,
        right_key,
        join_value,
        left_score,
        right_score,
        inner: Vec::new(),
        score,
    })
}

/// Encodes an index cell value: `score ‖ field ‖ field …` — the exact
/// score, then one length-prefixed join value per join edge incident to
/// the cell's side (edge order fixed by
/// [`crate::query::JoinSpec::incident_edges`]). There is **no count
/// word**: the reader knows the side's edge count from its spec and
/// [`decode_values_score`] checks the cell against it, so a one-edge
/// cell is byte-for-byte the classic `(score, join value)` pair of the
/// paper's ISL index (Algorithm 3) and BFHM reverse mapping (§5.1
/// Fig. 5).
/// One allocation: the buffer the store keeps, which a §6 insert shares
/// among its ISL cell, BFHM record and reverse-mapping cell.
pub fn encode_values_score<V: AsRef<[u8]>>(join_values: &[V], score: f64) -> Bytes {
    let values = join_values.iter().map(AsRef::as_ref);
    let len = 8 + values.clone().map(|v| 4 + v.len()).sum::<usize>();
    let fields = values.flat_map(|v| {
        let prefix = (v.len() as u32).to_be_bytes();
        prefix.into_iter().chain(v.iter().copied())
    });
    let mut bytes = score.to_be_bytes().into_iter().chain(fields);
    // Drawn through an exact-length range: allocated once, at its size.
    (0..len).map(|_| bytes.next().unwrap_or_default()).collect()
}

/// [`encode_values_score`] for a side with exactly one join edge — every
/// binary index cell.
pub fn encode_value_score(join_value: &[u8], score: f64) -> Bytes {
    encode_values_score(&[join_value], score)
}

/// The join values of a cell [`decode_values_score`] already validated,
/// borrowed from the cell in edge order.
pub struct JoinValues<'a> {
    reader: Reader<'a>,
    remaining: usize,
}

impl<'a> Iterator for JoinValues<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.remaining = self.remaining.checked_sub(1)?;
        self.reader.field().ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for JoinValues<'_> {}

/// Inverse of [`encode_values_score`] for a side with `edges` incident
/// join edges, copying nothing. A cell with fewer fields, more fields or
/// trailing bytes is a [`CodecError`] — it was written for a different
/// spec (or is corrupt) and must not be joined on.
pub fn decode_values_score(buf: &[u8], edges: usize) -> Result<(JoinValues<'_>, f64), CodecError> {
    let mut r = Reader::new(buf);
    let score = r.f64()?;
    let values = JoinValues {
        reader: Reader {
            buf: r.buf,
            pos: r.pos,
        },
        remaining: edges,
    };
    for _ in 0..edges {
        r.field()
            .map_err(|_| CodecError("index cell has fewer join values than its side has edges"))?;
    }
    if !r.is_exhausted() {
        return Err(CodecError(
            "index cell has more join values than its side has edges",
        ));
    }
    Ok((values, score))
}

/// [`decode_values_score`] for a side with exactly one join edge — every
/// binary index cell: the inverse of [`encode_value_score`], borrowing
/// the join value from the cell.
pub fn decode_one_value_score(buf: &[u8]) -> Result<(&[u8], f64), CodecError> {
    let (mut values, score) = decode_values_score(buf, 1)?;
    let join_value = values.next().ok_or(CodecError("truncated field"))?;
    Ok((join_value, score))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_tuple_roundtrip() {
        let t = TaggedTuple {
            side: 1,
            row_key: b"r123".to_vec(),
            score: 0.82,
            payload: b"full row bytes".to_vec(),
        };
        assert_eq!(TaggedTuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn join_tuple_roundtrip() {
        let t = JoinTuple {
            left_key: b"l".to_vec(),
            right_key: b"r".to_vec(),
            join_value: b"d".to_vec(),
            left_score: 0.82,
            right_score: 0.91,
            inner: Vec::new(),
            score: 1.73,
        };
        assert_eq!(decode_join_tuple(&encode_join_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn value_score_roundtrip() {
        let cell = encode_value_score(b"dval", 0.41);
        let (j, s) = decode_one_value_score(&cell).unwrap();
        assert_eq!(j, b"dval");
        assert_eq!(s, 0.41);
    }

    #[test]
    fn values_score_roundtrip_against_the_edge_count() {
        let vals = vec![b"e0".to_vec(), b"edge-1".to_vec(), Vec::new()];
        let enc = encode_values_score(&vals, 0.63);
        let (got, s) = decode_values_score(&enc, 3).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.collect::<Vec<_>>(), vals);
        assert_eq!(s, 0.63);
        // Zero edges is legal (a single-side degenerate read).
        let none: [&[u8]; 0] = [];
        let bare = encode_values_score(&none, 1.0);
        let (got, s) = decode_values_score(&bare, 0).unwrap();
        assert_eq!(got.count(), 0);
        assert_eq!(s, 1.0);
        // The edge count the spec expects is the check the layout carries
        // no count word for: too few, too many, trailing garbage and
        // truncation all fail loudly.
        assert!(
            decode_values_score(&enc, 2).is_err(),
            "cell has one too many"
        );
        assert!(
            decode_values_score(&enc, 4).is_err(),
            "cell has one too few"
        );
        let mut bad = enc.to_vec();
        bad.push(0);
        assert!(decode_values_score(&bad, 3).is_err());
        assert!(decode_values_score(&enc[..enc.len() - 1], 3).is_err());
    }

    #[test]
    fn one_edge_cell_is_the_binary_value_score_pair() {
        let cell = encode_values_score(&[b"dval"], 0.41);
        assert_eq!(cell, encode_value_score(b"dval", 0.41));
        // score ‖ u32 length ‖ bytes — nothing else.
        assert_eq!(cell.len(), 8 + 4 + 4);
        assert_eq!(decode_one_value_score(&cell), Ok((&b"dval"[..], 0.41)));
        let mut trailing = cell.to_vec();
        trailing.push(7);
        assert!(decode_one_value_score(&trailing).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let t = TaggedTuple {
            side: 0,
            row_key: b"rk".to_vec(),
            score: 1.0,
            payload: vec![],
        };
        let enc = t.encode();
        for cut in [0, 1, 5, enc.len() - 1] {
            assert!(TaggedTuple::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_fields_are_fine() {
        let cell = encode_value_score(b"", 0.0);
        let (j, s) = decode_one_value_score(&cell).unwrap();
        assert!(j.is_empty());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn reader_exhaustion_tracking() {
        let mut out = Vec::new();
        put_field(&mut out, b"x");
        let mut r = Reader::new(&out);
        assert!(!r.is_exhausted());
        r.field().unwrap();
        assert!(r.is_exhausted());
    }
}
