//! The index cell codec on bytes nobody encoded. Every tuple HRJN or BFHM
//! ingests goes through `decode_values_score` (or its one-edge form), and
//! since the layout carries no count word its arity check is the only
//! guard: whatever the bytes and whatever edge count the reader expects,
//! the answer is a typed `CodecError` or a cell that re-encodes to exactly
//! the bytes it was read from — never a panic, never a field read past the
//! end.

use proptest::prelude::*;

use rj_core::codec::{decode_one_value_score, decode_values_score, encode_values_score};

proptest! {
    #[test]
    fn cell_decode_survives_arbitrary_and_mutated_bytes(
        arbitrary in prop::collection::vec(any::<u8>(), 0..64),
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..5),
        score_bits in any::<u64>(),
        mutations in prop::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        cut in any::<u16>(),
    ) {
        // Any bit pattern is a score the codec must carry, NaNs included.
        let valid = encode_values_score(&values, f64::from_bits(score_bits));
        let (fields, score) = decode_values_score(&valid, values.len()).unwrap();
        prop_assert_eq!(fields.collect::<Vec<_>>(), values.iter().map(Vec::as_slice).collect::<Vec<_>>());
        prop_assert_eq!(score.to_bits(), score_bits);

        let mut mutated = valid.to_vec();
        for (at, byte) in &mutations {
            let at = usize::from(*at) % mutated.len();
            mutated[at] = *byte;
        }
        let truncated = &valid[..usize::from(cut) % (valid.len() + 1)];
        // A genuine score in front of arbitrary bytes gets past the first
        // field, so the length prefixes are what is fuzzed.
        let mut headed = valid[..8].to_vec();
        headed.extend_from_slice(&arbitrary);
        for bytes in [&arbitrary[..], &mutated[..], truncated, &headed[..]] {
            for edges in 0..=4 {
                match decode_values_score(bytes, edges) {
                    Ok((fields, score)) => {
                        let fields: Vec<&[u8]> = fields.collect();
                        prop_assert_eq!(fields.len(), edges);
                        prop_assert_eq!(encode_values_score(&fields, score), bytes.to_vec());
                    }
                    Err(e) => prop_assert!(e.to_string().starts_with("codec error"), "{}", e),
                }
            }
            if let Ok((value, score)) = decode_one_value_score(bytes) {
                prop_assert_eq!(encode_values_score(&[value], score), bytes.to_vec());
            }
        }
    }
}

#[test]
fn a_length_prefix_past_the_cell_is_an_error() {
    let mut cell = 0.5f64.to_be_bytes().to_vec();
    cell.extend_from_slice(&u32::MAX.to_be_bytes());
    cell.extend_from_slice(b"short");
    for edges in 1..=4 {
        assert!(decode_values_score(&cell, edges).is_err(), "{edges} edges");
    }
    assert!(decode_one_value_score(&cell).is_err());
    // Zero edges reads the score and refuses the rest.
    assert!(decode_values_score(&cell, 0).is_err());
}
