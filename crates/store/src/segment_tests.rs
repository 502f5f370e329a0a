//! A segment's encodings against a never-flushed twin: each flush and
//! split chooses every encoding and its fallback from the rows it copies
//! (see [`crate::segment`]), and a region reads, bills and thaws alike
//! either way.

use super::*;
use crate::region_oracle::KEYS;

fn fams() -> Vec<Arc<str>> {
    vec!["a".into(), "b".into()]
}

/// Applies `m` (family `family`) to row `row` of [`KEYS`] in a region and of
/// its never-flushed twin, with the clock at `now`.
fn apply_both(twins: &mut [Region; 2], row: u8, family: usize, m: &Mutation, now: u64) {
    let key = KEYS[usize::from(row)];
    for region in twins {
        region.mutate_row(key, [(family, m)], now, &fams());
    }
}

/// Puts `family:qualifier` of row `row` at `ts` into both twins.
fn put_both(twins: &mut [Region; 2], row: u8, family: usize, qualifier: &[u8], ts: u64) {
    let name = &fams()[family];
    let m = Mutation::put_at(name, qualifier, vec![row; 1 + qualifier.len()], ts);
    apply_both(twins, row, family, &m, ts);
}

/// Puts `count` columns of family `a`, each a name of its own, into
/// row `row` of both twins.
fn put_names(twins: &mut [Region; 2], row: u8, count: u8, ts: u64) {
    for i in 0..count {
        put_both(twins, row, 0, &[row, i], ts);
    }
}

/// Splits both twins at `r2`; returns their upper halves.
fn split_both(twins: &mut [Region; 2]) -> [Region; 2] {
    twins
        .each_mut()
        .map(|region| region.split_off(b"r\x02", 1, &fams()))
}

fn assert_alike([plain, flushed]: &[Region; 2]) {
    let mut batches = [RowBatch::new(), RowBatch::new()];
    let alike = crate::region_oracle::assert_reads_alike(plain, flushed, &fams(), &mut batches);
    assert!(alike.is_ok(), "{alike:?}");
}

/// A segment with more than 256 names keeps each qualifier in its
/// arena; a split half with fewer re-encodes with a dictionary. A row
/// thawed from the dictionary flushes back alike, and a frozen
/// tombstone is found by its arena qualifier and purged.
#[test]
fn a_split_half_with_few_names_re_encodes_with_a_dictionary() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..5 {
        put_names(&mut twins, row, 100, 10);
    }
    let delete = Mutation::delete_at("a", &[4, 50], 11);
    apply_both(&mut twins, 4, 0, &delete, 11);
    twins[1].flush();
    let arena = "qualifier widths, u16 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), arena);
    assert_alike(&twins);

    let mut uppers = split_both(&mut twins);
    let coded = "dictionary, u16 deltas, column ends, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), coded, "200 names");
    assert_eq!(uppers[1].segment.encodings(), arena, "300 names");
    assert_alike(&twins);
    assert_alike(&uppers);

    put_both(&mut twins, 1, 1, b"new", 20);
    assert!(twins[1].segment.is_moved(1));
    assert_alike(&twins);
    twins[1].flush();
    let coded = "dictionary, u16 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), coded);
    assert_alike(&twins);

    let now = 12 + TOMBSTONE_GRACE_TICKS;
    put_both(&mut uppers, 2, 0, &[2, 0], now);
    assert!(uppers[1].purge_queue.is_empty());
    assert_eq!(uppers[1].memstore.len(), 2, "the purge thawed row r4");
    assert_alike(&uppers);
}

/// A flush chooses the dictionary from the names it freezes: a coded
/// segment merged with a memstore that brings it past 256 names drops
/// it, and a flush after purges have left fewer takes it up again.
#[test]
fn a_flush_chooses_the_dictionary_from_the_names_it_freezes() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_names(&mut twins, 0, 100, 10);
    put_names(&mut twins, 1, 100, 10);
    twins[1].flush();
    let coded = "dictionary, u16 deltas, column ends, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), coded);
    put_names(&mut twins, 2, 100, 20);
    assert_alike(&twins);
    twins[1].flush();
    let arena = "qualifier widths, u16 deltas, column ends, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), arena, "300 names");
    assert_alike(&twins);

    for i in 0..100 {
        apply_both(&mut twins, 0, 0, &Mutation::delete_at("a", &[0, i], 30), 30);
    }
    assert_alike(&twins);
    put_both(&mut twins, 1, 0, &[1, 0], 31 + TOMBSTONE_GRACE_TICKS);
    assert_eq!(twins[1].row_count(), 2, "row r0 was purged");
    assert_alike(&twins);
    twins[1].flush();
    let coded = "dictionary, u16 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), coded, "200 names");
    assert_alike(&twins);
}

/// A segment whose rows each hold one column leaves out its column
/// ends. A flush that freezes a wider row keeps them, and a split half
/// of one-column rows leaves them out again.
#[test]
fn one_column_rows_leave_out_column_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..5 {
        put_both(&mut twins, row, 0, b"q", 10);
    }
    twins[1].flush();
    let single = "dictionary, u16 deltas, one column per row, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), single);
    assert_alike(&twins);

    put_both(&mut twins, 1, 1, b"q", 11);
    assert_alike(&twins);
    twins[1].flush();
    let mixed = "dictionary, u16 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), mixed);
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(twins[1].segment.encodings(), mixed, "row r1 has two");
    assert_eq!(uppers[1].segment.encodings(), single);
    assert_alike(&twins);
    assert_alike(&uppers);
}

/// Timestamps more than 2^32 apart are stored as `u64` deltas: a flush
/// that brings a far one in widens them, a row thawed from such a
/// segment keeps its timestamps (a write older than one is dropped), and
/// a split half whose timestamps are close stores narrow deltas again.
#[test]
fn timestamps_too_far_apart_for_deltas_are_stored_whole() {
    const FAR: u64 = 10 + (1 << 33);
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_both(&mut twins, 0, 0, b"q", 10);
    put_both(&mut twins, 1, 1, b"q", 11);
    twins[1].flush();
    let deltas = "dictionary, u16 deltas, one column per row, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), deltas);
    put_both(&mut twins, 3, 0, b"q", FAR);
    put_both(&mut twins, 4, 0, b"q", FAR + 1);
    twins[1].flush();
    let wide = "dictionary, u64 deltas, one column per row, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), wide);
    assert_alike(&twins);

    let stale = Mutation::put_at("a", b"q", b"stale".to_vec(), FAR - 1);
    apply_both(&mut twins, 3, 0, &stale, FAR + 2);
    put_both(&mut twins, 0, 1, b"r", 12);
    assert!(twins[1].segment.is_moved(0) && twins[1].segment.is_moved(2));
    assert_alike(&twins);
    twins[1].flush();
    let wide = "dictionary, u64 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), wide);
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    let lower = "dictionary, u16 deltas, column ends, key width, column timestamps";
    assert_eq!(twins[1].segment.encodings(), lower);
    assert_eq!(uppers[1].segment.encodings(), deltas);
    assert_alike(&twins);
    assert_alike(&uppers);
}

/// Puts `q` into both families of row `row` of both twins at `ts`, in
/// one call: a row written whole, with one timestamp.
fn put_row_both(twins: &mut [Region; 2], row: u8, ts: u64) {
    let puts = [0, 1].map(|family| Mutation::put_at(&fams()[family], b"q", vec![row; 2], ts));
    let key = KEYS[usize::from(row)];
    for region in twins {
        region.mutate_row(key, [(0, &puts[0]), (1, &puts[1])], ts, &fams());
    }
}

/// Row 5's key is a byte longer than the others': a segment that holds
/// it keeps key ends, and one without it, a split half among them,
/// reads every key at one width.
#[test]
fn variable_width_keys_keep_key_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..4 {
        put_both(&mut twins, row, 0, b"q", 10);
    }
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, one column per row, key width, row timestamps"
    );
    assert_alike(&twins);

    put_both(&mut twins, 5, 1, b"q", 11);
    put_both(&mut twins, 2, 1, b"q", 12);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key ends, column timestamps"
    );
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, one column per row, key width, row timestamps"
    );
    assert_eq!(
        uppers[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key ends, column timestamps"
    );
    assert_alike(&twins);
    assert_alike(&uppers);
}

/// Without a dictionary, a segment keeps one qualifier width per family
/// while each family's qualifiers share one, whatever the widths of the
/// other families; a family with two widths keeps qualifier ends, and a
/// frozen tombstone is found among them and purged.
#[test]
fn a_family_with_two_qualifier_widths_keeps_qualifier_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..3 {
        put_names(&mut twins, row, 100, 10);
    }
    put_both(&mut twins, 3, 1, b"qqq", 10);
    let delete = Mutation::delete_at("a", &[2, 50], 11);
    apply_both(&mut twins, 2, 0, &delete, 11);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "qualifier widths, u16 deltas, column ends, key width, column timestamps"
    );
    assert_alike(&twins);

    put_both(&mut twins, 1, 0, b"q", 12);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "qualifier ends, u16 deltas, column ends, key width, column timestamps"
    );
    assert_alike(&twins);

    put_both(&mut twins, 0, 0, &[0, 0], 13 + TOMBSTONE_GRACE_TICKS);
    assert!(twins[1].purge_queue.is_empty());
    assert_eq!(twins[1].memstore.len(), 2, "the purge thawed row r2");
    assert_alike(&twins);
}

/// A segment whose rows are each written whole keeps one timestamp per
/// row; a row whose columns carry two timestamps makes it keep one per
/// column, and a split half without that row takes one per row again.
#[test]
fn a_row_with_two_timestamps_keeps_them_per_column() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_row_both(&mut twins, 0, 10);
    put_row_both(&mut twins, 1, 10);
    put_row_both(&mut twins, 3, 20);
    twins[1].flush();
    let per_row = "dictionary, u16 deltas, column ends, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), per_row);
    assert_alike(&twins);

    put_both(&mut twins, 0, 1, b"q", 11);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key width, column timestamps"
    );
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key width, column timestamps"
    );
    assert_eq!(uppers[1].segment.encodings(), per_row);
    assert_alike(&twins);
    assert_alike(&uppers);
}

/// A row thawed from a segment of one timestamp per row keeps the
/// timestamp its columns decode to: a write older than it is dropped and
/// keeps its column, one at it or newer replaces it, in the same call,
/// and a tombstone stored over a frozen column under its own handle
/// purges alike. A span past 16 bits takes `u32` deltas.
#[test]
fn a_stale_write_to_a_thawed_row_is_dropped_against_its_decoded_timestamp() {
    const FAR: u64 = 20 + (1 << 20);
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_row_both(&mut twins, 0, 10);
    put_row_both(&mut twins, 1, FAR);
    twins[1].flush();
    let wide = "dictionary, u32 deltas, column ends, key width, row timestamps";
    assert_eq!(twins[1].segment.encodings(), wide);

    let stale = Mutation::put_at("a", b"q", b"stale".to_vec(), FAR - 1);
    let equal = Mutation::delete_at("b", b"q", FAR);
    for region in &mut twins {
        region.mutate_row(KEYS[1], [(0, &stale), (1, &equal)], FAR + 1, &fams());
    }
    assert!(twins[1].segment.is_moved(1));
    let Some(row) = twins[1].memstore.get(KEYS[1]) else {
        panic!("the write thawed row r1");
    };
    assert_eq!(row.columns.len(), 2);
    assert_eq!(
        row.columns[0].value.as_deref(),
        Some(&[1, 1][..]),
        "dropped"
    );
    assert!(std::ptr::eq(
        &row.columns[1].qualifier[..],
        &qualifier_of(&equal)[..]
    ));
    assert_alike(&twins);

    let stale = Mutation::put_at("a", b"q", b"stale".to_vec(), 9);
    let newer = Mutation::put_at("a", b"q", b"newer".to_vec(), 11);
    for region in &mut twins {
        region.mutate_row(KEYS[0], [(0, &stale), (0, &newer)], 12, &fams());
    }
    assert_alike(&twins);
    twins[1].flush();
    assert_alike(&twins);
    put_both(&mut twins, 2, 0, b"q", FAR + 2 + TOMBSTONE_GRACE_TICKS);
    assert_eq!(twins[1].row_count(), 3, "row r1 kept its put");
    assert_alike(&twins);
}

/// The handle `m` holds its qualifier in.
fn qualifier_of(m: &Mutation) -> &Bytes {
    match m {
        Mutation::Put { qualifier, .. } | Mutation::Delete { qualifier, .. } => qualifier,
    }
}
