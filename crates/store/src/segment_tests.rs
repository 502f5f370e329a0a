//! A segment's encodings against a never-flushed twin: each flush and
//! split chooses every encoding and its fallback from the rows it copies
//! (see [`crate::segment`]), and a region reads, bills and thaws alike
//! either way. Then a frozen row follows through its thaw and a frozen
//! tombstone through its purge, and last a bulk-loaded table is held to
//! its put-then-flush twin (see [`crate::bulk`]).

use super::tests::{apply, assert_accounting_matches_a_recount, value_of};
use super::*;
use crate::bulk::BulkLoad;
use crate::client::Client;
use crate::cluster::Cluster;
use crate::costmodel::CostModel;
use crate::region_oracle::KEYS;

fn fams() -> Vec<Arc<str>> {
    vec!["a".into(), "b".into()]
}

/// Applies `m` (family `family`) to row `row` of [`KEYS`] in a region and of
/// its never-flushed twin, with the clock at `now`.
fn apply_both(twins: &mut [Region; 2], row: u8, family: usize, m: &Mutation, now: u64) {
    apply_key_both(twins, KEYS[usize::from(row)], family, m, now);
}

/// Applies `m` (family `family`) to row `key` of both twins.
fn apply_key_both(twins: &mut [Region; 2], key: &[u8], family: usize, m: &Mutation, now: u64) {
    for region in twins {
        region.mutate_row(key, [(family, m)], now, &fams());
    }
}

/// Puts a value of `len` bytes into `family:qualifier` of row `key` of
/// both twins at `ts`.
fn put_key_both(twins: &mut [Region; 2], key: &[u8], family: usize, qualifier: &[u8], len: usize) {
    let m = Mutation::put_at(&fams()[family], qualifier, vec![key[0]; len], 10);
    apply_key_both(twins, key, family, &m, 10);
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
    let arena = "qualifier widths, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), arena);
    assert_alike(&twins);

    let mut uppers = split_both(&mut twins);
    let coded = "dictionary, u16 deltas, column ends, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), coded, "200 names");
    assert_eq!(uppers[1].segment.encodings(), arena, "300 names");
    assert_alike(&twins);
    assert_alike(&uppers);

    put_both(&mut twins, 1, 1, b"new", 20);
    assert!(twins[1].segment.is_moved(1));
    assert_alike(&twins);
    twins[1].flush();
    let coded = "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), coded);
    assert_alike(&twins);

    let now = 12 + TOMBSTONE_GRACE_TICKS;
    put_both(&mut uppers, 2, 0, &[2, 0], now);
    assert!(uppers[1].purge_queue.is_empty());
    assert_eq!(
        uppers[1].memstore.iter().len(),
        2,
        "the purge thawed row r4"
    );
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
    let coded = "dictionary, u16 deltas, column ends, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), coded);
    put_names(&mut twins, 2, 100, 20);
    assert_alike(&twins);
    twins[1].flush();
    let arena = "qualifier widths, u16 deltas, column ends, key width, row timestamps, u16 value ends, 1-byte prefix";
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
    let coded = "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), coded, "200 names");
    assert_alike(&twins);
}

/// A segment whose rows each hold one column, of alternating families
/// as an index's do, leaves out its column ends. A flush that freezes a
/// wider row keeps them, and a split half of one-column rows leaves them
/// out again.
#[test]
fn one_column_rows_leave_out_column_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..5 {
        put_both(&mut twins, row, usize::from(row % 2), b"q", 10);
    }
    twins[1].flush();
    let single = "dictionary, u16 deltas, one column per row, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), single);
    assert_alike(&twins);

    put_both(&mut twins, 1, 0, b"q", 11);
    assert_alike(&twins);
    twins[1].flush();
    let mixed = "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
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
    let deltas = "dictionary, u16 deltas, one column per row, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), deltas);
    put_both(&mut twins, 3, 0, b"q", FAR);
    put_both(&mut twins, 4, 0, b"q", FAR + 1);
    twins[1].flush();
    let wide = "dictionary, u64 deltas, one column per row, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), wide);
    assert_alike(&twins);

    let stale = Mutation::put_at("a", b"q", b"stale".to_vec(), FAR - 1);
    apply_both(&mut twins, 3, 0, &stale, FAR + 2);
    put_both(&mut twins, 0, 1, b"r", 12);
    assert!(twins[1].segment.is_moved(0) && twins[1].segment.is_moved(2));
    assert_alike(&twins);
    twins[1].flush();
    let wide = "dictionary, u64 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), wide);
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    let lower = "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), lower);
    let upper = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(
        uppers[1].segment.encodings(),
        upper,
        "rows r3 and r4 hold a:q"
    );
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
        "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix"
    );
    assert_alike(&twins);

    put_both(&mut twins, 5, 1, b"q", 11);
    put_both(&mut twins, 2, 1, b"q", 12);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key ends, column timestamps, u16 value ends, 1-byte prefix"
    );
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix"
    );
    assert_eq!(
        uppers[1].segment.encodings(),
        "dictionary, u16 deltas, column ends, key ends, column timestamps, u16 value ends, 1-byte prefix"
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
        "qualifier widths, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix"
    );
    assert_alike(&twins);

    put_both(&mut twins, 1, 0, b"q", 12);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "qualifier ends, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix"
    );
    assert_alike(&twins);

    put_both(&mut twins, 0, 0, &[0, 0], 13 + TOMBSTONE_GRACE_TICKS);
    assert!(twins[1].purge_queue.is_empty());
    assert_eq!(twins[1].memstore.iter().len(), 2, "the purge thawed row r2");
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
    let per_row = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), per_row);
    assert_alike(&twins);

    put_both(&mut twins, 0, 1, b"q", 11);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, row shape, key width, column timestamps, u16 value ends, 1-byte prefix"
    );
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(
        twins[1].segment.encodings(),
        "dictionary, u16 deltas, row shape, key width, column timestamps, u16 value ends, 1-byte prefix"
    );
    let one_row = per_row.replace("1-byte prefix", "2-byte prefix");
    assert_eq!(uppers[1].segment.encodings(), one_row, "row r3 alone");
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
    let wide = "dictionary, u32 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
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

/// Rows of two shapes keep a code per column and column ends: a first
/// row shorter than the rest, a later one shorter than the first, or a
/// row naming one column otherwise. A split half whose rows share one
/// shape stores its codes once.
#[test]
fn rows_of_two_shapes_keep_codes_and_column_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_both(&mut twins, 0, 0, b"q", 10);
    for row in 1..4 {
        put_row_both(&mut twins, row, 10);
    }
    twins[1].flush();
    let two = "dictionary, u16 deltas, column ends, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), two, "row r0 holds a:q alone");
    assert_alike(&twins);

    let mut uppers = split_both(&mut twins);
    assert_eq!(twins[1].segment.encodings(), two);
    let shaped = two.replace("column ends", "row shape");
    assert_eq!(uppers[1].segment.encodings(), shaped, "rows r2 and r3");
    assert_alike(&twins);
    assert_alike(&uppers);

    let other = [(0, b"r"), (1, b"q")].map(|(f, q)| Mutation::put_at(&fams()[f], q, vec![4], 11));
    for region in &mut uppers {
        region.mutate_row(KEYS[4], [(0, &other[0]), (1, &other[1])], 11, &fams());
    }
    uppers[1].flush();
    assert_eq!(uppers[1].segment.encodings(), two, "row r4 holds a:r, b:q");
    assert_alike(&uppers);

    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_row_both(&mut twins, 0, 10);
    put_both(&mut twins, 1, 0, b"q", 10);
    twins[1].flush();
    assert_eq!(twins[1].segment.encodings(), two, "row r1 holds a:q alone");
    assert_alike(&twins);
}

/// Value ends are kept in blocks of 256, each a `u32` base and a `u16`
/// offset per column, while every block spans less than 64 KiB, however
/// far the arena runs; a block that spans 64 KiB or more keeps a `u32`
/// end per column, and a split half whose blocks fit goes back to
/// blocks.
#[test]
fn a_block_spanning_64_kib_keeps_u32_value_ends() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for (key, i) in KEYS[..4]
        .iter()
        .flat_map(|key| (0..100).map(move |i| (key, i)))
    {
        put_key_both(&mut twins, key, 0, &[i], 200);
    }
    twins[1].flush();
    let blocks = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(
        twins[1].segment.encodings(),
        blocks,
        "80 000 bytes, 51 200 in a block"
    );
    assert_alike(&twins);

    put_key_both(&mut twins, KEYS[1], 1, b"q", 20_000);
    twins[1].flush();
    let wide = "dictionary, u16 deltas, column ends, key width, row timestamps, u32 value ends, 1-byte prefix";
    assert_eq!(
        twins[1].segment.encodings(),
        wide,
        "71 000 bytes in the first block"
    );
    assert_alike(&twins);

    let uppers = split_both(&mut twins);
    assert_eq!(
        twins[1].segment.encodings(),
        blocks.replace("row shape", "column ends")
    );
    assert_eq!(uppers[1].segment.encodings(), blocks);
    assert_alike(&twins);
    assert_alike(&uppers);

    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_key_both(&mut twins, KEYS[0], 0, b"q", usize::from(u16::MAX));
    twins[1].flush();
    let one_row = blocks.replace("1-byte prefix", "2-byte prefix");
    assert_eq!(twins[1].segment.encodings(), one_row, "65 535 bytes");
    put_key_both(&mut twins, KEYS[1], 0, b"q", 1);
    twins[1].flush();
    assert_eq!(
        twins[1].segment.encodings(),
        wide.replace("column ends", "row shape"),
        "65 536"
    );
    assert_alike(&twins);
}

/// A one-row segment's prefix is its whole key, and its suffix is
/// empty: reads from keys short of it, inside it and past it find the
/// row or miss it as a memstore does.
#[test]
fn a_one_row_segment_keeps_its_whole_key_as_its_prefix() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    put_row_both(&mut twins, 5, 10);
    twins[1].flush();
    let whole = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 3-byte prefix";
    assert_eq!(twins[1].segment.encodings(), whole);
    assert_alike(&twins);

    put_row_both(&mut twins, 5, 11);
    assert!(twins[1].segment.is_moved(0));
    assert_alike(&twins);
    twins[1].flush();
    assert_eq!(twins[1].segment.encodings(), whole);
    assert_alike(&twins);
}

/// Keys that share no first byte leave the prefix empty.
#[test]
fn keys_with_no_common_prefix_are_kept_whole() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for key in [&b"a"[..], b"r\x02", b"z\x00\x01"] {
        put_key_both(&mut twins, key, 0, b"q", 3);
    }
    twins[1].flush();
    let none = "dictionary, u16 deltas, row shape, key ends, row timestamps, u16 value ends, 0-byte prefix";
    assert_eq!(twins[1].segment.encodings(), none);
    assert_alike(&twins);
    let (row, _) = twins[1].get_owned(b"z\x00\x01", &fams(), None);
    assert_eq!(row.map(|row| row.key), Some(b"z\x00\x01".to_vec()));
}

/// A point read and a scan from a key shorter than the segment's
/// prefix, or one that leaves it inside it, land before or after every
/// row without a search, and a key that runs past a row's lands after
/// it.
#[test]
fn reads_from_keys_short_of_or_diverging_inside_the_prefix() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for key in [&b"kab1"[..], b"kab2", b"kab3"] {
        put_key_both(&mut twins, key, 0, b"q", 3);
    }
    twins[1].flush();
    let prefixed = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 3-byte prefix";
    assert_eq!(twins[1].segment.encodings(), prefixed);
    let all = [&b"kab1"[..], b"kab2", b"kab3"];
    for (from, want) in [
        (&b"k"[..], &all[..]),
        (b"kaa\xff", &all[..]),
        (b"kab", &all[..]),
        (b"kab1\x00", &all[1..]),
        (b"kac", &[][..]),
        (b"kb", &[][..]),
    ] {
        for region in &twins {
            let (row, _) = region.get_owned(from, &fams(), None);
            assert!(row.is_none(), "no row {from:?}");
            let (rows, _, _) = region.scan_owned(from, None, &fams(), None, None, 10);
            let keys: Vec<_> = rows.iter().map(|row| &row.key[..]).collect();
            assert_eq!(keys, want, "scan from {from:?}");
        }
    }
    let stop = Some(&b"kab2"[..]);
    let (rows, _, _) = twins[1].scan_owned(b"kaa", stop, &fams(), None, None, 10);
    assert_eq!(rows.len(), 1, "the stop key splits at the prefix too");
    assert_alike(&twins);
}

/// A split copies each half into a segment of its own, which picks the
/// longer prefix its own keys share.
#[test]
fn a_split_half_picks_the_longer_prefix_its_keys_share() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for key in [&b"ka1"[..], b"ka2", b"kb1", b"kb2"] {
        put_key_both(&mut twins, key, 0, b"q", 3);
    }
    twins[1].flush();
    let short = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), short);
    let uppers = twins
        .each_mut()
        .map(|region| region.split_off(b"kb", 1, &fams()));
    let long = short.replace("1-byte prefix", "2-byte prefix");
    assert_eq!(twins[1].segment.encodings(), long);
    assert_eq!(uppers[1].segment.encodings(), long);
    assert_eq!(uppers[1].split_point(), Some(b"kb2".to_vec()));
    assert_alike(&twins);
    assert_alike(&uppers);
}

/// A row of a shaped segment thaws and takes writes as any frozen row:
/// a stale write keeps the copied column, a new column widens the row,
/// and the flush after it, with two shapes, keeps column ends.
#[test]
fn a_row_of_a_shaped_segment_thaws_and_drops_a_stale_write() {
    let mut twins = [Region::new(vec![], 0), Region::new(vec![], 0)];
    for row in 0..4 {
        put_row_both(&mut twins, row, 10 + u64::from(row));
    }
    twins[1].flush();
    let shaped = "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(twins[1].segment.encodings(), shaped);

    let stale = Mutation::put_at("b", b"q", b"stale".to_vec(), 9);
    apply_both(&mut twins, 2, 1, &stale, 20);
    assert!(twins[1].segment.is_moved(2));
    let Some(row) = twins[1].memstore.get(KEYS[2]) else {
        panic!("the stale write thawed row r2");
    };
    assert_eq!(
        row.columns[1].value.as_deref(),
        Some(&[2, 2][..]),
        "dropped"
    );
    put_both(&mut twins, 3, 0, b"r", 21);
    assert_alike(&twins);

    twins[1].flush();
    let two = "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix";
    assert_eq!(
        twins[1].segment.encodings(),
        two,
        "row r3 holds a:q, a:r, b:q"
    );
    assert_alike(&twins);
}

/// §6's delete over loaded data: the tombstone replaces the frozen
/// column in the row the delete moved into the memstore, and once its
/// grace window has passed, purging it deletes the column and the
/// emptied row. The old value does not resurface, neither in the
/// region nor after a later flush, and a put older than the purged
/// tombstone then lands as on a never-written column (the documented
/// limit of the window).
#[test]
fn a_purged_tombstone_over_a_frozen_column_leaves_it_deleted() {
    let mut r = Region::new(vec![], 0);
    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
        1,
    );
    apply(
        &mut r,
        b"anchor",
        &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
        1,
    );
    r.flush();
    assert!(r.memstore.is_empty());
    let ts = 10;
    apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
    assert_eq!(value_of(&r, b"k"), None, "the tombstone masks the segment");
    let (_, cost) = r.get_owned(b"k", &fams(), None);
    assert_eq!(cost.kvs_scanned, 1, "one column, touched once");
    assert_eq!((r.row_count(), r.kv_count()), (2, 1));
    assert_accounting_matches_a_recount(&r);

    let now = ts + TOMBSTONE_GRACE_TICKS + 1;
    apply(
        &mut r,
        b"anchor",
        &Mutation::put_at("a", b"q", b"v".to_vec(), now),
        now,
    );
    assert!(r.purge_queue.is_empty());
    assert_eq!(
        r.get_owned(b"k", &fams(), None),
        (None, ReadCost::default())
    );
    assert_eq!((r.row_count(), r.kv_count()), (1, 1));
    assert_accounting_matches_a_recount(&r);
    r.flush();
    assert_eq!(
        r.get_owned(b"k", &fams(), None),
        (None, ReadCost::default())
    );
    assert_eq!(r.segment.len(), 1, "the flush left the purged row out");
    assert_accounting_matches_a_recount(&r);

    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"old".to_vec(), 5),
        now,
    );
    assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"old"[..]));
    assert_accounting_matches_a_recount(&r);
}

/// The first write to a frozen row moves the row into the memstore,
/// where a write older than its column's version is dropped on
/// arrival and a newer one replaces it: either way the row is read,
/// billed and counted once, from one half.
#[test]
fn a_write_to_a_frozen_row_moves_it_and_is_stale_against_its_columns() {
    let mut r = Region::new(vec![], 0);
    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"newest".to_vec(), 10),
        10,
    );
    r.flush();
    let stored = (r.row_count(), r.kv_count(), r.byte_size());
    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"stale".to_vec(), 3),
        11,
    );
    apply(&mut r, b"k", &Mutation::delete_at("a", b"q", 9), 12);
    assert_eq!(r.memstore.iter().len(), 1, "the row moved, with its column");
    assert!(r.segment.is_moved(0));
    assert!(
        r.purge_queue.is_empty(),
        "a dropped tombstone is not queued"
    );
    assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"newest"[..]));
    assert_eq!((r.row_count(), r.kv_count(), r.byte_size()), stored);
    assert_eq!(r.row_keys().count(), 1);

    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"new".to_vec(), 20),
        20,
    );
    assert_eq!(value_of(&r, b"k").as_deref(), Some(&b"new"[..]));
    let (_, cost) = r.get_owned(b"k", &fams(), None);
    assert_eq!(cost.kvs_scanned, 1, "the moved segment row is not billed");
    assert_accounting_matches_a_recount(&r);
}

/// A tombstone that a flush froze inside its grace window is purged
/// once the window has passed: its row is copied out, the tombstone
/// removed, and the row with it once empty. Its key is then free, in
/// the region and after the next flush.
#[test]
fn a_frozen_tombstone_is_purged_with_its_row_once_its_window_passes() {
    let mut r = Region::new(vec![], 0);
    apply(
        &mut r,
        b"anchor",
        &Mutation::put_at("a", b"q", b"v".to_vec(), 1),
        1,
    );
    apply(
        &mut r,
        b"k",
        &Mutation::put_at("a", b"q", b"v".to_vec(), 2),
        2,
    );
    let ts = 10;
    apply(&mut r, b"k", &Mutation::delete_at("a", b"q", ts), ts);
    r.flush();
    assert_eq!((r.row_count(), r.kv_count()), (2, 1));
    let (_, cost) = r.get_owned(b"k", &fams(), None);
    assert_eq!(cost.kvs_scanned, 1, "the frozen tombstone is billed");

    let now = ts + TOMBSTONE_GRACE_TICKS + 1;
    apply(
        &mut r,
        b"anchor",
        &Mutation::put_at("a", b"q", b"v".to_vec(), now),
        now,
    );
    assert!(r.purge_queue.is_empty());
    assert_eq!(
        r.get_owned(b"k", &fams(), None),
        (None, ReadCost::default())
    );
    assert_eq!(
        r.row_keys().map(Key::to_vec).collect::<Vec<_>>(),
        [b"anchor"]
    );
    assert_accounting_matches_a_recount(&r);
    r.flush();
    assert_eq!(r.segment.len(), 1, "the flush left the purged row out");
    assert_accounting_matches_a_recount(&r);
}

/// `result`'s value; the test fails on its error.
fn ok<T, E: std::fmt::Debug>(result: std::result::Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => panic!("{e:?}"),
    }
}

/// One task's rows of a bulk load: each a key and its mutations.
type TaskRows<'a> = &'a [(&'a [u8], Vec<Mutation>)];

/// Two clusters of one node, each with table `t` of families `a` and `b`
/// split at `r3`, and each with a coordinator client.
fn table_twins() -> [(Cluster, Client); 2] {
    [(); 2].map(|()| {
        let cluster = Cluster::new(1, CostModel::test());
        ok(cluster.create_table_with_splits("t", &["a", "b"], &[KEYS[3].to_vec()]));
        let client = cluster.client();
        (cluster, client)
    })
}

/// Writes `tasks`, in order, to both twins: to the first through
/// `mutate_row`, then a flush; to the second staged in one load per task
/// and bulk-loaded. Both bill alike, take the same ticks and leave
/// regions that read, bill and count alike, with the same encodings.
fn load_both(twins: &[(Cluster, Client); 2], tasks: &[TaskRows<'_>]) {
    let [(plain, plain_client), (loaded, loaded_client)] = twins;
    let before = [plain, loaded].map(|c| c.metrics().snapshot());
    for (key, mutations) in tasks.iter().copied().flatten() {
        ok(plain_client.mutate_row("t", key, mutations));
    }
    ok(plain.table("t")).flush();
    let loads: Vec<BulkLoad> = tasks
        .iter()
        .map(|rows| {
            let mut load = BulkLoad::new(ok(loaded.table("t")));
            for (key, mutations) in rows.iter() {
                ok(loaded_client.stage(&mut load, key, mutations));
            }
            load
        })
        .collect();
    ok(loaded.bulk_load("t", &loads));
    let billed = [plain, loaded].map(|c| c.metrics().snapshot());
    assert_eq!(
        billed[0].delta_since(&before[0]),
        billed[1].delta_since(&before[1])
    );
    assert_eq!(
        plain_client.elapsed_seconds(),
        loaded_client.elapsed_seconds()
    );
    assert_eq!(plain.next_ts(), loaded.next_ts(), "one tick per row");
    let tables = [plain, loaded].map(|c| ok(c.table("t")));
    let [plain, loaded] = tables.each_ref().map(|t| t.regions());
    assert_eq!(plain.len(), loaded.len());
    for (plain, loaded) in plain.iter().zip(loaded.iter()) {
        let (plain, loaded) = (plain.read(), loaded.read());
        assert_eq!(plain.segment.encodings(), loaded.segment.encodings());
        assert!(plain.memstore.is_empty() && loaded.memstore.is_empty());
        let mut batches = [RowBatch::new(), RowBatch::new()];
        let alike =
            crate::region_oracle::assert_reads_alike(&plain, &loaded, &fams(), &mut batches);
        assert!(alike.is_ok(), "{alike:?}");
    }
}

/// Row `row` written whole as a base table's is: both families, their
/// columns given out of order, one value per row.
fn base_row(row: u8) -> (&'static [u8], Vec<Mutation>) {
    let put = |family: &str, qualifier: &[u8]| Mutation::put(family, qualifier, vec![row; 3]);
    let mutations = vec![put("b", b"q"), put("a", b"z"), put("a", b"q")];
    (KEYS[usize::from(row)], mutations)
}

/// A fresh table: rows of three columns given out of order, in two
/// tasks, over both regions.
#[test]
fn a_bulk_loaded_table_reads_as_its_put_then_flush_twin() {
    let twins = table_twins();
    let first = [2, 0, 5].map(base_row);
    let second = [1, 4, 6].map(base_row);
    load_both(&twins, &[&first, &second]);
    let encodings = ok(twins[1].0.table("t")).regions()[0]
        .read()
        .segment
        .encodings();
    assert_eq!(
        encodings,
        "dictionary, u16 deltas, row shape, key width, row timestamps, u16 value ends, 1-byte prefix"
    );
}

/// ISL's second side: a load into a segment whose row keys it shares
/// under another family merges each shared row's columns.
#[test]
fn a_load_sharing_row_keys_under_another_family_merges_their_columns() {
    let twins = table_twins();
    let index_row = |row: u8, family: &str| {
        let put = Mutation::put(family, &[b'k', row], vec![row; 9]);
        (KEYS[usize::from(row)], vec![put])
    };
    let first = [0, 1, 2, 4].map(|row| index_row(row, "a"));
    load_both(&twins, &[&first]);
    let second = [1, 3, 4, 6].map(|row| index_row(row, "b"));
    load_both(&twins, &[&second]);
    let lower = ok(twins[1].0.table("t")).regions()[0]
        .read()
        .segment
        .encodings();
    assert_eq!(
        lower,
        "dictionary, u16 deltas, column ends, key width, column timestamps, u16 value ends, 1-byte prefix",
        "row r1 holds a column of each side"
    );
}

/// A region holding memstore rows and a tombstone still inside its grace
/// window: the load freezes them with its rows, its puts land over the
/// memstore's columns, and a pinned put older than the tombstone stays
/// masked.
#[test]
fn a_load_over_memstore_rows_and_a_live_tombstone_freezes_them_alike() {
    let twins = table_twins();
    let first = [0, 1, 2].map(base_row);
    load_both(&twins, &[&first]);
    for (_, client) in &twins {
        ok(client.mutate_row("t", KEYS[1], [Mutation::delete("a", b"q")]));
        let put = Mutation::put("b", b"new", b"memstore".to_vec());
        ok(client.mutate_row("t", KEYS[0], [put]));
    }
    let masked = twins[0].0.next_ts() - 2;
    twins[1].0.next_ts();
    let rows = [
        (
            KEYS[0],
            vec![Mutation::put("b", b"new", b"loaded".to_vec())],
        ),
        (
            KEYS[1],
            vec![Mutation::put_at("a", b"q", b"late".to_vec(), masked - 1)],
        ),
        (KEYS[2], vec![Mutation::delete("a", b"z")]),
    ];
    load_both(&twins, &[&rows]);
    let table = ok(twins[1].0.table("t"));
    let region = &table.regions()[0];
    assert_eq!(region.read().purge_queue.len(), 2, "both tombstones wait");
    assert_eq!(value_of(&region.read(), KEYS[1]), None, "still masked");
}

/// Two tasks writing one row: the later task's rows take the later
/// ticks, so its version of a column they share wins, and the row holds
/// the columns of both.
#[test]
fn equal_keys_from_two_tasks_merge_in_task_order() {
    let twins = table_twins();
    let write = |family: &str, qualifier: &[u8], value: &[u8]| {
        (
            KEYS[4],
            vec![Mutation::put(family, qualifier, value.to_vec())],
        )
    };
    let first = [write("a", b"q", b"first"), write("b", b"q", b"first")];
    let second = [write("a", b"q", b"second"), base_row(5)];
    load_both(&twins, &[&first, &second]);
    let table = ok(twins[1].0.table("t"));
    let (row, _) = table.regions()[1].read().get_owned(KEYS[4], &fams(), None);
    let Some(row) = row else {
        panic!("row r4 is stored");
    };
    assert_eq!(row.value("a", b"q"), Some(&b"second"[..]));
    assert_eq!(row.value("b", b"q"), Some(&b"first"[..]));
}
