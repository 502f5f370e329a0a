//! Reference model for [`crate::region::Region`]'s retention rule, and the
//! property tests that hold the region to it.
//!
//! The model is the store as it was before version GC: every put and every
//! tombstone is kept, per column, in a vector sorted newest-first, and a
//! read touches (and bills) every column that ever received a write. The
//! region must return the same rows and count the same live KVs while
//! never billing more — as long as no write arrives carrying a timestamp
//! older than a tombstone that has outlived its grace window, which is the
//! one case the region documents as diverging.
//!
//! The second test holds a region whose memstore was flushed into its
//! segment, and which took one write as a bulk load, to a twin that was
//! never flushed, exactly: same rows, same order, same bills, same resume
//! keys.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crate::cell::Mutation;
use crate::filter::ServerFilter;
use crate::region::{written, ReadCost, Region, Stored, TOMBSTONE_GRACE_TICKS};
use crate::row::{RowBatch, RowResult};
use crate::segment::Key;

impl Region {
    /// A point read into a fresh batch, copied out: `(row, cost)`.
    pub(crate) fn get_owned(
        &self,
        key: &[u8],
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        let mut batch = RowBatch::new();
        let cost = self.get_into(key, family_names, families, &mut batch);
        (batch.get(0).map(|row| row.to_owned()), cost)
    }

    /// One scan step from `start` into a fresh batch, copied out:
    /// `(rows, cost, resume key)`.
    pub(crate) fn scan_owned(
        &self,
        start: &[u8],
        stop: Option<&[u8]>,
        family_names: &[Arc<str>],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> (Vec<RowResult>, ReadCost, Option<Vec<u8>>) {
        let mut next_key = start.to_vec();
        let mut batch = RowBatch::new();
        let (cost, more) = self.scan_batch_into(
            &mut next_key,
            stop,
            family_names,
            families,
            filter,
            max_rows,
            &mut batch,
        );
        let rows = batch.iter().map(|row| row.to_owned()).collect();
        (rows, cost, more.then_some(next_key))
    }
}

const FAMILIES: [&str; 2] = ["a", "b"];

/// `(timestamp, value)`; `None` is a tombstone.
type Version = (u64, Option<Vec<u8>>);

/// All versions of one column, newest first; at equal timestamps a
/// tombstone sorts before (shadows) a put.
#[derive(Default)]
struct Versions(Vec<Version>);

impl Versions {
    fn order_key(v: &Version) -> (u64, bool) {
        (v.0, v.1.is_none())
    }

    fn insert(&mut self, v: Version) {
        let key = Self::order_key(&v);
        let pos = self
            .0
            .binary_search_by(|e| key.cmp(&Self::order_key(e)))
            .unwrap_or_else(|p| p);
        self.0.insert(pos, v);
    }

    fn visible(&self) -> Option<(u64, &[u8])> {
        match self.0.first() {
            Some((ts, Some(value))) => Some((*ts, value)),
            _ => None,
        }
    }
}

/// A visible cell: `(family, qualifier, timestamp, value)`.
type ModelCell = (usize, Vec<u8>, u64, Vec<u8>);

#[derive(Default)]
struct ReferenceRegion {
    rows: BTreeMap<Vec<u8>, [BTreeMap<Vec<u8>, Versions>; 2]>,
}

impl ReferenceRegion {
    fn mutate(&mut self, key: &[u8], family: usize, qualifier: &[u8], version: Version) {
        self.rows.entry(key.to_vec()).or_default()[family]
            .entry(qualifier.to_vec())
            .or_default()
            .insert(version);
    }

    /// The visible cells of `key` in `families`, and the columns touched.
    fn read(&self, key: &[u8], families: &[usize]) -> (Vec<ModelCell>, u64) {
        let mut cells = Vec::new();
        let mut touched = 0;
        for &family in families {
            let columns = self.rows.get(key).map(|row| &row[family]);
            for (qualifier, versions) in columns.into_iter().flatten() {
                touched += 1;
                if let Some((ts, value)) = versions.visible() {
                    cells.push((family, qualifier.clone(), ts, value.to_vec()));
                }
            }
        }
        (cells, touched)
    }

    fn kv_count(&self) -> u64 {
        let columns = self.rows.values().flatten().flat_map(BTreeMap::values);
        columns.filter(|v| v.visible().is_some()).count() as u64
    }
}

fn family_names() -> Vec<Arc<str>> {
    FAMILIES.iter().map(|f| Arc::from(*f)).collect()
}

/// One generated write: `(row, family, qualifier, kind, lag, step)`.
type Op = (u8, usize, u8, u8, u64, u16);

/// The rows a generated write goes to: `r0` to `r4`, `r4` with a byte
/// more and `s`, so a segment holds keys of one width or of several, and
/// a prefix of two bytes (a row alone), one or none.
pub(crate) const KEYS: [&[u8]; 7] = [
    b"r\0", b"r\x01", b"r\x02", b"r\x03", b"r\x04", b"r\x04\0", b"s",
];

/// Keys no write goes to, which [`assert_reads_alike`] reads from too:
/// the empty key, one short of every `r` key and one past `r4` with a
/// byte more.
const PROBES: [&[u8]; 3] = [b"", b"r", b"r\x04\0\0"];

/// One column a generated write stores: `(family, qualifier, mutation,
/// version)`.
type Write = (usize, u8, Mutation, Version);

/// Qualifier `q` of four, 0 to 3 bytes long, each a prefix of the next.
fn qualifier_of(q: u8) -> &'static [u8] {
    &b"qrs"[..usize::from(q)]
}

/// What a put to `row`'s column `q` at `ts` writes: 0 to 299 bytes, or
/// for about one put to `qrs` in 300, 64 KiB (so a flush may freeze a
/// block of values too long for 16-bit ends); a function of the three,
/// so two puts to one column at one timestamp carry one value.
fn value_of(ts: u64, row: u8, q: u8) -> Vec<u8> {
    let len = match (ts as usize * 31 + usize::from(row) * 7 + usize::from(q)) % 301 {
        300 if q == 3 => 1 << 16,
        len => len % 300,
    };
    (0..len).map(|i| (ts as usize + i) as u8 ^ row).collect()
}

/// The write `op` stands for, with the clock moved on to its tick: its
/// row key and the columns it stores, in one call. Mostly one column; one
/// write in four puts every column of the row at one timestamp. Mostly a
/// few ticks pass; one step in fifty crosses the grace window, so purges
/// happen, and a quarter of those move the clock on by 2^32 or more, so a
/// flush may freeze timestamps too far apart for 32-bit deltas; one step
/// in a hundred moves it on by 2^17, past 16-bit deltas and the window.
/// Pinned timestamps lag by less than the window, so none is older than a
/// tombstone the region has already dropped.
///
/// With `one_column`, every write goes to its row's own column alone, as
/// every write to an index's score-list row does: the row picks the family
/// (alternating, as the sides of an ISL index do) and the qualifier, and a
/// whole-row write is a put. A flush then freezes rows of one column each
/// whose names differ, which no shared row shape covers.
fn write_of(op: Op, one_column: bool, now: &mut u64) -> (&'static [u8], Vec<Write>) {
    let (row, family, qualifier, kind, lag, step) = op;
    let (family, qualifier, kind) = match one_column {
        true => (usize::from(row % 2), row % 4, kind % 3),
        false => (family, qualifier, kind),
    };
    *now += match step {
        0..5 => (1 << 32) + u64::from(step),
        5..20 => TOMBSTONE_GRACE_TICKS + 50,
        20..30 => 1 << 17,
        _ => 1 + u64::from(step % 3),
    };
    let pinned = (lag < 20).then(|| *now - lag);
    let ts = pinned.unwrap_or(*now);
    let column = |family: usize, q: u8| -> Write {
        let (name, qualifier) = (FAMILIES[family], qualifier_of(q));
        let value = value_of(ts, row, q);
        let (mutation, version) = match (kind, pinned) {
            (2, Some(at)) => (Mutation::delete_at(name, qualifier, at), (ts, None)),
            (2, None) => (Mutation::delete(name, qualifier), (ts, None)),
            (_, Some(at)) => (
                Mutation::put_at(name, qualifier, value.clone(), at),
                (ts, Some(value)),
            ),
            (_, None) => (
                Mutation::put(name, qualifier, value.clone()),
                (ts, Some(value)),
            ),
        };
        (family, q, mutation, version)
    };
    let writes = match kind {
        3 => (0..2)
            .flat_map(|f| (0..4).map(move |q| (f, q)))
            .map(|(f, q)| column(f, q))
            .collect(),
        _ => vec![column(family, qualifier)],
    };
    (KEYS[usize::from(row)], writes)
}

/// Applies `writes` to row `key` of `region` in one call.
fn apply(region: &mut Region, key: &[u8], writes: &[Write], now: u64, names: &[Arc<str>]) {
    let mutations = writes.iter().map(|(family, _, m, _)| (*family, m));
    region.mutate_row(key, mutations, now, names);
}

/// Loads `writes` to row `key` of `region` as a bulk load of one row at
/// tick `now` (see [`crate::bulk`]), which freezes the memstore too.
fn load(region: &mut Region, key: &[u8], writes: &[Write], now: u64, names: &[Arc<str>]) {
    let columns: Vec<Stored<'_>> = writes
        .iter()
        .map(|(family, _, m, _)| written(*family, m, now).0)
        .collect();
    region.load(&[(key, 0..columns.len())], &columns, now, names);
}

/// The region of `regions` (in key order) that serves `key`.
fn route<'a>(regions: &'a mut [Region], key: &[u8]) -> &'a mut Region {
    let at = regions.partition_point(|r| r.start_key() <= key);
    &mut regions[at - 1]
}

/// `flushed` reads, bills and counts exactly as `plain`: the counters
/// (which equal a recount), the row keys and split point, and every point
/// read and scan step from every row at three batch sizes, with and
/// without a stop key, under every projection. Each read is made owned
/// and again into `batches`, one per side, which every read of a case
/// refills: a batch lends the owned read's rows, and after a
/// `drop_front` their tail.
pub(crate) fn assert_reads_alike(
    plain: &Region,
    flushed: &Region,
    names: &[Arc<str>],
    batches: &mut [RowBatch; 2],
) -> Result<(), TestCaseError> {
    let counted = (flushed.row_count(), flushed.kv_count(), flushed.byte_size());
    prop_assert_eq!(counted, flushed.recount(names));
    prop_assert_eq!(
        counted,
        (plain.row_count(), plain.kv_count(), plain.byte_size())
    );
    prop_assert_eq!(
        plain.row_keys().map(Key::to_vec).collect::<Vec<_>>(),
        flushed.row_keys().map(Key::to_vec).collect::<Vec<_>>()
    );
    prop_assert_eq!(plain.split_point(), flushed.split_point());
    let sides = [plain, flushed];
    for projection in [None, Some(&[0, 1][..]), Some(&[0][..]), Some(&[1][..])] {
        for key in KEYS.into_iter().chain(PROBES) {
            let read = plain.get_owned(key, names, projection);
            prop_assert_eq!(&read, &flushed.get_owned(key, names, projection));
            let (owned, cost) = read;
            for (region, batch) in sides.into_iter().zip(batches.iter_mut()) {
                prop_assert_eq!(region.get_into(key, names, projection, batch), cost);
                prop_assert_eq!(batch.get(0), owned.as_ref().map(RowResult::as_row_ref));
            }
            for (stop, max_rows) in [(None, 1), (None, 2), (None, 100), (Some(&[b'r', 3][..]), 2)] {
                let step = plain.scan_owned(key, stop, names, projection, None, max_rows);
                prop_assert_eq!(
                    &step,
                    &flushed.scan_owned(key, stop, names, projection, None, max_rows)
                );
                let (rows, cost, resume) = step;
                let want: Vec<_> = rows.iter().map(RowResult::as_row_ref).collect();
                for (region, batch) in sides.into_iter().zip(batches.iter_mut()) {
                    let mut next_key = key.to_vec();
                    batch.clear();
                    let (lent, more) = region.scan_batch_into(
                        &mut next_key,
                        stop,
                        names,
                        projection,
                        None,
                        max_rows,
                        batch,
                    );
                    prop_assert_eq!((lent, more.then_some(next_key)), (cost, resume.clone()));
                    prop_assert_eq!(&batch.iter().collect::<Vec<_>>(), &want);
                    batch.drop_front(1);
                    prop_assert_eq!(
                        batch.iter().collect::<Vec<_>>(),
                        want.get(1..).unwrap_or_default()
                    );
                }
            }
        }
    }
    Ok(())
}

fn cells_of(row: &crate::row::RowResult) -> Vec<ModelCell> {
    row.cells
        .iter()
        .map(|c| {
            let family = FAMILIES.iter().position(|f| **f == *c.family);
            (
                family.unwrap_or(usize::MAX),
                c.qualifier.to_vec(),
                c.timestamp,
                c.value.to_vec(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random puts and deletes, clock-stamped or pinned a little into the
    /// past, with the clock now and then jumping a whole grace window (so
    /// purges happen): `get_into`, `scan_batch_into` and `kv_count` agree with the
    /// keep-everything model after every step, the maintained accounting
    /// equals a recount, and no read bills more than the model's.
    ///
    /// Two puts to one column at one timestamp carry one value here, as
    /// under §6 (one timestamp per logical write); which of two different
    /// values would win is unspecified in HBase and in the model alike.
    #[test]
    fn region_matches_the_keep_everything_model(ops in prop::collection::vec(
        (0u8..7, 0usize..2, 0u8..4, 0u8..4, 0u64..40, 0u16..1000), 1..150)) {
        let names = family_names();
        let mut region = Region::new(Vec::new(), 0);
        let mut model = ReferenceRegion::default();
        let mut now = 2 * TOMBSTONE_GRACE_TICKS;

        for op in ops {
            let (key, writes) = write_of(op, false, &mut now);
            apply(&mut region, key, &writes, now, &names);
            for (family, q, _, version) in writes {
                model.mutate(key, family, qualifier_of(q), version);
            }

            prop_assert_eq!(region.kv_count(), model.kv_count());
            prop_assert_eq!((region.row_count(), region.kv_count(), region.byte_size()), region.recount(&names));
            for projection in [vec![0, 1], vec![0], vec![1]] {
                let mut scanned = Vec::new();
                let (scan_rows, scan_cost, _) =
                    region.scan_owned(b"", None, &names, Some(&projection), None, 100);
                let mut model_touched = 0;
                for key in KEYS {
                    let (want, touched) = model.read(key, &projection);
                    model_touched += touched;
                    let (got, cost) = region.get_owned(key, &names, Some(&projection));
                    prop_assert_eq!(got.as_ref().map(cells_of).unwrap_or_default(), want.clone());
                    prop_assert!(cost.kvs_scanned <= touched);
                    if !want.is_empty() {
                        scanned.push((key.to_vec(), want));
                    }
                }
                let got: Vec<_> = scan_rows.iter().map(|r| (r.key.clone(), cells_of(r))).collect();
                prop_assert_eq!(got, scanned);
                prop_assert!(scan_cost.kvs_scanned <= model_touched);
            }
        }
    }

    /// A region flushed at a random step, flushed again at another (the
    /// second flush merges into the first segment) and split at a third,
    /// before or after the flushes, against a twin that is split alike
    /// and never flushed: after every write, [`assert_reads_alike`]. One
    /// case in four writes one column per row (see [`write_of`]). At a
    /// fourth step the flushed side takes its write as a bulk load, which
    /// merges it into a new segment with the memstore and the old one.
    #[test]
    fn a_flushed_region_reads_bills_and_resumes_as_a_never_flushed_one(
        ops in prop::collection::vec(
            (0u8..7, 0usize..2, 0u8..4, 0u8..4, 0u64..40, 0u16..1000), 1..150),
        flushes in (0usize..150, 0usize..150),
        split_at in 0usize..300,
        one_column in 0u8..4,
        load_at in 0usize..150,
    ) {
        let names = family_names();
        let mut plain = vec![Region::new(Vec::new(), 0)];
        let mut flushed = vec![Region::new(Vec::new(), 0)];
        let mut batches = [RowBatch::new(), RowBatch::new()];
        let mut now = 2 * TOMBSTONE_GRACE_TICKS;
        for (step, op) in ops.into_iter().enumerate() {
            if step == flushes.0 || step == flushes.1 {
                flushed.iter_mut().for_each(Region::flush);
            }
            if step == split_at {
                for side in [&mut plain, &mut flushed] {
                    let upper = side[0].split_off(&[b'r', 2], 1, &names);
                    side.push(upper);
                }
            }
            let (key, writes) = write_of(op, one_column == 0, &mut now);
            apply(route(&mut plain, key), key, &writes, now, &names);
            match step == load_at {
                true => load(route(&mut flushed, key), key, &writes, now, &names),
                false => apply(route(&mut flushed, key), key, &writes, now, &names),
            }
            for (plain, flushed) in plain.iter().zip(&flushed) {
                assert_reads_alike(plain, flushed, &names, &mut batches)?;
            }
        }
    }
}
