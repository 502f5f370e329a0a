//! Probes: short timed loops over a lower layer's public API, on the same
//! loaded data the workloads ran against. They run after the workloads
//! (the put probe adds a column to rows the workloads read) and give the
//! unit costs the per-layer attribution multiplies the ledger's counts by.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;
use crate::seam::{self, rowkey, tables, FlatMap, Res, SketchFixture};
use crate::stats;
use crate::workloads::BinaryFixture;

/// Unit costs measured by the probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCosts {
    /// `Client::scan` (caching 128) over the largest index table, per row.
    pub scan_ns_per_row: f64,
    /// The same scan, per KV pair the ledger counted.
    pub scan_ns_per_kv: f64,
    /// `Client::get`, per call.
    pub get_ns: f64,
    /// The same gets, per KV pair the ledger counted.
    pub get_ns_per_kv: f64,
    /// `Client::mutate_row` with one put, per call.
    pub put_ns: f64,
    /// The same puts, per KV pair the ledger counted.
    pub put_ns_per_kv: f64,
    /// `WorkStealingPool::run_batch` of 8 empty tasks.
    pub pool_batch_us: f64,
    /// `BfhmBlob::decode` of a Golomb blob.
    pub blob_decode_us: f64,
    /// `HybridFilter::common_positions`.
    pub filter_intersect_us: f64,
    /// `FlatMultiMap::push`.
    pub flatmap_push_ns: f64,
    /// `FlatMultiMap::get`.
    pub flatmap_get_ns: f64,
    /// `TopK::offer` at k = 50.
    pub topk_offer_ns: f64,
}

/// Repetitions of each probe loop; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] repetitions of `units`-sized loops, in ns per
/// unit. `f` returns how many units it actually did.
fn per_unit_ns(f: &mut dyn FnMut() -> Res<usize>) -> Res<f64> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let units = f()?;
        let ns = start.elapsed().as_nanos() as f64;
        samples.push(ns / units.max(1) as f64);
    }
    Ok(stats::median(&samples))
}

const SCAN_ROWS: usize = 20_000;
const POINT_OPS: u64 = 2_000;
const POOL_BATCHES: usize = 2_000;
const POOL_TASKS: usize = 8;
/// A bucket of the benchmark's own BFHM index: ≈ 600 tuples per bucket
/// (60 000 lineitems / 100 buckets) in a 32 Kbit filter.
const BLOB_BITS: usize = 1 << 15;
const BLOB_KEYS: u64 = 600;
const SKETCH_ITERS: usize = 500;
const MAP_OPS: u64 = 20_000;
const MAP_KEYS: u64 = 2_000;
const TOPK_K: usize = 50;
const TOPK_OFFERS: u64 = 20_000;

/// Runs every probe against `bin`.
pub fn run(bin: &BinaryFixture) -> Res<ProbeCosts> {
    let mut c = ProbeCosts::default();
    let client = bin.store.probe_client();
    let isl_table = bin.ex[seam::Q::Q2.index()].isl_table()?;
    // A store probe also reports how many KV pairs the ledger billed
    // over all its repetitions, so per-KV costs line up with the ledger.
    let billed = |f: &mut dyn FnMut() -> Res<usize>| -> Res<(f64, f64)> {
        let before = bin.store.ledger();
        let ns = per_unit_ns(f)?;
        let after = bin.store.ledger().delta_since(&before);
        Ok((ns, (after.kv_reads + after.kv_writes).max(1) as f64))
    };

    let mut rows = 0;
    let (ns, kvs) = billed(&mut || {
        rows = client.scan_rows(&isl_table, SCAN_ROWS)?;
        Ok(rows)
    })?;
    c.scan_ns_per_row = ns;
    c.scan_ns_per_kv = ns * (rows * REPS) as f64 / kvs;

    let point_ops = POINT_OPS as usize;
    let (ns, kvs) = billed(&mut || {
        let mut hits = 0;
        for key in 1..=POINT_OPS {
            hits += usize::from(client.get(tables::ORDERS, &rowkey::order(key))?);
        }
        black_box(hits);
        Ok(point_ops)
    })?;
    c.get_ns = ns;
    c.get_ns_per_kv = ns * (point_ops * REPS) as f64 / kvs;

    let (ns, kvs) = billed(&mut || {
        for key in 1..=POINT_OPS {
            client.put(
                tables::ORDERS,
                &rowkey::order(key),
                b"probe",
                &key.to_be_bytes(),
            )?;
        }
        Ok(point_ops)
    })?;
    c.put_ns = ns;
    c.put_ns_per_kv = ns * (point_ops * REPS) as f64 / kvs;

    c.pool_batch_us = per_unit_ns(&mut || {
        let mut done = 0;
        for _ in 0..POOL_BATCHES {
            done += seam::pool_batch(POOL_TASKS);
        }
        black_box(done);
        Ok(POOL_BATCHES)
    })? / 1e3;

    let sketch = SketchFixture::new(BLOB_BITS, BLOB_KEYS);
    c.blob_decode_us = per_unit_ns(&mut || {
        let mut bits = 0;
        for _ in 0..SKETCH_ITERS {
            bits += sketch.blob_decode()?;
        }
        black_box(bits);
        Ok(SKETCH_ITERS)
    })? / 1e3;
    c.filter_intersect_us = per_unit_ns(&mut || {
        let mut common = 0;
        for _ in 0..SKETCH_ITERS {
            common += sketch.filter_intersect();
        }
        black_box(common);
        Ok(SKETCH_ITERS)
    })? / 1e3;

    let mut filled = FlatMap::new();
    c.flatmap_push_ns = per_unit_ns(&mut || {
        let mut map = FlatMap::new();
        for i in 0..MAP_OPS {
            map.push(&(i % MAP_KEYS).to_be_bytes(), i as u32);
        }
        filled = map;
        Ok(MAP_OPS as usize)
    })?;
    c.flatmap_get_ns = per_unit_ns(&mut || {
        let mut found = 0;
        for i in 0..MAP_OPS {
            found += filled.get(&(i % MAP_KEYS).to_be_bytes());
        }
        black_box(found);
        Ok(MAP_OPS as usize)
    })?;

    // Tuple construction stays outside the timed loop.
    let mut rng = Rng::new(0x70b1, 0);
    let mut batches: Vec<Vec<seam::JoinTuple>> = (0..REPS)
        .map(|_| {
            (0..TOPK_OFFERS)
                .map(|i| seam::probe_tuple(i, rng.unit()))
                .collect()
        })
        .collect();
    c.topk_offer_ns = per_unit_ns(&mut || {
        let tuples = batches.pop().unwrap_or_default();
        black_box(seam::topk_offer(TOPK_K, tuples));
        Ok(TOPK_OFFERS as usize)
    })?;
    Ok(c)
}
