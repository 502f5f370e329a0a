//! Store layout and bulk loader for the TPC-H-style tables.
//!
//! Layout (one column family `d`, one row per tuple):
//!
//! | table      | row key                                | columns |
//! |------------|----------------------------------------|---------|
//! | `part`     | `u64be(part_key)`                      | `jk` = u64be(part_key), `score` = f64be(retail_score), `name`, `comment` |
//! | `orders`   | `u64be(order_key)`                     | `jk` = u64be(order_key), `score` = f64be(total_score), `comment` |
//! | `lineitem` | `u64be(order_key) \| u32be(line_no)`   | `jk_part` = u64be(part_key), `jk_order` = u64be(order_key), `score` = f64be(extended_score), `comment` |
//!
//! Scores are stored as plain big-endian `f64` bits (what the
//! [`rj_store::filter::ScoreAtLeast`] server filter decodes); key-encoded
//! variants are an index concern, not a base-table one. Tables are
//! pre-split into `2 × nodes` regions over the key domain so mappers get
//! balanced, deterministic splits.
//!
//! A load holds each byte string once. It builds the family handle and
//! one qualifier handle per column name, which every row's columns share,
//! and one `jk` value per part and per order: a lineitem's `jk_part` value
//! *is* its part's `jk` value, and its `jk_order` its order's. Every other
//! value is built straight into its one `Bytes`. [`load_all`] writes
//! each table as one bulk load (`rj_store::bulk`), as HBase's
//! `HFileOutputFormat2` and `completebulkload` do: it stages every row,
//! copying its bytes into the load's flat buffers, and then applies the
//! load, which writes each region's rows straight into one flat segment
//! that owns its bytes. No row passes through a memstore, so what stays
//! resident per column is its bytes in the segment's arenas and a few
//! fixed-width slots. What the store bills is what `mutate_row` of each
//! row bills: staging a row bills its write, in the same order and at
//! the same clock tick, applying the load bills nothing, and every
//! column is billed for its bytes however they are held.

use std::sync::Arc;

use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::error::Result;
use rj_store::keys;
use rj_store::{BulkLoad, Bytes};

use crate::gen::{self, TpchConfig};

/// Base-table name: Part.
pub const PART_TABLE: &str = "part";
/// Base-table name: Orders.
pub const ORDERS_TABLE: &str = "orders";
/// Base-table name: Lineitem.
pub const LINEITEM_TABLE: &str = "lineitem";
/// The single data column family.
pub const FAMILY: &str = "d";

/// Column qualifiers.
pub mod cols {
    /// Join key (part: part_key; orders: order_key), u64 BE.
    pub const JK: &[u8] = b"jk";
    /// Lineitem's part-side join key, u64 BE.
    pub const JK_PART: &[u8] = b"jk_part";
    /// Lineitem's order-side join key, u64 BE.
    pub const JK_ORDER: &[u8] = b"jk_order";
    /// Normalized score, f64 BE bits.
    pub const SCORE: &[u8] = b"score";
    /// Part name.
    pub const NAME: &[u8] = b"name";
    /// Filler comment.
    pub const COMMENT: &[u8] = b"comment";
}

/// Row-key encoders.
pub mod rowkeys {
    use rj_store::keys;

    /// Part row key.
    pub fn part(part_key: u64) -> Vec<u8> {
        keys::encode_u64(part_key).to_vec()
    }

    /// Orders row key.
    pub fn order(order_key: u64) -> Vec<u8> {
        keys::encode_u64(order_key).to_vec()
    }

    /// Lineitem row key: `order_key | line_number`.
    pub fn lineitem(order_key: u64, line_number: u32) -> Vec<u8> {
        keys::composite(&[&keys::encode_u64(order_key), &keys::encode_u32(line_number)])
    }
}

/// What got loaded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Part rows.
    pub parts: u64,
    /// Orders rows.
    pub orders: u64,
    /// Lineitem rows.
    pub lineitems: u64,
}

fn uniform_splits(max_key: u64, pieces: usize) -> Vec<Vec<u8>> {
    (1..pieces)
        .map(|i| keys::encode_u64(max_key * i as u64 / pieces as u64).to_vec())
        .collect()
}

/// The handles a load shares across its rows (see the module docs): the
/// family, one qualifier per column name, and each part's and order's
/// join-key value, which the lineitems referencing it store too.
struct Handles {
    family: Arc<str>,
    jk: Bytes,
    jk_part: Bytes,
    jk_order: Bytes,
    score: Bytes,
    name: Bytes,
    comment: Bytes,
    /// `part_keys[k - 1]` is part `k`'s `jk` value.
    part_keys: Vec<Bytes>,
    /// `order_keys[k - 1]` is order `k`'s `jk` value.
    order_keys: Vec<Bytes>,
}

impl Handles {
    fn new(cfg: &TpchConfig) -> Self {
        let jk = |key| Bytes::from(keys::encode_u64(key));
        Handles {
            family: FAMILY.into(),
            jk: cols::JK.into(),
            jk_part: cols::JK_PART.into(),
            jk_order: cols::JK_ORDER.into(),
            score: cols::SCORE.into(),
            name: cols::NAME.into(),
            comment: cols::COMMENT.into(),
            part_keys: (1..=cfg.part_count()).map(jk).collect(),
            order_keys: (1..=cfg.order_count()).map(jk).collect(),
        }
    }

    /// A clock-timestamped put of `qualifier`, sharing the family handle.
    fn put(&self, qualifier: &Bytes, value: Bytes) -> Mutation {
        Mutation::put_shared(Arc::clone(&self.family), qualifier.clone(), value, None)
    }

    fn part(&self, row: &gen::PartRow) -> [Mutation; 4] {
        [
            self.put(&self.jk, self.part_key(row.part_key)),
            self.put(&self.score, Bytes::from(row.retail_score.to_be_bytes())),
            self.put(&self.name, row.name.as_str().into()),
            self.put(&self.comment, row.comment.as_str().into()),
        ]
    }

    fn order(&self, row: &gen::OrderRow) -> [Mutation; 3] {
        [
            self.put(&self.jk, self.order_key(row.order_key)),
            self.put(&self.score, Bytes::from(row.total_score.to_be_bytes())),
            self.put(&self.comment, row.comment.as_str().into()),
        ]
    }

    fn lineitem(&self, row: &gen::LineitemRow) -> [Mutation; 4] {
        [
            self.put(&self.jk_part, self.part_key(row.part_key)),
            self.put(&self.jk_order, self.order_key(row.order_key)),
            self.put(&self.score, Bytes::from(row.extended_score.to_be_bytes())),
            self.put(&self.comment, row.comment.as_str().into()),
        ]
    }

    /// Part `key`'s shared `jk` value (generated keys run `1..=count`).
    fn part_key(&self, key: u64) -> Bytes {
        self.part_keys[key as usize - 1].clone()
    }

    /// Order `key`'s shared `jk` value.
    fn order_key(&self, key: u64) -> Bytes {
        self.order_keys[key as usize - 1].clone()
    }
}

/// Creates and loads all three base tables.
pub fn load_all(cluster: &Cluster, cfg: &TpchConfig) -> Result<LoadStats> {
    let pieces = cluster.num_nodes() * 2;
    cluster.create_table_with_splits(
        PART_TABLE,
        &[FAMILY],
        &uniform_splits(cfg.part_count(), pieces),
    )?;
    cluster.create_table_with_splits(
        ORDERS_TABLE,
        &[FAMILY],
        &uniform_splits(cfg.order_count(), pieces),
    )?;
    // Lineitem keys are prefixed by order key: split on the same domain.
    let li_splits: Vec<Vec<u8>> = (1..pieces)
        .map(|i| rowkeys::lineitem(cfg.order_count() * i as u64 / pieces as u64, 0))
        .collect();
    cluster.create_table_with_splits(LINEITEM_TABLE, &[FAMILY], &li_splits)?;

    let client = cluster.client();
    let handles = Handles::new(cfg);
    let mut stats = LoadStats::default();
    let mut load = BulkLoad::new(cluster.table(PART_TABLE)?);
    for row in gen::parts(cfg) {
        let key = keys::encode_u64(row.part_key);
        client.stage(&mut load, &key, &handles.part(&row))?;
        stats.parts += 1;
    }
    cluster.bulk_load(PART_TABLE, &[load])?;
    let mut load = BulkLoad::new(cluster.table(ORDERS_TABLE)?);
    for row in gen::orders(cfg) {
        let key = keys::encode_u64(row.order_key);
        client.stage(&mut load, &key, &handles.order(&row))?;
        stats.orders += 1;
    }
    cluster.bulk_load(ORDERS_TABLE, &[load])?;
    let mut load = BulkLoad::new(cluster.table(LINEITEM_TABLE)?);
    for row in gen::lineitems(cfg) {
        let key = rowkeys::lineitem(row.order_key, row.line_number);
        client.stage(&mut load, &key, &handles.lineitem(&row))?;
        stats.lineitems += 1;
    }
    cluster.bulk_load(LINEITEM_TABLE, &[load])?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rj_store::costmodel::CostModel;
    use rj_store::scan::Scan;

    #[test]
    fn load_small_scale() {
        let cluster = Cluster::new(3, CostModel::test());
        let cfg = TpchConfig::new(0.0005); // 100 parts, 750 orders
        let stats = load_all(&cluster, &cfg).unwrap();
        assert_eq!(stats.parts, cfg.part_count());
        assert_eq!(stats.orders, cfg.order_count());
        assert!(stats.lineitems >= stats.orders);

        let part = cluster.table(PART_TABLE).unwrap();
        assert_eq!(part.row_count() as u64, stats.parts);
        assert!(part.region_infos().len() >= 2, "pre-split regions exist");

        // Spot-check one row roundtrip.
        let client = cluster.client();
        let row = client
            .get(PART_TABLE, &rowkeys::part(1))
            .unwrap()
            .expect("part 1 exists");
        let score = f64::from_be_bytes(
            row.value(FAMILY, cols::SCORE)
                .unwrap()
                .as_ref()
                .try_into()
                .unwrap(),
        );
        let expected = gen::part_row(&cfg, 0).retail_score;
        assert_eq!(score, expected);
    }

    #[test]
    fn lineitem_rows_scan_grouped_by_order() {
        let cluster = Cluster::new(2, CostModel::test());
        let cfg = TpchConfig::new(0.0002);
        load_all(&cluster, &cfg).unwrap();
        let client = cluster.client();
        let mut last_order = 0u64;
        for row in client.scan(LINEITEM_TABLE, Scan::new()).unwrap() {
            let order = rj_store::keys::decode_u64(&row.key).unwrap();
            assert!(order >= last_order, "lineitems sorted by order key");
            last_order = order;
        }
    }

    #[test]
    fn uniform_splits_are_ordered() {
        let s = uniform_splits(1000, 4);
        assert_eq!(s.len(), 3);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
