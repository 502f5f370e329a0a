//! Property tests for the store: key-encoding order preservation and
//! scan/version semantics against a model.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;
use rj_store::keys;
use rj_store::scan::Scan;

/// A row as the model of `store_matches_model` lists it: its key and its
/// `(family, qualifier, value)` cells in order.
type ModelRow = (Vec<u8>, Vec<(usize, u8, u8)>);

proptest! {
    /// u64 encoding: byte order == numeric order.
    #[test]
    fn u64_order_preserved(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(
            keys::encode_u64(a).cmp(&keys::encode_u64(b)),
            a.cmp(&b)
        );
        prop_assert_eq!(keys::decode_u64(&keys::encode_u64(a)), Some(a));
    }

    /// f64 encoding: byte order == numeric order (over non-NaN values).
    #[test]
    fn f64_order_preserved(a in -1e300f64..1e300, b in -1e300f64..1e300) {
        let (ea, eb) = (keys::encode_f64(a), keys::encode_f64(b));
        prop_assert_eq!(ea.cmp(&eb), a.total_cmp(&b));
        prop_assert_eq!(keys::decode_f64(&ea), Some(a));
    }

    /// Descending-score encoding inverts the order: ascending bytes mean
    /// descending scores (the ISL index invariant, §4.2.2).
    #[test]
    fn desc_score_order_inverted(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (ea, eb) = (keys::encode_score_desc(a), keys::encode_score_desc(b));
        prop_assert_eq!(ea.cmp(&eb), b.total_cmp(&a));
        prop_assert_eq!(keys::decode_score_desc(&ea), Some(a));
    }

    /// `prefix_end` bounds exactly the keys sharing the prefix.
    #[test]
    fn prefix_end_is_tight(prefix in prop::collection::vec(0u8..255, 1..6),
                           suffix in prop::collection::vec(any::<u8>(), 0..6)) {
        if let Some(end) = keys::prefix_end(&prefix) {
            let mut extended = prefix.clone();
            extended.extend_from_slice(&suffix);
            prop_assert!(extended >= prefix);
            prop_assert!(extended < end, "prefixed key escapes the bound");
        }
    }

    /// Store reads/scans agree with a BTreeMap model under arbitrary
    /// interleavings of puts and deletes (latest-timestamp-wins), on rows
    /// of up to 64 columns over two families: every read returns a row's
    /// cells in `(family, qualifier)` order whatever order they were
    /// written in.
    #[test]
    fn store_matches_model(ops in prop::collection::vec(
        (0u8..4, 0usize..2, 0u8..32, any::<bool>(), 0u8..=255), 1..300)) {
        const FAMILIES: [&str; 2] = ["cf", "dg"];
        let cluster = Cluster::new(2, CostModel::test());
        cluster.create_table("t", &FAMILIES).unwrap();
        let client = cluster.client();
        // row key → (family, qualifier) → value
        let mut model: BTreeMap<Vec<u8>, BTreeMap<(usize, u8), u8>> = BTreeMap::new();

        for (key_id, family, qualifier, is_put, value) in ops {
            let key = vec![b'k', key_id];
            if is_put {
                let put = Mutation::put(FAMILIES[family], &[qualifier], vec![value]);
                client.put("t", &key, put).unwrap();
                model.entry(key).or_default().insert((family, qualifier), value);
            } else {
                client.delete("t", &key, FAMILIES[family], &[qualifier]).unwrap();
                if let Some(row) = model.get_mut(&key) {
                    row.remove(&(family, qualifier));
                }
            }
        }
        model.retain(|_, row| !row.is_empty());

        let cells_of = |row: &rj_store::RowResult| -> Vec<(usize, u8, u8)> {
            row.cells
                .iter()
                .map(|c| {
                    let family = FAMILIES.iter().position(|f| **f == *c.family).unwrap();
                    (family, c.qualifier[0], c.value[0])
                })
                .collect()
        };
        let want: Vec<ModelRow> = model
            .into_iter()
            .map(|(key, row)| (key, row.into_iter().map(|((f, q), v)| (f, q, v)).collect()))
            .collect();

        // Point reads agree.
        for key_id in 0u8..4 {
            let key = vec![b'k', key_id];
            let got = client.get("t", &key).unwrap().map(|r| cells_of(&r));
            let wanted = want.iter().find(|(k, _)| *k == key).map(|(_, cells)| cells.clone());
            prop_assert_eq!(got, wanted);
        }
        // Scans agree in content and order.
        let scanned: Vec<ModelRow> = client
            .scan("t", Scan::new().caching(3))
            .unwrap()
            .map(|r| {
                let cells = cells_of(&r);
                (r.key, cells)
            })
            .collect();
        prop_assert_eq!(scanned, want);
    }
}
