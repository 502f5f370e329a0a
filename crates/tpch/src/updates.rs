//! Refresh (update) sets, in the spirit of TPC-H RF1/RF2.
//!
//! The paper's online-updates experiment (§7.2): "each consisting of
//! ≈ s×600 insertions and ≈ s×150 deletions for scale-factor s. We then
//! applied each of these sets in their entirety (i.e., ≈ 750 mutations),
//! followed by a single query". Inserts are new orders (with their
//! lineitems) keyed past the loaded domain; deletes remove loaded orders
//! and their lineitems.

use crate::gen::{self, LineitemRow, OrderRow, TpchConfig};

/// One refresh set.
#[derive(Clone, Debug, Default)]
pub struct UpdateSet {
    /// New orders to insert.
    pub insert_orders: Vec<OrderRow>,
    /// Lineitems of the new orders.
    pub insert_lineitems: Vec<LineitemRow>,
    /// Order keys to delete (with all their lineitems).
    pub delete_orders: Vec<OrderRow>,
    /// Lineitems of the deleted orders.
    pub delete_lineitems: Vec<LineitemRow>,
}

/// Generates refresh set `set_index` (0-based). Set `i` inserts order
/// indices `N + i·B .. N + (i+1)·B` and deletes order indices
/// `i·D .. (i+1)·D` of the originally loaded range. Insert sets are always
/// disjoint; delete sets are disjoint until `(i+1)·D` exceeds the loaded
/// order count, after which the delete range wraps and revisits orders
/// earlier sets already deleted (such deletes are no-ops downstream).
pub fn generate_update_set(cfg: &TpchConfig, set_index: u64) -> UpdateSet {
    let n_orders = cfg.order_count();
    let parts = cfg.part_count();
    // Row-count targets: TPC-H RF1 = SF×1500 new orders... the paper's sets
    // are ≈600·SF inserts / 150·SF deletes *total rows*; with ≈4 lineitems
    // per order, that is ≈120·SF new orders and ≈30·SF deleted orders.
    // Floors keep laptop-scale (SF ≪ 0.01) refresh sets meaningful: a set
    // of 4 orders against hundreds of loaded ones is pure noise, and the
    // §7.2 experiment needs each set to plausibly perturb the top-k.
    let insert_orders_n = ((cfg.scale_factor * 120.0) as u64).max(24);
    let delete_orders_n = ((cfg.scale_factor * 30.0) as u64).max(6);
    // Within-set delete indices are distinct only while D <= n_orders;
    // order_count()'s floor of 16 keeps this true for every SF today.
    debug_assert!(delete_orders_n <= n_orders);

    let mut set = UpdateSet::default();
    let insert_base = n_orders + set_index * insert_orders_n;
    for i in insert_base..insert_base + insert_orders_n {
        set.insert_orders.push(gen::order_row(cfg, i));
        set.insert_lineitems
            .extend(gen::lineitems_of_order(cfg, i, parts));
    }
    let delete_base = (set_index * delete_orders_n) % n_orders.max(1);
    for i in delete_base..delete_base + delete_orders_n {
        let idx = i % n_orders;
        set.delete_orders.push(gen::order_row(cfg, idx));
        set.delete_lineitems
            .extend(gen::lineitems_of_order(cfg, idx, parts));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_track_scale_factor() {
        let cfg = TpchConfig::new(1.0);
        let set = generate_update_set(&cfg, 0);
        // ≈120 new orders with ≈4 lineitems each ≈ 600 insert rows.
        let inserts = set.insert_orders.len() + set.insert_lineitems.len();
        let deletes = set.delete_orders.len() + set.delete_lineitems.len();
        assert!((400..900).contains(&inserts), "inserts = {inserts}");
        assert!((90..260).contains(&deletes), "deletes = {deletes}");
    }

    #[test]
    fn inserted_orders_are_beyond_loaded_domain() {
        let cfg = TpchConfig::new(0.001);
        let set = generate_update_set(&cfg, 0);
        for o in &set.insert_orders {
            assert!(o.order_key > cfg.order_count());
        }
    }

    #[test]
    fn consecutive_sets_are_disjoint() {
        let cfg = TpchConfig::new(0.01);
        let s0 = generate_update_set(&cfg, 0);
        let s1 = generate_update_set(&cfg, 1);
        let keys0: std::collections::HashSet<u64> =
            s0.insert_orders.iter().map(|o| o.order_key).collect();
        assert!(s1
            .insert_orders
            .iter()
            .all(|o| !keys0.contains(&o.order_key)));
        let del0: std::collections::HashSet<u64> =
            s0.delete_orders.iter().map(|o| o.order_key).collect();
        assert!(s1
            .delete_orders
            .iter()
            .all(|o| !del0.contains(&o.order_key)));
    }

    #[test]
    fn deletes_reference_loaded_orders() {
        let cfg = TpchConfig::new(0.001);
        let set = generate_update_set(&cfg, 0);
        for o in &set.delete_orders {
            assert!(o.order_key <= cfg.order_count());
        }
        assert!(
            !set.delete_orders.is_empty(),
            "the loop above checked something"
        );
    }
}
