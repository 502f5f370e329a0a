//! The join-value partitioning of the DRJN comparator's 2-D histogram.
//!
//! Doulkeridis et al. (ICDE 2012, the paper's reference `[8]`) keep, per join
//! value, a histogram on the score axis. Because one bucket per distinct
//! join value is infeasible, adjacent join values are grouped into
//! partitions under a uniform-frequency assumption. The paper's §7.1
//! adaptation stores all buckets for one score range as the columns of a
//! single row, so the querying node retrieves a complete batch of buckets
//! with a single `Get`; `rj_core::drjn` builds and reads those rows. This
//! module provides the stable join-value → partition mapping they share.

use crate::hash::{hash_bytes, reduce};

/// Seed for the join-value → partition mapping. Persisted layout; fixed.
const DRJN_SEED: u64 = 0x5eed_0d12;

/// Join partition of a value given a partition count — the stable mapping
/// every DRJN index build and read shares.
pub fn partition_for(join_value: &[u8], num_partitions: u32) -> u32 {
    reduce(hash_bytes(DRJN_SEED, join_value), num_partitions as usize) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_deterministic() {
        let p = partition_for(b"key", 100);
        assert!(p < 100);
        assert_eq!(partition_for(b"key", 100), p);
    }
}
