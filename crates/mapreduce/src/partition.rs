//! Shuffle partitioners.
//!
//! Hash partitioning is Hadoop's default. Range partitioning with sampled
//! quantile boundaries is how Pig balances its `ORDER BY` job (§3.1: "it
//! samples the records in the join result file in the map phase, and
//! appropriate quantiles are computed at the reduce phase ... used to
//! construct a balanced partitioner for the third job").

/// Maps a shuffle key to a reducer.
pub trait Partitioner: Send + Sync {
    /// Reducer index for `key`, in `[0, num_reducers)`.
    fn partition(&self, key: &[u8], num_reducers: usize) -> usize;
}

/// Hadoop-default hash partitioning (stable across runs).
#[derive(Default, Clone, Copy, Debug)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &[u8], num_reducers: usize) -> usize {
        // FNV-1a, reduced; independent of the sketch-crate seeds.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % num_reducers as u64) as usize
    }
}

/// Range partitioning over sorted boundary keys: reducer `i` receives keys
/// in `[boundary[i-1], boundary[i])`.
#[derive(Clone, Debug)]
pub struct RangePartitioner {
    boundaries: Vec<Vec<u8>>,
}

impl RangePartitioner {
    /// Builds from explicit boundaries (must be sorted; one fewer than the
    /// reducer count they will serve).
    pub fn new(mut boundaries: Vec<Vec<u8>>) -> Self {
        boundaries.sort();
        RangePartitioner { boundaries }
    }
}

impl Partitioner for RangePartitioner {
    fn partition(&self, key: &[u8], num_reducers: usize) -> usize {
        let idx = self.boundaries.partition_point(|b| b.as_slice() <= key);
        idx.min(num_reducers - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_in_range() {
        let p = HashPartitioner;
        let a = p.partition(b"key", 7);
        assert_eq!(a, p.partition(b"key", 7));
        for k in 0..200u32 {
            assert!(p.partition(&k.to_be_bytes(), 7) < 7);
        }
    }

    #[test]
    fn hash_spreads_keys() {
        let p = HashPartitioner;
        let mut counts = [0usize; 4];
        for k in 0..4000u32 {
            counts[p.partition(&k.to_be_bytes(), 4)] += 1;
        }
        for c in counts {
            assert!(c > 700, "partition starved: {counts:?}");
        }
    }

    #[test]
    fn range_respects_boundaries() {
        let p = RangePartitioner::new(vec![b"g".to_vec(), b"p".to_vec()]);
        assert_eq!(p.partition(b"a", 3), 0);
        assert_eq!(p.partition(b"g", 3), 1, "boundary key goes right");
        assert_eq!(p.partition(b"k", 3), 1);
        assert_eq!(p.partition(b"z", 3), 2);
    }

    #[test]
    fn range_clamps_to_reducer_count() {
        // More boundaries than reducers: indices clamp.
        let p = RangePartitioner::new(vec![b"b".to_vec(), b"d".to_vec(), b"f".to_vec()]);
        assert_eq!(p.partition(b"z", 2), 1);
    }

    /// Pig's sample job over an empty join result yields no boundaries.
    #[test]
    fn empty_sample_yields_single_partition() {
        let p = RangePartitioner::new(Vec::new());
        assert_eq!(p.partition(b"anything", 4), 0);
    }
}
