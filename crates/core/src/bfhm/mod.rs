//! BFHM — the Bloom Filter Histogram Matrix rank join (paper §5).
//!
//! The BFHM is a two-level statistical structure: an equi-width histogram
//! on the score axis whose buckets each hold a **hybrid single-hash Bloom
//! filter with counters** over the join values of the bucket's tuples,
//! Golomb-compressed into a "blob", plus **reverse-mapping rows** keyed
//! `bucket|bitpos` that map set bits back to actual tuples.
//!
//! Query processing (§5.2) runs in two phases:
//!
//! 1. **estimation** — fetch blob rows for the two relations alternately
//!    in descending score order, "join" bucket pairs by ANDing their
//!    bitmaps and multiplying counters (scaled by the §5.3 α factor that
//!    compensates for false positives), until no unexamined bucket
//!    combination can beat the estimated k-th result;
//! 2. **reverse mapping** — fetch the `bucket|bitpos` rows of the
//!    surviving bucket pairs, join the *actual* tuples (re-checking join
//!    values, so Bloom collisions cost fetches but never wrong results),
//!    and assemble the final top-k.
//!
//! A guarantee loop (§5.3) then re-examines purged/unfetched buckets whose
//! maximum attainable score could still displace the k-th actual result —
//! this is what makes the algorithm's recall provably 100% (Theorem 1)
//! despite its probabilistic core. Its per-round state is reported in
//! [`crate::stats::QueryOutcome`]'s extras (`rounds`, `buckets_fetched`,
//! `estimates`, `bucket_gets`, `reverse_rows_fetched`).

mod index;
pub mod maintenance;
mod query;

pub use index::{build_pair, index_table_name, BfhmBuildStats};
pub use query::run;
pub(crate) use query::{run_shared, BfhmBuffers, BfhmCore, BfhmCursor};

use rj_sketch::blob::BlobCodec;
use rj_sketch::hybrid::AlphaMode;

/// How the estimation phase bounds the k-th estimated result (see
/// DESIGN.md §5: the paper's prose says "minimum score of the k'th
/// estimated result" but its §5.2 walk-through terminates with the k-th
/// estimate's *maximum* score and bucket-boundary bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Reproduces the §5.2 walk-through: k-th estimate's **max** score;
    /// unexamined combinations bounded by bucket boundaries. Terminates
    /// earlier; the §5.3 guarantee loop restores 100% recall.
    #[default]
    PaperFigure,
    /// k-th estimate's **min** score; fetched sides bounded by actual
    /// blob maxima. Never terminates estimation earlier than the paper's
    /// rule.
    Conservative,
}

/// BFHM configuration.
#[derive(Clone, Debug)]
pub struct BfhmConfig {
    /// Histogram buckets (the paper runs 100, 500, and 1000).
    pub num_buckets: u32,
    /// Target false-positive probability used to size filters for the
    /// most-populated bucket (the paper's 5%).
    pub target_fpp: f64,
    /// Explicit filter size `m` in bits; `None` auto-sizes with a counting
    /// pre-pass over both relations.
    pub filter_bits: Option<usize>,
    /// Blob wire format (Golomb per the paper; Raw for the ablation).
    pub codec: BlobCodec,
    /// α false-positive compensation (§5.3); `Off` for the ablation.
    pub alpha: AlphaMode,
    /// Estimation-termination bound mode.
    pub bound_mode: BoundMode,
}

impl Default for BfhmConfig {
    fn default() -> Self {
        BfhmConfig {
            num_buckets: 100,
            target_fpp: 0.05,
            filter_bits: None,
            codec: BlobCodec::Golomb,
            alpha: AlphaMode::Compensated,
            bound_mode: BoundMode::PaperFigure,
        }
    }
}

impl BfhmConfig {
    /// Config with a given bucket count, defaults elsewhere.
    pub fn with_buckets(num_buckets: u32) -> Self {
        BfhmConfig {
            num_buckets,
            ..Default::default()
        }
    }
}
