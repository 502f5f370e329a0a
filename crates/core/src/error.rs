//! Error type shared by all rank-join algorithms.

use rj_mapreduce::engine::EngineError;
use rj_sketch::blob::BlobError;
use rj_store::error::StoreError;

use crate::codec::CodecError;

/// Anything that can go wrong while planning or executing a rank join.
#[derive(Debug)]
pub enum RankJoinError {
    /// Store-level failure.
    Store(StoreError),
    /// MapReduce engine failure.
    Engine(EngineError),
    /// Record decoding failure.
    Codec(CodecError),
    /// BFHM blob decoding failure.
    Blob(BlobError),
    /// A required index table is missing — build it first.
    MissingIndex(String),
    /// A maintained-side delete targeted a row that does not exist.
    MissingRow,
    /// A score entering the system was NaN or infinite. Scores must be
    /// finite (the paper normalizes them to `[0,1]`, §1.1); rejecting
    /// them at ingest keeps NaN out of every sort and bound computation
    /// on the query path.
    NonFiniteScore(f64),
    /// A finite score outside `[0, 1]` offered at ingest. The paper
    /// normalizes scores to `[0, 1]` (§1.1), and the statistics' score
    /// histograms bucket that interval: a score past either end would
    /// land in an edge bucket, misdescribing the data they plan from.
    ScoreOutOfRange(f64),
    /// A side accessor was asked for an index the query does not have —
    /// the checked replacement for the old panicking
    /// `RankJoinQuery::side`.
    SideOutOfRange {
        /// The index asked for.
        index: usize,
        /// How many sides the query has.
        sides: usize,
    },
    /// An N-ary [`crate::query::JoinSpec`] failed validation (too few
    /// sides, duplicate labels, or edges that do not form a connected
    /// join tree).
    InvalidSpec(&'static str),
    /// A paused cursor was resumed after the backing statistics version
    /// moved — a maintained write or index rebuild happened between pause
    /// and resume, so the cursor's buffered tuples and scan positions may
    /// no longer reflect the data. The token is permanently invalid; the
    /// caller must re-run the query (see [`crate::cursor::CursorState`]).
    StaleCursor {
        /// The statistics version the cursor was opened under.
        expected: u64,
        /// The backend's current statistics version.
        found: u64,
    },
    /// Internal invariant violation.
    Internal(&'static str),
}

impl std::fmt::Display for RankJoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankJoinError::Store(e) => write!(f, "store: {e}"),
            RankJoinError::Engine(e) => write!(f, "mapreduce: {e}"),
            RankJoinError::Codec(e) => write!(f, "codec: {e}"),
            RankJoinError::Blob(e) => write!(f, "blob: {e}"),
            RankJoinError::MissingIndex(t) => {
                write!(f, "index table {t} not found — build the index first")
            }
            RankJoinError::MissingRow => write!(f, "delete of a missing row"),
            RankJoinError::NonFiniteScore(s) => {
                write!(f, "non-finite score {s} rejected — scores must be finite")
            }
            RankJoinError::ScoreOutOfRange(s) => {
                write!(
                    f,
                    "score {s} outside [0, 1] rejected — scores must be in [0, 1]"
                )
            }
            RankJoinError::SideOutOfRange { index, sides } => {
                write!(f, "side index {index} out of range for a {sides}-way join")
            }
            RankJoinError::InvalidSpec(m) => write!(f, "invalid join spec: {m}"),
            RankJoinError::StaleCursor { expected, found } => write!(
                f,
                "stale cursor: paused at statistics version {expected}, \
                 backend is now at {found} — re-run the query"
            ),
            RankJoinError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for RankJoinError {}

impl From<StoreError> for RankJoinError {
    fn from(e: StoreError) -> Self {
        RankJoinError::Store(e)
    }
}

impl From<EngineError> for RankJoinError {
    fn from(e: EngineError) -> Self {
        RankJoinError::Engine(e)
    }
}

impl From<CodecError> for RankJoinError {
    fn from(e: CodecError) -> Self {
        RankJoinError::Codec(e)
    }
}

impl From<BlobError> for RankJoinError {
    fn from(e: BlobError) -> Self {
        RankJoinError::Blob(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RankJoinError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e: RankJoinError = StoreError::TableNotFound("x".into()).into();
        assert!(e.to_string().contains("x"));
        let e = RankJoinError::MissingIndex("isl_idx".into());
        assert!(e.to_string().contains("isl_idx"));
        let e = RankJoinError::NonFiniteScore(f64::NAN);
        assert!(e.to_string().contains("non-finite"));
        let e = RankJoinError::ScoreOutOfRange(1.5);
        assert!(e.to_string().contains("outside [0, 1]"));
    }
}
