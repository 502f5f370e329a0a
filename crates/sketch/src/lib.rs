//! Statistical access structures for rank joins in NoSQL databases.
//!
//! This crate implements the probabilistic and statistical machinery of
//! Ntarmos, Patlakas & Triantafillou, *"Rank Join Queries in NoSQL
//! Databases"*, PVLDB 7(7), 2014 — most importantly the building blocks of
//! the **BFHM** (Bloom Filter Histogram Matrix, §5 of the paper):
//!
//! * [`bitvec::BitVec`] — a compact bit vector,
//! * [`bloom::SingleHashBloom`] — the single-hash-function Bloom filter the
//!   BFHM bucket is built on (single-hash so that set bit positions can be
//!   reverse-mapped to join values),
//! * [`bloom::ClassicBloom`] — a conventional k-hash Bloom filter, kept for
//!   ablation comparisons,
//! * [`hybrid::HybridFilter`] — the paper's fusion of a single-hash Bloom
//!   filter with a counting-filter hash table (Fig. 4),
//! * [`golomb`] — Golomb/Rice coding used to compress both the bitmap and
//!   the counter table ("an integral part of our data structure", §5.1),
//! * [`blob::BfhmBlob`] — the serialized BFHM bucket "blob" stored as a row
//!   value in the NoSQL store,
//! * [`histogram::ScoreHistogram`] — the first-level equi-width histogram on
//!   the score axis,
//! * [`hist2d::partition_for`] — the join-value partitioning of the 2-D
//!   equi-width histogram of the DRJN comparator (Doulkeridis et al., ICDE
//!   2012) as adapted in §7.1,
//! * [`flatmap::FlatMultiMap`] — the flat open-addressed multimap backing
//!   the rank-join hot loops (HRJN seen-tuples, BFHM reverse-row cache).
//!
//! Everything here is deterministic: hashing uses a fixed seeded mixer (see
//! [`hash`]) so that index layouts are reproducible across runs and
//! platforms, which the test-suite and the experiment harness rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod blob;
pub mod bloom;
pub mod flatmap;
pub mod golomb;
pub mod hash;
pub mod hist2d;
pub mod histogram;
pub mod hybrid;

pub use bitvec::BitVec;
pub use blob::{BfhmBlob, BlobCodec};
pub use bloom::{ClassicBloom, SingleHashBloom};
pub use flatmap::FlatMultiMap;
pub use histogram::ScoreHistogram;
pub use hybrid::HybridFilter;
