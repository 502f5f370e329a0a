//! A deterministic TPC-H-style data generator and store loader.
//!
//! The paper evaluates on TPC-H's Part, Orders, and Lineitem tables at scale
//! factors 10–500 (§7.1), with two rank-join queries:
//!
//! * **Q1**: `Part ⋈ Lineitem ON PartKey`, scored by
//!   `P.RetailPrice * L.ExtendedPrice` (product),
//! * **Q2**: `Orders ⋈ Lineitem ON OrderKey`, scored by
//!   `O.TotalPrice + L.ExtendedPrice` (sum),
//!
//! chosen "to showcase both the use of different aggregate scoring
//! functions and the effect of score value distributions on the query
//! processing time" — Q2 has fewer high-ranking tuples, so algorithms must
//! dig deeper. This generator reproduces exactly those properties:
//!
//! * TPC-H cardinality ratios — `SF × 200k` parts, `SF × 1.5M` orders,
//!   1–7 lineitems per order (≈ `SF × 6M` lineitems),
//! * normalized score attributes in `[0, 1]` (§1.1's convention) with
//!   contrasting distributions: Part retail scores ≈ uniform, Lineitem
//!   extended scores mildly skewed low, Orders total scores strongly
//!   skewed low (the "fewer high-ranking tuples" of Q2),
//! * refresh sets in the spirit of TPC-H RF1/RF2: ≈ `600 × SF` inserts
//!   and ≈ `150 × SF` deletes per set (§7.2's online-updates experiment).
//!
//! Generation is deterministic and random-access: row `i` is derived from
//! `(seed, table, i)`, so tests and benches get identical data across runs
//! and platforms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod loader;
pub mod text;
pub mod updates;

pub use gen::{LineitemRow, OrderRow, PartRow, TpchConfig};
pub use loader::{load_all, LoadStats};
pub use updates::{generate_update_set, UpdateSet};
