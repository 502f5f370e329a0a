//! `rj_analyze` — machine enforcement for the invariants the rank-join
//! execution core rests on.
//!
//! Two subsystems, both CI-gated and both dependency-free:
//!
//! * [`lint`] — **rjlint**, a source-level lint pass with repo-specific
//!   rules (SAFETY rationales on `unsafe`, `total_cmp`-only float
//!   ordering, typed errors instead of `unwrap()` in library paths, pool
//!   -only threading, host-clock-free simulated metrics) plus an audited
//!   inline suppression contract and a JSON report for CI. Run it with
//!   `cargo run -p rj_analyze --bin rjlint`.
//! * [`chk`] — **rj_check**, a loom-style deterministic interleaving
//!   explorer: shim `Mutex`/`Condvar`/`Atomic*` wrappers record every
//!   scheduling decision and a DFS with bounded preemptions explores the
//!   interleavings of small concurrent protocols. `rj_core`'s cancel
//!   token compiles against the shims under `--cfg rj_check` and
//!   model-tests its cancel/observe protocol.

#![forbid(unsafe_code)]

pub mod chk;
pub mod lint;
