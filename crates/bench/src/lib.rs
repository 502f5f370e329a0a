//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7), plus the studies of three extensions built on it: the
//! cost-based planner, statistics maintenance and multi-way joins.
//!
//! The harness builds a cluster under one of the paper's two testbed
//! profiles (EC2 / lab cluster), loads TPC-H-style data at a laptop-scaled
//! scale factor, builds all indices, runs every algorithm over a `k`
//! sweep, and prints figure-shaped tables of the three metrics: simulated
//! turnaround time, network bytes, and KV read units (dollar cost).
//!
//! Absolute numbers are not comparable to the paper's testbed (our
//! substrate is a simulator and the scale factors are thousands of times
//! smaller); the *shape* — who wins, by roughly what factor, where the
//! crossovers fall — is what the tables reproduce.
//!
//! Everything here runs on the simulated clock and is deterministic.
//! Host time and allocations are measured by the standalone `benchmark/`
//! package, never in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixture;
pub mod multiway;
pub mod planner;
pub mod report;
pub mod updates_planner;

pub use experiments::{
    apply_update_set, run_ablations, run_example_walkthrough, run_fig7, run_fig8, run_fig9,
    run_memory, run_scaling, run_sizes, run_updates,
};
pub use fixture::{Fixture, FixtureConfig, QuerySpec};
pub use multiway::{run_multiway, MultiwayBenchConfig, MultiwayReport};
pub use planner::{run_planner, PlannerReport};
pub use report::{Json, Table};
pub use updates_planner::{run_updates_planner, UpdatesPlannerReport};
