//! Shared measurement infrastructure for the reproduction harness.
//!
//! Each paper figure/table has a binary in `src/bin/` that uses these
//! helpers to build calibrated systems, drive workloads, and time
//! operations; [`report`] reads the load generator's `BENCH_server.json`
//! back for the figures drawn from served runs. Per-layer timings are the
//! `per_layer` probes of the repo benchmark (`benchmark/`, `run --traced`).

pub mod baseline;
pub mod measure;
pub mod report;
pub mod setup;

pub use baseline::FixedBlockStore;
pub use measure::{measure_ops, MixedRunResult, OpTimer};
pub use setup::{evict_fraction_of_leaves, load_tree, standard_device, TreeUnderTest};
