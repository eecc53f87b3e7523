//! Experiment harness library: the DFSIO and S-Live workload generators
//! (§7's benchmarks) and small table-formatting helpers shared by the
//! per-figure binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md §4 for the index); `run_all` regenerates
//! everything.

#![forbid(unsafe_code)]

pub mod dfsio;
pub mod experiments;
pub mod slive;
pub mod table;

pub use dfsio::{read_workload, write_workload, DfsioResult};
pub use slive::{run_slive, SliveResult};
