//! # perfbench — host-time benchmark of the hlwk stack
//!
//! Runs cells of the paper's Fig. 7 and Fig. 8 grids serially on one thread
//! through the stack's public entry points (`Cluster::build`,
//! `Cluster::run_osu`, `Cluster::run_miniapp`, `miniapps::run_clocks`,
//! `miniapps::run`) and times them from outside the program. See
//! `README.md` for the workloads and what each metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spans;
pub mod workload;

pub use workload::{run, CellResult, Outcome, Workload};
