//! # hstencil-bench
//!
//! Experiment harness regenerating every table and figure of the HStencil
//! paper's evaluation (§5). One binary per artifact — see `DESIGN.md` §4
//! for the experiment index — plus Criterion benches over the same
//! workloads.

pub mod experiments;
pub mod fmt;
pub mod gates;
pub mod runner;

pub use fmt::Table;
pub use runner::{run_method, workload_2d, workload_3d};
