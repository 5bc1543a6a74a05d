//! Reproduction of the CL-DIAM paper's experiments.
//!
//! The [`workloads`] module maps every graph of the paper's Table 1 to a
//! laptop-scale synthetic proxy; the [`runner`] module executes `CL-DIAM`,
//! the Δ-stepping baseline and the anytime bounds engine with the paper's
//! instrumentation (approximation ratio against an SSSP lower bound,
//! wall-clock time, MapReduce rounds, work); the [`report`] module renders
//! the rows as text tables and JSON.
//!
//! The `reproduce` binary regenerates every table and figure of the paper's
//! evaluation section, and the `cldiam` binary runs the same instrumented
//! algorithms on a graph file or a generator spec. Performance is measured
//! by `perfbench/`, a package of its own at the repository root.

#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod runner;
pub mod threads;
pub mod workloads;

pub use report::{render_figure, render_table, to_json, ResultRow};
pub use runner::{
    reference_lower_bound, reference_lower_bound_with_split, run_bounds, run_bounds_directed,
    run_cldiam, run_cldiam_with, run_delta_stepping_best, run_delta_stepping_with, RunResult,
};
pub use threads::{configured_threads, install_with_threads};
pub use workloads::{Workload, WorkloadSet};
