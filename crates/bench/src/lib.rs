//! The `cldiam` command-line tool's library: the paper's instrumentation
//! around each algorithm, and the report it prints.
//!
//! The [`runner`] module executes `CL-DIAM`, the Δ-stepping baseline and the
//! anytime bounds engine, one entry point per algorithm, with the paper's
//! instrumentation (approximation ratio against an SSSP lower bound,
//! wall-clock time, MapReduce rounds, work); the [`report`] module renders
//! the rows as a Table 2-style text table and JSON.
//!
//! The `cldiam` binary runs these on a graph file or a generator spec.
//! Performance is measured by `perfbench/`, a package of its own at the
//! repository root; README's "Reproducing the paper's experiments" table
//! names the check behind each of the paper's claims.

#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod runner;
pub mod threads;
