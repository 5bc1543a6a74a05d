//! The `cldiam` command-line tool's library: the paper's instrumentation
//! around each algorithm, and the report it prints.
//!
//! The [`runner`] module executes `CL-DIAM`, the Δ-stepping baseline and the
//! anytime bounds engine, one entry point per algorithm, with the paper's
//! instrumentation (approximation ratio against an SSSP lower bound,
//! wall-clock time, MapReduce rounds, work); a bounds run also keeps the
//! engine's typed outcome and iteration trace. The [`report`] module renders
//! the rows as a Table 2-style text table and as JSON, through a private
//! write-only emitter. [`threads`] installs the pool `--threads` asks for.
//!
//! The `cldiam` binary runs these on a graph file or a generator spec.
//! Performance is measured by `perfbench/`, a package of its own at the
//! repository root; README's "Reproducing the paper's experiments" table
//! names the check behind each of the paper's claims.

#![forbid(unsafe_code)]

mod json;
pub mod report;
pub mod runner;
pub mod threads;

/// The test suites' JSON reader; the writer's unit tests parse their output
/// back with it.
#[cfg(test)]
#[path = "../tests/support/json.rs"]
mod json_reader;
