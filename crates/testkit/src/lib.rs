//! Test oracles for the CL-DIAM workspace, kept out of the shipped crates.
//!
//! Everything here exists to check the production code from a second,
//! structurally different angle; nothing in the pipeline calls it. Its
//! normal dependencies reach `cldiam-graph`, `cldiam-mr`, `cldiam-sssp` and
//! `cldiam-core`, so only the umbrella crate (the integration suites and the
//! examples) and `cldiam-gen` take it as a dev-dependency: any of those four
//! would form a cycle.
//!
//! * [`engine`] / [`config`] — [`MrEngine`], a literal executor of
//!   `MR(M_T, M_L)` rounds: pairs are hash-partitioned to a configurable
//!   number of simulated machines, the machines run concurrently on a
//!   dedicated thread pool sized to the machine count, and per-machine
//!   results and load statistics merge back in machine order, so every round
//!   is deterministic. `M_L` violations are detected and reported. It
//!   charges the same [`cldiam_mr::CostTracker`] as the fast paths.
//! * [`primitives`] — the sorting and prefix-sum primitives of Fact 1, with
//!   their `O(log_{M_L} n)` round accounting.
//! * [`mr_impl`] — the Δ-growing step as a MapReduce round on the engine,
//!   which the equivalence suites pin to the in-place step of `cldiam-core`.
//! * [`bellman_ford()`] — a shortest-path oracle independent of Dijkstra.
//! * [`traversal`] — BFS hop distances and the double-sweep estimate of the
//!   unweighted diameter `Ψ(G)`, which the generator and SSSP suites check.

#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod config;
pub mod engine;
pub mod mr_impl;
pub mod primitives;
pub mod traversal;

pub use bellman_ford::{bellman_ford, BellmanFordOutcome};
pub use config::MrConfig;
pub use engine::{MachineLoad, MrEngine, RoundStats};
