//! The paper's `MR(M_T, M_L)` cost model.
//!
//! The paper analyses its algorithms on the `MR(M_T, M_L)` model of
//! Pietracaprina et al.: a computation is a sequence of *rounds*; in a round a
//! multiset of key-value pairs is transformed by applying a *reducer*
//! independently to every group of pairs sharing a key; `M_T` bounds the total
//! memory and `M_L` the memory local to any single reducer. The cost of an
//! algorithm is its number of rounds, and the experimental section
//! additionally reports *work* — the number of node updates plus messages
//! generated.
//!
//! The paper's experiments run on Apache Spark over a 16-node cluster. This
//! crate is the single-process substitute's accounting:
//! [`CostTracker`] / [`CostMetrics`] are thread-safe counters of rounds,
//! messages, node updates and peak per-reducer memory. The shared-memory
//! implementations in `cldiam-core` and `cldiam-sssp` charge them exactly as
//! a MapReduce execution would, so the platform-independent metrics of
//! Table 2 and Figures 2–3 are reproduced exactly. A literal round executor
//! that charges the same model lives in the dev-only `cldiam-testkit` crate,
//! where the equivalence suites run it against the fast paths.

#![forbid(unsafe_code)]

pub mod metrics;

pub use metrics::{CostMetrics, CostTracker};
