//! # cldiam — cluster-based diameter approximation of massive weighted graphs
//!
//! Umbrella crate re-exporting the full workspace: a from-scratch Rust
//! reproduction of *"A Practical Parallel Algorithm for Diameter Approximation
//! of Massive Weighted Graphs"* (Ceccarello, Pietracaprina, Pucci, Upfal,
//! IPPS 2016), including every substrate the paper depends on.
//!
//! ## Crates
//!
//! * [`graph`] — weighted undirected CSR graphs, builders, components, I/O.
//! * [`gen`] — synthetic graph generators (R-MAT, mesh, road networks, …).
//! * [`mr`] — the paper's `MR(M_T, M_L)` cost model (rounds, messages,
//!   node updates).
//! * [`sssp`] — Dijkstra and the Δ-stepping baseline, plus diameter
//!   upper/lower bounds based on SSSP.
//! * [`core`] — the paper's contribution: `CLUSTER`, `CLUSTER2`, quotient
//!   graphs and the `CL-DIAM` diameter approximation driver.
//!
//! ## Quickstart
//!
//! ```
//! use cldiam::prelude::*;
//!
//! // A 32x32 mesh with uniform random weights in (0, 1].
//! let graph = cldiam::gen::mesh(32, WeightModel::UniformUnit, 42);
//! let config = ClusterConfig::default().with_tau(16).with_seed(7);
//! let estimate = approximate_diameter(&graph, &config);
//! let lower = cldiam::sssp::diameter_lower_bound(&graph, 4, 7);
//! assert!(estimate.upper_bound >= lower);
//! ```

#![forbid(unsafe_code)]

pub use cldiam_core as core;
pub use cldiam_gen as gen;
pub use cldiam_graph as graph;
pub use cldiam_mr as mr;
pub use cldiam_sssp as sssp;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use cldiam_core::{
        approximate_diameter, ClDiam, ClusterConfig, Clustering, DiameterEstimate, InitialDelta,
    };
    pub use cldiam_gen::WeightModel;
    pub use cldiam_graph::{Dist, Graph, GraphBuilder, NodeId, Weight};
    pub use cldiam_mr::CostMetrics;
    pub use cldiam_sssp::{delta_stepping, diameter_lower_bound};
}
