//! `CL-DIAM`: a practical parallel algorithm for diameter approximation of
//! massive weighted graphs.
//!
//! This crate implements the primary contribution of Ceccarello,
//! Pietracaprina, Pucci and Upfal (IPPS 2016):
//!
//! * the **Δ-growing step** — a parallel, threshold-bounded Bellman-Ford
//!   relaxation over light edges ([`growing`]);
//! * **`CLUSTER(G, τ)`** (Algorithm 1) — progressive, batched cluster growth
//!   with an automatically tuned threshold `Δ` ([`cluster`]);
//! * **`CLUSTER2(G, τ)`** (Algorithm 2) — the refined decomposition with
//!   doubling selection probabilities and rescaled contraction, used in the
//!   approximation analysis ([`cluster2`]);
//! * the explicit **`Contract`** procedure, compiled for tests only, which
//!   pins its equivalence with the state-based (logical) contraction used by
//!   the main implementation (`contract.rs`);
//! * the **weighted quotient graph** and the diameter estimate
//!   `Φ_approx(G) = Φ(G_C) + 2·R` ([`quotient`], [`diameter`]);
//! * the **anytime `[lb, ub]` driver** that plugs the quotient upper bound
//!   into the interval-tightening engine of `cldiam_sssp::bounds`
//!   ([`bounds`]).
//!
//! The implementation follows the paper's practical configuration (`CL-DIAM`):
//! decomposition via `CLUSTER`, initial `Δ` equal to the average edge weight
//! and `τ` chosen to keep the quotient graph small; every knob is exposed in
//! [`ClusterConfig`].
//!
//! # Example
//!
//! ```
//! use cldiam_core::{approximate_diameter, ClusterConfig};
//! use cldiam_gen::{mesh, WeightModel};
//! use cldiam_sssp::diameter_lower_bound;
//!
//! let graph = mesh(24, WeightModel::UniformUnit, 42);
//! let config = ClusterConfig::default().with_tau(8).with_seed(7);
//! let estimate = approximate_diameter(&graph, &config);
//! let lower = diameter_lower_bound(&graph, 4, 7);
//! assert!(estimate.upper_bound >= lower);
//! assert!(estimate.ratio_against(lower) < 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod atomic_state;
pub mod bounds;
pub mod cluster;
pub mod cluster2;
pub mod clustering;
pub mod config;
pub mod diameter;
pub mod growing;
pub mod quotient;
pub mod state;

pub use bounds::{
    anytime_diameter_cancel, anytime_diameter_with_split, anytime_diameter_with_split_cancel,
    AnytimeConfig,
};
pub use cluster::{cluster, cluster_cancel};
pub use cluster2::{cluster2, cluster2_cancel};
pub use clustering::Clustering;
pub use config::{ClusterConfig, InitialDelta};
pub use diameter::{
    approximate_diameter, approximate_diameter_cancel, approximation_ratio, ClDiam,
    DiameterEstimate,
};
pub use growing::{delta_growing_step, partial_growth, GrowScratch, GrowthOutcome, StepStats};
pub use quotient::{quotient_graph, QuotientGraph};
pub use state::{eff_below_threshold, eff_within_threshold, GrowState, EFF_INFINITY, NO_CENTER};

#[cfg(test)]
mod contract;
