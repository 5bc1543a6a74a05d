//! Shortest-path substrate and the paper's baselines.
//!
//! The paper compares `CL-DIAM` against the natural SSSP-based diameter
//! approximation: run a single-source shortest path computation from an
//! arbitrary node and return twice the largest distance found (a
//! 2-approximation of the diameter). The state-of-the-art practical parallel
//! SSSP algorithm — and therefore "the only practical linear-space
//! competitor" — is Δ-stepping (Meyer & Sanders, J. Algorithms 2003).
//!
//! This crate provides:
//!
//! * [`dijkstra`](mod@dijkstra) — sequential binary-heap Dijkstra
//!   returning distances; no pipeline path calls it, it is the exactness
//!   oracle of the tests.
//! * [`batch`] — the batched multi-source engine: a reusable
//!   [`DijkstraScratch`], the one Dijkstra kernel of every exact SSSP
//!   (distances only, `O(1)` pushes into a 64-slot band ring that pops
//!   whole weight bands when the weights span at most 62 bands of width
//!   `2^⌊log₂ w_min⌋`, as on road networks, or into a monotone radix heap
//!   otherwise; `O(reached)` resets, `O(1)` eccentricity and farthest-node
//!   reads, one relax loop for forward and backward runs; a third less
//!   bounds-engine time on the compressed `road:700x700` LCC than with the
//!   radix heap alone), a [`ScratchPool`] shared by
//!   the workers of a batch, and the [`multi_source_dijkstra`] /
//!   [`batched_eccentricities`] drivers behind every iterated-SSSP consumer
//!   in the workspace.
//! * [`delta_stepping`](mod@delta_stepping) — the parallel Δ-stepping
//!   baseline on a cyclic bucket-array engine with atomic fetch-min
//!   relaxation and a reusable [`SsspScratch`], with the paper's cost model
//!   charged to a [`cldiam_mr::CostTracker`] (one round per light/heavy
//!   relaxation phase, messages = relaxation requests, node updates =
//!   distinct improved nodes per phase).
//! * [`diameter`] — SSSP-based upper and lower bounds for the weighted
//!   diameter (iterated farthest-node sweep chains), and an exact all-pairs
//!   diameter for small graphs, all running through the batched engine.
//! * [`bounds`] — the anytime `[lb, ub]` bound-tightening engine: per-node
//!   eccentricity intervals updated after every SSSP with the
//!   iFUB/BoundingDiameters rules, max-width source selection, and a
//!   directed 2-dSweep mode over forward/backward Dijkstra.
//!
//! The test oracles — Bellman-Ford and the simulated MapReduce engine — live
//! in the dev-only `cldiam-testkit` crate; the `BTreeMap` Δ-stepping
//! reference lives in `tests/prop_sssp_equivalence.rs`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod delta_stepping;
pub mod diameter;
pub mod dijkstra;

pub use batch::{
    batched_eccentricities, multi_source_dijkstra, DijkstraScratch, ScratchPool, SsspDirection,
};
pub use bounds::{
    bounds_diameter, bounds_diameter_directed, BoundsConfig, BoundsIteration, BoundsOutcome,
    DiameterOracle, NoOracle, NO_ORACLE,
};
pub use delta_stepping::{
    delta_stepping, delta_stepping_with_scratch, suggest_delta, DeltaSteppingOutcome, SsspScratch,
};
pub use diameter::{
    all_eccentricities, diameter_lower_bound, diameter_lower_bound_with_split, eccentricity,
    exact_diameter, sssp_diameter_upper_bound, sweep_chain_lower_bound, ComponentSplit,
};
pub use dijkstra::{dijkstra, ShortestPaths};
