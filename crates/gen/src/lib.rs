//! Synthetic weighted graph generators for the CL-DIAM benchmarks.
//!
//! The paper evaluates on three graph classes (Table 1):
//!
//! 1. **road networks** — roads-USA and roads-CAL from the DIMACS shortest
//!    path challenge, with original integer weights;
//! 2. **social networks** — livejournal (SNAP) and twitter (LAW), born
//!    unweighted, assigned uniform random weights in `(0, 1]`;
//! 3. **synthetic graphs** — `mesh(S)` (an `S×S` mesh), `R-MAT(S)` (power-law
//!    degree distribution, `2^S` nodes and `16·2^S` edges) and `roads(S)` (the
//!    cartesian product of a linear array of `S` nodes with roads-USA).
//!
//! The proprietary datasets are not redistributable, so this crate provides
//! generators for every class: the paper's own synthetic families are
//! implemented exactly as described, and the real datasets are replaced by
//! synthetic proxies with the same topological character (see `DESIGN.md`,
//! "Substitutions"). Every generator is deterministic given a `u64` seed.

#![forbid(unsafe_code)]

pub mod mesh;
pub mod path;
pub mod random;
pub mod rmat;
pub mod roads;
pub mod spec;
pub mod weights;

pub use mesh::mesh;
pub use path::path;
pub use random::{gnm_random, preferential_attachment};
pub use rmat::{rmat, RmatParams, GEN_CHUNKS};
pub use roads::{road_network, roads_product};
pub use spec::GraphSpec;
pub use weights::{assign_weights, WeightModel};
