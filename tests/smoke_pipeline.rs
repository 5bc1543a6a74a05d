//! Smoke test: the full CL-DIAM pipeline, end to end, on one small seeded
//! graph per benchmark family.
//!
//! Each run exercises every stage the paper composes — generate →
//! `CLUSTER` → quotient graph → `approximate_diameter` — and checks the
//! paper's headline guarantees:
//!
//! * the SSSP lower bound never exceeds the CL-DIAM upper bound
//!   (`lower ≤ upper`);
//! * the approximation ratio `upper / lower` stays below `2 + ε` (Theorem 1's
//!   practical regime; the paper observes ratios well below 1.4);
//! * on a path graph with singleton clusters the estimate is *exactly* the
//!   diameter.

use cldiam::gen::GraphSpec;
use cldiam::graph::{largest_component, CancelToken};
use cldiam::prelude::*;
use cldiam::sssp::exact_diameter;
use cldiam_core::{cluster, quotient_graph};

/// `ε` of the smoke-level ratio check. The theory bound is `2 + ε` for small
/// `ε`; the instances here are tiny, so we keep a generous-but-meaningful
/// margin over the observed ratios (all below 1.6).
const EPSILON: f64 = 0.25;

fn smoke(spec: GraphSpec, tau: usize, seed: u64) {
    let (graph, _) = largest_component(&spec.generate(seed));
    let label = spec.label();
    assert!(graph.num_nodes() > 16, "{label}: generated graph too small");

    // Stage 1+2: CLUSTER decomposition, validated as a genuine partition.
    let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
    let clustering = cluster(&graph, &config, &CancelToken::never());
    clustering.validate(&graph).unwrap_or_else(|e| panic!("{label}: invalid clustering: {e}"));

    // Stage 3: quotient graph — one node per cluster.
    let quotient = quotient_graph(&graph, &clustering);
    assert_eq!(
        quotient.graph.num_nodes(),
        clustering.num_clusters(),
        "{label}: quotient must have one node per cluster"
    );

    // Stage 4: the full driver (same decomposition logic) and the bounds.
    let estimate = approximate_diameter(&graph, &config);
    let lower = diameter_lower_bound(&graph, 4, seed);
    assert!(
        lower <= estimate.upper_bound,
        "{label}: lower bound {lower} exceeds upper bound {}",
        estimate.upper_bound
    );
    let ratio = estimate.ratio_against(lower);
    assert!(
        ratio < 2.0 + EPSILON,
        "{label}: ratio {ratio} breaches the 2 + ε bound (lower {lower}, upper {})",
        estimate.upper_bound
    );

    // The lower bound itself must be sound: never above the exact diameter
    // (cheap to verify at smoke-test sizes).
    let exact = exact_diameter(&graph);
    assert!(lower <= exact, "{label}: lower bound {lower} above exact diameter {exact}");
    assert!(
        estimate.upper_bound >= exact,
        "{label}: upper bound {} below exact diameter {exact}",
        estimate.upper_bound
    );
}

#[test]
fn mesh_pipeline_smokes() {
    smoke(GraphSpec::Mesh { side: 14 }, 4, 7);
}

#[test]
fn rmat_pipeline_smokes() {
    smoke(GraphSpec::RMat { scale: 8 }, 8, 11);
}

#[test]
fn road_network_pipeline_smokes() {
    smoke(GraphSpec::RoadNetwork { rows: 15, cols: 15 }, 4, 13);
}

#[test]
fn path_graph_estimate_is_exact() {
    // With τ ≫ n every node becomes a singleton cluster (radius 0) and the
    // quotient is the path itself, so Φ(G_C) + 2R is the exact diameter.
    let graph = cldiam::gen::path(40, 3);
    let exact = exact_diameter(&graph);
    assert_eq!(exact, 39 * 3);
    let config = ClusterConfig::default().with_tau(1024).with_seed(1);
    let estimate = approximate_diameter(&graph, &config);
    assert_eq!(estimate.upper_bound, exact, "singleton clustering must be exact");
    assert_eq!(estimate.radius, 0);
    assert!(estimate.quotient_exact);
}
