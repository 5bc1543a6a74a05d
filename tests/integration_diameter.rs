//! End-to-end integration tests for the diameter-approximation pipeline,
//! spanning the generator, graph, SSSP and core crates.
//!
//! Every test follows the structure of the paper's evaluation: generate a
//! benchmark-family graph, compute a trustworthy reference (the exact diameter
//! on these test-sized instances), and check that `CL-DIAM` returns a
//! conservative estimate with a practical approximation ratio — the paper
//! observes ratios below 1.4 against a *lower bound*, which translates into a
//! modest constant against the exact value.

use cldiam::gen::{GraphSpec, WeightModel};
use cldiam::graph::largest_component;
use cldiam::prelude::*;
use cldiam::sssp::{exact_diameter, sssp_diameter_upper_bound, ComponentSplit};
use cldiam_core::InitialDelta;

/// Runs CL-DIAM on the given spec and checks the estimate against the exact
/// diameter. Returns (exact, estimate ratio).
fn check_spec(spec: GraphSpec, tau: usize, seed: u64, max_ratio: f64) {
    let (graph, _) = largest_component(&spec.generate(seed));
    assert!(graph.num_nodes() > 10, "{}: generated graph too small", spec.label());
    let exact = exact_diameter(&graph);
    let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
    let estimate = approximate_diameter(&graph, &config);
    assert!(
        estimate.upper_bound >= exact,
        "{}: estimate {} below exact diameter {exact}",
        spec.label(),
        estimate.upper_bound
    );
    let ratio = estimate.ratio_against(exact);
    assert!(
        ratio <= max_ratio,
        "{}: approximation ratio {ratio:.3} exceeds {max_ratio}",
        spec.label()
    );
}

#[test]
fn mesh_family_is_well_approximated() {
    check_spec(GraphSpec::Mesh { side: 20 }, 4, 3, 1.8);
}

#[test]
fn road_family_is_well_approximated() {
    check_spec(GraphSpec::RoadNetwork { rows: 24, cols: 24 }, 4, 7, 1.8);
}

#[test]
fn social_family_is_well_approximated() {
    check_spec(GraphSpec::PreferentialAttachment { nodes: 700, edges_per_node: 3 }, 8, 5, 2.2);
}

#[test]
fn rmat_family_is_well_approximated() {
    check_spec(GraphSpec::RMat { scale: 9 }, 8, 11, 2.2);
}

#[test]
fn roads_product_family_is_well_approximated() {
    check_spec(GraphSpec::RoadsProduct { s: 3, rows: 10, cols: 10 }, 4, 2, 1.8);
}

#[test]
fn estimate_is_conservative_across_seeds_and_taus() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 16 }.generate(9));
    let exact = exact_diameter(&graph);
    for seed in [1u64, 2, 3] {
        for tau in [1usize, 4, 16] {
            let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
            let estimate = approximate_diameter(&graph, &config);
            assert!(
                estimate.upper_bound >= exact,
                "seed {seed} tau {tau}: {} < {exact}",
                estimate.upper_bound
            );
        }
    }
}

#[test]
fn cldiam_beats_sssp_bound_quality_on_high_diameter_graphs() {
    // On road-like graphs the SSSP 2-approximation from an arbitrary node is
    // typically much looser than the cluster-based estimate.
    let (graph, _) = largest_component(&GraphSpec::RoadNetwork { rows: 22, cols: 22 }.generate(13));
    let exact = exact_diameter(&graph);
    let config = ClusterConfig::default().with_tau(4).with_seed(13);
    let estimate = approximate_diameter(&graph, &config);
    let sssp_bound = sssp_diameter_upper_bound(&graph, 0, &ComponentSplit::compute(&graph));
    assert!(estimate.upper_bound >= exact);
    assert!(sssp_bound >= exact);
    assert!(
        estimate.upper_bound <= sssp_bound + exact / 4,
        "CL-DIAM {} much worse than SSSP bound {sssp_bound}",
        estimate.upper_bound
    );
}

#[test]
fn cluster2_pipeline_is_also_conservative() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 14 }.generate(4));
    let exact = exact_diameter(&graph);
    let config = ClusterConfig::default().with_tau(2).with_seed(4).with_cluster2(true);
    let estimate = approximate_diameter(&graph, &config);
    assert!(estimate.upper_bound >= exact);
}

#[test]
fn bimodal_weights_with_small_initial_delta_stay_tight() {
    // Integration version of the §5 experiment: with the self-tuned Δ the
    // estimate stays within a small factor of the truth.
    let graph = cldiam::gen::mesh(32, WeightModel::paper_bimodal(), 17);
    let exact = exact_diameter(&graph);
    let config = ClusterConfig::default()
        .with_tau(8)
        .with_seed(17)
        .with_initial_delta(InitialDelta::MinWeight);
    let estimate = approximate_diameter(&graph, &config);
    assert!(estimate.upper_bound >= exact);
    assert!(
        estimate.ratio_against(exact) < 1.6,
        "self-tuned Δ should stay tight, got {:.3}",
        estimate.ratio_against(exact)
    );
}

#[test]
fn metrics_are_internally_consistent() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 20 }.generate(6));
    let config = ClusterConfig::default().with_tau(4).with_seed(6);
    let estimate = approximate_diameter(&graph, &config);
    // Rounds include at least one per growing step plus the per-stage and
    // quotient rounds; work is positive; the quotient is non-trivial.
    assert!(estimate.metrics.rounds >= estimate.growing_steps);
    assert!(estimate.metrics.work() > 0);
    assert!(estimate.num_clusters > 1);
    assert!(estimate.quotient_edges > 0);
    assert!(estimate.radius > 0);
}
