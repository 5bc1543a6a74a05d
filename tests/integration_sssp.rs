//! Integration tests for the SSSP substrate against the generator families:
//! Δ-stepping must agree with Dijkstra everywhere, and the diameter bounds
//! must bracket the exact value.

use cldiam::gen::{GraphSpec, WeightModel};
use cldiam::graph::largest_component;
use cldiam::prelude::*;
use cldiam::sssp::{
    diameter_lower_bound, dijkstra, exact_diameter, sssp_diameter_upper_bound, suggest_delta,
    ComponentSplit,
};
use cldiam_mr::CostTracker;
use cldiam_testkit::bellman_ford;
use cldiam_testkit::traversal::double_sweep_hop_diameter;

fn specs() -> Vec<(GraphSpec, u64)> {
    vec![
        (GraphSpec::Mesh { side: 14 }, 1),
        (GraphSpec::RoadNetwork { rows: 16, cols: 16 }, 2),
        (GraphSpec::PreferentialAttachment { nodes: 400, edges_per_node: 3 }, 3),
        (GraphSpec::RMat { scale: 8 }, 4),
        (GraphSpec::Gnm { nodes: 300, edges: 900 }, 5),
    ]
}

#[test]
fn delta_stepping_matches_dijkstra_on_every_family() {
    for (spec, seed) in specs() {
        let (graph, _) = largest_component(&spec.generate(seed));
        let source = (graph.num_nodes() / 2) as u32;
        let expected = dijkstra(&graph, source);
        for delta in [suggest_delta(&graph), suggest_delta(&graph) * 8, 1_000_000] {
            let outcome = delta_stepping(&graph, source, delta, None);
            assert_eq!(outcome.dist, expected.dist, "{} with delta {delta}", spec.label());
        }
    }
}

#[test]
fn bellman_ford_matches_dijkstra_on_every_family() {
    for (spec, seed) in specs() {
        let (graph, _) = largest_component(&spec.generate(seed));
        let bf = bellman_ford(&graph, 0);
        let dj = dijkstra(&graph, 0);
        assert_eq!(bf.dist, dj.dist, "{}", spec.label());
    }
}

#[test]
fn diameter_bounds_bracket_the_exact_value() {
    for (spec, seed) in specs() {
        let (graph, _) = largest_component(&spec.generate(seed));
        let exact = exact_diameter(&graph);
        let lower = diameter_lower_bound(&graph, 4, seed);
        let upper = sssp_diameter_upper_bound(&graph, 0, &ComponentSplit::compute(&graph));
        assert!(lower <= exact, "{}: lower {lower} > exact {exact}", spec.label());
        assert!(upper >= exact, "{}: upper {upper} < exact {exact}", spec.label());
        assert!(upper <= exact * 2, "{}: upper {upper} > 2x exact {exact}", spec.label());
    }
}

#[test]
fn delta_tradeoff_rounds_versus_work() {
    // The Δ-stepping design parameter trades parallel rounds for work: a tiny
    // Δ behaves like Dijkstra (many phases), a huge Δ like Bellman-Ford
    // (few phases, more relaxations).
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 20 }.generate(7));
    let fine = delta_stepping(&graph, 0, 2_000, None);
    let coarse = delta_stepping(&graph, 0, 2_000_000, None);
    assert!(fine.phases > coarse.phases);
    assert!(coarse.relaxations >= fine.relaxations);
}

#[test]
fn tracker_accumulates_across_runs() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 10 }.generate(9));
    let tracker = CostTracker::new();
    let a = delta_stepping(&graph, 0, 500_000, Some(&tracker));
    let b = delta_stepping(&graph, 5, 500_000, Some(&tracker));
    let snapshot = tracker.snapshot();
    assert_eq!(snapshot.rounds, a.phases + b.phases);
    assert_eq!(snapshot.messages, a.relaxations + b.relaxations);
}

#[test]
fn hop_metrics_behave_on_mesh() {
    // For a mesh with uniform (0,1] weights, Ψ(G) = 2(S-1).
    let side = 12;
    let graph = cldiam::gen::mesh(side, WeightModel::UniformUnit, 3);
    assert_eq!(double_sweep_hop_diameter(&graph, 0) as usize, 2 * (side - 1));
}

#[test]
fn unweighted_diameter_lower_bounds_delta_stepping_rounds_on_unit_weights() {
    // With unit weights and Δ = 1, every Δ-stepping bucket phase advances one
    // hop: the number of phases is at least the eccentricity of the source,
    // which is at least half the unweighted diameter — the paper's argument
    // for why Δ-stepping needs Ω(Ψ) rounds under linear space.
    let graph = cldiam::gen::mesh(16, WeightModel::Unit, 2);
    let psi = double_sweep_hop_diameter(&graph, 0) as u64;
    let outcome = delta_stepping(&graph, 0, 1, None);
    assert!(
        outcome.phases * 2 >= psi,
        "phases {} too small for unweighted diameter {psi}",
        outcome.phases
    );
}
