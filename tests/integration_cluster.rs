//! Integration tests for the decomposition pipeline: clustering invariants
//! across configurations and graph families, quotient-graph structure, and
//! the equivalence between the logical and the MapReduce execution paths.

use cldiam::gen::GraphSpec;
use cldiam::graph::{largest_component, CancelToken};
use cldiam::prelude::*;
use cldiam::sssp::dijkstra;
use cldiam_core::{cluster, cluster2, quotient_graph, ClDiam};
use cldiam_testkit::{MrConfig, MrEngine};

fn families() -> Vec<(GraphSpec, u64)> {
    vec![
        (GraphSpec::Mesh { side: 16 }, 1),
        (GraphSpec::RoadNetwork { rows: 18, cols: 18 }, 2),
        (GraphSpec::PreferentialAttachment { nodes: 500, edges_per_node: 3 }, 3),
        (GraphSpec::RMat { scale: 8 }, 4),
    ]
}

#[test]
fn clustering_invariants_hold_on_every_family() {
    for (spec, seed) in families() {
        let (graph, _) = largest_component(&spec.generate(seed));
        for tau in [1usize, 4] {
            let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
            let clustering = cluster(&graph, &config, &CancelToken::never());
            clustering.validate(&graph).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            // Distances must upper-bound the true distance to the center.
            for &c in clustering.centers.iter().take(20) {
                let sp = dijkstra(&graph, c);
                for u in 0..graph.num_nodes() {
                    if clustering.assignment[u] == c {
                        assert!(
                            clustering.dist[u] >= sp.dist[u],
                            "{} tau {tau}: node {u} dist {} < true {}",
                            spec.label(),
                            clustering.dist[u],
                            sp.dist[u]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn cluster2_invariants_hold_on_every_family() {
    for (spec, seed) in families() {
        let (graph, _) = largest_component(&spec.generate(seed));
        let config = ClusterConfig::default().with_tau(2).with_seed(seed);
        let clustering = cluster2(&graph, &config, &CancelToken::never());
        clustering.validate(&graph).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
    }
}

#[test]
fn quotient_graph_structure_matches_clustering() {
    for (spec, seed) in families() {
        let (graph, _) = largest_component(&spec.generate(seed));
        let config = ClusterConfig::default().with_tau(4).with_seed(seed);
        let clustering = cluster(&graph, &config, &CancelToken::never());
        let quotient = quotient_graph(&graph, &clustering);
        assert_eq!(quotient.graph.num_nodes(), clustering.num_clusters(), "{}", spec.label());
        // Every quotient edge connects two distinct clusters and its weight is
        // at least the weight of some original boundary edge.
        let min_weight = graph.min_weight().unwrap();
        for (a, b, w) in quotient.graph.edges() {
            assert_ne!(a, b);
            assert!(w >= min_weight);
        }
        // The quotient cannot have more edges than the original graph.
        assert!(quotient.graph.num_edges() <= graph.num_edges());
    }
}

#[test]
fn tau_controls_cluster_count_monotonically_in_expectation() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 24 }.generate(5));
    let mut last = 0usize;
    for tau in [1usize, 2, 4, 8] {
        let config = ClusterConfig::default().with_tau(tau).with_seed(5);
        let clustering = cluster(&graph, &config, &CancelToken::never());
        let count = clustering.num_clusters();
        assert!(
            count + count / 2 >= last,
            "tau {tau}: cluster count {count} dropped sharply from {last}"
        );
        last = count;
    }
}

#[test]
fn decomposition_reuse_is_consistent_with_full_run() {
    let (graph, _) = largest_component(&GraphSpec::Mesh { side: 14 }.generate(2));
    let driver = ClDiam::new(ClusterConfig::default().with_tau(4).with_seed(2));
    let clustering = driver.decompose(&graph);
    let never = CancelToken::never();
    let via_reuse = driver.estimate_from_clustering(&graph, &clustering, &never);
    let via_run = driver.run(&graph, &never);
    assert_eq!(via_reuse.upper_bound, via_run.upper_bound);
    assert_eq!(via_reuse.num_clusters, via_run.num_clusters);
    assert_eq!(via_reuse.radius, via_run.radius);
}

#[test]
fn mapreduce_growth_matches_shared_memory_growth() {
    use cldiam::mr::CostTracker;
    use cldiam_core::{partial_growth, GrowScratch, GrowState};
    use cldiam_testkit::mr_impl::mr_partial_growth;

    let (graph, _) = largest_component(&GraphSpec::RoadNetwork { rows: 12, cols: 12 }.generate(6));
    let centers = [0u32, (graph.num_nodes() / 2) as u32, (graph.num_nodes() - 1) as u32];
    let threshold = 4_000u64;

    let mut fast = GrowState::new(graph.num_nodes());
    let mut slow = GrowState::new(graph.num_nodes());
    for &c in &centers {
        fast.set_center(c);
        slow.set_center(c);
    }
    let (tracker, never) = (CostTracker::new(), CancelToken::never());
    partial_growth(&graph, threshold, &mut fast, None, &tracker, &mut GrowScratch::new(), &never);
    let engine = MrEngine::new(MrConfig::with_machines(3));
    mr_partial_growth(&engine, &graph, threshold, &mut slow);
    assert_eq!(fast.eff, slow.eff);
    assert_eq!(fast.center, slow.center);
    assert_eq!(fast.true_dist, slow.true_dist);
}
