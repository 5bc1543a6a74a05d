//! Property-based tests (proptest) over randomly generated weighted graphs.
//!
//! These exercise the invariants that the paper's correctness rests on:
//!
//! * Δ-stepping and Bellman-Ford agree with Dijkstra for every `Δ`;
//! * `CLUSTER` produces a partition whose recorded distances upper-bound the
//!   true distances to the centers;
//! * the quotient-based estimate `Φ(G_C) + 2R` never underestimates the true
//!   diameter;
//! * the graph builder and the MR primitives behave like their sequential
//!   specifications.

use proptest::prelude::*;

use cldiam::graph::CancelToken;
use cldiam::prelude::*;
use cldiam::sssp::exact_diameter;
use cldiam_core::cluster;
use cldiam_testkit::{bellman_ford, primitives, MrConfig, MrEngine};

/// Strategy: a connected-ish random weighted graph with `n` in 2..=24 nodes.
/// A spanning path guarantees connectivity so diameters are finite.
///
/// The `extra_edges` generator deliberately over-draws (endpoints in
/// `0..2n`, self-loops allowed) and the strategy sanitizes before
/// `GraphBuilder::add_edge`: endpoints are wrapped into `0..n` (modulo, which
/// stays uniform — a min-clamp would pile half of all draws onto node `n-1`)
/// so a stray id can never silently grow the node set (which would break the
/// spanning-path connectivity guarantee), and self-loops — drawn or produced
/// by wrapping — are skipped rather than relying on the builder to drop them.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..=24).prop_flat_map(|n| {
        let path_weights = proptest::collection::vec(1u32..=50, n - 1);
        let extra_edges =
            proptest::collection::vec((0..2 * n as u32, 0..2 * n as u32, 1u32..=50), 0..(2 * n));
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder = GraphBuilder::new(n);
            for (i, w) in pw.iter().enumerate() {
                builder.add_edge(i as u32, (i + 1) as u32, *w);
            }
            let wrap = |x: u32| x % n as u32;
            for (u, v, w) in extra {
                let (u, v) = (wrap(u), wrap(v));
                if u != v {
                    builder.add_edge(u, v, w);
                }
            }
            builder.build()
        })
    })
}

// 64 cases per property keeps the whole suite well under a minute (it runs in
// seconds) while still covering every `n` in the strategy's range many times.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_stepping_agrees_with_dijkstra(graph in arbitrary_graph(), delta in 1u32..200, source_sel in 0usize..24) {
        let source = (source_sel % graph.num_nodes()) as u32;
        let expected = dijkstra(&graph, source);
        let outcome = delta_stepping(&graph, source, delta, None);
        prop_assert_eq!(outcome.dist, expected.dist);
    }

    #[test]
    fn bellman_ford_agrees_with_dijkstra(graph in arbitrary_graph(), source_sel in 0usize..24) {
        let source = (source_sel % graph.num_nodes()) as u32;
        prop_assert_eq!(bellman_ford(&graph, source).dist, dijkstra(&graph, source).dist);
    }

    #[test]
    fn clustering_is_a_valid_partition_with_distance_upper_bounds(
        graph in arbitrary_graph(),
        tau in 1usize..4,
        seed in 0u64..1000,
    ) {
        let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
        let clustering = cluster(&graph, &config, &CancelToken::never());
        prop_assert!(clustering.validate(&graph).is_ok());
        for &c in &clustering.centers {
            let sp = dijkstra(&graph, c);
            for u in 0..graph.num_nodes() {
                if clustering.assignment[u] == c {
                    prop_assert!(clustering.dist[u] >= sp.dist[u]);
                }
            }
        }
    }

    #[test]
    fn diameter_estimate_is_conservative(
        graph in arbitrary_graph(),
        tau in 1usize..4,
        seed in 0u64..1000,
    ) {
        let exact = exact_diameter(&graph);
        let config = ClusterConfig::default().with_tau(tau).with_seed(seed);
        let estimate = approximate_diameter(&graph, &config);
        prop_assert!(estimate.upper_bound >= exact,
            "estimate {} below exact {}", estimate.upper_bound, exact);
        // The diameter lower bound never exceeds the exact value.
        let lower = diameter_lower_bound(&graph, 3, seed);
        prop_assert!(lower <= exact);
    }

    #[test]
    fn builder_is_idempotent_under_edge_duplication(graph in arbitrary_graph()) {
        // Re-adding every edge (in both orientations) must reproduce the graph.
        let mut builder = GraphBuilder::new(graph.num_nodes());
        for (u, v, w) in graph.edges() {
            builder.add_edge(u, v, w);
            builder.add_edge(v, u, w);
        }
        prop_assert_eq!(builder.build(), graph.clone());
    }

    #[test]
    fn mr_sort_and_prefix_sum_match_sequential(values in proptest::collection::vec(0u64..1000, 0..300), machines in 1usize..6) {
        let engine = MrEngine::new(MrConfig::with_machines(machines));
        let mut expected_sorted = values.clone();
        expected_sorted.sort_unstable();
        prop_assert_eq!(primitives::sort(&engine, values.clone()), expected_sorted);

        let scan = primitives::prefix_sum(&engine, &values);
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(scan[i], acc);
            acc += v;
        }
    }
}
