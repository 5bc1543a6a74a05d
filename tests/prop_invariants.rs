//! Property-based tests (proptest) over randomly generated weighted graphs.
//!
//! These exercise the invariants that the paper's correctness rests on:
//!
//! * Δ-stepping and Bellman-Ford agree with Dijkstra for every `Δ`;
//! * `CLUSTER` produces a partition whose recorded distances upper-bound the
//!   true distances to the centers;
//! * the quotient-based estimate `Φ(G_C) + 2R` never underestimates the true
//!   diameter, also when the quotient passes 2,000 nodes, and every other
//!   bound brackets it on the dense and the compressed tier;
//! * the graph builder and the MR primitives behave like their sequential
//!   specifications.

use proptest::prelude::*;

use cldiam::core::{anytime_diameter, AnytimeConfig};
use cldiam::gen::{gnm_random, road_network};
use cldiam::graph::{largest_component, CancelToken, CompressedGraph, NeighborSource};
use cldiam::prelude::*;
use cldiam::sssp::{
    dijkstra, exact_diameter, sssp_diameter_upper_bound, BoundsConfig, ComponentSplit,
};
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

/// Strategy: a graph of 2,001–2,500 nodes, so that an all-singleton
/// clustering's quotient passes 2,000 nodes too. Either a `road_network`
/// largest component (connected, two draws in three) or a sparse
/// `gnm_random` graph (disconnected), rebuilt through [`rebuild`].
fn large_graph() -> impl Strategy<Value = Graph> {
    ((0u32..3, 0u64..1_000_000), (0usize..4, 0usize..4, 2usize..6, 0usize..4)).prop_map(
        |((family, seed), (a, b, dup_every, heavy))| {
            let base = if family < 2 {
                largest_component(&road_network(47 + a, 47 + b, seed)).0
            } else {
                let n = 2_001 + 100 * a + 60 * b;
                gnm_random(n, n * 5 / 4, WeightModel::UniformUnit, seed)
            };
            rebuild(&base, dup_every, heavy, seed)
        },
    )
}

/// `graph` rebuilt through `GraphBuilder`, with every `dup_every`-th edge
/// added a second time at another weight (a parallel arc: the builder keeps
/// the lighter copy) and `heavy` edges reweighted to within 8 of
/// `Weight::MAX`.
fn rebuild(graph: &Graph, dup_every: usize, heavy: usize, seed: u64) -> Graph {
    let m = graph.num_edges();
    let heavy_at: Vec<usize> = (0..heavy).map(|j| (seed as usize + 7_919 * j) % m).collect();
    let mut builder = GraphBuilder::new(graph.num_nodes());
    for (i, (u, v, w)) in graph.edges().enumerate() {
        let w =
            if heavy_at.contains(&i) { Weight::MAX - ((seed + i as u64) % 8) as Weight } else { w };
        builder.add_edge(u, v, w);
        if i % dup_every == 0 {
            builder.add_edge(v, u, if i % 2 == 0 { w.saturating_add(3) } else { (w / 2).max(1) });
        }
    }
    builder.build()
}

/// Every bound the library reports on `graph` against its `exact` diameter:
/// CL-DIAM with `CLUSTER` and `CLUSTER2`, at τ = n (every node its own
/// cluster, so the quotient is the graph) and at the CLI's τ rule; the
/// anytime engine with the quotient oracle, complete and check-limited; and
/// the sweep bounds.
fn assert_bounds_bracket<G: NeighborSource>(graph: &G, exact: Dist, seed: u64) {
    let n = graph.num_nodes();
    let split = ComponentSplit::compute(graph);
    for tau in [n, ClusterConfig::tau_for_quotient_target(n, 2_000)] {
        for cluster2 in [false, true] {
            let config =
                ClusterConfig::default().with_tau(tau).with_seed(seed).with_cluster2(cluster2);
            let estimate = approximate_diameter(graph, &config);
            assert!(
                estimate.upper_bound >= exact,
                "τ {tau}, CLUSTER2 {cluster2}: estimate {} below the exact diameter {exact} \
                 ({} clusters)",
                estimate.upper_bound,
                estimate.num_clusters
            );
        }
    }
    let anytime = AnytimeConfig::default()
        .with_bounds(BoundsConfig::default().with_max_sssp(5))
        .with_cluster(ClusterConfig::default().with_tau(n).with_seed(seed));
    for (name, cancel) in
        [("never", CancelToken::never()), ("check limit 4", CancelToken::with_check_limit(4))]
    {
        let outcome = anytime_diameter(graph, &anytime, &split, &cancel);
        assert!(
            outcome.lower <= exact && exact <= outcome.upper,
            "anytime run ({name}): [{}, {}] misses the exact diameter {exact}",
            outcome.lower,
            outcome.upper
        );
    }
    let source = (seed % n as u64) as NodeId;
    assert!(sssp_diameter_upper_bound(graph, source, &split) >= exact);
    assert!(diameter_lower_bound(graph, 4, seed) <= exact);
}

// Each case pays an all-pairs reference diameter and solves 2,000-node
// quotients several times over: 8 cases take about half a minute in a debug
// build.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_bound_brackets_the_exact_diameter_past_2000_nodes(
        graph in large_graph(),
        seed in 0u64..1000,
    ) {
        let n = graph.num_nodes();
        prop_assert!((2_001..=2_500).contains(&n), "the strategy drew {} nodes", n);
        let exact = exact_diameter(&graph);
        assert_bounds_bracket(&graph, exact, seed);
        assert_bounds_bracket(&CompressedGraph::from_graph(&graph, 1), exact, seed);
    }
}
