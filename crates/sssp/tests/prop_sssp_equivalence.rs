//! Property-based equivalence of the Δ-stepping implementations and of the
//! batched multi-source drivers.
//!
//! The acceptance bar for the bucket-array engine: on random weighted graphs
//! — connected, disconnected, and with heavy weights driving the engine
//! through its overflow path — the production engine
//! ([`cldiam_sssp::delta_stepping`]), the original `BTreeMap`-bucketed
//! implementation kept below as `delta_stepping_reference`, and Dijkstra
//! must agree on
//! every distance, the engine and the reference must agree on the phase
//! count, and the engine's full outcome (distances *and* counters) must be
//! bit-identical on thread pools of 1, 2 and 8 workers, with and without
//! scratch reuse. The batched eccentricity driver is pinned against the
//! sequential per-source Dijkstra loop under the same pools.
//!
//! The radix-heap kernel behind every exact SSSP, [`DijkstraScratch`], is
//! pinned against the binary-heap [`dijkstra`] with one scratch reused
//! across a sequence of graphs that grows and shrinks: every distance, the
//! eccentricity, the farthest node (largest id among equally far nodes),
//! the reach count, both directions of a directed run, and the node
//! sequence of a sweep chain.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cldiam_graph::{CompressedGraph, Dist, Graph, GraphBuilder, NodeId, Weight, INFINITY};
use cldiam_sssp::{
    batched_eccentricities, delta_stepping, delta_stepping_with_scratch, dijkstra,
    sweep_chain_lower_bound, DijkstraScratch, SsspDirection, SsspScratch,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// A random weighted graph of 2..=18 nodes. `spine` adds a spanning path
/// (connected); without it the random extra edges usually leave several
/// components, exercising unreachable nodes. `max_w` stretches the weight
/// range: small weights keep everything within one ring lap, heavy weights
/// under a small Δ force relaxations through the engine's overflow list.
fn graph_strategy(spine: bool, max_w: Weight) -> impl Strategy<Value = Graph> {
    (2usize..=18).prop_flat_map(move |n| {
        let path_weights = proptest::collection::vec(1..=max_w, if spine { n - 1 } else { 0 });
        let extra_edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 1..=max_w), 0..(2 * n));
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder = GraphBuilder::new(n);
            for (i, w) in pw.iter().enumerate() {
                builder.add_edge(i as u32, (i + 1) as u32, *w);
            }
            for (u, v, w) in extra {
                if u != v {
                    builder.add_edge(u, v, w);
                }
            }
            builder.build()
        })
    })
}

/// Union of the three graph families the engine must handle: connected with
/// light weights, typically disconnected, and connected with heavy weights.
fn any_graph() -> impl Strategy<Value = Graph> {
    (0usize..3).prop_flat_map(|family| {
        let (spine, max_w) = match family {
            0 => (true, 30),
            1 => (false, 30),
            _ => (true, 4_000_000),
        };
        graph_strategy(spine, max_w)
    })
}

/// The original `BTreeMap`-bucketed Δ-stepping, kept as the reference for
/// the bucket-array engine: this suite pins the distances and the phase
/// count bit-identical between the two. Returns both.
fn delta_stepping_reference(graph: &Graph, source: NodeId, delta: Weight) -> (Vec<Dist>, u64) {
    let n = graph.num_nodes();
    let delta_dist = Dist::from(delta);
    let mut dist = vec![INFINITY; n];
    let mut buckets: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    let mut phases = 0u64;
    dist[source as usize] = 0;
    buckets.entry(0).or_default().push(source);

    // The relaxation requests of `nodes` over their light or heavy edges,
    // generated from the pre-phase distances.
    let requests = |nodes: &[NodeId], dist: &[Dist], heavy: bool| -> Vec<(NodeId, Dist)> {
        nodes
            .iter()
            .flat_map(|&u| {
                let du = dist[u as usize];
                graph
                    .neighbors(u)
                    .filter(move |&(_, w)| (Dist::from(w) > delta_dist) == heavy)
                    .map(move |(v, w)| (v, du + Dist::from(w)))
            })
            .collect()
    };
    // Applies a batch of requests and re-buckets every improved node.
    let apply = |requests: Vec<(NodeId, Dist)>,
                 dist: &mut Vec<Dist>,
                 buckets: &mut BTreeMap<u64, Vec<NodeId>>| {
        for (v, d) in requests {
            if d < dist[v as usize] {
                dist[v as usize] = d;
                buckets.entry(d / delta_dist).or_default().push(v);
            }
        }
    };

    // Marks nodes already recorded in the current bucket's settled set, so the
    // heavy phase relaxes each of them exactly once.
    let mut in_settled = vec![false; n];
    while let Some((&bucket_idx, _)) = buckets.iter().next() {
        let mut settled: Vec<NodeId> = Vec::new();
        // Light phases: repeat until bucket `bucket_idx` stops receiving nodes.
        while let Some(current) = buckets.remove(&bucket_idx) {
            // Lazy deletion: skip entries whose distance left this bucket.
            let active: Vec<NodeId> = current
                .into_iter()
                .filter(|&v| {
                    dist[v as usize] != INFINITY && dist[v as usize] / delta_dist == bucket_idx
                })
                .collect();
            if active.is_empty() {
                continue;
            }
            phases += 1;
            let light = requests(&active, &dist, false);
            for &u in &active {
                if !in_settled[u as usize] {
                    in_settled[u as usize] = true;
                    settled.push(u);
                }
            }
            apply(light, &mut dist, &mut buckets);
            if !buckets.contains_key(&bucket_idx) {
                break;
            }
        }
        // Heavy phase: relax heavy edges of every node settled in the bucket.
        if !settled.is_empty() {
            phases += 1;
            let heavy = requests(&settled, &dist, true);
            apply(heavy, &mut dist, &mut buckets);
        }
        for u in settled {
            in_settled[u as usize] = false;
        }
    }
    (dist, phases)
}

/// Exercises one (graph, source, delta) case, asserting the
/// cross-implementation equalities, and returns the engine outcome.
fn check_case(
    graph: &Graph,
    source: NodeId,
    delta: Weight,
    scratch: &mut SsspScratch,
) -> cldiam_sssp::DeltaSteppingOutcome {
    let expected = dijkstra(graph, source);
    let engine = delta_stepping(graph, source, delta, None);
    let reused = delta_stepping_with_scratch(graph, source, delta, None, scratch);
    let (reference_dist, reference_phases) = delta_stepping_reference(graph, source, delta);
    assert_eq!(engine.dist, expected.dist, "engine vs dijkstra (source {source}, delta {delta})");
    assert_eq!(engine.dist, reference_dist, "engine vs reference (source {source}, delta {delta})");
    assert_eq!(
        engine.phases, reference_phases,
        "phase count diverged from the reference (source {source}, delta {delta})"
    );
    assert_eq!(reused, engine, "scratch reuse changed the outcome");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bucket_engine_matches_reference_and_dijkstra_on_every_pool(
        graph in any_graph(),
        source_sel in 0usize..18,
        delta_sel in 0usize..4,
    ) {
        let n = graph.num_nodes();
        let source = (source_sel % n) as NodeId;
        let avg = graph.avg_weight().unwrap_or(1).max(1);
        let delta = [1, avg, avg.saturating_mul(8).max(1), Weight::MAX][delta_sel].max(1);

        // One scratch reused across every pool: reuse must never leak state.
        let mut scratch = SsspScratch::new();
        let reference_outcome =
            with_pool(THREAD_COUNTS[0], || check_case(&graph, source, delta, &mut scratch));
        for &threads in &THREAD_COUNTS[1..] {
            let outcome =
                with_pool(threads, || check_case(&graph, source, delta, &mut scratch));
            // Full outcome — distances and all three counters — must be
            // bit-identical across pool sizes.
            prop_assert_eq!(&outcome, &reference_outcome, "diverged at {} threads", threads);
        }
    }

    #[test]
    fn batched_eccentricities_match_the_sequential_loop_on_every_pool(
        graph in any_graph(),
    ) {
        let sources: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        let sequential: Vec<Dist> =
            sources.iter().map(|&s| dijkstra(&graph, s).eccentricity()).collect();
        for &threads in &THREAD_COUNTS {
            let batched = with_pool(threads, || batched_eccentricities(&graph, &sources));
            prop_assert_eq!(&batched, &sequential, "diverged at {} threads", threads);
        }
    }
}

/// A random graph of 1..=40 nodes for the kernel suite. Unit weights make
/// many nodes tie on distance, so the farthest-node tie-break is exercised;
/// the widest family draws weights up to `Weight::MAX`. Without `spine` the
/// graph is usually disconnected, and each extra edge may come with a twin
/// of another weight (a multi-edge the builder collapses to its lightest).
fn kernel_graph(directed: bool) -> impl Strategy<Value = Graph> {
    (1usize..=40, 0usize..4, 0usize..2).prop_flat_map(move |(n, family, spine)| {
        let max_w = [1, 30, 4_000_000, Weight::MAX][family];
        let path_weights = proptest::collection::vec(1..=max_w, if spine == 1 { n - 1 } else { 0 });
        // (u, v, w, (twin?, twin weight))
        let extra_edges = proptest::collection::vec(
            (0..n as u32, 0..n as u32, 1..=max_w, (0usize..2, 1..=max_w)),
            0..(3 * n),
        );
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder =
                if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new(n) };
            let mut add = |u: u32, v: u32, w: Weight| {
                if directed {
                    builder.add_arc(u, v, w);
                } else {
                    builder.add_edge(u, v, w);
                }
            };
            for (i, w) in pw.iter().enumerate() {
                add(i as u32, (i + 1) as u32, *w);
            }
            for (u, v, w, (twin, w2)) in extra {
                if u != v {
                    add(u, v, w);
                    if twin == 1 {
                        add(u, v, w2);
                    }
                }
            }
            builder.build()
        })
    })
}

/// Asserts that the scratch's last run from `source` equals `dijkstra` on
/// `reference` — distances, eccentricity, farthest node and reach count.
fn assert_scratch_matches(scratch: &DijkstraScratch, reference: &Graph, source: NodeId) {
    let expected = dijkstra(reference, source);
    for v in 0..reference.num_nodes() as NodeId {
        assert_eq!(scratch.distance(v), expected.dist[v as usize], "source {source} node {v}");
    }
    assert_eq!(scratch.eccentricity(), expected.eccentricity(), "source {source}");
    assert_eq!(scratch.farthest_node(), expected.farthest_node(), "source {source}");
    assert_eq!(scratch.reached(), expected.reached(), "source {source}");
}

/// The nodes a farthest-node sweep chain visits from `start`, stopping at
/// the first repeat, with each step supplied by `sweep` as
/// `(eccentricity, farthest node)`.
fn sweep_chain_nodes(
    start: NodeId,
    budget: usize,
    mut sweep: impl FnMut(NodeId) -> (Dist, NodeId),
) -> (Vec<NodeId>, Dist) {
    let mut visited = vec![start];
    let mut best = 0;
    while visited.len() <= budget {
        let (ecc, farthest) = sweep(*visited.last().expect("chain has a start"));
        best = best.max(ecc);
        if visited.contains(&farthest) {
            break;
        }
        visited.push(farthest);
    }
    visited.truncate(budget);
    (visited, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reused_scratch_matches_dijkstra_on_undirected_graphs(
        graphs in proptest::collection::vec(kernel_graph(false), 1..6),
    ) {
        let mut scratch = DijkstraScratch::new();
        // Forward then backward through the sequence: the scratch sees the
        // node count both grow and shrink.
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            let compressed = CompressedGraph::from_graph(graph, 1);
            for source in 0..graph.num_nodes() as NodeId {
                scratch.run(graph, source);
                assert_scratch_matches(&scratch, graph, source);
                scratch.run(&compressed, source);
                assert_scratch_matches(&scratch, graph, source);
            }
        }
    }

    #[test]
    fn directed_runs_match_dijkstra_on_the_graph_and_its_reverse(
        graphs in proptest::collection::vec(kernel_graph(true), 1..6),
    ) {
        let mut scratch = DijkstraScratch::new();
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            let reversed = graph.reversed();
            for source in 0..graph.num_nodes() as NodeId {
                scratch.run_directed(graph, source, SsspDirection::Forward);
                assert_scratch_matches(&scratch, graph, source);
                scratch.run_directed(graph, source, SsspDirection::Backward);
                assert_scratch_matches(&scratch, &reversed, source);
            }
        }
    }

    #[test]
    fn scratch_sweep_chains_visit_the_dijkstra_chain(
        graphs in proptest::collection::vec(kernel_graph(false), 1..6),
        budget in 1usize..8,
    ) {
        let mut scratch = DijkstraScratch::new();
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            for start in 0..graph.num_nodes() as NodeId {
                let via_scratch = sweep_chain_nodes(start, budget, |u| {
                    scratch.run(graph, u);
                    (scratch.eccentricity(), scratch.farthest_node())
                });
                let via_dijkstra = sweep_chain_nodes(start, budget, |u| {
                    let sp = dijkstra(graph, u);
                    (sp.eccentricity(), sp.farthest_node())
                });
                prop_assert_eq!(&via_scratch, &via_dijkstra, "start {}", start);
                let (best, used) = sweep_chain_lower_bound(graph, start, budget, &mut scratch);
                prop_assert_eq!((best, used), (via_dijkstra.1, via_dijkstra.0.len()));
            }
        }
    }
}

/// The Δ tradeoff on a structured graph, pinned deterministically: on the
/// repo's standard mesh, phases are non-increasing along a doubling Δ grid
/// (toward Bellman-Ford). Kept out of the proptest because the monotonicity
/// is a property of well-behaved instances, not of adversarial ones — and
/// the work counters are *not* pointwise monotone (vanishing heavy phases
/// can shed a few duplicate relaxations between neighbouring grid points),
/// so only the endpoints are compared on work.
#[test]
fn phases_fall_along_a_doubling_delta_grid() {
    let graph = cldiam_gen::mesh(12, cldiam_gen::WeightModel::UniformUnit, 3);
    let mut scratch = SsspScratch::with_capacity(graph.num_nodes());
    let mut delta: Weight = 50_000;
    let mut first: Option<cldiam_sssp::DeltaSteppingOutcome> = None;
    let mut previous_phases = u64::MAX;
    for _ in 0..8 {
        let outcome = delta_stepping_with_scratch(&graph, 0, delta, None, &mut scratch);
        assert!(
            outcome.phases <= previous_phases,
            "phases rose from {previous_phases} to {} at delta {delta}",
            outcome.phases
        );
        previous_phases = outcome.phases;
        first.get_or_insert(outcome);
        delta = delta.saturating_mul(2);
    }
    let fine = first.expect("grid ran");
    let coarse = delta_stepping_with_scratch(&graph, 0, delta, None, &mut scratch);
    assert!(coarse.work() >= fine.work(), "coarse {} fine {}", coarse.work(), fine.work());
}
